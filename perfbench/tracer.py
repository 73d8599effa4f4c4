"""Spans and counters recorded from outside weylmod.

The tracer wraps the public entry points of each layer.  A wrapper is
installed on every module that bound the name (``modules.buchberger``,
``lattice.buchberger``, ``cli.grade``, ...) and on class attributes for
methods, so no call escapes its span.  Hot paths are counted, not timed:
``leading_term``, ``normal_product``, the ``RatFunc`` operators and
``QPoly.gcd``.  ``FreeVec.mul_left`` is timed on one call in
``MUL_LEFT_SAMPLE`` and its total time is estimated from that sample.
Spans stay in memory; the child writes them out when its session ends.
"""

import functools
import sys
import time

MUL_LEFT_SAMPLE = 8

# (module, name): functions timed with a span at each call.
TIMED = [
    ("weylmod.parser", "parse"),
    ("weylmod.modules", "grade"),
    ("weylmod.modules", "ext"),
    ("weylmod.modules", "is_minimal_dimension"),
    ("weylmod.modules", "hilbert_dimension"),
    ("weylmod.modules", "char_cycle"),
    ("weylmod.modules", "dual_star"),
    ("weylmod.lattice", "make_lattice"),
    ("weylmod.lattice", "reduce_mod_z"),
    ("weylmod.lattice", "minimal_dimension_via_reduction"),
    ("weylmod.lattice", "good_lattice"),
    ("weylmod.lattice", "compare_lattices"),
    ("weylmod.lattice", "kunneth_check"),
    ("weylmod.groebner", "buchberger"),
    ("weylmod.groebner", "left_normal_form"),
    ("weylmod.groebner", "syz_of_list"),
    ("weylmod.groebner", "free_resolution"),
    ("weylmod.groebner", "preimage_rows"),
    ("weylmod.groebner", "colon_z"),
    ("weylmod.groebner", "saturate_z"),
    ("weylmod.derham", "h_dr_n1"),
    ("weylmod.derham", "stabilization_oracle"),
    ("weylmod.derham", "chi_via_reduction"),
    ("weylmod.derham", "euler_check_perfect"),
]
COUNTED = [
    ("weylmod.groebner", "leading_term"),
    ("weylmod.weyl", "normal_product"),
]


class Tracer:
    """Span list plus per-name calls, inclusive and self seconds."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []        # [name, start, end, parent span index]
        self.stack = []        # open calls: [span index, child seconds]
        self.calls = {}
        self.incl = {}         # outermost calls only, so nesting is not
        self.self_s = {}       # counted twice
        self.depth = {}
        self.sampled = {}      # name -> [timed calls, timed seconds]
        self.stats = {"spairs": 0, "reductions_to_zero": 0,
                      "basis_peak": 0, "resaturations": 0,
                      "window_width": 0, "oracle_degree": 0}

    def timed(self, name, fn, after=None, span=True):
        calls, incl, self_s, depth = (self.calls, self.incl, self.self_s,
                                      self.depth)
        spans, stack, clock, t0 = (self.spans, self.stack,
                                   time.perf_counter, self.t0)
        incl.setdefault(name, 0.0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            parent = stack[-1][0] if stack else None
            idx = parent
            if span:
                idx = len(spans)
                spans.append([name, None, None, parent])
            frame = [idx, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                if not depth[name]:
                    incl[name] += dur
                if span:
                    spans[idx][1] = start - t0
                    spans[idx][2] = end - t0
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def sampled_timer(self, name, fn, every):
        calls, clock = self.calls, time.perf_counter
        acc = self.sampled.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = calls.get(name, 0) + 1
            calls[name] = k
            if k % every:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            acc[0] += 1
            acc[1] += clock() - start
            return result
        return wrapper

    # --- after-call hooks that read results the entry points return

    def _after_buchberger(self, args, gb):
        st = self.stats
        spairs = gb.stats.get("spairs", 0)
        zero = gb.stats.get("reductions_to_zero", 0)
        st["spairs"] += spairs
        st["reductions_to_zero"] += zero
        gens = args[0] if args else ()
        if isinstance(gens, (list, tuple)):
            # basis before interreduction: the inputs plus one element per
            # S-pair that did not reduce to zero
            size = sum(1 for g in gens if g and g.terms) + spairs - zero
            st["basis_peak"] = max(st["basis_peak"], size)

    def _after_make_lattice(self, args, _result):
        if args and getattr(args[0], "saturated", False):
            self.stats["resaturations"] += 1

    def _after_h_dr_n1(self, _args, rep):
        roots = rep.b_function.integer_roots if rep.b_function else []
        if roots:
            width = max(roots) - min(roots) + 1
            self.stats["window_width"] = max(self.stats["window_width"],
                                             width)

    def _after_oracle(self, _args, out):
        self.stats["oracle_degree"] = max(self.stats["oracle_degree"],
                                          out["degree"])

    def install(self):
        """Wrap every entry point; call after `weylmod.cli` is imported."""
        hooks = {"buchberger": self._after_buchberger,
                 "make_lattice": self._after_make_lattice,
                 "h_dr_n1": self._after_h_dr_n1,
                 "stabilization_oracle": self._after_oracle}
        for mod, attr in TIMED + COUNTED:
            name = "%s.%s" % (mod.split(".")[1], attr)
            orig = getattr(sys.modules[mod], attr)
            if (mod, attr) in TIMED:
                _rebind(orig, self.timed(name, orig, hooks.get(attr)))
            else:
                _rebind(orig, self.counted(name, orig))
        cli = sys.modules["weylmod.cli"]
        for sub, fn in list(cli._HANDLERS.items()):
            cli._HANDLERS[sub] = self.timed("cli." + sub, fn)

        from weylmod._linalg import Echelon
        from weylmod.groebner import FreeVec
        from weylmod.scalars import QPoly, RatFunc
        # Echelon.add runs thousands of times per oracle call: timed, but
        # kept out of the span list.
        Echelon.add = self.timed("linalg.echelon_add", Echelon.add,
                                 span=False)
        FreeVec.mul_left = self.sampled_timer(
            "groebner.mul_left", FreeVec.mul_left, MUL_LEFT_SAMPLE)
        for op in ("__add__", "__radd__", "__mul__", "__rmul__",
                   "__truediv__"):
            setattr(RatFunc, op, self.counted("scalars.ratfunc_op",
                                              getattr(RatFunc, op)))
        QPoly.gcd = self.counted("scalars.qpoly_gcd", QPoly.gcd)

    def summary(self):
        return {"calls": self.calls, "incl": self.incl, "self": self.self_s,
                "sampled": self.sampled, "stats": self.stats,
                "spans": self.spans}


def _rebind(orig, wrapped):
    """Replace every binding of orig in weylmod's modules with wrapped."""
    for name, mod in list(sys.modules.items()):
        if name != "weylmod" and not name.startswith("weylmod."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)

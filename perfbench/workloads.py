"""Seeded session ladders for the three benchmark workloads.

A session is one `.wm` source with one `check` line: what a user hands
`weylmod` once per process.  A rung is a family of sessions on one
presentation; its parameter (a GKZ beta, a shift, a complex) comes from a
fixed pool, so every session any seed can produce belongs to a finite
universe whose answers are pinned in `pins.json`.  The seed picks one
parameter per rung and the order of the sessions in a pass.
"""

import json
import pathlib
import random

WORKLOADS = ("gkz-resolution", "qz-family", "derham-window")

# GKZ systems with A = [1 k] or [2 3] are resonant exactly at integer beta.
BETA = ("1/2", "1/3", "-2/3", "3/4")
# For A = [[1,1,1],[0,1,2]] the resonant betas have beta2 or 2*beta1 - beta2
# integral; every pair below avoids both.
BETA3 = (("1/2", "1/3"), ("1/3", "1/2"), ("-1/2", "2/3"), ("3/4", "1/5"))
# Generators of Koszul complexes over Q[z]: d o d = 0 by construction.
KOSZUL2 = (("z", "1 - z"), ("z^2", "2 + z"), ("1 + z", "z - 3"),
           ("z^2 - z", "1/2 + z"))
KOSZUL3 = (("z", "1 - z", "2"), ("z^2", "1 + z", "z - 1"),
           ("1/2 + z", "z^2", "3"), ("z - 2", "z", "1 + z^2"))


class Session:
    """One session: its source, what it must answer, how it is checked.

    checks names the independent checks of checks.py; golden is the
    expected stripped report of a tests/golden case, else the result is
    compared with its pin.
    """

    __slots__ = ("name", "source", "n", "expect_exit", "checks", "golden")

    def __init__(self, name, source, n, checks=(), expect_exit=0,
                 golden=None):
        self.name = name
        self.source = source
        self.n = n
        self.checks = tuple(checks)
        self.expect_exit = expect_exit
        self.golden = golden


def _module_source(n, ring, rows, command, extra="", target="M"):
    matrix = ", ".join("[%s]" % r if isinstance(r, str) else
                       "[%s]" % ", ".join(r) for r in rows)
    return "ring W(%d) over %s;\nmodule M = coker [%s];\n%scheck %s %s\n" % (
        n, ring, matrix, extra, target, command)


def _minus(v):
    """' - v' written without a double sign."""
    return "+ " + v[1:] if v.startswith("-") else "- " + v


def _euler(row, beta):
    terms = " + ".join("%sx%d*d%d" % ("" if c == 1 else "%d*" % c, j + 1,
                                      j + 1)
                       for j, c in enumerate(row) if c)
    return "%s %s" % (terms, _minus(beta))


# Independent checks per subcommand, for modules known to be holonomic.
_HOLONOMIC_CHECKS = {"grade": ("grade=n",), "dim": ("dim=n",),
                     "holonomic": ("holonomic",)}


def _gkz(name, n, toric, arows, subcommands, pool=BETA):
    def make(beta):
        betas = beta if isinstance(beta, tuple) else (beta,)
        rows = list(toric) + [_euler(r, b) for r, b in zip(arows, betas)]
        return [(sub, _module_source(n, "QQ", rows, sub),
                 _HOLONOMIC_CHECKS.get(sub.split()[0], ()))
                for sub in subcommands]
    return name, n, pool, make


def _qz(name, rows, subcommands, n=2, pool=BETA, lattice="[[z]]"):
    """rows: templates where {m} stands for ' - beta'; lattice: generators
    of the second lattice P of compare-lattices."""
    def make(beta):
        rs = [r.format(m=_minus(beta)) for r in rows]
        out = []
        for sub in subcommands:
            kind = sub.split()[0]
            if kind == "compare-lattices":
                extra = "lattice L = M;\nlattice P = M with %s;\n" % lattice
                src = _module_source(n, "QZ", rs, sub, extra, "L")
            else:
                src = _module_source(n, "QZ", rs, sub)
            checks = {"kunneth": ("kunneth",),
                      "compare-lattices": ("equal",)}.get(
                          kind, _HOLONOMIC_CHECKS.get(kind, ()))
            out.append((sub, src, checks))
        return out
    return name, n, pool, make


def _koszul(name, pool):
    def make(gens):
        if len(gens) == 2:
            f, g = gens
            mats = "[[%s, %s]] [[%s], [-(%s)]]" % (f, g, g, f)
            ranks = "[1, 2, 1]"
        else:
            f, g, h = gens
            mats = ("[[%s, %s, %s]] [[%s, %s, 0], [-(%s), 0, %s], "
                    "[0, -(%s), -(%s)]] [[%s], [-(%s)], [%s]]"
                    % (f, g, h, g, h, f, h, f, g, h, g, f))
            ranks = "[1, 3, 3, 1]"
        src = ("ring W(1) over QZ;\ncomplex C = %s with %s;\n"
               "check C euler-check\n" % (ranks, mats))
        return [("euler-check", src, ("equal",))]
    return name, 1, pool, make


def _w1(name, rows, subcommands=("derham", "chi"), pool=(None,)):
    def make(p):
        rs = [r.format(p=p) if isinstance(r, str) else
              [e.format(p=p) for e in r] for r in rows]
        return [(sub, _module_source(1, "QQ", rs, sub),
                 ("oracle",) if sub == "derham" else ())
                for sub in subcommands]
    return name, 1, pool, make


def _rungs(workload):
    if workload == "gkz-resolution":
        return [
            _gkz("A12", 2, ["d1^2 - d2"], [(1, 2)],
                 ["gb", "dim", "grade", "holonomic", "dual", "ext 1",
                  "ext 2"]),
            _gkz("A13", 2, ["d1^3 - d2"], [(1, 3)],
                 ["gb", "dim", "grade", "dual"]),
            _gkz("A14", 2, ["d1^4 - d2"], [(1, 4)], ["gb", "dim", "ext 2"]),
            _gkz("A23", 2, ["d1^3 - d2^2"], [(2, 3)],
                 ["gb", "dim", "grade", "ext 1"]),
            _gkz("A3", 3, ["d1*d3 - d2^2"], [(1, 1, 1), (0, 1, 2)],
                 ["gb", "dim", "ext 1"], pool=BETA3),
        ]
    if workload == "qz-family":
        return [
            _qz("Z12", ["d1^2 - d2", "x1*d1 + 2*x2*d2 {m} - z"],
                ["holonomic-hat", "reduce", "kunneth 1", "kunneth 2",
                 "good-lattice", "compare-lattices P", "grade",
                 "holonomic"]),
            _qz("Z12d", ["d1^2 - z*d2", "x1*d1 + 2*x2*d2 {m}"],
                ["holonomic-hat", "kunneth 1"]),
            _qz("Z12e", ["d1^2 - d2", "x1*d1 - z*x2*d2 {m}"],
                ["holonomic-hat"]),
            _qz("Z13", ["d1^3 - d2", "x1*d1 + 3*x2*d2 {m} - z"],
                ["holonomic-hat"]),
            _qz("Z1", ["x1*d1 {m} - z"],
                ["reduce", "good-lattice", "kunneth 1", "compare-lattices P"],
                n=1, lattice="[[z], [x1]]"),
            _qz("Z1chi", ["(x1*d1 - 1)*(x1*d1 + 2 {m}*z)"],
                ["chi"], n=1),
            _koszul("K2", KOSZUL2),
            _koszul("K3", KOSZUL3),
        ]
    if workload == "derham-window":
        prod = "(x1*d1 - %d)*(x1*d1 + %d)"
        return [
            # root spread 3, 5, 7, 9: the window and the oracle both widen
            _w1("S3", [prod % (1, 2)], ("derham",)),
            _w1("S5", [prod % (2, 3)], ("derham",)),
            _w1("S7", [prod % (3, 4)], ("derham",)),
            _w1("S9", [prod % (4, 5)], ("derham",)),
            _w1("Sq", ["(x1*d1 - {p})*(x1*d1 + 2)"],
                pool=("1/2", "1/3", "2/3", "3/4")),
            # known defect: the window-5 oracle stabilises early on these
            _w1("S11", [prod % (5, 6)], ("derham",)),
            _w1("S13", [prod % (6, 7)], ("derham",)),
            _w1("T123", ["(x1*d1 - 1)*(x1*d1 - 2)*(x1*d1 + 3)"],
                ("derham",)),
            _w1("T124", ["(x1*d1 - 1)*(x1*d1 + 2)*(x1*d1 + 4)"]),
            _w1("T215", ["(x1*d1 - 2)*(x1*d1 + 1)*(x1*d1 + 5)"],
                ("derham",)),
            _w1("T415", ["(x1*d1 - 4)*(x1*d1 + 1)*(x1*d1 + 5)"],
                ("derham",)),
            _w1("R2", [["d1", "0"], ["0", "x1*d1 - {p}"]],
                pool=("1", "2", "1/2", "1/3")),
            _w1("R2u", [["x1*d1 - 1", "x1"], ["0", "d1"]]),
            _w1("R2d", [["(x1*d1 - 1)*(x1*d1 + 2)", "0"],
                        ["0", "(x1*d1 - 3)*(x1*d1 + 4)"]], ("derham",)),
            _w1("R2t", [["(x1*d1 - 1)*(x1*d1 + 2)", "x1"],
                        ["0", "(x1*d1 - 3)*(x1*d1 + 4)"]], ("derham",)),
            _w1("I3", ["x1^3*d1 - 1"]),
            _w1("Ia", ["d1^3 - x1"], ("derham",)),
            _w1("I2", ["x1^2*d1 - {p}"], ("derham",),
                pool=("1", "2", "1/2", "3")),
        ]
    raise ValueError("unknown workload %r" % workload)


# tests/golden cases per workload: QQ module sessions, QZ lattice
# sessions, and the de Rham case.
GOLDENS = {
    "gkz-resolution": ("charcycle", "dim", "dual", "ext", "gb", "grade",
                       "holonomic", "nf", "err-parse", "err-precondition"),
    "qz-family": ("chi", "compare-lattices", "euler-check", "good-lattice",
                  "holonomic-hat", "kunneth", "reduce"),
    "derham-window": ("derham",),
}


def _goldens(workload, root):
    out = []
    gdir = pathlib.Path(root) / "tests" / "golden"
    for case in GOLDENS[workload]:
        want = json.loads((gdir / (case + ".json")).read_text())
        out.append(Session("golden/" + case,
                           (gdir / (case + ".in")).read_text(), None,
                           expect_exit=want["exit"], golden=want["report"]))
    return out


def _sessions(name, n, param, make):
    tag = "" if param is None else "[%s]" % (
        ",".join(param) if isinstance(param, tuple) else param)
    return [Session("%s%s %s" % (name, tag, sub), src, n, checks)
            for sub, src, checks in make(param)]


def ladder(workload, seed, root):
    """One pass of the workload: a parameter per rung, shuffled by seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for name, n, pool, make in _rungs(workload):
        out.extend(_sessions(name, n, rng.choice(pool), make))
    out.extend(_goldens(workload, root))
    rng.shuffle(out)
    return out


def universe(workload):
    """Every generated session any seed can produce (goldens excluded)."""
    out = []
    for name, n, pool, make in _rungs(workload):
        for param in pool:
            out.extend(_sessions(name, n, param, make))
    return out

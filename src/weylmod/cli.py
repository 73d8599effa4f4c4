"""
Command line front end: parse a session, run its check, print a JSON report.

Exit codes: 0 when a verdict was computed (negative verdicts included),
1 when a precondition failed (the taxonomy code is in the report),
2 for a parse error, with source position.

Flags given on the command line are session defaults; a flag written on
the check line of the input wins over them.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from . import groebner
from .derham import (PerfectComplexOverDVR, chi_via_reduction,
                     euler_check_perfect, h_dr_n1, stabilization_oracle)
from .errors import ParseError, RankMismatch, WeylmodError
from .groebner import FreeVec, left_normal_form
from .lattice import (IntegralPresentation, Lattice, compare_lattices,
                      good_lattice, kunneth_check, make_lattice,
                      minimal_dimension_via_reduction, reduce_mod_z)
from .modules import (PresentedModule, char_cycle, dual_star, ext, grade,
                      hilbert_dimension, is_minimal_dimension)
from .parser import parse
from .scalars import INF, QPoly, RatFunc
from .weyl import QZ, to_str


# --- serialization

def _jsonable(v):
    if v == INF:
        return "infinity"
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, QPoly):
        return v.to_str("z")
    if isinstance(v, RatFunc):
        return v.to_str()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def _rows(rows):
    return [[to_str(w) for w in r.entries()] for r in rows]


def _cycle(c):
    return None if c is None else c.as_dict()


def _cohomology(rep):
    out = {"dims": list(rep.dims) if rep.dims is not None else None,
           "chi": rep.chi,
           "provenance": rep.provenance}
    if rep.b_function is not None:
        out["b_function"] = rep.b_function.poly.to_str("s")
        out["integer_roots"] = sorted(rep.b_function.integer_roots)
    return out


# --- targets; the parser has checked each name's kind and the ring

def _module(sess, name):
    return PresentedModule.from_matrix(sess.n, sess.ring, sess.modules[name])


def _lattice(sess, name, avatars):
    """A module name is its standard lattice; a lattice name is itself.

    avatars maps a base module name to its saturated avatar, so lattices of
    one module share one saturation.
    """
    base, gens = sess.lattices.get(name, (name, None))
    avatar = avatars.get(base)
    if avatar is None:
        avatar = avatars[base] = make_lattice(
            IntegralPresentation.from_qz_matrix(sess.n, sess.modules[base]))
    rows = None
    if gens is not None:
        rows = IntegralPresentation.from_qz_matrix(
            sess.n, gens, rank=avatar.rank).rows
    return Lattice(avatar, rows)


def _presentation(sess, name):
    return _lattice(sess, name, {}).presentation()


# --- subcommand handlers

def _cmd_gb(sess, target, args, flags):
    g = _module(sess, target).gb()
    return {"basis": _rows(g.elements), "size": len(g.elements),
            "is_full_module": g.is_full_module()}


def _cmd_nf(sess, target, args, flags):
    M = _module(sess, target)
    row = args[0]
    if len(row) != M.rank:
        raise RankMismatch("element has %d entries, module has rank %d"
                           % (len(row), M.rank))
    g = M.gb()
    r = left_normal_form(FreeVec.from_entries(row, rank=M.rank),
                         g, g.order)
    return {"normal_form": [to_str(w) for w in r.entries()],
            "member": r.is_zero()}


def _cmd_dim(sess, target, args, flags):
    return {"dimension": hilbert_dimension(_module(sess, target))}


def _cmd_grade(sess, target, args, flags):
    return {"grade": grade(_module(sess, target))}


def _cmd_holonomic(sess, target, args, flags):
    M = _module(sess, target)
    if M.is_zero():
        return {"holonomic": False, "grade": INF, "dimension": None}
    return {"holonomic": is_minimal_dimension(M), "grade": grade(M),
            "dimension": hilbert_dimension(M)}


def _cmd_ext(sess, target, args, flags):
    i = args[0]
    E = ext(i, _module(sess, target))
    return {"i": i, "rows": _rows(E.rows), "rank": E.rank,
            "side": E.side, "is_zero": E.is_zero()}


def _cmd_charcycle(sess, target, args, flags):
    c = char_cycle(_module(sess, target))
    return {"cycle": c.as_dict(), "total_multiplicity": c.total()}


def _cmd_dual(sess, target, args, flags):
    D = dual_star(_module(sess, target))
    return {"rows": _rows(D.rows), "rank": D.rank, "side": D.side}


def _cmd_reduce(sess, target, args, flags):
    rep = reduce_mod_z(_presentation(sess, target),
                       with_generic_diagnostic=True)
    return {"is_zero": rep.is_zero,
            "cycle": _cycle(rep.char_cycle_of_reduction),
            "holonomic_reduction": rep.minimal_dimension_verdict,
            "generic_fiber_is_zero": rep.generic_fiber_is_zero}


def _cmd_holonomic_hat(sess, target, args, flags):
    verdict = minimal_dimension_via_reduction(_presentation(sess, target))
    return {"holonomic": verdict}


def _cmd_good_lattice(sess, target, args, flags):
    G = good_lattice(_presentation(sess, target))
    return {"rows": _rows(G.rows), "rank": G.rank}


def _cmd_compare_lattices(sess, target, args, flags):
    avatars = {}
    rep = compare_lattices(_lattice(sess, target, avatars),
                           _lattice(sess, args[0], avatars),
                           zpower=flags["zpower"])
    return {"equal": rep.equal, "zero_both": rep.zero_both,
            "cycle_first": _cycle(rep.cycle_first),
            "cycle_second": _cycle(rep.cycle_second),
            "holonomic_first": rep.verdict_first,
            "holonomic_second": rep.verdict_second,
            "multiplicity_first": rep.multiplicity_first,
            "multiplicity_second": rep.multiplicity_second}


def _cmd_kunneth(sess, target, args, flags):
    i = args[0]
    rep = kunneth_check(_presentation(sess, target), i)
    return {"i": i, "zero_pattern_ok": rep.zero_pattern_ok,
            "additivity_ok": rep.additivity_ok,
            "cycles": {k: _cycle(v) for k, v in rep.cycles.items()},
            "terms_zero": {"ext_integral_reduced":
                           rep.ext_integral_reduced.is_zero(),
                           "ext_of_reduction":
                           rep.ext_of_reduction.is_zero(),
                           "tor_term": rep.tor_term.is_zero()}}


def _cmd_derham(sess, target, args, flags):
    M = _module(sess, target)
    rep = h_dr_n1(M)
    out = _cohomology(rep)
    oracle = stabilization_oracle(M, max_degree=flags["max-degree"])
    out["oracle"] = oracle
    if oracle["stabilized"]:
        out["oracle_agrees"] = (tuple(oracle["dims"]) == tuple(rep.dims))
    else:
        out["oracle_agrees"] = None
    return out


def _cmd_chi(sess, target, args, flags):
    if sess.ring == QZ or target in sess.lattices:
        rep = chi_via_reduction(_presentation(sess, target))
        out = _cohomology(rep)
        out["fiber"] = _cohomology(rep.details)
        return out
    return _cohomology(h_dr_n1(_module(sess, target)))


def _cmd_euler_check(sess, target, args, flags):
    return euler_check_perfect(PerfectComplexOverDVR(*sess.complexes[target]))


_HANDLERS = {
    "gb": _cmd_gb,
    "nf": _cmd_nf,
    "dim": _cmd_dim,
    "grade": _cmd_grade,
    "holonomic": _cmd_holonomic,
    "ext": _cmd_ext,
    "charcycle": _cmd_charcycle,
    "dual": _cmd_dual,
    "reduce": _cmd_reduce,
    "holonomic-hat": _cmd_holonomic_hat,
    "good-lattice": _cmd_good_lattice,
    "compare-lattices": _cmd_compare_lattices,
    "kunneth": _cmd_kunneth,
    "derham": _cmd_derham,
    "chi": _cmd_chi,
    "euler-check": _cmd_euler_check,
}


def _ring_info(sess):
    if sess.ring is None:
        return None
    return {"n": sess.n, "scalars": "QZ" if sess.ring == QZ else "QQ"}


def _command_info(cmd):
    if cmd is None:
        return None
    args = [[to_str(w) for w in a] if isinstance(a, list) else a
            for a in cmd["args"]]
    return {"target": cmd["target"], "subcommand": cmd["subcommand"],
            "args": args}


def run(source, defaults):
    """Execute one session; returns (report dict, exit code)."""
    groebner.reset_counters()
    t0 = time.perf_counter()
    try:
        sess = parse(source)
        flags = dict(defaults)
        if sess.command is None:
            result = {"declared": {
                "modules": sorted(sess.modules),
                "lattices": sorted(sess.lattices),
                "complexes": sorted(sess.complexes)}}
        else:
            flags.update(sess.command["flags"])
            handler = _HANDLERS[sess.command["subcommand"]]
            result = handler(sess, sess.command["target"],
                             sess.command["args"], flags)
    except ParseError as e:
        err = {"code": e.code, "message": str(e)}
        if e.line is not None:
            err["line"] = e.line
            err["col"] = e.col
        return {"error": err}, 2
    except WeylmodError as e:
        return {"error": {"code": e.code, "message": str(e)}}, 1

    report = {"command": _command_info(sess.command),
              "ring": _ring_info(sess),
              "result": result,
              "timing": {"seconds": round(time.perf_counter() - t0, 6)}}
    if flags.get("stats"):
        report["stats"] = dict(groebner.COUNTERS)
    return report, 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="weylmod",
        description="Run a weylmod session file and print a JSON report.")
    ap.add_argument("file", nargs="?",
                    help="session file; reads stdin when absent")
    ap.add_argument("--max-degree", type=int, default=40,
                    help="truncation bound for the brute force oracle")
    ap.add_argument("--zpower", type=int, default=8,
                    help="z power bound for lattice containment checks")
    ap.add_argument("--stats", action="store_true",
                    help="include engine counters in the report")
    ns = ap.parse_args(argv)
    if ns.file:
        with open(ns.file) as fh:
            source = fh.read()
    else:
        source = sys.stdin.read()
    defaults = {"max-degree": ns.max_degree, "zpower": ns.zpower,
                "stats": ns.stats}
    report, code = run(source, defaults)
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())

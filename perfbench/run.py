"""Cold-session benchmark for weylmod.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One session (one `.wm` source, one
`check`) is one operation.  The loop is closed with one client: each
session runs alone in a fresh interpreter (child.py), as a user's
`weylmod file.wm` does, and the next starts when it has ended.  A pass
runs every session of the workload's seeded ladder once; passes repeat
until S seconds have passed and at least MIN_SAMPLES sessions have run,
so that ten or more samples lie beyond the 90th percentile.

With --trace 0 the last line of standard output is the JSON result with
the end-to-end metrics; with --trace 1 untraced and traced passes
alternate, and it carries the per-layer metrics and the tracing overhead.
Every session's answer is checked (checks.py) in both modes.  Lines
before the result name each metric with its unit, the sample counts,
the failed sessions and the Python version, `nproc` and git commit.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check  # noqa: E402
from workloads import WORKLOADS, ladder  # noqa: E402

MIN_SAMPLES = 110
SESSION_TIMEOUT = 60
HARD_LIMIT_S = 150      # stop starting passes after this, whatever the count
OUT_DIR = ".perfbench_out"


def environment(root):
    sha = "unknown"
    if (root / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha}


def child_env():
    env = dict(os.environ)
    # weylmod is imported from the checkout only; byte code is cached as
    # an installed package's would be.
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_session(root, path, trace, env):
    """Spawn one child; returns its output dict plus setup_s."""
    cmd = [sys.executable, str(HERE / "child.py"), str(root), str(path),
           "1" if trace else "0"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=str(root), timeout=SESSION_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"crash": "timeout after %d s" % SESSION_TIMEOUT}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crash": "child exit %d: %s" % (proc.returncode, tail)}
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("ready") - spawned
    return out


def run_pass(root, sessions, paths, trace, env, pins):
    start = time.monotonic()
    outs = [run_session(root, p, trace, env) for p in paths]
    wall = time.monotonic() - start
    verdicts = [check(s, o, pins) for s, o in zip(sessions, outs)]
    return {"wall": wall, "outs": outs, "verdicts": verdicts}


def quantile(values, q):
    """Inclusive-method quantile q in (0, 1), as statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(passes):
    runs = [o for p in passes for o in p["outs"] if "run_s" in o]
    times = [o["run_s"] * 1000 for o in runs]
    setups = [o["setup_s"] for o in runs if "setup_s" in o]
    p90 = quantile(times, 0.9)
    metrics = {
        "ladder_s": (statistics.median(p["wall"] for p in passes), "s"),
        "session_p50_ms": (quantile(times, 0.5), "ms"),
        "session_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(o["maxrss_kb"] for o in runs) / 1024, "MB"),
    }
    note = "%d session samples over %d passes, %d beyond p90" % (
        len(times), len(passes), sum(1 for t in times if t > p90))
    return metrics, note


def _per_pass_layers(p):
    """Sum the traces of one pass into the per-layer metrics."""
    calls, incl, self_s, stats = {}, {}, {}, {}
    mul_left_s = 0.0
    for o in p["outs"]:
        tr = o.get("trace")
        if tr is None:
            continue
        for src, dst in ((tr["calls"], calls), (tr["incl"], incl),
                         (tr["self"], self_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in tr["stats"].items():
            if k in ("basis_peak", "window_width", "oracle_degree"):
                stats[k] = max(stats.get(k, 0), v)
            else:
                stats[k] = stats.get(k, 0) + v
        timed, secs = tr["sampled"].get("groebner.mul_left", (0, 0.0))
        if timed:
            mul_left_s += secs * tr["calls"]["groebner.mul_left"] / timed
    spairs = stats.get("spairs", 0)
    c, i = calls.get, incl.get
    return {
        "groebner.buchberger_calls": (c("groebner.buchberger", 0), "count"),
        "groebner.spairs": (spairs, "count"),
        "groebner.reductions_to_zero": (stats.get("reductions_to_zero", 0),
                                        "count"),
        "groebner.useful_spair_ratio": (
            (spairs - stats.get("reductions_to_zero", 0)) / spairs
            if spairs else 0.0, "ratio"),
        "groebner.basis_peak": (stats.get("basis_peak", 0), "count"),
        "groebner.leading_term_calls": (c("groebner.leading_term", 0),
                                        "count"),
        "groebner.buchberger_s": (self_s.get("groebner.buchberger", 0.0), "s"),
        "groebner.normal_form_calls": (c("groebner.left_normal_form", 0),
                                       "count"),
        "groebner.normal_form_s": (i("groebner.left_normal_form", 0.0), "s"),
        "groebner.mul_left_calls": (c("groebner.mul_left", 0), "count"),
        "groebner.mul_left_s": (mul_left_s, "s"),
        "groebner.syzygy_s": (i("groebner.syz_of_list", 0.0), "s"),
        "groebner.resolution_s": (i("groebner.free_resolution", 0.0), "s"),
        "scalars.ratfunc_ops": (c("scalars.ratfunc_op", 0), "count"),
        "scalars.qpoly_gcd_calls": (c("scalars.qpoly_gcd", 0), "count"),
        "lattice.make_lattice_calls": (c("lattice.make_lattice", 0), "count"),
        "lattice.resaturations": (stats.get("resaturations", 0), "count"),
        "lattice.colon_rounds": (c("groebner.colon_z", 0), "count"),
        "lattice.saturate_s": (i("groebner.saturate_z", 0.0), "s"),
        "lattice.reduce_mod_z_s": (i("lattice.reduce_mod_z", 0.0), "s"),
        "modules.ext_calls": (c("modules.ext", 0), "count"),
        "modules.ext_s": (i("modules.ext", 0.0), "s"),
        "modules.grade_calls": (c("modules.grade", 0), "count"),
        "derham.h_dr_n1_s": (i("derham.h_dr_n1", 0.0), "s"),
        "derham.window_width": (stats.get("window_width", 0), "count"),
        "derham.oracle_s": (i("derham.stabilization_oracle", 0.0), "s"),
        "derham.oracle_degree": (stats.get("oracle_degree", 0), "count"),
        "linalg.echelon_adds": (c("linalg.echelon_add", 0), "count"),
        "linalg.echelon_s": (i("linalg.echelon_add", 0.0), "s"),
        "parser.parse_s": (i("parser.parse", 0.0), "s"),
        "weyl.normal_product_calls": (c("weyl.normal_product", 0), "count"),
    }


def per_layer(traced, untraced):
    """Counts of one traced pass, medians of times, and the overhead."""
    per_pass = [_per_pass_layers(p) for p in traced]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "ratio"):
            value = statistics.median(pp[name][0] for pp in per_pass)
        metrics[name] = (value, unit)
    ladder_traced = statistics.median(p["wall"] for p in traced)
    ladder_plain = statistics.median(p["wall"] for p in untraced)
    metrics["trace.overhead_s"] = (ladder_traced - ladder_plain, "s")
    metrics["trace.untraced_ladder_s"] = (ladder_plain, "s")
    steady = all(pp[k] == per_pass[0][k] for pp in per_pass
                 for k in per_pass[0] if per_pass[0][k][1] == "count")
    note = "%d traced and %d untraced passes; counts %s across passes" % (
        len(traced), len(untraced), "repeat" if steady else "DIFFER")
    return metrics, note


def write_spans(root, workload, seed, sessions, traced_pass):
    out = [{"session": s.name, "spans": o["trace"]["spans"]}
            for s, o in zip(sessions, traced_pass["outs"]) if "trace" in o]
    path = root / OUT_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(out))
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    for need in ("src/weylmod/cli.py", "tests/golden"):
        if not (root / need).exists():
            sys.exit("run.py: %s not found under %s; run from the "
                     "repository root" % (need, root))
    pins = json.loads((HERE / "pins.json").read_text())
    sessions = ladder(args.workload, args.seed, root)
    work = root / OUT_DIR / "sessions"
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, s in enumerate(sessions):
        path = work / ("%s-%02d.wm" % (args.workload, k))
        path.write_text(s.source)
        paths.append(path)
    env = child_env()
    info = environment(root)

    min_passes = -(-MIN_SAMPLES // len(sessions))
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(root, sessions, paths, False, env, pins))
        if args.trace:
            traced.append(run_pass(root, sessions, paths, True, env, pins))
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S or (len(plain) >= min_passes
                                       and elapsed >= args.seconds):
            break

    attempted = failed = 0
    wrong = False
    reasons = {}
    for p in plain + traced:
        for s, (bad, cross) in zip(sessions, p["verdicts"]):
            attempted += 1
            if bad or cross:
                failed += 1
                wrong = wrong or bool(bad)
                reasons.setdefault(s.name, "; ".join(bad + cross))
    for name, why in reasons.items():
        print("FAILED %s: %s" % (name, why))

    if args.trace:
        metrics, note = per_layer(traced, plain)
        spans = write_spans(root, args.workload, args.seed, sessions,
                            traced[-1])
        note += "; spans in %s" % spans.relative_to(root)
    else:
        metrics, note = end_to_end(plain)
    print("workload %s seed %d: %d sessions per pass; %s" % (
        args.workload, args.seed, len(sessions), note))
    print("pass wall times (s): %s" % " ".join(
        "%.3f" % p["wall"] for p in plain))
    print("python %(python)s, nproc %(nproc)s, git %(git_sha)s" % info)
    print("failed_frac %.6f (%d of %d sessions)" % (
        failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()

"""Steadiness self-check: do repeated sets of runs agree within the bounds?

    python3 perfbench/steady.py

Run from the repository root.  Each of the SETS sets runs the
BENCHMARK.json command once per workload and seed (seeds 1..RUNS, the
same in every set).  For each end-to-end metric it reports the spread of
a set, the distance between the first and third quartile of its values
over their median, and the change of the median from the first set to
the second.  A spread above the metric's bound, or a median that moved
by more than the bound in either direction, fails the check; the target
is a spread below a third of the bound.  Raw values, the Python version,
`nproc` and the git commit go to .perfbench_out/steady-<time>.json.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from run import OUT_DIR, environment  # noqa: E402

RUNS = 10
SETS = 2


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    root = pathlib.Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)]
              for w in workloads}
    results = []
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in workloads:
                res = one_run(bench, w, seed)
                results.append({"set": s, "workload": w, "seed": seed,
                                "result": res})
                for m in metrics:
                    values[w][s][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                print("set %d seed %2d %-15s correct=%s failed=%d/%d %s" % (
                    s, seed, w, res["correct"], res["failed"],
                    res["attempted"], " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in res["metrics"].items())), flush=True)

    ok = True
    print("\n%-15s %-15s %6s %9s %9s %9s %s" % (
        "workload", "metric", "bound", "spread", "target", "drift", ""))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = values[w]
            spreads = [spread(v[name]) for v in sets]
            med0 = statistics.median(sets[0][name])
            drifts = [(statistics.median(v[name]) - med0) / med0
                      * (1 if m["better"] == "lower" else -1)
                      for v in sets[1:]]
            bad = [x for x in spreads if x > bound]
            bad += [d for d in drifts if abs(d) > bound]
            ok = ok and not bad
            print("%-15s %-15s %6.3f %9s %9s %9s %s" % (
                w, name, bound, "/".join("%.4f" % x for x in spreads),
                "ok" if max(spreads) < bound / 3 else "ABOVE",
                "/".join("%+.4f" % d for d in drifts) or "-",
                "FAIL" if bad else ""))
    out = root / OUT_DIR / time.strftime("steady-%Y%m%dT%H%M%S.json",
                                         time.gmtime())
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"environment": environment(root),
                               "runs": results}, indent=1))
    print("\n%s; raw values in %s" % ("agree within bounds" if ok else
                                      "DO NOT agree within bounds",
                                      out.relative_to(root)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

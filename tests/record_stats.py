"""Rewrite or check tests/stats_reports.json from the engine in this checkout.

    python3 tests/record_stats.py          # rewrite the file
    python3 tests/record_stats.py --check  # compare only; exit 1 on a change

Runs every session the perfbench workloads can generate with `--stats`
in this process and records each report, apart from `timing`, keyed as
perfbench/pins.json is.  test_pins.test_stats_reports_replay compares
against it.  Rewrite it only when a change is meant to alter answers or
engine counters; --check prints each session whose report differs from
the file, with its old and new `stats`, and writes nothing.
"""

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from test_pins import STATS, stats_reports  # noqa: E402


def check(want, got):
    """Print every differing session; (stats only, report differs, counters).

    counters is the sorted list of the `stats` counters that changed in
    any session; a new or a gone session counts as a report that differs.
    """
    only, differs, counters = 0, 0, set()
    for key in sorted(want.keys() | got.keys()):
        old, new = want.get(key), got.get(key)
        if old == new:
            continue
        name = (old or new)["name"]
        if old is None or new is None:
            differs += 1
            print("%s: %s" % (name, "new session" if old is None
                              else "session gone"))
            continue
        before, after = (old["report"].get("stats") or {},
                         new["report"].get("stats") or {})
        counters |= {k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k)}
        same = {k: v for k, v in old["report"].items() if k != "stats"} == \
            {k: v for k, v in new["report"].items() if k != "stats"} and \
            old["exit"] == new["exit"]
        only += same
        differs += not same
        print("%s: %s" % (name, "stats only" if same else "report differs"))
        print("  stats %s -> %s" % (old["report"].get("stats"),
                                     new["report"].get("stats")))
    return only, differs, sorted(counters)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the file instead of writing it")
    args = ap.parse_args(argv)
    got = stats_reports()
    if args.check:
        only, differs, counters = check(json.loads(STATS.read_text()), got)
        print("%d of %d sessions differ: %d stats only, %d report differs; "
              "counters changed: %s" % (only + differs, len(got), only,
                                        differs, ", ".join(counters) or
                                        "none"))
        return 1 if only or differs else 0
    STATS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

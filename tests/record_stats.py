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
    """Print every differing session; the number of them."""
    wrong = 0
    for key in sorted(want.keys() | got.keys()):
        old, new = want.get(key), got.get(key)
        if old == new:
            continue
        wrong += 1
        name = (old or new)["name"]
        if old is None or new is None:
            print("%s: %s" % (name, "new session" if old is None
                              else "session gone"))
            continue
        same = {k: v for k, v in old["report"].items() if k != "stats"} == \
            {k: v for k, v in new["report"].items() if k != "stats"} and \
            old["exit"] == new["exit"]
        print("%s: %s" % (name, "stats only" if same else "report differs"))
        print("  stats %s -> %s" % (old["report"].get("stats"),
                                     new["report"].get("stats")))
    return wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the file instead of writing it")
    args = ap.parse_args(argv)
    got = stats_reports()
    if args.check:
        wrong = check(json.loads(STATS.read_text()), got)
        print("%d of %d sessions differ" % (wrong, len(got)))
        return 1 if wrong else 0
    STATS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

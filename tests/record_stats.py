"""Rewrite tests/stats_reports.json from the engine in this checkout.

    python3 tests/record_stats.py

Runs every session the perfbench workloads can generate with `--stats`
in this process and records each report, apart from `timing`, keyed as
perfbench/pins.json is.  test_pins.test_stats_reports_replay compares
against it.  Run it only when a change is meant to alter answers or
engine counters.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from test_pins import STATS, stats_reports  # noqa: E402


def main():
    STATS.write_text(json.dumps(stats_reports(), indent=1, sort_keys=True)
                     + "\n")


if __name__ == "__main__":
    main()

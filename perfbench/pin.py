"""Rewrite pins.json: the result digest of every generated session.

    python3 perfbench/pin.py

Run from the repository root after a change that is meant to alter
answers or the generated sessions.  Sessions run in this process; the
answers of the engine do not depend on process state.  Independent
checks that fail are listed, so a pin is never taken from a result
that breaks them unnoticed.
"""

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, os.path.abspath("src"))

from checks import independent, result_digest, source_key  # noqa: E402
from child import DEFAULTS  # noqa: E402
from workloads import WORKLOADS, universe  # noqa: E402


def main():
    from weylmod import cli
    pins = {}
    for workload in WORKLOADS:
        for s in universe(workload):
            report, code = cli.run(s.source, dict(DEFAULTS))
            report = cli._jsonable(report)
            out = {"exit": code, "report": report}
            pins[source_key(s.source)] = result_digest(out)
            result = report.get("result") or {}
            bad = [r for r in (independent(c, s.n, result)
                               for c in s.checks) if r]
            print("%-16s %-34s exit=%d %s" % (workload, s.name, code,
                                              "; ".join(bad)), flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1,
                                               sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

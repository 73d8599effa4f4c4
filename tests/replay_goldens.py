"""Replay the golden sessions through cli.run and compare the reports.

    python3 tests/replay_goldens.py

Runs each tests/golden/<case>.in with the command-line defaults and
compares its exit code and its report, apart from `timing`, with
<case>.json.  It imports nothing outside the standard library and the
package, so any interpreter that pyproject.toml admits can run it
without pytest.  Prints each case that differs, and a summary line with
the interpreter's version; exits 1 if a case differs.
"""

import json
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from weylmod.cli import _jsonable, run  # noqa: E402

DEFAULTS = {"max-degree": 40, "zpower": 8, "stats": False}


def main():
    cases = sorted((HERE / "golden").glob("*.in"))
    wrong = []
    for path in cases:
        want = json.loads(path.with_suffix(".json").read_text())
        report, code = run(path.read_text(), dict(DEFAULTS))
        report = _jsonable(report)
        report.pop("timing", None)
        if code != want["exit"] or report != want["report"]:
            wrong.append(path.stem)
            print("%s: differs" % path.stem)
    print("Python %s: %d of %d goldens match" % (
        platform.python_version(), len(cases) - len(wrong), len(cases)))
    return 1 if wrong or not cases else 0


if __name__ == "__main__":
    sys.exit(main())

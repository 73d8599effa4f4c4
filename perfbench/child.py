"""Run one weylmod session in this fresh interpreter and time it.

    python3 child.py ROOT SESSION.wm TRACE

Imports weylmod from ROOT/src, reads the session file, then times
`weylmod.cli.run(source, defaults)` the way `weylmod SESSION.wm` runs it.
Prints one JSON line: `ready` (monotonic clock once the import and the
read are done), `run_s`, `exit`, the report without its `timing` field,
`maxrss_kb`, and with TRACE=1 the layer trace of tracer.py.
"""

import json
import os
import resource
import sys
import time
import traceback

# the defaults `weylmod` gives its flags
DEFAULTS = {"max-degree": 40, "zpower": 8, "stats": False}


def main():
    root, path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from weylmod import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit("weylmod was imported from %s, not %s" % (cli.__file__, src))
    with open(path) as fh:
        source = fh.read()
    ready = time.monotonic()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = {"ready": ready}
    start = time.perf_counter()
    try:
        report, code = cli.run(source, dict(DEFAULTS))
    except Exception:
        out["run_s"] = time.perf_counter() - start
        out["crash"] = traceback.format_exc(limit=4)
    else:
        out["run_s"] = time.perf_counter() - start
        report = cli._jsonable(report)
        report.pop("timing", None)
        out["exit"] = code
        out["report"] = report
    if tracer is not None:
        out["trace"] = tracer.summary()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

"""The benchmark's pinned answers: every generated session, in process.

perfbench/pins.json holds the result digest of every session any seed of
the three benchmark workloads can produce.  Replaying them here makes
report identity under a refactor a tier-1 check.  The perfbench files
are read, never written.
"""

import json
import pathlib
import types

import pytest

from weylmod.cli import _jsonable, run

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """Import a perfbench script without writing its bytecode cache."""
    path = PERFBENCH / (name + ".py")
    module = types.ModuleType("perfbench_" + name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


checks = _load("checks")
child = _load("child")
workloads = _load("workloads")
PINS = json.loads((PERFBENCH / "pins.json").read_text())


def test_universe_is_pinned():
    keys = [checks.source_key(s.source) for w in workloads.WORKLOADS
            for s in workloads.universe(w)]
    assert len(keys) == len(set(keys)) == len(PINS) == 198
    assert set(keys) == PINS.keys()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_sessions(workload):
    wrong = []
    for s in workloads.universe(workload):
        report, code = run(s.source, dict(child.DEFAULTS))
        out = {"exit": code, "report": _jsonable(report)}
        if checks.result_digest(out) != PINS[checks.source_key(s.source)]:
            wrong.append(s.name)
    assert not wrong

"""The benchmark's pinned answers: every generated session, in process.

perfbench/pins.json holds the result digest of every session any seed of
the three benchmark workloads can produce.  Replaying them here makes
report identity under a refactor a tier-1 check.  The perfbench files
are read, never written.

tests/stats_reports.json holds the full `--stats` report of each of those
sessions, apart from `timing`, written by tests/record_stats.py; the
replay pins the engine counters as well as the answer.
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
STATS = pathlib.Path(__file__).resolve().parent / "stats_reports.json"


def stats_reports():
    """The `--stats` report of every universe session, without `timing`."""
    out = {}
    for workload in workloads.WORKLOADS:
        for s in workloads.universe(workload):
            report, code = run(s.source, dict(child.DEFAULTS, stats=True))
            report = _jsonable(report)
            report.pop("timing", None)
            out[checks.source_key(s.source)] = {
                "workload": workload, "name": s.name, "exit": code,
                "report": report}
    return out


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


def test_stats_reports_replay():
    want = json.loads(STATS.read_text())
    got = stats_reports()
    assert len(want) == len(PINS)
    assert sorted(got) == sorted(want)
    wrong = [want[k]["name"] for k in sorted(want) if got[k] != want[k]]
    assert not wrong


# (dims, stabilized, degree) of the truncation oracle in each derham
# session of derham-window, recorded before the oracle moved to integer
# rows.  The pinned digest leaves the oracle out, so it is pinned here.
ORACLE = {
    "I2[1/2] derham": ((0, 1), True, 4),
    "I2[1] derham": ((0, 1), True, 4),
    "I2[2] derham": ((0, 1), True, 4),
    "I2[3] derham": ((0, 1), True, 4),
    "I3 derham": ((0, 2), True, 5),
    "Ia derham": ((0, 1), True, 4),
    "R2[1/2] derham": ((1, 0), True, 4),
    "R2[1/3] derham": ((1, 0), True, 4),
    "R2[1] derham": ((1, 0), True, 4),
    "R2[2] derham": ((1, 0), True, 4),
    "R2d derham": ((2, 2), True, 10),
    "R2t derham": ((2, 2), True, 10),
    "R2u derham": ((1, 0), True, 4),
    "S11 derham": ((0, 0), True, 4),
    "S13 derham": ((0, 0), True, 4),
    "S3 derham": ((1, 1), True, 8),
    "S5 derham": ((1, 1), True, 9),
    "S7 derham": ((1, 1), True, 10),
    "S9 derham": ((1, 1), True, 11),
    "Sq[1/2] derham": ((1, 1), True, 8),
    "Sq[1/3] derham": ((1, 1), True, 8),
    "Sq[2/3] derham": ((1, 1), True, 8),
    "Sq[3/4] derham": ((1, 1), True, 8),
    "T123 derham": ((0, 1), True, 6),
    "T124 derham": ((2, 2), True, 12),
    "T215 derham": ((2, 2), True, 13),
    "T415 derham": ((2, 2), True, 13),
}


def test_derham_oracle_pinned():
    got = {}
    for s in workloads.universe("derham-window"):
        if s.name.endswith(" derham"):
            report, _code = run(s.source, dict(child.DEFAULTS))
            oracle = report["result"]["oracle"]
            got[s.name] = (tuple(oracle["dims"]), oracle["stabilized"],
                           oracle["degree"])
    assert got == ORACLE

"""Answer checks for one session, applied to the child's output.

A session fails on a crash, a wrong exit code, a report that differs
from its tests/golden file or from its pinned digest, or a failed
independent check.  The de Rham `oracle` sub-object is a cross-check,
not the answer: it is left out of the digest, and its agreement is a
check of its own that counts as a failure but not as a wrong answer.
"""

import hashlib
import json

# Keys of a derham result that belong to the truncation oracle.
ORACLE_KEYS = ("oracle", "oracle_agrees")


def source_key(source):
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def result_digest(out):
    report = out["report"]
    result = report.get("result")
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k not in ORACLE_KEYS}
    blob = json.dumps({"exit": out["exit"], "result": result,
                       "error": report.get("error")}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def independent(name, n, result):
    """None when the check holds, else the reason."""
    if name == "grade=n":
        ok = result.get("grade") == n
    elif name == "dim=n":
        ok = result.get("dimension") == n
    elif name == "holonomic":
        ok = (result.get("holonomic") is True and result.get("grade") == n
              and result.get("dimension") == n)
    elif name == "kunneth":
        ok = (result.get("zero_pattern_ok") is True
              and result.get("additivity_ok") is not False)
    elif name == "equal":
        ok = result.get("equal") is True
    elif name == "oracle":
        ok = result.get("oracle_agrees") is True
    else:
        raise ValueError("unknown check %r" % name)
    return None if ok else "%s failed" % name


def check(session, out, pins):
    """(wrong-answer reasons, failed cross-check reasons) for one session."""
    if "crash" in out:
        return ["crash: " + out["crash"].strip().splitlines()[-1]], []
    wrong = []
    if out["exit"] != session.expect_exit:
        wrong.append("exit %d, expected %d" % (out["exit"],
                                               session.expect_exit))
    if session.golden is not None:
        if out["report"] != session.golden:
            wrong.append("report differs from tests/golden")
        return wrong, []
    pin = pins.get(source_key(session.source))
    if pin is None:
        wrong.append("no pinned digest")
    elif result_digest(out) != pin:
        wrong.append("result differs from its pinned digest")
    cross = []
    result = out["report"].get("result") or {}
    for name in session.checks:
        reason = independent(name, session.n, result)
        if reason:
            (cross if name == "oracle" else wrong).append(reason)
    return wrong, cross

"""Front end: golden reports for every subcommand, fuzzing, exit codes."""

import importlib
import itertools
import json
import os
import pathlib
import random
import re
import string
import subprocess
import sys

import pytest

import weylmod
from weylmod.cli import _HANDLERS, _jsonable, main, run
from weylmod.parser import SUBCOMMANDS

GOLDEN = pathlib.Path(__file__).parent / "golden"
# child interpreters import the same weylmod as this process
SRC = str(pathlib.Path(weylmod.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))
DEFAULTS = {"max-degree": 40, "zpower": 8, "stats": False}


def run_stripped(source, defaults=DEFAULTS):
    report, code = run(source, dict(defaults))
    rep = _jsonable(report)
    rep.pop("timing", None)
    return rep, code


@pytest.mark.parametrize("case", sorted(p.stem for p in GOLDEN.glob("*.in")))
def test_golden(case):
    source = (GOLDEN / (case + ".in")).read_text()
    want = json.loads((GOLDEN / (case + ".json")).read_text())
    rep, code = run_stripped(source)
    assert code == want["exit"]
    assert rep == want["report"]


def test_every_subcommand_has_a_golden():
    stems = {p.stem for p in GOLDEN.glob("*.in")}
    for sub in SUBCOMMANDS:
        assert sub in stems, sub


def test_stats_flag_adds_counters():
    src = ("ring W(1) over QQ; module M = coker [[d1]]; "
           "check M gb --stats")
    rep, code = run_stripped(src)
    assert code == 0
    assert set(rep["stats"]) == {"buchberger_calls", "spairs",
                                 "basis_elements"}


def test_compare_lattices_saturates_once(monkeypatch):
    from weylmod import lattice
    calls = []
    real = lattice._saturate

    def counted(rows, gb):
        calls.append(rows.rank)
        return real(rows, gb)

    monkeypatch.setattr(lattice, "_saturate", counted)
    source = (GOLDEN / "compare-lattices.in").read_text()
    want = json.loads((GOLDEN / "compare-lattices.json").read_text())
    rep, code = run_stripped(source)
    assert (code, rep) == (want["exit"], want["report"])
    assert len(calls) == 1


TWO_MODULES = ("ring W(1) over QZ; module M = coker [[x1*d1 - 1/2]]; "
               "module N = coker [[%s]]; lattice L = M; "
               "lattice P = N with [[z], [x1]]; check %s")


@pytest.mark.parametrize("relation,check,code", [
    ("2*x1*d1 - 1", "L compare-lattices P", 0),
    ("d1", "M compare-lattices N", 1),
])
def test_compare_lattices_over_two_modules(monkeypatch, relation, check,
                                           code):
    # the avatars are different modules, so their relation modules are
    # compared by Groebner bases
    from weylmod import lattice
    calls = []
    real = lattice.submodule_equal
    monkeypatch.setattr(lattice, "submodule_equal",
                        lambda a, b: calls.append(1) or real(a, b))
    rep, got = run_stripped(TWO_MODULES % (relation, check))
    assert (got, calls) == (code, [1])
    if code:
        assert rep["error"]["code"] == "NotSameModule"
    else:
        assert rep["result"]["equal"] is True


def test_internal_invariant_exits_1(monkeypatch):
    from weylmod import groebner
    real = groebner._gb

    def faulty(gens, order, track=False):
        # a colon basis element below the block boundary without a z
        gb = real(gens, order, track)
        if order.name.startswith("pot-block"):
            unit = gb._basis.layout.with_comp(0, 0)
            gb._basis.add({unit: 1}, unit)
        return gb

    monkeypatch.setattr(groebner, "_gb", faulty)
    rep, code = run_stripped("ring W(1) over QZ; module M = coker "
                             "[[x1*d1 - 1/2 - z]]; check M holonomic-hat")
    assert code == 1
    assert rep["error"]["code"] == "InternalInvariant"


def _zero_ext(i, M):
    return weylmod.PresentedModule(M.n, M.ring, M.opposite_side(), 0, [])


def _on_call(k, fake):
    """Patch factory: the real function, except fake on the k-th call."""
    def factory(real):
        calls = itertools.count(1)
        return lambda *args: (fake if next(calls) == k else real)(*args)
    return factory


GOOD_LATTICE = (GOLDEN / "good-lattice.in").read_text()

# one injected fault per reachable InternalInvariant site outside groebner:
# (module, patched name, patch factory, session, message fragment)
FAULTS = {
    "good-lattice-dual": ("lattice", "ext", _on_call(1, _zero_ext),
                          GOOD_LATTICE, "integral dual"),
    "good-lattice-double-dual": ("lattice", "ext", _on_call(2, _zero_ext),
                                 GOOD_LATTICE, "double dual"),
    "good-lattice-reduction": ("lattice", "minimal_dimension_via_reduction",
                               _on_call(2, lambda P: False), GOOD_LATTICE,
                               "lost minimal dimension"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_invariant_sites_exit_1(monkeypatch, fault):
    name, attr, factory, source, message = FAULTS[fault]
    module = importlib.import_module("weylmod." + name)
    monkeypatch.setattr(module, attr, factory(getattr(module, attr)))
    rep, code = run_stripped(source)
    assert code == 1
    assert rep["error"]["code"] == "InternalInvariant"
    assert message in rep["error"]["message"]


@pytest.mark.parametrize("signs,want", [(5000, "x1"), (5001, "-x1")])
def test_long_run_of_minus_signs(signs, want):
    # the parser used to take one stack frame per leading minus sign, and
    # about a thousand of them ended in a RecursionError out of run()
    rep, code = run_stripped("ring W(1) over QQ; module M = coker [[%sd1]]; "
                             "check M nf [%sx1]" % ("-" * signs, "-" * signs))
    assert code == 0
    assert rep["result"]["normal_form"] == [want]


def test_declaration_only_session():
    rep, code = run_stripped("ring W(1) over QQ; module M = coker [[d1]];")
    assert code == 0
    assert rep["result"]["declared"]["modules"] == ["M"]
    assert rep["command"] is None


def test_cli_entry_point(tmp_path):
    f = tmp_path / "session.wm"
    f.write_text("ring W(1) over QQ;\nmodule M = coker [[d1]];\n"
                 "check M holonomic\n")
    proc = subprocess.run([sys.executable, "-m", "weylmod.cli", str(f)],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["holonomic"] is True
    assert "timing" in rep


def test_cli_stdin_and_exit_codes(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "weylmod.cli"],
                          input="ring W(1) over QQ; check M gb",
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 2
    rep = json.loads(proc.stdout)
    assert rep["error"]["code"] == "UndeclaredName"


GOLDEN_UNDER_O = """
import json, pathlib, sys
from weylmod.cli import _jsonable, run
if __debug__:
    sys.exit("not running under -O")
out = {}
for case in sorted(pathlib.Path(sys.argv[1]).glob("*.in")):
    report, code = run(case.read_text(), json.loads(sys.argv[2]))
    report.pop("timing", None)
    out[case.stem] = {"exit": code, "report": _jsonable(report)}
print(json.dumps(out))
"""


def test_goldens_under_optimize_flag():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GOLDEN_UNDER_O, str(GOLDEN),
         json.dumps(DEFAULTS)], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = {p.stem: json.loads(p.read_text())
            for p in GOLDEN.glob("*.json")}
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], case


def test_max_degree_flag_reaches_oracle():
    src = ("ring W(1) over QQ; module M = coker [[d1]]; "
           "check M derham --max-degree 2")
    rep, code = run_stripped(src)
    assert code == 0
    # window algorithm still answers; oracle cannot stabilize by degree 2
    assert rep["result"]["dims"] == [1, 0]
    assert rep["result"]["oracle"]["stabilized"] is False
    assert rep["result"]["oracle_agrees"] is None


def test_negative_max_degree_is_a_coded_error(tmp_path, capsys):
    f = tmp_path / "session.wm"
    f.write_text("ring W(1) over QQ;\nmodule M = coker [[d1]];\n"
                 "check M derham\n")
    assert main([str(f), "--max-degree", "-1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"]["code"] == "IndexOutOfRange"


def test_negative_zpower_is_a_coded_error(tmp_path, capsys):
    f = tmp_path / "session.wm"
    f.write_text("ring W(1) over QZ;\nmodule M = coker [[d1]];\n"
                 "lattice L = M;\ncheck L compare-lattices L\n")
    assert main([str(f), "--zpower", "-1"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"]["code"] == "IndexOutOfRange"


def test_holonomic_hat_stats_count_saturation_rounds():
    # three colon rounds and the input's basis, then the reduction's basis
    rep, code = run_stripped("ring W(1) over QZ; module M = coker "
                             "[[z^2*x1*d1 - z^3]]; check M holonomic-hat "
                             "--stats")
    assert code == 0
    assert rep["result"] == {"holonomic": True}
    assert rep["stats"] == {"buchberger_calls": 5, "spairs": 3,
                            "basis_elements": 9}


@pytest.mark.parametrize("name,content,reason", [
    ("missing.wm", None, "No such file or directory"),
    ("latin1.wm", b"ring W(1) over QQ; # caf\xe9\n", "not UTF-8 text")],
    ids=["missing", "not-utf8"])
def test_unreadable_session_file(tmp_path, capsys, name, content, reason):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main([str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "weylmod: error: cannot read %s: %s" % (
        path, reason)


@pytest.mark.parametrize("source", [
    "ring W(1) over QQ; module M = coker [[d1]]; check M ext -1",
    "ring W(1) over QZ; module M = coker [[x1*d1 - 1/2 - z]]; "
    "lattice L = M; check L kunneth -1",
], ids=["ext", "kunneth"])
def test_negative_index_is_out_of_range(source):
    rep, code = run_stripped(source)
    assert code == 1
    assert rep["error"]["code"] == "IndexOutOfRange"


@pytest.mark.parametrize("source,line,col", [
    ("ring W(²) over QQ;", 1, 8),
    ("ring W(1) over QQ; module M = coker [[x²]];", 1, 40),
    ("ring W(1) over QQ; module M = coker [[x١*d1]];", 1, 40),
    ("ring W(1) over QQ; module M = coker [[٣]];", 1, 39),
    ("ring W(1) over QQ; module M① = coker [[d1]];", 1, 28),
], ids=["ring-size", "superscript", "arabic-index", "arabic-literal",
        "object-name"])
def test_other_number_characters_are_parse_errors(source, line, col):
    # literals and variable indices are ASCII digits
    rep, code = run_stripped(source)
    assert code == 2
    assert rep["error"]["code"] == "ParseError"
    assert (rep["error"]["line"], rep["error"]["col"]) == (line, col)


@pytest.mark.parametrize("element,printed,normal_form,member", [
    ("1", "1", ["1"], False), ("2*d1", "2*d1", ["0"], True),
    ("d1--x1 --stats", "x1 + d1", ["x1"], False)],
    ids=["1", "2*d1", "d1--x1 --stats"])
def test_nf_reads_an_element(element, printed, normal_form, member):
    rep, code = run_stripped("ring W(1) over QQ; module M = coker [[d1]]; "
                             "check M nf " + element)
    assert code == 0
    assert rep["command"]["args"] == [[printed]]
    assert rep["result"] == {"normal_form": normal_form, "member": member}
    assert ("stats" in rep) == element.endswith("--stats")


QQ_SESSION = ("ring W(1) over QQ; module M = coker [[d1]]; "
              "complex C = [1, 1] with [[1]]; ")
QZ_SESSION = ("ring W(1) over QZ; module M = coker [[x1*d1 - 1/2 - z]]; "
              "lattice L = M; complex C = [1, 1] with [[z]]; ")

# inputs the check-line table or the row reader rejects: (session, exit, code)
CHECK_LINE_ERRORS = {
    "gb-extra": (QQ_SESSION + "check M gb 5 x1", 2, "ParseError"),
    "ext-extra": (QQ_SESSION + "check M ext 1 2", 2, "ParseError"),
    "nf-extra": (QQ_SESSION + "check M nf d1 [x1]", 2, "ParseError"),
    "kunneth-extra": (QZ_SESSION + "check L kunneth 1 2", 2, "ParseError"),
    "unknown-flag": (QQ_SESSION + "check M gb --stat", 2, "ParseError"),
    "compare-int": (QZ_SESSION + "check L compare-lattices 3", 2,
                    "ParseError"),
    "compare-undeclared": (QZ_SESSION + "check L compare-lattices P", 2,
                           "UndeclaredName"),
    "compare-complex": (QZ_SESSION + "check L compare-lattices C", 1,
                        "UnsupportedTarget"),
    "compare-missing": (QZ_SESSION + "check L compare-lattices", 1,
                        "UnsupportedTarget"),
    "ext-missing": (QQ_SESSION + "check M ext --stats", 1,
                    "UnsupportedTarget"),
    "gb-on-complex": (QQ_SESSION + "check C gb", 1, "UnsupportedTarget"),
    "chi-on-complex": (QZ_SESSION + "check C chi", 1, "UnsupportedTarget"),
    "reduce-on-QQ": (QQ_SESSION + "check M reduce", 1,
                     "UnsupportedAmbient"),
    "kind-after-parse": (QQ_SESSION + "check C gb; module", 2, "ParseError"),
    "lattice-of-complex": (QZ_SESSION + "lattice P = C;", 1,
                           "UnsupportedTarget"),
    "lattice-of-lattice": (QZ_SESSION + "lattice P = L; check L reduce", 1,
                           "UnsupportedTarget"),
    "lattice-of-undeclared": (QZ_SESSION + "lattice P = Q;", 2,
                              "UndeclaredName"),
    "lattice-row-too-wide": ("ring W(1) over QZ; module M = coker [[d1]]; "
                             "lattice P = M with [[1, 1]]; check P reduce",
                             1, "RankMismatch"),
    "lattice-row-too-narrow": ("ring W(2) over QZ; module M = coker "
                               "[[d1, d2]]; lattice P = M with [[1]]; "
                               "check P reduce", 1, "RankMismatch"),
}


@pytest.mark.parametrize("case", sorted(CHECK_LINE_ERRORS))
def test_check_line_errors(case):
    source, exit_code, error = CHECK_LINE_ERRORS[case]
    rep, code = run_stripped(source)
    assert (code, rep["error"]["code"]) == (exit_code, error)
    assert ("line" in rep["error"]) == (exit_code == 2)


def test_check_line_table_matches_handlers():
    assert SUBCOMMANDS.keys() == _HANDLERS.keys()


def test_readme_lists_the_check_line_table():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)( \w+)?` +\| ([a-z ]+?) +\|", readme,
                      re.M)
    assert {name: (target, bool(arg)) for name, arg, target in rows} == {
        name: (target, arg is not None)
        for name, (target, arg) in SUBCOMMANDS.items()}


FUZZ_VOCAB = (
    list("[](){};,^*/+-=") +
    ["ring", "W", "over", "QQ", "QZ", "module", "lattice", "complex",
     "check", "coker", "with", "z", "x1", "d1", "d2", "x9", "gb", "nf",
     "chi", "derham", "kunneth", "--stats", "--max-degree", "--zpower",
     "0", "1", "2", "17", "65536", "#", "\n", " ", "M", "L", "C",
     "holonomic-hat", "compare-lattices", "\t", "_", "q", "§", "λ"])


def fuzz_source(rng, max_tokens=40):
    k = rng.randint(0, max_tokens)
    return " ".join(rng.choice(FUZZ_VOCAB) for _ in range(k))


def valid_prefix(rng):
    parts = ["ring W(1) over %s;" % rng.choice(["QQ", "QZ"])]
    parts.append("module M = coker [[d1]];")
    return " ".join(parts)


def test_fuzz_never_crashes():
    rng = random.Random(61)
    for i in range(200):
        src = fuzz_source(rng)
        if i % 3 == 0:
            src = valid_prefix(rng) + " " + src
        report, code = run(src, dict(DEFAULTS))
        assert code in (0, 1, 2), src
        json.dumps(_jsonable(report))


def test_fuzz_random_bytes():
    rng = random.Random(67)
    alphabet = string.printable + "äöπ∂"
    for _ in range(100):
        src = "".join(rng.choice(alphabet)
                      for _ in range(rng.randint(0, 120)))
        report, code = run(src, dict(DEFAULTS))
        assert code in (0, 1, 2)
        json.dumps(_jsonable(report))


def test_reports_deterministic_modulo_timing():
    src = (GOLDEN / "compare-lattices.in").read_text()
    assert run_stripped(src) == run_stripped(src)


def test_parse_errors_carry_positions():
    rng = random.Random(71)
    seen = 0
    for _ in range(300):
        report, code = run(fuzz_source(rng), dict(DEFAULTS))
        if code == 2:
            seen += 1
            err = report["error"]
            assert "line" in err and "col" in err, err
    assert seen > 50


# nested powers reach exponents no fixed-width field holds; the reports
# are those of exact exponent arithmetic
HUGE = "((((((x1^64)^64)^64)^64)^64)^64)"
HUGE_SESSIONS = [
    ("[[%s*d1 - 1]]" % HUGE,
     [["x1^68719476736*d1 - 1"]],
     {"basis_elements": 1, "buchberger_calls": 1, "spairs": 0}),
    ("[[%s*d1 - 1, x1], [%s*d1^2, d1 - 1]]" % (HUGE, HUGE),
     [["x1^68719476735*d1 - 1/68719476736*d1",
       "1/68719476736*x1*d1 - 1/68719476736*d1 + 1/34359738368"],
      ["-x1*d1 + 68719476736", "x1^2*d1 - x1*d1 - 68719476734*x1"]],
     {"basis_elements": 2, "buchberger_calls": 1, "spairs": 2}),
    ("[[d1*%s, 1], [%s*x1, d1]]" % (HUGE, HUGE),
     [["x1^68719476736", "d1^2 - x1"], ["0", "d1^3 - x1*d1 - 2"],
      ["0", "x1*d1^2 - x1^2 - d1"]],
     {"basis_elements": 3, "buchberger_calls": 1, "spairs": 4}),
]


@pytest.mark.parametrize("matrix,basis,stats", HUGE_SESSIONS,
                         ids=["one-row", "two-rows", "d-first"])
def test_huge_exponent_gb_sessions(matrix, basis, stats):
    src = "ring W(1) over QQ; module M = coker %s; check M gb --stats" % matrix
    rep, code = run_stripped(src)
    assert code == 0
    assert rep == {
        "command": {"args": [], "subcommand": "gb", "target": "M"},
        "ring": {"n": 1, "scalars": "QQ"},
        "result": {"basis": basis, "size": len(basis),
                   "is_full_module": False},
        "stats": stats}

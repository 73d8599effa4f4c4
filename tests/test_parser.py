"""Session language: grammar coverage and error positions."""

import hashlib
import pathlib
import random
from fractions import Fraction

import pytest

from weylmod import (QQ, QZ, ParseError, QPoly, RatFunc, RingMismatch,
                     UndeclaredName, UnsupportedTarget, WeylAlgebra,
                     WeylmodError, parse, to_str)
from weylmod.parser import tokenize

from helpers import rand_element
from test_pins import workloads

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_ring_declaration():
    s = parse("ring W(2) over QQ;")
    assert s.n == 2 and s.ring == QQ
    s = parse("ring W(1) over QZ;")
    assert s.ring == QZ


def test_module_declaration_normal_orders():
    s = parse("ring W(1) over QQ; module M = coker [[d1*x1]];")
    W = WeylAlgebra(1, QQ)
    assert s.modules["M"][0][0] == W.x(1) * W.d(1) + W.one()


def test_free_module_empty_matrix():
    s = parse("ring W(2) over QQ; module F = coker [[]];")
    assert s.modules["F"] == [[]]


def test_expression_grammar():
    s = parse("ring W(1) over QQ;"
              "module M = coker [[x1^2*d1 - (x1 + 1)*(x1 - 1)/2]];")
    W = WeylAlgebra(1, QQ)
    want = W.x(1) * W.x(1) * W.d(1) - \
        (W.x(1) * W.x(1) - W.one()).scale(Fraction(1, 2))
    assert s.modules["M"][0][0] == want


def test_double_minus_is_subtraction_of_a_negation():
    s = parse("ring W(1) over QQ; module M = coker [[d1--x1]];")
    W = WeylAlgebra(1, QQ)
    assert s.modules["M"][0][0] == W.d(1) + W.x(1)


def test_unary_minus_binds_looser_than_power():
    W = WeylAlgebra(1, QQ)
    for signs, want in [(1, -(W.x(1) * W.x(1))), (2, W.x(1) * W.x(1)),
                        (3, -(W.x(1) * W.x(1)))]:
        s = parse("ring W(1) over QQ; module M = coker [[%sx1^2]];"
                  % ("-" * signs))
        assert s.modules["M"][0][0] == want


def test_z_requires_qz():
    with pytest.raises(RingMismatch):
        parse("ring W(1) over QQ; module M = coker [[z*d1]];")
    s = parse("ring W(1) over QZ; module M = coker [[z*d1]];")
    assert s.modules["M"][0][0].ring == QZ


def test_lattice_and_complex_declarations():
    s = parse("ring W(1) over QZ;"
              "module M = coker [[d1 - z]];"
              "lattice L = M;"
              "lattice P = M with [[z], [x1]];"
              "complex C = [1, 1] with [[z]];")
    assert s.lattices["L"] == ("M", None)
    base, gens = s.lattices["P"]
    assert base == "M" and len(gens) == 2
    ranks, mats = s.complexes["C"]
    assert ranks == [1, 1] and len(mats) == 1


def test_check_with_flags_and_args():
    s = parse("ring W(1) over QQ;"
              "module M = coker [[d1]];"
              "check M ext 1 --stats --max-degree 12")
    c = s.command
    assert c["target"] == "M" and c["subcommand"] == "ext"
    assert c["args"] == [1]
    assert c["flags"] == {"stats": True, "max-degree": 12}
    s = parse("ring W(1) over QQ;"
              "module M = coker [[d1]];"
              "check M ext --zpower 3 -1 --stats")
    assert s.command["args"] == [-1]
    assert s.command["flags"] == {"stats": True, "zpower": 3}


def test_comments_and_whitespace():
    s = parse("# leading comment\n"
              "ring W(1) over QQ;  # trailing\n"
              "module M = coker [[d1]];\n"
              "# done\n")
    assert "M" in s.modules


def test_undeclared_target():
    with pytest.raises(UndeclaredName):
        parse("ring W(1) over QQ; check M gb")


def test_undeclared_lattice_base():
    with pytest.raises(UndeclaredName):
        parse("ring W(1) over QZ; lattice L = M;")


LATTICE_BASES = ("ring W(1) over QZ; module M = coker [[d1]]; "
                 "lattice L = M; complex C = [1, 1] with [[z]]; ")


@pytest.mark.parametrize("base", ["C", "L"], ids=["complex", "lattice"])
@pytest.mark.parametrize("check", ["", "check M gb"], ids=["bare", "check"])
def test_lattice_base_of_another_kind(base, check):
    with pytest.raises(UnsupportedTarget, match="'%s' is not a module" % base):
        parse(LATTICE_BASES + "lattice P = %s; %s" % (base, check))
    # a parse error anywhere wins over the kind of the base
    with pytest.raises(ParseError):
        parse(LATTICE_BASES + "lattice P = %s; module" % base)


def test_error_positions():
    try:
        parse("ring W(1) over QQ;\nmodule M = coker [[d1 +]];")
    except ParseError as e:
        assert e.line == 2 and e.col == 24
    else:
        raise AssertionError("expected a parse error")


def test_division_errors():
    with pytest.raises(ParseError, match="division by zero"):
        parse("ring W(1) over QQ; module M = coker [[d1/0]];")
    with pytest.raises(ParseError, match="scalar"):
        parse("ring W(1) over QQ; module M = coker [[d1/x1]];")


def test_reserved_and_variable_names_rejected():
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ; module coker = coker [[d1]];")
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ; module x1 = coker [[d1]];")
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ; module d7 = coker [[d1]];")


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ; ring W(2) over QQ;")
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ;"
              "module M = coker [[d1]]; module M = coker [[x1]];")


def test_variable_range_checked():
    with pytest.raises(ParseError, match="outside"):
        parse("ring W(1) over QQ; module M = coker [[d2]];")


def test_ragged_matrix_rejected():
    with pytest.raises(ParseError, match="ragged"):
        parse("ring W(1) over QQ; module M = coker [[d1], [x1, d1]];")


def test_exponent_bound():
    with pytest.raises(ParseError):
        parse("ring W(1) over QQ; module M = coker [[x1^65]];")


def test_nesting_bound():
    src = "ring W(1) over QQ; module M = coker [[%sd1%s]];" % (
        "(" * 80, ")" * 80)
    with pytest.raises(ParseError, match="nested"):
        parse(src)


def test_unknown_subcommand():
    with pytest.raises(ParseError, match="subcommand"):
        parse("ring W(1) over QQ; module M = coker [[d1]]; check M frobnicate")


def test_round_trip_random_elements():
    rng = random.Random(59)
    for n, ring, tag in ((1, QQ, "QQ"), (2, QQ, "QQ"), (2, QZ, "QZ")):
        W = WeylAlgebra(n, ring)
        for _ in range(20):
            u = rand_element(rng, W, deg=3, terms=4)
            src = "ring W(%d) over %s; module M = coker [[%s]];" % (
                n, tag, to_str(u))
            assert parse(src).modules["M"][0][0] == u


def _wrap(src, level, most):
    """src in parentheses unless its level is at most most."""
    return src if level <= most else "(%s)" % src


def _rand_expression(rng, W, depth):
    """(source, element, level) of a random expression.

    The element is what the WeylElement operators build for the source.
    level says where the source may stand without parentheses: 0 as the
    base of a power, 1 as an operand of * and / or the right operand of a
    sum, 2 only as a whole element or the left operand of a sum.
    """
    kinds = ["leaf"] * 3 + ["sum", "product", "power", "divide", "minus",
                            "parens"]
    kind = rng.choice(kinds) if depth else "leaf"
    if kind == "leaf":
        pick = rng.randrange(4 if W.ring == QZ else 3)
        if pick == 0:
            k = rng.randint(0, 9)
            return str(k), W.scalar(k), 0
        if pick == 3:
            return "z", W.z(), 0
        i = rng.randint(1, W.n)
        return ("x%d" % i, W.x(i), 0) if pick == 1 else ("d%d" % i, W.d(i), 0)
    sa, a, la = _rand_expression(rng, W, depth - 1)
    if kind == "sum":
        sb, b, lb = _rand_expression(rng, W, depth - 1)
        if rng.randint(0, 1):
            return "%s + %s" % (sa, _wrap(sb, lb, 1)), a + b, 2
        return "%s - %s" % (sa, _wrap(sb, lb, 1)), a - b, 2
    if kind == "product":
        sb, b, lb = _rand_expression(rng, W, depth - 1)
        return "%s*%s" % (_wrap(sa, la, 1), _wrap(sb, lb, 1)), a * b, 1
    if kind == "power":
        k = rng.randint(0, 3)
        return "%s^%d" % (_wrap(sa, la, 0), k), a ** k, 0
    if kind == "divide":
        k, m = rng.randint(1, 9), rng.randint(-3, 3)
        if W.ring == QZ and m:
            c = RatFunc(QPoly((k, m)))
            return "%s/(%d + %d*z)" % (_wrap(sa, la, 1), k, m), a / c, 1
        return "%s/%d" % (_wrap(sa, la, 1), k), a / k, 1
    if kind == "minus":
        signs = rng.randint(1, 4)
        return "-" * signs + _wrap(sa, la, 0), a if signs % 2 == 0 else -a, 1
    return "(%s)" % sa, a, 0


@pytest.mark.parametrize("n,ring", [(1, QQ), (2, QQ), (3, QQ), (1, QZ),
                                    (2, QZ)])
def test_elements_parse_as_the_operators_build_them(n, ring):
    # d1*x1 reorderings, powers, nested parentheses, scalar division,
    # runs of unary minus and z over QZ
    rng = random.Random("expressions/%d/%s" % (n, ring))
    W = WeylAlgebra(n, ring)
    scalar = RatFunc if ring == QZ else Fraction
    for _ in range(60):
        src, want, _level = _rand_expression(rng, W, 4)
        got = parse("ring W(%d) over %s; module M = coker [[%s]];"
                    % (n, ring, src)).modules["M"][0][0]
        assert got == want, src
        assert all(type(c) is scalar for c in got.terms.values())


@pytest.mark.parametrize("src,want", [
    ("x1^64*x1^64", lambda W: W.x(1) ** 64 * W.x(1) ** 64),
    ("d1^40*x1^40", lambda W: W.d(1) ** 40 * W.x(1) ** 40),
    ("2*x1^64*x1 + %sd1%s" % ("(" * 63, ")" * 63),
     lambda W: 2 * W.x(1) ** 65 + W.d(1)),
])
def test_wide_exponents_parse_exactly(src, want):
    # an exponent beyond the narrowest fields reruns the element on wider
    # ones, from its first token and at its own nesting depth
    W = WeylAlgebra(1, QQ)
    got = parse("ring W(1) over QQ; module M = coker [[d1, %s]];" % src)
    assert got.modules["M"][0] == [W.d(1), want(W)]


def test_nesting_bound_after_a_rerun():
    # the rerun counts the depth from the element's start, so a wide
    # exponent does not move the nesting bound
    deep = "x1*%s + %sd1%s" % ("%s", "(" * 64, ")" * 64)
    outcomes = [_outcome("ring W(1) over QQ; module M = coker [[%s]];"
                         % deep % power) for power in ("x1^62", "x1^63")]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "expression too deeply nested"


def _outcome(source):
    try:
        parse(source)
    except WeylmodError as e:
        return e.code, e.args[0], getattr(e, "line", None), \
            getattr(e, "col", None)
    return None


def _tokens(source):
    return [(t.kind, t.value, t.line, t.col) for t in tokenize(source)]


def test_token_streams_pinned():
    # every token of the benchmark sessions and the goldens, recorded
    # before the tokenizer became one pattern
    sources = [s.source for w in workloads.WORKLOADS
               for s in workloads.universe(w)]
    sources += [p.read_text() for p in sorted(GOLDEN.glob("*.in"))]
    digest = hashlib.sha256()
    tokens = [t for s in sources for t in _tokens(s)]
    for t in tokens:
        digest.update(repr(t).encode())
    assert (len(sources), len(tokens)) == (216, 9386)
    assert digest.hexdigest() == \
        "562e42c332e50ced041a0a5ff825bbd2560402c10af1b6c9577ba89294d70a6b"


Q = "ring W(1) over QQ; "
M = Q + "module M = coker [[d1]]; "
E = Q + "module M = coker [["

# malformed sessions and (code, message, line, col) as recorded before
# the parser stated each rule once
PARSE_ERRORS = [
    # a comment never advances the column, so the end token sits at "#"
    ("ring W(1) over QQ # c", "ParseError", "expected ';', found None", 1, 19),
    ("\n\n  ring W(1) over QQ;\n  #c\n module M = coker [[d1]",
     "ParseError", "expected ']', found None", 5, 24),
    # a flag is a whole FLAGS name; anything else is two minus signs
    (M + "check M gb --stats_x", "ParseError",
     "expected a flag or the end of the check, found '_x'", 1, 63),
    (M + "check M gb ---stats", "ParseError",
     "expected a flag or the end of the check, found '-'", 1, 56),
    (M + "check M ext 1 --max-degreex 3", "ParseError",
     "expected a flag or the end of the check, found '-'", 1, 59),
    (M + "check M gb --statsx", "ParseError",
     "expected a flag or the end of the check, found '-'", 1, 56),
    ("ring\tW(1)\tover QQ;\tmodule M = coker [[d1 +\t]];", "ParseError",
     "expected an element, found ']'", 1, 44),
    ("ring W(1) over QQ;\r\nmodule M = coker [[d1\r+ x1]]\r\ncheck M gb",
     "ParseError", "expected ';', found 'check'", 3, 1),
    # a token of the wrong kind where a keyword is expected
    ("ring 1 over QQ;", "ParseError", "expected a name, found 1", 1, 6),
    (Q + "module M = 3 [[d1]];", "ParseError",
     "expected a name, found 3", 1, 31),
    ("ring V(1) over QQ;", "ParseError", "expected 'W', found 'V'", 1, 6),
    # lists: ragged, empty and unclosed
    (E + "d1], [x1, d1]];", "ParseError", "ragged matrix rows", 1, 53),
    (E + "d1,]];", "ParseError", "expected an element, found ']'", 1, 42),
    (Q + "module M = coker [,];", "ParseError",
     "expected '[', found ','", 1, 38),
    (Q + "complex C = [1,] with [[1]];", "ParseError",
     "expected an integer, found ']'", 1, 35),
    (Q + "complex C = [] with [[x1]];", "ParseError",
     "complex entries must be scalars", 1, 40),
    (E + "d1] [x1]];", "ParseError", "expected ']', found '['", 1, 43),
    ("ring W(9) over QQ;", "ParseError",
     "number of variables must be between 1 and 8", 1, 8),
    ("ring W(1) over QR;", "ParseError", "ring must be QQ or QZ", 1, 16),
    (Q + "ring W(1) over QQ;", "ParseError", "ring already declared", 1, 25),
    ("module M = coker [[d1]];", "ParseError",
     "ring declaration required first", 1, 1),
    (Q + "module x1 = coker [[d1]];", "ParseError",
     "'x1' collides with a variable name", 1, 27),
    (Q + "module d12 = coker [[d1]];", "ParseError",
     "'d12' collides with a variable name", 1, 27),
    (Q + "lattice with = M;", "ParseError",
     "reserved word 'with' cannot name an object", 1, 28),
    (M + "complex M = [1];", "ParseError", "name 'M' already declared", 1, 53),
    (Q + "check M gb", "UndeclaredName", "no object named 'M'", 1, 26),
    (E + "x2]];", "ParseError", "variable x2 outside W(1)", 1, 39),
    (E + "z]];", "RingMismatch", "z needs ring QZ", 1, 39),
    (E + "d1^65]];", "ParseError", "exponent too large", 1, 42),
    (E + "d1/(x1-x1)]];", "ParseError", "division by zero", 1, 41),
    (E + "d1/x1]];", "ParseError",
     "division only by scalar subexpressions", 1, 41),
    (E + "(" * 70 + "d1", "ParseError", "expression too deeply nested",
     1, 103),
    (Q + "@", "ParseError", "unexpected character '@'", 1, 20),
    (Q + "foo", "ParseError", "unknown statement 'foo'", 1, 20),
    ("1", "ParseError", "expected a declaration or check, found 1", 1, 1),
    (M + "check M frob", "ParseError", "unknown subcommand 'frob'", 1, 53),
    (M + "check M gb 3", "ParseError",
     "expected a flag or the end of the check, found 3", 1, 56),
    (M + "check M ext --max-degree x", "ParseError",
     "expected an integer, found 'x'", 1, 70),
    (M + "check M gb; check M gb", "ParseError",
     "only one check per input", 1, 57),
    (Q + "module Ωé = coker [[é]];", "ParseError",
     "expected an element, found 'é'", 1, 40),
    (Q + "module Ωé = coker [[d1]]; check Ωé frob", "ParseError",
     "unknown subcommand 'frob'", 1, 55),
    (M + "check M reduce", "UnsupportedAmbient",
     "lattice subcommands need the QZ ring", None, None),
    (M + "check M ext", "UnsupportedTarget",
     "ext needs an integer argument", None, None),
    ("ring W(1) over QZ; complex C = [1]; lattice L = C;",
     "UnsupportedTarget", "'C' is not a module", None, None),
]


def test_parse_errors_pinned():
    assert [_outcome(source) for source, *_ in PARSE_ERRORS] == \
        [tuple(want) for _source, *want in PARSE_ERRORS]


def test_tokenize_raises_only_parse_errors():
    # integers and variable indices are ASCII digits; any other number
    # character is an unexpected character, where it stands
    rng = random.Random(73)
    alphabet = "".join(map(chr, range(128))) + "²①½١٣éΩ"
    for _ in range(2000):
        source = "".join(rng.choice(alphabet)
                         for _ in range(rng.randint(0, 40)))
        try:
            tokens = _tokens(source)
        except ParseError as e:
            assert e.line >= 1 and e.col >= 1, source
        else:
            assert tokens[-1][0] == "end"
            assert all(isinstance(v, int) for k, v, *_ in tokens
                       if k == "int")

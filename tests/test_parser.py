"""Session language: grammar coverage and error positions."""

import random
from fractions import Fraction

import pytest

from weylmod import (QQ, QZ, ParseError, RingMismatch, UndeclaredName,
                     UnsupportedTarget, WeylAlgebra, parse, to_str)

from helpers import rand_element


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

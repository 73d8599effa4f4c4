"""Checks on the package source itself."""

import ast
import pathlib

import pytest

import weylmod

PACKAGE = pathlib.Path(weylmod.__file__).resolve().parent


def _assert_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_assert_in_package():
    # python -O strips assert statements, so an engine invariant raises
    # InternalInvariant, which run() reports with exit 1
    found = ["%s:%d" % (path.relative_to(PACKAGE), line)
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in _assert_lines(ast.parse(path.read_text()))]
    assert not found


def _names(path, function):
    """Every name and attribute the body of a top-level function uses."""
    tree = ast.parse((PACKAGE / path).read_text())
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("path,function", [("groebner.py", "_reduce"),
                                           ("weyl.py", "_product_items")])
def test_kernel_loops_name_no_fraction(path, function):
    # the one division loop and the one product loop serve integer rows
    # and RatFunc rows alike; a field-only path would name Fraction
    assert "Fraction" not in _names(path, function)


def test_oracle_shares_nothing_with_the_window():
    # the truncation oracle cross-checks h_dr_n1, so it builds its rows
    # from integer shifts of the basis, not from the window algorithm's
    # V-order machinery or the Weyl product
    shared = {"Fraction", "WeylAlgebra", "mul_monomial", "_v_lifts",
              "_b_data", "_truncated_nf", "_stairs_by_comp",
              "_standard_monomials", "_indicial_polynomial", "vres_order"}
    assert not shared & _names("derham.py", "stabilization_oracle")


# The public names; a simplification may not drop one.
PUBLIC = [
    "BFunction", "CharCycle", "CohomologyReport", "CompareReport",
    "DeRhamComplex", "DivisionByZero", "FreeVec", "GBasis", "H1", "INF",
    "IndexOutOfRange", "IntegralPresentation", "InternalInvariant",
    "KunnethReport", "LEFT", "Lattice", "MixedAmbient", "NonIntegral",
    "NotAComplex", "NotHolonomic", "NotMinimalDimension", "NotSameModule",
    "NotSaturated", "ParseError", "PerfectComplexOverDVR", "PresentedModule",
    "QPoly", "QQ", "QZ", "RIGHT", "RankMismatch", "RatFunc",
    "ReductionReport", "RightModule", "RingMismatch", "Session",
    "UndeclaredName", "UnsupportedAmbient", "UnsupportedTarget",
    "WeylAlgebra", "WeylElement", "WeylmodError", "XPoly", "ZP",
    "ZeroElement", "ZeroModule", "apply_to_polynomial",
    "b_function_along_x", "bernstein_degree", "bernstein_order",
    "buchberger", "char_cycle", "chi_via_reduction", "compare_lattices",
    "convert_ring", "derham", "dr_complex", "dual_star", "errors",
    "euler_check_perfect", "ext", "fourier", "fourier_inverse",
    "free_resolution", "good_lattice", "grade", "groebner", "h_dr_n1",
    "hilbert_dimension", "is_minimal_dimension", "kunneth_check", "lattice",
    "leading_term", "left_normal_form", "make_lattice",
    "minimal_dimension_via_reduction", "modules", "normal_product", "parse",
    "parser", "pot_block_order", "preimage_rows", "principal_symbol",
    "quotient_presentation", "reduce_element_mod_z", "reduce_mod_z",
    "saturate_z", "scalars", "stabilization_oracle",
    "submodule_presentation", "syz_of_list", "to_str", "transpose",
    "vres_order", "weyl",
]


def test_public_names_pinned():
    assert len(PUBLIC) == 95
    assert sorted(weylmod.__all__) == PUBLIC

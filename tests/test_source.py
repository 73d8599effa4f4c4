"""Checks on the package source itself."""

import ast
import pathlib
import sys

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


def _imported_modules(tree):
    """Top-level names of the modules a file imports absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_engine_imports_only_the_standard_library():
    # relative imports stay inside the package; every other import must
    # name the package itself or a module of the standard library
    allowed = set(sys.stdlib_module_names) | {"weylmod"}
    found = ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _imported_modules(ast.parse(path.read_text()))
             if name not in allowed]
    assert not found


def _functions(tree):
    """(name, node) of each top-level function and method, as Class.name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name + "." + item.name, item


def _used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _names(path, function):
    """Every name and attribute the body of a function or method uses."""
    tree = ast.parse((PACKAGE / path).read_text())
    return _used(dict(_functions(tree))[function])


@pytest.mark.parametrize("path,function", [("groebner.py", "_reduce"),
                                           ("_packed.py", "Layout.mul_into")])
def test_kernel_loops_name_no_fraction(path, function):
    # the one division loop and the one product loop serve integer rows
    # and RatFunc rows alike; a field-only path would name Fraction
    assert "Fraction" not in _names(path, function)


def test_one_product_loop():
    # the Weyl product is written once: Layout._expansion alone builds
    # the reordering coefficients and Layout.mul_into alone applies them;
    # every other product goes through mul_into
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())):
            for used in {"comb", "factorial", "_tables", "mul_into"} & \
                    _used(node):
                found.setdefault(used, set()).add(path.name + ":" + name)
    assert found.pop("comb") == found.pop("factorial") == {
        "_packed.py:Layout._expansion"}
    assert found.pop("_tables") == {"_packed.py:Layout.__init__",
                                    "_packed.py:Layout.mul_into"}
    assert found.pop("mul_into") == {
        "_packed.py:product", "groebner.py:_spoly", "groebner.py:_reduce",
        "groebner.py:_minus_quotients", "derham.py:_truncated_nf"}


def test_one_module_knows_the_packed_layout():
    # field widths, guard bits and shifts of packed monomials are known to
    # _packed.py alone; the rest of the package goes through its methods
    layout = {"shifts", "cshift", "guard", "spill", "fields", "xmask",
              "dmask", "_encode", "_decode", "_expansion"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_packed.py":
            continue
        tree = ast.parse(path.read_text())
        found += ["%s %s" % (path.name, name)
                  for name in sorted(layout & _used(tree))]
        found += ["%s:%d shift" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                  and isinstance(node.op, (ast.LShift, ast.RShift))]
    assert not found


def test_one_module_takes_gcds_of_rows():
    # the fraction-free cancellation step and the content of a row are
    # written once, in _linalg
    found = sorted(str(path.relative_to(PACKAGE))
                   for path in PACKAGE.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom)
                   and any(alias.name == "gcd" for alias in node.names))
    assert found == ["_linalg.py"]


def _class_members(tree):
    """(class, name) for every method or attribute a class body binds."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    yield cls.name, node.name
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            yield cls.name, target.id


def test_one_sparse_term_value_type():
    # WeylElement, FreeVec, XPoly and SymbolPolynomial share one value
    # type: immutability, equality, hashing and the additive operations
    # are written once, in weyl._Terms
    shared = {"__setattr__", "__hash__", "__eq__", "is_zero", "__bool__",
              "__neg__", "__add__", "__sub__", "scale"}
    found = sorted((path, cls, name)
                   for path in ("weyl.py", "groebner.py")
                   for cls, name in _class_members(
                       ast.parse((PACKAGE / path).read_text()))
                   if name in shared)
    assert {cls for _path, cls, _name in found} == {"_Terms"}
    assert {name for _path, _cls, name in found} == shared


def test_oracle_reads_the_kernel_rows():
    # the oracle's integer rows are the Groebner kernel's, not cleared again
    names = _names("derham.py", "stabilization_oracle")
    assert "_kernel_rows" in names
    assert not {"denominator", "lcm"} & names


def test_oracle_shares_nothing_with_the_window():
    # the truncation oracle cross-checks h_dr_n1, so it builds its rows
    # from integer shifts of the basis, not from the window algorithm's
    # V-order machinery or the Weyl product
    shared = {"Fraction", "WeylAlgebra", "mul_monomial", "product",
              "mul_into", "divisor", "_Basis",
              "_v_lifts", "_b_data", "_theta_image", "_truncated_nf",
              "_stairs_by_comp", "_standard_monomials",
              "_indicial_polynomial", "vres_order"}
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

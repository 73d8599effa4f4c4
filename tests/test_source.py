"""Checks on the package source itself."""

import ast
import inspect
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


@pytest.mark.parametrize("path,function", [
    ("groebner.py", "_reduce"), ("_packed.py", "Layout.mul_into"),
    ("_linalg.py", "Echelon.reduce"), ("groebner.py", "_buchberger"),
    ("_linalg.py", "cancel"), ("_linalg.py", "primitive")])
def test_kernel_loops_name_no_fraction(path, function):
    # the one division loop, the one product loop, the echelon form,
    # Buchberger and the cancellation step and content of a row serve rows
    # of ints and of ZPolys alike; a field-only path would name Fraction,
    # and RatFunc and QPoly stay at the kernel's edges
    assert not {"Fraction", "RatFunc", "QPoly"} & _names(path, function)


def test_rows_take_no_field_scalars():
    # a row over a field reaches _linalg cleared, so it needs no fractions
    tree = ast.parse((PACKAGE / "_linalg.py").read_text())
    assert "fractions" not in {name for _line, name in _imported_modules(tree)}


def test_one_normal_form_of_a_rational_function():
    # a RatFunc is a pair of ZPolys reduced by the gcd over Z[z]: it names
    # QPoly only in its num and den views, which to_str reads, and in
    # _pair, which reads a QPoly in; no QPoly gcd, lcm or monic is taken
    tree = ast.parse((PACKAGE / "scalars.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "RatFunc")
    assert {getattr(item, "name", None) for item in cls.body
            if "QPoly" in _used(item)} == {"num", "den"}
    assert {"num", "den"} <= _names("scalars.py", "RatFunc.to_str")
    assert {name for name, node in _functions(tree)
            if "." not in name and "QPoly" in _used(node)} == {"_pair"}
    functions = [node for name, node in _functions(tree)
                 if not name.startswith("QPoly")]
    assert not {"gcd", "lcm", "monic"} & set().union(*map(_used, functions))
    assert "_gcd" in _names("scalars.py", "_ratio")


def test_one_polynomial_kernel():
    # sums, products, pseudo-remainders, contents and gcds of polynomials
    # over Z are written once, in _linalg, where ZPoly is built on them;
    # the de Rham b-function imports them, and derham.py defines no
    # product or pseudo-remainder of its own, nor takes a cancel step
    helpers = {"_sub", "_mul", "_prem", "_primitive", "_gcd"}
    found = {path.name + ":" + name
             for path in sorted(PACKAGE.glob("*.py"))
             for name, _node in _functions(ast.parse(path.read_text()))
             if name.split(".")[-1] in helpers}
    assert found == {"_linalg.py:" + name for name in helpers}
    tree = ast.parse((PACKAGE / "derham.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "_linalg" for alias in node.names}
    assert {"_sub", "_mul", "_prem", "_primitive"} <= imported
    assert "cancel" not in _used(tree)


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
        "_packed.py:Layout.times", "groebner.py:_spoly", "groebner.py:_reduce",
        "groebner.py:_combine", "weyl.py:_reordered"}


def test_one_division_loop():
    # division by a basis is written once: the de Rham window cuts it at
    # weight k0 through the floor of _reduce, and outside _packed.py only
    # _reduce asks a layout for the divisor of a monomial
    found = {path.name + ":" + name
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "_packed.py"
             for name, node in _functions(ast.parse(path.read_text()))
             if "divisor" in _used(node)}
    assert found == {"groebner.py:_reduce"}


def test_rows_enter_and_widen_one_way():
    # FreeVecs become kernel rows through _Rows.of alone, and kernel rows
    # move to a wider layout through _Rows.on alone, the basis of a
    # GBasis too; tracked rows are _Rows, with no mover of their own
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())):
            for used in {"_clear", "moved", "_tracked"} & \
                    (_used(node) | {name.split(".")[-1]}):
                found.setdefault(used, set()).add(path.name + ":" + name)
    assert found.pop("_clear") == {"groebner.py:_clear",
                                   "groebner.py:_Rows.of"}
    assert found.pop("moved") == {"_packed.py:Layout.moved",
                                  "groebner.py:_Rows.on"}
    assert not found


def test_rows_carry_no_generator_degrees():
    # a graded order is a well-order, so only an order that is not graded
    # (the V-order) asks for h-homogeneous input over H1, and kernel rows
    # carry no degree of their generators to pass that check
    from weylmod.groebner import _buchberger, _Rows
    assert not {"offsets", "_degrees"} & set(_Rows.__slots__)
    assert not hasattr(_Rows, "degrees")
    for function in (_Rows.of, _buchberger):
        assert "offsets" not in inspect.signature(function).parameters
    for function in ("_buchberger", "left_normal_form"):
        assert {"_require_homogeneous", "graded"} <= _names("groebner.py",
                                                           function)


@pytest.mark.parametrize("function", ["gb", "resolution"])
def test_a_module_resolves_its_own_rows(function):
    # a module's basis and resolution start from its kernel rows; the
    # public wrappers would clear its FreeVecs again
    assert not {"buchberger", "free_resolution"} & _names(
        "modules.py", "PresentedModule." + function)


def test_one_presented_module_type():
    # a module's relations live in one slot, its kernel rows, and an
    # integral presentation is a module over Q[z], with no copy of its
    # slots, its immutability or its rows
    from weylmod import IntegralPresentation, PresentedModule
    assert "_rows" not in PresentedModule.__slots__
    assert "_kernel" in PresentedModule.__slots__
    assert not [path.name + ":" + name
                for path in sorted(PACKAGE.glob("*.py"))
                for name, _node in _functions(ast.parse(path.read_text()))
                if name.split(".")[-1] == "_relations"]
    assert issubclass(IntegralPresentation, PresentedModule)
    assert IntegralPresentation.__slots__ == ("saturated",)
    assert not {"__setattr__", "rows"} & set(vars(IntegralPresentation))


@pytest.mark.parametrize("function", ["_buchberger", "_interreduce",
                                      "syz_of_list"])
def test_tracking_is_fraction_free(function):
    # transforms, lifts and syzygies are integer rows over one denominator
    # inside the kernel; they become Fraction rows only through _rational
    assert not {"Fraction", "_divided"} & _names("groebner.py", function)


def test_one_combine_step():
    # tracked rows are combined by _combine alone
    names = dict(_functions(ast.parse((PACKAGE / "groebner.py").read_text())))
    assert "_combine" in names
    assert not {"_minus_quotients", "_divided"} & set(names)


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
    assert "_rows" in names
    assert not {"denominator", "lcm"} & names


def test_oracle_shares_nothing_with_the_window():
    # the truncation oracle cross-checks h_dr_n1, so it and its helpers
    # build rows from integer shifts of the basis, not from the window
    # algorithm's V-order machinery or the Weyl product
    shared = {"Fraction", "WeylAlgebra", "mul_monomial", "product",
              "mul_into", "divisor", "_Basis",
              "_v_lifts", "_b_data", "_theta_image", "_reduce",
              "_stairs_by_comp", "_standard_monomials",
              "_indicial_polynomial", "_eliminate", "_prem", "vres_order"}
    for function in ("stabilization_oracle", "_x_times", "_d_times",
                     "_mod_d"):
        assert not shared & _names("derham.py", function), function


def test_oracle_builds_no_derivative_rows():
    # d1 F is read modulo d1 W in closed form (_mod_d), so the oracle
    # takes d times a row only in the i = 0 step of the relation rows
    # x^i d^j g, where d (d^(j-1) g) comes from the row of d^(j-1) g
    oracle = dict(_functions(ast.parse(
        (PACKAGE / "derham.py").read_text())))["stabilization_oracle"]
    named = [node for node in ast.walk(oracle)
             if isinstance(node, ast.Name) and node.id == "_d_times"]
    calls = [ast.unparse(node) for node in ast.walk(oracle)
             if isinstance(node, ast.Call) and node.func in named]
    relations = [node for node in ast.walk(oracle)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "relations"]
    assert len(named) == 1 and calls == ["_d_times(rows[0])"]
    assert named[0] in ast.walk(relations[0])


@pytest.mark.parametrize("function", [
    "_v_lifts", "_theta_image", "_prem", "_eliminate",
    "_indicial_polynomial", "_integer_roots", "h_dr_n1"])
def test_b_function_and_window_in_integers(function):
    # the lifts are the Groebner kernel's integer rows, not the monic
    # elements, the b-function is found over Z[theta] and the window
    # divides fraction-free; _b_data alone makes the monic QPoly of the
    # report, and no coefficient has a denominator to clear.  _prem is the
    # pseudo-remainder of the one polynomial kernel, in _linalg
    path = "_linalg.py" if function == "_prem" else "derham.py"
    assert not {"RatFunc", "Fraction", "QPoly", "denominator",
                "elements"} & _names(path, function)


def test_grade_resolves_no_ext():
    # grade + dimension is 2n, or 2n + 1 over Q[z]: one formula, no Ext
    assert not {"ext", "InternalInvariant"} & _names("modules.py", "grade")


@pytest.mark.parametrize("path,function", [
    ("lattice.py", "make_lattice"), ("lattice.py", "_reduced_module"),
    ("lattice.py", "kunneth_check"), ("lattice.py", "good_lattice"),
    ("lattice.py", "IntegralPresentation.generic_fiber_module"),
    ("lattice.py", "Lattice.presentation"),
    ("lattice.py", "_containment_power"),
    ("groebner.py", "_colon"), ("groebner.py", "_saturate")])
def test_lattices_stay_in_the_kernel(path, function):
    # saturation, the colon by z, reduction mod z and the Kunneth torsion
    # term run on kernel rows, not through the FreeVec edges of the
    # kernel; FreeVecs are built only where rows are read
    assert not {"FreeVec", "Fraction", "map_entries", "entries", "elements",
                "buchberger", "colon_z", "saturate_z", "preimage_rows"} & \
        _names(path, function)


@pytest.mark.parametrize("function", ["saturate_z", "submodule_equal"])
def test_equality_compares_reduced_bases(function):
    # reduced bases are unique, so equal spans show as equal bases and
    # no normal form is taken
    assert not {"contains", "left_normal_form"} & _names("groebner.py",
                                                          function)


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


def test_one_character_rule_in_the_parser():
    # the token pattern says what a digit and a letter are, and the
    # variable pattern what a variable is; int() reads only their ASCII
    # digit groups, so no second character rule can disagree with them
    tree = ast.parse((PACKAGE / "parser.py").read_text())
    assert not {"isdigit", "isalpha", "isalnum", "isdecimal"} & _used(tree)
    calls = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "int"]
    assert sorted(calls) == ["int(m['int'])", "int(var['index'])"]
    assert "(?P<int>[0-9]+)" in weylmod.parser._TOKEN.pattern
    assert "(?P<index>[0-9]+)" in weylmod.parser._VARIABLE.pattern

"""
Exact computation for modules over Weyl algebras with a deformation
parameter: normal ordering, left Groebner bases, holonomicity through
reduction of lattices to the special fiber, and de Rham invariants in
one variable.

Scalars come in four flavors sharing one term representation: plain
rationals (QQ), rational functions of z (QZ), polynomials in z carried
as an exponent slot (ZP), and the homogenized one variable algebra (H1).
"""

from .errors import (DivisionByZero, IndexOutOfRange, InternalInvariant,
                     MixedAmbient, NonIntegral, NotAComplex, NotHolonomic,
                     NotMinimalDimension, NotSameModule, NotSaturated,
                     ParseError, RankMismatch, RightModule, RingMismatch,
                     UndeclaredName, UnsupportedAmbient, UnsupportedTarget,
                     WeylmodError, ZeroElement, ZeroModule)
from .scalars import INF, QPoly, RatFunc
from .weyl import (H1, QQ, QZ, ZP, WeylAlgebra, WeylElement, XPoly,
                   apply_to_polynomial, bernstein_degree, convert_ring,
                   fourier, fourier_inverse, normal_product,
                   principal_symbol, reduce_element_mod_z, to_str,
                   transpose)
from .groebner import (FreeVec, GBasis, bernstein_order, buchberger,
                       free_resolution, leading_term, left_normal_form,
                       pot_block_order, preimage_rows, saturate_z,
                       syz_of_list, vres_order)
from .modules import (LEFT, RIGHT, CharCycle, PresentedModule, char_cycle,
                      dual_star, ext, grade, hilbert_dimension,
                      is_minimal_dimension, quotient_presentation,
                      submodule_presentation)
from .lattice import (CompareReport, IntegralPresentation, KunnethReport,
                      Lattice, ReductionReport, compare_lattices,
                      good_lattice, kunneth_check, make_lattice,
                      minimal_dimension_via_reduction, reduce_mod_z)
from .derham import (BFunction, CohomologyReport, DeRhamComplex,
                     PerfectComplexOverDVR, b_function_along_x,
                     chi_via_reduction, dr_complex, euler_check_perfect,
                     h_dr_n1, stabilization_oracle)
from .parser import Session, parse

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

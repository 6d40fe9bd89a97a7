"""Exact integer homology of moment-angle complexes, realisability of
iterated higher Whitehead products, Taylor complexes of face coalgebras,
and the staircase translating cellular cycles into Taylor cycles."""

__version__ = "0.1.0"

from .complexes import (SimplicialComplex, SizeLimitError, ParseError,
                        boundary, face, is_shifted, is_subcomplex, join,
                        parse_complex, point, reduced_homology, simplex,
                        simplex_boundary, substitute,
                        substitution_missing_faces)
from .exactalg import (ChainComplex, HomologyGroup, IntMatrix, direct_sum,
                       invariant_factors, kernel_basis, smith_normal_form,
                       solve_integer)
from .moment_angle import (CellChain, hochster_table, zk_chain_complex,
                           zk_homology)
from .taylor import (MonomialIdeal, TaylorChain, nested_taylor_cycle, taylor_boundary,
                     taylor_face_complex, taylor_homology, verify_taylor_is_resolution)
from .whitehead import (WhiteheadExpr, bracket, delta_w, fillable_wedge_basis,
                        hurewicz_chain, leaf, nested_shape_status,
                        parse_whitehead, realises_sufficient,
                        shifted_wedge_basis, single_product_status)
from .zigzag import (ZigzagTrace, classes_equal, classes_equal_up_to_sign,
                     koszul_to_taylor)

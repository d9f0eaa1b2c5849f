"""Exact matrix-level Prym representations of handlebody and twist groups.

The package computes, over Z[zeta_d] with exact integer arithmetic: the
catalogue of generator matrices landing in the image groups Lambda and Delta,
membership predicates for those groups and their unitary ambients,
constructive decompositions of image elements into generator words, and an
independent graph-cover / Fox-calculus oracle for the lower-right block.
"""

from .cyclotomic import (
    CycInt,
    ParseError,
    euler_phi,
    one,
    parse_ring_literal,
    render_poly,
    solve_real_basis,
    unit_exponent,
    zeta_pow,
)
from .decompose import decompose_delta, reduce_lambda
from .foxcover import (
    CoverClass,
    Endo,
    check_member,
    deck_conjugation,
    eta,
    eta_chain,
    eta_fox,
    lift_class,
)
from .generators import GenSpec, matrix_of
from .predicates import (
    GroupTag,
    Verdict,
    genus2_real_project,
    genus2_theta_project,
    is_member,
)
from .ringlinalg import (
    BlockMat,
    RingMatrix,
    parse_matrix,
    preserves_form,
)
from .wordlang import Word, evaluate, parse

__version__ = "0.1.0"

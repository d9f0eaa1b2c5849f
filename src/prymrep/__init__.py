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
from .generators import (
    GenSpec,
    TH,
    THPrime,
    big_T,
    conj_AH,
    conj_AHPrime,
    delta_g1,
    delta_g2,
    delta_g3,
    elem_Ti,
    elem_Tij,
    gamma_ijk,
    gamma_ik,
    matrix_of,
    scalar_zeta,
    twist_E,
)
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

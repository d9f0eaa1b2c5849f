"""Membership tests for the subgroups carved out of GL_{2g-2}(Z[zeta_d]):
the form-preserving group U, its even-determinant subgroup U#, their
upper-right-block variants, the integer symplectic block group, and the two
image groups Lambda (handlebody side) and Delta (twist side).

Each group is a fixed tuple of clauses (_CLAUSES), and a negative verdict
carries the first clause that fails, for CLI diagnostics.  A matrix decides each
clause, like det and the form test, once (BlockMat._once, a memo outside its eq,
hash and repr), so the groups of a chain share the work.  With C = 0,
M* Omega M = [[0, A*D], [-D*A, B*D - D*B]]: the form walk decides Lambda's
D*A = Id and D*B = B*D and, once A = D = zeta^k Id, Delta's B = B*; the row
where it first fails names the clause, so membership multiplies no matrices.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from . import ringlinalg
from .cyclotomic import CycInt, unit_exponent, zeta_pow
from .ringlinalg import BlockMat, preserves_form


class GroupTag(enum.Enum):
    U = "U"
    USharp = "USharp"
    UrU = "UrU"
    UrUSharp = "UrUSharp"
    UrSpZ = "UrSpZ"
    Lambda = "Lambda"
    Delta = "Delta"
    Genus2Theta = "Genus2Theta"


class Verdict(namedtuple("Verdict", "ok reason", defaults=("",))):
    __slots__ = ()

    def __bool__(self):
        return self.ok

    def require(self, what):
        """Raise ValueError("<what>: <reason>") for a negative verdict."""
        if not self.ok:
            raise ValueError(f"{what}: {self.reason}")


_OK = Verdict(True)


def _preserves(m: BlockMat) -> Verdict:
    if not preserves_form(m):
        return Verdict(False, "M* Omega M != Omega")
    return _OK


def _lower_left_zero(m: BlockMat) -> Verdict:
    if not m.lower_left().is_zero():
        return Verdict(False, "lower-left block is nonzero")
    return _OK


def _even_det(m: BlockMat) -> Verdict:
    # every row that lists _even_det tests _preserves first, and a matrix
    # preserving the form has |det M| = 1 under every complex embedding, so
    # det M is a root of unity (Kronecker) and unit_exponent finds it
    s, k = unit_exponent(m.det())
    d = m.d
    if s < 0:
        # for even d a negative sign never survives unit_exponent; for odd d
        # -zeta^k is not a power of zeta at all
        return Verdict(False, f"det(M) = -zeta^{k} is not an even power of zeta")
    if d % 2 == 1:
        return _OK  # k and k+d have opposite parity, so some representative is even
    if k % 2 != 0:
        return Verdict(False, f"det(M) = zeta^{k} with k odd (d even)")
    return _OK


def _lambda_blocks(m: BlockMat) -> Verdict:
    """[[(D*)^-1, B], [0, D]], det D = +-zeta^k, D*B = B*D; C = 0 is given.
    Past det D the form walk decides: its first failing row p < g-1 is one of
    A*D, else A*D = Id = (A*D)* = D*A and the row is one of B*D - D*B."""
    if unit_exponent(m.lower_right().det()) is None:
        return Verdict(False, "det(D) is not +-zeta^k")
    p = m._once(ringlinalg._form_walk)  # through the module: one memo key
    if p is None:
        return _OK
    return Verdict(False, "upper-left block is not (D*)^-1" if p < m.n else "D*B != B*D")


def _delta_blocks(m: BlockMat) -> Verdict:
    """M = zeta^k [[Id, B], [0, Id]] with B = B*; C = 0 is given.  With
    A = D = zeta^k Id the form holds iff zeta^-k B is self-adjoint."""
    ul, n = m.upper_left(), m.n
    c = ul.coeffs[0][0]
    z, ue = (0,) * len(c), unit_exponent(ul[0, 0])
    if ue is None or ue[0] < 0 or ul.coeffs != tuple(
            tuple(c if i == j else z for j in range(n)) for i in range(n)):
        return Verdict(False, "upper-left block is not zeta^k Id")
    if m.lower_right() != ul:
        return Verdict(False, "lower-right block does not match the upper-left scalar")
    if not m._once(_preserves):
        return Verdict(False, "upper-right block is not self-adjoint")
    return _OK


def _integer(m: BlockMat) -> Verdict:
    # conjugation is trivial on integer matrices, so U's form clause then reads
    # M^T Omega M = Omega
    if not m.mat.is_integer():
        return Verdict(False, "entries are not rational integers")
    return _OK


def _genus2(m: BlockMat) -> Verdict:
    if m.g != 2:
        return Verdict(False, "matrix is not genus 2")
    return _OK


# each group as the clauses that define it, in the order they are tested
_CLAUSES = {
    GroupTag.U: (_preserves,),
    GroupTag.USharp: (_preserves, _even_det),
    GroupTag.UrU: (_lower_left_zero, _preserves),
    GroupTag.UrUSharp: (_lower_left_zero, _preserves, _even_det),
    GroupTag.UrSpZ: (_integer, _lower_left_zero, _preserves),
    GroupTag.Lambda: (_lower_left_zero, _lambda_blocks),
    GroupTag.Delta: (_lower_left_zero, _delta_blocks),
    GroupTag.Genus2Theta: (_genus2, _lower_left_zero, _lambda_blocks),
}


def is_member(m: BlockMat, tag: GroupTag) -> Verdict:
    """Exact membership in the tagged subgroup: the first clause that fails,
    or a positive verdict."""
    try:
        clauses = _CLAUSES[tag]
    except (KeyError, TypeError):
        raise ValueError(f"unknown group tag {tag!r}") from None
    for v in map(m._once, clauses):
        if not v:
            return v
    return _OK


def genus2_theta_project(m: BlockMat):
    """Project a genus-2 Lambda element to (sign, real part), for odd d.

    Scales M by the unique zeta^-k that makes the lower-right entry +-1 and
    returns that sign together with sign * (upper-right entry).  This is a
    homomorphism to Z/2 x (R', +) and kills the scalars zeta^m.
    """
    if m.g != 2:
        raise ValueError("theta projection is defined for genus 2 only")
    if m.d % 2 == 0:
        raise ValueError(
            "theta projection is defined for odd d only (the sign is ambiguous "
            "for even d); use genus2_real_project for the real component"
        )
    r = genus2_real_project(m)  # raises unless m is in Lambda
    return unit_exponent(m.mat[1, 1])[0], r


def genus2_real_project(m: BlockMat) -> CycInt:
    """The R' component of the genus-2 projection, defined for every d.

    Invariant under the even-d ambiguity zeta^k = -zeta^(k + d/2): flipping the
    representative flips both the sign and the upper-right entry.
    """
    if m.g != 2:
        raise ValueError("projection is defined for genus 2 only")
    is_member(m, GroupTag.Lambda).require("matrix is not in Lambda")
    ue = unit_exponent(m.mat[1, 1])
    assert ue is not None
    sign, k = ue
    r = m.mat[0, 1] * zeta_pow(m.d, -k)
    return -r if sign < 0 else r

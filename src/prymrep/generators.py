"""The catalogue of explicit matrices known to lie in the image groups:
elementary transvections, the diagonal map T, the conjugators A_H and A_H',
their conjugates T_H and T_H', lifted-twist transvections, deck scalars, and
the embedding of integer upper-block symplectic matrices.

Every family is the function that gives the entries (p, q, c) of N in its
matrix Id + N, c a coefficient tuple (CycInt.coeffs), the one entry format
from the family to the product (Family.entries).  GenSpec checks the
argument rules that need no (d, g), _entries those that need g before it
calls the entry function, and ringlinalg._rank_update builds Id + N.
matrix_of, each (g, d, ...) constructor (one call of matrix_of) and
wordlang.evaluate, which joins M(Id + N) by adding c times column p of M
into column q, read this route.

Since <x, e_i> = -sgn(i) x[pos(-i)], the map x -> x + c<x, e_i>e_j is the
single entry (pos(j), pos(-i), -sgn(i) c) (_entry).  Wherever the rows and
the columns of N's nonzero entries are disjoint, N^2 = 0 and
(Id + N)^e = Id + eN for every integer e; wordlang.evaluate reads this off
each factor's entries.
T, T_H and T_H' multiply a hyperbolic plane H = <f1, f2> by zeta and fix
its form complement, so N = (zeta - 1)P for the form projection P onto H
(_zeta_on_plane).  Column k of N is the image of e_k less e_k under A_H
and A_H' (_image_entries), the diagonal of the deck scalar zeta^k Id is
zeta^k - 1, and an UrSp literal, checked to lie in urSp(Z), is itself less Id.
With this convention the forward twist transvection x -> x + <x, v>v has
upper-right block -vv* for v in the meridian span, and its inverse has +vv*.

The twist generators G1, G2 and G3 of Delta are single elementary
transvections T_i and T_ij; their equal products of lifted twists (see
delta_g2 and delta_g3) are the tests' independent oracle.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclotomic import CycInt, _from_ints, _ints, _poly_trim, one, zeta_pow
from .predicates import GroupTag, is_member
from .ringlinalg import (BlockMat, RingMatrix, _less_id, _one_zero, _rank_update, _side,
                         basis_position)


def _entry(g, c, i, j):
    """The entry (p, q, c') of x -> x + c <x, e_i> e_j: <x, e_i> is
    -sgn(i) times the coordinate of x at e_-i."""
    return (basis_position(g, j), basis_position(g, -i), (-c if i > 0 else c).coeffs)


def _twist_entries(g, v):
    """The entries of x -> x + <x, v>v for v = sum of a e_i over the pairs
    (i, a) of v, all i > 0: <x, v> = sum of conj(a) <x, e_i>."""
    return tuple(_entry(g, a * b.conj(), i, j) for i, b in v for j, a in v)


def _ti_entries(g, d, i, rprime):
    if not rprime.is_real():
        raise ValueError("Ti requires a real ring element r'")
    return (_entry(g, rprime, i, i),)


def _tij_entries(g, d, i, j, r):
    return (_entry(g, r, i, j), _entry(g, r.conj(), j, i))


def _twist_e_entries(g, d, i):
    return _twist_entries(g, ((i, one(d)),))


def _gamma_ik_entries(g, d, i, k):
    return _twist_entries(g, ((i, one(d) - zeta_pow(d, k)),))


def _gamma_ijk_entries(g, d, i, j, k):
    return _twist_entries(g, ((i, one(d)), (j, -zeta_pow(d, k))))


def _g1_entries(g, d, i):
    return _ti_entries(g, d, i, -one(d))


def _g2_entries(g, d, i, k):
    return _ti_entries(g, d, i, -(zeta_pow(d, k) + zeta_pow(d, -k)))


def _g3_entries(g, d, i, j, k):
    return _tij_entries(g, d, i, j, -zeta_pow(d, k))


def _zeta_on_plane(g, d, i=1, j=None):
    """Multiplication by zeta on the plane H = <f1, f2>, f1 = e_i and
    f2 = e_-i (+ e_j), identity on its form complement: N = (zeta - 1)P;
    T is the plane i = 1.

    <f1, f2> = 1 and f1, f2 are isotropic (|i| != |j|), so the form
    projection onto H is P(x) = <x, f2> f1 - <x, f1> f2.
    """
    c = zeta_pow(d, 1) - one(d)
    entries = [_entry(g, c, -i, i), _entry(g, -c, i, -i)]
    if j is not None:
        entries += [_entry(g, c, j, i), _entry(g, -c, i, j)]
    return entries


def _swap_images(i):
    """The images of the basis vectors that the swap S of <e_1, e_-1> with
    <e_i, e_-i> moves, as _image_entries takes them."""
    return {1: ((1, i),), -1: ((1, -i),), i: ((1, 1),), -i: ((1, -1),)} if i != 1 else {}


def _image_entries(g, d, images):
    """The entries of M - Id for the M that sends e_k to the sum of c e_l
    over the pairs (c, l) of images[k] and fixes the other basis vectors."""
    entries = []
    for k, image in images.items():
        q = basis_position(g, k)
        entries.append((q, q, (-one(d)).coeffs))
        entries += [(basis_position(g, l), q, CycInt.from_int(d, c).coeffs) for c, l in image]
    return entries


def _ah_entries(g, d, i):
    return _image_entries(g, d, _swap_images(i))


def _ahprime_entries(g, d, i, j):
    sj = i * j if abs(j) == 1 else j  # S(e_j) = e_sj and S(e_-j) = e_-sj
    images = _swap_images(i)
    images[-i] = ((1, -1), (-1, sj))
    images[-j] = ((1, -sj), (-1 if j > 0 else 1, 1))
    return _image_entries(g, d, images)


def _zeta_entries(g, d, k):
    c = (zeta_pow(d, k) - one(d)).coeffs
    return [(p, p, c) for p in range(_side(g))]


def _ursp_entries(g, d, polys):
    """The UrSp literal of a grid of integer polynomials, checked to lie in
    urSp(Z), less Id."""
    m = BlockMat(RingMatrix(d, [[CycInt.from_poly(d, p) for p in row] for row in polys]), g)
    is_member(m, GroupTag.UrSpZ).require("matrix is not in urSp_2(g-1)(Z)")
    return _less_id(m.mat.coeffs, _one_zero(d)[0])


def elem_Ti(g: int, d: int, i: int, rprime: CycInt) -> BlockMat:
    """T_i(r'): x -> x + r' <x, e_i> e_i, for real r'."""
    return matrix_of(GenSpec("Ti", (i,), CycInt._coerce(d, rprime)), d, g)


def elem_Tij(g: int, d: int, i: int, j: int, r: CycInt) -> BlockMat:
    """T_{i,j}(r): x -> x + r <x, e_i> e_j + conj(r) <x, e_j> e_i."""
    return matrix_of(GenSpec("Tij", (i, j), CycInt._coerce(d, r)), d, g)


def big_T(g: int, d: int) -> BlockMat:
    """Multiplication by zeta on <e_1, e_-1>, identity elsewhere."""
    return matrix_of(GenSpec("T"), d, g)


def conj_AH(g: int, d: int, i: int) -> BlockMat:
    """The swap of <e_i, e_-i> with <e_1, e_-1>; integer symplectic."""
    return matrix_of(GenSpec("AH", (i,)), d, g)


def conj_AHPrime(g: int, d: int, i: int, j: int) -> BlockMat:
    """The transformation carrying H' = <e_i, e_-i + e_j> to <e_1, e_-1>.

    Start from the swap S of <e_1, e_-1> with <e_i, e_-i> and correct two
    images: e_-i goes to e_-1 - S(e_j) (so that e_-i + e_j lands on e_-1) and
    the dual partner e_-j goes to S(e_-j) - sgn(j) e_1, the sign being forced
    by form preservation.  For j > 0 and for j = 1 this reproduces the
    classical case formulas; for negative j the sign flip is what keeps the
    map symplectic.
    """
    return matrix_of(GenSpec("AHPrime", (i, j)), d, g)


def TH(g: int, d: int, i: int) -> BlockMat:
    """T_H = A_H^-1 T A_H: multiplication by zeta on <e_i, e_-i>."""
    return matrix_of(GenSpec("TH", (i,)), d, g)


def THPrime(g: int, d: int, i: int, j: int) -> BlockMat:
    """T_H' = A_H'^-1 T A_H': multiplication by zeta on <e_i, e_-i + e_j>
    (A_H' is symplectic and carries this plane to <e_1, e_-1>)."""
    return matrix_of(GenSpec("THPrime", (i, j)), d, g)


def twist_E(g: int, d: int, i: int) -> BlockMat:
    """The lifted twist about the i-th meridian: v = e_i."""
    return matrix_of(GenSpec("TwistE", (i,)), d, g)


def gamma_ik(g: int, d: int, i: int, k: int) -> BlockMat:
    """The lifted twist with homology class (1 - zeta^k) e_i."""
    return matrix_of(GenSpec("GammaIK", (i, k)), d, g)


def gamma_ijk(g: int, d: int, i: int, j: int, k: int) -> BlockMat:
    """The lifted twist with homology class e_i - zeta^k e_j."""
    return matrix_of(GenSpec("GammaIJK", (i, j, k)), d, g)


def delta_g1(g: int, d: int, i: int) -> BlockMat:
    """G1(i) = T_i(-1), the inverse twist about the i-th meridian;
    upper-right block E_ii."""
    return matrix_of(GenSpec("G1", (i,)), d, g)


def delta_g2(g: int, d: int, i: int, k: int) -> BlockMat:
    """G2(i, k) = T_i(-(zeta^k + zeta^-k)); upper-right block
    (zeta^k + zeta^-k) E_ii.  Equal to gamma_ik * G1(i)^2, the lift of
    T_gamma(i,k) composed with two inverse twists about E_i."""
    return matrix_of(GenSpec("G2", (i, k)), d, g)


def delta_g3(g: int, d: int, i: int, j: int, k: int) -> BlockMat:
    """G3(i, j, k) = T_{i,j}(-zeta^k); upper-right block
    zeta^k E_ji + zeta^-k E_ij.  Equal to gamma_ijk * G1(i) * G1(j), the
    lift of T_gamma(i,j,k) composed with inverse twists about E_i and E_j."""
    return matrix_of(GenSpec("G3", (i, j, k)), d, g)


def scalar_zeta(g: int, d: int, k: int) -> BlockMat:
    """The deck scalar zeta^k Id."""
    return matrix_of(GenSpec("Zeta", (k,)), d, g)


# ---------------------------------------------------------------------------
# The generator registry: one table of the catalogue families, read by
# GenSpec, matrix_of, the word parser and renderer, and the sweeps.


class Family(namedtuple("Family", "slots takes group entries")):
    """One catalogue family.

    slots: one letter per integer argument, s a nonzero index, p a positive
    index, k a zeta exponent (k slots come last); any two s/p indices differ
    in absolute value.  _check_slots is the one statement of these rules,
    and _instances enumerates what they admit.
    takes: what follows the indices, "" nothing, "real" a real ring scalar,
    "ring" any ring scalar, "matrix" an UrSp matrix literal.
    group: the image group, Lambda or Delta, that the instances with a
    positive first index lie in (the sweeps check the chain above it).
    entries: the family's entry function, which returns the entries
    (p, q, c) of N in its matrix Id + N, c a coefficient tuple; it takes
    (g, d, *indices), then the ring scalar as a CycInt or the matrix literal
    as a grid of integer polynomials (GenSpec._args), and is called only
    through _entries.
    """

    __slots__ = ()


# The order is the order of the random word draws in sweeps.
FAMILIES = {
    "T": Family("", "", GroupTag.Lambda, _zeta_on_plane),
    "Zeta": Family("k", "", GroupTag.Delta, _zeta_entries),
    "Ti": Family("s", "real", GroupTag.Lambda, _ti_entries),
    "AH": Family("p", "", GroupTag.Lambda, _ah_entries),
    "TH": Family("p", "", GroupTag.Lambda, _zeta_on_plane),
    "TwistE": Family("p", "", GroupTag.Lambda, _twist_e_entries),
    "GammaIK": Family("pk", "", GroupTag.Lambda, _gamma_ik_entries),
    "G1": Family("p", "", GroupTag.Delta, _g1_entries),
    "G2": Family("pk", "", GroupTag.Delta, _g2_entries),
    "Tij": Family("ss", "ring", GroupTag.Lambda, _tij_entries),
    "AHPrime": Family("ps", "", GroupTag.Lambda, _ahprime_entries),
    "THPrime": Family("ps", "", GroupTag.Lambda, _zeta_on_plane),
    "GammaIJK": Family("ppk", "", GroupTag.Lambda, _gamma_ijk_entries),
    "G3": Family("ppk", "", GroupTag.Delta, _g3_entries),
    "UrSp": Family("", "matrix", GroupTag.Lambda, _ursp_entries),
}


def _check_slots(name, indices):
    """The index rules of family `name` that need no (d, g), stated once:
    every route to a matrix, a word, matrix_of or a constructor, passes
    them through GenSpec."""
    free = []
    for slot, i in zip(FAMILIES[name].slots, indices):
        if slot == "s" and i == 0:
            raise ValueError(f"{name} index must be nonzero")
        if slot == "p" and i <= 0:
            raise ValueError(f"{name} requires a positive index")
        if slot != "k":
            free.append(abs(i))
    if len(set(free)) < len(free):
        raise ValueError(f"{name} requires |i| != |j|")


def _entries(name, g, d, *args):
    """The entries of N in the matrix Id + N of family `name`, args those of
    a checked GenSpec at modulus d (GenSpec._args): the rules that need g,
    the genus rule and the range rule of basis_position for every index but
    a zeta exponent, then the entry function."""
    _side(g)  # the genus rule, before any index is read against g
    fam = FAMILIES[name]
    for slot, i in zip(fam.slots, args):
        if slot != "k":
            basis_position(g, i)
    return fam.entries(g, d, *args)


def _slot_values(slot, d, g, i=None):
    """The values of an index slot in a positive-index instance: a zeta
    exponent in 0..d-1, a first index in 1..g-1, and a later index of the
    slot's kind (signed for s, positive for p) of another |value| than i."""
    if slot == "k":
        return range(d)
    if i is None:
        return range(1, g)
    signs = (1, -1) if slot == "s" else (1,)
    return [s * m for m in range(1, g) for s in signs if m != i]


def _instances(slots, d, g):
    """Every index tuple of the positive-index instances of a family."""
    out = [()]
    for slot in slots:
        out = [ix + (v,) for ix in out
               for v in _slot_values(slot, d, g, ix[0] if ix else None)]
    return out


def _random_instance(rng, slots, d, g):
    """A random positive-index instance, drawn as i, k, then each later s/p
    index from _slot_values.  i and k are drawn for every family: this order
    fixes the words that a seed of sweeps.random_lambda_word gives."""
    i = rng.randint(1, g - 1)
    k = rng.randrange(d)
    free = slots.replace("k", "")
    ij = iter([i] + [rng.choice(_slot_values(s, d, g, i)) for s in free[1:]])
    return tuple(k if s == "k" else next(ij) for s in slots)


def _canon(poly):
    return _poly_trim(_ints(poly, "polynomial coefficients"))


class GenSpec(namedtuple("GenSpec", "name indices scalar matrix")):
    """One named generator with its arguments; evaluation happens later.

    Ring arguments are stored as raw integer polynomials, constant term first
    (scalar, or the grid of an UrSp literal in matrix), so a parsed word stays
    independent of the ambient modulus until evaluation.  __new__ checks
    every rule that needs no d or g, from the family's slots.
    """

    __slots__ = ()

    def __new__(cls, name, indices=(), scalar=None, matrix=None):
        fam = FAMILIES.get(name)
        if fam is None:
            raise ValueError(f"unknown generator name {name!r}")
        indices = _ints(indices, f"{name} indices")
        if len(indices) != len(fam.slots):
            raise ValueError(
                f"{name} takes {len(fam.slots)} integer argument(s), got {len(indices)}"
            )
        for what, wanted, arg in (("ring", fam.takes in ("real", "ring"), scalar),
                                  ("matrix", fam.takes == "matrix", matrix)):
            if wanted != (arg is not None):
                raise ValueError(
                    f"{name} {'requires' if wanted else 'does not take'} a {what} argument"
                )
        if scalar is not None:
            scalar = _canon(scalar)
        if matrix is not None:
            matrix = tuple(tuple(map(_canon, row)) for row in matrix)
        _check_slots(name, indices)
        return tuple.__new__(cls, (name, indices, scalar, matrix))

    def _args(self, d):
        """The arguments after (g, d) of the family's entry function at
        modulus d."""
        if self.scalar is not None:  # checked by _canon: folded with no second walk
            return self.indices + (_from_ints(d, self.scalar),)
        if self.matrix is not None:
            return (self.matrix,)
        return self.indices


def matrix_of(spec: GenSpec, d: int, g: int) -> BlockMat:
    """Evaluate a generator spec to its matrix for the ambient (d, g)."""
    return BlockMat(_rank_update(d, _side(g), _entries(spec.name, g, d, *spec._args(d))), g)

"""The catalogue of explicit matrices known to lie in the image groups:
elementary transvections, the diagonal map T, the conjugators A_H and A_H',
their conjugates T_H and T_H', lifted-twist transvections, deck scalars, and
the embedding of integer upper-block symplectic matrices.

The transvection-type maps x -> x + c<x, v>u are built directly as rank
updates Id + N, with N given by its entries (p, q, c); the product M(Id + N)
adds c times column p of M into column q.  Since
<x, e_i> = -sgn(i) x[pos(-i)], the map x -> x + c<x, e_i>e_j is the single
entry (pos(j), pos(-i), -sgn(i) c) (_entry).  T_i, T_ij, G1, G2, G3 and the
lifted twists TwistE, GammaIK and GammaIJK (vectors in the meridian span
<e_1..e_(g-1)>) have only entries (pos(a), pos(-b)) with a and b from one
set of indices of distinct absolute values, so the rows and the columns
that N occupies are disjoint: N^2 = 0, and (Id + N)^e = Id + eN for every
integer e.  Their Family names these entries (nilpotent), and
wordlang.evaluate applies them as column operations.  The generic
transvection of any v takes N = +-v w^T, where w is the form row of v:
<x, v> = w . x with w[i] = conj(v[n+i]) and w[n+i] = -conj(v[i]),
n = g - 1 (_form_row, which agrees with form_eval); there N^2 = +-<v, v> N,
which need not vanish.  T, T_H and T_H' multiply a hyperbolic plane
H = <f1, f2> by zeta and fix its form complement, so they are the rank
updates Id + (zeta - 1)P of the form projection P onto H (_zeta_on_plane).
The remaining maps are assembled column by column from their images of the
basis vectors.  With this convention the forward
twist transvection x -> x + <x, v>v has upper-right block -vv* for v in the
meridian span, and its inverse has +vv*.

The twist generators G1, G2 and G3 of Delta are single elementary
transvections T_i and T_ij; their equal products of lifted twists (see
delta_g2 and delta_g3) are the tests' independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycInt, one, zero, zeta_pow
from .predicates import GroupTag, is_member
from .ringlinalg import (
    BlockMat,
    RingMatrix,
    basis_position,
    basis_vector,
    signed_indices,
)


def _check_index(g, i):
    if i == 0 or abs(i) > g - 1:
        raise ValueError(f"index {i} out of range for genus {g}")


def _from_images(d, g, images):
    """BlockMat whose column for basis vector e_i is images[i]."""
    cols = [images[i] for i in signed_indices(g)]
    return BlockMat(RingMatrix.from_columns(d, cols), g)


def _form_row(g, v):
    """The row w with <x, v> = w . x for every x."""
    n = g - 1
    return [c.conj() for c in v[n:]] + [-c.conj() for c in v[:n]]


def _rank_update(d, g, entries):
    """Id + N, where N has the entry c at (p, q) for each (p, q, c)."""
    size = 2 * (g - 1)
    o, z = one(d), zero(d)
    rows = [[o if r == s else z for s in range(size)] for r in range(size)]
    for p, q, c in entries:
        rows[p][q] = rows[p][q] + c
    return BlockMat(RingMatrix._make(d, tuple(map(tuple, rows))), g)


def _entry(g, c, i, j):
    """The entry (p, q, c') of x -> x + c <x, e_i> e_j: <x, e_i> is
    -sgn(i) times the coordinate of x at e_-i."""
    return (basis_position(g, j), basis_position(g, -i), -c if i > 0 else c)


def _twist_entries(g, v):
    """The entries of x -> x + <x, v>v for v = sum of a e_i over the pairs
    (i, a) of v, all i > 0: <x, v> = sum of conj(a) <x, e_i>."""
    return tuple(_entry(g, a * b.conj(), i, j) for i, b in v for j, a in v)


def _vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def _vec_scale(c, v):
    return [a if a.is_zero() else c * a for a in v]


def _ti_entries(g, d, i, rprime):
    _check_index(g, i)
    if not isinstance(rprime, CycInt):
        rprime = CycInt.from_int(d, rprime)
    if not rprime.is_real():
        raise ValueError("Ti requires a real ring element r'")
    return (_entry(g, rprime, i, i),)


def _tij_entries(g, d, i, j, r):
    _check_index(g, i)
    _check_index(g, j)
    if not isinstance(r, CycInt):
        r = CycInt.from_int(d, r)
    return (_entry(g, r, i, j), _entry(g, r.conj(), j, i))


def _twist_e_entries(g, d, i):
    _check_index(g, i)
    return _twist_entries(g, ((i, one(d)),))


def _gamma_ik_entries(g, d, i, k):
    _check_index(g, i)
    return _twist_entries(g, ((i, one(d) - zeta_pow(d, k)),))


def _gamma_ijk_entries(g, d, i, j, k):
    _check_index(g, i)
    _check_index(g, j)
    return _twist_entries(g, ((i, one(d)), (j, -zeta_pow(d, k))))


def _g1_entries(g, d, i):
    return _ti_entries(g, d, i, -1)


def _g2_entries(g, d, i, k):
    return _ti_entries(g, d, i, -(zeta_pow(d, k) + zeta_pow(d, -k)))


def _g3_entries(g, d, i, j, k):
    return _tij_entries(g, d, i, j, -zeta_pow(d, k))


def _column_op(name, g, d, *args):
    """The matrix Id + N of a column-op family, N given by the entry function
    of its row, after the family's index rules."""
    fam = FAMILIES[name]
    _check_slots(name, args[:len(fam.slots)])
    return _rank_update(d, g, fam.nilpotent(g, d, *args))


def elem_Ti(g: int, d: int, i: int, rprime: CycInt) -> BlockMat:
    """T_i(r'): x -> x + r' <x, e_i> e_i, for real r'."""
    return _column_op("Ti", g, d, i, rprime)


def elem_Tij(g: int, d: int, i: int, j: int, r: CycInt) -> BlockMat:
    """T_{i,j}(r): x -> x + r <x, e_i> e_j + conj(r) <x, e_j> e_i."""
    return _column_op("Tij", g, d, i, j, r)


def _zeta_on_plane(g, d, i, j=None):
    """Multiplication by zeta on the plane H = <f1, f2>, f1 = e_i and
    f2 = e_-i (+ e_j), identity on its form complement: Id + (zeta - 1)P.

    <f1, f2> = 1 and f1, f2 are isotropic (|i| != |j|), so the form
    projection onto H is P(x) = <x, f2> f1 - <x, f1> f2.
    """
    c = zeta_pow(d, 1) - one(d)
    entries = [_entry(g, c, -i, i), _entry(g, -c, i, -i)]
    if j is not None:
        entries += [_entry(g, c, j, i), _entry(g, -c, i, j)]
    return _rank_update(d, g, entries)


def big_T(g: int, d: int) -> BlockMat:
    """Multiplication by zeta on <e_1, e_-1>, identity elsewhere."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    return _zeta_on_plane(g, d, 1)


def conj_AH(g: int, d: int, i: int) -> BlockMat:
    """The swap of <e_i, e_-i> with <e_1, e_-1>; integer symplectic."""
    _check_slots("AH", (i,))
    _check_index(g, i)
    images = {}
    for k in signed_indices(g):
        if abs(k) == i:
            images[k] = basis_vector(d, g, (1 if k > 0 else -1))
        elif abs(k) == 1:
            images[k] = basis_vector(d, g, (i if k > 0 else -i))
        else:
            images[k] = basis_vector(d, g, k)
    return _from_images(d, g, images)


def conj_AHPrime(g: int, d: int, i: int, j: int) -> BlockMat:
    """The transformation carrying H' = <e_i, e_-i + e_j> to <e_1, e_-1>.

    Start from the swap S of <e_1, e_-1> with <e_i, e_-i> and correct two
    images: e_-i goes to e_-1 - S(e_j) (so that e_-i + e_j lands on e_-1) and
    the dual partner e_-j goes to S(e_-j) - sgn(j) e_1, the sign being forced
    by form preservation.  For j > 0 and for j = 1 this reproduces the
    classical case formulas; for negative j the sign flip is what keeps the
    map symplectic.
    """
    _check_slots("AHPrime", (i, j))
    _check_index(g, i)
    _check_index(g, j)

    def swap(k):
        if abs(k) == 1:
            return i if k > 0 else -i
        if abs(k) == i:
            return 1 if k > 0 else -1
        return k

    def e(k):
        return basis_vector(d, g, k)

    images = {k: e(swap(k)) for k in signed_indices(g)}
    images[-i] = _vec_add(e(-1), _vec_scale(-one(d), e(swap(j))))
    sgn = one(d) if j > 0 else -one(d)
    images[-j] = _vec_add(e(swap(-j)), _vec_scale(-sgn, e(1)))
    return _from_images(d, g, images)


def TH(g: int, d: int, i: int) -> BlockMat:
    """T_H = A_H^-1 T A_H: multiplication by zeta on <e_i, e_-i>."""
    _check_slots("TH", (i,))
    _check_index(g, i)
    return _zeta_on_plane(g, d, i)


def THPrime(g: int, d: int, i: int, j: int) -> BlockMat:
    """T_H' = A_H'^-1 T A_H': multiplication by zeta on <e_i, e_-i + e_j>
    (A_H' is symplectic and carries this plane to <e_1, e_-1>)."""
    _check_slots("THPrime", (i, j))
    _check_index(g, i)
    _check_index(g, j)
    return _zeta_on_plane(g, d, i, j)


def transvection(g: int, d: int, v, direction: int = 1) -> BlockMat:
    """x -> x + <x, v>v (direction +1) or x -> x - <x, v>v (direction -1),
    for any vector v of length 2(g-1)."""
    if len(v) != 2 * (g - 1):
        raise ValueError("vector length must be 2(g-1)")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    u = v if direction > 0 else [-c for c in v]
    w = _form_row(g, v)
    return _rank_update(d, g, [(p, q, a * b) for p, a in enumerate(u) if not a.is_zero()
                               for q, b in enumerate(w) if not b.is_zero()])


def twist_transvection(g: int, d: int, v, direction: int = 1) -> BlockMat:
    """The lifted-twist transvection for v in the meridian span <e_1..e_(g-1)>.

    Accepts v of length g-1 (coordinates on e_1..e_(g-1)) or of full length
    2(g-1) with vanishing e_- part.  The forward map has upper-right block
    -vv*; direction=-1 gives the inverse twist with block +vv*.
    """
    n = g - 1
    v = list(v)
    if len(v) == n:
        v = v + [zero(d)] * n
    if len(v) != 2 * n:
        raise ValueError("vector length must be g-1 or 2(g-1)")
    if any(not c.is_zero() for c in v[n:]):
        raise ValueError("twist vector must be supported on e_1..e_(g-1)")
    return transvection(g, d, v, direction)


def twist_E(g: int, d: int, i: int) -> BlockMat:
    """The lifted twist about the i-th meridian: v = e_i."""
    return _column_op("TwistE", g, d, i)


def gamma_ik(g: int, d: int, i: int, k: int) -> BlockMat:
    """The lifted twist with homology class (1 - zeta^k) e_i."""
    return _column_op("GammaIK", g, d, i, k)


def gamma_ijk(g: int, d: int, i: int, j: int, k: int) -> BlockMat:
    """The lifted twist with homology class e_i - zeta^k e_j."""
    return _column_op("GammaIJK", g, d, i, j, k)


def delta_g1(g: int, d: int, i: int) -> BlockMat:
    """G1(i) = T_i(-1), the inverse twist about the i-th meridian;
    upper-right block E_ii."""
    return _column_op("G1", g, d, i)


def delta_g2(g: int, d: int, i: int, k: int) -> BlockMat:
    """G2(i, k) = T_i(-(zeta^k + zeta^-k)); upper-right block
    (zeta^k + zeta^-k) E_ii.  Equal to gamma_ik * G1(i)^2, the lift of
    T_gamma(i,k) composed with two inverse twists about E_i."""
    return _column_op("G2", g, d, i, k)


def delta_g3(g: int, d: int, i: int, j: int, k: int) -> BlockMat:
    """G3(i, j, k) = T_{i,j}(-zeta^k); upper-right block
    zeta^k E_ji + zeta^-k E_ij.  Equal to gamma_ijk * G1(i) * G1(j), the
    lift of T_gamma(i,j,k) composed with inverse twists about E_i and E_j."""
    return _column_op("G3", g, d, i, j, k)


def scalar_zeta(g: int, d: int, k: int) -> BlockMat:
    """The deck scalar zeta^k Id."""
    return BlockMat(RingMatrix.identity(d, 2 * (g - 1)) * zeta_pow(d, k), g)


def embed_ursp(m: BlockMat) -> BlockMat:
    """Check an integer matrix against the urSp predicate and admit it."""
    v = is_member(m, GroupTag.UrSpZ)
    if not v:
        raise ValueError(f"matrix is not in urSp_2(g-1)(Z): {v.reason}")
    return m


def _ursp_literal(g, d, polys):
    """The UrSp matrix of a grid of integer polynomials, checked by embed_ursp."""
    n = 2 * (g - 1)
    if len(polys) != n or any(len(r) != n for r in polys):
        raise ValueError(f"UrSp literal must be {n}x{n} for genus {g}")
    mat = RingMatrix(d, [[CycInt.from_poly(d, p) for p in row] for row in polys])
    return embed_ursp(BlockMat(mat, g))


# ---------------------------------------------------------------------------
# The generator registry: one table of the catalogue families, read by
# GenSpec, matrix_of, the word parser and renderer, and the sweeps.


@dataclass(frozen=True)
class Family:
    """One catalogue family.

    slots: one letter per integer argument, s a nonzero index, p a positive
    index, k a zeta exponent (k slots come last); any two s/p indices differ
    in absolute value.  _check_slots is the one statement of these rules,
    and _instances enumerates what they admit.
    takes: what follows the indices, "" nothing, "real" a real ring scalar,
    "ring" any ring scalar, "matrix" an UrSp matrix literal.
    group: the image group, Lambda or Delta, that the instances with a
    positive first index lie in (the sweeps check the chain above it).
    build: the name of the family's constructor in this module.
    nilpotent: None, or the entry function of a family of transvections
    Id + N with N^2 = 0, which returns the entries (p, q, c) of N; the
    constructor is then the rank update of those entries, and
    wordlang.evaluate applies them as column operations instead.

    The constructor and the entry function take (g, d, *indices), then the
    ring scalar as a CycInt or the matrix literal as a grid of integer
    polynomials (GenSpec._args).  Both check |i| <= g - 1 and the rules that
    need (d, g); the constructor also checks the slots.
    """

    slots: str
    takes: str
    group: GroupTag
    build: str
    nilpotent: object = None


# matrix_of looks the constructor up in the module globals at each call, so
# code that rebinds those names (a tracer, a test double) sees every build.
# The order is the order of the random word draws in sweeps.
FAMILIES = {
    "T": Family("", "", GroupTag.Lambda, "big_T"),
    "Zeta": Family("k", "", GroupTag.Delta, "scalar_zeta"),
    "Ti": Family("s", "real", GroupTag.Lambda, "elem_Ti", _ti_entries),
    "AH": Family("p", "", GroupTag.Lambda, "conj_AH"),
    "TH": Family("p", "", GroupTag.Lambda, "TH"),
    "TwistE": Family("p", "", GroupTag.Lambda, "twist_E", _twist_e_entries),
    "GammaIK": Family("pk", "", GroupTag.Lambda, "gamma_ik", _gamma_ik_entries),
    "G1": Family("p", "", GroupTag.Delta, "delta_g1", _g1_entries),
    "G2": Family("pk", "", GroupTag.Delta, "delta_g2", _g2_entries),
    "Tij": Family("ss", "ring", GroupTag.Lambda, "elem_Tij", _tij_entries),
    "AHPrime": Family("ps", "", GroupTag.Lambda, "conj_AHPrime"),
    "THPrime": Family("ps", "", GroupTag.Lambda, "THPrime"),
    "GammaIJK": Family("ppk", "", GroupTag.Lambda, "gamma_ijk", _gamma_ijk_entries),
    "G3": Family("ppk", "", GroupTag.Delta, "delta_g3", _g3_entries),
    "UrSp": Family("", "matrix", GroupTag.Lambda, "_ursp_literal"),
}


def _check_slots(name, indices):
    """The index rules of family `name` that need no (d, g), with one message
    each whether the indices come from a word or a direct call."""
    slots = FAMILIES[name].slots
    for slot, i in zip(slots, indices):
        if slot == "s" and i == 0:
            raise ValueError(f"{name} index must be nonzero")
        if slot == "p" and i <= 0:
            raise ValueError(f"{name} requires a positive index")
    free = [abs(i) for slot, i in zip(slots, indices) if slot != "k"]
    if len(set(free)) < len(free):
        raise ValueError(f"{name} requires |i| != |j|")


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
    poly = tuple(map(int, poly))
    n = len(poly)
    while n > 1 and poly[n - 1] == 0:
        n -= 1
    return poly[:n] if poly else (0,)


@dataclass(frozen=True)
class GenSpec:
    """One named generator with its arguments; evaluation happens later.

    Ring arguments are stored as raw integer polynomials, so a parsed word
    stays independent of the ambient modulus until evaluation.  Every rule
    that needs no d or g is checked here, from the family's slots.
    """

    name: str
    indices: tuple = ()
    scalar: tuple = None  # integer polynomial, constant term first
    matrix: tuple = None  # grid of integer polynomials (UrSp literal)

    def __post_init__(self):
        fam = FAMILIES.get(self.name)
        if fam is None:
            raise ValueError(f"unknown generator name {self.name!r}")
        name, idx = self.name, tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) != len(fam.slots):
            raise ValueError(
                f"{name} takes {len(fam.slots)} integer argument(s), got {len(idx)}"
            )
        for what, wanted, arg in (("ring", fam.takes in ("real", "ring"), self.scalar),
                                  ("matrix", fam.takes == "matrix", self.matrix)):
            if wanted != (arg is not None):
                raise ValueError(
                    f"{name} {'requires' if wanted else 'does not take'} a {what} argument"
                )
        if self.scalar is not None:
            object.__setattr__(self, "scalar", _canon(self.scalar))
        if self.matrix is not None:
            object.__setattr__(
                self, "matrix", tuple(tuple(map(_canon, row)) for row in self.matrix)
            )
        _check_slots(name, idx)

    def _args(self, d):
        """The arguments after (g, d) of the family's constructor and entry
        function at modulus d."""
        if self.scalar is not None:
            return self.indices + (CycInt.from_poly(d, self.scalar),)
        if self.matrix is not None:
            return (self.matrix,)
        return self.indices


def matrix_of(spec: GenSpec, d: int, g: int) -> BlockMat:
    """Evaluate a generator spec to its matrix for the ambient (d, g)."""
    return globals()[FAMILIES[spec.name].build](g, d, *spec._args(d))

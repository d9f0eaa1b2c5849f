"""Self-test sweeps: the algebraic identities, soundness checks and
round-trips that certify the catalogue, the decomposition routines and the
dual lower-right-block oracle.  Shared between the CLI `selftest` command and
the acceptance test suite; every check is exact, failures carry a witness.

Each sweep is a lazy generator of cases handed to one runner, `_run`.  A
case is a pair (where, problem): `where` names the cell and the case, such
as "d=5 g=3 i=1 j=-2 k=4", and `problem` is None for a pass or the first
violated clause as text.  The runner counts every case it draws, stops at
the first problem, and is the only place a SweepReport is built, with the
detail "<problem> at <where>".  Inputs are drawn from a seeded RNG inside
the generators; no check draws from it, so stopping early or evaluating
lazily never changes which inputs a case sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .cyclotomic import (
    CycInt,
    euler_phi,
    eval_real_basis,
    one,
    solve_real_basis,
    unit_exponent,
    zeta_pow,
)
from .decompose import decompose_delta, reduce_lambda
from .foxcover import deck_conjugation, eta_chain, eta_fox, random_member
from .generators import FAMILIES, GenSpec, _instances, _random_instance, matrix_of
from .predicates import GroupTag, genus2_real_project, genus2_theta_project, is_member
from .ringlinalg import BlockMat, RingMatrix, _side, preserves_form
from .wordlang import Word, evaluate, parse


@dataclass
class SweepReport:
    name: str
    ok: bool
    checked: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name}: {self.checked} checks{extra}"


def _run(name, cases) -> SweepReport:
    """Count the (where, problem) cases until the first problem."""
    checked = 0
    for where, problem in cases:
        checked += 1
        if problem is not None:
            return SweepReport(name, False, checked, f"{problem} at {where}")
    return SweepReport(name, True, checked)


def identity_sweep(d_values, g_values) -> SweepReport:
    """T_{i,j}(1 - zeta^k) = T_H^-k T_H'^k over all admissible (i, j, k)."""
    def cases():
        for d, g in product(d_values, g_values):
            for i, j in _instances("ss", d, g):
                th_inv = matrix_of(GenSpec("TH", (i,)), d, g).form_inverse()
                thp = matrix_of(GenSpec("THPrime", (i, j)), d, g)
                acc_m = BlockMat.identity(d, g)
                acc_p = BlockMat.identity(d, g)
                for k in range(1, d):
                    acc_m = acc_m * th_inv
                    acc_p = acc_p * thp
                    r = one(d) - zeta_pow(d, k)
                    lhs = matrix_of(GenSpec("Tij", (i, j), r.coeffs), d, g)
                    yield (f"d={d} g={g} i={i} j={j} k={k}",
                           None if lhs == acc_m * acc_p else "mismatch")
    return _run("identity-sweep", cases())


def commutator_sweep(d_values, g_values) -> SweepReport:
    """[T_{i,-j}(zeta^k), T_{i,j}(1)] = T_i(zeta^k + zeta^-k)^sgn(j).

    The commutator is X Y X^-1 Y^-1.  For j > 0 this is the identity as
    displayed in the source material; for j < 0 the same computation lands on
    the inverse transvection, so the sweep pins that sign exactly rather than
    accepting either.
    """
    def cases():
        for d, g in product(d_values, g_values):
            for i, j in _instances("ss", d, g):
                b = matrix_of(GenSpec("Tij", (i, j), (1,)), d, g)
                b_inv = b.form_inverse()
                for k in range(1, d):
                    a = matrix_of(GenSpec("Tij", (i, -j), zeta_pow(d, k).coeffs), d, g)
                    lhs = a * b * a.form_inverse() * b_inv
                    r = zeta_pow(d, k) + zeta_pow(d, -k)
                    rhs = matrix_of(GenSpec("Ti", (i,), (r if j > 0 else -r).coeffs), d, g)
                    yield (f"d={d} g={g} i={i} j={j} k={k}",
                           None if lhs == rhs else "mismatch")
    return _run("commutator-sweep", cases())


def _sample_scalars(rng, d, takes):
    """Sample scalar arguments, as coefficient tuples, for a family that
    takes a "real" or a "ring" scalar; [None] for one that takes none."""
    if not takes:
        return [None]
    o, z = one(d), zeta_pow(d, 1)
    a = CycInt(d, [rng.randint(-3, 3) for _ in range(euler_phi(d))])
    sample = [o, z + z.conj(), a + a.conj()] if takes == "real" else [o, z, o - z, a]
    return [r.coeffs for r in sample]


_CHAIN = (GroupTag.Delta, GroupTag.Lambda, GroupTag.UrUSharp, GroupTag.UrU,
          GroupTag.U)


def _soundness_problem(m, name, smallest):
    """The first soundness clause the catalogue matrix m of family `name`
    violates; smallest is the group its instance must lie in, or None."""
    if not preserves_form(m):
        return "form broken"
    if unit_exponent(m.det()) is None:
        return "det not +-zeta^k"
    if name in ("AH", "AHPrime") and not is_member(m, GroupTag.UrSpZ):
        return "urSp(Z) fails"
    if smallest is not None:
        for tag in _CHAIN[_CHAIN.index(smallest):]:
            v = is_member(m, tag)
            if not v:
                return f"{tag.value} fails: {v.reason}"
    return None


def soundness_sweep(d_values, g_values, seed=0) -> SweepReport:
    """Catalogue soundness over every family of FAMILIES but UrSp: form
    preservation and a unit determinant everywhere, the family's group for
    each positive-index instance and the subgroup chain
    Delta <= Lambda <= urU# <= urU <= U upward from it, urSp(Z) for the
    integer conjugators AH and AH', and for T_i(r') also the negative index,
    which preserves the form but leaves Lambda."""
    rng = random.Random(seed)

    def cases():
        for d, g in product(d_values, g_values):
            for name, fam in FAMILIES.items():
                if fam.takes == "matrix":
                    continue
                for ix in _instances(fam.slots, d, g):
                    for scalar in _sample_scalars(rng, d, fam.takes):
                        specs = [(GenSpec(name, ix, scalar), fam.group)]
                        if name == "Ti":
                            specs.append((GenSpec(name, (-ix[0],), scalar), None))
                        for spec, smallest in specs:
                            m = matrix_of(spec, d, g)
                            yield (f"d={d} g={g} {Word(((spec, 1),)).render()}",
                                   _soundness_problem(m, name, smallest))
    return _run("generator-soundness", cases())


def random_self_adjoint(rng, d, n, lo=-5, hi=5) -> RingMatrix:
    phi = euler_phi(d)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        a = CycInt(d, [rng.randint(lo, hi) for _ in range(phi)])
        rows[i][i] = a + a.conj()
        for j in range(i + 1, n):
            b = CycInt(d, [rng.randint(lo, hi) for _ in range(phi)])
            rows[i][j] = b
            rows[j][i] = b.conj()
    return RingMatrix(d, rows)


def _delta_problem(b, d, g):
    """The first way decompose_delta fails on B: a non-Delta generator in
    its word, or a word that does not evaluate to [[Id, B], [0, Id]]."""
    word = decompose_delta(b, d, g)
    for spec, _ in word.factors:
        if spec.name not in ("G1", "G2", "G3"):
            return f"unexpected generator {spec.name} emitted"
    ident = RingMatrix.identity(d, g - 1)
    want = BlockMat.from_blocks(g, ident, b, RingMatrix.zeros(d, g - 1, g - 1), ident)
    return None if evaluate(word, d, g) == want else "round trip failed"


def delta_roundtrip_sweep(d_values, g_values, count, seed=0) -> SweepReport:
    """decompose_delta followed by evaluation returns [[Id, B], [0, Id]]
    exactly, and only Delta-member generators are emitted."""
    rng = random.Random(seed)

    def cases():
        for d, g in product(d_values, g_values):
            for _ in range(count):
                b = random_self_adjoint(rng, d, g - 1)
                yield f"d={d} g={g} B={b!r}", _delta_problem(b, d, g)
    return _run("delta-roundtrip", cases())


def random_lambda_word(rng, d, g, max_len) -> Word:
    """A random word over the families of FAMILIES that land in Lambda (all
    but UrSp) and whose indices fit genus g.  Each factor draws its name, i,
    k, then j if the family has a second index and a scalar if it takes one,
    and its exponent from +-1, +-2."""
    _side(g)  # the genus rule, before anything is drawn from rng
    names = [nm for nm, fam in FAMILIES.items()
             if fam.takes != "matrix" and _instances(fam.slots, d, g)]
    factors = []
    for _ in range(rng.randint(0, max_len)):
        name = rng.choice(names)
        fam = FAMILIES[name]
        ix = _random_instance(rng, fam.slots, d, g)
        scalar = rng.choice(_sample_scalars(rng, d, fam.takes)) if fam.takes else None
        factors.append((GenSpec(name, ix, scalar), rng.choice((-2, -1, 1, 2))))
    return Word(tuple(factors))


def _lambda_problem(m, wd):
    """The first way reduce_lambda fails on M = (witness word wd) times a
    unipotent: the refusal it raises, or a reduced word that does not
    evaluate to M."""
    try:
        word = reduce_lambda(m, wd)
    except ValueError as exc:
        return str(exc)
    return None if evaluate(word, m.d, m.g) == m else "round trip failed"


def lambda_roundtrip_sweep(d_values, g_values, per_cell, seed=0,
                           max_len=6) -> SweepReport:
    """reduce_lambda round trip on witness-word times unipotent products."""
    rng = random.Random(seed)

    def cases():
        for d, g in product(d_values, g_values):
            n = g - 1
            for _ in range(per_cell):
                wd = random_lambda_word(rng, d, g, max_len)
                f0 = random_self_adjoint(rng, d, n, -3, 3)
                unip = BlockMat.from_blocks(
                    g, RingMatrix.identity(d, n), f0,
                    RingMatrix.zeros(d, n, n), RingMatrix.identity(d, n),
                )
                yield (f"d={d} g={g} word={wd.render()!r}",
                       _lambda_problem(evaluate(wd, d, g) * unip, wd))
    return _run("lambda-roundtrip", cases())


def oracle_sweep(d_values, g_values, per_cell, pairs_per_cell, seed=0,
                 max_moves=8) -> SweepReport:
    """Dual-route eta on random covering-preserving automorphisms: the
    chain-level and Fox-calculus matrices agree, determinants are +-zeta^k,
    and eta is multiplicative."""
    rng = random.Random(seed)

    def cases():
        for d, g in product(d_values, g_values):
            for _ in range(per_cell):
                phi = random_member(rng, g, d, max_moves)
                mc = eta_chain(phi, d, g)
                problem = None
                if mc != eta_fox(phi, d, g):
                    problem = "routes disagree"
                elif unit_exponent(mc.det()) is None:
                    problem = f"det eta not +-zeta^k: {mc.det()!r}"
                yield f"d={d} g={g} phi={phi!r}", problem
            for n in range(pairs_per_cell):
                a = random_member(rng, g, d, max_moves)
                b = random_member(rng, g, d, max_moves)
                ok = eta_chain(a.compose(b), d, g) == eta_chain(a, d, g) * eta_chain(b, d, g)
                yield f"d={d} g={g} pair {n}", None if ok else "eta not multiplicative"
    return _run("eta-dual-oracle", cases())


def deck_scalar_sweep(d_values, g_values) -> SweepReport:
    """Conjugation by x_g maps to zeta Id under both eta routes."""
    def cases():
        for d, g in product(d_values, g_values):
            deck = deck_conjugation(g)
            want = RingMatrix.identity(d, g - 1) * zeta_pow(d, 1)
            ok = eta_chain(deck, d, g) == want and eta_fox(deck, d, g) == want
            yield f"d={d} g={g}", None if ok else "eta of the deck conjugation is not zeta Id"
    return _run("deck-scalar", cases())


def real_basis_sweep(d_values, count, seed=0) -> SweepReport:
    """Random real elements, some built with redundant indices
    k >= phi(d)/2, solve to coordinates on the basis
    {1} u {zeta^k + zeta^-k : 0 < k < phi(d)/2} with exact reconstruction."""
    rng = random.Random(seed)

    def cases():
        for d, idx in product(d_values, range(count)):
            a = CycInt(d, [rng.randint(-9, 9) for _ in range(euler_phi(d))])
            if idx % 3 == 0:
                r = a + a.conj()
            elif idx % 3 == 1:
                r = a * a.conj()
            else:
                n0 = rng.randint(-9, 9)
                nk = [rng.randint(-9, 9) for _ in range(d - 1)]
                r = eval_real_basis(d, n0, nk)
            ok = eval_real_basis(d, *solve_real_basis(r)) == r
            yield f"d={d} r={r!r}", None if ok else "reconstruction failed"
    return _run("real-basis", cases())


def _genus2_problem(m):
    """The first clause of the genus-2 shape zeta^k (+-1, r'; 0, +-1), r'
    real, that the Lambda candidate m violates."""
    v = is_member(m, GroupTag.Lambda)
    if not v:
        return f"word not in Lambda: {v.reason}"
    dd = m.mat[1, 1]
    ue = unit_exponent(dd)
    if ue is None or m.mat[0, 0] != dd or not m.mat[1, 0].is_zero():
        return f"shape violated: {m!r}"
    r = genus2_real_project(m)
    if not r.is_real():
        return "projection not real"
    s, k = ue
    rebuilt = BlockMat(RingMatrix(m.d, [[s, s * r], [0, s]]), 2) * zeta_pow(m.d, k)
    if rebuilt != m:
        return "reconstruction failed"
    return None


def genus2_sweep(d_values, count, theta_pairs, seed=0) -> SweepReport:
    """Random genus-2 catalogue words have the zeta^k (+-1, r'; 0, +-1) shape;
    for odd d the theta projection is a homomorphism."""
    rng = random.Random(seed)
    ds = list(d_values)
    odd_ds = [d for d in ds if d % 2 == 1]

    def cases():
        for idx in range(count):
            d = ds[idx % len(ds)]
            w = random_lambda_word(rng, d, 2, 8)
            yield f"d={d} g=2 word={w.render()!r}", _genus2_problem(evaluate(w, d, 2))
        for idx in range(theta_pairs if odd_ds else 0):
            d = odd_ds[idx % len(odd_ds)]
            a = evaluate(random_lambda_word(rng, d, 2, 8), d, 2)
            b = evaluate(random_lambda_word(rng, d, 2, 8), d, 2)
            ea, ra = genus2_theta_project(a)
            eb, rb = genus2_theta_project(b)
            ep, rp = genus2_theta_project(a * b)
            ok = ep == ea * eb and rp == ra + rb
            yield f"d={d} g=2 pair {idx}", None if ok else "theta not a homomorphism"
    return _run("genus2-shape", cases())


def remark_crosscheck() -> SweepReport:
    """The documented genus-2, d=5 example: the two stated twist matrices and
    the diagonal 7-factor product with trace +-2*sqrt(5) and unit diagonal
    product."""
    d, g = 5, 2
    z = zeta_pow(d, 1)

    def cases():
        want_gamma = BlockMat(RingMatrix(d, [[1, z + z ** -1 - 2], [0, 1]]), g)
        yield ("d=5 g=2 T_gamma",
               None if matrix_of(GenSpec("GammaIK", (1, 1)), d, g) == want_gamma
               else "image mismatch")
        r = 2 - z - z ** -1
        want_delta = BlockMat(RingMatrix(d, [[1, 0], [r, 1]]), g)
        yield ("d=5 g=2 T_delta",
               None if matrix_of(GenSpec("Ti", (-1,), r.coeffs), d, g) == want_delta
               else "image mismatch")
        m = evaluate(parse(
            "GammaIK(1,1)^2 * TwistE(1)^-2 * Ti(-1; 1) * GammaIK(1,1)^2"
            " * TwistE(1)^-6 * Ti(-1; 2-z-z^4)^2 * Ti(-1; 1)^-3"
        ), d, g)
        where = "d=5 g=2 7-factor product"
        diagonal = m.mat[0, 1].is_zero() and m.mat[1, 0].is_zero()
        yield where, None if diagonal else f"not diagonal: {m!r}"
        unit = m.mat[0, 0] * m.mat[1, 1] == one(d)
        yield where, None if unit else "diagonal entries do not multiply to 1"
        trace = m.mat[0, 0] + m.mat[1, 1]
        two_sqrt5 = CycInt.from_literal(d, "2+4*z+4*z^4")
        yield where, (None if trace in (two_sqrt5, -two_sqrt5)
                      else f"trace is {trace!r}, not +-(2+4z+4z^4)")
    return _run("genus2-d5-crosscheck", cases())


def run_selftest(max_d, max_g, seed=0):
    """The CLI self-test: bounded versions of every sweep, each report
    yielded as its suite finishes."""
    ds = range(2, max_d + 1)
    gs = range(2, max_g + 1)
    yield identity_sweep(ds, gs)
    yield commutator_sweep(ds, gs)
    yield soundness_sweep(ds, gs, seed=seed)
    yield delta_roundtrip_sweep(ds, gs, count=10, seed=seed)
    yield lambda_roundtrip_sweep(ds, gs, per_cell=4, seed=seed)
    yield oracle_sweep(ds, gs, per_cell=6, pairs_per_cell=2, seed=seed)
    yield deck_scalar_sweep(ds, gs)
    yield real_basis_sweep(ds, count=50, seed=seed)
    yield genus2_sweep(ds, count=50, theta_pairs=25, seed=seed)
    yield remark_crosscheck()

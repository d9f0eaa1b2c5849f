"""Self-test sweeps: the algebraic identities, soundness checks and
round-trips that certify the catalogue, the decomposition routines and the
dual lower-right-block oracle.  Shared between the CLI `selftest` command and
the acceptance test suite; every check is exact, failures carry a witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
from .generators import (
    FAMILIES, TH, GenSpec, THPrime, elem_Ti, elem_Tij, gamma_ik, matrix_of,
)
from .predicates import GroupTag, genus2_real_project, genus2_theta_project, is_member
from .ringlinalg import BlockMat, RingMatrix, preserves_form
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


def identity_sweep(d_values, g_values) -> SweepReport:
    """T_{i,j}(1 - zeta^k) = T_H^-k T_H'^k over all admissible (i, j, k)."""
    checked = 0
    for d in d_values:
        for g in g_values:
            for i in range(1, g):
                for j in _slot_values("s", d, g, i):
                    th_inv = TH(g, d, i).inverse()
                    thp = THPrime(g, d, i, j)
                    acc_m = BlockMat.identity(d, g)
                    acc_p = BlockMat.identity(d, g)
                    for k in range(1, d):
                        acc_m = acc_m * th_inv
                        acc_p = acc_p * thp
                        lhs = elem_Tij(g, d, i, j, one(d) - zeta_pow(d, k))
                        checked += 1
                        if lhs != acc_m * acc_p:
                            return SweepReport(
                                "identity-sweep", False, checked,
                                f"mismatch at d={d} g={g} i={i} j={j} k={k}",
                            )
    return SweepReport("identity-sweep", True, checked)


def commutator_sweep(d_values, g_values) -> SweepReport:
    """[T_{i,-j}(zeta^k), T_{i,j}(1)] = T_i(zeta^k + zeta^-k)^sgn(j).

    The commutator is X Y X^-1 Y^-1.  For j > 0 this is the identity as
    displayed in the source material; for j < 0 the same computation lands on
    the inverse transvection, so the sweep pins that sign exactly rather than
    accepting either.
    """
    checked = 0
    for d in d_values:
        for g in g_values:
            for i in range(1, g):
                for j in _slot_values("s", d, g, i):
                    b = elem_Tij(g, d, i, j, one(d))
                    b_inv = b.inverse()
                    for k in range(1, d):
                        a = elem_Tij(g, d, i, -j, zeta_pow(d, k))
                        lhs = a * b * a.inverse() * b_inv
                        r = zeta_pow(d, k) + zeta_pow(d, -k)
                        rhs = elem_Ti(g, d, i, r if j > 0 else -r)
                        checked += 1
                        if lhs != rhs:
                            return SweepReport(
                                "commutator-sweep", False, checked,
                                f"mismatch at d={d} g={g} i={i} j={j} k={k}",
                            )
    return SweepReport("commutator-sweep", True, checked)


def _sample_reals(rng, d):
    phi = euler_phi(d)
    a = CycInt(d, [rng.randint(-3, 3) for _ in range(phi)])
    return [one(d), zeta_pow(d, 1) + zeta_pow(d, -1), a + a.conj()]


def _sample_rings(rng, d):
    phi = euler_phi(d)
    return [
        one(d),
        zeta_pow(d, 1),
        one(d) - zeta_pow(d, 1),
        CycInt(d, [rng.randint(-3, 3) for _ in range(phi)]),
    ]


def _instances(slots, d, g):
    """Every index tuple of the positive-index instances of a family."""
    out = [()]
    for slot in slots:
        out = [ix + (v,) for ix in out
               for v in _slot_values(slot, d, g, ix[0] if ix else None)]
    return out


def _sample_scalars(rng, d, takes):
    """Sample scalar arguments, as coefficient tuples, for a family that
    takes a "real" or a "ring" scalar; [None] for one that takes none."""
    if not takes:
        return [None]
    sample = _sample_reals if takes == "real" else _sample_rings
    return [r.coeffs for r in sample(rng, d)]


def soundness_sweep(d_values, g_values, seed=0) -> SweepReport:
    """Catalogue soundness over every family of FAMILIES but UrSp: form
    preservation and a unit determinant everywhere, the family's group for
    each positive-index instance and the subgroup chain
    Delta <= Lambda <= urU# <= urU <= U upward from it, urSp(Z) for the
    integer conjugators AH and AH', and for T_i(r') also the negative index,
    which preserves the form but leaves Lambda."""
    rng = random.Random(seed)
    checked = 0

    def fail(msg):
        return SweepReport("generator-soundness", False, checked, msg)

    chain = (GroupTag.Delta, GroupTag.Lambda, GroupTag.UrUSharp, GroupTag.UrU,
             GroupTag.U)
    for d in d_values:
        for g in g_values:
            catalogue = []  # (spec, group to check, None for none)
            for name, fam in FAMILIES.items():
                if fam.takes == "matrix":
                    continue
                for ix in _instances(fam.slots, d, g):
                    for scalar in _sample_scalars(rng, d, fam.takes):
                        catalogue.append((GenSpec(name, ix, scalar), fam.group))
                        if name == "Ti":
                            catalogue.append((GenSpec(name, (-ix[0],), scalar), None))
            for spec, smallest in catalogue:
                m = matrix_of(spec, d, g)
                checked += 1
                if not preserves_form(m):
                    return fail(f"form broken at d={d} g={g}: {m!r}")
                if unit_exponent(m.det()) is None:
                    return fail(f"det not +-zeta^k at d={d} g={g}: {m!r}")
                if spec.name in ("AH", "AHPrime") and not is_member(m, GroupTag.UrSpZ):
                    return fail(f"urSp(Z) fails at d={d} g={g}: {m!r}")
                if smallest is None:
                    continue
                for tag in chain[chain.index(smallest):]:
                    v = is_member(m, tag)
                    if not v:
                        return fail(
                            f"{tag.value} fails at d={d} g={g}: {v.reason}: {m!r}"
                        )
    return SweepReport("generator-soundness", True, checked)


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


def delta_roundtrip_sweep(d_values, g_values, count, seed=0) -> SweepReport:
    """decompose_delta followed by evaluation returns [[Id, B], [0, Id]]
    exactly, and only Delta-member generators are emitted."""
    rng = random.Random(seed)
    checked = 0
    for d in d_values:
        for g in g_values:
            n = g - 1
            ident = RingMatrix.identity(d, n)
            for _ in range(count):
                b = random_self_adjoint(rng, d, n)
                word = decompose_delta(b, d, g)
                for spec, _ in word.factors:
                    if spec.name not in ("G1", "G2", "G3"):
                        return SweepReport(
                            "delta-roundtrip", False, checked,
                            f"unexpected generator {spec.name} emitted",
                        )
                m = evaluate(word, d, g)
                checked += 1
                if not (m.upper_right() == b and m.lower_left().is_zero()
                        and m.upper_left() == ident and m.lower_right() == ident):
                    return SweepReport(
                        "delta-roundtrip", False, checked,
                        f"round trip failed at d={d} g={g} B={b!r}",
                    )
    return SweepReport("delta-roundtrip", True, checked)


def random_lambda_word(rng, d, g, max_len) -> Word:
    """A random word over the families of FAMILIES that land in Lambda (all
    but UrSp) and whose indices fit genus g.  Each factor draws its name, i,
    k, then j if the family has a second index and a scalar if it takes one,
    and its exponent from +-1, +-2."""
    names = [nm for nm, fam in FAMILIES.items()
             if fam.takes != "matrix" and len(fam.slots.replace("k", "")) < g]
    factors = []
    for _ in range(rng.randint(0, max_len)):
        name = rng.choice(names)
        fam = FAMILIES[name]
        i = rng.randint(1, g - 1)
        k = rng.randrange(d)
        free = fam.slots.replace("k", "")
        ij = iter([i] + [rng.choice(_slot_values(s, d, g, i)) for s in free[1:]])
        ix = tuple(k if s == "k" else next(ij) for s in fam.slots)
        scalar = rng.choice(_sample_scalars(rng, d, fam.takes)) if fam.takes else None
        factors.append((GenSpec(name, ix, scalar), rng.choice((-2, -1, 1, 2))))
    return Word(tuple(factors))


def lambda_roundtrip_sweep(d_values, g_values, per_cell, seed=0,
                           max_len=6) -> SweepReport:
    """reduce_lambda round trip on witness-word times unipotent products."""
    rng = random.Random(seed)
    checked = 0
    for d in d_values:
        for g in g_values:
            n = g - 1
            for _ in range(per_cell):
                wd = random_lambda_word(rng, d, g, max_len)
                f0 = random_self_adjoint(rng, d, n, -3, 3)
                unip = BlockMat.from_blocks(
                    g, RingMatrix.identity(d, n), f0,
                    RingMatrix.zeros(d, n, n), RingMatrix.identity(d, n),
                )
                m = evaluate(wd, d, g) * unip
                v = is_member(m, GroupTag.Lambda)
                if not v:
                    return SweepReport(
                        "lambda-roundtrip", False, checked,
                        f"constructed element not in Lambda at d={d} g={g}: {v.reason}",
                    )
                # the residual the reduction will decompose, checked here too
                dm = m.lower_right()
                resid = dm.adjoint() * (m.upper_right()
                                        - evaluate(wd, d, g).upper_right())
                if resid != resid.adjoint():
                    return SweepReport(
                        "lambda-roundtrip", False, checked,
                        f"residual F not self-adjoint at d={d} g={g}",
                    )
                out = reduce_lambda(m, wd)
                checked += 1
                if evaluate(out, d, g) != m:
                    return SweepReport(
                        "lambda-roundtrip", False, checked,
                        f"round trip failed at d={d} g={g} word={wd.render()!r}",
                    )
    return SweepReport("lambda-roundtrip", True, checked)


def oracle_sweep(d_values, g_values, per_cell, pairs_per_cell, seed=0,
                 max_moves=8) -> SweepReport:
    """Dual-route eta on random covering-preserving automorphisms: the
    chain-level and Fox-calculus matrices agree, determinants are +-zeta^k,
    and eta is multiplicative."""
    rng = random.Random(seed)
    checked = 0
    for d in d_values:
        for g in g_values:
            for _ in range(per_cell):
                phi = random_member(rng, g, d, max_moves)
                mc = eta_chain(phi, d, g)
                mf = eta_fox(phi, d, g)
                checked += 1
                if mc != mf:
                    return SweepReport(
                        "eta-dual-oracle", False, checked,
                        f"routes disagree at d={d} g={g}: {phi!r}",
                    )
                if unit_exponent(mc.det()) is None:
                    return SweepReport(
                        "eta-dual-oracle", False, checked,
                        f"det eta not +-zeta^k at d={d} g={g}: {mc.det()!r}",
                    )
            for _ in range(pairs_per_cell):
                a = random_member(rng, g, d, max_moves)
                b = random_member(rng, g, d, max_moves)
                checked += 1
                if eta_chain(a.compose(b), d, g) != eta_chain(a, d, g) * eta_chain(b, d, g):
                    return SweepReport(
                        "eta-dual-oracle", False, checked,
                        f"eta not multiplicative at d={d} g={g}",
                    )
    return SweepReport("eta-dual-oracle", True, checked)


def deck_scalar_sweep(d_values, g_values) -> SweepReport:
    """Conjugation by x_g maps to zeta Id under both eta routes."""
    checked = 0
    for d in d_values:
        for g in g_values:
            deck = deck_conjugation(g)
            want = RingMatrix.identity(d, g - 1) * zeta_pow(d, 1)
            checked += 1
            if eta_chain(deck, d, g) != want or eta_fox(deck, d, g) != want:
                return SweepReport(
                    "deck-scalar", False, checked, f"failed at d={d} g={g}"
                )
    return SweepReport("deck-scalar", True, checked)


def real_basis_sweep(d_values, count, seed=0) -> SweepReport:
    """Random real elements solve over {1} u {zeta^k + zeta^-k} with exact
    reconstruction."""
    rng = random.Random(seed)
    checked = 0
    for d in d_values:
        phi = euler_phi(d)
        for idx in range(count):
            a = CycInt(d, [rng.randint(-9, 9) for _ in range(phi)])
            if idx % 3 == 0:
                r = a + a.conj()
            elif idx % 3 == 1:
                r = a * a.conj()
            else:
                n0 = rng.randint(-9, 9)
                nk = [rng.randint(-9, 9) for _ in range(d - 1)]
                r = eval_real_basis(d, n0, nk)
            n0, nk = solve_real_basis(r)
            checked += 1
            if eval_real_basis(d, n0, nk) != r:
                return SweepReport(
                    "real-basis", False, checked, f"reconstruction failed at d={d}: {r!r}"
                )
    return SweepReport("real-basis", True, checked)


def genus2_sweep(d_values, count, theta_pairs, seed=0) -> SweepReport:
    """Random genus-2 catalogue words have the zeta^k (+-1, r'; 0, +-1) shape;
    for odd d the theta projection is a homomorphism."""
    rng = random.Random(seed)
    checked = 0
    ds = list(d_values)
    for idx in range(count):
        d = ds[idx % len(ds)]
        w = random_lambda_word(rng, d, 2, 8)
        m = evaluate(w, d, 2)
        v = is_member(m, GroupTag.Lambda)
        checked += 1
        if not v:
            return SweepReport(
                "genus2-shape", False, checked,
                f"word not in Lambda at d={d}: {w.render()!r}: {v.reason}",
            )
        dd = m.mat[1, 1]
        ue = unit_exponent(dd)
        if ue is None or m.mat[0, 0] != dd or not m.mat[1, 0].is_zero():
            return SweepReport(
                "genus2-shape", False, checked,
                f"shape violated at d={d}: {m!r}",
            )
        r = genus2_real_project(m)
        if not r.is_real():
            return SweepReport(
                "genus2-shape", False, checked, f"projection not real at d={d}"
            )
        s, k = ue
        sign = CycInt.from_int(d, s)
        rebuilt = BlockMat(
            RingMatrix.from_rows(d, [[sign, sign * r], [0, sign]]), 2
        ) * zeta_pow(d, k)
        if rebuilt != m:
            return SweepReport(
                "genus2-shape", False, checked, f"reconstruction failed at d={d}"
            )
    odd_ds = [d for d in ds if d % 2 == 1]
    for idx in range(theta_pairs):
        if not odd_ds:
            break
        d = odd_ds[idx % len(odd_ds)]
        a = evaluate(random_lambda_word(rng, d, 2, 8), d, 2)
        b = evaluate(random_lambda_word(rng, d, 2, 8), d, 2)
        ea, ra = genus2_theta_project(a)
        eb, rb = genus2_theta_project(b)
        ep, rp = genus2_theta_project(a * b)
        checked += 1
        if ep != ea * eb or rp != ra + rb:
            return SweepReport(
                "genus2-shape", False, checked,
                f"theta not a homomorphism at d={d}",
            )
    return SweepReport("genus2-shape", True, checked)


def remark_crosscheck() -> SweepReport:
    """The documented genus-2, d=5 example: the two stated twist matrices and
    the diagonal 7-factor product with trace +-2*sqrt(5) and unit diagonal
    product."""
    d, g = 5, 2
    checked = 0
    t_gamma = gamma_ik(g, d, 1, 1)
    want_gamma = BlockMat(
        RingMatrix.from_rows(
            d, [[1, zeta_pow(d, 1) + zeta_pow(d, -1) - 2], [0, 1]]
        ), g,
    )
    checked += 1
    if t_gamma != want_gamma:
        return SweepReport("genus2-d5-crosscheck", False, checked,
                           "T_gamma image mismatch")
    t_delta = elem_Ti(g, d, -1, 2 - zeta_pow(d, 1) - zeta_pow(d, -1))
    want_delta = BlockMat(
        RingMatrix.from_rows(
            d, [[1, 0], [2 - zeta_pow(d, 1) - zeta_pow(d, -1), 1]]
        ), g,
    )
    checked += 1
    if t_delta != want_delta:
        return SweepReport("genus2-d5-crosscheck", False, checked,
                           "T_delta image mismatch")
    word = parse(
        "GammaIK(1,1)^2 * TwistE(1)^-2 * Ti(-1; 1) * GammaIK(1,1)^2"
        " * TwistE(1)^-6 * Ti(-1; 2-z-z^4)^2 * Ti(-1; 1)^-3"
    )
    m = evaluate(word, d, g)
    checked += 1
    if not (m.mat[0, 1].is_zero() and m.mat[1, 0].is_zero()):
        return SweepReport("genus2-d5-crosscheck", False, checked,
                           f"product not diagonal: {m!r}")
    checked += 1
    if m.mat[0, 0] * m.mat[1, 1] != one(d):
        return SweepReport("genus2-d5-crosscheck", False, checked,
                           "diagonal entries do not multiply to 1")
    trace = m.mat[0, 0] + m.mat[1, 1]
    two_sqrt5 = CycInt.from_literal(d, "2+4*z+4*z^4")
    checked += 1
    if trace != two_sqrt5 and trace != -two_sqrt5:
        return SweepReport("genus2-d5-crosscheck", False, checked,
                           f"trace is {trace!r}, not +-(2+4z+4z^4)")
    return SweepReport("genus2-d5-crosscheck", True, checked)


def run_selftest(max_d, max_g, seed=0, inject_failure=False):
    """The CLI self-test: bounded versions of every sweep."""
    ds = range(2, max_d + 1)
    gs = range(2, max_g + 1)
    d_list = list(ds)
    g_list = list(gs)
    reports = [
        identity_sweep(ds, gs),
        commutator_sweep(ds, gs),
        soundness_sweep(ds, gs, seed=seed),
        delta_roundtrip_sweep(d_list, g_list, count=10, seed=seed),
        lambda_roundtrip_sweep(d_list, g_list, per_cell=4, seed=seed),
        oracle_sweep(ds, gs, per_cell=6, pairs_per_cell=2, seed=seed),
        deck_scalar_sweep(ds, gs),
        real_basis_sweep(ds, count=50, seed=seed),
        genus2_sweep(d_list, count=50, theta_pairs=25, seed=seed),
        remark_crosscheck(),
    ]
    if inject_failure:
        reports.append(SweepReport("injected-failure", False, 1,
                                   "failure injected for harness testing"))
    return reports

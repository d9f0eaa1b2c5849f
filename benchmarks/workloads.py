"""The four benchmark workloads: seeded input generators, the timed case
bodies, and the exact checks on their outputs.

A workload is a list of (d, g) cells and a round plan: the case kinds run
once per cell in every round.  Round r of seed s draws its inputs from
random.Random(f"{name}:{s}:{r}") before any case of the round is timed, and
its cases run in a seeded shuffled order, so a run that stops mid-round has
timed an unbiased prefix.  `run` is the timed body and calls only the
package's public API; `check` is untimed and returns (ok, canonical text),
the text feeding the output digest.

All program functions are looked up as module attributes at call time, so
the tracer's wrappers see every call the benchmark makes.

This module imports prymrep; benchmarks.common.import_from_checkout must
have put the checkout's src/ on sys.path first.
"""

from __future__ import annotations

import contextlib
import io
import random

from prymrep import cyclotomic as cyc, decompose as dec, foxcover as fox
from prymrep import generators as gen, predicates as pred, ringlinalg as rla
from prymrep import wordlang as wl

Tag = pred.GroupTag
CHAIN = (Tag.Delta, Tag.Lambda, Tag.UrUSharp, Tag.UrU, Tag.U)


class Case:
    __slots__ = ("d", "g", "kind", "label", "inp")

    def __init__(self, d, g, kind, label, inp):
        self.d, self.g, self.kind, self.label, self.inp = d, g, kind, label, inp

    def head(self):
        return f"{self.kind} d={self.d} g={self.g} {self.label}"


def round_rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


# ---------------------------------------------------------------------------
# Input helpers shared by the generators.

def rand_ring(rng, d, lo=-3, hi=3):
    return cyc.CycInt(d, [rng.randint(lo, hi) for _ in range(cyc.euler_phi(d))])


def rand_real_nonzero(rng, d):
    while True:
        a = rand_ring(rng, d)
        r = a + a.conj()
        if not r.is_zero():
            return r


def signed_js(g, i):
    return [s * m for m in range(1, g) for s in (1, -1) if m != i]


def rand_self_adjoint(rng, d, n, lo, hi):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        a = rand_ring(rng, d, lo, hi)
        rows[i][i] = a + a.conj()
        for j in range(i + 1, n):
            b = rand_ring(rng, d, lo, hi)
            rows[i][j] = b
            rows[j][i] = b.conj()
    return rla.RingMatrix(d, rows)


def rand_lambda_word(rng, d, g, max_len, length=None):
    """A random word over the catalogue generators that land in Lambda, of
    `length` factors or, without one, of 1..max_len factors."""
    names = ["T", "Zeta", "Ti", "AH", "TH", "TwistE", "GammaIK", "G1", "G2"]
    if g >= 3:
        names += ["Tij", "AHPrime", "THPrime", "GammaIJK", "G3"]
    factors = []
    for _ in range(length or rng.randint(1, max_len)):
        name = rng.choice(names)
        i = rng.randint(1, g - 1)
        k = rng.randrange(d)
        if name == "T":
            spec = gen.GenSpec("T")
        elif name == "Zeta":
            spec = gen.GenSpec("Zeta", (k,))
        elif name == "Ti":
            spec = gen.GenSpec("Ti", (i,), scalar=rand_real_nonzero(rng, d).coeffs)
        elif name in ("AH", "TH", "TwistE", "G1"):
            spec = gen.GenSpec(name, (i,))
        elif name in ("GammaIK", "G2"):
            spec = gen.GenSpec(name, (i, k))
        elif name == "Tij":
            spec = gen.GenSpec("Tij", (i, rng.choice(signed_js(g, i))),
                               scalar=rand_ring(rng, d).coeffs)
        elif name in ("AHPrime", "THPrime"):
            spec = gen.GenSpec(name, (i, rng.choice(signed_js(g, i))))
        else:  # GammaIJK, G3
            j = rng.choice([x for x in range(1, g) if x != i])
            spec = gen.GenSpec(name, (i, j, k))
        factors.append((spec, rng.choice((-2, -1, 1, 2))))
    return wl.Word(tuple(factors))


def unipotent(d, g, f):
    n = g - 1
    ident = rla.RingMatrix.identity(d, n)
    return rla.BlockMat.from_blocks(g, ident, f, rla.RingMatrix.zeros(d, n, n), ident)


def verdict_text(v):
    return "yes" if v else f"no ({v.reason})"


# ---------------------------------------------------------------------------

class Catalogue:
    """Build one catalogue generator per family and certify it (criterion-3
    path), plus conjugation-identity cases."""

    name = "catalogue"
    module = "prymrep"
    cells = [(d, g) for d in (3, 5, 7, 11, 12) for g in (2, 3, 4, 5)]
    warm_kind = "TH"
    # kind: (smallest group asserted, also in urSp(Z)); None = no membership
    FAMILIES = {
        "T": (Tag.Lambda, False), "Zeta": (Tag.Delta, False),
        "Ti": (Tag.Lambda, False), "Ti-": (None, False),
        "AH": (Tag.Lambda, True), "TH": (Tag.Lambda, False),
        "TwistE": (Tag.Lambda, False), "G1": (Tag.Delta, False),
        "GammaIK": (Tag.Lambda, False), "G2": (Tag.Delta, False),
        "Tij": (Tag.Lambda, False), "AHPrime": (Tag.Lambda, True),
        "THPrime": (Tag.Lambda, False), "GammaIJK": (Tag.Lambda, False),
        "G3": (Tag.Delta, False),
    }
    NEEDS_G3 = ("Tij", "AHPrime", "THPrime", "GammaIJK", "G3", "identity")

    def size(self):
        return {"cells": "d in {3,5,7,11,12} x g in {2..5}",
                "matrix": "2(g-1) square over Z[zeta_d]",
                "scalars": "coefficients in [-3, 3]",
                "cases_per_round": len(self.plan())}

    def plan(self):
        kinds = list(self.FAMILIES) + ["identity"]
        return [(d, g, k) for d, g in self.cells for k in kinds
                if g >= 3 or k not in self.NEEDS_G3]

    def make(self, rng, r, d, g, kind):
        i = rng.randint(1, g - 1)
        k = rng.randrange(d)
        if kind == "identity":
            j = rng.choice(signed_js(g, i))
            k = rng.randint(1, d - 1)
            r = cyc.one(d) - cyc.zeta_pow(d, k)
            return Case(d, g, kind, f"Tij({i},{j}; 1-z^{k}) = TH^-{k} TH'^{k}",
                        (i, j, k, r))
        if kind == "T":
            args, label = (), "T"
        elif kind == "Zeta":
            args, label = (k,), f"Zeta({k})"
        elif kind in ("Ti", "Ti-"):
            r = rand_real_nonzero(rng, d)
            ii = i if kind == "Ti" else -i
            args, label = (ii, r), f"Ti({ii}; {r.literal()})"
        elif kind in ("AH", "TH", "TwistE", "G1"):
            args, label = (i,), f"{kind}({i})"
        elif kind in ("GammaIK", "G2"):
            args, label = (i, k), f"{kind}({i},{k})"
        elif kind == "Tij":
            j = rng.choice(signed_js(g, i))
            r = rand_ring(rng, d)
            args, label = (i, j, r), f"Tij({i},{j}; {r.literal()})"
        elif kind in ("AHPrime", "THPrime"):
            j = rng.choice(signed_js(g, i))
            args, label = (i, j), f"{kind}({i},{j})"
        else:  # GammaIJK, G3
            j = rng.choice([x for x in range(1, g) if x != i])
            args, label = (i, j, k), f"{kind}({i},{j},{k})"
        return Case(d, g, kind, label, args)

    @staticmethod
    def build(kind, d, g, args):
        ctor = {
            "T": gen.big_T, "Zeta": gen.scalar_zeta, "Ti": gen.elem_Ti,
            "Ti-": gen.elem_Ti, "AH": gen.conj_AH, "TH": gen.TH,
            "TwistE": gen.twist_E, "G1": gen.delta_g1, "GammaIK": gen.gamma_ik,
            "G2": gen.delta_g2, "Tij": gen.elem_Tij, "AHPrime": gen.conj_AHPrime,
            "THPrime": gen.THPrime, "GammaIJK": gen.gamma_ijk, "G3": gen.delta_g3,
        }[kind]
        return ctor(g, d, *args)

    def run(self, case):
        d, g = case.d, case.g
        if case.kind == "identity":
            i, j, k, r = case.inp
            lhs = gen.elem_Tij(g, d, i, j, r)
            rhs = (gen.TH(g, d, i) ** -k) * (gen.THPrime(g, d, i, j) ** k)
            return lhs, lhs == rhs
        m = self.build(case.kind, d, g, case.inp)
        smallest, in_ursp = self.FAMILIES[case.kind]
        form = rla.preserves_form(m)
        unit = cyc.unit_exponent(m.det())
        chain = []
        probe = None
        if smallest is not None:
            at = CHAIN.index(smallest)
            chain = [pred.is_member(m, tag) for tag in CHAIN[at:]]
            if at:
                probe = (CHAIN[at - 1], pred.is_member(m, CHAIN[at - 1]))
        else:
            probe = (Tag.Lambda, pred.is_member(m, Tag.Lambda))
        ursp = pred.is_member(m, Tag.UrSpZ) if in_ursp else None
        return m, form, unit, chain, probe, ursp

    def check(self, case, out):
        if case.kind == "identity":
            lhs, equal = out
            return equal, f"{case.head()}: {lhs.to_text()}"
        m, form, unit, chain, probe, ursp = out
        ok = form and unit is not None and all(chain) and (ursp is None or bool(ursp))
        if case.kind == "Ti-":
            # the transposed transvection has a nonzero lower-left block
            ok = ok and not probe[1] and probe[1].reason == "lower-left block is nonzero"
        text = [f"{case.head()}: {m.to_text()}", f"det=({unit})"]
        if probe is not None:
            text.append(f"{probe[0].value}: {verdict_text(probe[1])}")
        return ok, " | ".join(text)


class Roundtrip:
    """decompose_delta on random self-adjoint B, and reduce_lambda on random
    witness words times a unipotent (criteria 4 and 5)."""

    name = "roundtrip"
    module = "prymrep"
    cells = [(d, g) for d in (3, 5, 7, 12) for g in (2, 3, 4, 5)]
    warm_kind = "delta"

    def size(self):
        return {"cells": "d in {3,5,7,12} x g in {2..5}",
                "delta": "random self-adjoint (g-1)-square B, coefficients in [-5, 5]",
                "lambda": "witness words of 1..6 factors (cycling over cells and "
                          "rounds), exponents +-1, +-2, "
                          "times [[Id, F], [0, Id]] with F coefficients in [-3, 3]",
                "cases_per_round": len(self.plan())}

    def plan(self):
        return [(d, g, k) for d, g in self.cells for k in ("delta", "lambda")]

    def make(self, rng, r, d, g, kind):
        n = g - 1
        if kind == "delta":
            b = rand_self_adjoint(rng, d, n, -5, 5)
            return Case(d, g, kind, f"B={b.to_text()}", b)
        # word lengths cycle through 1..6 over cells and rounds, so every run
        # has the same length mix whatever the seed
        length = 1 + (r + self.cells.index((d, g))) % 6
        wd = rand_lambda_word(rng, d, g, 6, length)
        f0 = rand_self_adjoint(rng, d, n, -3, 3)
        m = wl.evaluate(wd, d, g) * unipotent(d, g, f0)
        return Case(d, g, kind, f"witness={wd.render()}", (wd, m))

    def run(self, case):
        d, g = case.d, case.g
        if case.kind == "delta":
            b = case.inp
            word = dec.decompose_delta(b, d, g)
            m = wl.evaluate(word, d, g)
            ident = rla.RingMatrix.identity(d, g - 1)
            ul, ur, ll, lr = m.blocks()
            return word, (ur == b and ll.is_zero() and ul == ident and lr == ident)
        wd, m = case.inp
        member = pred.is_member(m, Tag.Lambda)
        word = dec.reduce_lambda(m, wd)
        return word, bool(member) and wl.evaluate(word, d, g) == m

    def check(self, case, out):
        word, equal = out
        if case.kind == "delta":
            equal = equal and all(s.name in ("G1", "G2", "G3") for s, _ in word.factors)
        return equal, f"{case.head()}: {word.render()}"


# ---------------------------------------------------------------------------
# Oracle inputs: covering-preserving automorphisms grown to a letter target.

def nielsen_moves(g, d):
    """Kernel-preserving automorphisms of F_g with their inverses: inversion
    and x_g-conjugation of a kernel generator, multiplication by x_g^d,
    x_g -> x_g x_i, and the transvections x_i -> x_i x_j, x_i -> x_j x_i."""
    def endo(images, inverses):
        ims = tuple(images.get(i, (i,)) for i in range(1, g + 1))
        inv = tuple(inverses.get(i, (i,)) for i in range(1, g + 1))
        return fox.Endo(ims, inv)

    moves = []
    for i in range(1, g):
        moves.append(endo({i: (-i,)}, {i: (-i,)}))
        moves.append(endo({i: (g, i, -g)}, {i: (-g, i, g)}))
        moves.append(endo({i: (g,) * d + (i,)}, {i: (-g,) * d + (i,)}))
        moves.append(endo({g: (g, i)}, {g: (g, -i)}))
        for j in range(1, g):
            if j != i:
                moves.append(endo({i: (i, j)}, {i: (i, -j)}))
                moves.append(endo({i: (j, i)}, {i: (-j, i)}))
    return moves


def letters(words):
    return sum(len(w) for w in words)


def grow_automorphism(rng, g, d, target, cap, inverse_cap, max_attempts=400):
    """Compose random moves until the images total at least `target` letters.

    A move is kept only if the images stay within `cap` letters and the
    inverse images within `inverse_cap`, and at most `max_attempts` moves are
    tried, so the size is bounded whatever the seed; composing an open-ended
    number of moves instead grows the images exponentially.
    """
    moves = nielsen_moves(g, d)
    phi = fox.Endo.identity(g)
    for _ in range(max_attempts):
        if letters(phi.images) >= target:
            break
        step = rng.choice(moves)
        if rng.random() < 0.5:
            step = step.inverse()
        cand = phi.compose(step)
        if letters(cand.images) <= cap and letters(cand.inverse_images) <= inverse_cap:
            phi = cand
    return phi


def render_free(w):
    """Free word text with runs of one letter folded into powers."""
    parts = []
    k = 0
    while k < len(w):
        s, run = w[k], 1
        while k + run < len(w) and w[k + run] == s:
            run += 1
        e = run if s > 0 else -run
        parts.append(f"x{abs(s)}" if e == 1 else f"x{abs(s)}^{e}")
        k += run
    return " ".join(parts)


def render_images(images):
    return " ; ".join(f"x{i} -> {render_free(w)}"
                      for i, w in enumerate(images, start=1))


class Oracle:
    """Both eta routes on automorphisms whose images total about
    LETTER_TARGET letters, plus multiplicativity on short pairs."""

    name = "oracle"
    module = "prymrep"
    cells = [(d, g) for d in (3, 5, 12) for g in (2, 3, 5)]
    warm_kind = "pair"
    LETTER_TARGET = 1000
    LETTER_CAP = 1100
    INVERSE_CAP = 2000
    PAIR_TARGET = 40
    PAIR_CAP = 80

    def size(self):
        return {"cells": "d in {3,5,12} x g in {2,3,5}",
                "eta": f"images of {self.LETTER_TARGET}..{self.LETTER_CAP} letters "
                       f"in total, inverse images at most {self.INVERSE_CAP}",
                "pair": f"two factors of {self.PAIR_TARGET}..{self.PAIR_CAP} letters, "
                        f"inverse images at most {self.PAIR_CAP}",
                "cases_per_round": len(self.plan())}

    def plan(self):
        return [(d, g, k) for d, g in self.cells for k in ("eta", "eta", "pair")]

    def make(self, rng, r, d, g, kind):
        if kind == "eta":
            phi = grow_automorphism(rng, g, d, self.LETTER_TARGET, self.LETTER_CAP,
                                    self.INVERSE_CAP)
            return Case(d, g, kind, f"letters={letters(phi.images)}", phi)
        a = grow_automorphism(rng, g, d, self.PAIR_TARGET, self.PAIR_CAP, self.PAIR_CAP)
        b = grow_automorphism(rng, g, d, self.PAIR_TARGET, self.PAIR_CAP, self.PAIR_CAP)
        return Case(d, g, kind,
                    f"letters={letters(a.images)}+{letters(b.images)}", (a, b))

    def run(self, case):
        d, g = case.d, case.g
        if case.kind == "eta":
            phi = case.inp
            member = fox.check_member(phi, d)
            chain = fox.eta_chain(phi, d, g)
            fx = fox.eta_fox(phi, d, g)
            unit = cyc.unit_exponent(chain.det())
            return chain, bool(member) and chain == fx and unit is not None
        a, b = case.inp
        ab = fox.eta_chain(a.compose(b), d, g)
        return ab, ab == fox.eta_chain(a, d, g) * fox.eta_chain(b, d, g)

    def check(self, case, out):
        m, ok = out
        return ok, f"{case.head()}: {m.to_text()}"


# ---------------------------------------------------------------------------
# CLI inputs.

def inflate(coeffs, d, rng, top=10_000):
    """Ring-literal text for an integer polynomial with each exponent m raised
    to m + t*d (t random, exponent at most `top`); zeta^d = 1, so the value is
    unchanged while the parser sees exponents far past d."""
    terms = []
    for m, c in enumerate(coeffs):
        if c:
            e = m + d * rng.randrange((top - m) // d + 1)
            mag = abs(c)
            body = f"z^{e}" if mag == 1 else f"{mag}*z^{e}"
            terms.append(("-" if c < 0 else "+") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[1:] if text.startswith("+") else text


def matrix_text(m, d, rng, share=0.3):
    rows = []
    for row in m.entries:
        rows.append(", ".join(
            inflate(e.coeffs, d, rng) if rng.random() < share else e.literal()
            for e in row))
    return " ; ".join(rows)


def word_text(word, d, rng):
    """Render a word with every ring argument inflated."""
    parts = []
    for spec, e in word.factors:
        if spec.scalar is not None:
            body = (f"{spec.name}({','.join(map(str, spec.indices))}; "
                    f"{inflate(spec.scalar, d, rng)})")
        else:
            body = wl.Word(((spec, 1),)).render()
        parts.append(body if e == 1 else f"{body}^{e}")
    return " * ".join(parts)


def rand_delta_word(rng, d, g, max_len):
    names = ["G1", "G2", "Zeta"] + (["G3"] if g >= 3 else [])
    factors = []
    for _ in range(rng.randint(1, max_len)):
        name = rng.choice(names)
        i = rng.randint(1, g - 1)
        k = rng.randrange(d)
        if name == "G1":
            spec = gen.GenSpec("G1", (i,))
        elif name == "G2":
            spec = gen.GenSpec("G2", (i, k))
        elif name == "Zeta":
            spec = gen.GenSpec("Zeta", (k,))
        else:
            j = rng.choice([x for x in range(1, g) if x != i])
            spec = gen.GenSpec("G3", (i, j, k))
        factors.append((spec, rng.choice((-1, 1, 2))))
    return wl.Word(tuple(factors))


MEMBER_TAGS = (Tag.Lambda, Tag.UrUSharp, Tag.UrU, Tag.U, Tag.USharp)
LOWER_LEFT_TAGS = (Tag.Lambda, Tag.UrU, Tag.UrUSharp, Tag.Delta)


class Cli:
    """`prymrep.cli.main(argv)` in-process on a seeded argv mix, with exit
    code, stdout and stderr captured."""

    name = "cli"
    module = "prymrep.cli"
    cells = [(d, g) for d in (3, 5, 12) for g in (2, 3, 4)]
    warm_kind = "eval"
    KINDS = ("eval", "eval", "check+", "check+", "check-", "decompose-delta",
             "reduce-lambda", "fox")
    MALFORMED = (
        ("eval", "--word", "Foo(1) * T", "parse error:"),
        ("eval", "--word", "Ti(1; 1 + + z)", "parse error:"),
        ("check", "--matrix", "1, 0 ; 0", "parse error:"),
        ("decompose-delta", "--B", None, "error: B is not self-adjoint"),
        ("eval", "--d", None, "error: d must be >= 2"),
    )

    def size(self):
        return {"cells": "d in {3,5,12} x g in {2,3,4}",
                "mix_per_cell": "2 eval, 2 check member, 1 check non-member, "
                                "1 decompose-delta, 1 reduce-lambda, 1 fox; "
                                "1 malformed in every other cell",
                "literals": "exponents inflated by multiples of d up to 10^4",
                "words": "1..4 factors; fox images 30..60 letters",
                "cases_per_round": len(self.plan())}

    def plan(self):
        out = []
        for idx, (d, g) in enumerate(self.cells):
            out += [(d, g, k) for k in self.KINDS]
            if idx % 2 == 0:
                out.append((d, g, "malformed"))
        return out

    def make(self, rng, r, d, g, kind):
        dg = ["--d", str(d), "--g", str(g)]
        n = g - 1
        if kind == "eval":
            word = rand_lambda_word(rng, d, g, 4)
            return Case(d, g, kind, word.render(),
                        (["eval", *dg, "--word=" + word_text(word, d, rng)], 0, word))
        if kind in ("check+", "check-"):
            delta = rng.random() < 1 / 3
            word = rand_delta_word(rng, d, g, 4) if delta else rand_lambda_word(rng, d, g, 4)
            m = wl.evaluate(word, d, g)
            if kind == "check+":
                tag = Tag.Delta if delta else rng.choice(MEMBER_TAGS)
                code = 0
            elif rng.random() < 0.5:
                tag, code, m = rng.choice(list(Tag)), 1, m * 2
            else:  # a nonzero lower-left block breaks every block-triangular group
                tag, code = rng.choice(LOWER_LEFT_TAGS), 1
                rows = [list(row) for row in m.mat.entries]
                rows[n][0] = cyc.one(d)
                m = rla.BlockMat(rla.RingMatrix(d, rows), g)
            argv = ["check", *dg, "--matrix=" + matrix_text(m.mat, d, rng),
                    "--group", tag.value]
            return Case(d, g, kind, f"{tag.value} {word.render()}", (argv, code, tag))
        if kind == "decompose-delta":
            b = rand_self_adjoint(rng, d, n, -3, 3)
            argv = ["decompose-delta", *dg, "--B=" + matrix_text(b, d, rng)]
            return Case(d, g, kind, f"B={b.to_text()}", (argv, 0, b))
        if kind == "reduce-lambda":
            wd = rand_lambda_word(rng, d, g, 4)
            m = wl.evaluate(wd, d, g) * unipotent(d, g, rand_self_adjoint(rng, d, n, -3, 3))
            argv = ["reduce-lambda", *dg, "--matrix=" + matrix_text(m.mat, d, rng),
                    "--word=" + wd.render()]
            return Case(d, g, kind, f"witness={wd.render()}", (argv, 0, m))
        if kind == "fox":
            phi = grow_automorphism(rng, g, d, 30, 60, 60)
            argv = ["fox", *dg, "--map=" + render_images(phi.images),
                    "--inverse=" + render_images(phi.inverse_images)]
            return Case(d, g, kind, f"letters={letters(phi.images)}", (argv, 0, phi))
        cmd, flag, text, prefix = rng.choice(self.MALFORMED)
        if cmd == "decompose-delta":
            bad = ["1"] * (n * n)
            if n > 1:
                bad[1] = "z"
            else:
                bad[0] = "z"
            rows = [", ".join(bad[i * n:(i + 1) * n]) for i in range(n)]
            argv = [cmd, *dg, f"{flag}={' ; '.join(rows)}"]
        elif flag == "--d":
            argv = [cmd, "--d", "1", "--g", str(g), "--word=T"]
        elif cmd == "check":
            argv = [cmd, *dg, f"{flag}={text}", "--group", "U"]
        else:
            argv = [cmd, *dg, f"{flag}={text}"]
        return Case(d, g, kind, " ".join(argv), (argv, 2, prefix))

    def run(self, case):
        from prymrep import cli  # imported by the worker for this workload only

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case.inp[0])
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, case, out):
        code, stdout, stderr = out
        argv, want_code, extra = case.inp
        d, g = case.d, case.g
        ok = code == want_code
        if case.kind == "malformed":
            ok = (ok and not stdout and stderr.count("\n") == 1
                  and stderr.startswith(extra))
        elif stderr:
            ok = False
        elif case.kind == "eval":
            ok = ok and stdout == wl.evaluate(extra, d, g).to_text() + "\n"
        elif case.kind == "check+":
            ok = ok and stdout == f"member of {extra.value}\n"
        elif case.kind == "check-":
            ok = ok and stdout.startswith(f"non-member of {extra.value}: ")
        elif case.kind == "decompose-delta":
            m = wl.evaluate(wl.parse(stdout.strip()), d, g)
            ok = ok and m == unipotent(d, g, extra)
        elif case.kind == "reduce-lambda":
            ok = ok and wl.evaluate(wl.parse(stdout.strip()), d, g) == extra
        else:  # fox
            ok = ok and stdout == fox.eta_chain(extra, d, g).to_text() + "\n"
        return ok, f"{case.head()}: exit {code} | {stdout.strip()} | {stderr.strip()}"


WORKLOADS = {w.name: w for w in (Catalogue(), Roundtrip(), Oracle(), Cli())}

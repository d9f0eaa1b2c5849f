import hashlib
import random
import re
import tracemalloc
from itertools import accumulate
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymrep.cyclotomic import MAX_DIGITS, CycInt, ParseError, _reduce_poly, unit_exponent, zeta_pow
from prymrep.foxcover import (
    MAX_LETTERS,
    CoverClass,
    Endo,
    _fox_column,
    adapted_nielsen_moves,
    check_member,
    deck_conjugation,
    eta,
    eta_chain,
    eta_fox,
    exponent_sum,
    lift_class,
    parse_endo_images,
    parse_free_word,
    random_member,
    word_inv,
    word_mul,
)
from prymrep.ringlinalg import RingMatrix

from matrix_helpers import column, fox_derivative, free_reduce, record_ring_elements, zero


def render_free_word(w) -> str:
    if not w:
        return "1"
    parts = []
    for s in w:
        parts.append(f"x{s}" if s > 0 else f"x{-s}^-1")
    return " ".join(parts)


def word_pow(w, e: int):
    if e < 0:
        w, e = word_inv(w), -e
    return word_mul(*[w] * e)


def eps_eval(terms: dict, d: int, g: int) -> CycInt:
    """The ring map sending x_i to 1 (i < g) and x_g to zeta, applied to a
    formal sum of words: with fox_derivative, the oracle of eta_fox."""
    poly = [0] * d
    for w, c in terms.items():
        poly[exponent_sum(w, g) % d] += c
    return CycInt.from_poly(d, poly)


def conj_by_x2 ():
    return Endo(((2, 1, -2), (2,)), ((-2, 1, 2), (2,)))


def test_free_reduction():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)
    assert word_mul((1, 2), (-2, 3)) == (1, 3)
    assert word_inv((1, -2, 3)) == (-3, 2, -1)
    assert word_pow((1, 2, -1), 4) == (1, 2, 2, 2, 2, -1)
    assert word_pow((1, 2), -2) == (-2, -1, -2, -1)
    assert word_pow((1, 2), 0) == ()
    with pytest.raises(ValueError):
        free_reduce((1, 0, -1))


def test_check_member_examples():
    for d in (2, 3, 7):
        assert check_member(Endo.identity(3), d)
        assert check_member(conj_by_x2(), d)
    bad = Endo(((1, 2), (2,)), ((1, -2), (2,)))
    v = check_member(bad, 3)
    assert not v and "exponent" in v.reason


def test_check_member_catches_bad_certificate():
    phi = Endo(((1, 2), (2,), (3,)), ((1,), (2,), (3,)))  # wrong inverse
    v = check_member(phi, 2)
    assert not v and "certificate" in v.reason


def test_lift_class_examples():
    cl = lift_class((1,), 3, 2)
    assert cl.loops == ((1, 0, 0),) and cl.lam == 0
    cl = lift_class((2, 2, 2), 3, 2)
    assert cl.loops == ((0, 0, 0),) and cl.lam == 1
    cl = lift_class((2, 1, -2), 3, 2)
    assert cl.loops == ((0, 1, 0),) and cl.lam == 0
    # inverse traversals count negatively
    cl = lift_class((-2, -2, -2), 3, 2)
    assert cl.lam == -1


def test_lift_class_rejects_open_paths():
    with pytest.raises(ValueError):
        lift_class((2,), 3, 2)


def test_eta_chain_examples():
    assert eta_chain(Endo.identity(3), 5, 3) == RingMatrix.identity(5, 2)
    m = eta_chain(conj_by_x2(), 5, 2)
    assert m.rows == 1 and m[0, 0] == zeta_pow(5, 1)
    phi = Endo(((1, 2), (2,), (3,)), ((1, -2), (2,), (3,)))
    m = eta_chain(phi, 5, 3)
    assert column(m, 0) == [zeta_pow(5, 0), zeta_pow(5, 0)]
    assert column(m, 1)[0].is_zero() and column(m, 1)[1] == 1
    assert m.det() == 1


def test_fox_derivative_rules():
    assert fox_derivative((1,), 1) == {(): 1}
    assert fox_derivative((2, 1, -2), 1) == {(2,): 1}
    assert fox_derivative((-1,), 1) == {(-1,): -1}
    assert fox_derivative((2,), 1) == {}
    # product rule on x1 x1
    assert fox_derivative((1, 1), 1) == {(): 1, (1,): 1}
    # an unreduced input: the x1^-1 term cancels against the prefix x2 x1
    assert fox_derivative((2, 1, -1, 3, -1), 1) == {(2, 3, -1): -1}


def test_fox_derivative_matches_product_rule():
    """The in-place prefix gives the same dict, key order included, as the
    product rule written with word_mul, on unreduced words and on images of
    random automorphisms."""
    def reference(w, i):
        terms, prefix = {}, ()
        for s in w:
            if s == i:
                terms[prefix] = terms.get(prefix, 0) + 1
            elif s == -i:
                key = word_mul(prefix, (-i,))
                terms[key] = terms.get(key, 0) - 1
            prefix = word_mul(prefix, (s,))
        return {k: c for k, c in terms.items() if c}

    rng = random.Random(11)
    words = [tuple(rng.choice((1, -1)) * rng.randint(1, 3)
                   for _ in range(rng.randint(0, 40))) for _ in range(200)]
    for g in (2, 3, 4):
        words += random_member(rng, g, 5, 12).images
    for w in words:
        for i in (1, 2, 3):
            assert list(fox_derivative(w, i).items()) == list(reference(w, i).items())


def test_eta_fox_matches_chain_on_examples():
    for d in (2, 5, 8):
        assert eta_fox(conj_by_x2(), d, 2) == eta_chain(conj_by_x2(), d, 2)
    phi = Endo(((1, 2), (2,), (3,)), ((1, -2), (2,), (3,)))
    assert eta_fox(phi, 5, 3) == eta_chain(phi, 5, 3)


def test_eta_crosscheck_entry():
    m = eta(conj_by_x2(), 7, 2)
    assert m[0, 0] == zeta_pow(7, 1)


def test_eta_raises_when_the_routes_disagree(monkeypatch):
    import prymrep.foxcover as fc

    monkeypatch.setattr(fc, "eta_fox", lambda phi, d, g: RingMatrix.identity(d, g - 1) * 2)
    with pytest.raises(ArithmeticError, match="routes disagree"):
        eta(conj_by_x2(), 7, 2)


def _spy_walks(monkeypatch):
    """The words that Endo._walks pulls from its argument, in order, as it
    pulls them."""
    pulled, walks = [], Endo._walks
    monkeypatch.setattr(Endo, "_walks", lambda self, words: walks(
        self, (pulled.append(w) or w for w in words)))
    return pulled


def _spy_steps(monkeypatch):
    """A list that gains an item at each block step (_append_reduced call)."""
    import prymrep.foxcover as fc

    steps, append = [], fc._append_reduced
    monkeypatch.setattr(fc, "_append_reduced",
                        lambda out, block: steps.append(1) or append(out, block))
    return steps


def test_certificate_is_walked_once(monkeypatch):
    # a random_member composite carries the pass of its moves and walks
    # nothing; the same words built afresh walk each inverse image once
    rng = random.Random(45)
    for g in (2, 3, 5):
        phi = random_member(rng, g, 5, 12)
        fresh = Endo(phi.images, phi.inverse_images)
        calls = _spy_walks(monkeypatch)
        for e in (phi, fresh, phi, fresh):
            assert check_member(e, 5)
            eta_chain(e, 5, g)
            eta_fox(e, 5, g)
        monkeypatch.undo()
        assert calls == list(phi.inverse_images)


def _fresh(phi):
    """phi built afresh from its words, so its certificate is walked."""
    fresh = Endo(phi.images, phi.inverse_images)
    assert "_certificate_failure" not in vars(fresh)
    return fresh


@given(st.integers(2, 5), st.sampled_from((2, 3, 5)), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_carried_certificate_is_the_walked_one(g, d, seed):
    # compose and inverse carry a pass unwalked: a fresh walk of the same
    # words must pass too and give the same verdict
    rng = random.Random(seed)
    a, b = random_member(rng, g, d, 6), random_member(rng, g, d, 6)
    for x in (a, b, a.inverse(), a.compose(b), b.compose(a).inverse()):
        assert vars(x).get("_certificate_failure") == 0
        fresh = _fresh(x)
        assert fresh._certificate_failure == 0
        assert check_member(x, d) == check_member(fresh, d)


def test_a_failing_or_unread_certificate_is_not_carried(monkeypatch):
    # a composite carries a pass only when both operands pass; an inverse
    # carries only a cached pass, and walks nothing to find one
    images = tuple((i,) for i in range(1, 4))
    bad, ident = Endo(images, ((2, 1, -2),) + images[1:]), Endo.identity(3)
    calls = _spy_walks(monkeypatch)
    inv = bad.inverse()
    assert calls == [] and "_certificate_failure" not in vars(inv)
    monkeypatch.undo()
    assert not check_member(bad, 5)
    for e in (bad.compose(ident), ident.compose(bad), bad.inverse(), inv):
        assert "_certificate_failure" not in vars(e)
        assert check_member(e, 5) == check_member(_fresh(e), 5)
        assert not check_member(e, 5)


def _over_budget_composite():
    """(x2 -> x2 x1^150) o (x1 -> x2^750 x1), two powers of adapted Nielsen
    moves at d = 5, built in a few ms: their certificates walk 302 and 1502
    letters, the composite's 34,201,802."""
    a = Endo(((1,), (2,) + (1,) * 150), ((1,), (2,) + (-1,) * 150))
    b = Endo(((2,) * 750 + (1,), (2,)), ((-2,) * 750 + (1,), (2,)))
    assert check_member(a, 5) and check_member(b, 5)
    return a.compose(b)


def test_an_over_budget_composite_is_certified_by_construction():
    # the composite of two certified automorphisms is one: check_member
    # answers without the walk that a rebuilt Endo of its words refuses
    start = perf_counter()
    ab = _over_budget_composite()
    assert ab._certificate_walk() > MAX_LETTERS
    assert check_member(ab, 5) and check_member(ab.inverse(), 5)
    assert perf_counter() - start < 1.0
    rebuilt = Endo(ab.images, ab.inverse_images)
    with pytest.raises(ValueError, match=r"^inverse certificate walks \d+ letters, "
                                         r"over the budget of 10000000$"):
        check_member(rebuilt, 5)
    # compose reads no certificate past the budget: it neither raises nor carries
    for e in (rebuilt.compose(Endo.identity(2)), rebuilt.inverse()):
        assert "_certificate_failure" not in vars(e)
        with pytest.raises(ValueError, match="over the budget"):
            check_member(e, 5)


def test_failing_certificate_walks_one_word(monkeypatch):
    # the walk is lazy: a certificate that fails at x_1 walks psi(x_1) alone
    images = tuple((i,) for i in range(1, 6))
    phi = Endo(images, ((2, 1, -2),) + images[1:])
    calls = _spy_walks(monkeypatch)
    assert check_member(phi, 5).reason == \
        "inverse certificate fails: phi(psi(x1)) does not reduce to x1"
    assert calls == [(2, 1, -2)]


def _reduced_word(rng, letters, n, j):
    """A random reduced word of n letters from letters[j], letters[k ^ 1]
    the inverse of letters[k]: each step moves past the last one's inverse."""
    m = len(letters)
    steps = rng.choices(range(1, m), k=n - 1)
    return tuple(map(letters.__getitem__, accumulate(
        steps, lambda k, o: ((k ^ 1) + o) % m, initial=j)))


def _pair_words(rng, letters, g, k):
    """g reduced words of k letter pairs each, no pair used twice: each word
    takes, in shuffled order, the next pair whose first letter does not
    cancel its last.  Raises StopIteration at a dead end."""
    pool = [(s, t) for s in letters for t in letters if t != -s]
    rng.shuffle(pool)
    words = []
    for _ in range(g):
        w = ()
        for _ in range(k):
            w += pool.pop(next(j for j, p in enumerate(pool) if not w or p[0] != -w[-1]))
        words.append(w)
    return words


def _budget_probe(g, rng):
    """An Endo of rank g whose certificate walks nearly MAX_LETTERS letters
    and fails at x_1: random reduced images of one length, and reduced
    inverse images of k letter pairs each, no pair used twice (_pair_words).
    Every word is stored as drawn, and phi(x_i) starts and ends with x_i, so
    no two images laid end to end cancel: the budget is the walk, letter for
    letter."""
    letters = [s for i in range(1, g + 1) for s in (i, -i)]
    k = min(2 * (2 * g - 1), 40)  # (2g)(2g - 1) pairs, k per inverse image
    while True:
        try:
            inverse = _pair_words(rng, letters, g, k)
            break
        except StopIteration:
            pass
    n = MAX_LETTERS // (2 * k * g)

    def image(i):
        while (w := _reduced_word(rng, letters, n - 1, 2 * i - 2))[-1] == -i:
            pass
        return w + (i,)

    phi = Endo(tuple(map(image, range(1, g + 1))), inverse)
    assert phi.inverse_images == tuple(inverse) and set(map(len, phi.images)) == {n}
    return phi


@pytest.mark.parametrize("g", [2, 5, 127])
def test_budget_certificate_stops_at_the_first_failure(g):
    # a budget-size walk, one block step per inverse-image letter, must
    # stop at x_1, fast and small
    phi = _budget_probe(g, random.Random(g))
    assert 0.99 * MAX_LETTERS < phi._certificate_walk() <= MAX_LETTERS
    tracemalloc.start()
    start = perf_counter()
    try:
        assert phi._certificate_failure == 1
        seconds, peak = perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 2.0 and peak < 8 * 2**20, (seconds, peak)
    # the stored words are reduced and no join cancels: the budget is the walk
    assert sum(map(len, phi._walks(phi.inverse_images))) == phi._certificate_walk()


@pytest.mark.parametrize("g, mib", [(127, 8), (31, 2)])
def test_letter_walk_of_a_long_word_stays_small(g, mib, monkeypatch):
    # a random 10^5-letter word takes one block step per letter, 100,000 in
    # all, and its walk peaks at about 0.14 MiB at rank 127 and 0.11 MiB at
    # rank 31
    letters = [s for i in range(1, g + 1) for s in (i, -i)]
    w = _reduced_word(random.Random(g), letters, 10**5, 0)
    gens = tuple((i,) for i in range(1, g + 1))
    phi = Endo(gens, (w,) + gens[1:])
    tracemalloc.start()
    try:
        assert phi._certificate_failure == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20, peak
    steps = _spy_steps(monkeypatch)
    assert tuple(next(phi._walks(phi.inverse_images))) == w
    assert len(steps) == 10**5


def test_identity_certificate_is_linear_in_the_rank():
    # the budget is one pass over the inverse-image letters: a count per
    # generator per inverse image took 3.3 s or more at rank 5000
    phi = Endo.identity(4096)
    start = perf_counter()
    assert check_member(phi, 5)
    assert perf_counter() - start < 0.5


def test_no_walk_leaves_state_on_the_endo():
    # apply, compose and the certificate each walk with blocks of their
    # own: an Endo keeps its two word lists and the certificate's outcome
    rng = random.Random(7)
    phi, psi = random_member(rng, 3, 5, 6), random_member(rng, 3, 5, 6)
    phi.apply((1, -2, 3, 3))
    phi.compose(psi)
    psi.compose(phi)
    assert check_member(phi, 5) and check_member(psi, 5)
    for e in (phi, psi):
        assert set(vars(e)) == {"images", "inverse_images", "_certificate_failure"}


def test_eta_rejects_non_members():
    bad = Endo(((1, 2), (2,)), ((1, -2), (2,)))
    with pytest.raises(ValueError):
        eta_chain(bad, 3, 2)
    with pytest.raises(ValueError):
        eta_fox(bad, 3, 2)
    # x1 -> x2 x1 is an automorphism, its certificate passes, but it opens
    # the closed lift of x1: check_member refuses it before either route lifts
    outside = Endo(((2, 1), (2,)), ((-2, 1), (2,)))
    assert outside._certificate_failure == 0
    for route in (eta_chain, eta_fox, eta):
        with pytest.raises(ValueError, match=r"^endomorphism is not in the covering-preserving "
                           r"group: x2-exponent of phi\(x1\) is 1, not 0 mod 5$"):
            route(outside, 5, 2)


def test_nielsen_moves_are_members():
    for g in (2, 3, 4):
        for d in (2, 3, 5):
            for mv in adapted_nielsen_moves(g, d):
                assert check_member(mv, d), (g, d, mv)
                assert check_member(mv.inverse(), d)


def test_dual_oracle_on_random_composites():
    rng = random.Random(41)
    for d in (2, 4, 7):
        for g in (2, 3, 4):
            for _ in range(10):
                phi = random_member(rng, g, d)
                mc = eta_chain(phi, d, g)
                assert mc == eta_fox(phi, d, g)
                assert unit_exponent(mc.det()) is not None


def test_oracle_outputs_are_pinned():
    """SHA-256 of the eta matrices and of the composed words over seeded
    random members: any change to apply, compose or either route shows."""
    mats, words = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(47)
    for d in (2, 3, 5, 12):
        for g in (2, 3, 5):
            for _ in range(4):
                phi = random_member(rng, g, d, 12)
                m = eta_chain(phi, d, g)
                assert m == eta_fox(phi, d, g)
                mats.update(m.to_text().encode() + b"\n")
                for w in phi.images + phi.inverse_images:
                    words.update(render_free_word(w).encode() + b"\n")
    assert mats.hexdigest() == \
        "d16d8e62334ebb51dbc4b1252f22ba621544df8a515ce07bbccab92c22cf6986"
    assert words.hexdigest() == \
        "bfc1045b5f5a93eb0ea07439da1e6f2e67e30e7ebffcc1ce39162181050e7b71"


def test_eta_multiplicative():
    rng = random.Random(42)
    for d in (3, 5):
        for g in (2, 4):
            for _ in range(5):
                a = random_member(rng, g, d)
                b = random_member(rng, g, d)
                assert eta_chain(a.compose(b), d, g) == \
                    eta_chain(a, d, g) * eta_chain(b, d, g)


def test_apply_inverts_each_image_once(monkeypatch):
    import prymrep.foxcover as fc

    rng = random.Random(44)
    phi, psi = random_member(rng, 3, 5), random_member(rng, 3, 5)
    w = (-1, -1, 2, -2, -1, 3, -3, -3, 1, -2)
    want = free_reduce(sum((phi.images[s - 1] if s > 0
                            else word_inv(phi.images[-s - 1]) for s in w), ()))
    calls = []
    monkeypatch.setattr(fc, "word_inv", lambda v: calls.append(v) or word_inv(v))
    assert phi.apply(w) == want
    assert len(calls) == 3  # once for each generator with an inverse letter
    assert phi.compose(psi).apply(w) == phi.apply(psi.apply(w))


def test_deck_conjugation_is_scalar():
    for d in (2, 5, 8):
        for g in (2, 3, 5):
            m = eta_chain(deck_conjugation(g), d, g)
            assert m == RingMatrix.identity(d, g - 1) * zeta_pow(d, 1)


def test_lambda_dropping_is_sound():
    # x_i -> x_g^d x_i has eta = Id even though the lift winds through lambda,
    # and composing it with anything must not disturb multiplicativity
    rng = random.Random(43)
    d, g = 3, 3
    winding = Endo((tuple([3] * 3 + [1]), (2,), (3,)),
                   (tuple([-3] * 3 + [1]), (2,), (3,)))
    assert check_member(winding, d)
    assert eta_chain(winding, d, g) == RingMatrix.identity(d, g - 1)
    for _ in range(5):
        psi = random_member(rng, g, d)
        assert eta_chain(winding.compose(psi), d, g) == eta_chain(psi, d, g)


def test_eta_realizes_catalogue_lower_right_blocks():
    # explicit automorphisms whose eta matrices match the lower-right blocks
    # of catalogue elements: conjugation of x_i by x_g gives T_H(i)'s block,
    # the swap of x_1 and x_i gives A_H(i)'s block
    from prymrep.generators import TH, big_T, conj_AH
    for d in (3, 4, 7):
        for g in (2, 3, 4):
            for i in range(1, g):
                images = [(m,) for m in range(1, g + 1)]
                invs = [(m,) for m in range(1, g + 1)]
                images[i - 1] = (g, i, -g)
                invs[i - 1] = (-g, i, g)
                phi = Endo(tuple(images), tuple(invs))
                assert eta_chain(phi, d, g) == TH(g, d, i).lower_right()
                if i == 1:
                    assert eta_chain(phi, d, g) == big_T(g, d).lower_right()
            for i in range(2, g):
                images = [(m,) for m in range(1, g + 1)]
                images[0], images[i - 1] = (i,), (1,)
                phi = Endo(tuple(images), tuple(images))
                assert eta_chain(phi, d, g) == conj_AH(g, d, i).lower_right()


def test_endo_text_round_trip():
    images = parse_endo_images("x1 -> x2 x1 x2^-1 ; x2 -> x2", 2)
    assert images == ((2, 1, -2), (2,))
    w = parse_free_word("x2^-2 x1 x2", 2)
    assert w == (-2, -2, 1, 2)
    assert parse_free_word(render_free_word(w), 2) == w
    assert render_free_word(()) == "1"
    with pytest.raises(ValueError):
        parse_free_word("x9", 2)
    assert parse_free_word("x1^100000", 2) == (1,) * 100000  # linear expansion
    start = perf_counter()
    assert len(parse_free_word("x1 x2 " * 50000 + " \t", 2)) == 100000  # linear scan
    assert perf_counter() - start < 2.0
    with pytest.raises(ValueError, match="budget"):
        parse_free_word(f"x1 x2^{MAX_LETTERS}", 2)
    with pytest.raises(ValueError):
        parse_endo_images("x1 - x2", 2)
    assert parse_endo_images("x1 -> x2 ; ; x2 -> x2", 2) == ((2,), (2,))  # empty rule skipped


def _token_start(text, i):
    """The start of the run of non-blank characters that holds text[i], or,
    if text[i] is blank, of the run just before it (0 if there is none)."""
    head = text[:i + 1].rstrip()
    return len(head) - len(head.split()[-1]) if head else 0


@given(st.integers(2, 4), st.sampled_from((2, 3, 5)), st.integers(0, 2**32), st.data())
@settings(max_examples=200, deadline=None)
def test_a_corrupted_map_parses_or_says_where_in_the_text(g, d, seed, data):
    # one character of a valid map, changed: the parse succeeds, or refuses
    # a letter budget, or raises a ParseError that carries the whole input and
    # points into it, not before the token that holds the changed character
    images = random_member(random.Random(seed), g, d).images
    text = " ; ".join(f"x{i} -> {render_free_word(w)}" for i, w in enumerate(images, start=1))
    i = data.draw(st.integers(0, len(text) - 1))
    ch = data.draw(st.sampled_from("x1359^-> ;\t") | st.characters())
    text = text[:i] + ch + text[i + 1:]
    try:
        parse_endo_images(text, g)
    except ParseError as exc:
        assert exc.text is text and _token_start(text, i) <= exc.pos <= len(text)
    except ValueError as exc:
        assert re.fullmatch(r"(free word expands past|the rules of a map store more than) "
                            r"the budget of \d+ letters", str(exc))


@pytest.mark.parametrize("letter", [0, 3, -3])
def test_endo_rejects_letters_outside_the_rank(letter):
    with pytest.raises(ValueError, match=f"letter {letter} is not a generator of rank 2"):
        Endo(((1, letter), (2,)), ((1,), (2,)))
    with pytest.raises(ValueError, match=f"letter {letter} is not a generator of rank 2"):
        Endo(((1,), (2,)), ((1,), (letter, 2)))
    with pytest.raises(ValueError, match=f"letter {letter} is not a generator of rank 2"):
        Endo.identity(2).apply((1, letter))


@pytest.mark.parametrize("call, message", [
    (lambda: Endo(((1,), (2,)), ((1,),)), "images and inverse_images must have equal length"),
    (lambda: Endo.identity(2).compose(Endo.identity(3)), "rank mismatch"),
    (lambda: eta_chain(Endo.identity(3), 5, 2), "rank mismatch"),
    (lambda: parse_free_word("x1 y2", 2), "bad free word at position 3: 'x1 y2'"),
    (lambda: parse_endo_images("x3 -> x1", 2),
     "generator x3 out of range for rank 2 at position 0: 'x3 -> x1'"),
    (lambda: parse_endo_images("x1 x2 -> x1", 2), "expected '->' at position 3: 'x1 x2 -> x1'"),
    (lambda: parse_endo_images("x1 -> x2 ; x2 -> x1 ; x1 -> x1", 2),
     "generator x1 is mapped twice at position 22: 'x1 -> x2 ; x2 -> x1 ; x1 -> x1'"),
])
def test_endo_refusals(call, message):
    # a refusal of the text itself is a ParseError at its position there
    with pytest.raises(ValueError) as exc:
        call()
    kind = ParseError if "at position" in message else ValueError
    assert exc.type is kind and str(exc.value) == message


def test_parse_budget_counts_letters_before_reduction():
    with pytest.raises(ValueError, match="budget"):
        parse_free_word(f"x1^5 x1^-5 x2^{MAX_LETTERS - 9}", 2)


def test_map_budget_sums_the_stored_letters_of_its_rules(monkeypatch):
    # each rule fits the budget on its own; the map is refused once its
    # reduced words, summed over the rules, pass it
    import prymrep.foxcover as fc

    monkeypatch.setattr(fc, "MAX_LETTERS", 100)
    assert parse_endo_images("x1 -> x1^40 ; x2 -> x2^40 ; x3 -> x3^20", 3) == (
        (1,) * 40, (2,) * 40, (3,) * 20)
    # a run that cancels counts the letters it stores, not those it parses
    assert parse_endo_images("x1 -> x1^60 x1^-30 ; x2 -> x2^70", 3)[:2] == ((1,) * 30, (2,) * 70)
    with pytest.raises(ValueError) as exc:
        parse_endo_images("x1 -> x1^40 ; x2 -> x2^40 ; x3 -> x3^21", 3)
    assert str(exc.value) == "the rules of a map store more than the budget of 100 letters"


def test_refused_map_builds_no_word_tuple():
    # the second near-budget rule passes the map budget: the two rules are
    # refused as arrays of letters, where tuples of them peaked at 162.7 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            parse_endo_images("x1 -> x1^9999999 ; x2 -> x2^9999999 ; x3 -> x3^9999999", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "the rules of a map store more than the budget of 10000000 letters"
    assert peak < 48 * 2**20


def test_parse_refuses_long_integers_before_int():
    big = "9" * (MAX_DIGITS + 1)
    for text in (f"x1^{big}", f"x1^-{big}", f"x{big}"):
        with pytest.raises(ValueError, match=f"budget MAX_DIGITS = {MAX_DIGITS}$"):
            parse_free_word(text, 2)
    with pytest.raises(ValueError, match=f"budget MAX_DIGITS = {MAX_DIGITS}$"):
        parse_endo_images(f"x{big} -> x1", 2)


def _words(g, max_size=30):
    letters = st.integers(1, g).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letters, max_size=max_size).map(tuple)


@st.composite
def _endo_and_word(draw):
    """Unreduced images and an unreduced input word, any g in 1..4."""
    g = draw(st.integers(1, 4))
    images = tuple(draw(_words(g, 12)) for _ in range(g))
    return Endo(images, images), draw(_words(g))


@given(_endo_and_word())
def test_apply_is_word_mul_of_the_images(case):
    phi, w = case
    images = [phi.images[s - 1] if s > 0 else word_inv(phi.images[-s - 1]) for s in w]
    assert phi.apply(w) == word_mul(*images)


# generators whose letters sit at the byte boundaries of 1-, 2- and 8-byte letters
_BOUNDARY = (1, 2, 3, 4, 127, 128, 255, 256, 257, 258, 32767, 32768, 32769)


@st.composite
def _wide_endo_and_words(draw):
    """An Endo of rank 127, 128, 258 or 2^15 + 1 whose boundary generators
    have unreduced images in the boundary letters, and unreduced input words
    (several per Endo, as building the blocks of rank 2^15 + 1 is slow)."""
    g = draw(st.sampled_from((127, 128, 258, 2**15 + 1)))
    gens = [i for i in _BOUNDARY if i <= g]
    letters = st.sampled_from(gens).flatmap(lambda i: st.sampled_from((i, -i)))
    images = [(i,) for i in range(1, g + 1)]
    for i in gens:
        images[i - 1] = tuple(draw(st.lists(letters, max_size=12)))
    words = st.lists(st.lists(letters, max_size=30).map(tuple), min_size=1, max_size=4)
    return Endo(tuple(images), tuple(images)), draw(words)


@given(_wide_endo_and_words())
@settings(max_examples=20, deadline=None)
def test_apply_is_word_mul_at_the_byte_boundaries(case):
    # a cancellation is counted in whole letters from the XOR of two byte
    # strings, so a letter that differs from another in one byte only must
    # still stop it, for 1-byte letters below rank 2^7, 2-byte ones below
    # rank 2^15 and 8-byte ones above
    phi, words = case
    for w in words:
        images = [phi.images[s - 1] if s > 0 else word_inv(phi.images[-s - 1]) for s in w]
        assert phi.apply(w) == word_mul(*images)
        text = " ".join(f"x{abs(s)}^{1 if s > 0 else -1}" for s in w)
        assert parse_free_word(text, phi.g) == free_reduce(w)


@st.composite
def _endo_and_repeating_words(draw):
    """An Endo of rank 2, 5, 127, 128 or 2^15 +- 1 whose boundary generators
    and x_g have unreduced images in those letters, and unreduced input words
    over at most four of them, so that letters repeat within a word and
    across words."""
    g = draw(st.sampled_from((2, 5, 127, 128, 2**15 - 1, 2**15 + 1)))
    gens = sorted({i for i in _BOUNDARY if i <= g} | {g})
    letters = st.sampled_from(gens).flatmap(lambda i: st.sampled_from((i, -i)))
    images = [(i,) for i in range(1, g + 1)]
    for i in gens:
        images[i - 1] = tuple(draw(st.lists(letters, max_size=12)))
    alphabet = st.sampled_from(draw(st.lists(letters, min_size=1, max_size=4)))
    words = st.lists(st.lists(alphabet, max_size=40).map(tuple), min_size=1, max_size=4)
    return Endo(tuple(images), tuple(images)), draw(words)


# every letter pair of rank 2, and every letter quad, laid end to end in two
# orders: a letter block kept under another letter's key, or a letter and its
# inverse given each other's block, would show in the first or second word.
# The examples walk them at ranks 2 and 8
_ALL_PAIRS = [(s, t) for s in (1, -1, 2, -2) for t in (1, -1, 2, -2)]
_ALL_QUADS = [p + q for p in _ALL_PAIRS for q in _ALL_PAIRS]


@given(_endo_and_repeating_words())
@example((Endo(((1, 2), (2,)), ((1, 2), (2,))),
          [sum(_ALL_PAIRS, ()), sum(reversed(_ALL_PAIRS), ())]))
@example((Endo(((1, 2), (2,)), ((1, 2), (2,))),
          [sum(_ALL_QUADS, ()), sum(reversed(_ALL_QUADS), ())]))
@example((Endo(((1, 2), (2, 1, 2)) + tuple((i,) for i in range(3, 9)), Endo.identity(8).images),
          [sum(_ALL_QUADS, ()), sum(reversed(_ALL_QUADS), ())]))
@settings(max_examples=40, deadline=None)
def test_walks_is_word_mul_of_the_images(case):
    # one walk builds a letter's block, with its inverse's, the first time
    # it meets the letter and keeps both for the words after
    phi, words = case
    want = [word_mul(*(phi.images[s - 1] if s > 0 else word_inv(phi.images[-s - 1])
                       for s in w)) for w in words]
    assert [tuple(w) for w in phi._walks(words)] == want


def test_blocks_are_built_per_letter(monkeypatch):
    # a walk builds the block of a letter, with its inverse's, when it first
    # meets it: three generators at rank 2^15 + 1 invert three images, not
    # 2^15 + 1, and a bad letter is refused before any is inverted
    import prymrep.foxcover as fc

    phi = Endo.identity(2**15 + 1)
    inverted = []
    monkeypatch.setattr(fc, "word_inv", lambda w: inverted.append(tuple(w)) or word_inv(w))
    assert phi.apply((1, -5, 32769, -1, 5)) == (1, -5, 32769, -1, 5)
    assert inverted == [(1,), (5,), (32769,)]
    with pytest.raises(ValueError, match=r"^letter 32770 is not a generator of rank 32769$"):
        phi.apply((1, 32770))
    assert len(inverted) == 3


def test_each_letter_is_one_block_step(monkeypatch):
    # 50 copies of x1 x2 x3 x2 and a tail of 0, 2 or 3 letters: each letter,
    # repeated or not, is one block step, and building a block takes none
    steps = _spy_steps(monkeypatch)
    phi = Endo.identity(3)
    for tail in (), (1, 2), (1, 2, 3):
        steps.clear()
        w = (1, 2, 3, 2) * 50 + tail
        assert phi.apply(w) == w
        assert len(steps) == 200 + len(tail)


@given(st.integers(2, 6).flatmap(lambda g: st.tuples(
    st.lists(_words(g, 20), min_size=g, max_size=g),
    st.lists(_words(g, 20), min_size=g, max_size=g))))
@settings(max_examples=40)
def test_certificate_walk_is_the_length_of_the_image_letters(case):
    # the certificate walks, for each letter +-i of the reduced inverse
    # images, the reduced image of x_i: its budget is the length of those
    # images laid end to end
    phi = Endo(*case)
    assert phi._certificate_walk() == len(
        sum((phi.images[abs(s) - 1] for w in phi.inverse_images for s in w), ()))


def test_cancelling_parse_stays_small():
    # two near-budget runs that cancel: the parse holds a few copies of one
    # run in 2-byte letters, not a dozen in 8-byte ones (193 MiB before)
    tracemalloc.start()
    try:
        w = parse_free_word("x1^4999990 x2 x2^-1 x1^-4999990 x2", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == (2,)
    assert peak < 128 * 2**20


@given(st.integers(1, 3).flatmap(lambda g: st.tuples(st.just(g), _words(g, 40))))
def test_parse_free_word_is_free_reduce_of_the_runs(case):
    g, w = case
    runs = []
    for s in w:
        if runs and runs[-1][0] == abs(s):
            runs[-1][1] += 1 if s > 0 else -1
        else:
            runs.append([abs(s), 1 if s > 0 else -1])
    text = " ".join(f"x{i}^{e}" for i, e in runs)
    assert parse_free_word(text, g) == free_reduce(
        sum((word_pow((i,), e) for i, e in runs), ()))


@given(_words(5, 60), st.integers(-6, 6))
def test_exponent_sum_is_the_signed_count(w, i):
    assert exponent_sum(w, i) == sum(1 if s == i else -1 if s == -i else 0 for s in w)


@given(st.sampled_from((2, 3, 5, 12)), st.integers(2, 5), st.data())
@settings(max_examples=60)
def test_coefficient_vector_matches_the_zeta_power_sums(d, g, data):
    terms = data.draw(st.dictionaries(_words(g, 20), st.integers(-9, 9), max_size=12))
    want = zero(d)
    for w, c in terms.items():
        want = want + zeta_pow(d, sum(1 if s == g else -1 if s == -g else 0 for s in w)) * c
    assert eps_eval(terms, d, g) == want
    loops = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d),
                               min_size=g - 1, max_size=g - 1))
    want = []
    for row in loops:
        acc = zero(d)
        for c, coeff in enumerate(row):
            acc = acc + zeta_pow(d, c) * coeff
        want.append(acc)
    assert [_reduce_poly(d, row) for row in loops] == [w.coeffs for w in want]


@given(st.sampled_from((2, 3, 4, 5, 12)), st.integers(2, 5), st.data())
@settings(max_examples=200)
def test_fox_column_is_eps_of_the_fox_derivatives(d, g, data):
    # unreduced words, with any x_g-exponent: the walk needs no closed path
    w = data.draw(_words(g, 60))
    assert _fox_column(w, d, g) == [eps_eval(fox_derivative(w, i), d, g).coeffs
                                    for i in range(1, g)]


def test_eta_routes_build_no_ring_elements(monkeypatch):
    # both routes reduce integer rows to coefficient tuples and build their
    # matrix from those, so neither route nor eta's comparison makes a CycInt
    cases = [(phi, d, g) for d, g in ((2, 2), (5, 3), (12, 5))
             for phi in [random_member(random.Random(seed), g, d) for seed in range(4)]
             + [deck_conjugation(g)]]
    built = record_ring_elements(monkeypatch)
    for phi, d, g in cases:
        eta(phi, d, g), eta_chain(phi, d, g), eta_fox(phi, d, g)
    assert built == []


def test_eta_fox_forms_no_derivative():
    # the formal derivative lives with the tests, as eta_fox's oracle: the
    # package defines none, so eta_fox cannot form one
    import prymrep
    import prymrep.foxcover as fc

    assert not hasattr(fc, "fox_derivative") and not hasattr(prymrep, "fox_derivative")
    phi = random_member(random.Random(5), 3, 4, 8)
    assert eta_fox(phi, 4, 3) == eta(phi, 4, 3)


@pytest.mark.parametrize("route", [eta_chain, eta_fox, eta])
def test_rank_one_rejected_before_any_walk(route):
    # at rank 1 there is no column to build, so the guard fires before
    # either route walks, with the message adapted_nielsen_moves uses
    with pytest.raises(ValueError, match=r"^rank must be >= 2$"):
        route(Endo.identity(1), 3, 1)


_LETTER_PROBES = [
    ((1.0,), r"^free-word letters must be integers$"),
    ((True,), r"^free-word letters must be integers$"),
    ((1, True), r"^free-word letters must be integers$"),
    (("a", 1), r"^free-word letters must be integers$"),
    ((0,), r"^letter 0 is not a generator of rank 2$"),
    ((1, -3), r"^letter -3 is not a generator of rank 2$"),
    ((5, 2), r"^letter 5 is not a generator of rank 2$"),
    # letters are checked before reduction, so a bad letter cannot cancel away
    ((1, -1.0), r"^free-word letters must be integers$"),
    ((1, True, -1), r"^free-word letters must be integers$"),
]


@pytest.mark.parametrize("word,message", _LETTER_PROBES)
def test_apply_refuses_a_bad_letter_whatever_is_cached(word, message):
    # the letter rule runs before the walk, and a walk leaves nothing on
    # phi, so the answer cannot depend on an earlier apply (1.0 and True
    # hash like 1)
    phi = Endo(((1,), (2,)), ((1,), (2,)))
    with pytest.raises(ValueError, match=message):
        phi.apply(word)
    assert phi.apply((1, 2, -1)) == (1, 2, -1)
    with pytest.raises(ValueError, match=message):
        phi.apply(word)
    assert set(vars(phi)) == {"images", "inverse_images"}


@pytest.mark.parametrize("word,message", _LETTER_PROBES)
def test_endo_and_lift_class_refuse_a_bad_letter(word, message):
    with pytest.raises(ValueError, match=message):
        Endo((word, (2,)), ((1,), (2,)))
    with pytest.raises(ValueError, match=message):
        Endo(((1,), (2,)), ((1,), word))
    with pytest.raises(ValueError, match=message):
        lift_class(word, 5, 2)


def test_lift_class_refuses_letter_zero():
    # unchecked, letter 0 would index loops[-1], a class of the wrong generator
    with pytest.raises(ValueError, match=r"^letter 0 is not a generator of rank 2$"):
        lift_class((0,), 5, 2)
    with pytest.raises(ValueError, match=r"^letter 5 is not a generator of rank 2$"):
        lift_class((5,), 5, 2)
    assert lift_class([1, 2, -1, -2], 5, 2) == CoverClass(((1, -1, 0, 0, 0),), 0)


def test_letter_rule_runs_once_per_entry(monkeypatch):
    # Endo checks every word it is given in one call, and apply and
    # lift_class their word; compose, inverse, the certificate walk and
    # both eta routes read checked words and check nothing again
    import prymrep.foxcover as fc

    calls = []
    check = fc._check_letters
    monkeypatch.setattr(fc, "_check_letters", lambda g, *ws: calls.append(len(ws)) or check(g, *ws))
    phi = Endo(((2, 1, -2), (2,)), ((-2, 1, 2), (2,)))
    assert calls == [4]
    psi = phi.compose(phi.inverse()).compose(phi)
    assert psi == phi and psi.inverse().inverse() == psi
    assert check_member(psi, 3) and eta(psi, 3, 2) == eta_chain(phi, 3, 2)
    assert calls == [4]
    assert phi.apply((1, 2)) == (2, 1)
    lift_class((2, 1, -2), 3, 2)
    assert calls == [4, 1, 1]


def test_apply_takes_any_iterable_of_letters():
    phi = conj_by_x2()
    assert phi.apply(iter((1, 2))) == phi.apply([1, 2]) == (2, 1)


def test_lift_class_takes_any_iterable_of_letters():
    # a one-shot iterator is read once, before the letter rule and the lift
    want = CoverClass(((0, 0, 0),), 0)
    assert lift_class(iter([1, -1]), 3, 2) == lift_class([1, -1], 3, 2) \
        == lift_class((1, -1), 3, 2) == want
    assert lift_class(iter((2, 1, -2)), 3, 2) == lift_class([2, 1, -2], 3, 2) \
        == lift_class((2, 1, -2), 3, 2)


def test_endo_stores_reduced_words():
    # an Endo is its map: words that reduce alike give equal Endos, and the
    # certificate budget counts the reduced letters it walks, not the
    # 10^7 + 2 letters the caller wrote
    ident = Endo.identity(2)
    long = Endo(((1, -1) * 5_000_000 + (1,), (2,)), ((1,), (2,)))
    assert long.images == ((1,), (2,)) and long._certificate_walk() == 2
    assert check_member(long, 3) == check_member(ident, 3)
    assert check_member(long, 3)
    short = Endo(((2, 1, -1, -2, 1), (2,)), ((1,), (2,)))
    assert short == ident and hash(short) == hash(ident)
    phi = Endo(((2, 1, 1, -1, -2), (2, -1, 1)), ((2, -1, -2), (-1, 1, 2)))
    assert phi.images == ((2, 1, -2), (2,)) and phi.inverse_images == ((2, -1, -2), (2,))
    assert phi == phi.compose(ident) == Endo(phi.images, phi.inverse_images)


@pytest.mark.parametrize("g", range(2, 7))
def test_deck_conjugation_matches_the_free_reduce_oracle(g):
    images = tuple(free_reduce((g, i, -g)) for i in range(1, g + 1))
    inverses = tuple(free_reduce((-g, i, g)) for i in range(1, g + 1))
    assert deck_conjugation(g) == Endo(images, inverses)
    assert deck_conjugation(g).images[g - 1] == (g,)

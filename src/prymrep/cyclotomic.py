"""Exact arithmetic in Z[zeta_d], the ring of integers of the d-th cyclotomic field.

Elements live in the power basis 1, zeta, ..., zeta^(phi(d)-1), reduced modulo
the d-th cyclotomic polynomial Phi_d, so the representation is canonical and
ring equality is literal tuple equality.  Coefficients are arbitrary-precision
Python integers; nothing in this module touches floating point.

The module also owns the package's ring-literal grammar, read in place one
term per regex match; every part of the term pattern is optional, so the match
that stops short names the error and its position.  In EBNF, with whitespace
allowed between any two tokens:

    literal := [ sign ] term { sign term }        sign := "+" | "-"
    term    := INT [ [ "*" ] "z" [ "^" INT ] ] | "z" [ "^" INT ]

INT is a run of decimal digits, so ``2z`` and ``-z^2 + 3`` are literals and
``z^-1`` is not.  An exponent is at most MAX_EXPONENT, a modulus at most MAX_D,
and an INT of either grammar has at most MAX_DIGITS digits.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd
from operator import index

MAX_D = 1000  # largest modulus; _power_table(997) and _units(997) hold about 2 * 10**6 ints
MAX_EXPONENT = 10**5  # largest exponent of z in a ring literal
MAX_DIGITS = 4000  # longest integer in text; below int()'s own limit of 4300
MAX_PRINT_DIGITS = 4300  # longest integer rendered as text; int()'s own limit
MAX_ECHO = 240  # longest repr, less its quotes, of a text a ParseError quotes whole
_PRINT_BOUND = 10**MAX_PRINT_DIGITS
_LONG = f"integer of {{}} digits is over the budget MAX_DIGITS = {MAX_DIGITS}"


class ParseError(ValueError):
    """Syntax error in a text input; carries the message, the whole text and
    the offending position in it.  The text is quoted whole while its repr
    fits in MAX_ECHO + 2 characters; otherwise as the 200 characters around
    pos, halved until their repr fits, with '...' where it is cut."""

    def __init__(self, message, text, pos):
        lo, hi, size = 0, len(text), 400
        while hi - lo > MAX_ECHO or len(repr(text[lo:hi])) > MAX_ECHO + 2:
            size //= 2
            lo = max(0, min(pos - size // 2, len(text) - size))
            hi = lo + size
        super().__init__(f"{message} at position {pos}: {'...' * (lo > 0)}{text[lo:hi]!r}"
                         f"{'...' * (hi < len(text))}")
        self.message, self.text, self.pos = message, text, pos


_SPACE = re.compile(r"\s*")


def _int(token):
    """int(token) for an optional "-" and decimal digits; more than
    MAX_DIGITS digits are refused before int() runs."""
    digits = len(token.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(_LONG.format(digits))
    return int(token)


def _ints(values, what):
    """values as a tuple of ints; anything else is refused, not truncated,
    and so is a bool, which is not read as 0 or 1."""
    values = tuple(values)
    if {*map(type, values)} <= {int}:  # the common case, with no copy
        return values
    if bool not in map(type, values):
        try:
            return tuple(map(index, values))
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers")


@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    # every ring operation asks for phi(d) before its O(d) loops and tables,
    # so the modulus rules are stated here once; the integer clause is _ints'
    if _ints((d,), "moduli")[0] < 2:
        raise ValueError("modulus d must be >= 2")
    if d > MAX_D:
        raise ValueError(f"modulus d = {d} is over the budget MAX_D = {MAX_D}")
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _same_modulus(d, other):
    """The rule that an operand of modulus `other` met at modulus d shares it."""
    if other != d:
        raise ValueError(f"modulus mismatch: d={d} vs d={other}")


def _poly_trim(coeffs):
    """Coefficients with no trailing 0, (0,) for 0; a canonical tuple is not copied."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs if n == len(coeffs) else coeffs[:n]) or (0,)


def _poly_divmod_monic(num, den):
    """Divide integer polynomials, den monic.  Returns (quotient, remainder)."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c:
            q[k] = c
            for j, y in enumerate(den):
                num[k + j] -= c * y
    return q, _poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, constant term first, monic of degree phi(d)."""
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num, rem = _poly_divmod_monic(num, cyclotomic_poly(e))
            assert rem == (0,)
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(d: int) -> tuple[tuple[int, ...], ...]:
    """x^m mod Phi_d for m = 0 .. d-1, rows of length phi(d)."""
    phi = euler_phi(d)
    mod = cyclotomic_poly(d)
    rows = []
    cur = [1] + [0] * (phi - 1)
    rows.append(tuple(cur))
    for _ in range(d - 1):
        lead = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if lead:
            for j in range(phi):
                nxt[j] -= lead * mod[j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_powers(d: int):
    """zeta^m for m = 0 .. d-1 as its nonzero (index, coefficient) pairs."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in _power_table(d))


def _reduce_poly(d, coeffs):
    """Reduce an integer polynomial (constant first, any degree) mod Phi_d."""
    phi = euler_phi(d)
    out = list(coeffs[:phi])
    out += [0] * (phi - len(out))
    for m in range(phi, len(coeffs)):
        c = coeffs[m]
        if c:
            # Phi_d divides x^d - 1, so x^m = x^(m mod d) in the quotient.
            for j, y in _sparse_powers(d)[m % d]:
                out[j] += c * y
    return tuple(out)


def _mul_reduce(d, a, b, c=(), e=()):
    """a*b - c*e for reduced coefficient tuples: one convolution, reduced
    mod Phi_d once."""
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(e):
                if y:
                    conv[i + j] -= x * y
    return _reduce_poly(d, conv)


def _monomial_map(d, coeffs, k, j=0):
    """The coefficients of the sum of c_m zeta^(k*m + j): the Galois map
    sigma_k, zeta -> zeta^k (k coprime to d), then the rotation by zeta^j."""
    rows = _sparse_powers(d)
    out = [0] * len(coeffs)
    for m, c in enumerate(coeffs):
        if c:
            for t, y in rows[(k * m + j) % d]:
                out[t] += c * y
    return tuple(out)


def _conj(d, coeffs):
    """Complex conjugation, zeta -> zeta^(d-1), on a coefficient tuple."""
    return _monomial_map(d, coeffs, -1) if any(coeffs[1:]) else coeffs


@lru_cache(maxsize=None)
def _units(d: int):
    """(sign, k) by the coefficient tuple of each sign * zeta^k; for even d,
    where -zeta^k = zeta^(k + d/2), the sign +1."""
    table = _power_table(d)
    units = {tuple(-c for c in table[k]): (-1, k) for k in range(d)}
    units.update((table[k], (1, k)) for k in range(d))
    return units


def _power(base, e, unit, check=None):
    """base ** e by binary powering from the top bit, of base.inverse() for
    e < 0, with no product wasted: e = 1 costs none, e = 2 one and e = 3 two.
    unit() is the e = 0 result; check, if given, sees each step's power."""
    if e < 0:
        base, e = base.inverse(), -e
    if e == 0:
        return unit()
    result = base
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
        if check:
            check(result)
    return result


class CycInt:
    """An element of Z[zeta_d]; ``coeffs[m]`` is the coefficient of zeta^m."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs):
        phi = euler_phi(d)
        coeffs = _ints(coeffs, "coefficients")
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for d={d}, got {len(coeffs)}")
        self.d = d
        self.coeffs = coeffs

    @classmethod
    def from_poly(cls, d, coeffs):
        """Build from an integer polynomial in zeta of any degree, whose
        coefficients must all be integers (_ints).  One longer than d is
        first folded mod x^d - 1, which Phi_d divides."""
        euler_phi(d)  # the modulus rule, before the integer rule
        return _from_ints(d, _ints(coeffs, "polynomial coefficients"))

    @classmethod
    def from_int(cls, d, n):
        return cls.from_poly(d, (n,))

    @classmethod
    def from_literal(cls, d, text, pos=0, end=None):
        """Parse the ring literal text[pos:end] at modulus d.  Its terms fold
        by exponent mod d, so no dense polynomial of a high exponent is built."""
        terms = _literal_terms(text, pos, end)
        euler_phi(d)  # the modulus rule, before the fold divides by d
        folded = [0] * d
        for e, c in terms.items():
            folded[e % d] += c
        return _from_ints(d, folded)

    @staticmethod
    def _coerce(d, x):
        """The ring-scalar rule, after the modulus rule: the coefficients at
        modulus d of a CycInt of modulus d or of an int; None for any other x."""
        euler_phi(d)
        if isinstance(x, CycInt):
            _same_modulus(d, x.d)
            return x.coeffs
        if isinstance(x, int):
            return _reduce_poly(d, _ints((x,), "polynomial coefficients"))
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        o = CycInt._coerce(self.d, other)
        if o is None:
            return NotImplemented
        return _new(self.d, tuple(a + b for a, b in zip(self.coeffs, o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = CycInt._coerce(self.d, other)
        if o is None:
            return NotImplemented
        return _new(self.d, tuple(a - b for a, b in zip(self.coeffs, o)))

    def __rsub__(self, other):
        o = CycInt._coerce(self.d, other)
        if o is None:
            return NotImplemented
        return _new(self.d, tuple(b - a for a, b in zip(self.coeffs, o)))

    def __neg__(self):
        return _new(self.d, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = CycInt._coerce(self.d, other)
        if o is None:
            return NotImplemented
        return _new(self.d, _mul_reduce(self.d, self.coeffs, o))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        (e,) = _ints((e,), "exponents")  # a bool is an int, refused by the integer rule
        return _power(self, e, lambda: one(self.d))

    def __eq__(self, other):
        o = CycInt._coerce(self.d, other)
        if o is None:
            return NotImplemented
        return self.coeffs == o

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.d}, {self.literal()!r})"

    def conj(self) -> "CycInt":
        """Complex conjugation, the involution zeta -> zeta^(d-1)."""
        return _new(self.d, _conj(self.d, self.coeffs))

    def is_real(self) -> bool:
        return self.conj() == self

    def inverse(self) -> "CycInt":
        """Exact inverse in Z[zeta_d]; ValueError if self is not a unit and
        ZeroDivisionError if it is zero."""
        try:
            return divide_exact(1, self)
        except ZeroDivisionError:
            raise
        except ArithmeticError:
            raise ValueError(f"{self!r} is not a unit in Z[zeta_{self.d}]") from None

    def literal(self) -> str:
        return render_poly(self.coeffs)


def _new(d: int, coeffs: tuple) -> CycInt:
    """Trusted constructor: coeffs is already a reduced tuple of phi(d) ints.

    For results that are canonical by construction; CycInt(d, coeffs)
    validates its input, this does not.
    """
    c = object.__new__(CycInt)
    c.d = d
    c.coeffs = coeffs
    return c


def _from_ints(d, coeffs):
    """CycInt.from_poly on a sequence of ints already checked, with no integer walk."""
    euler_phi(d)  # the modulus rule, before the fold reads d
    if len(coeffs) > d:
        coeffs = tuple(sum(coeffs[r::d]) for r in range(d))
    return _new(d, _reduce_poly(d, coeffs))


def zeta_pow(d: int, k: int) -> CycInt:
    """The canonical representative of zeta_d^k."""
    return _new(d, _power_table(d)[_ints((k,), "exponents")[0] % d])


def one(d: int) -> CycInt:
    return CycInt.from_int(d, 1)


def unit_exponent(a: CycInt):
    """Return (sign, k) with a = sign * zeta^k, or None.

    Decided by lookup among all 2d candidates; for even d the +1
    representation is preferred (so -zeta^k reports as +zeta^(k + d/2)).
    """
    return _units(a.d).get(a.coeffs)


def solve_real_basis(r: CycInt):
    """Write the real element r as n0*1 + sum_k n_k*(zeta^k + zeta^-k).

    Returns (n0, nk) with nk indexed by k = 1..m-1, m = max(phi(d)/2, 1).
    {1} u {zeta^k + zeta^-k : 0 < k < m} is a Z-basis of the real integers
    Z[zeta + zeta^-1] (Washington, Introduction to Cyclotomic Fields,
    Prop. 2.16), so the coordinates are unique.  They are read off
    r * zeta^(m-1), whose power-basis coefficients are n0 at m-1 and n_k at
    m-1 +- k; any other shape signals an arithmetic bug and raises
    ArithmeticError.
    """
    if not r.is_real():
        raise ValueError("solve_real_basis requires a real element")
    m = max(euler_phi(r.d) // 2, 1)
    c = (r * zeta_pow(r.d, m - 1)).coeffs
    nk = c[m:2 * m - 1]
    if nk != c[:m - 1][::-1] or any(c[2 * m - 1:]):
        raise ArithmeticError(
            f"real element {r!r} has no coordinates on the real basis; "
            "this should be impossible"
        )
    return c[m - 1], nk


def eval_real_basis(d: int, n0: int, nk) -> CycInt:
    """Reconstruct n0*1 + sum_k nk[k-1]*(zeta^k + zeta^-k)."""
    acc = CycInt.from_int(d, n0)
    for k, n in enumerate(nk, start=1):
        if n:
            acc = acc + (zeta_pow(d, k) + zeta_pow(d, -k)) * n
    return acc


def divide_exact(a, b: CycInt) -> CycInt:
    """a / b when the quotient lies in Z[zeta_d], in integer arithmetic only
    (_divider).  Raises ZeroDivisionError for b = 0 and ArithmeticError when
    the quotient is not integral; a may be a rational integer, coerced as
    RingMatrix entries are, so any other a breaks the integer rule."""
    if not hasattr(b, "_coerce"):
        raise ValueError("divide_exact requires a CycInt divisor")
    a = CycInt._coerce(b.d, a) or CycInt.from_int(b.d, a).coeffs
    return _new(b.d, _divider(b.d, b.coeffs)(a))


def _divider(d, b):
    """x -> x / b on reduced coefficient tuples, the one route of exact
    division (divide_exact, RingMatrix.det and RingMatrix.inverse).

    A unit b = s * zeta^k divides by rotation.  Any other nonzero b gives
    x / b = x*b' / N(b), with b' the product of the conjugates sigma_k(b),
    1 < k < d and gcd(k, d) = 1, and N(b) = b*b' a rational integer; both
    are built once per divider.  Dividing raises ArithmeticError when x / b
    is not integral.
    """
    unit = _units(d).get(b)
    if unit is not None:
        s, k = unit

        def rotate(x):
            q = _monomial_map(d, x, 1, -k) if k else x
            return q if s > 0 else tuple(-c for c in q)
        return rotate
    if not any(b):
        raise ZeroDivisionError(f"division by zero in Z[zeta_{d}]")
    b_prime = _power_table(d)[0]
    for k in range(2, d):
        if gcd(k, d) == 1:
            b_prime = _mul_reduce(d, b_prime, _monomial_map(d, b, k))
    norm = _mul_reduce(d, b, b_prime)[0]

    def divide(x):
        num = _mul_reduce(d, x, b_prime)
        if any(c % norm for c in num):
            raise ArithmeticError(f"{_new(d, x)!r} / {_new(d, b)!r} is not in Z[zeta_{d}]")
        return tuple(c // norm for c in num)
    return divide


# ---------------------------------------------------------------------------
# Ring-literal grammar: integer polynomials in `z`, e.g. "1 - z^3 + 2*z".

# One term with every part optional, so that a match shows how far the term
# got: sign, coefficient, '*', 'z', '^', exponent.  Each part takes the
# whitespace after it, so an empty group starts at the next token.
_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?)\s*(?:(z)\s*(?:(\^)\s*(\d*)\s*)?)?")
_UNEXPECTED = re.compile(r"[^\s\dz*^+-]")  # the first character outside the grammar


def parse_ring_literal(text: str) -> tuple[int, ...]:
    """Parse to an integer polynomial (constant term first), unreduced."""
    return _dense(_literal_terms(text))


def _dense(terms):
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return _poly_trim(out)


def _literal_terms(text, pos=0, end=None):
    """The terms of the ring literal text[pos:end] as {exponent: coefficient},
    a repeated exponent summed, read in place one term per match.  An error
    is a ParseError at its position in the whole text; a character outside
    the grammar is reported first, at its own position."""
    end = len(text) if end is None else end
    start, terms = pos, {}
    while True:
        m = _TERM.match(text, pos, end)
        sign, coeff, star, z, caret, exp = m.groups()
        if pos > start and not sign:
            message, at = "expected '+' or '-' between terms", pos
        elif m.start(2) == end:
            message, at = (("dangling sign in ring literal", end) if sign
                           else ("empty ring literal", start))
        elif not coeff and (star or not z):
            message, at = "expected integer or 'z'", m.start(3)
        elif len(coeff) > MAX_DIGITS:
            message, at = _LONG.format(len(coeff)), m.start(2)
        elif star and not z:
            message, at = "expected 'z' after '*'", m.end()
        elif caret and not exp:
            message, at = "expected integer exponent after '^'", m.start(6)
        elif exp and len(exp) > MAX_DIGITS:
            message, at = _LONG.format(len(exp)), m.start(6)
        elif exp and int(exp) > MAX_EXPONENT:
            message, at = (f"exponent {int(exp)} is over the budget MAX_EXPONENT = {MAX_EXPONENT}",
                           m.start(6))
        else:
            e = int(exp) if exp else 1 if z else 0
            terms[e] = terms.get(e, 0) + int(sign + (coeff or "1"))
            pos = m.end()
            if pos == end:
                return terms
            continue
        bad = _UNEXPECTED.search(text, start, end)
        if bad:
            message, at = "unexpected character in ring literal", bad.start()
        raise ParseError(message, text, at)


def render_poly(coeffs) -> str:
    """Render an integer polynomial in z; inverse of parse_ring_literal on
    canonical forms.  A coefficient of more than MAX_PRINT_DIGITS digits is
    refused before str() runs."""
    parts = []
    for m, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if mag >= _PRINT_BOUND:
            raise ValueError(f"a coefficient of more than {MAX_PRINT_DIGITS} digits is over "
                             f"the budget MAX_PRINT_DIGITS = {MAX_PRINT_DIGITS} for printing")
        if m == 0:
            body = str(mag)
        elif m == 1:
            body = "z" if mag == 1 else f"{mag}*z"
        else:
            body = f"z^{m}" if mag == 1 else f"{mag}*z^{m}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) if parts else "0"

"""Exact dense matrices over Z[zeta_d]: adjoint, product, determinant, the
intersection form and its preservation test.

Vectors are columns and matrices act on the left, so a composition f o g
evaluates as the product M_f * M_g.  BlockMat is the 2(g-1)-square case with
the basis ordered e_1, ..., e_(g-1), e_(-1), ..., e_(-(g-1)); the form is
<u, v> = u^T Omega conj(v), linear in u and conjugate-linear in v, which makes
form preservation literally M* Omega M = Omega.
"""

from __future__ import annotations

import re
from operator import add, sub

from .cyclotomic import (
    CycInt,
    ParseError,
    _conj,
    _divider,
    _ints,
    _mul_reduce,
    _new,
    _power,
    _power_table,
    _reduce_poly,
    _same_modulus,
    _sparse_powers,
    euler_phi,
    render_poly,
)


def _one_zero(d):
    """The coefficient tuples of 1 and 0 in Z[zeta_d]."""
    o = _power_table(d)[0]
    return o, (0,) * len(o)


def _neg(x):
    return tuple(-c for c in x)


class RingMatrix:
    """Dense matrix over Z[zeta_d]; immutable after construction.

    Entry (i, j) is stored as coeffs[i][j], its reduced coefficient tuple
    (CycInt.coeffs), and every operation works on those tuples; a given entry
    or scalar is read as its tuple by CycInt._coerce.  A CycInt is made only where
    an entry is handed out: m[i, j], entries and det().
    """

    __slots__ = ("d", "rows", "cols", "coeffs")

    def __init__(self, d, rows):
        """Rows of ints and CycInts of modulus d, after the modulus rule; from_int
        refuses any entry that CycInt._coerce does not take by the integer rule."""
        euler_phi(d)
        coeffs = tuple(tuple(CycInt._coerce(d, e) or CycInt.from_int(d, e).coeffs for e in row)
                       for row in rows)
        if any(len(row) != len(coeffs[0]) for row in coeffs):
            raise ValueError("ragged rows")
        self._fill(d, coeffs)

    @classmethod
    def _make(cls, d, coeffs):
        """Trusted constructor, for results correct by construction: coeffs
        is already a rectangular grid of reduced coefficient tuples at
        modulus d.  RingMatrix(d, rows) also validates the entries."""
        m = object.__new__(cls)
        m._fill(d, coeffs)
        return m

    def _fill(self, d, coeffs):
        """Set the slots from a rectangular coefficient grid: the shape rule."""
        if not coeffs or not coeffs[0]:
            raise ValueError("matrix dimensions must be positive")
        self.d, self.rows, self.cols, self.coeffs = d, len(coeffs), len(coeffs[0]), coeffs

    @property
    def entries(self):
        """The entries as rows of CycInt, made on each read."""
        d = self.d
        return tuple(tuple(_new(d, e) for e in row) for row in self.coeffs)

    @classmethod
    def identity(cls, d, n):
        """The n x n identity, its rows joined from shared 0 and 1 tuples; no
        cache keeps it."""
        o, z = _one_zero(d)
        (n,) = _ints((n,), "matrix dimensions")
        return cls._make(d, tuple((z,) * i + (o,) + (z,) * (n - 1 - i) for i in range(n)))

    @classmethod
    def zeros(cls, d, rows, cols):
        z = _one_zero(d)[1]
        rows, cols = _ints((rows, cols), "matrix dimensions")
        return cls._make(d, ((z,) * cols,) * rows)

    def __getitem__(self, ij):
        i, j = ij
        return _new(self.d, self.coeffs[i][j])

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return not any(any(e) for row in self.coeffs for e in row)

    def is_integer(self):
        return not any(any(e[1:]) for row in self.coeffs for e in row)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.d, self.coeffs) == (other.d, other.coeffs)

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def _entrywise(self, op, other):
        self._check_same_shape(other)
        return RingMatrix._make(self.d, tuple(
            tuple(tuple(map(op, a, b)) for a, b in zip(ra, rb))
            for ra, rb in zip(self.coeffs, other.coeffs)
        ))

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def _check_same_shape(self, other):
        if not isinstance(other, RingMatrix):
            raise ValueError("matrix mismatch")
        _same_modulus(self.d, other.d)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        """The matrix product, or each entry times a ring scalar (CycInt._coerce)."""
        d = self.d
        if isinstance(other, RingMatrix):
            _same_modulus(d, other.d)
            if self.cols != other.rows:
                raise ValueError("dimension mismatch in matrix product")
            return RingMatrix._make(d, _sparse_product(d, self.coeffs, other.coeffs, other.cols))
        c = CycInt._coerce(d, other)
        if c is None:
            return NotImplemented
        return RingMatrix._make(d, tuple(
            tuple(_mul_reduce(d, c, a) for a in row) for row in self.coeffs))

    __rmul__ = __mul__  # reached only for a scalar on the left

    def __pow__(self, e: int):
        (e,) = _ints((e,), "exponents")
        if not self.is_square():
            raise ValueError("only square matrices can be raised to powers")
        return _power(self, e, lambda: RingMatrix.identity(self.d, self.rows))

    def adjoint(self):
        """Conjugate transpose: (M*)* = M and (MN)* = N* M*."""
        d = self.d
        return RingMatrix._make(d, tuple(
            tuple(_conj(d, a) for a in col) for col in zip(*self.coeffs)))

    def submatrix(self, row_range, col_range):
        return RingMatrix._make(self.d, tuple(
            tuple(self.coeffs[i][j] for j in col_range) for i in row_range
        ))

    def det(self) -> CycInt:
        """Exact determinant by the shared elimination _eliminate, run below
        the pivots: the last pivot times the sign of the row swaps."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = [list(row) for row in self.coeffs]
        sign, p = _eliminate(self.d, m, self.rows, False), m[-1][-1]
        return _new(self.d, p if sign > 0 else tuple(sign * c for c in p))

    def inverse(self) -> "RingMatrix":
        """Exact inverse with entries in Z[zeta_d].

        _eliminate runs Gauss-Jordan on [M | I], above and below the pivots,
        which leaves p*M^-1 in the right half with p = +-det M the last
        pivot, so the right half is divided by p.  Raises ZeroDivisionError
        if M is singular and ArithmeticError if det M is not a unit.
        """
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        d, n = self.d, self.rows
        o, z = _one_zero(d)
        aug = [list(row) + [o if i == j else z for j in range(n)]
               for i, row in enumerate(self.coeffs)]
        if not _eliminate(d, aug, n, True):
            raise ZeroDivisionError("matrix is not invertible")
        div = _divider(d, aug[-1][n - 1])
        return RingMatrix._make(d, tuple(tuple(map(div, row[n:])) for row in aug))

    def to_text(self) -> str:
        return _matrix_text(self.coeffs)

    def __repr__(self):
        return f"RingMatrix({self.d}, '{self.to_text()}')"


def _eliminate(d, rows, n, jordan):
    """Fraction-free (Bareiss) elimination in place on n rows of coefficient
    tuples, pivoting in their first n columns; det and inverse share it.
    Step k swaps up the first row from k down that is nonzero in column k
    and replaces each row below it (with jordan, above it too) by
    (p*x - f*y) / prev, for the pivot p, the pivot row y, the row's entry f
    in column k and the previous pivot prev (1 at first).  That is exact by
    Sylvester's identity, so an ArithmeticError is a bug; _divider is built
    at a step's first division.  Only entries that can be nonzero are
    computed: an entry x = 0 with f = 0 or y = 0 stays the zero it is, with
    no product and no division, and a row with f = 0 stays when p = prev.
    Only the columns right of the pivot change: no later step reads the others.
    Returns 0 if a column has no pivot, else the sign s of the swaps, with
    s * det M, the last pivot, in rows[n - 1][n - 1]; without jordan the
    last column, where nothing is left to eliminate, is not searched.
    """
    prev, sign = _power_table(d)[0], 1
    for k in range(n if jordan else n - 1):
        if not any(rows[k][k]):
            for i in range(k + 1, n):
                if any(rows[i][k]):
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        p, tail, div = rows[k][k], rows[k][k + 1:], None
        unchanged = p == prev
        for i in (*range(k), *range(k + 1, n)) if jordan else range(k + 1, n):
            row, f = rows[i], rows[i][k]
            f_nonzero = any(f)
            if unchanged and not f_nonzero:
                continue
            for j, y in enumerate(tail, k + 1):
                if any(row[j]) or f_nonzero and any(y):
                    x = _mul_reduce(d, p, row[j], f, y)
                    if k:
                        div = div or _divider(d, prev)
                        x = div(x)
                    row[j] = x
        prev = p
    return sign


def _sparse_rows(rows):
    """Each row as its nonzero entries: (column, nonzero (power, coefficient)
    pairs)."""
    return [[(j, [(t, c) for t, c in enumerate(e) if c])
             for j, e in enumerate(row) if any(e)] for row in rows]


def _sparse_product(d, a_rows, b_rows, cols):
    """The coefficient rows of A * B, by a row-sparse (Gustavson) kernel.

    Row i of the product sums a_ik * b_kj over the nonzero a_ik and the
    nonzero b_kj of row k, into one unreduced convolution of length
    2*phi - 1 per entry that is reduced mod Phi_d once.  Entries with no
    contribution share one zero.
    """
    phi = euler_phi(d)
    width, z = 2 * phi - 1, (0,) * phi
    sparse_b = _sparse_rows(b_rows)
    out = []
    for row in _sparse_rows(a_rows):
        acc = {}
        for k, terms_a in row:
            for j, terms_b in sparse_b[k]:
                conv = acc.get(j)
                if conv is None:
                    conv = acc[j] = [0] * width
                for s, x in terms_a:
                    for t, y in terms_b:
                        conv[s + t] += x * y
        new_row = [z] * cols
        for j, conv in acc.items():
            new_row[j] = _reduce_poly(d, conv) if any(conv[phi:]) else tuple(conv[:phi])
        out.append(tuple(new_row))
    return tuple(out)


_CUT = re.compile("[,;]")  # the end of a matrix entry


def parse_matrix_poly(text: str, read, pos=0, end=None):
    """Parse the matrix text format in text[pos:end], rows cut by ';' and
    ring literals by ',', into the grid of read(text, start, stop) over the
    span of each literal, read in place."""
    end = len(text) if end is None else end
    start, rows = pos, [[]]
    for cut in _CUT.finditer(text, pos, end):
        rows[-1].append(read(text, pos, cut.start()))
        if cut[0] == ";":
            rows.append([])
        pos = cut.end()
    rows[-1].append(read(text, pos, end))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix literal", text, start)
    return tuple(map(tuple, rows))


def _matrix_text(rows):
    """The matrix text format of a grid of integer polynomials; the inverse
    of parse_matrix_poly on canonical forms."""
    return " ; ".join(", ".join(map(render_poly, row)) for row in rows)


def parse_matrix(text: str, d: int) -> RingMatrix:
    """Parse the matrix text format at modulus d.  Each entry is reduced to
    its coefficient tuple as it is read, so no dense polynomial of a long
    literal outlives its entry."""
    return RingMatrix._make(d, parse_matrix_poly(
        text, lambda *span: CycInt.from_literal(d, *span).coeffs))


def _side(g):
    """The side 2(g - 1) of a genus-g block matrix; the one statement of the
    genus rule, reached before any matrix of genus g is built."""
    if _ints((g,), "genera")[0] < 2:
        raise ValueError("genus must be >= 2")
    return 2 * (g - 1)


def _square(m, n, g, what):
    """The shape rule of a genus-g block matrix and of its blocks: m is n x n."""
    if m.rows != n or m.cols != n:
        raise ValueError(f"{what} is {m.rows}x{m.cols}, expected {n}x{n} for genus {g}")


class BlockMat:
    """A 2(g-1)-square matrix with the e_+/e_- block split, immutable by
    convention; eq and hash compare (mat, g).  Its det, form test and membership
    clauses are each decided once, in a memo outside eq, hash and repr."""

    __slots__ = ("mat", "g", "_memo")

    def __init__(self, mat: RingMatrix, g: int):
        _square(mat, _side(g), g, "matrix")
        self.mat, self.g, self._memo = mat, g, {}  # _memo: fn -> fn(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mat, self.g) == (other.mat, other.g)

    def __hash__(self):
        return hash((self.mat, self.g))

    @property
    def d(self):
        return self.mat.d

    @property
    def n(self):
        """Block size g - 1."""
        return self.g - 1

    @classmethod
    def identity(cls, d, g):
        return cls(RingMatrix.identity(d, _side(g)), g)

    @classmethod
    def from_blocks(cls, g, upper_left, upper_right, lower_left, lower_right):
        n = _side(g) // 2
        for block in (upper_left, upper_right, lower_left, lower_right):
            _same_modulus(upper_left.d, block.d)
            _square(block, n, g, "block")
        rows = tuple(a + b for a, b in zip(upper_left.coeffs, upper_right.coeffs))
        rows += tuple(a + b for a, b in zip(lower_left.coeffs, lower_right.coeffs))
        return cls(RingMatrix._make(upper_left.d, rows), g)

    def blocks(self):
        return (self.upper_left(), self.upper_right(),
                self.lower_left(), self.lower_right())

    def _block(self, row, col):
        n = self.n
        return self.mat.submatrix(range(row * n, row * n + n),
                                  range(col * n, col * n + n))

    def upper_left(self):
        return self._block(0, 0)

    def upper_right(self):
        return self._block(0, 1)

    def lower_left(self):
        return self._block(1, 0)

    def lower_right(self):
        return self._block(1, 1)

    def __mul__(self, other):
        if isinstance(other, BlockMat):
            if other.g != self.g:
                raise ValueError("genus mismatch")
            return BlockMat(self.mat * other.mat, self.g)
        scalar = CycInt._coerce(self.d, other) is not None  # a RingMatrix is not one
        return BlockMat(self.mat * other, self.g) if scalar else NotImplemented

    __rmul__ = __mul__  # reached only for a scalar on the left

    def __pow__(self, e: int):
        return BlockMat(self.mat ** e, self.g)

    def form_inverse(self):
        """M^-1 for M in U, without division: Id + N' = -Omega M* Omega for
        N = M - Id.  For M outside U it is not the inverse (preserves_form
        tests exactly that); RingMatrix.inverse is for any invertible matrix."""
        d = self.d
        less_id = _less_id(self.mat.coeffs, _one_zero(d)[0])
        return BlockMat(_rank_update(d, self.mat.rows, _form_dual(d, self.n, less_id)), self.g)

    def _once(self, fn):
        """fn(self), computed at most once per matrix; a raise stores nothing."""
        if fn not in self._memo:
            self._memo[fn] = fn(self)
        return self._memo[fn]

    def _mat_det(self):
        return self.mat.det()

    def det(self):
        return self._once(BlockMat._mat_det)

    def to_text(self):
        return self.mat.to_text()

    def __repr__(self):
        return f"BlockMat(g={self.g}, d={self.d}, '{self.to_text()}')"


def basis_position(g: int, i: int) -> int:
    if i == 0 or abs(i) > g - 1:
        raise ValueError(f"index {i} out of range for genus {g}")
    return i - 1 if i > 0 else (g - 1) + (-i) - 1


def preserves_form(m: BlockMat) -> bool:
    """True iff M* Omega M = Omega exactly, walked once per matrix."""
    return m._once(_form_walk) is None


def _rank_update(d, size, entries):
    """Id + N, size-square, where N has the coefficient tuple c at (p, q) for
    each (p, q, c)."""
    rows = [list(row) for row in RingMatrix.identity(d, size).coeffs]
    for p, q, c in entries:
        rows[p][q] = tuple(map(add, rows[p][q], c))
    return RingMatrix._make(d, tuple(map(tuple, rows)))


def _less_id(coeffs, one):
    """The nonzero entries (p, q, c) of M - Id; one is the coefficients of 1."""
    return [(p, q, y) for p, row in enumerate(coeffs) for q, x in enumerate(row)
            if any(y := tuple(map(sub, x, one)) if p == q else x)]


def _form_dual(d, n, entries):
    """The entries (twin q, twin p, +-conj c) of N' = -Omega N* Omega for those
    of N, twin r = r +- n across the split and - where p and q lie on opposite
    sides of it: Id + N' = (Id + N)^-1 for Id + N in U."""
    size = 2 * n
    return [((q + n) % size, (p + n) % size,
             _conj(d, c) if (p < n) == (q < n) else _neg(_conj(d, c))) for p, q, c in entries]


def _form_walk(m: BlockMat):
    """Entry (p, q) of M* Omega M sums +-conj(M[r][p]) M[r'][q] over the rows
    r of column p, with r' = r -+ (g-1) the twin of r across the split and
    the sign - for r >= g-1.  A term x zeta^-t times y zeta^s adds x*y times
    the reduced row of zeta^(s-t).  No matrix is built, and the first p whose
    row differs from Omega's is returned; None if none does.
    """
    d, n = m.d, m.n
    o, z = _one_zero(d)
    minus_o, powers = _neg(o), _sparse_powers(d)
    sparse = _sparse_rows(m.mat.coeffs)
    cols = [[] for _ in sparse]
    for r, row in enumerate(sparse):
        for q, terms in row:
            cols[q].append((r, terms))
    for p, col in enumerate(cols):
        partner, want = (p + n, o) if p < n else (p - n, minus_o)
        acc = {partner: [0] * len(z)}
        for r, terms_a in col:
            twin, sign = (r + n, 1) if r < n else (r - n, -1)
            for q, terms_b in sparse[twin]:
                out = acc.get(q)
                if out is None:
                    out = acc[q] = [0] * len(z)
                for t, x in terms_a:
                    x *= sign
                    for s, y in terms_b:
                        xy = x * y
                        for j, c in powers[(s - t) % d]:
                            out[j] += xy * c
        for q, out in acc.items():
            if tuple(out) != (want if q == partner else z):
                return p
    return None

"""Exact dense matrices over Z[zeta_d]: adjoint, product, determinant, the
intersection form and its preservation test.

Vectors are columns and matrices act on the left, so a composition f o g
evaluates as the product M_f * M_g.  BlockMat is the 2(g-1)-square case with
the basis ordered e_1, ..., e_(g-1), e_(-1), ..., e_(-(g-1)); the form is
<u, v> = u^T Omega conj(v), linear in u and conjugate-linear in v, which makes
form preservation literally M* Omega M = Omega.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import (
    CycInt,
    ParseError,
    _new,
    _power,
    _reduce_poly,
    divide_exact,
    euler_phi,
    one,
    parse_ring_literal,
    render_poly,
    zero,
)


class RingMatrix:
    """Dense matrix over Z[zeta_d]; immutable after construction."""

    __slots__ = ("d", "rows", "cols", "entries")

    def __init__(self, d, entries):
        entries = tuple(tuple(e for e in row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        for row in entries:
            if len(row) != len(entries[0]):
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, CycInt) or e.d != d:
                    raise ValueError("all entries must be CycInt with matching d")
        self.d = d
        self.rows = len(entries)
        self.cols = len(entries[0])
        self.entries = entries

    @classmethod
    def _make(cls, d, entries):
        """Trusted constructor: entries is already a rectangular tuple of row
        tuples of CycInt at modulus d.  For results that are correct by
        construction; RingMatrix(d, entries) validates the entries, this only
        the dimensions."""
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        m = object.__new__(cls)
        m.d = d
        m.rows = len(entries)
        m.cols = len(entries[0])
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, d, rows):
        conv = []
        for row in rows:
            conv.append(
                [e if isinstance(e, CycInt) else CycInt.from_int(d, e) for e in row]
            )
        return cls(d, conv)

    @classmethod
    def identity(cls, d, n):
        o = CycInt.from_int(d, 1)
        z = CycInt.from_int(d, 0)
        return cls(d, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, d, rows, cols):
        z = CycInt.from_int(d, 0)
        return cls(d, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, d, columns):
        cols = [list(c) for c in columns]
        return cls.from_rows(d, [[cols[j][i] for j in range(len(cols))]
                                 for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def is_integer(self):
        return all(e.is_integer() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (self.d, self.entries) == (other.d, other.entries)

    def __hash__(self):
        return hash((self.d, self.entries))

    def __add__(self, other):
        self._check_same_shape(other)
        return RingMatrix._make(self.d, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other):
        self._check_same_shape(other)
        return RingMatrix._make(self.d, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __neg__(self):
        return RingMatrix._make(self.d, tuple(
            tuple(-a for a in row) for row in self.entries))

    def _check_same_shape(self, other):
        if not isinstance(other, RingMatrix) or other.d != self.d:
            raise ValueError("matrix mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def scale(self, c):
        if isinstance(c, int):
            c = CycInt.from_int(self.d, c)
        return RingMatrix._make(self.d, tuple(
            tuple(c * a for a in row) for row in self.entries))

    def __mul__(self, other):
        if isinstance(other, (int, CycInt)):
            return self.scale(other)
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if other.d != self.d:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return RingMatrix._make(self.d, _sparse_product(self.d, self.entries,
                                                        other.entries, other.cols))

    def __rmul__(self, other):
        if isinstance(other, (int, CycInt)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not self.is_square():
            raise ValueError("only square matrices can be raised to powers")
        if e < 0:
            return self.inverse() ** -e
        return _power(self, e, lambda: RingMatrix.identity(self.d, self.rows))

    def adjoint(self):
        """Conjugate transpose: (M*)* = M and (MN)* = N* M*."""
        return RingMatrix._make(self.d, tuple(
            tuple(a.conj() for a in col) for col in zip(*self.entries)))

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = zero(self.d)
            for j, v in enumerate(vec):
                if not v.is_zero():
                    acc = acc + self.entries[i][j] * v
            out.append(acc)
        return out

    def submatrix(self, row_range, col_range):
        return RingMatrix._make(self.d, tuple(
            tuple(self.entries[i][j] for j in col_range) for i in row_range
        ))

    def det(self) -> CycInt:
        """Exact determinant by fraction-free (Bareiss) elimination.

        Each step divides by the previous pivot with divide_exact, exact by
        Sylvester's identity; an ArithmeticError signals a bug, not bad input.
        """
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = CycInt.from_int(self.d, 1)
        for k in range(n - 1):
            if m[k][k].is_zero():
                for i in range(k + 1, n):
                    if not m[i][k].is_zero():
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return zero(self.d)
            p = m[k][k]
            unchanged = p == prev  # then rows with m[i][k] = 0 stay as they are
            for i in range(k + 1, n):
                if unchanged and m[i][k].is_zero():
                    continue
                for j in range(k + 1, n):
                    m[i][j] = divide_exact(p * m[i][j] - m[i][k] * m[k][j], prev)
                m[i][k] = zero(self.d)
            prev = p
        result = m[n - 1][n - 1]
        return -result if sign < 0 else result

    def det_cofactor(self) -> CycInt:
        """Cofactor-expansion determinant; the oracle route for small sizes."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self.entries[0][0]
        acc = zero(self.d)
        cols = list(range(n))
        for j in range(n):
            a = self.entries[0][j]
            if a.is_zero():
                continue
            minor = self.submatrix(range(1, n), [c for c in cols if c != j])
            term = a * minor.det_cofactor()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def inverse(self) -> "RingMatrix":
        """Exact inverse with entries in Z[zeta_d].

        Gauss-Jordan on [M | I] in fraction-free (Bareiss) form: each update
        (p*x - f*y) / prev is exact by Sylvester's identity and the last step
        leaves [p*I | p*M^-1] with p = +-det M, so the right half is divided
        by p at the end.  Raises ZeroDivisionError if M is singular and
        ArithmeticError if det M is not a unit.
        """
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        d, n = self.d, self.rows
        o, z = one(d), zero(d)
        aug = [list(row) + [o if i == j else z for j in range(n)]
               for i, row in enumerate(self.entries)]
        prev = o
        for k in range(n):
            piv = next((i for i in range(k, n) if not aug[i][k].is_zero()), None)
            if piv is None:
                raise ZeroDivisionError("matrix is not invertible")
            aug[k], aug[piv] = aug[piv], aug[k]
            p, pivot_row = aug[k][k], aug[k]
            for i in range(n):
                f = aug[i][k]
                # with f = 0 and p = prev the update would leave row i as it is
                if i != k and not (f.is_zero() and p == prev):
                    aug[i] = [divide_exact(p * x - f * y, prev)
                              for x, y in zip(aug[i], pivot_row)]
            prev = p
        return RingMatrix(d, [[divide_exact(x, prev) for x in row[n:]]
                              for row in aug])

    def to_text(self) -> str:
        return " ; ".join(
            ", ".join(render_poly(e.coeffs) for e in row) for row in self.entries
        )

    def __repr__(self):
        return f"RingMatrix({self.d}, '{self.to_text()}')"


def _sparse_rows(entries):
    """Each row as its nonzero entries: (column, nonzero (power, coefficient)
    pairs)."""
    return [[(j, [(t, c) for t, c in enumerate(e.coeffs) if c])
             for j, e in enumerate(row) if any(e.coeffs)] for row in entries]


def _sparse_product(d, a_rows, b_rows, cols):
    """The entries of A * B, by a row-sparse (Gustavson) kernel over raw
    coefficient tuples.

    Row i of the product sums a_ik * b_kj over the nonzero a_ik and the
    nonzero b_kj of row k, into one unreduced convolution of length
    2*phi - 1 per entry that is reduced mod Phi_d once.  Entries with no
    contribution share one zero.
    """
    width = 2 * euler_phi(d) - 1
    z = zero(d)
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
            new_row[j] = _new(d, _reduce_poly(d, conv))
        out.append(tuple(new_row))
    return tuple(out)


def parse_matrix_poly(text: str):
    """Parse matrix text into a grid of integer polynomials (no modulus yet)."""
    rows = tuple(tuple(map(parse_ring_literal, chunk.split(",")))
                 for chunk in text.split(";"))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix literal", text, 0)
    return rows


def parse_matrix(text: str, d: int) -> RingMatrix:
    """Parse the matrix text format: rows split by ';', ring literals by ','."""
    grid = parse_matrix_poly(text)
    return RingMatrix(d, [[CycInt.from_poly(d, p) for p in row] for row in grid])


@dataclass(frozen=True)
class BlockMat:
    """A 2(g-1)-square matrix with the e_+/e_- block split."""

    mat: RingMatrix
    g: int

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("genus must be >= 2")
        n = 2 * (self.g - 1)
        if self.mat.rows != n or self.mat.cols != n:
            raise ValueError(
                f"matrix size {self.mat.rows}x{self.mat.cols} does not match genus {self.g}"
            )

    @property
    def d(self):
        return self.mat.d

    @property
    def n(self):
        """Block size g - 1."""
        return self.g - 1

    @classmethod
    def identity(cls, d, g):
        return cls(RingMatrix.identity(d, 2 * (g - 1)), g)

    @classmethod
    def from_blocks(cls, g, upper_left, upper_right, lower_left, lower_right):
        rows = tuple(a + b for a, b in zip(upper_left.entries, upper_right.entries))
        rows += tuple(a + b for a, b in zip(lower_left.entries, lower_right.entries))
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
        if isinstance(other, (int, CycInt)):
            return BlockMat(self.mat * other, self.g)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, CycInt)):
            return BlockMat(self.mat * other, self.g)
        return NotImplemented

    def __pow__(self, e: int):
        return BlockMat(self.mat ** e, self.g)

    def inverse(self):
        return BlockMat(self.mat.inverse(), self.g)

    def form_inverse(self):
        """M^-1 for M in U, without division: [[D*, -B*], [-C*, A*]], which is
        -Omega M* Omega for M = [[A, B], [C, D]].  For M outside U it is not
        the inverse (preserves_form tests exactly that); inverse() is the
        route for any invertible matrix."""
        n, e = self.n, self.mat.entries
        across = [*range(n, 2 * n), *range(n)]  # a position's twin across the split
        rows = []
        for p in range(2 * n):
            row = []
            for q in range(2 * n):
                x = e[across[q]][across[p]].conj()
                row.append(x if (p < n) == (q < n) or x.is_zero() else -x)
            rows.append(tuple(row))
        return BlockMat(RingMatrix._make(self.d, tuple(rows)), self.g)

    def adjoint(self):
        return BlockMat(self.mat.adjoint(), self.g)

    def det(self):
        return self.mat.det()

    def is_integer(self):
        return self.mat.is_integer()

    def to_text(self):
        return self.mat.to_text()

    def __repr__(self):
        return f"BlockMat(g={self.g}, d={self.d}, '{self.to_text()}')"


def omega(g: int, d: int) -> BlockMat:
    """The form matrix [[0, Id], [-Id, 0]] with (g-1)-square blocks."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    n = g - 1
    o = CycInt.from_int(d, 1)
    z = CycInt.from_int(d, 0)
    rows = []
    for i in range(n):
        rows.append([z] * n + [o if j == i else z for j in range(n)])
    for i in range(n):
        rows.append([-o if j == i else z for j in range(n)] + [z] * n)
    return BlockMat(RingMatrix(d, rows), g)


def signed_indices(g: int):
    """Basis order: e_1, ..., e_(g-1), e_(-1), ..., e_(-(g-1))."""
    return list(range(1, g)) + [-i for i in range(1, g)]


def basis_position(g: int, i: int) -> int:
    if i == 0 or abs(i) > g - 1:
        raise ValueError(f"index {i} out of range for genus {g}")
    return i - 1 if i > 0 else (g - 1) + (-i) - 1


def basis_vector(d: int, g: int, i: int):
    vec = [zero(d)] * (2 * (g - 1))
    vec[basis_position(g, i)] = CycInt.from_int(d, 1)
    return vec


def form_eval(u, v, g: int) -> CycInt:
    """The intersection form <u, v> = u^T Omega conj(v); <e_i, e_-i> = 1."""
    n = g - 1
    if len(u) != 2 * n or len(v) != 2 * n:
        raise ValueError("vector length must be 2(g-1)")
    d = u[0].d
    acc = zero(d)
    for i in range(n):
        if not u[i].is_zero() and not v[n + i].is_zero():
            acc = acc + u[i] * v[n + i].conj()
        if not u[n + i].is_zero() and not v[i].is_zero():
            acc = acc - u[n + i] * v[i].conj()
    return acc


def preserves_form(m: BlockMat) -> bool:
    """True iff M* Omega M = Omega exactly, tested as form_inverse(M) M = Id
    with one product and no Omega: form_inverse(M) = -Omega M* Omega and
    Omega^-1 = -Omega."""
    return m.form_inverse().mat * m.mat == RingMatrix.identity(m.d, m.mat.rows)

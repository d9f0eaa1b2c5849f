"""Matrix helpers that only the tests use: the zero of Z[zeta_d], the form
matrix Omega, the form <u, v> evaluated from its definition, basis vectors
in the signed index order, a matrix acting on a vector, the cofactor
determinant, the oracle that Bareiss elimination (RingMatrix.det) is checked
against, the Galois automorphisms of Z[zeta_d] from their definition, the
support rule of word evaluation, free reduction, the oracle of
foxcover.parse_free_word, the Fox derivative, the oracle of
foxcover.eta_fox, and the Lambda and Delta block clauses decided by block
products, the oracle of the clauses that read the form walk."""

from prymrep.cyclotomic import CycInt, unit_exponent, zeta_pow
from prymrep.foxcover import word_mul
from prymrep.generators import _entries
from prymrep.predicates import _OK, Verdict
from prymrep.ringlinalg import BlockMat, RingMatrix, basis_position


def zero(d: int) -> CycInt:
    return CycInt.from_int(d, 0)


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


def column(m: RingMatrix, j: int):
    return [m[i, j] for i in range(m.rows)]


def apply(m: RingMatrix, vec):
    """Matrix times column vector."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    out = []
    for i in range(m.rows):
        acc = zero(m.d)
        for j, v in enumerate(vec):
            if not v.is_zero():
                acc = acc + m[i, j] * v
        out.append(acc)
    return out


def det_cofactor(m: RingMatrix) -> CycInt:
    """Cofactor-expansion determinant; the oracle route for small sizes."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 1:
        return m[0, 0]
    acc = zero(m.d)
    for j in range(n):
        a = m[0, j]
        if a.is_zero():
            continue
        minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = a * det_cofactor(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def galois(a: CycInt, k: int) -> CycInt:
    """The Galois automorphism sigma_k: zeta -> zeta^k (k coprime to d),
    from its definition: c zeta^m goes to c zeta^(k*m)."""
    poly = [0] * a.d
    for m, c in enumerate(a.coeffs):
        poly[k * m % a.d] += c
    return CycInt.from_poly(a.d, poly)


def disjoint_support(spec, d: int, g: int) -> bool:
    """The support rule: the rows and the columns of the nonzero entries of
    the generator's N are disjoint, so N^2 = 0."""
    support = [(p, q) for p, q, c in _entries(spec.name, g, d, *spec._args(d)) if any(c)]
    return not {p for p, _ in support} & {q for _, q in support}


def free_reduce(letters) -> tuple:
    """The reduced form of a tuple of nonzero signed letters; letter 0 is
    refused.  parse_free_word's test oracle."""
    letters = tuple(letters)
    if 0 in letters:
        raise ValueError("letter 0 is not a generator")
    return word_mul(letters)


def fox_derivative(w, i: int) -> dict:
    """d w / d x_i as a formal sum {word: coefficient}; eta_fox's test oracle.

    Product rule d(uv) = du + u dv with d x_j = delta_ij and
    d x_j^-1 = -delta_ij x_j^-1.  The reduced prefix is kept as one list,
    extended or cancelled in place, and copied only at the letters +-i.
    """
    terms = {}
    prefix = []
    for s in w:
        if s == i:
            key = tuple(prefix)
            terms[key] = terms.get(key, 0) + 1
        if prefix and prefix[-1] == -s:
            prefix.pop()
        else:
            prefix.append(s)
        if s == -i:
            # the term is the prefix times x_i^-1, reduced: the prefix just built
            key = tuple(prefix)
            terms[key] = terms.get(key, 0) - 1
    return {k: c for k, c in terms.items() if c}


def lambda_blocks_by_products(m: BlockMat) -> Verdict:
    """[[(D*)^-1, B], [0, D]], det D = +-zeta^k, D*B = B*D; C = 0 is given."""
    a, b, _, dd = m.blocks()
    if unit_exponent(dd.det()) is None:
        return Verdict(False, "det(D) is not +-zeta^k")
    if (ds := dd.adjoint()) * a != RingMatrix.identity(m.d, m.n):
        return Verdict(False, "upper-left block is not (D*)^-1")
    if ds * b != b.adjoint() * dd:
        return Verdict(False, "D*B != B*D")
    return _OK


def delta_blocks_by_products(m: BlockMat) -> Verdict:
    """M = zeta^k [[Id, B], [0, Id]] with B = B*; C = 0 is given."""
    ul, ur, _, lr = m.blocks()
    ue = unit_exponent(ul[0, 0])
    if ue is None or ue[0] < 0:
        return Verdict(False, "upper-left block is not zeta^k Id")
    ident = RingMatrix.identity(m.d, m.n) * zeta_pow(m.d, ue[1])
    if ul != ident:
        return Verdict(False, "upper-left block is not zeta^k Id")
    if lr != ident:
        return Verdict(False, "lower-right block does not match the upper-left scalar")
    b = ur * zeta_pow(m.d, -ue[1])
    if b != b.adjoint():
        return Verdict(False, "upper-right block is not self-adjoint")
    return _OK

"""Operator algebra for the Euler derivation theta = z*d/dz and the q-shift
automorphism f(z) -> f(qz): formal duals, the bilinear pairing matrices,
their determinant, inverse and the series of the inverse, and the
cell-by-cell verifier of both families, which also reads M = Psi^{-1}
from the head of that series.

Operators are stored in theta-form (Theta mode, L = sum A_j theta^j) or
shift-form (QShift mode, L = sum A_j Delta^j) with Polynomial coefficients
A_0..A_r, so the pairing matrices and their determinants are polynomial.
The entries of M = Psi^{-1} are the first fractions; each is a
RationalFunction, normalised once at the roots of the pivots of Psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, gcd, lcm, prod
from operator import mul

from .exact_algebra import (
    Polynomial,
    Q,
    RationalFunction,
    bilinear_combinations,
    integer_first_mismatch,
    is_integer,
    rat,
)

THETA = "theta"
QSHIFT = "qshift"

_ZERO = Polynomial.zero()
_RF_ZERO = RationalFunction.zero()


class DegenerateOperator(ValueError):
    """Operator violates a structural requirement (e.g. A_0 = 0 or A_r = 0)."""


class InsufficientPrecision(ValueError):
    """Truncation order too small for a certified verification run."""

    def __init__(self, order, minimum):
        super().__init__(
            "order %d is below the certified minimum %d" % (order, minimum)
        )
        self.order = order
        self.minimum = minimum


def _checked_base(mode, q):
    """Check a mode and its base: QShift mode needs the base q, Theta mode
    takes none. Returns q coerced to the scalar type, or None."""
    if mode not in (THETA, QSHIFT):
        raise ValueError("unknown mode %r" % (mode,))
    if mode == QSHIFT and q is None:
        raise ValueError("QShift mode requires the base q")
    if mode == THETA and q is not None:
        raise ValueError("Theta mode takes no base")
    return None if q is None else rat(q)


class SkewOperator:
    """L = A_r X^r + ... + A_1 X + A_0 with X = theta or X = Delta.

    coeffs holds the Polynomials A_0..A_r ascending; trailing zero
    coefficients are stripped, so order = len(coeffs)-1 and A_r != 0.
    QShift mode carries the base q with 0 < q < 1.
    """

    __slots__ = ("mode", "coeffs", "q")

    def __init__(self, mode, coeffs, q=None):
        q = _checked_base(mode, q)
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        if not cs:
            raise DegenerateOperator("zero operator")
        if q is not None and not (0 < q < 1):
            raise DegenerateOperator("base q must satisfy 0 < q < 1")
        self.mode = mode
        self.coeffs = tuple(cs)
        self.q = q

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coefficient(self, j):
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else _ZERO

    def __eq__(self, other):
        if not isinstance(other, SkewOperator):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        sym = "theta" if self.mode == THETA else "Delta"
        parts = ["(%r)*%s^%d" % (c, sym, j) for j, c in enumerate(self.coeffs)]
        return " + ".join(parts)


class TaggedSeries:
    """A formal product z^c * body(z), with the prefactor kept symbolic.

    Theta mode stores the exponent c itself (theta(z^c) = c z^c); QShift mode
    stores the eigenvalue mu with Delta(z^c) = mu z^c.
    """

    __slots__ = ("mode", "offset", "body", "q")

    def __init__(self, mode, offset, body, q=None):
        self.q = _checked_base(mode, q)
        self.mode = mode
        self.offset = rat(offset)
        self.body = body

    def __eq__(self, other):
        if not isinstance(other, TaggedSeries):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.q == other.q
            and self.offset == other.offset
            and self.body == other.body
        )

    def __repr__(self):
        return "z^[%s] * %r" % (self.offset, self.body)


def dual_operator(op):
    """Formal adjoint of a Theta operator: sum_j (-theta)^j o A_j, expanded
    to standard form with the commutation rule theta o a = a o theta + theta(a).
    """
    if op.mode != THETA:
        raise ValueError("dual_operator expects a Theta operator")
    r = op.order
    total = [_ZERO] * (r + 1)
    for j, a in enumerate(op.coeffs):
        cur = [a]
        for _ in range(j):
            nxt = [_ZERO] * (len(cur) + 1)
            for k, c in enumerate(cur):
                # (-theta) o (c theta^k) = -theta(c) theta^k - c theta^{k+1}
                nxt[k] = nxt[k] - c.theta()
                nxt[k + 1] = nxt[k + 1] - c
            cur = nxt
        for k, c in enumerate(cur):
            total[k] = total[k] + c
    return SkewOperator(THETA, total)


def q_dual_operator(op):
    """Dual of a QShift operator:
    L* = Delta^{r-1}(A_0) Delta^r + ... + A_{r-1} Delta + Delta^{-1}(A_r),
    where Delta^k on a coefficient substitutes z -> q^k z.
    """
    if op.mode != QSHIFT:
        raise ValueError("q_dual_operator expects a QShift operator")
    r = op.order
    if op.coefficient(0).is_zero:
        raise DegenerateOperator("A_0 = 0")
    q = op.q
    coeffs = [op.coefficient(r).scale_arg(q**-1)]
    for k in range(1, r + 1):
        coeffs.append(op.coefficient(r - k).scale_arg(q ** (k - 1)))
    return SkewOperator(QSHIFT, coeffs, q)


def _theta_power(a, l):
    for _ in range(l):
        a = a.theta()
    return a


def psi_matrix(op):
    """Pairing matrix of a Theta operator: entry (i,j) vanishes for
    i+j >= r and otherwise equals
    (-1)^i sum_{l=0}^{r-1-i-j} (-1)^l C(l+i, i) theta^l(A_{i+j+l+1}).
    """
    if op.mode != THETA:
        raise ValueError("psi_matrix expects a Theta operator")
    r, a = op.order, op.coeffs
    mat = [[_ZERO] * r for _ in range(r)]
    for i in range(r):
        for j in range(r - i):
            terms = [
                _theta_power(a[i + j + l + 1], l) * ((-1) ** (i + l) * comb(l + i, i))
                for l in range(r - i - j)
            ]
            mat[i][j] = sum(terms[1:], terms[0])
    return mat


def psi_q_matrix(op):
    """Pairing matrix of a QShift operator: row 0 is (0, ..., 0, -Delta^{-1}(A_r));
    row k >= 1 carries Delta^{k-1}(A_0..A_{r-1-k}) in columns k-1..r-2.
    """
    if op.mode != QSHIFT:
        raise ValueError("psi_q_matrix expects a QShift operator")
    r = op.order
    if op.coefficient(0).is_zero:
        raise DegenerateOperator("A_0 = 0")
    q, a = op.q, op.coeffs
    mat = [[_ZERO] * r for _ in range(r)]
    mat[0][r - 1] = -a[r].scale_arg(q**-1)
    for k in range(1, r):
        for j in range(r - k):
            mat[k][k - 1 + j] = a[j].scale_arg(q ** (k - 1))
    return mat


def _odd(perm):
    """True when the permutation perm has an odd number of inversions."""
    n = len(perm)
    return sum(perm[x] > perm[y] for x in range(n) for y in range(x + 1, n)) % 2 == 1


def matrix_det(mat):
    """Exact determinant of a square polynomial matrix that is upper
    triangular up to row and column order (_triangular_order), as Psi of
    either family is: the signed product of the pivots, a Polynomial.
    Raises ValueError for any other matrix, a singular one included.
    """
    rows, cols = _triangular_order(mat)
    det = prod((mat[i][j] for i, j in zip(rows, cols)), start=Polynomial.one())
    return -det if _odd(rows) != _odd(cols) else det


def _triangular_order(mat):
    """Row and column orders (rows, cols) under which a square matrix is
    upper triangular: mat[rows[i]][cols[j]] is zero for i > j and nonzero
    for i = j. Raises ValueError if it has no such order, as a singular
    matrix has none.

    Peels off, from the bottom up, a row with exactly one nonzero entry
    among the columns not yet taken; that entry is its pivot. Deleting a
    row and its pivot column from a triangular matrix leaves a triangular
    matrix, so this finds an order whenever there is one.
    """
    left, live = list(range(len(mat))), list(range(len(mat)))
    rows, cols = [], []
    while left:
        for i in left:
            nonzero = [j for j in live if not mat[i][j].is_zero]
            if len(nonzero) == 1:
                break
        else:
            raise ValueError("matrix is not triangular up to row and column order")
        left.remove(i)
        live.remove(nonzero[0])
        rows.append(i)
        cols.append(nonzero[0])
    return rows[::-1], cols[::-1]


def matrix_invert(mat):
    """Exact inverse, as a RationalFunction matrix, of a square polynomial
    matrix that is upper triangular up to row and column order
    (_triangular_order) with pivots of degree <= 1, as the pairing
    matrices of both families are. Raises ValueError for any other matrix,
    a singular one or one with a pivot of degree above 1 included.

    Taken in that order, mat is an upper triangular C with pivots
    d_m = C_mm, and C^{-1} has the entries Y_ij / prod_{m=i..j} d_m with
    Y_jj = 1 and
    Y_ij = -sum_{k=i+1..j} C_ik Y_kj prod_{m=i+1..k-1} d_m for i < j. The
    Y_ij take polynomial products and sums only, and each entry is
    normalised once, at the roots of its pivots d_i..d_j
    (RationalFunction).
    """
    rows, cols = _triangular_order(mat)
    c = [[mat[i][j] for j in cols] for i in rows]
    n = len(mat)
    out = [[_RF_ZERO] * n for _ in range(n)]
    for j in range(n):
        y = {j: Polynomial.one()}
        pivots = [c[j][j]]
        out[cols[j]][rows[j]] = RationalFunction(Polynomial.one(), *pivots)
        for i in range(j - 1, -1, -1):
            # Horner in the pivots: term k picks up d_(i+1) ... d_(k-1)
            acc = Polynomial.zero()
            for k in range(j, i, -1):
                acc = acc * c[k][k]
                if not c[i][k].is_zero:
                    acc = acc + c[i][k] * y[k]
            y[i] = -acc
            pivots.append(c[i][i])
            out[cols[i]][rows[j]] = RationalFunction(y[i], *pivots)
    return out


@dataclass(frozen=True)
class CellResult:
    """Outcome of one verified identity cell (k, l)."""

    cell: tuple
    passed: bool
    expected: object = None
    got_prefix: tuple = None
    first_diff: int = None


@dataclass(frozen=True)
class VerificationReport:
    """Per-cell outcomes of one verification run."""

    cells: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.cells)


def check_cells(m, sums, structure_ok):
    """Certify each cell (k, l) of the r x r duality matrix m against its
    bilinear sum sums[k][l], an integer vector (v, d) through z^N, N > 2r:
    the sums through the truncation order, or the first 2r+2 terms of the
    series of Psi^(-1) (N = 2r+1), against which verify_duality and
    matrix --check decide M = Psi^(-1).

    A cell passes when v/d equals the expansion of m[k][l] through z^N and
    the entry meets structure_ok(k, l, m[k][l]) (the family's zero pattern
    and closed forms) and the degree bound deg P, deg Q <= r on
    m[k][l] = P/Q. A failing cell carries m[k][l], the first 2r+2
    coefficients of the sum and, when the series differ, the index of the
    first coefficient that does.

    The degree bound is exactly what rational reconstruction of the sum
    with degrees (r, r) would certify, because the sum is already proved
    equal to the expansion s of P/Q through z^N. Suppose the bound holds.
    A denominator q of degree <= r for which q s agrees through z^N with a
    polynomial p of degree <= r gives qP = pQ mod z^(N+1) (multiply by the
    unit Q), and deg(qP - pQ) <= 2r < N + 1, so qP = pQ and, P/Q being
    reduced, Q divides q. So no degree below deg Q has a nonzero
    denominator, the kernel at degree deg Q is spanned by Q, and
    reconstruction returns P/Q. If the bound fails, reconstruction returns
    only functions within the bound, so never P/Q.
    """
    r = len(m)
    cells = []
    for k in range(r):
        for l in range(r):
            v, d = sums[k][l]
            entry = m[k][l]
            first_diff = integer_first_mismatch(v, d, entry)
            ok = (
                first_diff is None
                and structure_ok(k, l, entry)
                and entry.num.degree <= r
                and entry.den.degree <= r
            )
            cells.append(
                CellResult(
                    (k, l),
                    ok,
                    expected=None if ok else entry,
                    got_prefix=None if ok else tuple(Q(x, d) for x in v[: 2 * r + 2]),
                    first_diff=first_diff,
                )
            )
    return VerificationReport(tuple(cells))


def _low_coefficients(polys):
    """(c0, c1, e): coefficients 0 and 1 of each of the Polynomials polys,
    as integers over e, the lcm of their denominators."""
    e = lcm(*(p.den for p in polys))
    low = [[x * (e // p.den) for x in (*p.nums, 0, 0)[:2]] for p in polys]
    return [c for c, _ in low], [c for _, c in low], e


def annihilated(op, entries):
    """True when op, with coefficients A_j = alpha_j + beta_j z, annihilates
    each tagged series z^c phi of entries through the order of phi.

    Coefficient n of L(z^c phi) / z^c is phi_n P0(n) + phi_(n-1) P1(n-1),
    where P0(n) = sum_j alpha_j x_n^j and P1(n) = sum_j beta_j x_n^j at the
    eigenvalue x_n of z^(c+n) under theta (c + n) resp. Delta (mu q^n).
    Each must vanish for n = 0..N, phi_(-1) = 0. Over the integers, with
    P0(n) = p0(n) / (e w_n), P1 likewise and phi_n = y_n / (v_0 ... v_n) as
    stored, that is y_n p0(n) w_(n-1) = -y_(n-1) v_n p1(n-1) w_n: it reads
    every stored numerator and step, by short products and no gcd.
    """
    if any(a.degree > 1 for a in op.coeffs):
        return False
    alpha, beta, _ = _low_coefficients(op.coeffs[::-1])
    for f in entries:
        s, t = int(f.offset.numerator), int(f.offset.denominator)
        q = f.q or 1
        qn, qd = int(q.numerator), int(q.denominator)
        prev, p1, w1 = 0, 0, 1  # y_(n-1), p1(n-1) and w_(n-1)
        for n, (y, v) in enumerate(zip(f.body.nums, f.body.steps)):
            xn, xd = (s + n * t, t) if f.mode == THETA else (s * qn**n, t * qd**n)
            p0, q1, w = 0, 0, 1
            for a, b in zip(alpha, beta):  # Horner in xn / xd, times w = xd^r
                p0, q1, w = p0 * xn + a * w, q1 * xn + b * w, w * xd
            w //= xd
            if y * (p0 * w1) != prev * (-v * p1 * w):
                return False
            prev, p1, w1 = y, q1, w
    return True


def _times_companion(op, mat):
    """mat C^ for the companion matrix C^ = A_r C of op cleared by its
    leading coefficient: A_r on the superdiagonal and -A_0, ..., -A_(r-1)
    in the last row, so that A_r X F = C^ F + (0, ..., 0, L f) for the
    column F = (X^l f)_(l<r). Column j of mat C^ is A_r times column j-1
    of mat less A_j times its last column."""
    a, r = op.coeffs, op.order
    return [
        [(row[j - 1] * a[r] if j else _ZERO) - row[r - 1] * a[j] for j in range(r)]
        for row in mat
    ]


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def lagrange_identity(op, dual, psi):
    """True when the polynomial matrix psi satisfies the Lagrange identity
    of op and its dual op*, with C^ and C^* their companion matrices
    (_times_companion) and A_r, A*_r their leading coefficients:
      theta: A_r C^*^T Psi + A_r A*_r theta(Psi) + A*_r Psi C^ = 0;
      q:     C^*^T Psi(qz) C^ = A_r A*_r Psi.
    For the columns F = (X^l f)_(l<r) and G = (X^k g)_(k<r) it makes
    A_r A*_r theta(G^T Psi F), resp. A_r A*_r (H(qz) - H) for
    H = G^T Psi F, a sum of multiples of L f and op*(g)."""
    unit = op.coeffs[-1] * dual.coeffs[-1]
    if op.mode == THETA:
        left = _transpose(_times_companion(dual, _transpose(psi)))
        right = _times_companion(op, psi)
        return all(
            (x * op.coeffs[-1] + e.theta() * unit + y * dual.coeffs[-1]).is_zero
            for xs, es, ys in zip(left, psi, right)
            for x, e, y in zip(xs, es, ys)
        )
    shifted = _transpose([[e.scale_arg(op.q) for e in row] for row in psi])
    left = _times_companion(op, _transpose(_times_companion(dual, shifted)))
    return left == [[e * unit for e in row] for row in psi]


def pairing_constants(psi, primal, dual, constants, N):
    """True when the pairing H_ij = sum_kl Psi_kl X^k(g_i) X^l(f_j) of the
    tagged series f_j of primal and g_i of dual starts, for i = j, with
    constants[i], and has, for i != j, no term z^n, n <= N, that X maps as
    it maps a constant.

    With x_j and x*_i the offsets of f_j and g_i, H_ii starts with
    phi_i(0) psi_i(0) sum_kl Psi_kl(0) x*_i^k x_i^l, and term z^n of H_ij
    has the eigenvalue x*_i + x_j + n under theta, resp. x*_i x_j q^n under
    Delta, where a constant has 0 resp. 1.
    """
    r = len(psi)
    at_zero, _, lift = _low_coefficients([x for row in psi for x in row])
    for i, (g, c) in enumerate(zip(dual, constants)):
        for j, f in enumerate(primal):
            if i == j:
                # total = sum_kl Psi_kl(0) x*^k x^l over lift (t w)^(r-1)
                s, t = int(f.offset.numerator), int(f.offset.denominator)
                u, w = int(g.offset.numerator), int(g.offset.denominator)
                xs = [s**l * t ** (r - 1 - l) for l in range(r)]
                ys = [u**k * w ** (r - 1 - k) for k in range(r)]
                total = sum(e * ys[n // r] * xs[n % r] for n, e in enumerate(at_zero))
                # phi_i(0) psi_i(0) total = c, over the stored steps v_0
                num = f.body.nums[0] * g.body.nums[0] * total * int(c.denominator)
                den = f.body.steps[0] * g.body.steps[0] * lift * (t * w) ** (r - 1)
                if num != int(c.numerator) * den:
                    return False
            elif f.mode == THETA:
                e = g.offset + f.offset
                if is_integer(e) and -N <= e <= 0:
                    return False
            else:
                e, n = g.offset * f.offset, 0
                while e > 1 and n < N:
                    e, n = e * f.q, n + 1
                if e == 1:
                    return False
    return True


def pairing_certifies(family, p, N, psi):
    """True when four exact checks prove, with no series product, that the
    bilinear sums of the family's solution bases equal psi^(-1) through
    z^N, for the pairing matrix psi = family.psi(op):
    1. op = family.operator(p) annihilates the primal basis (annihilated);
    2. op* = family.dual_operator(op) annihilates the dual basis;
    3. psi satisfies lagrange_identity, and the leading coefficients of op
       and op* are units of the power series;
    4. pairing_constants holds with C_i = family.c_constants(p), the
       constants whose inverses weight the sums.

    The sums are S = F W G^T, with F and G the matrices of the columns
    (X^l f_i)_(l<r) and (X^k g_i)_(k<r) and W = diag(1/C_i). By checks
    1-3, H = G^T Psi F satisfies theta(H) = 0, resp. H(qz) = H, through
    z^N, so every term of H that X does not map as a constant vanishes;
    by check 4, H = diag(C_i), the offsets are distinct (its terms n = 0)
    and phi_i(0) psi_i(0) != 0. At z = 0 the bodies of F and G are then
    Vandermonde matrices in the offsets times diag(phi_i(0)), resp.
    diag(psi_i(0)), so F and G are invertible through z^N, and
    S Psi F = F W H = F gives S Psi = 1. A check that fails refuses the
    certificate; it proves no cell wrong.
    """
    op = family.operator(p)
    dual_op = family.dual_operator(op)
    primal = family.solution_basis(p, N, "primal")
    dual = family.solution_basis(p, N, "dual")
    return (
        annihilated(op, primal)
        and annihilated(dual_op, dual)
        and op.coeffs[-1].nums[0] * dual_op.coeffs[-1].nums[0] != 0
        and lagrange_identity(op, dual_op, psi)
        and pairing_constants(psi, primal, dual, family.c_constants(p), N)
    )


def _reduced(t, d):
    """The integer matrix t over d != 0, divided by the gcd of d and its
    entries, taken with the sign of d so that the new d is positive."""
    g = gcd(d, *(x for row in t for x in row))
    g = g if d > 0 else -g
    return [[x // g for x in row] for row in t], d // g


def inverse_series(psi):
    """The expansion of Psi^(-1) from Psi = P0 + P1 z alone, or None when
    an entry of Psi has degree above 1 or P0 is singular: a function of N
    that gives its table of integer vectors (v, d) through z^N and keeps
    its terms, so that a higher N extends them.

    Its coefficients are S_0 = P0^(-1) and S_n = B S_(n-1) with
    B = -P0^(-1) P1, not from matrix_invert but from one fraction-free
    (Bareiss) Gauss-Jordan elimination on the integer rows
    e_i [P0 | 1 | -P1], e_i the lcm of the denominators of row i, whose
    divisions by the last pivot d are exact and which ends in
    d [1 | S_0 | B]. With e the lcm of their denominators, S_n is kept
    as T_n / d_n, where T_n = (e B) T_(n-1) over d_(n-1) e is reduced by
    the gcd of all its entries (_reduced), so that d_n is the lcm of the
    denominators of S_n and the heights stay those of S_n.
    """
    if any(x.degree > 1 for row in psi for x in row):
        return None
    r = len(psi)
    rows = []
    for i, row in enumerate(psi):
        p0, p1, e = _low_coefficients(row)
        rows.append(p0 + [e * (i == j) for j in range(r)] + [-x for x in p1])
    last = 1
    for c in range(r):
        pivot = next((i for i in range(c, r) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        for i, row in enumerate(rows):
            if i != c:
                f = row[c]
                rows[i] = [(top[c] * x - f * y) // last for x, y in zip(row, top)]
        last = top[c]
    both, e = _reduced([row[r:] for row in rows], last)
    step = [row[r:] for row in both]
    terms = [_reduced([row[:r] for row in both], e)]

    def through(N):
        while len(terms) <= N:
            t, d = terms[-1]
            product = [[sum(map(mul, s, col)) for col in zip(*t)] for s in step]
            terms.append(_reduced(product, d * e))
        head = terms[: N + 1]
        den = lcm(*(d for _, d in head))
        return [
            [([t[k][l] * (den // d) for t, d in head], den) for l in range(r)]
            for k in range(r)
        ]

    return through


def product_sum(family, p, N):
    """sum_i f_i g_i / C_i through z^N as an integer vector (v, d), one
    kernel output with unit scales. At r = 2, C_1 = -C_0, so it is zero
    exactly when f_1 g_1 = f_0 g_0."""
    primal = family.solution_basis(p, N, "primal")
    dual = family.solution_basis(p, N, "dual")
    pairs = [(f.body, g.body) for f, g in zip(primal, dual)]
    terms = [(1 / c, [1] * (N + 1)) for c in family.c_constants(p)]
    [total] = bilinear_combinations(pairs, [terms])
    return total


def minimum_order(r):
    """The least truncation order a certified verification of order r
    accepts."""
    return 4 * r + 8


def verify_duality(family, p, N):
    """Check, cell by cell, that the bilinear sums of the solution bases
    reproduce M = Psi^{-1} exactly through z^N, together with the
    family's closed-form zero pattern and the degree bounds (check_cells).
    It has three outcomes:
    1. pairing_certifies proves the sums equal to Psi^(-1), and check_cells
       passes M against the first 2r+2 terms of the series of Psi^(-1)
       (inverse_series): every cell passes, and no sum is formed.
    2. pairing_certifies holds, but a cell fails against that head:
       check_cells reads the sums from the series of Psi^(-1) through z^N,
       the head's terms extended, with no series product.
    3. pairing_certifies refuses, or inverse_series finds no expansion:
       the kernel forms the sums (family.bilinear_sum_table), and
       check_cells reads them.
    The certificate proves the sums of outcomes 2 and 3 equal, so a
    refused certificate costs time only.

    The head decides M = Psi^(-1) exactly. Psi has entries of degree <= 1,
    so the reduced entries P'/Q' of Psi^(-1) have degrees <= r, or
    inverse_series returns None; check_cells asks the same bound of each
    entry P/Q of M. If the expansions agree through z^(2r), then
    PQ' - P'Q has degree <= 2r and vanishes mod z^(2r+1), so it is 0. A
    passing head report therefore proves M = Psi^(-1), and so equals the
    report of outcome 2.

    family is the family module, hgdual.hypergeometric or
    hgdual.q_hypergeometric. Its surface is read through module attributes
    at call time: operator, dual_operator, psi, solution_basis and
    c_constants (pairing_certifies), duality_matrix(p),
    bilinear_sum_table(p, N) and structure_ok(p, k, l, entry).
    """
    minimum = minimum_order(p.r)
    if N < minimum:
        raise InsufficientPrecision(N, minimum)
    m = family.duality_matrix(p)
    structure = partial(family.structure_ok, p)
    psi, sums = family.psi(family.operator(p)), None
    if pairing_certifies(family, p, N, psi):
        series = inverse_series(psi)
        if series is not None:
            report = check_cells(m, series(2 * p.r + 1), structure)
            if report.passed:
                return report
            sums = series(N)
    if sums is None:
        sums = family.bilinear_sum_table(p, N)
    return check_cells(m, sums, structure)

"""The direct definitions the tests compare the package with. No command
runs any of them, so they live here and not in src/hgdual/: the polynomial
over Fractions that Polynomial replaces and the Fraction Horner pass that
RationalFunction replaced, Euclid over Q
and the normal form of a RationalFunction with any denominator (reduced),
the rational coefficients of a TruncatedSeries and the series of given
ones over prefix-lcm steps, the Fraction term-ratio recurrence, Fraction
arithmetic on TruncatedSeries, field arithmetic on
RationalFunction, rational reconstruction, the action of an operator and
the pairings and Wronskians on tagged series, the r^3 bilinear sum, the
failing cells of a report, the general determinant and inverse, the
matrix product, and the closed forms of the Pochhammer symbols and the
dual bases. Each is a free function on the package's values."""

import operator
from functools import reduce
from itertools import accumulate, permutations
from math import gcd

from hgdual.exact_algebra import (
    PoleAtOrigin,
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    rat,
)
from hgdual.hypergeometric import DegenerateParameters, hypergeometric_body
from hgdual.hypergeometric import term_ratio_series
from hgdual.q_hypergeometric import _shifted, argument_rescale
from hgdual.skew_operators import (
    THETA,
    SkewOperator,
    TaggedSeries,
    _odd,
    inverse_series,
    psi_matrix,
    psi_q_matrix,
)


class OffsetMismatch(ValueError):
    """Tagged series whose formal prefactors do not cancel."""


class ReconstructionFailed(ValueError):
    """No rational function within the degree bounds matches the series."""


# -- Polynomial over Fractions: the reference of the integer Polynomial


class FractionPolynomial:
    """A polynomial as a tuple of rational coefficients, ascending in z,
    trailing zeros stripped, with every operation taken coefficient by
    coefficient on Fractions: what Polynomial computes on integer
    numerators over one denominator."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, n):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Q(0)

    def __eq__(self, other):
        return isinstance(other, FractionPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return FractionPolynomial(out)

    def scale(self, c):
        return FractionPolynomial([rat(c) * x for x in self.coeffs])

    def theta(self):
        return FractionPolynomial([i * c for i, c in enumerate(self.coeffs)])

    def scale_arg(self, c):
        return FractionPolynomial([x * rat(c) ** i for i, x in enumerate(self.coeffs)])


def poly_coefficient(p, n):
    """Coefficient n of the Polynomial p, 0 beyond its degree."""
    return p.coeffs[n] if 0 <= n <= p.degree else Q(0)


def horner_normal_form(num, *factors):
    """The coefficients (num, den) of RationalFunction(num, *factors) by one
    Fraction Horner pass at the root of every linear factor, none skipped:
    the factor is dropped, and num divided by it, when num vanishes at its
    root, and it joins den otherwise; den is made monic at the end."""
    num, den = FractionPolynomial(num.coeffs), FractionPolynomial((1,))
    for f in (FractionPolynomial(f.coeffs) for f in factors):
        if f.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if f.degree > 1:
            raise ValueError("denominator factor of degree above 1")
        if num.is_zero:
            continue
        if f.degree == 1:
            f0, f1 = f.coeffs
            root, acc, quot = -f0 / f1, Q(0), []
            for c in reversed(num.coeffs):
                acc = acc * root + c
                quot.append(acc)
            if quot.pop() == 0:
                num = FractionPolynomial([x / f1 for x in reversed(quot)])
                continue
        den = den * f
    if num.is_zero:
        return (), (Q(1),)
    lead = den.coeffs[-1]
    return num.scale(1 / lead).coeffs, den.scale(1 / lead).coeffs


# -- Euclid over Q: the reference normal form of RationalFunction


def poly_divmod(p, d):
    """Euclidean division: p = q*d + rem with deg rem < deg d."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dq = len(p.coeffs) - len(d.coeffs)
    if dq < 0:
        return Polynomial(()), p
    quot = [Q(0)] * (dq + 1)
    lead = d.coeffs[-1]
    for k in range(dq, -1, -1):
        c = rem[k + d.degree] / lead
        quot[k] = c
        if c != 0:
            for j, dc in enumerate(d.coeffs):
                rem[k + j] -= c * dc
    return Polynomial(quot), Polynomial(rem)


def poly_divexact(p, d):
    q, rem = poly_divmod(p, d)
    if not rem.is_zero:
        raise ValueError("inexact polynomial division")
    return q


def poly_gcd(p, q):
    """Monic greatest common divisor via the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.scale(1 / a.coeffs[-1])


def reduced(num, den):
    """num / den divided by poly_gcd(num, den), with den made monic: the
    normal form RationalFunction(num, *factors) gives when den is the
    product of the factors, here for any den. It is built through
    object.__new__ and the two slots, because den need not split into the
    factors of degree <= 1 that the constructor takes."""
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    f = object.__new__(RationalFunction)
    if num.is_zero:
        f.num, f.den = Polynomial(()), Polynomial.one()
        return f
    g = poly_gcd(num, den)
    num, den = poly_divexact(num, g), poly_divexact(den, g)
    lead = den.coeffs[-1]
    f.num, f.den = num.scale(1 / lead), den.scale(1 / lead)
    return f


# -- TruncatedSeries as rational coefficients, and its arithmetic: a binary
# operation keeps the lower order


def coefficients(s):
    """The rational coefficients nums[n] / (steps[0] ... steps[n]) of the
    TruncatedSeries s, reduced."""
    return tuple(map(Q, s.nums, accumulate(s.steps, operator.mul)))


def series(coeffs):
    """The TruncatedSeries with the given rational coefficients, over the
    prefix lcms L(n) of their reduced denominators: steps[n] is
    L(n) / L(n-1), the steps the graded lifts took before they read the
    stored ones."""
    nums, steps, prefix = [], [], 1
    for c in map(rat, coeffs):
        den = int(c.denominator)
        step = den // gcd(prefix, den)
        prefix *= step
        nums.append(int(c.numerator) * (prefix // den))
        steps.append(step)
    return TruncatedSeries(nums, steps)


def term_ratio_coefficients(upper, lower, N, factor, scale=Q(1)):
    """The Fraction recurrence that term_ratio_series keeps as integer
    graded data: c_0 = 1 and c_{n+1} = c_n * Q(num, den), num/den the
    product of the step's factors, one rational product per step."""
    up = [(int(x.numerator), int(x.denominator)) for x in upper]
    low = [(int(x.numerator), int(x.denominator)) for x in lower]
    coeffs = [Q(1)]
    for n in range(N):
        num, den = int(scale.numerator), int(scale.denominator)
        for x in up:
            fn, fd = factor(x, n)
            num, den = num * fn, den * fd
        for x in low:
            fn, fd = factor(x, n)
            num, den = num * fd, den * fn
        if not den:
            raise DegenerateParameters("a lower factor vanishes at n = %d" % n)
        coeffs.append(coeffs[-1] * Q(num, den))
    return tuple(coeffs)


def zero(order):
    return series([0] * (order + 1))


def one(order):
    return series([1] + [0] * order)


def series_of_integer_vector(v, d):
    """The TruncatedSeries with coefficients v[n] / d."""
    return series([Q(x, d) for x in v])


def add(a, b):
    return series([x + y for x, y in zip(coefficients(a), coefficients(b))])


def sub(a, b):
    return series([x - y for x, y in zip(coefficients(a), coefficients(b))])


def scale(s, c):
    """c * s for a rational c; on a TaggedSeries c multiplies the body."""
    if isinstance(s, TaggedSeries):
        return TaggedSeries(s.mode, s.offset, scale(s.body, c), s.q)
    c = rat(c)
    return series([c * x for x in coefficients(s)])


def mul(a, b):
    """The Cauchy product a * b."""
    a, b = coefficients(a), coefficients(b)
    n = min(len(a), len(b))
    out = [Q(0)] * n
    for i, x in enumerate(a[:n]):
        if x != 0:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return series(out)


def theta(s):
    """The Euler operator: the coefficient of z^n multiplies by n."""
    return series([n * c for n, c in enumerate(coefficients(s))])


def scale_arg(s, c):
    """s(c*z): the coefficient of z^n multiplies by c^n."""
    c = rat(c)
    return series([x * c**n for n, x in enumerate(coefficients(s))])


def evaluate(p, x):
    """The Polynomial p at the rational x, by Horner's rule."""
    acc = Q(0)
    for c in reversed(p.coeffs):
        acc = acc * rat(x) + c
    return acc


def series_invert(a):
    """Multiplicative inverse: a * result = 1 through the truncation order."""
    a = coefficients(a)
    if a[0] == 0:
        raise ZeroDivisionError("series with zero constant term is not invertible")
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-out[0] * sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return series(out)


def series_of_poly(p, order):
    """The Polynomial p as a series through z^order."""
    return series([poly_coefficient(p, i) for i in range(order + 1)])


def series_of_ratfunc(f, order):
    """Maclaurin expansion of a rational function through z^order."""
    if poly_coefficient(f.den, 0) == 0:
        raise PoleAtOrigin("rational function has a pole at z = 0")
    return mul(series_of_poly(f.num, order), series_invert(series_of_poly(f.den, order)))


def _kernel_vector(rows, ncols):
    """One nonzero kernel vector of the matrix given by rows, via exact
    Gaussian elimination. rows may be fewer than ncols."""
    mat = [list(row) for row in rows]
    pivots = []
    free = list(range(ncols))
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        free.remove(c)
        r += 1
        if r == len(mat):
            break
    if not free:
        return None
    vec = [Q(0)] * ncols
    vec[free[0]] = Q(1)
    for row_idx, pc in enumerate(pivots):
        vec[pc] = -mat[row_idx][free[0]]
    return vec


def rational_reconstruct(a, num_deg, den_deg):
    """Recover p/q with deg p <= num_deg, deg q <= den_deg, den(0) != 0 from
    the series a, certifying against every supplied coefficient.

    The denominator degree is minimized: candidates are tried from degree 0
    upward and the first fully-certified one wins. Raises ReconstructionFailed
    when nothing within the bounds matches.
    """
    order, coeffs = a.order, coefficients(a)
    if order < num_deg + den_deg + 1:
        raise ValueError(
            "series order %d too small for bounds (%d, %d); need >= %d"
            % (order, num_deg, den_deg, num_deg + den_deg + 1)
        )
    for d in range(den_deg + 1):
        # q has d+1 unknown coefficients; require every known coefficient of
        # q*a beyond z^num_deg to vanish (overdetermined on purpose)
        rows = [
            [coeffs[k - j] if k - j >= 0 else Q(0) for j in range(d + 1)]
            for k in range(num_deg + 1, order + 1)
        ]
        qvec = _kernel_vector(rows, d + 1)
        if qvec is None:
            continue
        den = Polynomial(qvec)
        if den.is_zero:
            continue
        prod = mul(series_of_poly(den, order), a)
        f = reduced(Polynomial(coefficients(prod)[: num_deg + 1]), den)
        if poly_coefficient(f.den, 0) == 0 or f.num.degree > num_deg:
            continue
        if series_of_ratfunc(f, order) == a:
            return f
    raise ReconstructionFailed(
        "no rational function with degrees (%d, %d) matches all %d coefficients"
        % (num_deg, den_deg, order + 1)
    )


# -- RationalFunction arithmetic: each result normalised by reduced


def ratfunc(p):
    """The Polynomial p as a RationalFunction over the denominator 1."""
    return reduced(p, Polynomial.one())


def rf_add(f, g):
    return reduced(f.num * g.den + g.num * f.den, f.den * g.den)


def rf_sub(f, g):
    return reduced(f.num * g.den - g.num * f.den, f.den * g.den)


def rf_mul(f, g):
    return reduced(f.num * g.num, f.den * g.den)


def rf_div(f, g):
    if g.is_zero:
        raise ZeroDivisionError("division by the zero rational function")
    return reduced(f.num * g.den, f.den * g.num)


def rf_theta(f):
    """z * d/dz, the Euler derivation: (theta(n) d - n theta(d)) / d^2."""
    return reduced(f.num.theta() * f.den - f.num * f.den.theta(), f.den * f.den)


def rf_scale_arg(f, c):
    """Substitute z -> c*z."""
    return reduced(f.num.scale_arg(c), f.den.scale_arg(c))


def inverse_table(psi, N):
    """The series of Psi^(-1) through z^N as the table of integer vectors
    that check_cells reads, from a fresh inverse_series, or None where it
    finds no expansion."""
    series = inverse_series(psi)
    return series and series(N)


def failures(report):
    """The failing cells of a VerificationReport."""
    return tuple(c for c in report.cells if not c.passed)


# -- operators and tagged series


def scale_operator(op, unit):
    """Multiply every coefficient by a nonzero rational."""
    if rat(unit) == 0:
        raise ValueError("unit must be nonzero")
    return SkewOperator(op.mode, [c.scale(unit) for c in op.coeffs], op.q)


def rescale_operator(op, c):
    """Substitute z -> c*z in every coefficient."""
    return SkewOperator(op.mode, [a.scale_arg(c) for a in op.coeffs], op.q)


def advance(s):
    """One application of the mode's operator symbol.

    Theta: theta(z^c phi) = z^c (c + theta) phi.
    QShift: Delta(z^c phi) = mu z^c phi(qz).
    """
    if s.mode == THETA:
        body = add(scale(s.body, s.offset), theta(s.body))
    else:
        body = scale(scale_arg(s.body, s.q), s.offset)
    return TaggedSeries(s.mode, s.offset, body, s.q)


def apply(op, s):
    """Apply the operator to a tagged series, exactly through its order."""
    if s.mode != op.mode:
        raise ValueError("operator and series mode disagree")
    n = s.body.order
    acc, term = zero(n), s
    for a in op.coeffs:
        if not a.is_zero:
            acc = add(acc, mul(series_of_poly(a, n), term.body))
        term = advance(term)
    return TaggedSeries(op.mode, s.offset, acc, s.q)


def cancels_with(g, f):
    if g.mode != f.mode or g.q != f.q:
        return False
    if g.mode == THETA:
        return g.offset + f.offset == 0
    return g.offset * f.offset == 1


def pair_product(g, f):
    """Product collapsing to a plain series; the prefactors must cancel."""
    if not cancels_with(g, f):
        raise OffsetMismatch("prefactors do not cancel: %s vs %s" % (g.offset, f.offset))
    return mul(g.body, f.body)


def _pairing(mat, g, f):
    """Sum_{i,j} mat_ij X^i(g) X^j(f) for the mode's operator symbol X."""
    if not cancels_with(g, f):
        raise OffsetMismatch("pairing requires cancelling prefactors")
    r = len(mat)
    n = min(g.body.order, f.body.order)
    gs, fs = [g], [f]
    for _ in range(r - 1):
        gs.append(advance(gs[-1]))
        fs.append(advance(fs[-1]))
    acc = zero(n)
    for i in range(r):
        for j in range(r):
            if not mat[i][j].is_zero:
                term = mul(series_of_poly(mat[i][j], n), pair_product(gs[i], fs[j]))
                acc = add(acc, term)
    return acc


def omega_pairing(op, g, f):
    """Sum_{i,j} Psi_{ij} theta^i(g) theta^j(f) as a plain series; constant
    through the guard order when g, f solve the dual and primal equations."""
    return _pairing(psi_matrix(op), g, f)


def omega_q_pairing(op, g, f):
    """Shift-mode pairing (g, Delta g, ...) Psi_q (f, Delta f, ...)^t."""
    return _pairing(psi_q_matrix(op), g, f)


def annihilates(op, s, guard):
    """True when op(s) vanishes on every coefficient z^0..z^{order-guard}."""
    out = coefficients(apply(op, s).body)
    return all(c == 0 for c in out[: len(out) - guard])


def wronskian_det(rows):
    """Determinant of the matrix whose k-th row is the k-th theta- or
    Delta-power of each input, as a tagged series. Every permutation term
    carries the same total prefactor (one entry per column), so the
    determinant is z^[sum of offsets] times a plain series."""
    if not rows:
        raise ValueError("empty solution list")
    r, first = len(rows), rows[0]
    mat = [list(rows)]
    for _ in range(r - 1):
        mat.append([advance(s) for s in mat[-1]])
    if first.mode == THETA:
        total = sum((s.offset for s in rows), Q(0))
    else:
        total = Q(1)
        for s in rows:
            total *= s.offset
    n = min(s.body.order for s in rows)
    det = zero(n)
    for perm in permutations(range(r)):
        term = one(n)
        for k in range(r):
            term = mul(term, mat[k][perm[k]].body)
        det = add(det, scale(term, -1) if _odd(perm) else term)
    return TaggedSeries(first.mode, total, det, first.q)


def bilinear_sum(weights, f_powers, g_powers, k, l):
    """sum_i w_i X^k(f_i) X^l(g_i) collapsed to a plain series, where
    f_powers[i][k] = X^k(f_i) for X = theta or Delta: the direct r^3
    definition of both families' sum tables."""
    acc = None
    for w, fp, gp in zip(weights, f_powers, g_powers):
        term = scale(pair_product(fp[k], gp[l]), w)
        acc = term if acc is None else add(acc, term)
    return acc


# -- polynomial matrices


def bareiss_det(mat):
    """Exact determinant of a polynomial matrix by fraction-free (Bareiss)
    elimination below the pivots: each step divides by the previous pivot,
    and every entry stays a minor of mat, so the divisions are exact and
    the last pivot is the determinant up to the sign of the row swaps."""
    m = [list(row) for row in mat]
    n = len(m)
    sign, prev = 1, Polynomial.one()
    for k in range(n):
        swap = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if swap is None:
            return Polynomial.zero()
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            factor = row[k]
            row[k + 1 :] = [
                poly_divexact(pivot * x - factor * y, prev)
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return prev if sign == 1 else -prev


def gauss_jordan_invert(mat):
    """The general inverse of a polynomial matrix, as RationalFunctions:
    one fraction-free (Bareiss) Gauss-Jordan pass takes [mat | I] to
    [d I | T] with T mat = d I, so mat^{-1} = T / d. Every entry stays a
    minor of [mat | I], so the divisions by the previous pivot are exact."""
    n = len(mat)
    m = [
        list(row) + [Polynomial.one() if i == j else Polynomial.zero() for j in range(n)]
        for i, row in enumerate(mat)
    ]
    prev = Polynomial.one()
    for k in range(n):
        swap = next((i for i in range(k, n) if not m[i][k].is_zero), None)
        if swap is None:
            raise ZeroDivisionError("matrix has zero determinant")
        m[k], m[swap] = m[swap], m[k]
        pivot, pivot_row = m[k][k], m[k]
        for i, row in enumerate(m):
            if i == k:
                continue
            factor = row[k]
            row[k + 1 :] = [
                poly_divexact(pivot * x - factor * y, prev)
                for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return [[reduced(x, prev) for x in row[n:]] for row in m]


def entrywise_mul(a, b):
    """The product of two RationalFunction matrices with every entry a sum
    of products, each product and each sum normalised by a gcd."""
    return [
        [
            reduce(rf_add, (rf_mul(a[i][k], b[k][j]) for k in range(len(b))))
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def matrix_mul(a, b):
    """The product a b of a RationalFunction matrix a, such as M, and a
    polynomial matrix b, such as Psi: a is cleared to the polynomial matrix
    C = den a, den the monic lcm of its entry denominators, C is multiplied
    by b, and entry (i, j) is normalised once, as (C b)_ij / den."""
    den = Polynomial.one()
    for e in (e for row in a for e in row):
        den = poly_divexact(den * e.den, poly_gcd(den, e.den))
    ca = [[e.num * poly_divexact(den, e.den) for e in row] for row in a]
    cols, zero_ = list(zip(*b)), Polynomial.zero()
    return [
        [reduced(sum(map(operator.mul, row, col), zero_), den) for col in cols]
        for row in ca
    ]


def matrix_identity(n):
    one, zero_ = ratfunc(Polynomial.one()), RationalFunction.zero()
    return [[one if i == j else zero_ for j in range(n)] for i in range(n)]


# -- closed forms of the series bodies


def pochhammer(x, n):
    """Rising factorial x(x+1)...(x+n-1), with (x)_0 = 1: the closed form
    the term-ratio recurrence is checked against."""
    if n < 0:
        raise ValueError("pochhammer index must be non-negative")
    x = rat(x)
    acc = Q(1)
    for k in range(n):
        acc *= x + k
    return acc


def q_pochhammer(a, q, n):
    """q-shifted factorial (a;q)_n = (1-a)(1-aq)...(1-aq^{n-1}): the closed
    form the term-ratio recurrence is checked against."""
    if n < 0:
        raise ValueError("q-pochhammer index must be non-negative")
    a, q = rat(a), rat(q)
    acc = Q(1)
    power = Q(1)
    for _ in range(n):
        acc *= 1 - a * power
        power *= q
    return acc


def q_hypergeometric_body(upper, lower, q, N):
    """sum_n prod (u;q)_n / (prod (l;q)_n (q;q)_n) z^n through z^N."""
    q = rat(q)
    return term_ratio_series([*map(rat, upper)], [*map(rat, lower), q], N, _shifted(q, N))


def explicit_dual_basis(p, N):
    """g_i = z^{b_i-1} F(b_i-a_k ; b_i+1-b_j, j != i), written out."""
    entries = []
    for i, bi in enumerate(p.b):
        upper = [bi - x for x in p.a]
        lower = [bi + 1 - x for j, x in enumerate(p.b) if j != i]
        entries.append((bi - 1, hypergeometric_body(upper, lower, N)))
    return entries


def explicit_q_dual_basis(p, N):
    """g_i with the shift eigenvalue b_i/q and the body
    (b_i/a_k ; q b_i/b_j, j != i) in the variable rho*z, written out."""
    rho = argument_rescale(p)
    entries = []
    for i, bi in enumerate(p.b):
        upper = [bi / x for x in p.a]
        lower = [p.q * bi / x for j, x in enumerate(p.b) if j != i]
        body = scale_arg(q_hypergeometric_body(upper, lower, p.q, N), rho)
        entries.append((bi / p.q, body))
    return entries

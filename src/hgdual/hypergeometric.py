"""Order-r generalized hypergeometric machinery: the theta-form operator,
its dual parameters, the solution bases f_i/g_i, the pairing constants, the
duality matrix M = Psi^{-1}, and exact verification of the bilinear sum
identities including the closed-form r=2 and r=3 matrices.

Every body of both families comes from one term-ratio recurrence, whose
factorial is the implicit last lower parameter. The dual basis is the
primal basis of the dual parameters a -> 1-a, b -> 2-b.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd, lcm, prod

from .exact_algebra import (
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    bilinear_combinations,
    integer_vector,
    is_integer,
    rat,
)
from .skew_operators import (
    THETA,
    CellResult,
    SkewOperator,
    TaggedSeries,
    VerificationReport,
    dual_operator,
    matrix_invert,
    product_sum,
    psi_matrix,
    verify_duality,
)

# Draws a seeded sampler makes before it gives up on finding generic
# parameters.
MAX_DRAWS = 1000


class DegenerateParameters(ValueError):
    """Parameter tuple outside the generic range the solution theory needs."""


def check_order(r):
    """The duality theory needs r >= 2 upper and lower parameters."""
    if r < 2:
        raise DegenerateParameters("need r >= 2 with r upper and r lower parameters")


def elementary_symmetric(values):
    """All elementary symmetric functions e_0..e_n of the given rationals."""
    es = [Q(1)]
    for v in values:
        v = rat(v)
        es.append(Q(0))
        for k in range(len(es) - 1, 0, -1):
            es[k] = es[k] + v * es[k - 1]
    return es


@dataclass(frozen=True)
class HGParams:
    """Parameters (a_1..a_r; b_1..b_r) with b_r = 1, b_i distinct mod Z."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = tuple(rat(x) for x in self.a)
        b = tuple(rat(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise DegenerateParameters("need as many upper as lower parameters")
        check_order(len(a))
        if b[-1] != 1:
            raise DegenerateParameters("the last lower parameter must be 1")
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                if is_integer(b[i] - b[j]):
                    raise DegenerateParameters(
                        "lower parameters %s and %s differ by an integer"
                        % (b[i], b[j])
                    )

    @classmethod
    def make(cls, a, b_head):
        """Build from r upper parameters and the r-1 free lower ones."""
        return cls(tuple(rat(x) for x in a), tuple(rat(x) for x in b_head) + (Q(1),))

    @property
    def r(self):
        return len(self.a)

    def dual(self):
        """The parameter map a -> 1-a, b -> 2-b; the last entry stays 1."""
        return HGParams(
            tuple(1 - x for x in self.a), tuple(2 - x for x in self.b)
        )


def sample_rationals(rng, n):
    """n seeded rationals with numerator and denominator in 1..97."""
    return tuple(Q(rng.randint(1, 97), rng.randint(1, 97)) for _ in range(n))


def draw_params(rng, r, make, admissible):
    """Seeded rejection sampling for both families: draw r upper parameters
    a until admissible(a), then r-1 lower ones b_head, and return
    make(a, b_head); redraw when it raises DegenerateParameters, at most
    MAX_DRAWS times."""
    check_order(r)
    for _ in range(MAX_DRAWS):
        a = sample_rationals(rng, r)
        if not admissible(a):
            continue
        try:
            return make(a, sample_rationals(rng, r - 1))
        except DegenerateParameters:
            continue
    raise DegenerateParameters("no generic parameters in %d draws" % MAX_DRAWS)


def sample_params(rng, r):
    """Random generic parameters; integer upper parameters are rejected so
    the dual parameter list stays inside the validated class."""
    return draw_params(rng, r, HGParams.make, lambda a: not any(map(is_integer, a)))


def hg_operator(p):
    """L = (theta+b_1-1)...(theta+b_r-1) - z (theta+a_1)...(theta+a_r).

    Coefficient of theta^j is e_{r-j}(b-1) - z e_{r-j}(a); the leading
    coefficient is 1-z and, since b_r = 1, the constant one is -z a_1...a_r.
    """
    r = p.r
    eb = elementary_symmetric([x - 1 for x in p.b])
    ea = elementary_symmetric(p.a)
    coeffs = [Polynomial([eb[r - j], -ea[r - j]]) for j in range(r + 1)]
    return SkewOperator(THETA, coeffs)


def dual_unit(p):
    """dual_operator(hg_operator(p)) = unit * hg_operator(p.dual())."""
    return Q(1) if p.r % 2 == 0 else Q(-1)


def argument_rescale(p):
    """None: the dual solutions live in the variable z itself."""
    return None


def psi_det(op):
    """The closed form det Psi = A_r^r."""
    return prod([op.coefficient(op.order)] * op.order, start=Polynomial.one())


def term_ratio_series(upper, lower, N, factor, scale=Q(1)):
    """Series sum_n c_n z^n through z^N with c_0 = 1 and
    c_{n+1} = c_n scale prod factor(u, n) / prod factor(l, n), the one
    recurrence of both families: factor(x, n) is x + n resp. 1 - x q^n,
    the factorial is the last lower parameter, 1 resp. q, and the series
    is taken in the variable scale*z. factor takes x as the integer pair
    (num(x), den(x)) and returns its value as an integer pair too. Each
    step's ratio is reduced by one gcd of short integers to u/v, v > 0,
    and kept as the step v and the numerator y_{n+1} = y_n u: a tall y_n
    meets one short product and no gcd (TruncatedSeries). A body that has
    ended keeps the step 1. A lower factor that vanishes at a step n < N
    raises DegenerateParameters."""
    up = [(int(x.numerator), int(x.denominator)) for x in upper]
    low = [(int(x.numerator), int(x.denominator)) for x in lower]
    nums, steps = [1], [1]
    for n in range(N):
        num, den = int(scale.numerator), int(scale.denominator)
        for x in up:
            fn, fd = factor(x, n)
            num, den = num * fn, den * fd
        for x in low:
            fn, fd = factor(x, n)
            num, den = num * fd, den * fn
        if not den:
            l = next(l for l, x in zip(lower, low) if factor(x, n)[0] == 0)
            raise DegenerateParameters(
                "lower parameter %s gives a zero factor at n = %d" % (l, n)
            )
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        nums.append(nums[-1] * (num // g))
        steps.append(den // g if nums[-1] else 1)  # a zero needs no step
    return TruncatedSeries(nums, steps)


def _rising(x, n):
    """The theta-family factor x + n of x = (num, den), as an integer pair."""
    return x[0] + n * x[1], x[1]


def hypergeometric_body(upper, lower, N):
    """sum_n prod (u)_n / (prod (l)_n n!) z^n through z^N."""
    return term_ratio_series([*map(rat, upper)], [*map(rat, lower), Q(1)], N, _rising)


def solution_basis(p, N, which="primal"):
    """The primal basis, a tuple of tagged series
    f_i = z^{1-b_i} F(a_k+1-b_i ; b_j+1-b_i) over all j, where j = i gives
    the factorial 1; the dual basis g_i is the primal basis of p.dual()."""
    if which not in ("primal", "dual"):
        raise ValueError("which must be 'primal' or 'dual'")
    if which == "dual":
        p = p.dual()
    entries = []
    for bi in p.b:
        upper = [x + 1 - bi for x in p.a]
        body = term_ratio_series(upper, [x + 1 - bi for x in p.b], N, _rising)
        entries.append(TaggedSeries(THETA, 1 - bi, body))
    return tuple(entries)


def c_constants(p):
    """Diagonal pairing constants C_ii = prod_{j != i} (b_j - b_i)."""
    return [prod(p.b[j] - p.b[i] for j in range(p.r) if j != i) for i in range(p.r)]


def duality_weights(p):
    """The weights 1/C_ii multiplying f_i g_i in the bilinear sums."""
    return [1 / c for c in c_constants(p)]


def duality_matrix(p):
    return matrix_invert(psi_matrix(hg_operator(p)))


def _over_one_minus_z(num, k):
    """The RationalFunction num(z) / (1 - z)^k, num a coefficient list."""
    return RationalFunction(Polynomial(num), *[Polynomial([1, -1])] * k)


def anti_diagonal_entry(l):
    """Value of the duality matrix on the k+l = r-1 anti-diagonal."""
    return _over_one_minus_z([(-1) ** l], 1)


def bilinear_sum_table(p, N):
    """Every sum T_kl = sum_i w_i theta^k(f_i) theta^l(g_i), 0 <= k, l < r,
    through z^N, as integer vectors (v, d) over one common denominator:
    the sums of a verify whose pairing certificate is refused.

    With c_i = s_i / t_i the exponent of f_i, theta^k(f_i) g_i has the
    body ((c_i + theta)^k phi_i) psi_i, whose coefficient n before the
    product is (c_i + n)^k phi_in. So the first column T_k0, k = 0..2r-2,
    is one kernel call of 2r-1 outputs that reweight one set of big
    products phi_in psi_ij per i: term i of output k has the weight
    w_i / t_i^k and the integer scale (s_i + n t_i)^k. The Leibniz rule
    theta(T_kl) = T_(k+1)l + T_k(l+1) then gives the other columns as
    T_k(l+1) = theta(T_kl) - T_(k+1)l, exactly through z^N.
    """
    r = p.r
    weights = duality_weights(p)
    primal = solution_basis(p, N, "primal")
    dual = solution_basis(p, N, "dual")
    pairs = [(f.body, g.body) for f, g in zip(primal, dual)]
    # w_i (c_i + n)^k = (w_i / t_i^k) powers[k][n] with c_i = s_i / t_i
    terms = []
    for w, f in zip(weights, primal):
        s, t = int(f.offset.numerator), int(f.offset.denominator)
        base = [s + n * t for n in range(N + 1)]
        powers = [[1] * (N + 1)]
        for _ in range(2 * r - 2):
            powers.append([x * y for x, y in zip(powers[-1], base)])
        terms.append([(w / t**k, v) for k, v in enumerate(powers)])
    column = bilinear_combinations(pairs, list(zip(*terms)))
    d = lcm(*(cd for _, cd in column))
    table = [[[x * (d // cd) for x in cv] for cv, cd in column]]
    for _ in range(r - 1):
        prev = table[-1]
        table.append(
            [
                [n * x - y for n, (x, y) in enumerate(zip(t, nxt))]
                for t, nxt in zip(prev, prev[1:])
            ]
        )
    return [[(table[l][k], d) for l in range(r)] for k in range(r)]


def structure_ok(p, k, l, entry):
    """The closed-form zero pattern of M: zero above the anti-diagonal
    k + l = r - 1, and (-1)^l / (1-z) on it."""
    if k + l <= p.r - 2:
        return entry.is_zero
    if k + l == p.r - 1:
        return entry == anti_diagonal_entry(l)
    return True


def verify_theorem1(p, N):
    """Certify the theta-family duality M = Psi^{-1} through z^N with
    skew_operators.verify_duality."""
    return verify_duality(sys.modules[__name__], p, N)


def closed_form_m_r2(p):
    """The r=2 duality matrix in closed form:
    [[0, -1/(1-z)], [1/(1-z), (b_1+b_2-2+(1-a_1-a_2)z)/(1-z)^2]]."""
    if p.r != 2:
        raise ValueError("closed form is for r = 2")
    a1, a2 = p.a
    b1, b2 = p.b
    return [
        [RationalFunction.zero(), anti_diagonal_entry(1)],
        [anti_diagonal_entry(0), _over_one_minus_z([b1 + b2 - 2, 1 - a1 - a2], 2)],
    ]


def closed_form_m_r3(p):
    """The r=3 duality matrix in closed form, written with the elementary
    symmetric functions e_1, e_2 of the upper and lower parameters."""
    if p.r != 3:
        raise ValueError("closed form is for r = 3")
    ea = elementary_symmetric(p.a)
    eb = elementary_symmetric(p.b)
    e1a, e2a = ea[1], ea[2]
    e1b, e2b = eb[1], eb[2]
    big_a = (e1b - 2) * (e1b - 2) - e2b + 2
    big_b = e2b - 2 * (e1a - Q(1, 2)) * (e1b - Q(5, 2)) + e2a - Q(5, 2)
    big_c = (e1a - 1) * (e1a - 1) - e2a
    zero = RationalFunction.zero()
    return [
        [zero, zero, anti_diagonal_entry(2)],
        [zero, anti_diagonal_entry(1), _over_one_minus_z([3 - e1b, -2 + e1a], 2)],
        [
            anti_diagonal_entry(0),
            _over_one_minus_z([-3 + e1b, 1 - e1a], 2),
            _over_one_minus_z([big_a, big_b, big_c], 3),
        ],
    ]


def verify_euler_identity(a1, a2, b1, N):
    """Two classical order-2 checks at the given parameters, both on the
    kernel verify uses: the quadratic transformation
    F(a,b;c;z) = (1-z)^{c-a-b} F(c-a,c-b;c;z), one kernel product
    prefactor * right with a unit scale against integer_vector(left), both
    canonical, so equal exactly when the series agree through z^N; and
    the four-product identity f_1 g_1 = f_0 g_0 (product_sum)."""
    a1, a2, b1 = rat(a1), rat(a2), rat(b1)
    left = hypergeometric_body([a1, a2], [b1], N)
    right = hypergeometric_body([b1 - a1, b1 - a2], [b1], N)
    prefactor = hypergeometric_body([a1 + a2 - b1], [], N)  # (1-z)^{c-a-b}
    [transform] = bilinear_combinations([(prefactor, right)], [[(1, [1] * (N + 1))]])
    product, _ = product_sum(sys.modules[__name__], HGParams.make([a1, a2], [b1]), N)
    cells = (
        CellResult((0, 0), transform == integer_vector(left)),
        CellResult((0, 1), not any(product)),
    )
    return VerificationReport(cells)


# The family surface: skew_operators.verify_duality and the command line
# read these names as module attributes, and q_hypergeometric defines the
# same ones. Besides the aliases below they are dual_operator (imported),
# dual_unit, argument_rescale, psi_det, sample_params, solution_basis,
# c_constants, duality_matrix, bilinear_sum_table and structure_ok;
# test_family_surface in tests/test_cli.py checks the list on both modules.
Params = HGParams
operator = hg_operator
psi = psi_matrix
verify = verify_theorem1

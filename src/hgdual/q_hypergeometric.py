"""Order-r basic hypergeometric machinery over a rational base 0 < q < 1:
the shift-form operator, its dual parameter map with argument rescale, the
solution bases, the pairing constants, the duality matrix M_q = Psi_q^{-1},
and exact verification of the bilinear sum identities with their closed
forms.

Every body comes from hypergeometric.term_ratio_series with the factor
1 - x q^n and the q-factorial as last lower parameter q. The dual basis is
the primal basis of the dual parameters a -> q/a, b -> q^2/b in rho*z.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod

from .exact_algebra import (
    Polynomial,
    Q,
    RationalFunction,
    bilinear_combinations,
    integer_scale_arg,
    rat,
)
from .hypergeometric import (
    DegenerateParameters,
    check_order,
    draw_params,
    elementary_symmetric,
    term_ratio_series,
)
from .skew_operators import (
    QSHIFT,
    CellResult,
    SkewOperator,
    TaggedSeries,
    VerificationReport,
    matrix_invert,
    product_sum,
    psi_q_matrix,
    q_dual_operator,
    verify_duality,
)


def check_base(q):
    """The q family needs a base 0 < q < 1."""
    if not (0 < q < 1):
        raise DegenerateParameters("base must satisfy 0 < q < 1")


def genericity_check_q(b, q):
    """Decide exactly whether some quotient b_i/b_j is an integral power
    of q. Returns a witness (i, j, k) with b_i/b_j = q^k, or None when
    there is none.

    Since 0 < q < 1, powers q^k decrease strictly, so the search over k
    terminates as soon as q^k drops below the candidate ratio.
    """
    b = [rat(x) for x in b]
    q = rat(q)
    for i in range(len(b)):
        for j in range(len(b)):
            if i == j:
                continue
            ratio = b[i] / b[j]
            if ratio == 1:
                return i, j, 0
            if ratio < 0:
                continue
            target = ratio if ratio < 1 else 1 / ratio
            k = 1
            power = q
            while power >= target:
                if power == target:
                    return i, j, k if ratio < 1 else -k
                power *= q
                k += 1
    return None


@dataclass(frozen=True)
class QHGParams:
    """Base q in (0,1) with parameters (a_1..a_r; b_1..b_r), b_r = q, all
    nonzero, and no b_i/b_j an integral power of q."""

    q: object
    a: tuple
    b: tuple

    def __post_init__(self):
        q = rat(self.q)
        a = tuple(rat(x) for x in self.a)
        b = tuple(rat(x) for x in self.b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        check_base(q)
        if len(a) != len(b):
            raise DegenerateParameters("need as many upper as lower parameters")
        check_order(len(a))
        if b[-1] != q:
            raise DegenerateParameters("the last lower parameter must equal q")
        if any(x == 0 for x in a) or any(x == 0 for x in b):
            raise DegenerateParameters("parameters must be nonzero")
        witness = genericity_check_q(b, q)
        if witness is not None:
            i, j, k = witness
            raise DegenerateParameters(
                "b_%d / b_%d equals q^%d" % (i + 1, j + 1, k)
            )

    @classmethod
    def make(cls, q, a, b_head):
        q = rat(q)
        return cls(q, tuple(rat(x) for x in a), tuple(rat(x) for x in b_head) + (q,))

    @property
    def r(self):
        return len(self.a)

    def dual(self):
        """The parameter map a -> q/a, b -> q^2/b; the last entry stays q."""
        return QHGParams(
            self.q,
            tuple(self.q / x for x in self.a),
            tuple(self.q * self.q / x for x in self.b),
        )


def argument_rescale(p):
    """rho = a_1...a_r q^{r-2} / (b_1...b_{r-1}): the dual solutions live in
    the variable rho*z."""
    return prod(p.a) * p.q ** (p.r - 2) / prod(p.b[:-1])


def sample_params(rng, r, q):
    """Random generic parameters over the base q."""
    check_base(q)
    return draw_params(rng, r, lambda a, b: QHGParams.make(q, a, b), lambda a: True)


def qhg_operator(p):
    """L = (1 - b_1 Delta/q)...(1 - b_r Delta/q) - z (1 - a_1 Delta)...(1 - a_r Delta).

    Coefficient of Delta^j is (-1)^j (e_j(b)/q^j - e_j(a) z); the constant
    one is 1-z and the leading one is (-1)^r (b_1...b_r/q^r - a_1...a_r z).
    """
    r = p.r
    eb = elementary_symmetric(p.b)
    ea = elementary_symmetric(p.a)
    coeffs = []
    for j in range(r + 1):
        c = Polynomial([eb[j] / p.q**j, -ea[j]])
        coeffs.append(-c if j % 2 == 1 else c)
    return SkewOperator(QSHIFT, coeffs, q=p.q)


def q_dual_unit(p):
    """q_dual_operator(qhg_operator(p)) = unit * (dual-parameter operator
    with argument rescaled by rho)."""
    unit = prod(p.b) / p.q**p.r
    return -unit if p.r % 2 == 1 else unit


def psi_det(op):
    """The closed form det Psi_q = (-1)^r Delta^{-1}(A_r) prod_{k<r-1} Delta^k(A_0)."""
    r, q = op.order, op.q
    lead = op.coefficient(r).scale_arg(1 / q)
    shifts = (op.coefficient(0).scale_arg(q**k) for k in range(r - 1))
    return prod(shifts, start=-lead if r % 2 else lead)


def _shifted(q, N):
    """The q-family factor x, n -> 1 - x q^n for n < N, as the integer pair
    (den(x) den(q)^n - num(x) num(q)^n, den(x) den(q)^n)."""
    qn, qd = int(q.numerator), int(q.denominator)
    nums, dens = [qn**n for n in range(N)], [qd**n for n in range(N)]
    return lambda x, n: (x[1] * dens[n] - x[0] * nums[n], x[1] * dens[n])


def q_solution_basis(p, N, which="primal"):
    """The basis as a tuple of tagged series. Primal entry i carries the
    shift eigenvalue q/b_i and the body parameters (q a_k/b_i ; q b_j/b_i)
    over all j, where j = i gives the q-factorial q; the dual basis is the
    primal basis of p.dual() in the variable rho*z, rho = argument_rescale(p)."""
    if which not in ("primal", "dual"):
        raise ValueError("which must be 'primal' or 'dual'")
    q, rho = p.q, Q(1)
    if which == "dual":
        p, rho = p.dual(), argument_rescale(p)
    factor = _shifted(q, N)
    entries = []
    for bi in p.b:
        upper = [q * x / bi for x in p.a]
        body = term_ratio_series(upper, [q * x / bi for x in p.b], N, factor, rho)
        entries.append(TaggedSeries(QSHIFT, q / bi, body, q))
    return tuple(entries)


def q_c_constants(p):
    """Diagonal pairing constants (1/(q b_i^{r-2})) prod_{j != i} (b_i - b_j)."""
    return [
        prod(
            (p.b[i] - p.b[j] for j in range(p.r) if j != i),
            start=1 / (p.q * p.b[i] ** (p.r - 2)),
        )
        for i in range(p.r)
    ]


def q_duality_weights(p):
    """Weights q b_i^{r-2} prod_{j != i} 1/(b_i - b_j) = 1/C_ii."""
    return [1 / c for c in q_c_constants(p)]


def q_duality_matrix(p):
    return matrix_invert(psi_q_matrix(qhg_operator(p)))


def corner_entry(p):
    """The (r-1, 0) closed form (-1)^{r+1} q^r / (b_1...b_r - a_1...a_r q^{r-1} z)."""
    sign = Q(1) if (p.r + 1) % 2 == 0 else Q(-1)
    return RationalFunction(
        Polynomial([sign * p.q**p.r]),
        Polynomial([prod(p.b), -prod(p.a) * p.q ** (p.r - 1)]),
    )


def superdiagonal_entry(p, k):
    """The (k, k+1) closed form 1/(1 - q^k z)."""
    return RationalFunction(Polynomial([1]), Polynomial([1, -(p.q**k)]))


def q_bilinear_sum_table(p, N):
    """Every sum S_kl = sum_i w_i Delta^k(f_i) Delta^l(g_i), 0 <= k, l < r,
    through z^N, as integer vectors (v, d): the sums of a verify whose
    pairing certificate is refused.

    With mu_i = q/b_i, the pair product is
    Delta^k f_i Delta^l g_i = mu_i^(k-l) phi_i(q^k z) psi_i(q^l z), so cell
    (k, l) is the shift sum
    E_e(w) = sum_i w_i mu_i^e phi_i(q^e w) psi_i(w),  e = k-l,
    at w = q^l z. The 2r-1 shift sums are one kernel call, whose outputs
    reweight one set of big products phi_in psi_ij per i by the small
    powers q^(en) = v_n / d: term i of output e has the weight
    w_i mu_i^e / d and the integer scale v.
    """
    r, q = p.r, p.q
    weights = q_duality_weights(p)
    primal = q_solution_basis(p, N, "primal")
    dual = q_solution_basis(p, N, "dual")
    pairs = [(f.body, g.body) for f, g in zip(primal, dual)]
    outputs = []
    for e in range(1 - r, r):
        scale, d = integer_scale_arg([1] * (N + 1), 1, q**e)
        outputs.append([(w * f.offset**e / d, scale) for w, f in zip(weights, primal)])
    sums = bilinear_combinations(pairs, outputs)
    return [
        [integer_scale_arg(*sums[k - l + r - 1], q**l) for l in range(r)]
        for k in range(r)
    ]


def structure_ok(p, k, l, entry):
    """The closed-form zero pattern of M_q: zero on and below the diagonal
    except the (r-1, 0) corner, 1/(1 - q^k z) on the superdiagonal."""
    if (k, l) == (p.r - 1, 0):
        return entry == corner_entry(p)
    if l <= k:
        return entry.is_zero
    if l == k + 1:
        return entry == superdiagonal_entry(p, k)
    return True


def verify_theorem2(p, N):
    """Certify the q-family duality M_q = Psi_q^{-1} through z^N with
    skew_operators.verify_duality."""
    return verify_duality(sys.modules[__name__], p, N)


def closed_form_mq_r2(p):
    """The r=2 matrix: [[0, 1/(1-z)], [-q^2/(b_1 b_2 - a_1 a_2 q z), 0]]."""
    if p.r != 2:
        raise ValueError("closed form is for r = 2")
    zero = RationalFunction.zero()
    return [
        [zero, superdiagonal_entry(p, 0)],
        [corner_entry(p), zero],
    ]


def closed_form_mq_r3(p):
    """The r=3 matrix: zeros except
    (0,1) = 1/(1-z), (0,2) = (e_1(b)/q - e_1(a) z)/((1-z)(1-qz)),
    (1,2) = 1/(1-qz), (2,0) = q^3/(b_1 b_2 b_3 - a_1 a_2 a_3 q^2 z)."""
    if p.r != 3:
        raise ValueError("closed form is for r = 3")
    zero = RationalFunction.zero()
    ea = elementary_symmetric(p.a)
    eb = elementary_symmetric(p.b)
    num = Polynomial([eb[1] / p.q, -ea[1]])
    m02 = RationalFunction(num, Polynomial([1, -1]), Polynomial([1, -p.q]))
    return [
        [zero, superdiagonal_entry(p, 0), m02],
        [zero, zero, superdiagonal_entry(p, 1)],
        [corner_entry(p), zero, zero],
    ]


def verify_heine_identity(a1, a2, b1, q, N):
    """The r=2 four-product identity f_1 g_1 = f_0 g_0 of the primal and
    dual solution bodies (skew_operators.product_sum)."""
    p = QHGParams.make(q, [a1, a2], [b1])
    product, _ = product_sum(sys.modules[__name__], p, N)
    return VerificationReport((CellResult((0, 0), not any(product)),))


# The family surface under the names hypergeometric gives it (see there).
Params = QHGParams
operator = qhg_operator
dual_operator = q_dual_operator
dual_unit = q_dual_unit
psi = psi_q_matrix
solution_basis = q_solution_basis
c_constants = q_c_constants
duality_matrix = q_duality_matrix
bilinear_sum_table = q_bilinear_sum_table
verify = verify_theorem2

"""Operator algebra tests: duals, pairing matrices, Wronskians, inversion."""

import random
from itertools import permutations
from math import comb, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
import hgdual.skew_operators as skew_operators
from hgdual.cli import MAX_R
from hgdual.exact_algebra import (
    Polynomial,
    Q,
    RationalFunction,
)
from hgdual.skew_operators import (
    QSHIFT,
    THETA,
    DegenerateOperator,
    SkewOperator,
    TaggedSeries,
    _triangular_order,
    check_cells,
    dual_operator,
    inverse_series,
    lagrange_identity,
    matrix_det,
    matrix_invert,
    psi_matrix,
    psi_q_matrix,
    q_dual_operator,
)
from oracles import (
    OffsetMismatch,
    apply,
    bareiss_det,
    coefficients,
    entrywise_mul,
    gauss_jordan_invert,
    horner_normal_form,
    inverse_table,
    matrix_identity,
    matrix_mul,
    omega_pairing,
    omega_q_pairing,
    poly_coefficient,
    ratfunc,
    rf_add,
    rf_mul,
    rf_scale_arg,
    rf_sub,
    rf_theta,
    scale,
    series,
    series_of_integer_vector,
    series_of_ratfunc,
    wronskian_det,
    zero,
)


def P(*coeffs):
    return Polynomial(coeffs)


def lifted(mat):
    """A polynomial matrix as RationalFunctions over the denominator 1."""
    return [[ratfunc(e) for e in row] for row in mat]


def plain(coeffs, mode=THETA, q=None):
    return TaggedSeries(mode, 0 if mode == THETA else 1, series(coeffs), q)


# SkewOperator and TaggedSeries check their mode and base the same way
@pytest.mark.parametrize(
    "build",
    [
        lambda mode, q: SkewOperator(mode, [P(1), P(1)], q),
        lambda mode, q: TaggedSeries(mode, 1, series([1, 0]), q),
    ],
    ids=["operator", "series"],
)
@pytest.mark.parametrize(
    "mode, q, message",
    [
        ("sideways", None, "unknown mode"),
        (QSHIFT, None, "requires the base"),
        (THETA, Q(1, 2), "takes no base"),
    ],
    ids=["unknown-mode", "qshift-without-base", "theta-with-base"],
)
def test_mode_and_base_checked(build, mode, q, message):
    with pytest.raises(ValueError, match=message):
        build(mode, q)


@pytest.mark.parametrize("q", [Q(1), Q(0), Q(3, 2)], ids=["q=1", "q=0", "q=3/2"])
def test_operator_base_outside_unit_interval(q):
    with pytest.raises(DegenerateOperator):
        SkewOperator(QSHIFT, [P(1), P(1)], q)
    # a tagged series carries any base; only the operator needs 0 < q < 1
    assert TaggedSeries(QSHIFT, 1, series([1, 0]), q).q == q


class TestApplyTheta:
    def test_eigenvector(self):
        op = SkewOperator(THETA, [P(0), P(1)])
        s = TaggedSeries(THETA, Q(-3, 4), series([1, 0, 0]))
        out = apply(op, s)
        assert out.offset == Q(-3, 4)
        assert out.body == series([Q(-3, 4), 0, 0])

    def test_theta_on_plain_body(self):
        op = SkewOperator(THETA, [P(0), P(1)])
        assert apply(op, plain([1, 1, 1])).body == series([0, 1, 2])

    def test_factored_product_constant_term(self):
        # (theta + 1/2)(theta + 1/3) = theta^2 + (5/6) theta + 1/6
        op = SkewOperator(THETA, [P(Q(1, 6)), P(Q(5, 6)), P(1)])
        assert apply(op, plain([1, 0, 0])).body == series([Q(1, 6), 0, 0])
        # on z^n the factored form multiplies by (n + 1/2)(n + 1/3)
        out = apply(op, plain([1, 1, 1]))
        assert out.body == series([Q(1, 6), 2, Q(35, 6)])

    def test_polynomial_coefficients_enter_as_series(self):
        # L = (1 - z) acts by multiplication
        op = SkewOperator(THETA, [P(1, -1)])
        assert apply(op, plain([1, 1, 1])).body == series([1, 0, 0])


class TestApplyQShift:
    def test_shift_scales_coefficients(self):
        op = SkewOperator(QSHIFT, [P(0), P(1)], q=Q(1, 2))
        s = plain([1, 1, 1], QSHIFT, Q(1, 2))
        assert apply(op, s).body == series([1, Q(1, 2), Q(1, 4)])

    def test_eigenvalue_on_prefactor(self):
        # Delta(z^[mu] * 1) = mu z^[mu]
        op = SkewOperator(QSHIFT, [P(0), P(1)], q=Q(1, 2))
        mu = Q(5, 2)
        s = TaggedSeries(QSHIFT, mu, series([1, 0]), Q(1, 2))
        assert apply(op, s).body == series([mu, 0])

    def test_double_shift(self):
        op = SkewOperator(QSHIFT, [P(0), P(0), P(1)], q=Q(1, 2))
        s = plain([0, 1, 0], QSHIFT, Q(1, 2))
        assert apply(op, s).body == series([0, Q(1, 4), 0])


class TestDualOperator:
    def test_first_order_constant(self):
        op = SkewOperator(THETA, [P(0), P(1)])
        assert dual_operator(op) == SkewOperator(THETA, [P(0), P(-1)])

    def test_order_one_with_function_coefficient(self):
        # (-theta) o a = -a theta - theta(a)
        a = P(0, 1)
        op = SkewOperator(THETA, [P(1), a])
        d = dual_operator(op)
        assert d.coefficient(1) == -a
        assert d.coefficient(0) == P(1) - a.theta()

    def test_involution_small(self):
        op = SkewOperator(THETA, [P(2, 1), P(0, 3), P(1, -1)])
        assert dual_operator(dual_operator(op)) == op


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=3),
        min_size=3,
        max_size=6,
    )
)
def test_dual_operator_is_involutive(data):
    coeffs = [Polynomial(c) for c in data]
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial.one()
    op = SkewOperator(THETA, coeffs)
    assert dual_operator(dual_operator(op)) == op


class TestQDualOperator:
    def test_r2_formula(self):
        q = Q(1, 2)
        a0, a1, a2 = P(1, -1), P(2, 3), P(1, 0, 5)
        op = SkewOperator(QSHIFT, [a0, a1, a2], q=q)
        d = q_dual_operator(op)
        assert d.coefficient(0) == a2.scale_arg(1 / q)
        assert d.coefficient(1) == a1
        assert d.coefficient(2) == a0.scale_arg(q)

    def test_constant_coefficients_reverse(self):
        q = Q(1, 3)
        op = SkewOperator(QSHIFT, [P(2), P(3), P(5), P(7)], q=q)
        d = q_dual_operator(op)
        assert [d.coefficient(k) for k in range(4)] == [P(7), P(5), P(3), P(2)]

    def test_zero_a0_rejected(self):
        op = SkewOperator(QSHIFT, [P(0), P(1), P(1)], q=Q(1, 2))
        with pytest.raises(DegenerateOperator):
            q_dual_operator(op)


class TestPsiMatrix:
    def test_r2_closed_form(self):
        a0, a1, a2 = P(0, -1), P(2, 3), P(1, -1)
        op = SkewOperator(THETA, [a0, a1, a2])
        psi = psi_matrix(op)
        assert psi[0][0] == a1 - a2.theta()
        assert psi[0][1] == a2
        assert psi[1][0] == -a2
        assert psi[1][1].is_zero

    def test_det_is_leading_coefficient_power(self):
        op = SkewOperator(THETA, [P(0, 5), P(2, 3), P(7, 1), P(1, -1)])
        det = matrix_det(psi_matrix(op))
        lead = op.coefficient(3)
        assert det == lead * lead * lead


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.lists(st.integers(-7, 7), min_size=1, max_size=2),
        min_size=3,
        max_size=6,
    )
)
def test_psi_structure(data):
    coeffs = [Polynomial(c) for c in data]
    if coeffs[-1].is_zero:
        coeffs[-1] = P(1, 1)
    op = SkewOperator(THETA, coeffs)
    r = op.order
    psi = psi_matrix(op)
    lead = op.coefficient(r)
    for i in range(r):
        for j in range(r):
            if i + j > r - 1:
                assert psi[i][j].is_zero
            elif i + j == r - 1:
                expect = lead if i % 2 == 0 else -lead
                assert psi[i][j] == expect
    det = matrix_det(psi)
    power = Polynomial.one()
    for _ in range(r):
        power = power * lead
    assert det == power


class TestPsiQMatrix:
    def test_r2_structure(self):
        q = Q(1, 2)
        a0, a1, a2 = P(1, -1), P(2, 3), P(1, 0, 5)
        op = SkewOperator(QSHIFT, [a0, a1, a2], q=q)
        psi = psi_q_matrix(op)
        assert psi[0][0].is_zero
        assert psi[0][1] == -a2.scale_arg(2)
        assert psi[1][0] == a0
        assert psi[1][1].is_zero

    def test_r3_structure(self):
        q = Q(1, 2)
        a = [P(1, -1), P(2, 3), P(4, 1), P(1, 0, 5)]
        op = SkewOperator(QSHIFT, a, q=q)
        psi = psi_q_matrix(op)
        assert [psi[0][0].is_zero, psi[0][1].is_zero] == [True, True]
        assert psi[0][2] == -a[3].scale_arg(2)
        assert psi[1][0] == a[0]
        assert psi[1][1] == a[1]
        assert psi[1][2].is_zero
        assert psi[2][0].is_zero
        assert psi[2][1] == a[0].scale_arg(q)
        assert psi[2][2].is_zero

    def test_det_closed_form(self):
        q = Q(1, 3)
        for r in (2, 3, 4):
            coeffs = [P(1, k + 1) for k in range(r + 1)]
            op = SkewOperator(QSHIFT, coeffs, q=q)
            det = matrix_det(psi_q_matrix(op))
            expect = op.coefficient(r).scale_arg(1 / q)
            for k in range(r - 1):
                expect = expect * op.coefficient(0).scale_arg(q**k)
            if r % 2 == 1:
                expect = -expect
            assert det == expect


def psi_by_rational_functions(op):
    """The Theta pairing matrix as psi_matrix formed it before building on
    polynomials: every term a RationalFunction, every theta and every sum
    normalised by a gcd."""
    r, zero = op.order, RationalFunction.zero()
    mat = [[zero] * r for _ in range(r)]
    for i in range(r):
        for j in range(r - i):
            acc = zero
            for l in range(r - i - j):
                term = ratfunc(op.coefficient(i + j + l + 1))
                for _ in range(l):
                    term = rf_theta(term)
                term = rf_mul(term, ratfunc(P(comb(l + i, i))))
                acc = rf_add(acc, term) if l % 2 == 0 else rf_sub(acc, term)
            mat[i][j] = rf_sub(zero, acc) if i % 2 else acc
    return mat


def psi_q_by_rational_functions(op):
    """The QShift pairing matrix by rf_scale_arg on RationalFunctions."""
    r, q, zero = op.order, op.q, RationalFunction.zero()
    mat = [[zero] * r for _ in range(r)]
    mat[0][r - 1] = rf_sub(zero, rf_scale_arg(ratfunc(op.coefficient(r)), q**-1))
    for k in range(1, r):
        for j in range(r - k):
            mat[k][k - 1 + j] = rf_scale_arg(ratfunc(op.coefficient(j)), q ** (k - 1))
    return mat


_POLY = st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(Polynomial)
_DEN = st.sampled_from([(1,), (1,), (1, 1), (2, -1), (3,)]).map(Polynomial)
_NONZERO = _POLY.filter(lambda p: not p.is_zero)
# pivots of degree <= 1 with small coefficients, so that roots repeat
_PIVOT = (
    st.lists(st.integers(-3, 3), min_size=1, max_size=2)
    .map(Polynomial)
    .filter(lambda p: not p.is_zero)
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), r=st.integers(1, 6))
def test_psi_matches_rational_function_construction(data, r):
    """Both pairing matrices, built on polynomials, against their
    construction on RationalFunctions."""
    coeffs = [data.draw(_NONZERO if k in (0, r) else _POLY) for k in range(r + 1)]
    op = SkewOperator(THETA, coeffs)
    assert lifted(psi_matrix(op)) == psi_by_rational_functions(op)
    op = SkewOperator(QSHIFT, coeffs, q=data.draw(st.sampled_from([Q(1, 2), Q(2, 3)])))
    assert lifted(psi_q_matrix(op)) == psi_q_by_rational_functions(op)


_COEFF = st.lists(
    st.builds(Q, st.integers(-5, 5), st.integers(1, 4)), min_size=1, max_size=4
).map(Polynomial)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), r=st.integers(2, 5))
def test_lagrange_identity_of_any_operator(data, r):
    """Check 3 of the pairing certificate holds for the pairing matrix of
    any operator of order 2-5 with coefficients of degree 0-3, in both
    modes, not only for the hypergeometric ones; Psi with z added at (0,0)
    is refused."""
    coeffs = [
        data.draw(_COEFF.filter(lambda p: not p.is_zero) if k in (0, r) else _COEFF)
        for k in range(r + 1)
    ]
    q = data.draw(st.sampled_from([Q(1, 2), Q(2, 3)]))
    for op, dual, psi in (
        (SkewOperator(THETA, coeffs), dual_operator, psi_matrix),
        (SkewOperator(QSHIFT, coeffs, q), q_dual_operator, psi_q_matrix),
    ):
        mat = psi(op)
        assert lagrange_identity(op, dual(op), mat)
        mat[0][0] = mat[0][0] + P(0, 1)
        assert not lagrange_identity(op, dual(op), mat)


@pytest.mark.parametrize(
    "family, base", [(hg, ()), (qhg, (Q(2, 3),))], ids=["theta", "qshift"]
)
def test_operators_psi_and_det_are_polynomials(family, base):
    """Only M and the closed forms are fractions: the coefficients of an
    operator and of its dual, the entries of Psi and det Psi, both by
    matrix_det and by the closed form, are Polynomials."""
    for r in (2, 5):
        op = family.operator(family.sample_params(random.Random(r), r, *base))
        psi = family.psi(op)
        values = [*op.coeffs, *family.dual_operator(op).coeffs, *sum(psi, [])]
        values += [matrix_det(psi), family.psi_det(op)]
        assert {type(v) for v in values} == {Polynomial}


class TestPairings:
    # offsets 1/3 and 1/2 neither sum to 0 (theta) nor multiply to 1 (q)
    @pytest.mark.parametrize(
        "mode, q, pairing",
        [(THETA, None, omega_pairing), (QSHIFT, Q(1, 2), omega_q_pairing)],
        ids=["theta", "qshift"],
    )
    def test_offset_mismatch_rejected(self, mode, q, pairing):
        op = SkewOperator(mode, [P(1), P(1), P(1)], q)
        g = TaggedSeries(mode, Q(1, 3), series([1, 0]), q)
        f = TaggedSeries(mode, Q(1, 2), series([1, 0]), q)
        with pytest.raises(OffsetMismatch):
            pairing(op, g, f)

    def test_zero_inputs_pair_to_zero(self):
        op = SkewOperator(THETA, [P(1), P(1), P(1)])
        g = TaggedSeries(THETA, Q(1, 3), zero(5))
        f = TaggedSeries(THETA, Q(-1, 3), zero(5))
        assert omega_pairing(op, g, f) == zero(5)


class TestWronskian:
    def test_single_constant(self):
        w = wronskian_det([plain([1, 0, 0])])
        assert w.body == series([1, 0, 0])

    def test_dependent_rows_vanish(self):
        s = TaggedSeries(THETA, Q(1, 2), series([1, 2, 3, 4]))
        w = wronskian_det([s, scale(s, 5)])
        assert w.body == zero(3)

    def test_independent_rows(self):
        one = plain([1, 0, 0])
        zee = plain([0, 1, 0])
        assert wronskian_det([one, zee]).body != zero(2)

    def test_qshift_mode(self):
        q = Q(1, 2)
        s1 = TaggedSeries(QSHIFT, Q(2), series([1, 1, 0]), q)
        s2 = TaggedSeries(QSHIFT, Q(3), series([1, 0, 1]), q)
        w = wronskian_det([s1, s2])
        assert w.offset == Q(6)
        assert w.body != zero(2)


class TestMatrixInvert:
    def test_identity(self):
        eye = [[P(int(i == j)) for j in range(3)] for i in range(3)]
        assert matrix_invert(eye) == matrix_identity(3)

    def test_singular_rejected(self):
        m = [[P(1), P(1)], [P(2), P(2)]]
        with pytest.raises(ValueError, match="not triangular"):
            matrix_invert(m)

    def test_multiply_back_2x2(self):
        m = [[P(1, 1), P(0, 1)], [P(1), P(1, -1)]]
        assert matrix_mul(gauss_jordan_invert(m), m) == matrix_identity(2)

    def test_no_triangular_order_rejected(self):
        # det = 1 - z - z^2, but every row has two nonzero entries
        m = [[P(1, 1), P(0, 1)], [P(1), P(1, -1)]]
        assert not bareiss_det(m).is_zero
        with pytest.raises(ValueError, match="not triangular"):
            matrix_invert(m)
        with pytest.raises(ValueError, match="not triangular"):
            matrix_det(m)

    def test_quadratic_pivot_rejected(self):
        m = [[P(1, -1), P(2)], [P(), P(1, 0, 1)]]
        with pytest.raises(ValueError, match="degree above 1"):
            matrix_invert(m)

    def test_singular_determinant_is_zero(self):
        m = [
            [P(1, 2), P(0, 1), P(3)],
            [P(2, 4), P(0, 2), P(6)],
            [P(1), P(1), P(1)],
        ]
        assert bareiss_det(m).is_zero
        with pytest.raises(ValueError, match="not triangular"):
            matrix_invert(m)
        with pytest.raises(ValueError, match="not triangular"):
            matrix_det(m)


def _shuffled_triangular(data, n, pivots=_NONZERO):
    """An upper triangular n x n matrix with its diagonal drawn from
    pivots, its rows and its columns shuffled by permutations drawn
    independently."""
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(n)))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                m[rows[i]][cols[j]] = Polynomial.zero()
            else:
                m[rows[i]][cols[j]] = data.draw(pivots if i == j else _POLY)
    return m


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_shuffled_triangular_inverse_matches_gauss_jordan(data, n):
    """A shuffled triangular matrix with pivots of degree <= 1:
    matrix_invert, reduced at the roots of the pivots, agrees with the
    general inverse, reduced by Euclid, and multiplies back on both
    sides."""
    m = _shuffled_triangular(data, n, _PIVOT)
    inv = matrix_invert(m)
    assert inv == gauss_jordan_invert(m)
    assert entrywise_mul(lifted(m), inv) == matrix_identity(n)
    assert matrix_mul(inv, m) == matrix_identity(n)


@pytest.mark.parametrize("n", range(1, 6))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shuffled_triangular_det_matches_bareiss(n, data):
    m = _shuffled_triangular(data, n)
    assert matrix_det(m) == bareiss_det(m)


def test_det_sign_under_every_row_and_column_order():
    """Every pair of row and column permutations of one triangular matrix,
    so that each combination of the two parities occurs."""
    upper = [[P(2, 1), P(1), P(0, 3)], [P(), P(1, -1), P(5)], [P(), P(), P(3, 0, 1)]]
    for rows in permutations(range(3)):
        for cols in permutations(range(3)):
            m = [[upper[rows.index(i)][cols.index(j)] for j in range(3)] for i in range(3)]
            assert matrix_det(m) == bareiss_det(m), (rows, cols)


@pytest.mark.parametrize(
    "family, base", [(hg, ()), (qhg, (Q(2, 3),))], ids=["theta", "qshift"]
)
def test_det_of_psi_divides_nothing(family, base):
    """det Psi is the product of its pivots, and the package has no
    polynomial division."""
    ops = [
        family.operator(family.sample_params(random.Random(r), r, *base))
        for r in range(2, MAX_R + 1)
    ]
    expected = [family.psi_det(op) for op in ops]
    assert not hasattr(Polynomial, "divmod")
    assert not hasattr(Polynomial, "divexact")
    assert [matrix_det(family.psi(op)) for op in ops] == expected


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    p=st.integers(1, 4),
    m=st.integers(1, 4),
)
def test_matrix_mul_matches_entrywise_product(data, n, p, m):
    entry = st.builds(RationalFunction, _POLY, _DEN)
    a = [[data.draw(entry) for _ in range(p)] for _ in range(n)]
    b = [[data.draw(_POLY) for _ in range(m)] for _ in range(p)]
    assert matrix_mul(a, b) == entrywise_mul(a, lifted(b))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from([(hg, ()), (qhg, (Q(1, 2),)), (qhg, (Q(2, 3),))]),
    r=st.integers(2, 5),
    moved=st.sampled_from(["none", "entry", "far", "swapped"]),
    data=st.data(),
)
def test_head_comparison_is_the_inverse_check(family, r, moved, data):
    """check_cells of m against the first 2r+2 terms of the series of
    Psi^(-1), under a structure predicate that accepts every entry, passes
    exactly when m = Psi^(-1): on a family's Psi with its inverse, with an
    entry of the inverse moved by z^2, or by z^(2r+2), which only the
    degree bound sees, and with two of its entries swapped."""
    module, base = family
    seed = data.draw(st.integers(0, 99))
    psi = module.psi(module.operator(module.sample_params(random.Random(seed), r, *base)))
    m = matrix_invert(psi)
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
    if moved in ("entry", "far"):
        power = 2 if moved == "entry" else 2 * r + 2
        m[i][j] = rf_add(m[i][j], ratfunc(Polynomial([0] * power + [1])))
    elif moved == "swapped":
        m[i][j], m[j][i] = m[j][i], m[i][j]
    passed = check_cells(m, inverse_table(psi, 2 * r + 1), lambda k, l, e: True).passed
    assert passed == (m == matrix_invert(psi))
    assert passed == (matrix_mul(m, psi) == matrix_identity(r))
    assert passed == (moved == "none" or (moved == "swapped" and m[i][j] == m[j][i]))


def _assert_expands(series, inverse, N):
    """Each cell of the integer-vector table series is the expansion of
    the entry of inverse through z^N."""
    for row, inv_row in zip(series, inverse, strict=True):
        for cell, entry in zip(row, inv_row, strict=True):
            assert series_of_integer_vector(*cell) == series_of_ratfunc(entry, N)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.lists(st.integers(-4, 4), min_size=1, max_size=2), min_size=16, max_size=16
    ),
    n=st.integers(1, 4),
)
def test_inverse_series_matches_gauss_jordan(entries, n):
    """Any matrix of polynomials of degree <= 1: with P0 = Psi(0) singular
    there is no expansion, and otherwise the series is that of the general
    inverse, whatever the order of the rows."""
    psi = [[Polynomial(entries[n * i + j]) for j in range(n)] for i in range(n)]
    N = 9
    series = inverse_table(psi, N)
    if bareiss_det([[P(poly_coefficient(e, 0)) for e in row] for row in psi]).is_zero:
        assert series is None
    else:
        _assert_expands(series, gauss_jordan_invert(psi), N)


@pytest.mark.parametrize(
    "family, base",
    [(hg, ()), (qhg, (Q(1, 2),)), (qhg, (Q(2, 3),))],
    ids=["theta", "q=1/2", "q=2/3"],
)
def test_inverse_series_expands_the_inverse_of_psi(family, base):
    """Through z^N at once, and as verify_duality forms it on a failing
    cell: the head through z^(2r+1), then the same terms extended."""
    for r in range(2, 6):
        p = family.sample_params(random.Random(r), r, *base)
        psi, N = family.psi(family.operator(p)), 4 * r + 8
        series = inverse_table(psi, N)
        _assert_expands(series, matrix_invert(psi), N)
        extended = inverse_series(psi)
        extended(2 * r + 1)
        assert extended(N) == series
        # the common denominator is that of the coefficients, with no
        # factor the reduction left behind
        cells = [cell for row in series for cell in row]
        coeffs = [
            c for cell in cells for c in coefficients(series_of_integer_vector(*cell))
        ]
        assert {d for _, d in cells} == {lcm(*(c.denominator for c in coeffs))}


@pytest.mark.parametrize(
    "psi",
    [[[P(1, 0, 1), P(0)], [P(0), P(1)]], [[P(0, 1), P(1)], [P(0, 2), P(1, 1)]]],
    ids=["degree-2", "singular-P0"],
)
def test_inverse_series_refuses(psi):
    """An entry of degree 2, and a P0 = Psi(0) of rank 1 (although
    det Psi = z^2 - z is not zero), give no expansion."""
    assert inverse_series(psi) is None


def _predicted_pivots(family, op):
    """The pivots of Psi in a triangular order, by construction: (-1)^i A_r
    at (i, r-1-i) for theta; Delta^(k-1)(A_0) at (k, k-1) and
    -Delta^(-1)(A_r) at (0, r-1) for q."""
    r = op.order
    if family is hg:
        lead = op.coefficient(r)
        return {(i, r - 1 - i): lead if i % 2 == 0 else -lead for i in range(r)}
    pivots = {(0, r - 1): -op.coefficient(r).scale_arg(1 / op.q)}
    for k in range(1, r):
        pivots[(k, k - 1)] = op.coefficient(0).scale_arg(op.q ** (k - 1))
    return pivots


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(2, MAX_R),
    seed=st.integers(0, 10**6),
    family_base=st.sampled_from(
        [(hg, ()), (qhg, (Q(1, 2),)), (qhg, (Q(2, 3),)), (qhg, (Q(1, 5),))]
    ),
)
def test_psi_has_a_triangular_order(r, seed, family_base):
    """The structure matrix_invert relies on: Psi of either family is upper
    triangular up to row and column order, with the pivots predicted by
    its construction."""
    family, base = family_base
    op = family.operator(family.sample_params(random.Random(seed), r, *base))
    psi = family.psi(op)
    rows, cols = _triangular_order(psi)
    for i in range(r):
        for j in range(i):
            assert psi[rows[i]][cols[j]].is_zero
    assert {(i, j): psi[i][j] for i, j in zip(rows, cols)} == _predicted_pivots(
        family, op
    )


@pytest.mark.parametrize("r", range(2, MAX_R + 1))
@pytest.mark.parametrize(
    "family, base", [(hg, ()), (qhg, (Q(2, 3),))], ids=["theta", "qshift"]
)
def test_skipped_roots_give_the_unskipped_entries(family, base, r, monkeypatch):
    """RationalFunction skips the division at a root where num already did
    not vanish. On every pivot list of matrix_invert it gives what the
    Fraction Horner pass at every pivot gives."""
    built = []

    def recorded(num, *factors):
        f = RationalFunction(num, *factors)
        built.append((f, num, factors))
        return f

    psi = family.psi(family.operator(family.sample_params(random.Random(r), r, *base)))
    monkeypatch.setattr(skew_operators, "RationalFunction", recorded)
    matrix_invert(psi)
    assert len(built) == r * (r + 1) // 2
    for f, num, factors in built:
        assert (f.num.coeffs, f.den.coeffs) == horner_normal_form(num, *factors)


_Z = sympy.Symbol("z")


def _sympy_matrix(mat):
    """The same polynomial or RationalFunction matrix over sympy's field
    Q(z)."""
    def expr(poly):
        return sum(
            (sympy.Rational(str(c)) * _Z**i for i, c in enumerate(poly.coeffs)),
            sympy.Integer(0),
        )

    rows = [
        [expr(e) if isinstance(e, Polynomial) else expr(e.num) / expr(e.den) for e in row]
        for row in mat
    ]
    return DomainMatrix.from_Matrix(sympy.Matrix(rows)).to_field()


@pytest.mark.parametrize("r", range(2, 8))
@pytest.mark.parametrize(
    "family, base", [(hg, ()), (qhg, (Q(2, 3),))], ids=["theta", "qshift"]
)
def test_psi_inverse_and_determinant_match_sympy(family, base, r):
    psi = family.psi(family.operator(family.sample_params(random.Random(r), r, *base)))
    # Psi_q has a zero in its top-left corner, so the elimination swaps rows
    assert psi[0][0].is_zero == (family is qhg)
    field = _sympy_matrix(psi)
    ours, theirs = _sympy_matrix(matrix_invert(psi)).unify(field.inv())
    assert ours == theirs
    det = _sympy_matrix([[matrix_det(psi)]]).to_Matrix()[0, 0]
    assert sympy.cancel(det - field.det().as_expr()) == 0


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.lists(st.integers(-5, 5), min_size=1, max_size=2),
        min_size=9,
        max_size=9,
    )
)
def test_matrix_inverse_multiplies_back(entries):
    m = [[Polynomial(entries[3 * i + j]) for j in range(3)] for i in range(3)]
    try:
        inv = gauss_jordan_invert(m)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="not triangular"):
            matrix_invert(m)
        return
    assert entrywise_mul(lifted(m), inv) == matrix_identity(3)
    assert matrix_mul(inv, m) == matrix_identity(3)
    # the triangular inverse agrees where it applies and refuses the rest
    try:
        _triangular_order(m)
    except ValueError:
        with pytest.raises(ValueError, match="not triangular"):
            matrix_invert(m)
    else:
        assert matrix_invert(m) == inv

"""Differential-case tests: operator, bases, constants, duality matrix."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hgdual.exact_algebra import Polynomial, Q, RationalFunction
from hgdual.hypergeometric import (
    DegenerateParameters,
    HGParams,
    anti_diagonal_entry,
    c_constants,
    closed_form_m_r2,
    closed_form_m_r3,
    duality_matrix,
    duality_weights,
    dual_unit,
    elementary_symmetric,
    hg_operator,
    hypergeometric_body,
    sample_params,
    solution_basis,
    verify_euler_identity,
    verify_theorem1,
)
from hgdual.skew_operators import (
    THETA,
    InsufficientPrecision,
    TaggedSeries,
    dual_operator,
)
from oracles import (
    advance,
    annihilates,
    bilinear_sum,
    coefficients,
    explicit_dual_basis,
    omega_pairing,
    pochhammer,
    ratfunc,
    rf_div,
    rf_mul,
    scale_operator,
    series,
    series_of_ratfunc,
    wronskian_det,
)

P22 = HGParams.make([Q(1, 2), Q(1, 3)], [Q(1, 5)])
P33 = HGParams.make([Q(1, 2), Q(1, 3), Q(3, 7)], [Q(1, 5), Q(5, 3)])


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Q(7, 3), 0) == 1

    def test_factorial(self):
        assert pochhammer(1, 5) == 120

    def test_half(self):
        assert pochhammer(Q(1, 2), 3) == Q(15, 8)


class TestParams:
    def test_forced_last_parameter(self):
        assert P22.b == (Q(1, 5), 1)

    def test_integer_difference_rejected(self):
        with pytest.raises(DegenerateParameters):
            HGParams.make([Q(1, 2), Q(1, 3)], [Q(2)])

    def test_equal_parameters_rejected(self):
        with pytest.raises(DegenerateParameters):
            HGParams.make([1, 1], [1])

    def test_dual_map(self):
        d = P22.dual()
        assert d.a == (Q(1, 2), Q(2, 3))
        assert d.b == (Q(9, 5), 1)

    def test_dual_map_is_involution(self):
        assert P33.dual().dual() == P33

    def test_self_dual_point(self):
        p = HGParams.make([Q(1, 2), Q(1, 2)], [Q(1, 5)])
        assert p.dual().a == p.a


class TestOperator:
    def test_r2_coefficients(self):
        op = hg_operator(P22)
        a1, a2 = P22.a
        b1 = P22.b[0]
        assert op.coefficient(2) == Polynomial([1, -1])
        assert op.coefficient(1) == Polynomial([b1 - 1, -(a1 + a2)])
        assert op.coefficient(0) == Polynomial([0, -a1 * a2])

    def test_annihilates_primal_basis(self):
        N = 24
        op = hg_operator(P33)
        for f in solution_basis(P33, N, "primal"):
            assert annihilates(op, f, 3)

    def test_dual_annihilates_dual_basis(self):
        N = 24
        dual_op = dual_operator(hg_operator(P33))
        for g in solution_basis(P33, N, "dual"):
            assert annihilates(dual_op, g, 3)

    def test_dual_is_unit_times_mapped_operator(self):
        for p in (P22, P33):
            lhs = dual_operator(hg_operator(p))
            rhs = scale_operator(hg_operator(p.dual()), dual_unit(p))
            assert lhs == rhs


class TestSolutionBases:
    def test_primal_leading_ratio(self):
        body = solution_basis(P22, 4, "primal")[1].body
        assert coefficients(body)[0] == 1
        assert coefficients(body)[1] == Q(5, 6)

    def test_offsets(self):
        primal = solution_basis(P22, 3, "primal")
        dual = solution_basis(P22, 3, "dual")
        assert [s.offset for s in primal] == [Q(4, 5), 0]
        assert [s.offset for s in dual] == [Q(-4, 5), 0]

    def test_dual_basis_is_primal_of_dual_params(self):
        ours = solution_basis(P33, 8, "dual")
        theirs = solution_basis(P33.dual(), 8, "primal")
        assert ours == theirs

    def test_unknown_which_rejected(self):
        with pytest.raises(ValueError, match="which must be"):
            solution_basis(P22, 3, "both")

    def test_wronskian_nonzero(self):
        w = wronskian_det(list(solution_basis(P33, 10, "primal")))
        assert coefficients(w.body)[0] != 0


class TestPairingConstants:
    def test_r2_values(self):
        assert c_constants(P22) == [Q(4, 5), Q(-4, 5)]

    def test_omega_pairing_is_constant(self):
        N = 20
        op = hg_operator(P22)
        primal = solution_basis(P22, N, "primal")
        dual = solution_basis(P22, N, "dual")
        consts = c_constants(P22)
        for i in range(2):
            out = omega_pairing(op, dual[i], primal[i])
            assert coefficients(out)[0] == consts[i]
            assert all(c == 0 for c in coefficients(out)[1 : N - 2 + 1])

    def test_omega_pairing_r3(self):
        N = 20
        op = hg_operator(P33)
        primal = solution_basis(P33, N, "primal")
        dual = solution_basis(P33, N, "dual")
        consts = c_constants(P33)
        for i in range(3):
            out = omega_pairing(op, dual[i], primal[i])
            assert coefficients(out)[0] == consts[i]
            assert all(c == 0 for c in coefficients(out)[1 : N - 3 + 1])

    def test_perturbed_solution_is_not_constant(self):
        N = 12
        op = hg_operator(P22)
        primal = solution_basis(P22, N, "primal")
        dual = solution_basis(P22, N, "dual")
        broken = primal[0]
        coeffs = list(coefficients(broken.body))
        coeffs[1] += 1
        broken = TaggedSeries(THETA, broken.offset, series(coeffs))
        out = omega_pairing(op, dual[0], broken)
        assert any(c != 0 for c in coefficients(out)[1:])


class TestDualityMatrix:
    def test_r2_closed_form(self):
        assert duality_matrix(P22) == closed_form_m_r2(P22)

    def test_r3_closed_form(self):
        assert duality_matrix(P33) == closed_form_m_r3(P33)

    def test_zero_and_anti_diagonal_pattern(self):
        for p in (P22, P33):
            m = duality_matrix(p)
            r = p.r
            for k in range(r):
                for l in range(r):
                    if k + l <= r - 2:
                        assert m[k][l].is_zero
                    elif k + l == r - 1:
                        assert m[k][l] == anti_diagonal_entry(l)

    def test_bilinear_sums_match_matrix(self):
        N = 18
        p = P22
        m = duality_matrix(p)
        primal = solution_basis(p, N, "primal")
        dual = solution_basis(p, N, "dual")
        fp = [[f, advance(f)] for f in primal]
        gp = [[g, advance(g)] for g in dual]
        w = duality_weights(p)
        for k in range(2):
            for l in range(2):
                s = bilinear_sum(w, fp, gp, k, l)
                assert s == series_of_ratfunc(m[k][l], N)


class TestVerify:
    def test_r2_report_passes(self):
        report = verify_theorem1(P22, 16)
        assert report.passed
        assert len(report.cells) == 4

    def test_r3_report_passes(self):
        report = verify_theorem1(P33, 20)
        assert report.passed

    def test_small_order_rejected(self):
        with pytest.raises(InsufficientPrecision):
            verify_theorem1(P33, 6)


class TestEulerIdentity:
    def test_spec_parameters(self):
        report = verify_euler_identity(Q(1, 2), Q(1, 3), Q(1, 5), 20)
        assert report.passed

    def test_degenerate_exponent(self):
        # c - a - b = 0 makes the prefactor trivial
        report = verify_euler_identity(Q(1, 3), Q(1, 5), Q(1, 3) + Q(1, 5), 12)
        assert report.passed


def rational_strategy():
    return st.builds(Q, st.integers(1, 40), st.integers(1, 40))


@settings(max_examples=20, deadline=None)
@given(
    a=st.lists(rational_strategy(), min_size=2, max_size=2),
    b1=rational_strategy(),
)
def test_r2_matrix_matches_closed_form_everywhere(a, b1):
    try:
        p = HGParams.make(a, [b1])
    except DegenerateParameters:
        return
    assert duality_matrix(p) == closed_form_m_r2(p)


@settings(max_examples=10, deadline=None)
@given(
    a=st.lists(rational_strategy(), min_size=3, max_size=3),
    b=st.lists(rational_strategy(), min_size=2, max_size=2),
)
def test_r3_matrix_matches_closed_form_everywhere(a, b):
    try:
        p = HGParams.make(a, b)
    except DegenerateParameters:
        return
    assert duality_matrix(p) == closed_form_m_r3(p)


def test_elementary_symmetric_concrete():
    es = elementary_symmetric([1, 2, 3])
    assert es == [1, 6, 11, 6]


def test_body_lower_parameter_guard():
    with pytest.raises(DegenerateParameters):
        hypergeometric_body([Q(1, 2)], [Q(-1)], 5)


# hypergeometric_body against its closed form prod (u)_n / (prod (l)_n n!)
rationals = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=30, deadline=None)
@given(
    upper=st.lists(rationals, max_size=4),
    lower=st.lists(rational_strategy(), max_size=4),
)
def test_body_matches_pochhammer_closed_form(upper, lower):
    N = 10
    body = hypergeometric_body(upper, lower, N)
    for n in range(N + 1):
        den = pochhammer(1, n)
        for l in lower:
            den *= pochhammer(l, n)
        num = Q(1)
        for u in upper:
            num *= pochhammer(u, n)
        assert coefficients(body)[n] == num / den, n


@pytest.mark.parametrize("e", range(-3, 4))
def test_binomial_body(e):
    N = 12
    omz = ratfunc(Polynomial([1, -1]))
    power = ratfunc(Polynomial.one())
    for _ in range(abs(e)):
        power = rf_mul(power, omz) if e > 0 else rf_div(power, omz)
    assert hypergeometric_body([-e], [], N) == series_of_ratfunc(power, N)


def test_zero_factor_rule():
    # the lower factor -k + n vanishes at the step n = k, taken only if k < N
    N = 8
    with pytest.raises(DegenerateParameters, match="n = 7"):
        hypergeometric_body([Q(1, 2)], [Q(-(N - 1))], N)
    body = hypergeometric_body([Q(1, 2)], [Q(-N)], N)
    assert coefficients(body)[N] == pochhammer(Q(1, 2), N) / (
        pochhammer(-N, N) * pochhammer(1, N)
    )


@settings(max_examples=20, deadline=None)
@given(r=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_dual_basis_matches_explicit_formulas(r, seed):
    p = sample_params(random.Random(seed), r)
    dual = solution_basis(p, 12, "dual")
    for g, (offset, body) in zip(dual, explicit_dual_basis(p, 12), strict=True):
        assert g.offset == offset
        assert g.body == body

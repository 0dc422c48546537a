"""Shift-case tests: operator, bases, constants, duality matrix, closed forms."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hgdual.exact_algebra import Polynomial, Q
from hgdual.hypergeometric import DegenerateParameters
from hgdual.q_hypergeometric import (
    QHGParams,
    argument_rescale,
    closed_form_mq_r2,
    closed_form_mq_r3,
    corner_entry,
    genericity_check_q,
    q_c_constants,
    q_dual_unit,
    q_duality_matrix,
    q_duality_weights,
    q_solution_basis,
    qhg_operator,
    sample_params,
    superdiagonal_entry,
    verify_heine_identity,
    verify_theorem2,
)
from hgdual.skew_operators import (
    QSHIFT,
    InsufficientPrecision,
    TaggedSeries,
    q_dual_operator,
)
from oracles import (
    annihilates,
    coefficients,
    explicit_q_dual_basis,
    omega_q_pairing,
    q_hypergeometric_body,
    q_pochhammer,
    rescale_operator,
    scale_arg,
    scale_operator,
    series,
    series_of_ratfunc,
    wronskian_det,
)

QP2 = QHGParams.make(Q(1, 2), [Q(1, 3), Q(1, 7)], [Q(1, 5)])
QP3 = QHGParams.make(Q(1, 2), [Q(1, 3), Q(1, 7), Q(2, 3)], [Q(1, 5), Q(3, 7)])
BASES = [Q(1, 2), Q(2, 3), Q(1, 5)]


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(Q(3, 4), Q(1, 2), 0) == 1

    def test_base_at_base(self):
        assert q_pochhammer(Q(1, 2), Q(1, 2), 2) == Q(3, 8)

    def test_one_vanishes(self):
        assert q_pochhammer(1, Q(1, 2), 3) == 0


class TestGenericity:
    def test_generic_pair(self):
        assert genericity_check_q([Q(1, 5), Q(1, 2)], Q(1, 2)) is None

    def test_power_detected(self):
        witness = genericity_check_q([Q(1, 4), Q(1, 2)], Q(1, 2))
        assert witness is not None
        assert witness[2] in (1, -1)

    def test_equal_entries(self):
        witness = genericity_check_q([Q(1, 3), Q(1, 3)], Q(1, 2))
        assert witness is not None and witness[2] == 0

    def test_negative_ratio_is_generic(self):
        assert genericity_check_q([Q(-1, 5), Q(1, 2)], Q(1, 2)) is None

    def test_params_reject_violation(self):
        with pytest.raises(DegenerateParameters):
            QHGParams.make(Q(1, 2), [Q(1, 3), Q(1, 7)], [Q(1, 4)])


class TestParams:
    def test_forced_last_parameter(self):
        assert QP2.b == (Q(1, 5), Q(1, 2))

    def test_dual_map(self):
        d = QP2.dual()
        assert d.a == (Q(3, 2), Q(7, 2))
        assert d.b == (Q(5, 4), Q(1, 2))

    def test_dual_map_is_involution(self):
        assert QP3.dual().dual() == QP3

    def test_argument_rescale(self):
        assert argument_rescale(QP2) == Q(5, 21)

    def test_base_outside_interval_rejected(self):
        with pytest.raises(DegenerateParameters):
            QHGParams.make(Q(3, 2), [Q(1, 3), Q(1, 7)], [Q(1, 5)])


class TestOperator:
    def test_r2_coefficients(self):
        op = qhg_operator(QP2)
        a1, a2 = QP2.a
        b1, b2 = QP2.b
        q = QP2.q
        assert op.coefficient(0) == Polynomial([1, -1])
        assert op.coefficient(1) == Polynomial([-(b1 + b2) / q, a1 + a2])
        assert op.coefficient(2) == Polynomial([b1 * b2 / (q * q), -a1 * a2])

    def test_annihilates_primal_basis(self):
        N = 20
        op = qhg_operator(QP3)
        for f in q_solution_basis(QP3, N, "primal"):
            assert annihilates(op, f, 3)

    def test_dual_annihilates_dual_basis(self):
        N = 20
        dual_op = q_dual_operator(qhg_operator(QP3))
        for g in q_solution_basis(QP3, N, "dual"):
            assert annihilates(dual_op, g, 3)

    def test_dual_is_unit_times_rescaled_operator(self):
        for p in (QP2, QP3):
            lhs = q_dual_operator(qhg_operator(p))
            d, rho = p.dual(), argument_rescale(p)
            rhs = scale_operator(rescale_operator(qhg_operator(d), rho), q_dual_unit(p))
            assert lhs == rhs


class TestSolutionBases:
    def test_primal_eigenvalues(self):
        mus = [s.offset for s in q_solution_basis(QP2, 3, "primal")]
        assert mus == [Q(5, 2), Q(1)]

    def test_primal_leading_ratio(self):
        # i = r: upper (a_1, a_2), lower (q b_1/b_2) plus the q-factorial
        body = q_solution_basis(QP2, 4, "primal")[1].body
        assert coefficients(body)[0] == 1
        assert coefficients(body)[1] == Q(10, 7)

    def test_dual_offsets_cancel_primal(self):
        primal = q_solution_basis(QP2, 3, "primal")
        dual = q_solution_basis(QP2, 3, "dual")
        for f, g in zip(primal, dual):
            assert f.offset * g.offset == 1

    def test_dual_body_carries_rescaled_argument(self):
        rho = argument_rescale(QP2)
        plain = q_hypergeometric_body(
            [QP2.b[0] / x for x in QP2.a],
            [QP2.q * QP2.b[0] / QP2.b[1]],
            QP2.q,
            5,
        )
        folded = q_solution_basis(QP2, 5, "dual")[0].body
        assert folded == scale_arg(plain, rho)

    def test_unknown_which_rejected(self):
        with pytest.raises(ValueError, match="which must be"):
            q_solution_basis(QP2, 3, "both")

    def test_wronskian_nonzero(self):
        for which in ("primal", "dual"):
            w = wronskian_det(list(q_solution_basis(QP3, 10, which)))
            assert coefficients(w.body)[0] != 0


class TestPairingConstants:
    def test_r2_value(self):
        assert q_c_constants(QP2)[0] == Q(-3, 5)

    def test_weights_are_reciprocal(self):
        for c, w in zip(q_c_constants(QP3), q_duality_weights(QP3)):
            assert c * w == 1

    def test_pairing_is_constant(self):
        N = 18
        op = qhg_operator(QP3)
        primal = q_solution_basis(QP3, N, "primal")
        dual = q_solution_basis(QP3, N, "dual")
        consts = q_c_constants(QP3)
        for i in range(3):
            out = omega_q_pairing(op, dual[i], primal[i])
            assert coefficients(out)[0] == consts[i]
            assert all(c == 0 for c in coefficients(out)[1 : N - 3 + 1])

    def test_perturbed_solution_is_not_constant(self):
        N = 12
        op = qhg_operator(QP2)
        primal = q_solution_basis(QP2, N, "primal")
        dual = q_solution_basis(QP2, N, "dual")
        coeffs = list(coefficients(primal[0].body))
        coeffs[1] += 1
        broken = TaggedSeries(
            QSHIFT, primal[0].offset, series(coeffs), QP2.q
        )
        out = omega_q_pairing(op, dual[0], broken)
        assert any(c != 0 for c in coefficients(out)[1:])


class TestDualityMatrix:
    def test_r2_closed_form(self):
        assert q_duality_matrix(QP2) == closed_form_mq_r2(QP2)

    def test_r3_closed_form(self):
        assert q_duality_matrix(QP3) == closed_form_mq_r3(QP3)

    def test_zero_pattern(self):
        for p in (QP2, QP3):
            m = q_duality_matrix(p)
            r = p.r
            for k in range(r):
                for l in range(r):
                    if l <= k and (k, l) != (r - 1, 0):
                        assert m[k][l].is_zero
            assert m[r - 1][0] == corner_entry(p)
            for k in range(r - 1):
                assert m[k][k + 1] == superdiagonal_entry(p, k)

    def test_superdiagonal_series_is_geometric(self):
        s = series_of_ratfunc(superdiagonal_entry(QP3, 1), 4)
        q = QP3.q
        assert s == series([1, q, q**2, q**3, q**4])


class TestVerify:
    def test_r2_report_passes(self):
        report = verify_theorem2(QP2, 16)
        assert report.passed
        assert len(report.cells) == 4

    def test_r3_report_passes(self):
        report = verify_theorem2(QP3, 20)
        assert report.passed

    def test_other_base(self):
        p = QHGParams.make(Q(2, 3), [Q(1, 3), Q(1, 7)], [Q(1, 5)])
        assert verify_theorem2(p, 16).passed

    def test_small_order_rejected(self):
        with pytest.raises(InsufficientPrecision):
            verify_theorem2(QP3, 10)


class TestHeineIdentity:
    def test_sample_parameters(self):
        report = verify_heine_identity(Q(1, 3), Q(1, 7), Q(1, 5), Q(1, 2), 20)
        assert report.passed

    def test_second_base(self):
        report = verify_heine_identity(Q(2, 5), Q(3, 7), Q(1, 3), Q(2, 3), 20)
        assert report.passed


def rational_strategy():
    return st.builds(Q, st.integers(1, 40), st.integers(1, 40))


@settings(max_examples=15, deadline=None)
@given(
    a=st.lists(rational_strategy(), min_size=2, max_size=2),
    b1=rational_strategy(),
)
def test_r2_matrix_matches_closed_form_everywhere(a, b1):
    try:
        p = QHGParams.make(Q(1, 2), a, [b1])
    except DegenerateParameters:
        return
    assert q_duality_matrix(p) == closed_form_mq_r2(p)


# q_hypergeometric_body against its closed form
# prod (u;q)_n / (prod (l;q)_n (q;q)_n)
rationals = st.builds(Q, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from(BASES),
    upper=st.lists(rationals, max_size=4),
    lower=st.lists(rationals, max_size=4),
)
def test_body_matches_q_pochhammer_closed_form(q, upper, lower):
    N = 10
    assume(all(q_pochhammer(l, q, N) != 0 for l in lower))
    body = q_hypergeometric_body(upper, lower, q, N)
    for n in range(N + 1):
        den = q_pochhammer(q, q, n)
        for l in lower:
            den *= q_pochhammer(l, q, n)
        num = Q(1)
        for u in upper:
            num *= q_pochhammer(u, q, n)
        assert coefficients(body)[n] == num / den, n


@pytest.mark.parametrize("q", BASES, ids=["q=1/2", "q=2/3", "q=1/5"])
def test_zero_factor_rule(q):
    # the lower factor 1 - q^(n-k) vanishes at the step n = k, taken only
    # if k < N
    N = 8
    with pytest.raises(DegenerateParameters, match="n = 7"):
        q_hypergeometric_body([Q(1, 3)], [q ** -(N - 1)], q, N)
    body = q_hypergeometric_body([Q(1, 3)], [q**-N], q, N)
    assert coefficients(body)[N] == q_pochhammer(Q(1, 3), q, N) / (
        q_pochhammer(q**-N, q, N) * q_pochhammer(q, q, N)
    )


@settings(max_examples=20, deadline=None)
@given(
    q=st.sampled_from(BASES), r=st.integers(2, 8), seed=st.integers(0, 10**6)
)
def test_dual_basis_matches_explicit_formulas(q, r, seed):
    p = sample_params(random.Random(seed), r, q)
    dual = q_solution_basis(p, 12, "dual")
    for g, (mu, body) in zip(dual, explicit_q_dual_basis(p, 12), strict=True):
        assert g.offset == mu
        assert g.body == body

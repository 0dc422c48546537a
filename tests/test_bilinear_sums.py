"""The bilinear sum tables that the verifiers use, against the direct r^3
definition (bilinear_sum over the advance tables); the integer-vector
kernel under them, against the TruncatedSeries operations; and the failure
reports the verifiers give for a cell that does not match."""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
from hgdual.hypergeometric import DegenerateParameters
from hgdual.hypergeometric import sample_params as sample_theta_params
from hgdual.q_hypergeometric import sample_params as sample_qshift_params
from hgdual.skew_operators import minimum_order
from hgdual.exact_algebra import (
    PoleAtOrigin,
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    _graded_lifts,
    bilinear_combinations,
    integer_matches_ratfunc,
    integer_scale_arg,
    integer_vector,
    is_integer,
    series_of_integer_vector,
    series_of_ratfunc,
)

rationals = st.builds(lambda n, d: Q(n, d), st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(lambda x: x != 0)


def _series(length):
    return st.lists(rationals, min_size=length, max_size=length).map(TruncatedSeries)


@given(_series(7))
def test_integer_vector_round_trip(s):
    v, d = integer_vector(s)
    assert all(isinstance(x, int) for x in v)
    assert all((c * d).denominator == 1 for c in s.coeffs)
    assert series_of_integer_vector(v, d) == s


@given(_series(7), nonzero)
def test_integer_scale_arg_is_scale_arg(s, c):
    assert series_of_integer_vector(*integer_scale_arg(*integer_vector(s), c)) == (
        s.scale_arg(c)
    )


# Kernel coefficients: zero is drawn often, and the denominators are
# products of 2, 3, 5 and 7 that rarely divide one another, so the prefix
# lcm of a series steps by factors that are neither 1 nor the new
# denominator.
kernel_coeffs = st.one_of(
    st.just(Q(0)),
    st.builds(
        lambda n, d: Q(n, d),
        st.integers(-30, 30),
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 35]),
    ),
)


def _kernel_series(length):
    return st.lists(kernel_coeffs, min_size=length, max_size=length).map(
        TruncatedSeries
    )


def _expected_combinations(pairs, outputs):
    """The kernel's sums by TruncatedSeries arithmetic, term for term."""
    order = min(s.order for pair in pairs for s in pair)
    result = []
    for row in outputs:
        expected = TruncatedSeries.zero(order)
        for (a, b), (w, scale) in zip(pairs, row):
            scaled = TruncatedSeries([x * y for x, y in zip(scale.coeffs, a.coeffs)])
            expected = expected + (scaled * b).scale(w)
        result.append(expected)
    return result


def _combine(pairs, outputs):
    """bilinear_combinations on series pairs, with the scales of outputs
    passed as integer vectors."""
    return bilinear_combinations(
        pairs,
        [[(w, integer_vector(scale)) for w, scale in row] for row in outputs],
    )


def _assert_reduced(v, d):
    assert d > 0 and gcd(d, *v) == 1


@settings(max_examples=50)
@given(
    st.lists(st.tuples(_kernel_series(6), _kernel_series(6)), min_size=1, max_size=3),
    st.lists(st.lists(st.tuples(rationals, _kernel_series(6)), min_size=3, max_size=3),
             min_size=1, max_size=3),
)
def test_bilinear_combinations_match_series_arithmetic(pairs, outputs):
    outputs = [row[: len(pairs)] for row in outputs]
    got = _combine(pairs, outputs)
    for (v, d), expected in zip(got, _expected_combinations(pairs, outputs)):
        _assert_reduced(v, d)
        assert series_of_integer_vector(v, d) == expected


def test_prefix_lcm_constant_over_several_steps():
    # denominators 6, 2, 3, 6, 1 all divide 6; then 4 steps the lcm to 12
    a = TruncatedSeries([Q(1, 6), Q(1, 2), Q(2, 3), Q(5, 6), Q(3), Q(1, 4)])
    lifts = [(list(x), prefix) for x, prefix in _graded_lifts(a, 6)]
    assert [prefix for _, prefix in lifts] == [6, 6, 6, 6, 6, 12]
    for m, (x, prefix) in enumerate(lifts):
        assert x == [int(c * prefix) for c in a.coeffs[: m + 1]]
    b = TruncatedSeries([Q(1, 5), Q(0), Q(-1, 7), Q(2), Q(0), Q(1, 3)])
    one = TruncatedSeries([1] * 6)
    outputs = [[(Q(3, 2), one)], [(Q(-1), a)]]
    got = _combine([(a, b)], outputs)
    for (v, d), expected in zip(got, _expected_combinations([(a, b)], outputs)):
        _assert_reduced(v, d)
        assert series_of_integer_vector(v, d) == expected


def test_all_zero_output():
    a = TruncatedSeries([Q(1, 6), Q(0), Q(2, 9), Q(-1, 4)])
    b = TruncatedSeries([Q(3, 5), Q(1, 7), Q(0), Q(5)])
    one = TruncatedSeries([1] * 4)
    # a zero weight, and two equal terms that cancel
    outputs = [[(Q(0), one)], [(Q(1, 3), one), (Q(-1, 3), one)]]
    assert _combine([(a, b)], outputs[:1]) == [([0] * 4, 1)]
    assert _combine([(a, b), (a, b)], outputs[1:]) == [([0] * 4, 1)]


class TestIntegerMatchesRatfunc:
    F = RationalFunction(
        Polynomial([1, Q(1, 3)]), Polynomial([1, Q(-1, 2), Q(1, 5)])
    )

    def test_expansion_matches(self):
        s = series_of_ratfunc(self.F, 12)
        assert integer_matches_ratfunc(*integer_vector(s), self.F)

    @pytest.mark.parametrize("n", [0, 1, 6, 12])
    def test_any_wrong_coefficient_is_found(self, n):
        coeffs = list(series_of_ratfunc(self.F, 12).coeffs)
        coeffs[n] += Q(1, 7)
        assert not integer_matches_ratfunc(*integer_vector(TruncatedSeries(coeffs)), self.F)

    def test_zero(self):
        assert integer_matches_ratfunc([0] * 5, 1, RationalFunction.zero())
        assert not integer_matches_ratfunc([0, 0, 1, 0], 3, RationalFunction.zero())

    def test_pole_at_origin_rejected(self):
        with pytest.raises(PoleAtOrigin):
            integer_matches_ratfunc([1, 0, 0], 1, RationalFunction(1, Polynomial([0, 1])))


def _advance_table(entries, count):
    """The powers X^0(s)..X^(count-1)(s) of each entry s."""
    table = []
    for s in entries:
        powers = [s]
        for _ in range(count - 1):
            powers.append(powers[-1].advance())
        table.append(powers)
    return table


def _direct_theta_sums(p, N):
    fp = _advance_table(hg.solution_basis(p, N, "primal").entries, p.r)
    gp = _advance_table(hg.solution_basis(p, N, "dual").entries, p.r)
    w = hg.duality_weights(p)
    return [[hg.bilinear_sum(w, fp, gp, k, l) for l in range(p.r)] for k in range(p.r)]


def _direct_q_sums(p, N):
    fp = _advance_table(qhg.q_solution_basis(p, N, "primal").entries, p.r)
    gp = _advance_table(qhg.q_solution_basis(p, N, "dual").entries, p.r)
    w = qhg.q_duality_weights(p)
    return [
        [hg.bilinear_sum(w, fp, gp, k, l) for l in range(p.r)] for k in range(p.r)
    ]


def _assert_tables_equal(table, direct, r):
    for k in range(r):
        for l in range(r):
            assert series_of_integer_vector(*table[k][l]) == direct[k][l], (k, l)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_theta_table_equals_direct_sums(r):
    p = sample_theta_params(random.Random(300 + r), r)
    N = 4 * r + 8
    _assert_tables_equal(hg.bilinear_sum_table(p, N), _direct_theta_sums(p, N), r)


@pytest.mark.parametrize("q", [Q(1, 2), Q(2, 3)], ids=["q=1/2", "q=2/3"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_qshift_table_equals_direct_sums(r, q):
    p = sample_qshift_params(random.Random(400 + r), r, q)
    N = 4 * r + 8
    _assert_tables_equal(qhg.q_bilinear_sum_table(p, N), _direct_q_sums(p, N), r)


# The structural identities the sum tables rest on, on hypothesis-drawn
# generic parameters at the least certified order, against the direct sums.
parameter = st.builds(Q, st.integers(1, 30), st.integers(1, 30))


def _upper_and_lower(r):
    return st.tuples(
        st.lists(parameter, min_size=r, max_size=r),
        st.lists(parameter, min_size=r - 1, max_size=r - 1),
    )


upper_and_lower = st.integers(2, 3).flatmap(_upper_and_lower)


def _generic(make, *args):
    """family.Params.make(*args), or a rejected example when the tuple is
    not generic; integer upper parameters are rejected as the samplers do."""
    assume(not any(is_integer(x) for x in args[-2]))
    try:
        return make(*args)
    except DegenerateParameters:
        assume(False)


@settings(max_examples=10, deadline=None)
@given(upper_and_lower)
def test_theta_leibniz_recurrence(ab):
    p = _generic(hg.Params.make, *ab)
    r, N = p.r, minimum_order(p.r)
    # T_kl for k = 0..2r-2, the range of the table's first column
    fp = _advance_table(hg.solution_basis(p, N, "primal").entries, 2 * r - 1)
    gp = _advance_table(hg.solution_basis(p, N, "dual").entries, r)
    w = hg.duality_weights(p)
    t = [[hg.bilinear_sum(w, fp, gp, k, l) for l in range(r)] for k in range(2 * r - 1)]
    for k in range(2 * r - 2):
        for l in range(r - 1):
            assert t[k][l + 1] == t[k][l].theta() - t[k + 1][l], (k, l)
    _assert_tables_equal(hg.bilinear_sum_table(p, N), t, r)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([Q(1, 2), Q(2, 3), Q(1, 3), Q(3, 4)]), upper_and_lower)
def test_qshift_shift_toeplitz(q, ab):
    p = _generic(qhg.Params.make, q, *ab)
    r, N = p.r, minimum_order(p.r)
    primal = qhg.solution_basis(p, N, "primal").entries
    dual = qhg.solution_basis(p, N, "dual").entries
    w = qhg.q_duality_weights(p)

    def shift_sum(e):
        """E_e(w) = sum_i w_i mu_i^e phi_i(q^e w) psi_i(w)."""
        acc = TruncatedSeries.zero(N)
        for wi, f, g in zip(w, primal, dual):
            acc = acc + (f.body.scale_arg(q**e) * g.body).scale(wi * f.offset**e)
        return acc

    direct = _direct_q_sums(p, N)
    sums = {e: shift_sum(e) for e in range(1 - r, r)}
    for k in range(r):
        for l in range(r):
            assert direct[k][l] == sums[k - l].scale_arg(q**l), (k, l)
    _assert_tables_equal(qhg.q_bilinear_sum_table(p, N), direct, r)


def _perturb(monkeypatch, module, name, cell):
    """Replace module.name by a version whose matrix has cell + 1; returns
    a dict that receives the perturbed entry."""
    original = getattr(module, name)
    seen = {}

    def perturbed(p):
        m = original(p)
        k, l = cell
        m[k][l] = m[k][l] + RationalFunction.one()
        seen["entry"] = m[k][l]
        return m

    monkeypatch.setattr(module, name, perturbed)
    return seen


def _assert_single_failure(report, cell, expected, direct, r):
    assert [c.cell for c in report.failures] == [cell]
    failure = report.failures[0]
    assert failure.expected == expected
    assert failure.got_prefix == direct.coeffs[: 2 * r + 2]
    assert all(isinstance(c, Q) for c in failure.got_prefix)
    assert all(c.expected is None and c.got_prefix is None for c in report.cells if c.passed)


@pytest.mark.parametrize("cell", [(1, 2), (0, 0)])
def test_theta_failure_report(monkeypatch, cell):
    r, N = 3, 20
    p = sample_theta_params(random.Random(11), r)
    direct = _direct_theta_sums(p, N)
    seen = _perturb(monkeypatch, hg, "duality_matrix", cell)
    report = hg.verify_theorem1(p, N)
    _assert_single_failure(report, cell, seen["entry"], direct[cell[0]][cell[1]], r)


@pytest.mark.parametrize("cell", [(0, 2), (2, 0)])
def test_qshift_failure_report(monkeypatch, cell):
    r, N = 3, 20
    p = sample_qshift_params(random.Random(12), r, Q(2, 3))
    direct = _direct_q_sums(p, N)
    seen = _perturb(monkeypatch, qhg, "duality_matrix", cell)
    report = qhg.verify_theorem2(p, N)
    _assert_single_failure(report, cell, seen["entry"], direct[cell[0]][cell[1]], r)

"""The bilinear sum tables that the verifiers use, against the direct r^3
definition (bilinear_sum over the advance tables); the integer-vector
kernel under them, against the TruncatedSeries operations; and the failure
reports the verifiers give for a cell that does not match."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
from hgdual.hypergeometric import sample_params as sample_theta_params
from hgdual.q_hypergeometric import sample_params as sample_qshift_params
from hgdual.exact_algebra import (
    PoleAtOrigin,
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    bilinear_combinations,
    integer_matches_ratfunc,
    integer_scale_arg,
    integer_vector,
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


@settings(max_examples=50)
@given(
    st.lists(st.tuples(_series(6), _series(6)), min_size=1, max_size=3),
    st.lists(st.lists(st.tuples(rationals, _series(6)), min_size=3, max_size=3),
             min_size=1, max_size=3),
)
def test_bilinear_combinations_match_series_arithmetic(pairs, outputs):
    int_pairs = [(integer_vector(a), integer_vector(b)) for a, b in pairs]
    int_outputs = [
        [(w, integer_vector(scale)) for w, scale in row[: len(pairs)]] for row in outputs
    ]
    got = bilinear_combinations(int_pairs, int_outputs)
    for (v, d), row in zip(got, outputs):
        expected = TruncatedSeries.zero(5)
        for (a, b), (w, scale) in zip(pairs, row):
            scaled = TruncatedSeries([x * y for x, y in zip(scale.coeffs, a.coeffs)])
            expected = expected + (scaled * b).scale(w)
        assert series_of_integer_vector(v, d) == expected


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


def _advance_table(entries, r):
    return [[s.advance_power(k) for k in range(r)] for s in entries]


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

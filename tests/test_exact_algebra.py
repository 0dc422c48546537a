"""Kernel tests: polynomials, rational functions, series, reconstruction."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from hgdual.exact_algebra import (
    Q,
    Polynomial,
    PoleAtOrigin,
    RationalFunction,
    TruncatedSeries,
    integer_vector,
)
from oracles import (
    FractionPolynomial,
    ReconstructionFailed,
    add,
    coefficients,
    evaluate,
    horner_normal_form,
    mul,
    one,
    poly_coefficient,
    poly_divmod,
    poly_gcd,
    ratfunc,
    rational_reconstruct,
    reduced,
    rf_add,
    rf_div,
    rf_mul,
    rf_scale_arg,
    rf_sub,
    rf_theta,
    scale_arg,
    series,
    series_invert,
    series_of_ratfunc,
    sub,
    theta,
    zero,
)


def P(*coeffs):
    return Polynomial(coeffs)


def S(*coeffs):
    return series(coeffs)


rationals = st.builds(
    lambda n, d: Q(n, d), st.integers(-30, 30), st.integers(1, 12)
)


def poly_strategy(max_deg=4):
    return st.builds(Polynomial, st.lists(rationals, min_size=0, max_size=max_deg + 1))


class TestPolynomial:
    def test_difference_of_squares(self):
        assert P(1, -1) * P(1, 1) == P(1, 0, -1)

    def test_additive_identity(self):
        p = P(Q(3, 7), 0, 2)
        assert p + Polynomial.zero() == p

    def test_convolution(self):
        assert P(1, 2) * P(3, Q(1, 2)) == P(3, Q(13, 2), 1)

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero
        assert P().degree == -1

    def test_divmod(self):
        p, d = P(-1, 0, 0, 1), P(-1, 1)
        q, r = poly_divmod(p, d)
        assert r.is_zero
        assert q * d == p

    def test_evaluate(self):
        assert evaluate(P(1, -2, 1), Q(1, 2)) == Q(1, 4)

    def test_theta_via_derivative(self):
        # theta(z^n) = n z^n
        p = P(5, 0, 7)
        assert P(0, 1) * derivative(p) == P(0, 0, 14)
        assert p.theta() == P(0, 0, 14)


class TestPolyGcd:
    def test_shared_root(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_unit(self):
        assert poly_gcd(P(2, 3, 4), P(5)) == P(1)

    def test_cubic(self):
        assert poly_gcd(P(0, -1, 0, 1), P(1, -2, 1)) == P(-1, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial.zero(), Polynomial.zero())


_nonzero_polys = (
    st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    .map(Polynomial)
    .filter(lambda p: not p.is_zero)
)


def derivative(p):
    return Polynomial([n * c for n, c in enumerate(p.coeffs)][1:])


def theta_by_quotient_rule(f):
    """theta(n / d) = z (n' d - n d') / d^2, normalised at each step."""
    d = reduced(derivative(f.num) * f.den - f.num * derivative(f.den), f.den * f.den)
    return reduced(P(0, 1) * d.num, d.den)


@settings(max_examples=60, deadline=None)
@given(_nonzero_polys, _nonzero_polys, _nonzero_polys)
def test_rational_theta_is_the_quotient_rule(num, den, p):
    f = reduced(num, den)
    assert rf_theta(f) == theta_by_quotient_rule(f)
    assert p.theta() == P(0, 1) * derivative(p)
    assert rf_theta(ratfunc(p)) == ratfunc(p.theta())


class TestRationalFunction:
    def test_cancellation(self):
        f = RationalFunction(P(1), P(1, -1))
        assert rf_sub(f, f).is_zero

    def test_inverse_pair(self):
        f = RationalFunction(P(1), P(1, -1))
        g = ratfunc(P(1, -1))
        assert rf_mul(f, g) == ratfunc(Polynomial.one())

    def test_common_denominator(self):
        f = RationalFunction(P(1), P(1, -1))
        g = RationalFunction(P(1), P(1, 1))
        # 2/(1-z^2), with the denominator made monic
        assert rf_add(f, g) == RationalFunction(P(2), P(1, -1), P(1, 1))

    def test_den_monic_and_reduced(self):
        f = RationalFunction(P(0, 2), P(0, 2), P(0, 2))
        assert f.num == P(Q(1, 2))
        assert f.den == P(0, 1)

    def test_theta(self):
        # theta(1/(1-z)) = z/(1-z)^2
        f = RationalFunction(P(1), P(1, -1))
        assert rf_theta(f) == RationalFunction(P(0, 1), P(1, -1), P(1, -1))

    def test_scale_arg(self):
        f = RationalFunction(P(1), P(1, -1))
        assert rf_scale_arg(f, Q(1, 2)) == RationalFunction(P(1), P(1, Q(-1, 2)))

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf_div(ratfunc(Polynomial.one()), RationalFunction.zero())
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), Polynomial.zero())


class TestTruncatedSeries:
    def test_product_of_inverse_pair(self):
        assert mul(S(1, 1, 1), S(1, -1, 0)) == S(1, 0, 0)

    def test_self_cancellation(self):
        a = S(1, Q(2, 3), 5)
        assert sub(a, a) == zero(2)

    def test_cauchy_product(self):
        assert mul(S(1, 2, 3), S(1, 2, 3)) == S(1, 4, 10)

    def test_min_order_propagation(self):
        a = series([1, 1, 1, 1])
        b = series([1, 1])
        assert add(a, b).order == 1
        assert mul(a, b).order == 1

    def test_theta_and_scale_arg(self):
        a = S(7, 5, 3)
        assert theta(a) == S(0, 5, 6)
        assert scale_arg(a, Q(1, 2)) == S(7, Q(5, 2), Q(3, 4))

    def test_graded_forms_compare_by_value(self):
        # 1/2, 3/(2*3), -10/(2*3*5): the steps are not the prefix lcms
        built = TruncatedSeries([1, 3, -10], [2, 3, 5])
        assert coefficients(built) == (Q(1, 2), Q(1, 2), Q(-1, 3))
        assert built == S(Q(1, 2), Q(1, 2), Q(-1, 3))
        assert series(coefficients(built)).steps == (2, 1, 3)
        assert integer_vector(built) == ([3, 3, -2], 6)
        assert built != S(Q(1, 2), Q(1, 2), Q(1, 3))
        assert built != S(Q(1, 2), Q(1, 2))

    @pytest.mark.parametrize(
        "nums, steps", [([], []), ([1, 2], [1]), ([1, 2], [1, 0]), ([1], [-1])]
    )
    def test_graded_form_needs_a_positive_step_per_numerator(self, nums, steps):
        with pytest.raises(ValueError):
            TruncatedSeries(nums, steps)


class TestSeriesOfRatfunc:
    def test_geometric(self):
        f = RationalFunction(P(1), P(1, -1))
        assert series_of_ratfunc(f, 3) == S(1, 1, 1, 1)

    def test_polynomial(self):
        f = ratfunc(P(1, -1))
        assert series_of_ratfunc(f, 2) == S(1, -1, 0)

    def test_geometric_squared(self):
        f = RationalFunction(P(1), P(1, -1), P(1, -1))
        assert series_of_ratfunc(f, 3) == S(1, 2, 3, 4)

    def test_pole_at_origin_rejected(self):
        f = RationalFunction(P(1), P(0, 1))
        with pytest.raises(PoleAtOrigin):
            series_of_ratfunc(f, 2)


class TestSeriesInvert:
    def test_geometric(self):
        assert series_invert(S(1, -1, 0, 0)) == S(1, 1, 1, 1)

    def test_constant(self):
        assert series_invert(S(2, 0, 0)) == S(Q(1, 2), 0, 0)

    def test_triangular(self):
        assert series_invert(S(1, 1, 1)) == S(1, -1, 0)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_invert(S(0, 1))


class TestRationalReconstruct:
    def test_geometric(self):
        f = rational_reconstruct(S(1, 1, 1, 1, 1), 0, 1)
        assert f == RationalFunction(P(1), P(1, -1))

    def test_constant(self):
        c = Q(-5, 3)
        f = rational_reconstruct(S(c, 0, 0, 0), 0, 0)
        assert f == ratfunc(P(c))

    def test_pade(self):
        f = rational_reconstruct(S(1, 2, 3, 4, 5, 6), 0, 2)
        assert f == RationalFunction(P(1), P(1, -1), P(1, -1))

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            rational_reconstruct(S(1, 1, 1), 1, 1)

    def test_failure_reported(self):
        # factorial growth is not rational
        a = series([1, 1, 2, 6, 24, 120, 720])
        with pytest.raises(ReconstructionFailed):
            rational_reconstruct(a, 2, 2)

    def test_minimal_denominator_preferred(self):
        # a polynomial series must come back with denominator 1
        f = rational_reconstruct(S(3, 1, 0, 0, 0, 0), 1, 2)
        assert f.den == P(1)


@settings(max_examples=60, deadline=None)
@given(f=poly_strategy(), g=poly_strategy(), h=poly_strategy())
def test_poly_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * (g * h) == (f * g) * h
    assert f - f == Polynomial.zero()


def assert_canonical(p):
    """nums / den in canonical form, all ints: den > 0, gcd(den, *nums) = 1,
    no trailing zero, and the zero polynomial over 1."""
    assert type(p.den) is int and all(type(x) is int for x in p.nums)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0 if p.nums else p.den == 1


# zero, constant and negative coefficients; lists of ints as well
_coefficient_lists = st.one_of(
    st.lists(rationals, max_size=5),
    st.lists(st.integers(-4, 4), max_size=3),
    st.just([]),
    st.builds(lambda c: [c], rationals),
)


@settings(max_examples=150, deadline=None)
@given(a=_coefficient_lists, b=_coefficient_lists, c=st.one_of(rationals, st.integers(-3, 3)))
def test_polynomial_matches_the_fraction_reference(a, b, c):
    """Each operation on integer numerators over one denominator gives the
    coefficients of the same operation on Fractions, in canonical form."""
    p, q = Polynomial(a), Polynomial(b)
    fp, fq = FractionPolynomial(a), FractionPolynomial(b)
    for got, want in [
        (p, fp),
        (p + q, fp + fq),
        (p - q, fp - fq),
        (-p, -fp),
        (p * q, fp * fq),
        (p * c, fp.scale(c)),
        (p.scale(c), fp.scale(c)),
        (p.theta(), fp.theta()),
        (p.scale_arg(c), fp.scale_arg(c)),
    ]:
        assert got.coeffs == want.coeffs
        assert got.degree == want.degree and got.is_zero == want.is_zero
        assert_canonical(got)
    assert (p == q) == (fp == fq)
    if p == q:
        assert hash(p) == hash(q)
    assert p == Polynomial(fp.coeffs) and hash(p) == hash(Polynomial(fp.coeffs))


def ratfunc_strategy():
    nonzero_poly = poly_strategy(3).filter(lambda p: not p.is_zero)
    return st.builds(reduced, poly_strategy(3), nonzero_poly)


# few roots, so that roots repeat in the factors and num shares them
_roots = st.sampled_from((Q(0), Q(1), Q(-1), Q(1, 2), Q(2, 3)))
_leads = rationals.filter(lambda c: c != 0)


def _linear(root, lead):
    return P(-lead * root, lead)


_factors = st.one_of(st.builds(P, _leads), st.builds(_linear, _roots, _leads))


@settings(max_examples=100, deadline=None)
@given(
    factors=st.lists(_factors, max_size=6),
    picks=st.lists(st.booleans(), min_size=6, max_size=6),
    shared=st.lists(_roots, max_size=3),
    rest=poly_strategy(3),
)
def test_linear_factors_give_the_euclid_normal_form(factors, picks, shared, rest):
    """RationalFunction(num, *factors), reduced at the roots of the
    factors, is the Euclid normal form of num over their product."""
    num = rest
    for f, pick in zip(factors, picks):
        if pick:
            num = num * f
    for root in shared:
        num = num * P(-root, 1)
    den = Polynomial.one()
    for f in factors:
        den = den * f
    assert RationalFunction(num, *factors) == reduced(num, den)
    root = shared[0] if shared else Q(1)
    with pytest.raises(ValueError):
        RationalFunction(num, *factors, P(-root, 1) * P(-root, 1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(num, *factors, Polynomial.zero())


@pytest.mark.parametrize("excess", [-1, 0, 1], ids=["below", "equal", "above"])
@settings(max_examples=60, deadline=None)
@given(
    rest=poly_strategy(3),
    root=_roots,
    in_den=st.integers(1, 3),
    leads=st.lists(_leads, min_size=3, max_size=3),
    others=st.lists(_factors, max_size=4),
    order=st.randoms(use_true_random=False),
    zero_num=st.booleans(),
)
def test_ratfunc_matches_the_fraction_horner_pass(
    excess, rest, root, in_den, leads, others, order, zero_num
):
    """RationalFunction, by integer synthetic division and with roots where
    num did not vanish skipped, gives the coefficients of the Fraction
    Horner pass at every factor: with a root whose multiplicity in num is
    below, equal to or above its multiplicity in the factors, factors of
    negative leading coefficient, the factor z, factors of degree 0, and
    num = 0."""
    num = Polynomial.zero() if zero_num else rest
    for _ in range(in_den + excess):
        num = num * P(-root, 1)
    factors = [_linear(root, lead) for lead in leads[:in_den]]
    factors += others + [P(1, -1), P(0, leads[0]), P(leads[1])]
    order.shuffle(factors)
    f = RationalFunction(num, *factors)
    assert (f.num.coeffs, f.den.coeffs) == horner_normal_form(num, *factors)
    assert_canonical(f.num)
    assert_canonical(f.den)


@settings(max_examples=40, deadline=None)
@given(f=ratfunc_strategy(), g=ratfunc_strategy(), h=ratfunc_strategy())
def test_ratfunc_field_axioms(f, g, h):
    assert rf_add(rf_add(f, g), h) == rf_add(f, rf_add(g, h))
    assert rf_mul(f, rf_add(g, h)) == rf_add(rf_mul(f, g), rf_mul(f, h))
    assert rf_mul(f, g) == rf_mul(g, f)
    if not g.is_zero:
        assert rf_mul(rf_div(f, g), g) == f


@settings(max_examples=40, deadline=None)
@given(f=ratfunc_strategy(), g=ratfunc_strategy())
def test_series_expansion_is_ring_map(f, g):
    if evaluate(f.den, 0) == 0 or evaluate(g.den, 0) == 0:
        return
    N = 8
    sf, sg = series_of_ratfunc(f, N), series_of_ratfunc(g, N)
    assert series_of_ratfunc(rf_mul(f, g), N) == mul(sf, sg)
    assert series_of_ratfunc(rf_add(f, g), N) == add(sf, sg)


@settings(max_examples=40, deadline=None)
@given(f=ratfunc_strategy())
def test_reconstruct_inverts_expansion(f):
    if evaluate(f.den, 0) == 0:
        return
    dn, dd = max(f.num.degree, 0), f.den.degree
    a = series_of_ratfunc(f, dn + dd + 3)
    assert rational_reconstruct(a, dn, dd) == f


@settings(max_examples=80, deadline=None)
@given(
    num=poly_strategy(6),
    den=poly_strategy(6).filter(lambda p: poly_coefficient(p, 0) != 0),
    r=st.integers(0, 4),
    extra=st.integers(0, 4),
)
def test_reconstruct_returns_f_exactly_within_degree_bound(num, den, r, extra):
    """From the expansion of a reduced f with den(0) != 0 through z^N,
    N > 2r, reconstruction with degrees (r, r) gives f back exactly when
    deg num(f) <= r and deg den(f) <= r; skew_operators.check_cells relies
    on this to use the degree bound in its place."""
    f = reduced(num, den)
    try:
        got = rational_reconstruct(series_of_ratfunc(f, 2 * r + 1 + extra), r, r)
    except ReconstructionFailed:
        got = None
    assert (got == f) == (f.num.degree <= r and f.den.degree <= r)


@settings(max_examples=40, deadline=None)
@given(a=st.lists(rationals, min_size=1, max_size=8))
def test_series_invert_property(a):
    if a[0] == 0:
        return
    s = series(a)
    assert mul(s, series_invert(s)) == one(s.order)


def _to_sympy(f):
    zs = sympy.Symbol("z")
    num = sum(
        sympy.Rational(str(c)) * zs**i for i, c in enumerate(f.num.coeffs)
    )
    den = sum(
        sympy.Rational(str(c)) * zs**i for i, c in enumerate(f.den.coeffs)
    )
    return sympy.together(num / den), zs


@settings(max_examples=15, deadline=None)
@given(f=ratfunc_strategy())
def test_series_against_sympy(f):
    # independent expansion oracle
    if evaluate(f.den, 0) == 0 or f.is_zero:
        return
    expr, zs = _to_sympy(f)
    N = 6
    ours = series_of_ratfunc(f, N)
    ref = sympy.series(expr, zs, 0, N + 1).removeO()
    for n in range(N + 1):
        assert sympy.Rational(str(coefficients(ours)[n])) == ref.coeff(zs, n)

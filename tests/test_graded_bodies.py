"""The basis bodies as integer graded data (TruncatedSeries): every body
the bases build against the Fraction term-ratio recurrence it replaces,
the kernel on the lifts as built against the prefix-lcm lifts, and a guard
that the bases and checks 1-2 of a passing verify build no tall Fraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
import hgdual.skew_operators as skew_operators
from hgdual.exact_algebra import Q
from hgdual.hypergeometric import DegenerateParameters
from hgdual.skew_operators import minimum_order
from oracles import coefficients, series, term_ratio_coefficients
from test_bilinear_sums import FAMILIES

# signed parameters: negative ones give negative term ratios, whose sign
# the numerators carry while every step stays positive
signed = st.builds(Q, st.integers(-30, 30).filter(bool), st.integers(1, 30))


def _recorded_bodies(monkeypatch, module, p, N):
    """(arguments, body) of every term_ratio_series call that the primal
    and the dual basis of p make."""
    calls = []
    build = module.term_ratio_series

    def recorded(*args):
        body = build(*args)
        calls.append((args, body))
        return body

    monkeypatch.setattr(module, "term_ratio_series", recorded)
    for which in ("primal", "dual"):
        module.solution_basis(p, N, which)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(2, 4), st.data())
def test_every_body_is_the_fraction_recurrence(family, r, data):
    """Primal and dual bodies, the dual q ones in rho*z, coefficient for
    coefficient equal to the Fraction recurrence on the same arguments."""
    module, _, base = FAMILIES[family]
    a = data.draw(st.lists(signed, min_size=r, max_size=r))
    b = data.draw(st.lists(signed, min_size=r - 1, max_size=r - 1))
    N = minimum_order(r)
    with pytest.MonkeyPatch.context() as mp:
        try:
            p = module.Params.make(*base, a, b)
            calls = _recorded_bodies(mp, module, p, N)
        except DegenerateParameters:
            assume(False)
    assert len(calls) == 2 * r
    for args, body in calls:
        assert all(v > 0 for v in body.steps)
        assert coefficients(body) == term_ratio_coefficients(*args)


@pytest.mark.parametrize(
    "family, a, b",
    [
        ("theta", [Q(-7, 2), Q(1, 3)], [Q(1, 5)]),
        ("q=1/2", [Q(5), Q(-1, 3)], [Q(-2, 7)]),
        ("q=2/3", [Q(7, 2), Q(1, 3)], [Q(-3, 5)]),
    ],
)
def test_negative_ratios_sit_in_the_numerators(monkeypatch, family, a, b):
    module, _, base = FAMILIES[family]
    p = module.Params.make(*base, a, b)
    calls = _recorded_bodies(monkeypatch, module, p, minimum_order(2))
    assert any(y < 0 for _, body in calls for y in body.nums)
    for args, body in calls:
        assert all(v > 0 for v in body.steps)
        assert coefficients(body) == term_ratio_coefficients(*args)


def test_an_ended_body_keeps_the_step_one():
    """The upper parameter -3 ends the body of the last entry at z^3; its
    later numerators are 0 over the step 1, so its denominators stop
    growing."""
    p = hg.Params.make([Q(-3), Q(1, 3)], [Q(1, 5)])
    body = hg.solution_basis(p, 20)[1].body
    assert all(body.nums[:4]) and not any(body.nums[4:])
    assert set(body.steps[4:]) == {1}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("r", [2, 5])
def test_lifts_as_built_equal_prefix_lcm_lifts(monkeypatch, family, r):
    """The kernel table on the bodies as built equals the table on the same
    bodies stored over the prefix lcms of their denominators, which the
    lifts took before; the two forms differ."""
    module, name, base = FAMILIES[family]
    p = module.sample_params(random.Random(700 + r), r, *base)
    N = minimum_order(r)
    built = module.bilinear_sum_table(p, N)
    basis = getattr(module, name)
    bodies = [e.body for which in ("primal", "dual") for e in basis(p, N, which)]
    assert any(series(coefficients(s)).steps != s.steps for s in bodies)

    def relifted(p, N, which="primal"):
        return tuple(
            type(e)(e.mode, e.offset, series(coefficients(e.body)), e.q)
            for e in basis(p, N, which)
        )

    monkeypatch.setattr(module, name, relifted)
    assert module.bilinear_sum_table(p, N) == built


# Bits above which a Fraction counts as tall: the numerators of a body at
# order 40 and r = 5 are thousands of bits tall, the ratios of one step at
# most a few hundred.
TALL_BITS = 1000


@pytest.mark.skipif(Q is not Fraction, reason="guards the Fraction backend")
@pytest.mark.parametrize("family", ["theta", "q=2/3"])
def test_bases_and_checks_build_no_tall_fraction(monkeypatch, family):
    """While term_ratio_series and annihilated run inside a passing verify
    (r = 5, order 40), no Fraction is built from an integer of more than
    TALL_BITS bits: the bodies stay integer graded data, and checks 1-2
    read them over the integers."""
    module, _, base = FAMILIES[family]
    p = module.sample_params(random.Random(1), 5, *base)
    inside, entered, tall = [0], set(), []

    def watched(function):
        def run(*args):
            inside[0] += 1
            entered.add(function.__name__)
            try:
                return function(*args)
            finally:
                inside[0] -= 1

        return run

    construct = Fraction.__new__

    def guarded(cls, *args, **kwargs):
        if inside[0]:
            tall.extend(
                x.bit_length()
                for x in args
                if isinstance(x, int) and x.bit_length() > TALL_BITS
            )
        return construct(cls, *args, **kwargs)

    for owner, name in (
        (hg, "term_ratio_series"),
        (qhg, "term_ratio_series"),
        (skew_operators, "annihilated"),
    ):
        monkeypatch.setattr(owner, name, watched(getattr(owner, name)))
    monkeypatch.setattr(Fraction, "__new__", guarded)
    assert module.verify(p, 40).passed
    monkeypatch.undo()
    assert entered == {"term_ratio_series", "annihilated"}
    assert tall == []

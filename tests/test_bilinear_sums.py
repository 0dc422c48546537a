"""The bilinear sum tables that the verifiers form when the pairing
certificate is refused or a cell fails, against the direct r^3 definition
(bilinear_sum over the advance tables); the integer-vector kernel under
them, against the TruncatedSeries operations; the failure reports the
verifiers give for a cell that does not match; and the r = 2 product
identities that paper-regression certifies on the tables."""

import contextlib
import gc
import io
import os
import random
import signal
import threading
from functools import partial
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import hgdual.cli
import hgdual.hypergeometric as hg
import hgdual.q_hypergeometric as qhg
import hgdual.skew_operators as skew_operators
from hgdual.hypergeometric import DegenerateParameters
from hgdual.hypergeometric import sample_params as sample_theta_params
from hgdual.q_hypergeometric import sample_params as sample_qshift_params
from hgdual.skew_operators import (
    TaggedSeries,
    annihilated,
    check_cells,
    lagrange_identity,
    minimum_order,
    pairing_certifies,
    pairing_constants,
)
import hgdual.exact_algebra as exact_algebra
from hgdual.exact_algebra import (
    PoleAtOrigin,
    Polynomial,
    Q,
    RationalFunction,
    TruncatedSeries,
    _graded_lifts,
    bilinear_combinations,
    integer_first_mismatch,
    integer_scale_arg,
    integer_vector,
    is_integer,
)
from oracles import (
    add,
    advance,
    bilinear_sum,
    coefficients,
    failures,
    gauss_jordan_invert,
    inverse_table,
    mul,
    poly_coefficient,
    ratfunc,
    reduced,
    rf_add,
    scale,
    scale_arg,
    series,
    series_of_integer_vector,
    series_of_poly,
    series_of_ratfunc,
    sub,
    theta,
    zero,
)

rationals = st.builds(lambda n, d: Q(n, d), st.integers(-30, 30), st.integers(1, 12))
nonzero = rationals.filter(lambda x: x != 0)


def _series(length):
    return st.lists(rationals, min_size=length, max_size=length).map(series)


@given(_series(7))
def test_integer_vector_round_trip(s):
    v, d = integer_vector(s)
    assert all(isinstance(x, int) for x in v)
    assert all((c * d).denominator == 1 for c in coefficients(s))
    assert series_of_integer_vector(v, d) == s


@given(_series(7), nonzero)
def test_integer_scale_arg_is_scale_arg(s, c):
    assert series_of_integer_vector(*integer_scale_arg(*integer_vector(s), c)) == (
        scale_arg(s, c)
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
    return st.lists(kernel_coeffs, min_size=length, max_size=length).map(series)


def _expected_combinations(pairs, outputs):
    """The kernel's sums by TruncatedSeries arithmetic, term for term."""
    order = min(s.order for pair in pairs for s in pair)
    result = []
    for row in outputs:
        expected = zero(order)
        for (a, b), (w, s) in zip(pairs, row):
            scaled = series([x * y for x, y in zip(coefficients(s), coefficients(a))])
            expected = add(expected, scale(mul(scaled, b), w))
        result.append(expected)
    return result


def _combine(pairs, outputs):
    """bilinear_combinations on series pairs, with each scale of outputs
    passed as an integer vector (v, d) and its d folded into the weight."""
    folded = []
    for row in outputs:
        vectors = [integer_vector(scale) for _, scale in row]
        folded.append([(w / d, v) for (w, _), (v, d) in zip(row, vectors)])
    return bilinear_combinations(pairs, folded)


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
    a = series([Q(1, 6), Q(1, 2), Q(2, 3), Q(5, 6), Q(3), Q(1, 4)])
    lifts = [(list(x), step) for x, step in _graded_lifts(a, 6)]
    assert [step for _, step in lifts] == [6, 1, 1, 1, 1, 2]
    prefix = 1
    for m, (x, step) in enumerate(lifts):
        prefix *= step
        assert prefix == (6 if m < 5 else 12)
        assert x == [int(c * prefix) for c in coefficients(a)[: m + 1]]
    b = series([Q(1, 5), Q(0), Q(-1, 7), Q(2), Q(0), Q(1, 3)])
    one = series([1] * 6)
    outputs = [[(Q(3, 2), one)], [(Q(-1), a)]]
    got = _combine([(a, b)], outputs)
    for (v, d), expected in zip(got, _expected_combinations([(a, b)], outputs)):
        _assert_reduced(v, d)
        assert series_of_integer_vector(v, d) == expected


def test_all_zero_output():
    a = series([Q(1, 6), Q(0), Q(2, 9), Q(-1, 4)])
    b = series([Q(3, 5), Q(1, 7), Q(0), Q(5)])
    one = series([1] * 4)
    # a zero weight, and two equal terms that cancel
    outputs = [[(Q(0), one)], [(Q(1, 3), one), (Q(-1, 3), one)]]
    assert _combine([(a, b)], outputs[:1]) == [([0] * 4, 1)]
    assert _combine([(a, b), (a, b)], outputs[1:]) == [([0] * 4, 1)]


@settings(max_examples=60)
@given(
    st.lists(st.tuples(_kernel_series(8), _kernel_series(8)), min_size=1, max_size=4)
)
def test_carried_denominators_are_the_prefix_lcm(pairs):
    """D_m and the cross factors carried by the lift steps (steps of 1 and
    repeated prime factors drawn often) equal their direct definitions."""
    lifts = zip(*[zip(_graded_lifts(a, 8), _graded_lifts(b, 8)) for a, b in pairs])
    for m, (_, d_m, cross) in enumerate(exact_algebra._carried(lifts, len(pairs))):
        dens = [
            lcm(*(int(c.denominator) for c in coefficients(a)[: m + 1]))
            * lcm(*(int(c.denominator) for c in coefficients(b)[: m + 1]))
            for a, b in pairs
        ]
        assert d_m == lcm(*dens)
        assert cross == [d_m // x for x in dens]


# The kernel runs in this process, whatever CPUs, threads, work or fork it
# meets: it starts no child and opens no pipe, and its sums are exact.


def _fork_counter(mp):
    """Count the calls of os.fork from here on."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    mp.setattr(os, "fork", counted)
    return calls


def _offer_cpus(mp, count):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_exact(got, pairs, outputs):
    assert len(got) == len(outputs)
    for (v, d), expected in zip(got, _expected_combinations(pairs, outputs)):
        _assert_reduced(v, d)
        assert series_of_integer_vector(v, d) == expected


KERNEL_PAIRS = [
    (
        series([Q(n + 1, 3 + n % 4) for n in range(9)]),
        series([Q(2 - n, 5 + 2 * (n % 3)) for n in range(9)]),
    ),
    (
        series([Q((-1) ** n, 7 + n) for n in range(9)]),
        series([Q(n * n + 1, 2 + n % 5) for n in range(9)]),
    ),
]
KERNEL_OUTPUTS = [
    [
        (Q(1, 3), series([n + 1 for n in range(9)])),
        (Q(-2), series([1] * 9)),
    ],
    [
        (Q(5, 7), series([Q(1, 2)] * 9)),
        (Q(1), series([n * n for n in range(9)])),
    ],
]


@pytest.mark.parametrize("length", [6, 7, 8, 9])
def test_two_shares_equal_serial(monkeypatch, length):
    """Two CPUs offered, at even and odd lengths: the kernel forks no
    share and its sums are exact."""
    def cut(s):
        return series(coefficients(s)[:length])

    pairs = [tuple(map(cut, pair)) for pair in KERNEL_PAIRS]
    outputs = [[(w, cut(s)) for w, s in row] for row in KERNEL_OUTPUTS]
    _offer_cpus(monkeypatch, 2)
    forks = _fork_counter(monkeypatch)
    _assert_exact(_combine(pairs, outputs), pairs, outputs)
    assert forks == []
    _assert_no_child_left()


def test_split_without_fork(monkeypatch):
    _offer_cpus(monkeypatch, 2)

    def refuse():
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", refuse)
    _assert_exact(_combine(KERNEL_PAIRS, KERNEL_OUTPUTS), KERNEL_PAIRS, KERNEL_OUTPUTS)


def test_children_reaped_when_parent_share_raises(monkeypatch):
    """An interrupt inside the kernel reaches the caller, with no child
    started."""
    _offer_cpus(monkeypatch, 3)
    forks = _fork_counter(monkeypatch)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(exact_algebra, "_carried", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _combine(KERNEL_PAIRS, KERNEL_OUTPUTS)
    assert forks == []
    _assert_no_child_left()


class Fired(Exception):
    """Raised by the test timer's SIGALRM handler."""


def _fire(signum, frame):
    raise Fired


@pytest.fixture
def alarm():
    """A SIGALRM handler that raises Fired, with the cyclic garbage
    collector off: a handler that runs inside a gc callback (hypothesis
    registers one) raises there, where the exception is swallowed and
    interrupts nothing. The timer is off and gc on again afterwards."""
    old = signal.signal(signal.SIGALRM, _fire)
    gc.disable()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        gc.enable()
        signal.signal(signal.SIGALRM, old)


def test_timer_interrupt_leaves_no_child_nor_pipe(alarm, monkeypatch):
    """A timer exception raised at any point of a kernel call (here at
    delays from 0.2 to 8 ms) leaves no child and no open file descriptor,
    and a call it does not reach returns the exact sums."""
    fds = len(os.listdir("/proc/self/fd"))
    exact = _combine(KERNEL_PAIRS, KERNEL_OUTPUTS)
    _assert_exact(exact, KERNEL_PAIRS, KERNEL_OUTPUTS)
    _offer_cpus(monkeypatch, 3)
    for delay in range(1, 41):
        got = None
        signal.setitimer(signal.ITIMER_REAL, delay / 5000)
        try:
            got = _combine(KERNEL_PAIRS, KERNEL_OUTPUTS)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Fired:
            pass
        assert got in (None, exact)
        _assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds


def test_serial_on_one_cpu(monkeypatch):
    _offer_cpus(monkeypatch, 1)
    forks = _fork_counter(monkeypatch)
    _assert_exact(_combine(KERNEL_PAIRS, KERNEL_OUTPUTS), KERNEL_PAIRS, KERNEL_OUTPUTS)
    assert forks == []


def test_serial_with_another_thread(monkeypatch):
    _offer_cpus(monkeypatch, 2)
    forks = _fork_counter(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        got = _combine(KERNEL_PAIRS, KERNEL_OUTPUTS)
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    _assert_exact(got, KERNEL_PAIRS, KERNEL_OUTPUTS)
    assert forks == []


def test_serial_below_the_work_threshold(monkeypatch):
    """The kernel has no work threshold: a small call and a call of tall
    coefficients (3 pairs, 3 outputs, order 30, 300-bit numerators) both
    run in this process."""
    rng = random.Random(7)

    def tall():
        return series(
            [Q(rng.getrandbits(300) - 2**299, rng.randrange(1, 10**6)) for _ in range(30)]
        )

    pairs = [(tall(), tall()) for _ in range(3)]
    ones = series([1] * 30)
    steps = series([n + 1 for n in range(30)])
    outputs = [[(Q(k + 1, 2), steps if i == k else ones) for i in range(3)] for k in range(3)]
    _offer_cpus(monkeypatch, 4)
    forks = _fork_counter(monkeypatch)
    _assert_exact(_combine(KERNEL_PAIRS, KERNEL_OUTPUTS), KERNEL_PAIRS, KERNEL_OUTPUTS)
    _assert_exact(_combine(pairs, outputs), pairs, outputs)
    assert forks == []


class TestIntegerMatchesRatfunc:
    """integer_first_mismatch: None on a match, else the first index that
    differs."""

    F = reduced(Polynomial([1, Q(1, 3)]), Polynomial([1, Q(-1, 2), Q(1, 5)]))

    def test_expansion_matches(self):
        s = series_of_ratfunc(self.F, 12)
        assert integer_first_mismatch(*integer_vector(s), self.F) is None

    @pytest.mark.parametrize("n", [0, 1, 6, 12])
    def test_any_wrong_coefficient_is_found(self, n):
        coeffs = list(coefficients(series_of_ratfunc(self.F, 12)))
        coeffs[n] += Q(1, 7)
        v, d = integer_vector(series(coeffs))
        assert integer_first_mismatch(v, d, self.F) == n

    def test_zero(self):
        assert integer_first_mismatch([0] * 5, 1, RationalFunction.zero()) is None
        assert integer_first_mismatch([0, 0, 1, 0], 3, RationalFunction.zero()) == 2

    def test_pole_at_origin_rejected(self):
        with pytest.raises(PoleAtOrigin):
            integer_first_mismatch(
                [1, 0, 0], 1, RationalFunction(Polynomial([1]), Polynomial([0, 1]))
            )


def _advance_table(entries, count):
    """The powers X^0(s)..X^(count-1)(s) of each entry s."""
    table = []
    for s in entries:
        powers = [s]
        for _ in range(count - 1):
            powers.append(advance(powers[-1]))
        table.append(powers)
    return table


def _direct_theta_sums(p, N):
    fp = _advance_table(hg.solution_basis(p, N, "primal"), p.r)
    gp = _advance_table(hg.solution_basis(p, N, "dual"), p.r)
    w = hg.duality_weights(p)
    return [[bilinear_sum(w, fp, gp, k, l) for l in range(p.r)] for k in range(p.r)]


def _direct_q_sums(p, N):
    fp = _advance_table(qhg.q_solution_basis(p, N, "primal"), p.r)
    gp = _advance_table(qhg.q_solution_basis(p, N, "dual"), p.r)
    w = qhg.q_duality_weights(p)
    return [[bilinear_sum(w, fp, gp, k, l) for l in range(p.r)] for k in range(p.r)]


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
    fp = _advance_table(hg.solution_basis(p, N, "primal"), 2 * r - 1)
    gp = _advance_table(hg.solution_basis(p, N, "dual"), r)
    w = hg.duality_weights(p)
    t = [[bilinear_sum(w, fp, gp, k, l) for l in range(r)] for k in range(2 * r - 1)]
    for k in range(2 * r - 2):
        for l in range(r - 1):
            assert t[k][l + 1] == sub(theta(t[k][l]), t[k + 1][l]), (k, l)
    _assert_tables_equal(hg.bilinear_sum_table(p, N), t, r)


def _shift_sums(p, N):
    """Every shift sum E_e(w) = sum_i w_i mu_i^e phi_i(q^e w) psi_i(w),
    e = 1-r..r-1, in Fraction series arithmetic."""
    primal = qhg.solution_basis(p, N, "primal")
    dual = qhg.solution_basis(p, N, "dual")
    w = qhg.q_duality_weights(p)
    sums = {}
    for e in range(1 - p.r, p.r):
        acc = zero(N)
        for wi, f, g in zip(w, primal, dual):
            product = mul(scale_arg(f.body, p.q**e), g.body)
            acc = add(acc, scale(product, wi * f.offset**e))
        sums[e] = acc
    return sums


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([Q(1, 2), Q(2, 3), Q(1, 3), Q(3, 4)]), upper_and_lower)
def test_qshift_shift_toeplitz(q, ab):
    p = _generic(qhg.Params.make, q, *ab)
    r, N = p.r, minimum_order(p.r)
    direct = _direct_q_sums(p, N)
    sums = _shift_sums(p, N)
    for k in range(r):
        for l in range(r):
            assert direct[k][l] == scale_arg(sums[k - l], q**l), (k, l)
    _assert_tables_equal(qhg.q_bilinear_sum_table(p, N), direct, r)


# The tables form their 2r-1 outputs in one kernel call, and equal the
# direct definition. FAMILIES maps an id to the family module, the name of
# its basis function and the arguments Params.make and sample_params take
# before a and b.
FAMILIES = {
    "theta": (hg, "solution_basis", ()),
    "q=1/2": (qhg, "q_solution_basis", (Q(1, 2),)),
    "q=2/3": (qhg, "q_solution_basis", (Q(2, 3),)),
}


def _kernel_outputs(mp, module):
    """Record the numbers of pairs and of outputs of each kernel call of
    module."""
    counts = []
    kernel = module.bilinear_combinations

    def counted(pairs, outputs):
        counts.append((len(pairs), len(outputs)))
        return kernel(pairs, outputs)

    mp.setattr(module, "bilinear_combinations", counted)
    return counts


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(2, 5).flatmap(_upper_and_lower),
    st.integers(0, 6),
)
def test_certified_table_equals_all_outputs(family, ab, extra):
    module, _, base = FAMILIES[family]
    p = _generic(module.Params.make, *base, *ab)
    r, N = p.r, minimum_order(p.r) + extra
    with pytest.MonkeyPatch.context() as mp:
        counts = _kernel_outputs(mp, module)
        table = module.bilinear_sum_table(p, N)
        assert counts == [(r, 2 * r - 1)]
    direct = _direct_theta_sums(p, N) if module is hg else _direct_q_sums(p, N)
    _assert_tables_equal(table, direct, r)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_generic_parameters_take_the_certified_path(monkeypatch, family, r):
    """A passing verify on generic parameters forms no sum (the pairing
    certificate holds), and the table forms its 2r-1 outputs in one kernel
    call."""
    module, _, base = FAMILIES[family]
    p = module.sample_params(random.Random(600 + r), r, *base)
    counts = _kernel_outputs(monkeypatch, module)
    assert module.verify(p, minimum_order(r)).passed
    assert counts == []
    module.bilinear_sum_table(p, minimum_order(r))
    assert counts == [(r, 2 * r - 1)]


def _cli_codes(module, p, N):
    """The exit codes of the verify command on p, in text and in JSON."""
    family = ["--hg"] if module is hg else ["--qhg", "--q", str(p.q)]
    argv = ["verify", *family, "--a", ",".join(map(str, p.a)),
            "--b", ",".join(map(str, p.b[:-1])), "--order", str(N)]
    codes = []
    for fmt in ([], ["--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(hgdual.cli.main(argv + fmt))
    return codes


@pytest.mark.parametrize("family", ["theta", "q=2/3"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_off_operator_basis_takes_all_outputs(monkeypatch, family, where):
    """A primal body moved off the operator is refused by the certificate:
    verify and the command form the sums in one kernel call of 2r-1
    outputs each, and the report is that of the direct sums of the moved
    basis."""
    module, name, base = FAMILIES[family]
    r, N = 3, 20
    p = module.sample_params(random.Random(13), r, *base)
    n = {"first": 0, "middle": N // 2, "last": N}[where]
    _perturb_basis(monkeypatch, module, name, ("primal", 1, n, Q(1)))
    primal = getattr(module, name)(p, N, "primal")
    assert not annihilated(module.operator(p), primal)
    counts = _kernel_outputs(monkeypatch, module)
    report = module.verify(p, N)
    assert counts == [(r, 2 * r - 1)]
    assert not report.passed
    direct = _direct_theta_sums(p, N) if module is hg else _direct_q_sums(p, N)
    sums = [[integer_vector(s) for s in row] for row in direct]
    structure = partial(module.structure_ok, p)
    assert report == check_cells(module.duality_matrix(p), sums, structure)
    assert _cli_codes(module, p, N) == [1, 1]
    assert counts == [(r, 2 * r - 1)] * 3


# The pairing certificate: verify forms no sum when the checks of
# pairing_certifies hold and M passes against the first 2r+2 terms of the
# series of Psi^(-1) (the head). When M fails the head, or a cell its
# structure, the sums are that series through z^N; when pairing_certifies
# refuses, the kernel forms them. Each check refuses on its own the inputs
# that break what it certifies, and the reports of the series and of the
# kernel are equal.


def _kernel_report(module, p, N):
    """The report of verify on the path that forms every sum."""
    return check_cells(
        module.duality_matrix(p),
        module.bilinear_sum_table(p, N),
        partial(module.structure_ok, p),
    )


def _inverts(m, psi):
    """Whether m = psi^(-1), decided as verify_duality and matrix --check
    decide it: check_cells against the head of the series of psi^(-1),
    with every entry accepted."""
    head = inverse_table(psi, 2 * len(psi) + 1)
    return head is not None and check_cells(m, head, lambda k, l, e: True).passed


def _five_checks(module, p, N, m):
    """The verdicts of the four checks of pairing_certifies, in its order,
    and of the head comparison of m with psi^(-1) (_inverts)."""
    op = module.operator(p)
    dual_op = module.dual_operator(op)
    psi = module.psi(op)
    primal = module.solution_basis(p, N, "primal")
    dual = module.solution_basis(p, N, "dual")
    return [
        annihilated(op, primal),
        annihilated(dual_op, dual),
        lagrange_identity(op, dual_op, psi),
        pairing_constants(psi, primal, dual, module.c_constants(p), N),
        _inverts(m, psi),
    ]


def _assert_refused(module, p, N):
    assert not pairing_certifies(module, p, N, module.psi(module.operator(p)))
    assert module.verify(p, N) == _kernel_report(module, p, N)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(2, 5).flatmap(_upper_and_lower))
def test_certified_verdicts_equal_the_kernel_tables(family, ab):
    module, _, base = FAMILIES[family]
    p = _generic(module.Params.make, *base, *ab)
    N = minimum_order(p.r)
    psi = module.psi(module.operator(p))
    assert pairing_certifies(module, p, N, psi)
    assert _inverts(module.duality_matrix(p), psi)
    assert module.verify(p, N) == _kernel_report(module, p, N)


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(2, 5).flatmap(_upper_and_lower),
    st.sampled_from(["moved", "far", "swapped"]),
    st.data(),
)
def test_series_and_kernel_reports_are_equal(family, ab, change, data):
    """M with an entry moved by z^2, or by z^(2r+2), or with two corner
    entries swapped, fails the head comparison while checks 1-4 hold:
    verify reads the sums from the series of Psi^(-1) through z^N, with no
    kernel call, and reports exactly what it reports on the kernel's sums
    when the certificate is refused. The entry moved by z^(2r+2) agrees
    with Psi^(-1) through z^(2r+1) and fails only the degree bound there;
    the series through z^N finds its first difference at z^(2r+2)."""
    module, _, base = FAMILIES[family]
    p = _generic(module.Params.make, *base, *ab)
    r, N = p.r, minimum_order(p.r)
    m = module.duality_matrix(p)
    if change in ("moved", "far"):
        k, l = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        power = 2 if change == "moved" else 2 * r + 2
        m[k][l] = rf_add(m[k][l], ratfunc(Polynomial([0] * power + [1])))
    else:
        corners = {(0, 0), (0, r - 1), (r - 1, 0), (r - 1, r - 1)}
        (a, b), (c, d) = data.draw(st.permutations(sorted(corners)))[:2]
        assume(m[a][b] != m[c][d])
        m[a][b], m[c][d] = m[c][d], m[a][b]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "matrix_invert", lambda psi: list(map(list, m)))
        counts = _kernel_outputs(mp, module)
        series = module.verify(p, N)
        assert counts == []
        mp.setattr(skew_operators, "pairing_certifies", lambda *args: False)
        kernel = module.verify(p, N)
        assert counts == [(r, 2 * r - 1)]
    assert not series.passed
    assert series == kernel
    if change == "far":
        assert [c.first_diff for c in failures(series)] == [2 * r + 2]


# Parameters the command line accepts but the samplers never draw: integer
# and zero upper parameters in theta, where the samplers draw positive
# non-integers, and negative parameters in q, where they draw positive
# ones. The certificate holds on them, so no verify of theirs forms a
# kernel table.
signed = st.builds(Q, st.integers(-30, 30), st.integers(1, 30))


def _with_integer(a, b, i, n):
    """Upper parameter i set to the integer n."""
    return a[:i] + [Q(n)] + a[i + 1 :], b


def _with_negative(a, b, i):
    """Parameter i, counted over a then b, made negative."""
    x = a + b
    x[i] = -abs(x[i]) or Q(-1)
    return x[: len(a)], x[len(a) :]


def _edge_parameters(theta, r):
    a, b = (st.lists(signed, min_size=n, max_size=n) for n in (r, r - 1))
    if theta:
        return st.builds(_with_integer, a, b, st.integers(0, r - 1), st.integers(-5, 5))
    return st.builds(_with_negative, a, b, st.integers(0, 2 * r - 2))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(2, 4),
    st.data(),
)
def test_accepted_edge_parameters_never_reach_the_kernel(family, r, data):
    module, _, base = FAMILIES[family]
    ab = data.draw(_edge_parameters(module is hg, r))
    try:
        p = module.Params.make(*base, *ab)
    except DegenerateParameters:
        assume(False)
    N = minimum_order(r)
    assert pairing_certifies(module, p, N, module.psi(module.operator(p)))
    with pytest.MonkeyPatch.context() as mp:
        counts = _kernel_outputs(mp, module)
        module.verify(p, N)
        assert counts == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("which", ["primal", "dual"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_moved_body_coefficient_is_refused(family, which, where):
    """Check 1 (primal) or 2 (dual) refuses a body coefficient moved by 1,
    and a stored numerator y_n or step v_n moved by 1. The step v_0 divides
    the whole body, which solves L f = 0 whatever its scale: check 4
    refuses that one alone."""
    module, name, base = FAMILIES[family]
    check = ["primal", "dual"].index(which)
    for r in (2, 3, 4):
        p = module.sample_params(random.Random(3), r, *base)
        N = minimum_order(r)
        n = {"first": 0, "middle": N // 2, "last": N}[where]
        for part in ("coefficient", "numerator", "step"):
            with pytest.MonkeyPatch.context() as mp:
                _perturb_basis(mp, module, name, (which, 1, n, 1, part))
                verdicts = _five_checks(module, p, N, module.duality_matrix(p))
                if (part, n) == ("step", 0):
                    assert verdicts == [True, True, True, False, True], r
                else:
                    assert not verdicts[check] and verdicts[1 - check], (r, part)
                    assert verdicts[2] and verdicts[4], (r, part)
                _assert_refused(module, p, N)
                assert not module.verify(p, N).passed


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("added", [[0, 0, 1], [1]], ids=["z^2", "1"])
def test_moved_matrix_entry_is_refused(family, added):
    """The head alone refuses M with z^2 or 1 added to a corner; verify then
    reads the sums from the series of Psi^(-1), with no kernel call, and
    reports what the kernel's sums report."""
    module, _, base = FAMILIES[family]
    for r in (2, 3, 4):
        p = module.sample_params(random.Random(3), r, *base)
        N = minimum_order(r)
        for k, l in {(0, 0), (r - 1, r - 1), (r - 1, 0), (0, r - 1)}:
            m = module.duality_matrix(p)
            m[k][l] = rf_add(m[k][l], ratfunc(Polynomial(added)))
            assert _five_checks(module, p, N, m) == [True] * 4 + [False], (r, k, l)
            assert pairing_certifies(module, p, N, module.psi(module.operator(p)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, "duality_matrix", lambda p, m=m: list(map(list, m)))
                counts = _kernel_outputs(mp, module)
                report = module.verify(p, N)
                assert counts == []
                assert report == _kernel_report(module, p, N)
                assert not report.passed


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("added", [[0, 1], [1]], ids=["z", "1"])
def test_moved_psi_entry_is_refused(family, added):
    """Check 3 refuses Psi with z or 1 added at (0,0), (r-1,0) or (0,r-1),
    and check 4 refuses it too where the constant term moved. Against the
    right M, the head refuses it as well, and the sums formed after the
    refusal pass every cell. Against M = Psi^(-1) of Psi with z added,
    which check 4 and the head accept, check 3 refuses alone, and the sums
    fail."""
    module, _, base = FAMILIES[family]
    psi = module.psi
    for r in (2, 3, 4):
        p = module.sample_params(random.Random(3), r, *base)
        N = minimum_order(r)
        for k, l in {(0, 0), (r - 1, 0), (0, r - 1)}:

            def perturbed(op, k=k, l=l):
                mat = psi(op)
                mat[k][l] = mat[k][l] + Polynomial(added)
                return mat

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, "psi", perturbed)
                verdicts = _five_checks(module, p, N, module.duality_matrix(p))
                assert verdicts == [True, True, False, added[0] == 0, False], (r, k, l)
                _assert_refused(module, p, N)
                assert module.verify(p, N).passed
                if added[0] != 0:
                    continue
                moved = gauss_jordan_invert(perturbed(module.operator(p)))
                mp.setattr(module, "duality_matrix", lambda p: list(map(list, moved)))
                verdicts = _five_checks(module, p, N, moved)
                assert verdicts == [True, True, False, True, True], (r, k, l)
                _assert_refused(module, p, N)
                assert not module.verify(p, N).passed


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("change", ["swapped", "scaled"])
def test_mispaired_or_scaled_dual_basis_is_refused(monkeypatch, family, change):
    """Check 4 alone refuses a dual basis with g_0 and g_1 swapped, or with
    g_0 scaled by 2: each entry still solves the dual equation."""
    module, name, base = FAMILIES[family]
    basis = getattr(module, name)

    def changed(p, N, which="primal"):
        entries = list(basis(p, N, which))
        if which == "dual" and change == "swapped":
            entries[0], entries[1] = entries[1], entries[0]
        elif which == "dual":
            e = entries[0]
            body = series([2 * c for c in coefficients(e.body)])
            entries[0] = TaggedSeries(e.mode, e.offset, body, e.q)
        return tuple(entries)

    monkeypatch.setattr(module, name, changed)
    monkeypatch.setattr(module, "solution_basis", changed)
    for r in (2, 3, 4):
        p = module.sample_params(random.Random(3), r, *base)
        N = minimum_order(r)
        verdicts = _five_checks(module, p, N, module.duality_matrix(p))
        assert verdicts == [True, True, True, False, True], r
        _assert_refused(module, p, N)
        assert not module.verify(p, N).passed


def _diagonal_constant(psi, f, g):
    """phi(0) psi(0) sum_kl Psi_kl(0) y^k x^l, for f = z^x phi, g = z^y psi."""
    return coefficients(f.body)[0] * coefficients(g.body)[0] * sum(
        poly_coefficient(e, 0) * g.offset**k * f.offset**l
        for k, row in enumerate(psi)
        for l, e in enumerate(row)
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [0, 3])
def test_resonant_offsets_are_refused(family, n):
    """Check 4 refuses a pairing of f_j with g_i, i != j, with a term z^n,
    n <= N, that X maps as a constant: here the primal basis (f_0, f_0')
    against the dual basis (g_0, g_0), f_0' having the offset of
    z^(-n) f_0, even with the constants that the diagonal pairings have."""
    module, _, base = FAMILIES[family]
    p = module.sample_params(random.Random(3), 2, *base)
    N = minimum_order(2)
    psi = module.psi(module.operator(p))
    f = module.solution_basis(p, N, "primal")[0]
    g = module.solution_basis(p, N, "dual")[0]
    offset = f.offset - n if module is hg else f.offset / p.q**n
    moved = TaggedSeries(f.mode, offset, f.body, f.q)
    constants = [_diagonal_constant(psi, f, g), _diagonal_constant(psi, moved, g)]
    assert pairing_constants(psi, [f], [g], constants[:1], N)
    assert not pairing_constants(psi, [f, moved], [g, g], constants, N)


def _perturb(monkeypatch, module, name, cell):
    """Replace module.name by a version whose matrix has z^(k+l) added to
    cell (k, l); returns a dict that receives the perturbed entry."""
    original = getattr(module, name)
    seen = {}

    def perturbed(p):
        m = original(p)
        k, l = cell
        m[k][l] = rf_add(m[k][l], ratfunc(Polynomial([0] * (k + l) + [1])))
        seen["entry"] = m[k][l]
        return m

    monkeypatch.setattr(module, name, perturbed)
    return seen


def _assert_single_failure(report, cell, expected, direct, r):
    assert [c.cell for c in failures(report)] == [cell]
    failure = failures(report)[0]
    assert failure.expected == expected
    assert failure.got_prefix == coefficients(direct)[: 2 * r + 2]
    assert all(isinstance(c, Q) for c in failure.got_prefix)
    expansion = coefficients(series_of_ratfunc(expected, direct.order))
    assert failure.first_diff == next(
        n for n, (x, y) in enumerate(zip(coefficients(direct), expansion)) if x != y
    )
    assert all(
        c.expected is None and c.got_prefix is None and c.first_diff is None
        for c in report.cells
        if c.passed
    )


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


# The product identities of paper-regression at r = 2: f_1 g_1 = f_0 g_0 is
# the (0,0) cell of the sum table. Each entry: the family module, the name
# of its basis function, the arguments Params.make takes before a and b,
# the identity as (p, N) -> report, and the cell that reports the products.
PRODUCT_IDENTITIES = {
    "euler": (
        hg,
        "solution_basis",
        (),
        lambda p, N: hg.verify_euler_identity(*p.a, p.b[0], N),
        (0, 1),
    ),
    "heine": (
        qhg,
        "q_solution_basis",
        (Q(2, 3),),
        lambda p, N: qhg.verify_heine_identity(*p.a, p.b[0], p.q, N),
        (0, 0),
    ),
}


def _four_products(basis, p, N):
    """The product identity in Fraction series arithmetic: the oracle of
    the (0,0) cell."""
    f = basis(p, N, "primal")
    g = basis(p, N, "dual")
    return mul(f[1].body, g[1].body) == mul(f[0].body, g[0].body)


def _perturb_basis(mp, module, name, change):
    """Replace module.name, and the family surface name solution_basis, by
    a basis function that adds delta to coefficient n of body i of the
    basis `which`, change = (which, i, n, delta), or with a fifth entry
    "numerator" or "step" to the stored numerator y_n or step v_n."""
    which, i, n, delta, part = (*change, "coefficient")[:5]
    original = getattr(module, name)

    def perturbed(p, N, kind="primal"):
        basis = original(p, N, kind)
        if kind != which:
            return basis
        entries = list(basis)
        e = entries[i]
        moved = {
            "coefficient": list(coefficients(e.body)),
            "numerator": list(e.body.nums),
            "step": list(e.body.steps),
        }
        moved[part][n] += delta
        if part == "coefficient":
            body = series(moved[part])
        else:
            body = TruncatedSeries(moved["numerator"], moved["step"])
        entries[i] = TaggedSeries(e.mode, e.offset, body, e.q)
        return tuple(entries)

    mp.setattr(module, name, perturbed)
    mp.setattr(module, "solution_basis", perturbed)


basis_change = st.tuples(
    st.sampled_from(["primal", "dual"]),
    st.integers(0, 1),
    st.integers(0, minimum_order(2)),
    st.integers(-3, 3).filter(bool),
)


@pytest.mark.parametrize("identity", sorted(PRODUCT_IDENTITIES))
@settings(max_examples=10, deadline=None)
@given(
    upper=st.lists(parameter, min_size=2, max_size=2),
    b1=parameter,
    change=st.none() | basis_change,
)
def test_product_cell_is_the_four_product_formula(identity, upper, b1, change):
    module, name, base, check, cell = PRODUCT_IDENTITIES[identity]
    p = _generic(module.Params.make, *base, upper, [b1])
    N = minimum_order(2)
    with pytest.MonkeyPatch.context() as mp:
        if change is not None:
            _perturb_basis(mp, module, name, change)
        verdicts = {c.cell: c.passed for c in check(p, N).cells}
        assert verdicts[cell] == _four_products(getattr(module, name), p, N)


@pytest.mark.parametrize("identity", sorted(PRODUCT_IDENTITIES))
def test_perturbed_basis_fails_the_product_cell_only(monkeypatch, identity):
    module, name, base, check, cell = PRODUCT_IDENTITIES[identity]
    p = module.Params.make(*base, [Q(1, 2), Q(1, 3)], [Q(1, 5)])
    _perturb_basis(monkeypatch, module, name, ("dual", 1, 7, Q(1)))
    assert [c.cell for c in failures(check(p, 20))] == [cell]


# The three bodies of Euler's transformation F(a,b;c;z) = prefactor * right
# with left = F(a,b;c;z), by the upper parameters at a = 1/2, b = 1/3,
# c = 1/5.
EULER_BODIES = {
    "left": [Q(1, 2), Q(1, 3)],
    "right": [Q(1, 5) - Q(1, 2), Q(1, 5) - Q(1, 3)],
    "prefactor": [Q(1, 2) + Q(1, 3) - Q(1, 5)],
}


@pytest.mark.parametrize("body", sorted(EULER_BODIES))
def test_perturbed_body_fails_the_transformation_cell_only(monkeypatch, body):
    original = hg.hypergeometric_body

    def perturbed(upper, lower, N):
        """The chosen body of the transformation gains z^5."""
        result = original(upper, lower, N)
        if list(upper) != EULER_BODIES[body]:
            return result
        return add(result, series([0] * 5 + [1] + [0] * (N - 5)))

    monkeypatch.setattr(hg, "hypergeometric_body", perturbed)
    report = hg.verify_euler_identity(Q(1, 2), Q(1, 3), Q(1, 5), 20)
    assert [c.cell for c in failures(report)] == [(0, 0)]


def test_paper_regression_kernel_traffic(monkeypatch):
    """paper-regression forms Euler's transformation as one product (one
    pair, one output) and each r = 2 product identity as one output of 2
    pairs with unit scales (skew_operators.product_sum), five fixtures
    each; a passing verify forms no sum."""
    theta = _kernel_outputs(monkeypatch, hg)
    qshift = _kernel_outputs(monkeypatch, qhg)
    shared = _kernel_outputs(monkeypatch, skew_operators)
    with contextlib.redirect_stdout(io.StringIO()):
        assert hgdual.cli.main(["paper-regression"]) == 0
    assert theta == [(1, 1)] * 5
    assert qshift == []
    assert shared == [(2, 1)] * 10
    del theta[:], shared[:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert hgdual.cli.main(["verify", "--hg", "-r", "3", "--seed", "1"]) == 0
        assert hgdual.cli.main(["verify", "--qhg", "--q", "2/3", "-r", "3"]) == 0
    assert theta == qshift == shared == []

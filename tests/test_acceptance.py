"""Acceptance gate: one test per contractual criterion, exact tolerances.

Each test prints a single "[n] ...: pass" line on success (visible under -s;
under -v the test outcome line itself is the per-criterion verdict). Every
comparison is exact rational arithmetic; there are no tolerances to tune.
"""

import random
import time

from hgdual.cli import (
    EULER_FIXTURES,
    HEINE_FIXTURES,
    QSHIFT_R2_FIXTURES,
    QSHIFT_R3_FIXTURES,
    THETA_R2_FIXTURES,
    THETA_R3_FIXTURES,
)
from hgdual.exact_algebra import Polynomial, Q, rat
from hgdual.hypergeometric import (
    HGParams,
    closed_form_m_r2,
    closed_form_m_r3,
    dual_unit,
    duality_matrix,
    hg_operator,
    sample_params as sample_theta_params,
    solution_basis,
    verify_euler_identity,
    verify_theorem1,
)
from hgdual.q_hypergeometric import (
    QHGParams,
    argument_rescale,
    closed_form_mq_r2,
    closed_form_mq_r3,
    corner_entry,
    q_dual_unit,
    q_duality_matrix,
    q_solution_basis,
    qhg_operator,
    sample_params as sample_qshift_params,
    superdiagonal_entry,
    verify_heine_identity,
    verify_theorem2,
)
from hgdual.skew_operators import (
    THETA,
    SkewOperator,
    dual_operator,
    matrix_det,
    psi_matrix,
    q_dual_operator,
)
from oracles import (
    annihilates,
    coefficients,
    failures,
    mul,
    omega_pairing,
    omega_q_pairing,
    rational_reconstruct,
    reduced,
    rescale_operator,
    scale,
    scale_operator,
    series,
    series_invert,
    series_of_ratfunc,
    wronskian_det,
)


def _ok(n, text):
    print("[%d] %s: pass" % (n, text))


def _random_poly(rng, max_deg):
    while True:
        p = Polynomial(
            [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(max_deg + 1)]
        )
        if not p.is_zero:
            return p


def _random_theta_operator(rng, r):
    return SkewOperator(THETA, [_random_poly(rng, 2) for _ in range(r + 1)])


def test_01_theta_duality_suite():
    start = time.time()
    rng = random.Random(101)
    for r in (2, 3, 4, 5):
        for _ in range(5):
            p = sample_theta_params(rng, r)
            report = verify_theorem1(p, 40)
            assert report.passed, (p, [c.cell for c in failures(report)])
    elapsed = time.time() - start
    assert elapsed < 30, "budget exceeded: %.1fs" % elapsed
    _ok(1, "theta duality suite, r in 2..5, 5 samples each, order 40")


def test_02_qshift_duality_suite():
    start = time.time()
    rng = random.Random(202)
    for r in (2, 3, 4, 5):
        for q in (Q(1, 2), Q(2, 3)):
            for _ in range(5):
                p = sample_qshift_params(rng, r, q)
                report = verify_theorem2(p, 40)
                assert report.passed, (p, [c.cell for c in failures(report)])
                m = q_duality_matrix(p)
                for k in range(r):
                    for l in range(r):
                        if l <= k and (k, l) != (r - 1, 0):
                            assert m[k][l].is_zero, (p, k, l)
                assert m[r - 1][0] == corner_entry(p)
                for k in range(r - 1):
                    assert m[k][k + 1] == superdiagonal_entry(p, k)
    elapsed = time.time() - start
    assert elapsed < 60, "budget exceeded: %.1fs" % elapsed
    _ok(2, "qshift duality suite, r in 2..5, q in {1/2, 2/3}, order 40")


def test_03_closed_form_matrix_regression():
    for a, bh in THETA_R2_FIXTURES:
        p = HGParams.make([rat(x) for x in a], [rat(x) for x in bh])
        assert duality_matrix(p) == closed_form_m_r2(p), p
    for a, bh in THETA_R3_FIXTURES:
        p = HGParams.make([rat(x) for x in a], [rat(x) for x in bh])
        assert duality_matrix(p) == closed_form_m_r3(p), p
    for q, a, bh in QSHIFT_R2_FIXTURES:
        p = QHGParams.make(rat(q), [rat(x) for x in a], [rat(x) for x in bh])
        assert q_duality_matrix(p) == closed_form_mq_r2(p), p
    for q, a, bh in QSHIFT_R3_FIXTURES:
        p = QHGParams.make(rat(q), [rat(x) for x in a], [rat(x) for x in bh])
        assert q_duality_matrix(p) == closed_form_mq_r3(p), p
    _ok(3, "closed-form duality matrices, r=2 and r=3, both modes, 5 samples each")


def test_04_pairing_matrix_structure():
    rng = random.Random(404)
    one_minus_z = Polynomial([1, -1])
    for r in (2, 3, 4, 5):
        ops = [_random_theta_operator(rng, r) for _ in range(3)]
        ops.append(hg_operator(sample_theta_params(rng, r)))
        for op in ops:
            mat = psi_matrix(op)
            top = op.coefficient(r)
            for i in range(r):
                for j in range(r):
                    if i + j >= r:
                        assert mat[i][j].is_zero
                    elif i + j == r - 1:
                        expected = top if i % 2 == 0 else -top
                        assert mat[i][j] == expected
            det_expected = top
            for _ in range(r - 1):
                det_expected = det_expected * top
            assert matrix_det(mat) == det_expected
        hg_top = hg_operator(sample_theta_params(rng, r)).coefficient(r)
        assert hg_top == one_minus_z
    _ok(4, "pairing matrix zero pattern, anti-diagonal, and determinant, r in 2..5")


def test_05_pairing_constant_closed_forms():
    rng = random.Random(505)
    N = 24
    for r in (2, 3, 4):
        for _ in range(2):
            p = sample_theta_params(rng, r)
            op = hg_operator(p)
            primal = solution_basis(p, N, "primal")
            dual = solution_basis(p, N, "dual")
            for i in range(r):
                expected = Q(1)
                for j in range(r):
                    if j != i:
                        expected *= p.b[j] - p.b[i]
                out = omega_pairing(op, dual[i], primal[i])
                assert coefficients(out)[0] == expected
                assert all(c == 0 for c in coefficients(out)[1 : N - r + 1])
            pq = sample_qshift_params(rng, r, Q(1, 2))
            opq = qhg_operator(pq)
            primal_q = q_solution_basis(pq, N, "primal")
            dual_q = q_solution_basis(pq, N, "dual")
            for i in range(r):
                expected = 1 / (pq.q * pq.b[i] ** (r - 2))
                for j in range(r):
                    if j != i:
                        expected *= pq.b[i] - pq.b[j]
                out = omega_q_pairing(opq, dual_q[i], primal_q[i])
                assert coefficients(out)[0] == expected
                assert all(c == 0 for c in coefficients(out)[1 : N - r + 1])
    _ok(5, "pairing constants match the product formulas, zero tails, r in 2..4")


def test_06_dual_parameter_maps():
    rng = random.Random(606)
    N = 20
    for r in (2, 3, 4):
        p = sample_theta_params(rng, r)
        star = dual_operator(hg_operator(p))
        assert star == scale_operator(hg_operator(p.dual()), dual_unit(p))
        for g in solution_basis(p, N, "dual"):
            assert annihilates(star, g, r)
        pq = sample_qshift_params(rng, r, Q(2, 3))
        star_q = q_dual_operator(qhg_operator(pq))
        dp, rho = pq.dual(), argument_rescale(pq)
        rescaled = rescale_operator(qhg_operator(dp), rho)
        assert star_q == scale_operator(rescaled, q_dual_unit(pq))
        for g in q_solution_basis(pq, N, "dual"):
            assert annihilates(star_q, g, r)
    _ok(6, "dual parameter maps with unit and rescale, dual-basis annihilation")


def test_07_dual_involution():
    rng = random.Random(707)
    for n in range(50):
        r = 2 + n % 4
        op = _random_theta_operator(rng, r)
        assert dual_operator(dual_operator(op)) == op
    _ok(7, "double dual is the identity on 50 random operators, orders 2..5")


def test_08_product_identities():
    for a1, a2, b1 in EULER_FIXTURES:
        report = verify_euler_identity(rat(a1), rat(a2), rat(b1), 40)
        assert report.passed, (a1, a2, b1)
    for a1, a2, b1, q in HEINE_FIXTURES:
        report = verify_heine_identity(rat(a1), rat(a2), rat(b1), rat(q), 40)
        assert report.passed, (a1, a2, b1, q)
    _ok(8, "series product identities at order 40, 5 samples each mode")


def test_09_kernel_properties():
    rng = random.Random(909)
    for _ in range(100):
        num_deg = rng.randint(0, 3)
        den_deg = rng.randint(0, 3)
        num = _random_poly(rng, num_deg)
        den_coeffs = [Q(rng.randint(1, 9))] + [
            Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(den_deg)
        ]
        f = reduced(num, Polynomial(den_coeffs))
        s = series_of_ratfunc(f, num_deg + den_deg + 2)
        assert rational_reconstruct(s, num_deg, den_deg) == f
    for _ in range(20):
        coeffs = [Q(rng.randint(1, 9))] + [
            Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)
        ]
        a = series(coeffs)
        product = mul(a, series_invert(a))
        assert product == series([1] + [0] * 12)
    p = sample_theta_params(random.Random(17), 3)
    basis = list(solution_basis(p, 12, "primal"))
    assert coefficients(wronskian_det(basis).body)[0] != 0
    pq = sample_qshift_params(random.Random(17), 3, Q(1, 2))
    basis_q = list(q_solution_basis(pq, 12, "primal"))
    assert coefficients(wronskian_det(basis_q).body)[0] != 0
    f = basis[0]
    dependent = wronskian_det([f, scale(f, Q(2))])
    assert all(c == 0 for c in coefficients(dependent.body))
    _ok(9, "kernel round trips, series inversion, Wronskian rank detection")

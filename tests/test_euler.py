"""Closed-form Euler angles, the normal form, and the b-functions.

The oracle here is the bare 2x2 product, built from numpy without going
through the package's evaluator.
"""

import math

import numpy as np
import pytest

from qc_equate import (NormalFormParams, b_derivs_alpha2, b_funcs, euler_e,
                       euler_eprime, nf_from_unitary)
from qc_equate.errors import DomainError, NotUnitary
from qc_equate.euler import GENERIC, Z_ZERO, ZPRIME_ZERO

PI = math.pi
TWO_PI = 2 * PI


def rx_mat(t):
    return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                     [-1j * math.sin(t / 2), math.cos(t / 2)]])


def p_mat(v):
    return np.diag([1.0, np.exp(1j * v)]).astype(complex)


H_MAT = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def lhs_e(a1, a2, a3):
    # circuit order RX(a1), P(a2), RX(a3): matrix product is reversed
    return rx_mat(a3) @ p_mat(a2) @ rx_mat(a1)


def lhs_eprime(a1, a3):
    return rx_mat(a3) @ H_MAT @ rx_mat(a1)


def nf_mat(b):
    b0, b1, b2, b3 = b
    return np.exp(1j * b0) * (p_mat(b3) @ rx_mat(b2) @ p_mat(b1))


def test_euler_e_against_product_oracle():
    rng = np.random.default_rng(10)
    for _ in range(2000):
        a = rng.uniform(-4 * PI, 4 * PI, 3)
        params, case = euler_e(*a)
        assert params.valid(), (a, params)
        assert np.max(np.abs(nf_mat(params) - lhs_e(*a))) < 1e-9, (a, case.tag)


def test_euler_e_special_cases():
    params, case = euler_e(0.0, 1.1, 0.0)
    assert case.tag == ZPRIME_ZERO
    assert np.allclose(list(params), [0.0, 1.1, 0.0, 0.0])

    params, case = euler_e(PI, 0.8, -PI)
    assert case.tag == ZPRIME_ZERO
    assert abs(params.beta0 - 0.8) < 1e-12
    assert abs(params.beta1 - (TWO_PI - 0.8)) < 1e-12
    assert params.beta2 == 0.0 and params.beta3 == 0.0
    # oracle: RX(pi) P(t) RX(-pi) = e^{it} P(-t)
    want = np.exp(0.8j) * p_mat(-0.8)
    assert np.max(np.abs(lhs_e(PI, 0.8, -PI) - want)) < 1e-12

    params, case = euler_e(PI, PI, 0.0)
    assert case.tag == Z_ZERO
    assert np.allclose(list(params), [PI, PI, PI, 0.0])
    assert np.max(np.abs(nf_mat(params) - lhs_e(PI, PI, 0.0))) < 1e-12


def test_case_consistency():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = rng.uniform(-7, 7, 3)
        params, case = euler_e(*a)
        c2, s2 = math.cos(a[1] / 2), math.sin(a[1] / 2)
        z = complex(c2 * math.cos((a[0] + a[2]) / 2), s2 * math.cos((a[0] - a[2]) / 2))
        zp = complex(c2 * math.sin((a[0] + a[2]) / 2), -s2 * math.sin((a[0] - a[2]) / 2))
        assert abs(abs(z) ** 2 + abs(zp) ** 2 - 1.0) < 1e-10
        tag = ZPRIME_ZERO if abs(zp) <= 1e-10 else (Z_ZERO if abs(z) <= 1e-10 else GENERIC)
        assert case.tag == tag


def test_euler_eprime_against_product_oracle():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a1, a3 = rng.uniform(-4 * PI, 4 * PI, 2)
        params, _ = euler_eprime(a1, a3)
        assert params.valid()
        assert np.max(np.abs(nf_mat(params) - lhs_eprime(a1, a3))) < 1e-9


def test_euler_eprime_hadamard_decomposition():
    params, _ = euler_eprime(0.0, 0.0)
    assert np.allclose(list(params), [0.0, PI / 2, PI / 2, PI / 2])
    assert np.max(np.abs(nf_mat(params) - H_MAT)) < 1e-12


def test_clifford_closure_forward():
    # beta' stays on the pi/2 grid whenever alpha' does
    for i in range(8):
        for j in range(8):
            a1, a3 = i * PI / 2, j * PI / 2
            params, _ = euler_eprime(a1, a3)
            for b in (params.beta1, params.beta2, params.beta3):
                r = b % (PI / 2)
                assert min(r, PI / 2 - r) < 1e-9, (a1, a3, b)


def test_nf_from_unitary_round_trip():
    rng = np.random.default_rng(14)
    for _ in range(400):
        b2 = float(rng.uniform(0.05, PI - 0.05))
        params = NormalFormParams(float(rng.uniform(0, TWO_PI)),
                                  float(rng.uniform(0, TWO_PI)), b2,
                                  float(rng.uniform(0, TWO_PI)))
        got = nf_from_unitary(nf_mat(params))
        assert got.close_to(params, 1e-8), (params, got)
    # boundary cases have beta3 pinned to zero
    for b2 in (0.0, PI):
        params = NormalFormParams(1.0, 2.0, b2, 0.0)
        got = nf_from_unitary(nf_mat(params))
        assert got.close_to(params, 1e-8)


def test_nf_from_unitary_examples():
    assert nf_from_unitary(np.eye(2)).close_to(NormalFormParams(0, 0, 0, 0))
    assert nf_from_unitary(H_MAT).close_to(
        NormalFormParams(0, PI / 2, PI / 2, PI / 2))
    phi = 2.2
    assert nf_from_unitary(p_mat(phi)).close_to(NormalFormParams(0, phi, 0, 0))
    for bad in ([[1, 0], [0, 2]], [[1, 0], [0, math.inf]], [[1, 0], [0, math.nan]]):
        with pytest.raises(NotUnitary):
            nf_from_unitary(np.array(bad, dtype=complex))


def test_b_derivs_anchor_values():
    d1, d2, d3 = b_derivs_alpha2(PI / 4, PI / 4, PI / 4)
    assert abs(d1 - (2 + 6 * math.sqrt(2)) / 17) < 1e-10
    assert abs(d3 - (2 + 6 * math.sqrt(2)) / 17) < 1e-10
    assert abs(d2 - (-1 / math.sqrt(5 + 2 * math.sqrt(2)))) < 1e-10


def test_b_derivs_match_finite_differences():
    rng = np.random.default_rng(15)
    hstep = 1e-6
    count = 0
    while count < 50:
        a1, a2, a3 = rng.uniform(0.2, PI - 0.2, 3)
        d = b_derivs_alpha2(a1, a2, a3)
        up = b_funcs(a1, a2 + hstep, a3)
        dn = b_funcs(a1, a2 - hstep, a3)
        for k in range(3):
            fd = (up[k] - dn[k]) / (2 * hstep)
            assert abs(fd - d[k]) < 1e-5, (a1, a2, a3, k)
        count += 1


def test_b_funcs_relate_to_euler_outputs():
    # beta1 = b1 + pi/2 (mod pi), beta2 = b2, beta3 = b3 + pi/2 (mod pi)
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 500:
        a = rng.uniform(0.1, PI - 0.1, 3)
        params, case = euler_e(*a)
        if case.tag != GENERIC:
            continue
        b1, b2, b3 = b_funcs(*a)
        assert abs(params.beta2 - b2) < 1e-9
        for beta, b in ((params.beta1, b1), (params.beta3, b3)):
            r = (beta - (b + PI / 2)) % PI
            assert min(r, PI - r) < 1e-9
        checked += 1


def test_b_funcs_domain_error():
    with pytest.raises(DomainError):
        b_funcs(PI, 0.3, 0.4)
    with pytest.raises(DomainError):
        b_derivs_alpha2(0.3, 2 * PI, 0.4)

"""Closed-form Euler angle computations and the 1-qubit normal form.

The two decomposition rules rewrite

    RX(a1) . P(a2) . RX(a3)   (rule E,  three free angles)
    RX(a1') . H . RX(a3')     (rule E', two free angles)

into the normal-form shape GPHASE(b0) . P(b1) . RX(b2) . P(b3), with the
output angles computed from intermediate complex numbers z, z'.  The same
shape underlies the unique 1-qubit normal form: b0, b1, b3 in [0, 2pi),
b2 in [0, pi], and b3 = 0 whenever b2 is 0 or pi.

The z, z' formulas are written once, for floats and for columns of
angles.  The public ``euler_e``/``euler_eprime`` take floats and return
the parameters with the ``EulerCase`` that fired.  The rule angle maps
call ``_e_angles``/``_eprime_angles``: with floats they return
``euler_e``'s/``euler_eprime``'s parameters, bit for bit; with columns,
one per input angle, the case split, boundary fix and reduction run as
numpy masks (``_from_z_columns``) and agree with the float path to about
an ulp, as numpy's trig, ``arctan2`` and ``hypot`` may differ from
``math``'s and ``cmath``'s in the last bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (ANGLE_EPS, TWO_PI, Circuit, angles_equal, gphase, p,
                      reduce_angle, rx)
from .errors import DomainError, NotUnitary

#: |z| or |z'| below this selects the corresponding degenerate case
CASE_EPS = 1e-10

#: below this value of sin(b2/2) the b2-boundary fix is applied
BOUNDARY_EPS = 1e-8

ZPRIME_ZERO = "ZPRIME_ZERO"
Z_ZERO = "Z_ZERO"
GENERIC = "GENERIC"


@dataclass(frozen=True)
class EulerCase:
    """Which branch of the angle formulas fired, with the z, z' witnesses."""

    tag: str
    z: complex
    z_prime: complex


@dataclass(frozen=True)
class NormalFormParams:
    """The quadruple (b0, b1, b2, b3) of normal-form angles."""

    beta0: float
    beta1: float
    beta2: float
    beta3: float

    def __iter__(self):
        return iter((self.beta0, self.beta1, self.beta2, self.beta3))

    def valid(self, tol: float = ANGLE_EPS) -> bool:
        """Whether these are the angles ``_pack`` emits, to ``tol``: b0, b1,
        b3 in [0, 2pi - tol), b2 in [0, pi], b3 = 0 when b2 is 0 or pi."""
        b0, b1, b2, b3 = self
        if not (-tol <= b0 < TWO_PI - tol and -tol <= b1 < TWO_PI - tol
                and -tol <= b3 < TWO_PI - tol):
            return False
        if not -tol <= b2 <= math.pi + tol:
            return False
        if (abs(b2) <= tol or abs(b2 - math.pi) <= tol) and b3 > tol:
            return False
        return True

    def circuit(self) -> Circuit:
        b0, b1, b2, b3 = self
        return Circuit(1, 1, (gphase(b0), p(b1, 0), rx(b2, 0), p(b3, 0)))

    def matrix(self) -> np.ndarray:
        b0, b1, b2, b3 = self
        c, s = math.cos(b2 / 2.0), math.sin(b2 / 2.0)
        return np.exp(1j * b0) * np.array(
            [[c, -1j * np.exp(1j * b1) * s],
             [-1j * np.exp(1j * b3) * s, np.exp(1j * (b1 + b3)) * c]])

    def close_to(self, other: "NormalFormParams", tol: float = 1e-8) -> bool:
        return (angles_equal(self.beta0, other.beta0, TWO_PI, tol)
                and angles_equal(self.beta1, other.beta1, TWO_PI, tol)
                and abs(self.beta2 - other.beta2) <= tol
                and angles_equal(self.beta3, other.beta3, TWO_PI, tol))


def _boundary_fix(b0: float, b1: float, b2: float, b3: float) -> tuple:
    """Force b3 = 0 next to the b2 boundaries, folding the phase into b1/b0."""
    if math.sin(b2 / 2.0) < BOUNDARY_EPS:           # b2 ~ 0
        b0, b1, b2, b3 = b0, b1 + b3, 0.0, 0.0
    elif math.cos(b2 / 2.0) < BOUNDARY_EPS:         # b2 ~ pi
        b0, b1, b2, b3 = b0 + b3, b1 - b3, math.pi, 0.0
    return b0, b1, b2, b3


def _pack(b0: float, b1: float, b2: float, b3: float) -> NormalFormParams:
    b0, b1, b2, b3 = _boundary_fix(b0, b1, b2, b3)
    return NormalFormParams(reduce_angle(b0), reduce_angle(b1),
                            min(max(b2, 0.0), math.pi), reduce_angle(b3))


def _from_z(z: complex, zp: complex, b0_base: float) -> tuple[NormalFormParams, EulerCase]:
    if abs(zp) <= CASE_EPS:
        b = (b0_base - cmath.phase(z), 2.0 * cmath.phase(z), 0.0, 0.0)
        case = EulerCase(ZPRIME_ZERO, z, zp)
    elif abs(z) <= CASE_EPS:
        b = (b0_base - cmath.phase(zp), 2.0 * cmath.phase(zp), math.pi, 0.0)
        case = EulerCase(Z_ZERO, z, zp)
    else:
        b = (b0_base - cmath.phase(z),
             cmath.phase(z) + cmath.phase(zp),
             2.0 * cmath.phase(1j + abs(z / zp)),
             cmath.phase(z) - cmath.phase(zp))
        case = EulerCase(GENERIC, z, zp)
    return _pack(*b), case


def _finite(*alphas: float):
    if not all(map(math.isfinite, alphas)):
        raise DomainError(f"Euler angles must be finite, got {alphas}")


# The half-angle sums are taken as a/2 + b/2: it equals (a + b)/2 bit for bit
# barring underflow of the halves, and it stays finite where a + b overflows.
# ``_z_e`` and ``_z_eprime`` give z and z' as (real, imaginary) pairs and the
# base of b0: float angles through ``math``, columns of angles through
# ``numpy``.

def _trig(a):
    return (np.cos, np.sin) if isinstance(a, np.ndarray) else (math.cos, math.sin)


def _z_e(a1, a2, a3):
    cos, sin = _trig(a1)
    h1, h2, h3 = a1 / 2.0, a2 / 2.0, a3 / 2.0
    c2, s2 = cos(h2), sin(h2)
    return ((c2 * cos(h1 + h3), s2 * cos(h1 - h3)),
            (c2 * sin(h1 + h3), -s2 * sin(h1 - h3)), h2)


def _z_eprime(a1p, a3p):
    cos, sin = _trig(a1p)
    h1, h3 = a1p / 2.0, a3p / 2.0
    return ((-sin(h1 + h3), cos(h1 - h3)), (cos(h1 + h3), -sin(h1 - h3)), math.pi / 2.0)


def euler_e(a1: float, a2: float, a3: float) -> tuple[NormalFormParams, EulerCase]:
    """Angles for RX(a1).P(a2).RX(a3) = GPHASE(b0).P(b1).RX(b2).P(b3)."""
    _finite(a1, a2, a3)
    z, zp, b0_base = _z_e(a1, a2, a3)
    return _from_z(complex(*z), complex(*zp), b0_base)


def euler_eprime(a1p: float, a3p: float) -> tuple[NormalFormParams, EulerCase]:
    """Angles for RX(a1').H.RX(a3') = GPHASE(b0').P(b1').RX(b2').P(b3')."""
    _finite(a1p, a3p)
    z, zp, b0_base = _z_eprime(a1p, a3p)
    return _from_z(complex(*z), complex(*zp), b0_base)


def _e_angles(a1, a2, a3) -> tuple:
    """(b0, b1, b2, b3) of ``euler_e``, or with columns of k angles each,
    four columns of k: the same case split, boundary fix and reduction,
    as masks, to about an ulp of the float path."""
    if not isinstance(a1, np.ndarray):
        return tuple(euler_e(a1, a2, a3)[0])
    return _from_z_columns(*_z_e(a1, a2, a3))


def _eprime_angles(a1p, a3p) -> tuple:
    """(b0', b1', b2', b3') of ``euler_eprime``, floats or columns, as
    ``_e_angles``."""
    if not isinstance(a1p, np.ndarray):
        return tuple(euler_eprime(a1p, a3p)[0])
    return _from_z_columns(*_z_eprime(a1p, a3p))


def _from_z_columns(z, zp, b0_base) -> tuple:
    """``_from_z`` and ``_pack`` over columns: each case and boundary is a
    mask, and a phase is ``arctan2`` of the (real, imaginary) pair."""
    (zr, zi), (pr, pi_) = z, zp
    ph, ph_p = np.arctan2(zi, zr), np.arctan2(pi_, pr)
    abs_z, abs_p = np.hypot(zr, zi), np.hypot(pr, pi_)
    zp_zero = abs_p <= CASE_EPS
    z_zero = ~zp_zero & (abs_z <= CASE_EPS)
    generic = ~(zp_zero | z_zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        b2 = np.where(zp_zero, 0.0, np.where(z_zero, math.pi,
                                             2.0 * np.arctan2(1.0, abs_z / abs_p)))
    b0 = b0_base - np.where(z_zero, ph_p, ph)
    b1 = np.where(generic, ph + ph_p, 2.0 * np.where(z_zero, ph_p, ph))
    b3 = np.where(generic, ph - ph_p, 0.0)
    # the boundary fix (``_boundary_fix``)
    near_0 = np.sin(b2 / 2.0) < BOUNDARY_EPS
    near_pi = ~near_0 & (np.cos(b2 / 2.0) < BOUNDARY_EPS)
    b0 = np.where(near_pi, b0 + b3, b0)
    b1 = np.where(near_0, b1 + b3, np.where(near_pi, b1 - b3, b1))
    b2 = np.where(near_0, 0.0, np.where(near_pi, math.pi, b2))
    b3 = np.where(near_0 | near_pi, 0.0, b3)
    return (_reduce_columns(b0), _reduce_columns(b1), np.clip(b2, 0.0, math.pi),
            _reduce_columns(b3))


def _reduce_columns(v: np.ndarray) -> np.ndarray:
    """``reduce_angle`` of each entry."""
    r = v % TWO_PI
    return np.where(r >= TWO_PI - ANGLE_EPS, 0.0, r)


def nf_from_unitary(u: np.ndarray) -> NormalFormParams:
    """The unique normal-form parameters of a 2x2 unitary."""
    try:
        u = np.asarray(u, dtype=complex)
    except (ValueError, TypeError):
        raise NotUnitary("input is not a matrix of complex numbers") from None
    if u.shape != (2, 2):
        raise NotUnitary(f"expected a 2x2 matrix, got {u.shape}")
    if not np.isfinite(u).all() or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-9:
        raise NotUnitary("matrix is not unitary within 1e-9")
    cos_half = abs(u[0, 0])               # cos(b2/2) for a unitary
    sin_half = abs(u[1, 0])               # sin(b2/2); well conditioned at both ends
    if sin_half < BOUNDARY_EPS:           # |u00| ~ 1
        b0 = cmath.phase(u[0, 0])
        b1 = cmath.phase(u[1, 1]) - b0
        b2, b3 = 0.0, 0.0
    elif cos_half < BOUNDARY_EPS:         # |u00| ~ 0
        b0 = cmath.phase(u[1, 0]) + math.pi / 2.0
        b1 = cmath.phase(u[0, 1]) - cmath.phase(u[1, 0])
        b2, b3 = math.pi, 0.0
    else:
        b2 = 2.0 * math.atan2(sin_half, cos_half)
        b0 = cmath.phase(u[0, 0])
        b1 = cmath.phase(u[0, 1] * 1j / u[0, 0])
        b3 = cmath.phase(u[1, 0] * 1j / u[0, 0])
    return _pack(b0, b1, b2, b3)


# -- the b-functions and their alpha2 partial derivatives --------------------

def _check_domain(*alphas: float):
    for a in alphas:
        if angles_equal(a, 0.0, math.pi):
            raise DomainError(f"angle {a} is a multiple of pi")


def b_funcs(a1: float, a2: float, a3: float) -> tuple[float, float, float]:
    """Smooth branches of the generic-case output angles (modulo pi shifts)."""
    _check_domain(a1, a2, a3)
    cot2 = math.cos(a2) / math.sin(a2)
    b1 = -math.atan(math.cos(a1) * cot2
                    + math.sin(a1) * (math.cos(a3) / math.sin(a3)) / math.sin(a2))
    b2 = math.acos(min(max(
        math.cos(a1) * math.cos(a3) - math.sin(a1) * math.cos(a2) * math.sin(a3),
        -1.0), 1.0))
    b3 = -math.atan(math.cos(a3) * cot2
                    + math.sin(a3) * (math.cos(a1) / math.sin(a1)) / math.sin(a2))
    return b1, b2, b3


def b_derivs_alpha2(a1: float, a2: float, a3: float) -> tuple[float, float, float]:
    """Partial derivatives of b1, b2, b3 with respect to a2."""
    _check_domain(a1, a2, a3)
    cot1 = math.cos(a1) / math.sin(a1)
    cot3 = math.cos(a3) / math.sin(a3)
    s2 = math.sin(a2)
    d1 = ((math.cos(a1) + math.sin(a1) * math.cos(a2) * cot3)
          / (s2 ** 2 + (math.cos(a1) * math.cos(a2) + math.sin(a1) * cot3) ** 2))
    inner = math.cos(a1) * math.cos(a3) - math.sin(a1) * math.cos(a2) * math.sin(a3)
    d2 = -(math.sin(a1) * s2 * math.sin(a3)) / math.sqrt(1.0 - inner ** 2)
    d3 = ((math.cos(a3) + math.sin(a3) * math.cos(a2) * cot1)
          / (s2 ** 2 + (math.cos(a3) * math.cos(a2) + math.sin(a3) * cot1) ** 2))
    return d1, d2, d3

"""Collision kernel coefficients for the periodized Landau operator.

On the box [-L, L]^3 the bilinear collision operator acts diagonally on
Fourier modes: pairing exp(i pi l.v/L) with exp(i pi m.v/L) produces
beta(l, m) exp(i pi (l+m).v/L), so the whole operator is determined by
the numbers beta(l, m).

For the Coulomb interaction (gamma = -3) the coefficient has the closed
form (x = |l| pi, sinc x = sin x / x)

    beta(l, m) = (4 pi / |l|^4) [ |l x m|^2 (cos x - sinc x)
                 + 2 (|l|^4 - (l.m)^2)(1 - sinc x) ],        l != 0,
    beta(0, m) = -(4 pi^3 / 3) |m|^2,

which is quadratic in m.  Collecting the m-dependence gives the
separable table form used by the fast collision path:

    beta(l, m) = A(l) + B(l)|m|^2 + sum_ij C_ij(l) m_i m_j,

    A(l)    =  8 pi (1 - sinc x),
    B(l)    =  4 pi (cos x - sinc x) / |l|^2,
    C_ij(l) = -4 pi (cos x + 2 - 3 sinc x) l_i l_j / |l|^4.

For general gamma in [-4, 1] the same structure holds with radial
integrals replacing the trigonometric profiles (c = (L/pi)^(gamma+3),
x = |l| pi):

    F1(x) = 2 int_0^x u^(gamma+4) I1(u) du,
    F2(x) =   int_0^x u^(gamma+4) (I1(u) + 2 I2(u)) du,
    I1(u) = 4 (sin u - u cos u) / u^3,      I1(0) = 4/3,
    I2(u) = 2 ((u^2-2) sin u + 2u cos u) / u^3,  I2(0) = 2/3,

    A(l)    =  pi c F1(x) / |l|^(gamma+3),
    B(l)    = -pi c F2(x) / |l|^(gamma+5),
    C_ij(l) =  pi c (F2(x) - F1(x)) l_i l_j / |l|^(gamma+7),
    B(0)    = -c (8 pi / 3) pi^(gamma+5) / (gamma + 5),  A(0) = C(0) = 0,

and beta(l, m) = pi c [ a1b1 F1(x) + a2b2 F2(x) ] / |l|^(gamma+5) with
a1b1 = (|l|^4 - (l.m)^2)/|l|^2 and a2b2 = -|l x m|^2/|l|^2.  At
gamma = -3 these reduce exactly to the closed form above.

Every table is thus a radial profile A, B or Cs (C_ij = Cs l_i l_j) of
|l|: the tables evaluate the profiles once per distinct |l|^2 and store
A, B and Cs.  At gamma = 0 (Maxwellian molecules) the integrals are
elementary; x >= pi on every nonzero mode, so no small-x branch is needed:

    F1(x) = 8 (3 sin x - 3x cos x - x^2 sin x),
    F2(x) = 4 (-x^3 cos x + 4x^2 sin x + 9x cos x - 9 sin x).

For any other gamma the integrals are cumulative: with the distinct radii
sorted, 0 = x_0 < x_1 < x_2 < ..., each panel [x_(i-1), x_i] is integrated
once by adaptive quadrature and the running sums give F1 and F2 at every
x_i.  ``beta_quadrature`` still integrates [0, x] from scratch and serves
as the independent check on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import GridSpec, _mode_ints

_4PI = 4.0 * np.pi
_B0_COULOMB = -4.0 * np.pi**3 / 3.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class BetaParams:
    """Kernel exponent and box half-width for quadrature-based coefficients."""

    gamma: float = -3.0
    L: float = 1.0

    def __post_init__(self):
        if not -4.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-4, 1], got {self.gamma}")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")


@dataclass
class KernelTables:
    """Separable kernel tables over the mode set, FFT order, shape (P, P, P).

    beta(l, m) = A(l) + B(l)|m|^2 + Cs(l) (l.m)^2, the tensor part
    sum_ij C_ij(l) m_i m_j with C_ij = Cs l_i l_j.
    """

    gamma: float
    L: float
    P: int
    A: np.ndarray
    B: np.ndarray
    Cs: np.ndarray


def _as_int_vec(a, name):
    arr = np.asarray(a)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must have a trailing dimension of 3, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.round(arr)):
            raise ValueError(f"{name} must be an integer mode vector")
    return arr.astype(np.int64)


def beta_coulomb(l, m):
    """Closed-form Coulomb (gamma = -3) kernel coefficient beta(l, m).

    Accepts integer 3-vectors or arrays of them ((..., 3)); broadcasts.
    The quadratic invariants |l x m|^2, (l.m)^2, |l|^4 are evaluated in
    integer arithmetic, so identities like beta(l, -l) = 0 and the
    parity beta(-l, -m) = beta(l, m) hold exactly.  |l| enters the
    trigonometric part as a true Euclidean norm (generally irrational),
    so sin(|l| pi) does not vanish off the axes.
    """
    lv = _as_int_vec(l, "l")
    mv = _as_int_vec(m, "m")
    lv, mv = np.broadcast_arrays(lv, mv)
    ll = np.sum(lv * lv, axis=-1)
    mm = np.sum(mv * mv, axis=-1)
    lm = np.sum(lv * mv, axis=-1)
    cx = np.cross(lv, mv)
    cr2 = np.sum(cx * cx, axis=-1)
    d = ll * ll - lm * lm  # |l|^4 - (l.m)^2, exact

    ll_f = ll.astype(np.float64)
    zero = ll == 0
    x = np.pi * np.sqrt(np.where(zero, 1.0, ll_f))
    s = np.sin(x) / x
    c = np.cos(x)
    num = cr2 * (c - s) + 2.0 * d * (1.0 - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _4PI * num / (ll_f * ll_f)
    out = np.where(zero, _B0_COULOMB * mm, out)
    if out.ndim == 0:
        return float(out)
    return out


def _i1(u):
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 0.25
    us = np.where(small, 1.0, u)
    u2 = u * u
    series = (4.0 / 3.0 - 2.0 * u2 / 15.0 + u2 * u2 / 210.0
              - u2 * u2 * u2 / 11340.0 + u2 * u2 * u2 * u2 / 997920.0)
    return np.where(small, series, 4.0 * (np.sin(us) - us * np.cos(us)) / us**3)


def _i2(u):
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < 0.25
    us = np.where(small, 1.0, u)
    u2 = u * u
    series = (2.0 / 3.0 - u2 / 5.0 + u2 * u2 / 84.0
              - u2 * u2 * u2 / 3240.0 + u2 * u2 * u2 * u2 / 221760.0)
    direct = 2.0 * ((us * us - 2.0) * np.sin(us) + 2.0 * us * np.cos(us)) / us**3
    return np.where(small, series, direct)


def _quad_or_raise(f, x, tol, limit, lo=0.0):
    # tol acts as both absolute and relative target: the integrals range over
    # many orders of magnitude (|l| from 1 to P*sqrt(3)/2) and a purely
    # absolute tolerance trips QUADPACK's roundoff detector on the large ones.
    # Imported here: gamma = -3 and 0 never integrate, and importing
    # scipy.integrate costs a process about 0.2 s and 25 MB (2-core x86-64).
    from scipy.integrate import quad

    res = quad(f, lo, x, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
    if len(res) > 3:
        raise QuadratureError(
            f"radial kernel integral on [{lo:g}, {x:g}] did not converge "
            f"(estimate {res[0]:.6e}, error {res[1]:.2e}): {res[3]}"
        )
    return res[0]


@lru_cache(maxsize=65536)
def _radial_F(gamma: float, x: float, tol: float, limit: int):
    """(F1, F2) integrated from zero; cached since beta_quadrature revisits |l|."""
    p = gamma + 4.0
    F1 = 2.0 * _quad_or_raise(lambda u: u**p * _i1(u), x, tol, limit)
    F2 = _quad_or_raise(lambda u: u**p * (_i1(u) + 2.0 * _i2(u)), x, tol, limit)
    return F1, F2


def _b_zero_mode(gamma: float, L: float) -> float:
    """B(0) for general gamma: -(L/pi)^(gamma+3) (8 pi/3) pi^(gamma+5)/(gamma+5)."""
    c = (L / np.pi) ** (gamma + 3.0)
    return -c * (8.0 * np.pi / 3.0) * np.pi ** (gamma + 5.0) / (gamma + 5.0)


def beta_quadrature(l, m, params: BetaParams, tol: float = 1e-10, limit: int = 200):
    """Kernel coefficient for general gamma via adaptive radial quadrature.

    Independent of ``beta_coulomb`` except for sharing the definition: the
    m-dependence factors out exactly and only two 1-D oscillatory
    integrals remain, handled by Gauss-Kronrod refinement with absolute
    tolerance ``tol`` and a subdivision cap ``limit`` (non-convergence
    raises ``QuadratureError``).
    """
    lv = _as_int_vec(l, "l")
    mv = _as_int_vec(m, "m")
    if lv.ndim != 1 or mv.ndim != 1:
        raise ValueError("beta_quadrature evaluates one (l, m) pair at a time")
    gamma, L = params.gamma, params.L
    ll = int(np.sum(lv * lv))
    mm = int(np.sum(mv * mv))
    if ll == 0:
        return _b_zero_mode(gamma, L) * mm
    lm = int(np.sum(lv * mv))
    cx = np.cross(lv, mv)
    cr2 = int(np.sum(cx * cx))
    a1b1_num = ll * ll - lm * lm
    if a1b1_num == 0 and cr2 == 0:
        return 0.0  # m is parallel to l with |m| = |l|; both couplings vanish
    x = np.pi * np.sqrt(float(ll))
    F1, F2 = _radial_F(gamma, x, tol, limit)
    c = (L / np.pi) ** (gamma + 3.0)
    a1b1 = a1b1_num / ll
    a2b2 = -cr2 / ll
    return np.pi * c * (a1b1 * F1 + a2b2 * F2) / float(ll) ** ((gamma + 5.0) / 2.0)


def _profiles_from_integrals(ll, F1, F2, gamma: float, L: float):
    """(A, B, Cs) at squared radii ll > 0 (floats) from the integrals F1, F2."""
    c = (L / np.pi) ** (gamma + 3.0)
    return (np.pi * c * F1 / ll ** ((gamma + 3.0) / 2.0),
            -np.pi * c * F2 / ll ** ((gamma + 5.0) / 2.0),
            np.pi * c * (F2 - F1) / ll ** ((gamma + 7.0) / 2.0))


def _cumulative_integrals(x, gamma: float, tol: float, limit: int):
    """(F1, F2) at ascending radii x: each panel [x_(i-1), x_i] once, summed."""
    p = gamma + 4.0
    f1 = lambda u: u**p * _i1(u)
    f2 = lambda u: u**p * (_i1(u) + 2.0 * _i2(u))
    edges = np.concatenate(([0.0], x))
    panels = np.array([[_quad_or_raise(f, b, tol, limit, lo=a) for f in (f1, f2)]
                       for a, b in zip(edges[:-1], edges[1:])]).reshape(-1, 2)
    F = np.cumsum(panels, axis=0)
    return 2.0 * F[:, 0], F[:, 1]


def radial_profiles(ll, gamma: float, L: float, tol: float = 1e-10, limit: int = 200):
    """Radial profiles (A, B, Cs) of the tables at distinct squared radii.

    ``ll`` holds distinct integers |l|^2 >= 0 in ascending order (as
    ``np.unique`` returns them); the result has shape (3, len(ll)) and
    C_ij = Cs l_i l_j.  The zero mode gets A = Cs = 0 and B = B(0).
    Coulomb uses the closed form, gamma = 0 the elementary
    antiderivatives, and any other gamma the cumulative quadrature with
    tolerance ``tol`` and subdivision cap ``limit`` per panel.  Every
    nonzero mode has x = pi |l| >= pi, so no small-x branch is needed.
    """
    ll = np.asarray(ll, dtype=np.int64)
    pos = ll > 0
    q = ll[pos].astype(np.float64)
    x = np.pi * np.sqrt(q)
    if gamma == -3.0:
        s, c = np.sin(x), np.cos(x)
        profiles = (8.0 * np.pi * (1.0 - s / x),
                    _4PI * (c - s / x) / q,
                    -_4PI * (c + 2.0 - 3.0 * s / x) / (q * q))
        B0 = _B0_COULOMB
    else:
        if gamma == 0.0:
            s, c = np.sin(x), np.cos(x)
            F1 = 8.0 * (3.0 * s - 3.0 * x * c - x * x * s)
            F2 = 4.0 * (-x**3 * c + 4.0 * x * x * s + 9.0 * x * c - 9.0 * s)
        else:
            F1, F2 = _cumulative_integrals(x, gamma, tol, limit)
        profiles = _profiles_from_integrals(q, F1, F2, gamma, L)
        B0 = _b_zero_mode(gamma, L)
    out = np.zeros((3, ll.size))
    out[1] = B0
    out[:, pos] = profiles
    return out


def build_kernel_tables(grid: GridSpec, tol: float = 1e-10, limit: int = 200) -> KernelTables:
    """Tabulate the profiles A, B, Cs over the grid's mode set.

    The radial profiles are evaluated once per distinct |l|^2 (1057 values
    at P = 48, against 110592 modes) by ``radial_profiles`` and scattered back
    onto the grid; ``tol`` and ``limit`` reach only the cumulative
    quadrature used when gamma is neither -3 nor 0.  The collision forms
    each C_ij = Cs l_i l_j from Cs where it needs it.
    """
    k = _mode_ints(grid.P)
    ll = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
    uniq, inv = np.unique(ll, return_inverse=True)
    A, B, Cs = (p[inv].reshape(ll.shape)
                for p in radial_profiles(uniq, grid.gamma, grid.L, tol, limit))
    return KernelTables(gamma=grid.gamma, L=grid.L, P=grid.P, A=A, B=B, Cs=Cs)


def beta_from_tables(tables: KernelTables):
    """A beta(l, m) callable backed by table reconstruction (m may be an array)."""
    P = tables.P

    def beta(l, m):
        lv = _as_int_vec(l, "l")
        if lv.ndim != 1:
            raise ValueError("l must be a single mode vector")
        if np.any(lv < -P // 2) or np.any(lv > P // 2 - 1):
            raise ValueError(f"mode {lv} outside the table range for P={P}")
        idx = tuple(int(q) % P for q in lv)
        mv = _as_int_vec(m, "m").astype(np.float64)
        mm = np.sum(mv * mv, axis=-1)
        lm = mv @ lv.astype(np.float64)
        val = tables.A[idx] + tables.B[idx] * mm + tables.Cs[idx] * lm * lm
        if val.ndim == 0:
            return float(val)
        return val

    return beta


"""Structure-preservation diagnostics: moments, entropies, Fisher information.

All integrals use the rectangle rule on the collocation grid, which is
spectrally accurate for smooth periodic integrands.  Pointwise-nonlinear
functionals (entropy, Fisher) mask cells with f <= eps_pos; negative
cells are reported separately through ``negative_mass`` and ``min_f``
rather than being silently clipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _half_to_values,
    _mode_ints,
    to_physical,
    velocity_axis,
)

EPS_POS = 1e-30


class DegenerateStateError(ValueError):
    """State has no Maxwellian with matching moments (rho <= 0 or T <= 0)."""


@dataclass
class MomentSet:
    """Low-order velocity moments of a state."""

    rho: float
    momentum: np.ndarray  # (3,), int v f dv
    energy: float  # int |v|^2 f dv
    u: np.ndarray  # bulk velocity momentum / rho
    T: float  # int |v-u|^2 f dv / (3 rho)
    m4: float  # int |v|^4 f dv


@lru_cache(maxsize=16)
def _r2_grid(grid: GridSpec, n: int) -> np.ndarray:
    v = velocity_axis(grid, n)
    return v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2


def _v_stack(grid: GridSpec, n: int) -> np.ndarray:
    v = velocity_axis(grid, n)
    out = np.empty((n, n, n, 3))
    out[..., 0] = v[:, None, None]
    out[..., 1] = v[None, :, None]
    out[..., 2] = v[None, None, :]
    return out


def moments(f: PhysicalField) -> MomentSet:
    """Rectangle-rule mass, momentum, energy, bulk velocity, temperature, m4."""
    grid, n = f.grid, f.n
    w = (2.0 * grid.L / n) ** 3
    v = velocity_axis(grid, n)
    rho = float(np.sum(f.data)) * w
    mom = np.array(
        [
            np.dot(f.data.sum(axis=(1, 2)), v),
            np.dot(f.data.sum(axis=(0, 2)), v),
            np.dot(f.data.sum(axis=(0, 1)), v),
        ]
    ) * w
    r2 = _r2_grid(grid, n)
    energy = float(np.sum(f.data * r2)) * w
    m4 = float(np.sum(f.data * r2 * r2)) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        u = mom / rho
        T = (energy - rho * float(u @ u)) / (3.0 * rho)
    return MomentSet(rho=rho, momentum=mom, energy=energy, u=u, T=float(T), m4=m4)


def maxwellian_of(ms: MomentSet, grid: GridSpec, n: int | None = None) -> PhysicalField:
    """The Maxwellian with the same (rho, u, T), sampled on the n^3 grid."""
    if n is None:
        n = grid.P
    if not np.isfinite(ms.rho) or ms.rho <= 0.0:
        raise DegenerateStateError(f"no Maxwellian for rho = {ms.rho}")
    if not np.isfinite(ms.T) or ms.T <= 0.0:
        raise DegenerateStateError(f"no Maxwellian for T = {ms.T}")
    v = velocity_axis(grid, n)
    d = [(v - u) ** 2 for u in ms.u]  # per axis: no (n, n, n, 3) stack on each sample
    dv2 = d[0][:, None, None] + d[1][None, :, None] + d[2][None, None, :]
    vals = ms.rho * (2.0 * np.pi * ms.T) ** -1.5 * np.exp(-dv2 / (2.0 * ms.T))
    return PhysicalField(vals, grid)


def entropy(f: PhysicalField, eps: float = EPS_POS) -> float:
    """int f log f over cells with f > eps (nonpositive cells contribute 0)."""
    w = (2.0 * f.grid.L / f.n) ** 3
    d = f.data
    mask = d > eps
    return float(np.sum(d[mask] * np.log(d[mask]))) * w


def relative_entropy(f: PhysicalField, mu: PhysicalField, eps: float = EPS_POS) -> float:
    """int (f log(f/mu) - f + mu) with the same positivity masking as entropy.

    The integrand is pointwise nonnegative wherever f > 0, so the result
    is nonnegative up to rounding.
    """
    if f.data.shape != mu.data.shape:
        raise ValueError("f and mu must live on the same grid")
    w = (2.0 * f.grid.L / f.n) ** 3
    d, m = f.data, mu.data
    mask = (d > eps) & (m > 0.0)
    dm = d[mask]
    mm = m[mask]
    # log(dm) - log(mm) rather than log(dm/mm): the ratio can overflow when
    # mu underflows in far cells that still carry positive ringing in f
    return float(np.sum(dm * (np.log(dm) - np.log(mm)) - dm + mm)) * w


def fisher(fhat: SpectralField, eps: float = EPS_POS) -> float:
    """Fisher information int |grad f|^2 / f via spectral derivatives."""
    return _fisher(fhat, to_physical(fhat).data, eps)


def _fisher(fhat: SpectralField, f: np.ndarray, eps: float = EPS_POS) -> float:
    """``fisher`` given the point values f of fhat on the P^3 grid; the
    derivatives of the (already checked) real field are transformed from
    their k3 >= 0 halves."""
    grid = fhat.grid
    P = grid.P
    N = grid.N
    k = _mode_ints(P).astype(np.float64)
    half = fhat.data[:, :, :N]
    g2 = np.zeros_like(f)
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = P
        kk = k.reshape(shape)[:, :, :N]
        g2 += _half_to_values(1j * np.pi / grid.L * kk * half, grid, P) ** 2
    w = (2.0 * grid.L / P) ** 3
    mask = f > eps
    return float(np.sum(g2[mask] / f[mask])) * w


def l2_distance(f: PhysicalField, g: PhysicalField) -> float:
    w = (2.0 * f.grid.L / f.n) ** 3
    return float(np.sqrt(np.sum((f.data - g.data) ** 2) * w))


def error_norms(f_num: PhysicalField, exact, t: float):
    """(e1, e2): plain sums over grid points of |f_num - f_exact|.

        e1 = sum_i |e_i|,   e2 = (sum_i e_i^2)^(1/2),

    unnormalized by design, so values are comparable across time but not
    across resolutions.  ``exact`` is a callable exact(t, V) with V of
    shape (..., 3).
    """
    V = _v_stack(f_num.grid, f_num.n)
    e = np.abs(f_num.data - np.asarray(exact(t, V), dtype=np.float64))
    return float(np.sum(e)), float(np.sqrt(np.sum(e * e)))


@dataclass
class DiagnosticsRecord:
    """One sampled row of run diagnostics (see CSV_COLUMNS for the layout)."""

    t: float
    mass: float
    momentum: np.ndarray
    energy: float
    m4: float
    entropy: float
    rel_entropy: float
    fisher: float
    l2_to_maxwellian: float
    min_f: float
    negative_mass: float
    e1: float | None = None
    e2: float | None = None


CSV_COLUMNS = [
    "t", "mass", "mom_x", "mom_y", "mom_z", "energy", "m4", "entropy",
    "rel_entropy", "fisher", "l2_to_maxwellian", "min_f", "negative_mass",
    "e1", "e2",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def record_row(rec: DiagnosticsRecord) -> list[str]:
    return [
        _fmt(rec.t), _fmt(rec.mass),
        _fmt(rec.momentum[0]), _fmt(rec.momentum[1]), _fmt(rec.momentum[2]),
        _fmt(rec.energy), _fmt(rec.m4), _fmt(rec.entropy), _fmt(rec.rel_entropy),
        _fmt(rec.fisher), _fmt(rec.l2_to_maxwellian), _fmt(rec.min_f),
        _fmt(rec.negative_mass), _fmt(rec.e1), _fmt(rec.e2),
    ]


def write_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_COLUMNS)
        for rec in records:
            wr.writerow(record_row(rec))


def sample_state(t: float, fhat: SpectralField, exact=None) -> DiagnosticsRecord:
    """Compute the full diagnostics row for a spectral state."""
    grid = fhat.grid
    f = to_physical(fhat)
    ms = moments(f)
    mu = maxwellian_of(ms, grid)
    w = (2.0 * grid.L / f.n) ** 3
    neg = f.data[f.data < 0.0]
    e1 = e2 = None
    if exact is not None:
        e1, e2 = error_norms(f, exact, t)
    return DiagnosticsRecord(
        t=t,
        mass=ms.rho,
        momentum=ms.momentum,
        energy=ms.energy,
        m4=ms.m4,
        entropy=entropy(f),
        rel_entropy=relative_entropy(f, mu),
        fisher=_fisher(fhat, f.data),
        l2_to_maxwellian=l2_distance(f, mu),
        min_f=float(f.data.min()),
        negative_mass=float(-np.sum(neg)) * w,
        e1=e1,
        e2=e2,
    )

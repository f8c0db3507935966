"""Structure-preservation diagnostics: moments, entropies, Fisher information.

All integrals use the rectangle rule on the collocation grid, which is
spectrally accurate for smooth periodic integrands.  Pointwise-nonlinear
functionals (entropy, Fisher) mask cells with f <= eps_pos; negative
cells are reported separately through ``negative_mass`` and ``min_f``
rather than being silently clipped.  Point values and gradients are the
spectral pairs' Fourier sums at the grid points over the box volume
(2L)^3, with no other scale or sign.

A state even in each velocity axis is sampled on its octant: the samples
j = 0..N per axis (v from -L to 0) hold every value of the P-point grid,
since v_{P-j} = -v_j.  Each rectangle-rule sum then weights a sample by
its mirror images on the grid, per axis 1 at j = 0 and j = N and 2
otherwise.  Momentum keeps only the unpaired v = -L face.  The matched
Maxwellian need not be even (that face makes u nonzero), so it enters
through its per-axis factors folded over each sample's images.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _mode_ints,
    _modes_to_values,
    _octant_to_values,
    _state_grid,
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


def _moment_set(rho: float, momentum: np.ndarray, energy: float, m4: float) -> MomentSet:
    with np.errstate(divide="ignore", invalid="ignore"):
        u = momentum / rho
        T = (energy - rho * float(u @ u)) / (3.0 * rho)
    return MomentSet(rho=rho, momentum=momentum, energy=energy, u=u, T=float(T), m4=m4)


def _r2(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the grid with axis coordinates v."""
    return v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2


def _v_stack(v: np.ndarray) -> np.ndarray:
    """The (n, n, n, 3) velocities of the grid with axis coordinates v."""
    n = len(v)
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
    r2 = _r2(v)
    energy = float(np.sum(f.data * r2)) * w
    m4 = float(np.sum(f.data * r2 * r2)) * w
    return _moment_set(rho, mom, energy, m4)


def _maxwellian_scale(ms: MomentSet) -> float:
    """rho (2 pi T)^(-3/2), the Maxwellian's peak; raises when there is none."""
    if not np.isfinite(ms.rho) or ms.rho <= 0.0:
        raise DegenerateStateError(f"no Maxwellian for rho = {ms.rho}")
    if not np.isfinite(ms.T) or ms.T <= 0.0:
        raise DegenerateStateError(f"no Maxwellian for T = {ms.T}")
    return ms.rho * (2.0 * np.pi * ms.T) ** -1.5


def maxwellian_of(ms: MomentSet, grid: GridSpec, n: int | None = None) -> PhysicalField:
    """The Maxwellian with the same (rho, u, T), sampled on the n^3 grid."""
    if n is None:
        n = grid.P
    scale = _maxwellian_scale(ms)
    v = velocity_axis(grid, n)
    d = [(v - u) ** 2 for u in ms.u]  # per axis: no (n, n, n, 3) stack on each sample
    dv2 = d[0][:, None, None] + d[1][None, :, None] + d[2][None, None, :]
    vals = scale * np.exp(-dv2 / (2.0 * ms.T))
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
    inv_vol = (2.0 * grid.L) ** -3
    g2 = np.zeros_like(f)
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = P
        kk = k.reshape(shape)[:, :, :N]
        g2 += (_modes_to_values(1j * np.pi / grid.L * kk * half, P) * inv_vol) ** 2
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
    V = _v_stack(velocity_axis(f_num.grid, f_num.n))
    e = np.abs(f_num.data - np.asarray(exact(t, V), dtype=np.float64))
    return float(np.sum(e)), float(np.sqrt(np.sum(e * e)))


def _check_even_exact(exact, grid: GridSpec) -> None:
    """Raise ValueError unless exact(0, .) on the P^3 grid equals its octant
    samples j = 0..N mirrored, within 1e-12 of its largest value: an
    axis-even state's sample reads ``exact`` on the octant only."""
    j = np.arange(grid.P)
    mirror = np.minimum(j, grid.P - j)
    E = np.asarray(exact(0.0, _v_stack(velocity_axis(grid, grid.P))), dtype=np.float64)
    defect = np.max(np.abs(E - E[np.ix_(mirror, mirror, mirror)]))
    if not defect <= 1e-12 * np.max(np.abs(E)):
        raise ValueError(
            f"the exact solution is not even in each velocity axis at t = 0 "
            f"(mirror defect {defect:.3e} against its largest value "
            f"{np.max(np.abs(E)):.3e}), but the axis-even state is sampled on "
            f"its octant; give an exact solution with the state's symmetry"
        )


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


def sample_state(t: float, fhat, exact=None, *, grid: GridSpec | None = None) -> DiagnosticsRecord:
    """Compute the full diagnostics row for a spectral state.

    ``fhat`` is a SpectralField, whose values on the P^3 grid are checked
    for reality by ``to_physical``, or the real float64 (N, N, N) octant of
    an axis-even state, as ``run`` marches it, with its ``grid``.  A
    ``grid`` given with a SpectralField must be the field's own
    (``spectral._state_grid``).  An octant is sampled on its (N + 1)^3
    mirror samples with mirror weights (see the module docstring),
    ``exact`` included; the caller makes sure that ``exact`` is even in
    each axis (``_check_even_exact``).
    """
    grid = _state_grid(fhat, grid)
    if isinstance(fhat, np.ndarray):
        return _sample_octant(t, fhat, grid, exact)
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


def _outer(a, b, c) -> np.ndarray:
    return a[:, None, None] * b[None, :, None] * c[None, None, :]


def _sample_octant(t: float, x: np.ndarray, grid: GridSpec, exact) -> DiagnosticsRecord:
    """``sample_state`` of the axis-even state with real octant x: the values
    at j = 0..N per axis are (2L)^-3 times the cosine matrices' Fourier sum
    of x, each gradient the sine matrix's along its own axis
    (``spectral._octant_matrices``), and every sum weights a sample by its
    images."""
    P, N, L = grid.P, grid.N, grid.L
    m = np.full(N + 1, 2.0)
    m[[0, N]] = 1.0
    M = _outer(m, m, m)
    w = (2.0 * L / P) ** 3
    inv_vol = (2.0 * L) ** -3
    f = _octant_to_values(x, P) * inv_vol
    v = velocity_axis(grid, P)[: N + 1]
    r2 = _r2(v)
    Mf = M * f
    face = m[:, None] * m[None, :]  # the images of the v_a = -L face; v_{P-j} = -v_j pair off
    ms = _moment_set(
        float(np.sum(Mf)) * w,
        -L * w * np.array([np.sum(face * f.take(0, axis)) for axis in range(3)]),
        float(np.sum(Mf * r2)) * w,
        float(np.sum(Mf * r2 * r2)) * w,
    )

    # the Maxwellian A exp(-sum_a q_a), q_a = (v_a - u_a)^2 / 2T, over each
    # sample's images v_a and -v_a (one image at j = 0 and j = N): per axis
    # the image means of q_a and of g_a = exp(-q_a) and the half-difference
    # of g_a, so the image mean of mu is A prod c_a and its spread about that
    # mean is A^2 (prod (c_a^2 + d_a^2) - prod c_a^2), summed term by term
    A = _maxwellian_scale(ms)
    c, d, q = [], [], []
    for u in ms.u:
        qp = (v - u) ** 2 / (2.0 * ms.T)
        qm = (v + u) ** 2 / (2.0 * ms.T)
        qm[0] = qp[0]
        gp, gm = np.exp(-qp), np.exp(-qm)
        c.append(0.5 * (gp + gm))
        d.append(0.5 * (gp - gm))
        q.append(0.5 * (qp + qm))
    mu = A * _outer(*c)
    log_mu = np.log(A) - (q[0][:, None, None] + q[1][None, :, None] + q[2][None, None, :])
    s = [ci * ci + di * di for ci, di in zip(c, d)]
    spread = A * A * (
        _outer(d[0] ** 2, c[1] ** 2, c[2] ** 2)
        + _outer(s[0], d[1] ** 2, c[2] ** 2)
        + _outer(s[0], s[1], d[2] ** 2)
    )

    k = np.pi / L * np.arange(N)
    g2 = np.zeros_like(f)
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = N
        g2 += (_octant_to_values(k.reshape(shape) * x, P, odd=axis) * inv_vol) ** 2

    pos = f > EPS_POS
    fp, Mp, mp = f[pos], M[pos], mu[pos]
    log_f = np.log(fp)
    rel = Mp * (fp * (log_f - log_mu[pos]) - fp + mp)
    neg = f < 0.0
    e1 = e2 = None
    if exact is not None:
        e = np.abs(f - np.asarray(exact(t, _v_stack(v)), dtype=np.float64))
        e1, e2 = float(np.sum(M * e)), float(np.sqrt(np.sum(M * e * e)))
    return DiagnosticsRecord(
        t=t,
        mass=ms.rho,
        momentum=ms.momentum,
        energy=ms.energy,
        m4=ms.m4,
        entropy=float(np.sum(Mp * fp * log_f)) * w,
        rel_entropy=float(np.sum(rel[mp > 0.0])) * w,
        fisher=float(np.sum(Mp * g2[pos] / fp)) * w,
        l2_to_maxwellian=float(np.sqrt(np.sum(M * ((f - mu) ** 2 + spread)) * w)),
        min_f=float(f.min()),
        negative_mass=float(-np.sum(Mf[neg])) * w,
        e1=e1,
        e2=e2,
    )

"""Bilinear collision operator on the mode set.

The periodized Landau operator acts on Fourier coefficients as

    Qhat(g, h)(k) = (2L)^-3 sum_{l+m=k; l,m in J_N} ghat(l) hhat(m) beta(l, m),

with beta = A + B|m|^2 + Cs (l.m)^2.  On the output mode k = l + m,
l.m = (|k|^2 - |l|^2 - |m|^2)/2, so the sum splits into three truncated
convolution sums weighted by 1, |k|^2 and |k|^4 (the rank form, after
Mouhot & Pareschi's kernel splitting): four first factors of g and three
second factors of h, each transformed once, give 7 zero-padded inverse and
3 forward transforms per evaluation (``_collide``).  The operands' shape
picks the transforms (``spectral._convolution_transforms``).  The scheme
right-hand side carries a real state through all three stages as its
(P, P, N) k3 >= 0 half, zero-padded to Q >= 3N points per axis in pruned
one-axis real passes that skip the all-zero columns, or, for a state even
in each velocity axis, as its real (N, N, N) octant through DCT-Is.  Whole
(P, P, P) arrays, which only ``q_periodic_fast`` passes, take complex
transforms.  The direct double-sum evaluator is retained as an O(P^6)
oracle for small P.
"""

from __future__ import annotations

import numpy as np

from .kernel import KernelTables, beta_coulomb
# apply_cutoff and project stay importable here only because perfbench/launch.py
# wraps them at this spot; q_scheme_rhs no longer calls them, so their spans
# (spectral.apply_cutoff_*, spectral.project_s) read 0
from .spectral import (  # noqa: F401
    ShapeMismatchError,
    SpectralField,
    _assemble,
    _convolution_transforms,
    _cutoff_half,
    _mode_ints,
    _project_half,
    _state_grid,
    apply_cutoff,
    padded_size,
    project,
)


class CostGuardError(RuntimeError):
    """Refusal to run the O(P^6) direct sum on a large grid."""


def _k2(P: int, shape: tuple) -> np.ndarray:
    """|k|^2 over the modes of an array of that shape, which starts each
    FFT-order axis (a whole, a half, an octant)."""
    k = _mode_ints(P).astype(np.float64) ** 2
    return k[: shape[0], None, None] + k[None, : shape[1], None] + k[None, None, : shape[2]]


def _check_compatible(grid_g, grid_h, tables: KernelTables):
    if grid_g != grid_h:
        raise ShapeMismatchError("operands live on different grids")
    g = grid_g
    if tables.P != g.P or tables.gamma != g.gamma or tables.L != g.L:
        raise ShapeMismatchError(
            f"kernel tables built for (gamma={tables.gamma}, L={tables.L}, P={tables.P}) "
            f"do not match grid (gamma={g.gamma}, L={g.L}, P={g.P})"
        )


def _collide(g: np.ndarray, h: np.ndarray, tables: KernelTables, Q: int) -> np.ndarray:
    """Qhat(g, h) on J_N, unprojected, in the rank form at Q points per axis.

    With the first factors a1 = (A + |l|^4 Cs/4) g, a2 = (B + |l|^2 Cs/2) g,
    a3 = (Cs/4) g and a4 = |l|^2 a3, the second factors h, |m|^2 h and
    |m|^4 h, and * the truncated convolution, the sums

        W0 = a1 * h + a2 * |m|^2 h + a3 * |m|^4 h,
        W1 = -2 (a4 * h + a3 * |m|^2 h),        W2 = a3 * h

    give (2L)^3 Qhat = W0 + |k|^2 W1 + |k|^4 W2.  Each factor is transformed
    once and each sum forward-transformed as soon as it is complete, so at
    most five padded arrays are live.  g and h are (P, P, P) arrays,
    (P, P, N) k3 >= 0 halves or real (N, N, N) octants of axis-even fields;
    the tables and |k|^2, real and even in each k_i, are read on the same
    block, and the shape of g alone picks the transforms.  Q >= 3N gives
    the literal double sum to rounding, less close than separate
    convolutions since the |k|^4 terms cancel.
    """
    P = tables.P
    block = tuple(slice(n) for n in g.shape)
    A, B, Cs = tables.A[block], tables.B[block], tables.Cs[block]
    k2 = _k2(P, g.shape)
    values, modes = _convolution_transforms(g.shape, P, Q)
    a3 = (0.25 * Cs) * g
    H = values(h)
    X3 = values(a3)
    W2 = modes(X3 * H)  # a3 * h
    W0 = values((A + 0.25 * Cs * k2 * k2) * g)
    W0 *= H  # a1 * h
    W1 = values(k2 * a3)
    W1 *= H  # a4 * h
    H = values(k2 * h)
    T = values((B + 0.5 * Cs * k2) * g)
    T *= H
    W0 += T  # a2 * |m|^2 h
    H *= X3
    W1 += H  # a3 * |m|^2 h
    del T, H  # before W1's forward pass, which would make a sixth
    W1 = modes(W1)
    H = values(k2 * k2 * h)
    H *= X3
    W0 += H  # a3 * |m|^4 h
    out = modes(W0)
    out += k2 * (k2 * W2 - 2.0 * W1)
    out /= (2.0 * tables.L) ** 3
    return out


def q_periodic_fast(
    ghat: SpectralField, hhat: SpectralField, tables: KernelTables
) -> SpectralField:
    """FFT evaluation of Qhat(g, h) on J_N, unprojected, in the rank form.

    Works for arbitrary complex coefficients: the whole arrays take complex
    transforms of the zero-padded Q^3 cube.  Padded by the 3/2 rule, this
    is the literal double sum to rounding (``_collide``).  ``run`` does not
    call it: a march collides k3 >= 0 halves or octants (``q_scheme_rhs``).
    """
    _check_compatible(ghat.grid, hhat.grid, tables)
    grid = ghat.grid
    return SpectralField(_collide(ghat.data, hhat.data, tables, padded_size(grid)), grid)


def _beta_block(beta, lvec, mblock):
    """Evaluate beta(l, .) over an (..., 3) block, tolerating scalar-only betas."""
    try:
        vals = np.asarray(beta(lvec, mblock), dtype=np.float64)
        if vals.shape == mblock.shape[:-1]:
            return vals
    except Exception:
        pass
    flat = mblock.reshape(-1, 3)
    return np.array([beta(lvec, mv) for mv in flat], dtype=np.float64).reshape(
        mblock.shape[:-1]
    )


def q_periodic_direct(
    ghat: SpectralField,
    hhat: SpectralField,
    beta=None,
    *,
    force: bool = False,
) -> SpectralField:
    """Literal truncated double sum over l + m = k; the oracle for the fast path.

    O(P^6) work and therefore refused for P > 16 unless ``force=True``.
    ``beta`` is any callable beta(l, m) -> real; it defaults to the
    closed-form Coulomb coefficient.
    """
    if ghat.grid != hhat.grid:
        raise ShapeMismatchError("operands live on different grids")
    grid = ghat.grid
    P = grid.P
    if P > 16 and not force:
        raise CostGuardError(
            f"direct double sum scales as P^6; refusing P={P} > 16 (use force=True)"
        )
    if beta is None:
        beta = beta_coulomb
    N = grid.N
    gc = np.fft.fftshift(ghat.data)  # centered: index j <-> mode j - N
    hc = np.fft.fftshift(hhat.data)
    modes = np.arange(P) - N
    M = np.stack(
        np.broadcast_arrays(
            modes[:, None, None], modes[None, :, None], modes[None, None, :]
        ),
        axis=-1,
    )
    out = np.zeros((P, P, P), dtype=np.complex128)
    for j1 in range(P):
        lo1, hi1 = max(0, N - j1), min(P, P + N - j1)
        for j2 in range(P):
            lo2, hi2 = max(0, N - j2), min(P, P + N - j2)
            for j3 in range(P):
                gl = gc[j1, j2, j3]
                if gl == 0.0:
                    continue
                lo3, hi3 = max(0, N - j3), min(P, P + N - j3)
                lvec = np.array([j1 - N, j2 - N, j3 - N], dtype=np.int64)
                mblk = M[lo1:hi1, lo2:hi2, lo3:hi3]
                bet = _beta_block(beta, lvec, mblk)
                out[
                    j1 + lo1 - N : j1 + hi1 - N,
                    j2 + lo2 - N : j2 + hi2 - N,
                    j3 + lo3 - N : j3 + hi3 - N,
                ] += gl * bet * hc[lo1:hi1, lo2:hi2, lo3:hi3]
    out = np.fft.ifftshift(out) / (2.0 * grid.L) ** 3
    return SpectralField(out, grid)


def q_scheme_rhs(fhat, grid, tables: KernelTables):
    """Right-hand side of the truncated evolution: cutoff, collide, cutoff.

    Computes P_N( P_N(Qhat(F, F)) psi_R ) with F = P_N(f psi_R), i.e. the
    velocity cutoff is applied to the state before the collision and to
    the result after it, with a Galerkin projection at every stage.

    The state must be real: only its k3 >= 0 half ``fhat.data[:, :, :N]``
    is read, and it is not checked for Hermitian symmetry (``to_physical``
    and ``apply_cutoff`` check at the public boundary).  Every stage runs
    on (P, P, N) halves and zeroes its Nyquist rows in place; the collision
    is the rank form (``_collide``), 7 inverse and 3 forward padded
    transforms; the whole
    (P, P, P) array is assembled once, at the end.  The result equals
    ``project(apply_cutoff(project(q_periodic_fast(F, F, tables))))`` with
    ``F = project(apply_cutoff(fhat))`` to rounding: that composition
    collides whole arrays through complex transforms.

    ``fhat`` may instead be the real float64 (N, N, N) octant of an
    axis-even state, as ``run`` marches it: every stage and the result are
    octants then.  Either form is checked against ``grid``
    (``spectral._state_grid``).
    """
    octant = isinstance(fhat, np.ndarray)
    _state_grid(fhat, grid)
    _check_compatible(grid, grid, tables)
    F = _cutoff_half(fhat if octant else fhat.data, grid)
    U = _collide(F, F, tables, padded_size(grid))
    if octant:
        return _cutoff_half(U, grid)
    return SpectralField(_assemble(_cutoff_half(_project_half(U), grid)), grid)

"""Bilinear collision operator on the mode set.

The periodized Landau operator acts on Fourier coefficients as

    Qhat(g, h)(k) = (2L)^-3 sum_{l+m=k; l,m in J_N} ghat(l) hhat(m) beta(l, m),

and since beta is quadratic in m it splits into seven truncated
convolutions (A, and the six C_ij = Cs l_i l_j with B(l)|m|^2 folded
into the diagonal C_ii), summed by one FFT engine (``convolve_pairs``).
For real states it reads the k3 >= 0 half spectra only and zero-pads each
factor to Q >= 3N points per axis in pruned one-axis passes that skip the
all-zero columns; the scheme right-hand side carries the state as that
half through all three stages.
The direct double-sum evaluator is retained as an O(P^6) oracle for
small P.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .kernel import KernelTables, beta_coulomb
# apply_cutoff and project stay importable here only because perfbench/launch.py
# wraps them at this spot; q_scheme_rhs no longer calls them, so their spans
# (spectral.apply_cutoff_*, spectral.project_s) read 0
from .spectral import (  # noqa: F401
    ShapeMismatchError,
    SpectralField,
    _assemble,
    _cutoff_half,
    _mode_ints,
    _project_half,
    apply_cutoff,
    convolve_pairs,
    padded_size,
    project,
)


class CostGuardError(RuntimeError):
    """Refusal to run the O(P^6) direct sum on a large grid."""


@lru_cache(maxsize=32)
def _m_broadcast(P: int, K: int):
    """Float mode coordinates shaped for broadcasting along each axis of a
    (P, P, K) array (K = P, or N for a k3 >= 0 half)."""
    k = _mode_ints(P).astype(np.float64)
    return k[:, None, None], k[None, :, None], k[None, None, :K]


def _check_compatible(ghat: SpectralField, hhat: SpectralField, tables: KernelTables):
    if ghat.grid != hhat.grid:
        raise ShapeMismatchError("operands live on different grids")
    g = ghat.grid
    if tables.P != g.P or tables.gamma != g.gamma or tables.L != g.L:
        raise ShapeMismatchError(
            f"kernel tables built for (gamma={tables.gamma}, L={tables.L}, P={tables.P}) "
            f"do not match grid (gamma={g.gamma}, L={g.L}, P={g.P})"
        )


def _term_pairs(gdata: np.ndarray, hdata: np.ndarray, tables: KernelTables):
    """The seven (first, second) coefficient products whose convolutions sum
    to (2L)^3 Qhat.  B(l)|m|^2 = sum_i B(l) m_i^2 rides on the diagonal
    C_ii + B; off-diagonal tensor terms carry their symmetry factor 2.

    l and m run over the same mode integers, so the mode coordinates serve
    both factors: the first forms C_ij = Cs l_i l_j, the second m_i m_j.
    The operands are (P, P, P) arrays or (P, P, N) k3 >= 0 halves; the
    tables are read on the same columns."""
    P, _, K = gdata.shape
    m = _m_broadcast(P, K)
    A, B, Cs = tables.A[:, :, :K], tables.B[:, :, :K], tables.Cs[:, :, :K]
    yield A * gdata, hdata
    for i in range(3):
        yield (Cs * (m[i] * m[i]) + B) * gdata, (m[i] * m[i]) * hdata
    for i, j in ((0, 1), (0, 2), (1, 2)):
        yield (Cs * (m[i] * m[j])) * gdata, (2.0 * m[i] * m[j]) * hdata


def q_periodic_fast(
    ghat: SpectralField, hhat: SpectralField, tables: KernelTables
) -> SpectralField:
    """FFT evaluation of Qhat(g, h) on J_N, unprojected.

    Works for arbitrary complex coefficients.  When both operands are real
    fields (``spectral._is_real``) so are the seven coefficient products,
    and ``convolve_pairs`` runs real transforms on their k3 >= 0 halves.
    Padded by the 3/2 rule, this is the literal double sum to rounding.
    """
    _check_compatible(ghat, hhat, tables)
    grid = ghat.grid
    out = convolve_pairs(_term_pairs(ghat.data, hhat.data, tables), grid.P, padded_size(grid))
    out /= (2.0 * grid.L) ** 3
    return SpectralField(out, grid)


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


def q_scheme_rhs(fhat: SpectralField, grid, tables: KernelTables) -> SpectralField:
    """Right-hand side of the truncated evolution: cutoff, collide, cutoff.

    Computes P_N( P_N(Qhat(F, F)) psi_R ) with F = P_N(f psi_R), i.e. the
    velocity cutoff is applied to the state before the collision and to
    the result after it, with a Galerkin projection at every stage.

    The state must be real: only its k3 >= 0 half ``fhat.data[:, :, :N]``
    is read, and it is not checked for Hermitian symmetry (``to_physical``
    and ``apply_cutoff`` check at the public boundary).  Every stage runs
    on (P, P, N) halves and zeroes its Nyquist rows in place; the whole
    (P, P, P) array is assembled once, at the end.  The result equals
    ``project(apply_cutoff(project(q_periodic_fast(F, F, tables))))`` with
    ``F = project(apply_cutoff(fhat))`` bit for bit: F is real, so both
    take the same real transforms.
    """
    if fhat.grid != grid:
        raise ShapeMismatchError("state grid differs from the requested grid")
    _check_compatible(fhat, fhat, tables)
    F = _cutoff_half(fhat.data, grid)
    U = convolve_pairs(_term_pairs(F, F, tables), grid.P, padded_size(grid))
    U /= (2.0 * grid.L) ** 3
    return SpectralField(_assemble(_cutoff_half(_project_half(U), grid)), grid)

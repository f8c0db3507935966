"""Spectral fields on the periodized velocity box [-L, L]^3.

Modes live in J_N = [-N, N-1]^3 with N = P/2 and hat normalization

    fhat(k) = int_{[-L,L]^3} f(v) exp(-i pi k.v/L) dv,
    f(v)    = (2L)^(-3) sum_{k in J_N} fhat(k) exp(i pi k.v/L),

so fhat(0) is the total mass.  Coefficients are stored in FFT frequency
order (0, 1, ..., N-1, -N, ..., -1 per axis).  Real-valued fields have
Hermitian-symmetric coefficients; the Nyquist planes k_i = -N have no
conjugate partner inside J_N and are therefore kept identically zero
(see ``project``), which keeps every state exactly real-valued.

The collocation grid has n points per axis at v_j = -L + 2Lj/n.  Every
transform pair below is the Fourier sum sum_k x_k exp(i pi k.v_j/L) at
those points, sign (-1)^(k1+k2+k3) of v_0 = -L included, and the rectangle
rule n^-3 sum_j back, exact for band-limited fields; point values and
coefficients differ from the pair's only by the box volume (2L)^-/+3.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

_CUTOFF_SHAPES = ("paper", "smooth", "none")


class ShapeMismatchError(ValueError):
    """Array shape or grid incompatibility between operands."""


class HermitianSymmetryError(ValueError):
    """Coefficients of a supposedly real field violate Hermitian symmetry."""


class SnapshotFormatError(ValueError):
    """Malformed or mismatched binary snapshot file."""


@dataclass(frozen=True)
class GridSpec:
    """Static description of the velocity grid and scheme options.

    Mode convolutions are zero-padded by the 3/2 rule (``padded_size``),
    so the collision operator is the literal truncated double sum.

    Parameters
    ----------
    L : float
        Half-width of the velocity box [-L, L]^3.
    P : int
        Even number of collocation points (and retained modes) per axis.
        The mode set is [-P/2, P/2-1]^3.
    gamma : float
        Collision kernel exponent, |z|^(gamma+2); -3 is the Coulomb case.
    R : float, optional
        Support radius of the velocity cutoff, 0 < R <= L.  Defaults to L.
    cutoff_shape : {"paper", "smooth", "none"}
        Profile of the radial cutoff function psi_R.
    """

    L: float
    P: int
    gamma: float = -3.0
    R: float | None = None
    cutoff_shape: str = "paper"
    # collocation refinement of the cutoff product and the initial datum: at
    # 1x the datum deviates by 7.9e-3 from an 8x reference at P = 32, at 2x
    # by 3.3e-8; 3x gains nothing visible for 3.4x the cutoff's points
    oversample: ClassVar[int] = 2

    def __post_init__(self):
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.R is None:
            object.__setattr__(self, "R", float(self.L))
        else:
            object.__setattr__(self, "R", float(self.R))
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L}")
        if not isinstance(self.P, (int, np.integer)):
            raise ValueError(f"P must be an integer, got {self.P!r}")
        if self.P < 4 or self.P % 2 != 0:
            raise ValueError(f"P must be even and >= 4, got {self.P}")
        if not -4.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-4, 1], got {self.gamma}")
        if not 0.0 < self.R <= self.L:
            raise ValueError(f"R must satisfy 0 < R <= L, got R={self.R}, L={self.L}")
        if self.cutoff_shape not in _CUTOFF_SHAPES:
            raise ValueError(
                f"cutoff_shape must be one of {_CUTOFF_SHAPES}, got {self.cutoff_shape!r}"
            )

    @property
    def N(self) -> int:
        """Half-width of the retained mode set."""
        return self.P // 2


@dataclass
class SpectralField:
    """Truncated Fourier coefficients of a field, FFT order, shape (P, P, P)."""

    data: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        P = self.grid.P
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (P, P, P):
            raise ShapeMismatchError(
                f"coefficient array has shape {self.data.shape}, expected {(P, P, P)}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SpectralField":
        return cls(np.zeros((grid.P,) * 3, dtype=np.complex128), grid)

    def copy(self) -> "SpectralField":
        return SpectralField(self.data.copy(), self.grid)

    def l2(self) -> float:
        """L^2(D_L) norm via Parseval: sqrt((2L)^-3 sum |fhat|^2)."""
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2) / (2.0 * self.grid.L) ** 3))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.grid != other.grid:
            raise ShapeMismatchError("cannot combine fields on different grids")
        return SpectralField(self.data + other.data, self.grid)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if self.grid != other.grid:
            raise ShapeMismatchError("cannot combine fields on different grids")
        return SpectralField(self.data - other.data, self.grid)

    def __mul__(self, c) -> "SpectralField":
        return SpectralField(self.data * c, self.grid)

    __rmul__ = __mul__


@dataclass
class PhysicalField:
    """Real point values on the n^3 collocation grid (n a multiple of P)."""

    data: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or len(set(self.data.shape)) != 1:
            raise ShapeMismatchError(f"expected a cubic array, got shape {self.data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def l2(self) -> float:
        """L^2(D_L) norm by the rectangle rule."""
        w = (2.0 * self.grid.L / self.n) ** 3
        return float(np.sqrt(np.sum(self.data**2) * w))


def velocity_axis(grid: GridSpec, n: int | None = None) -> np.ndarray:
    """1-D collocation coordinates v_j = -L + 2Lj/n (the +L endpoint is the
    periodic image of -L and is excluded)."""
    if n is None:
        n = grid.P
    return -grid.L + 2.0 * grid.L * np.arange(n) / n


def _mode_ints(P: int) -> np.ndarray:
    """Integer mode numbers in FFT order: [0..N-1, -N..-1]."""
    return np.fft.fftfreq(P, d=1.0 / P).astype(np.int64)


@lru_cache(maxsize=32)
def _phase3(P: int) -> np.ndarray:
    """(-1)^(k1+k2+k3) over the (P, P, P) mode set in FFT order: the factor
    exp(i pi k.v_0/L) that the grid's first point v_0 = -L puts on each mode."""
    s = 1.0 - 2.0 * (np.abs(_mode_ints(P)) % 2).astype(np.float64)
    out = s[:, None, None] * s[None, :, None] * s[None, None, :]
    out.setflags(write=False)  # shared by every caller: a write would corrupt them all
    return out


def _embed_idx(P: int, n: int) -> np.ndarray:
    """Slot indices of the P-mode set inside an n-point FFT-order axis."""
    N = P // 2
    return np.concatenate([np.arange(N), np.arange(n - N, n)])


def _modes_to_values(src: np.ndarray, n: int) -> np.ndarray:
    """The Fourier sum sum_k x_k exp(i pi k.v_j/L) of a real field's
    coefficients x at the n^3 grid points v_j = -L + 2Lj/n.

    Reads the k3 >= 0 half ``src[:, :, :N]`` only, so ``src`` is the whole
    (P, P, P) array or just that (P, P, N) half (the caller guarantees
    Hermitian symmetry and zeroed Nyquist planes).  The half, times the
    sign cube, is zero-padded on axes 0 and 1 into one (n, n, N) array,
    which axis 0 transforms in place on the P*N columns that hold modes and
    axis 1 on all n*N; a c2r pass then runs along axis 2: the unscaled 1-D
    transforms of a full irfftn minus the all-zero ones.
    """
    P = src.shape[0]
    N = P // 2
    idx = _embed_idx(P, n)
    big = np.zeros((n, n, N), dtype=np.complex128)
    big[np.ix_(idx, idx)] = src[:, :, :N] * _phase3(P)[:, :, :N]
    for cols in (slice(None, N), slice(n - N, None)):
        np.fft.ifft(big[:, cols], axis=0, norm="forward", out=big[:, cols])
    np.fft.ifft(big, axis=1, norm="forward", out=big)
    return np.fft.irfft(big, n, axis=2, norm="forward")


def _values_to_rows(vals: np.ndarray, P: int) -> np.ndarray:
    """The rectangle rule n^-3 sum_j v_j exp(-i pi k.v_j/L) of real samples
    on the n^3 grid, at the modes of J_N with k3 >= 0: the unprojected
    (P, P, N) k3 >= 0 half, in FFT order.

    The mirror image of ``_modes_to_values``: an r2c pass along axis 2
    keeps k3 = 0..N-1, then passes along axes 0 and 1 each keep the rows
    of J_N.
    """
    idx = _embed_idx(P, vals.shape[0])
    a = np.fft.rfft(vals, axis=2, norm="forward")[:, :, : P // 2]
    a = np.fft.fft(a, axis=0, norm="forward")[idx]
    a = np.fft.fft(a, axis=1, norm="forward", out=a)  # a is ours: transformed in place
    return a[:, idx] * _phase3(P)[:, :, : P // 2]


def _project_half(half: np.ndarray) -> np.ndarray:
    """Zero the k1 = -N and k2 = -N rows of a k3 >= 0 half in place (its
    columns stop short of the k3 = -N plane); returns it."""
    N = half.shape[0] // 2
    half[N] = 0.0
    half[:, N] = 0.0
    return half


def _assemble(half: np.ndarray) -> np.ndarray:
    """The (P, P, P) coefficients of a real field from its projected k3 >= 0
    half: the k3 = -N plane is zero and the other negative k3 are the
    conjugates of their partners (-k1, -k2, -k3)."""
    P, _, N = half.shape
    neg = -_mode_ints(P) % P
    out = np.empty((P, P, P), dtype=np.complex128)
    out[:, :, :N] = half
    out[:, :, N] = 0.0
    out[:, :, N + 1 :] = np.conj(half[np.ix_(neg, neg, np.arange(N - 1, 0, -1))])
    return out


@lru_cache(maxsize=32)
def _octant_matrices(N: int, n: int) -> tuple:
    """The octant pair's read-only matrices at n points, m = n//2 + 1, as
    DCT-I and DST-I (Swarztrauber, Symmetric FFTs, 1986): the (m, N) inverse
    is the Fourier sum at v_j = -L + 2Lj/n, j < m, with exp(i pi k v_j/L) =
    (-1)^k exp(2 pi i jk/n); the (m, N) sine matrix that sum for i times an
    odd octant; the (N, m) forward the rectangle rule 1/n sum_j, folded by
    v_{n-j} = -v_j onto j < m."""
    m = n // 2 + 1
    k = np.arange(N)
    angle = 2.0 * np.pi / n * (np.outer(np.arange(m), k) % n)
    sign = 1.0 - 2.0 * (k % 2)  # (-1)^k: the sum starts at v_0 = -L
    pair = np.where(k > 0, 2.0, 1.0)  # k with -k; k = 0 alone
    image = np.where((np.arange(m) > 0) & (2 * np.arange(m) != n), 2.0, 1.0) / n  # j with n - j
    cos = np.cos(angle) * sign
    out = (cos * pair, cos.T * image, -2.0 * sign * np.sin(angle))
    for a in out:
        a.setflags(write=False)
    return out


def _along(C: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """C applied along one axis of a 3-D x, a new C-contiguous array: one
    small matmul per leading index (axis 0 through transposed views), whose
    bits do not depend on the BLAS thread count as one 2-D gemm's do."""
    if axis == 2:
        return np.matmul(x, C.T)
    if axis == 1:
        return np.matmul(C, x)
    out = np.empty((C.shape[0],) + x.shape[1:])
    np.matmul(C, x.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return out


def _octant_to_values(x: np.ndarray, n: int, odd: int | None = None) -> np.ndarray:
    """The Fourier sum at the grid points j = 0..n//2 per axis (the rest
    mirror them) of an axis-even real field's real octant k_i = 0..N-1: the
    inverse cosine matrix along each axis, axis 0 last for a contiguous result.

    The axis ``odd`` may instead take the sine matrix: x is then the octant,
    divided by i, of the coefficients of a field odd in that axis (a
    derivative along it), and the result its sum."""
    inverse, _, sine = _octant_matrices(x.shape[0], n)
    for axis in (2, 1, 0):
        x = _along(sine if axis == odd else inverse, x, axis)
    return x


def _values_to_octant(vals: np.ndarray, n: int, N: int) -> np.ndarray:
    """The mirror image of ``_octant_to_values``: the rectangle rule at
    k_i = 0..N-1 of the even n-point extension of samples j = 0..n//2 per
    axis, the forward cosine matrix along each axis."""
    forward = _octant_matrices(N, n)[1]
    for axis in (2, 1, 0):
        vals = _along(forward, vals, axis)
    return vals


def _octant_to_full(octant: np.ndarray) -> np.ndarray:
    """The (P, P, P) coefficients of the axis-even real field of an octant."""
    idx = np.abs(_mode_ints(2 * octant.shape[0]))  # k = -N reads the zero pad
    return np.pad(octant, (0, 1))[np.ix_(idx, idx, idx)].astype(np.complex128)


def _even_octant(data: np.ndarray) -> np.ndarray | None:
    """The real octant of (P, P, P) coefficients if it rebuilds them within
    1e-12 of their largest (``_check_hermitian``'s scale): the field is even
    in each axis, real and free of Nyquist planes.  Otherwise None."""
    N = data.shape[0] // 2
    octant = data[:N, :N, :N].real.copy()
    near = np.max(np.abs(data - _octant_to_full(octant))) <= 1e-12 * np.max(np.abs(data))
    return octant if near else None


def _state_grid(fhat, grid: GridSpec | None) -> GridSpec:
    """The grid of a state as ``run`` marches it, checked against ``grid``
    when that is given.  The state is a SpectralField, or the real float64
    (N, N, N) octant of an axis-even state, which carries no grid of its
    own and so needs ``grid``.  Raises ShapeMismatchError otherwise."""
    if not isinstance(fhat, np.ndarray):
        if grid is not None and fhat.grid != grid:
            raise ShapeMismatchError("state grid differs from the requested grid")
        return fhat.grid
    if grid is None:
        raise ShapeMismatchError("an octant state carries no grid; give the grid it lives on")
    if fhat.shape != (grid.N,) * 3:
        raise ShapeMismatchError(
            f"an octant state of shape {fhat.shape} does not live on a grid "
            f"with P = {grid.P}, whose octants have shape {(grid.N,) * 3}"
        )
    if fhat.dtype != np.float64:
        raise ShapeMismatchError(
            f"an octant state holds the real coefficients of an axis-even "
            f"field as float64, got dtype {fhat.dtype}"
        )
    return grid


def _check_hermitian(data: np.ndarray) -> None:
    """Raise unless (P, P, P) coefficients describe a real field: Hermitian
    with zero Nyquist planes, each within 1e-12 of the largest coefficient.
    The check of the public whole-array entry points (``to_physical``,
    ``apply_cutoff``); the transforms do not consult it."""
    P = data.shape[0]
    N = P // 2
    scale = np.max(np.abs(data))
    rev = (P - np.arange(P)) % P
    defect = np.max(np.abs(data - np.conj(data[np.ix_(rev, rev, rev)])))
    nyq = max(
        np.max(np.abs(data[N, :, :])),
        np.max(np.abs(data[:, N, :])),
        np.max(np.abs(data[:, :, N])),
    )
    if defect > 1e-12 * scale or nyq > 1e-12 * scale:
        raise HermitianSymmetryError(
            f"coefficients are not Hermitian-symmetric within 1e-12 "
            f"(symmetry defect {defect:.3e}, Nyquist magnitude {nyq:.3e}, "
            f"scale {scale:.3e})"
        )


def project(fhat: SpectralField) -> SpectralField:
    """Galerkin projection hygiene: zero the Nyquist planes k_i = -N.

    The mode set [-N, N-1]^3 is asymmetric; dropping the k_i = -N planes
    makes it conjugation-closed so that real fields stay real.  Idempotent.
    """
    N = fhat.grid.N
    out = fhat.data.copy()
    out[N, :, :] = 0.0
    out[:, N, :] = 0.0
    out[:, :, N] = 0.0
    return SpectralField(out, fhat.grid)


def to_spectral(field: PhysicalField) -> SpectralField:
    """Forward transform: rectangle-rule Fourier coefficients on J_N.

    The grid size must be a multiple of P; modes above N-1 are discarded
    (projection) and the Nyquist planes are zeroed.  The coefficients are
    the box volume (2L)^3 times the rectangle rule of ``_values_to_rows``,
    which runs one axis at a time and keeps only the rows of the modes
    -N..N-1 after each pass.  The k3 >= 0 half is computed and the
    negative k3 are its conjugates (``_assemble``).
    """
    grid = field.grid
    P = grid.P
    if field.n % P != 0:
        raise ShapeMismatchError(f"grid size {field.n} is not a multiple of P={P}")
    half = _values_to_rows(field.data, P) * (2.0 * grid.L) ** 3
    return SpectralField(_assemble(_project_half(half)), grid)


def to_physical(fhat: SpectralField, n: int | None = None) -> PhysicalField:
    """Inverse transform to point values on an n^3 grid (n >= P, multiple of P).

    The coefficients must describe a real field; violations of Hermitian
    symmetry beyond 1e-12 (relative) raise ``HermitianSymmetryError``.
    The values are the Fourier sum at the grid points over the box volume
    (2L)^3.  Only the k3 >= 0 half is summed, one axis at a time, skipping
    the all-zero columns of the zero-padded spectrum (``_modes_to_values``).
    """
    grid = fhat.grid
    P = grid.P
    if n is None:
        n = P
    if n % P != 0 or n < P:
        raise ShapeMismatchError(f"output grid size {n} is not a multiple of P={P}")
    _check_hermitian(fhat.data)
    return PhysicalField(_modes_to_values(fhat.data, n) * (2.0 * grid.L) ** -3, grid)


def psi_R(v, grid: GridSpec):
    """Radial velocity cutoff psi_R evaluated at v (a 3-vector or (..., 3) array).

    Shapes:
      paper  -- 1 on |v| < 0.9R, the linear ramp 10(1 - |v|/R) on
                0.9R <= |v| <= R, 0 outside.
      smooth -- C^1 cubic ramp on the same shell.
      none   -- identically 1.
    """
    r = np.linalg.norm(np.asarray(v, dtype=np.float64), axis=-1)
    out = _psi_profile(r, grid)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _psi_profile(r, grid: GridSpec):
    R = grid.R
    if grid.cutoff_shape == "none":
        return np.ones_like(np.asarray(r, dtype=np.float64))
    r = np.asarray(r, dtype=np.float64)
    if grid.cutoff_shape == "paper":
        ramp = 10.0 * (1.0 - r / R)
    else:  # smooth
        s = np.clip((r - 0.9 * R) / (0.1 * R), 0.0, 1.0)
        ramp = 1.0 - s * s * (3.0 - 2.0 * s)
    return np.where(r < 0.9 * R, 1.0, np.where(r <= R, np.clip(ramp, 0.0, 1.0), 0.0))


@lru_cache(maxsize=8)
def _psi_grid_values(grid: GridSpec, n: int) -> np.ndarray:
    """psi_R at the n^3 grid points v_j = -L + 2Lj/n, read-only and cached:
    the cutoff's multiplier in ``_cutoff_half`` and ``initial_state``."""
    v = velocity_axis(grid, n)
    r = np.sqrt(v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2)
    out = _psi_profile(r, grid)
    out.setflags(write=False)
    return out


def apply_cutoff(fhat: SpectralField) -> SpectralField:
    """P_N(u * psi_R): multiply by the cutoff in physical space and re-project.

    The product is collocated on an oversample*P grid so that the
    quadrature behind the projection sees the C^0 kink of the cutoff at
    sub-grid resolution.  With cutoff_shape == "none" the input is
    returned unchanged.  The coefficients must describe a real field
    (checked as in ``to_physical``); the work runs on k3 >= 0 halves
    (``_cutoff_half``).
    """
    grid = fhat.grid
    if grid.cutoff_shape == "none":
        return fhat
    _check_hermitian(fhat.data)
    return SpectralField(_assemble(_cutoff_half(fhat.data, grid)), grid)


def _cutoff_half(src: np.ndarray, grid: GridSpec) -> np.ndarray:
    """P_N(u psi_R) of a real field u, left as it is: the projected k3 >= 0
    half from the half ``src[:, :, :N]`` of the whole array or of the half,
    an octant from the real octant of an axis-even u (psi_R is radial, so
    its samples j = 0..n/2 suffice).  It is ``modes(values(u) * psi_R)`` on
    the oversampled grid through the form's own pair, with no rescale
    (``_convolution_transforms``).  With cutoff_shape == "none" it is a
    copy of the form, projected if it is a half."""
    N, n = grid.N, grid.oversample * grid.P
    x = src[:, :, :N]  # an octant whole
    if grid.cutoff_shape == "none":
        out = x.copy()
    else:
        values, modes = _convolution_transforms(x.shape, grid.P, n)
        vals = values(x)
        vals *= _psi_grid_values(grid, n)[tuple(slice(s) for s in vals.shape)]
        out = modes(vals)
    return out if x.shape[0] == N else _project_half(out)


def padded_size(grid: GridSpec) -> int:
    """Transform size Q per axis for the mode convolutions on ``grid``.

    Sums l + m of modes in [-N, N-1] lie in [-2N, 2N-2], so an image
    l + m -/+ Q can land back in J_N only when Q <= 3N - 1 (at l + m = -2N
    it lands on N - 1).  Q is therefore the smallest FFT-friendly size
    >= 3N, Orszag's 3/2 rule.
    """
    return _next_fast_len(3 * grid.N)


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth size 2^a 3^b 5^c >= n >= 1, the real-transform
    rule of ``scipy.fft.next_fast_len``."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _convolution_transforms(shape: tuple, P: int, Q: int):
    """The transform pair ``(values, modes)`` of coefficients on J_N at Q
    points per axis, chosen by the shape of the operands alone.

    ``values(x)`` is the Fourier sum sum_k x_k exp(i pi k.v_j/L) at the
    grid points v_j = -L + 2Lj/Q, sign (-1)^(k1+k2+k3) included; ``modes(v)``
    is the rectangle rule Q^-3 sum_j v_j exp(-i pi k.v_j/L) on J_N, in that
    shape and unprojected (v may be overwritten).  So ``modes(values(x))``
    is x and ``modes(values(x) * values(y))`` is conv(x, y), unscaled.
    Q >= 3N gives the literal truncated sums; Q < 3N aliases
    (``padded_size``).  (N, N, N) operands are real octants of axis-even
    fields and take the cosine matrices, one small matmul per axis and no
    FFT (``_octant_to_values``); (P, P, N) operands are k3 >= 0 halves of
    real fields and take pruned one-axis real passes (``_modes_to_values``,
    ``_values_to_rows``); (P, P, P) operands are any coefficients and take
    n-D complex transforms of the zero-padded Q^3 cube.
    """
    if shape[0] == P // 2:
        return (lambda x: _octant_to_values(x, Q),
                lambda v: _values_to_octant(v, Q, P // 2))
    if shape[2] == P // 2:
        return lambda x: _modes_to_values(x, Q), lambda v: _values_to_rows(v, P)
    idx = _embed_idx(P, Q)
    ix = np.ix_(idx, idx, idx)
    sign = _phase3(P)

    def values(x):
        big = np.zeros((Q, Q, Q), dtype=np.complex128)
        big[ix] = x * sign
        return np.fft.ifftn(big, norm="forward", out=big)

    def modes(v):
        out = np.fft.fftn(v, norm="forward", out=v)[ix]
        out *= sign
        return out

    return values, modes


def truncated_convolution(xhat: SpectralField, yhat: SpectralField) -> SpectralField:
    """Mode-space convolution z(k) = sum_{l+m=k, l,m in J_N} x(l) y(m), k in J_N.

    Padded by the 3/2 rule, so this is the literal truncated double sum to
    rounding, for any coefficients: the whole arrays take complex
    transforms of the zero-padded Q^3 cube (``_convolution_transforms``).
    """
    if xhat.grid != yhat.grid:
        raise ShapeMismatchError("operands live on different grids")
    grid = xhat.grid
    x, y = xhat.data, yhat.data
    values, modes = _convolution_transforms(x.shape, grid.P, padded_size(grid))
    v = values(x)
    v *= values(y)
    return SpectralField(modes(v), grid)


# ---------------------------------------------------------------------------
# binary field snapshots ("LSFD")
# ---------------------------------------------------------------------------

_LSFD_MAGIC = b"LSFD"
_LSFD_VERSION = 1
_LSFD_HEADER = struct.Struct("<4sIIddd")  # magic, version, P, L, gamma, t


def write_snapshot(path, field: PhysicalField, t: float) -> None:
    """Write point values on the native P^3 grid with a small binary header."""
    grid = field.grid
    if field.n != grid.P:
        raise ShapeMismatchError("snapshots store the native P^3 grid only")
    with open(path, "wb") as fh:
        fh.write(
            _LSFD_HEADER.pack(
                _LSFD_MAGIC, _LSFD_VERSION, grid.P, grid.L, grid.gamma, float(t)
            )
        )
        fh.write(np.ascontiguousarray(field.data, dtype="<f8").tobytes())


def read_snapshot(path):
    """Read a snapshot; returns (values, header_dict).

    header_dict has keys P, L, gamma, t.  The caller is responsible for
    checking P and L against its own grid.  The file must hold exactly the
    P^3 values its header announces; that is checked against the file size
    before anything is read, so a damaged P cannot ask for a huge buffer.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_LSFD_HEADER.size)
        if len(raw) != _LSFD_HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated header")
        magic, version, P, L, gamma, t = _LSFD_HEADER.unpack(raw)
        if magic != _LSFD_MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        if version != _LSFD_VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - _LSFD_HEADER.size
        if size != 8 * P**3:
            raise SnapshotFormatError(
                f"{path}: header gives P={P}, so {8 * P**3} data bytes, "
                f"but the file holds {size}"
            )
        vals = np.frombuffer(fh.read(size), dtype="<f8")
    return vals.reshape(P, P, P).copy(), {"P": P, "L": L, "gamma": gamma, "t": t}

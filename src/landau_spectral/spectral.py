"""Spectral fields on the periodized velocity box [-L, L]^3.

Modes live in J_N = [-N, N-1]^3 with N = P/2 and hat normalization

    fhat(k) = int_{[-L,L]^3} f(v) exp(-i pi k.v/L) dv,
    f(v)    = (2L)^(-3) sum_{k in J_N} fhat(k) exp(i pi k.v/L),

so fhat(0) is the total mass.  Coefficients are stored in FFT frequency
order (0, 1, ..., N-1, -N, ..., -1 per axis).  Real-valued fields have
Hermitian-symmetric coefficients; the Nyquist planes k_i = -N have no
conjugate partner inside J_N and are therefore kept identically zero
(see ``project``), which keeps every state exactly real-valued.

The collocation grid has n points per axis at v_j = -L + 2Lj/n.  The
midpoint/rectangle rule on that grid is exact for band-limited fields,
which is what makes the discrete transform pair below an exact inverse
pair.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

_CUTOFF_SHAPES = ("paper", "smooth", "none")

# scipy.fft worker count used by every transform in the package.
_fft_workers = 1


def set_fft_workers(n: int) -> None:
    """Set the thread count for all FFT calls (1 = serial, deterministic default)."""
    global _fft_workers
    if n < 1:
        raise ValueError(f"fft worker count must be >= 1, got {n}")
    _fft_workers = int(n)


def get_fft_workers() -> int:
    return _fft_workers


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
    oversample : int
        Collocation refinement factor used when multiplying by the cutoff.
    cutoff_shape : {"paper", "smooth", "none"}
        Profile of the radial cutoff function psi_R.
    """

    L: float
    P: int
    gamma: float = -3.0
    R: float | None = None
    oversample: int = 2
    cutoff_shape: str = "paper"

    def __post_init__(self):
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.R is None:
            object.__setattr__(self, "R", float(self.L))
        else:
            object.__setattr__(self, "R", float(self.R))
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L}")
        if self.P < 4 or self.P % 2 != 0:
            raise ValueError(f"P must be even and >= 4, got {self.P}")
        if not -4.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [-4, 1], got {self.gamma}")
        if not 0.0 < self.R <= self.L:
            raise ValueError(f"R must satisfy 0 < R <= L, got R={self.R}, L={self.L}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")
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


@lru_cache(maxsize=32)
def _mode_ints(P: int) -> np.ndarray:
    """Integer mode numbers in FFT order: [0..N-1, -N..-1]."""
    return np.fft.fftfreq(P, d=1.0 / P).astype(np.int64)


@lru_cache(maxsize=32)
def _phase3(P: int) -> np.ndarray:
    """(-1)^(k1+k2+k3) over the mode set; relates samples on [-L, L) to DFT order."""
    s = 1.0 - 2.0 * (np.abs(_mode_ints(P)) % 2).astype(np.float64)
    return s[:, None, None] * s[None, :, None] * s[None, None, :]


def _embed_idx(P: int, n: int) -> np.ndarray:
    """Slot indices of the P-mode set inside an n-point FFT-order axis."""
    N = P // 2
    return np.concatenate([np.arange(N), np.arange(n - N, n)])


def _fftn(a):
    return _sfft.fftn(a, axes=(-3, -2, -1), workers=_fft_workers)


def _ifftn(a):
    return _sfft.ifftn(a, axes=(-3, -2, -1), workers=_fft_workers)


def _pad_axis(a: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Zero-pad FFT-order ``axis`` of ``a`` from P to n slots (``a`` itself at n = P)."""
    P = a.shape[axis]
    if n == P:
        return a
    N = P // 2
    out = np.zeros(a.shape[:axis] + (n,) + a.shape[axis + 1 :], dtype=a.dtype)
    dst, src = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
    dst[:N], dst[n - N :] = src[:N], src[N:]
    return out


def _modes_to_values(src: np.ndarray, n: int) -> np.ndarray:
    """Real values on an n^3 grid from the coefficients of a real field.

    Reads the k3 >= 0 half ``src[:, :, :N]`` only, so ``src`` is the whole
    (P, P, P) array or just that (P, P, N) half (the caller guarantees
    Hermitian symmetry and zeroed Nyquist planes).  Axis 0 is zero-padded
    to n and transformed on its P*N columns, then axis 1 on n*N, then a
    c2r pass runs along axis 2: the 1-D transforms of a full irfftn minus
    the all-zero ones.
    """
    P = src.shape[0]
    a = src[:, :, : P // 2]
    for axis in (0, 1):  # the padded copies are ours to transform in place
        a = _sfft.ifftn(_pad_axis(a, axis, n), axes=(axis,), overwrite_x=n > P,
                        workers=_fft_workers)
    return _sfft.irfftn(a, s=(n,), axes=(2,), workers=_fft_workers)


def _values_to_rows(vals: np.ndarray, P: int) -> np.ndarray:
    """DFT of real samples on an n^3 grid at k3 = 0..N and, on axes 0 and 1,
    the rows k = -N..N (all n = P rows when there is nothing to prune).

    The mirror image of ``_modes_to_values``: an r2c pass along axis 2
    keeps k3 = 0..N, then passes along axes 0 and 1 each keep the rows
    k = -N..N.  The k = +N row is the conjugate partner of the k = -N
    Nyquist row.
    """
    N = P // 2
    n = vals.shape[0]
    if n == P:  # nothing to prune
        return _sfft.rfftn(vals, axes=(0, 1, 2), workers=_fft_workers)
    keep = np.r_[: N + 1, n - N : n]
    a = _sfft.rfftn(vals, axes=(2,), workers=_fft_workers)[:, :, : N + 1]
    a = _sfft.fftn(a, axes=(0,), workers=_fft_workers).take(keep, axis=0)
    a = _sfft.fftn(a, axes=(1,), overwrite_x=True,  # a is the copy take made
                   workers=_fft_workers).take(keep, axis=1)
    return a


def _row_index(P: int, M: int):
    """Rows of the modes of J_N, and of their negatives, among M kept rows."""
    k = _mode_ints(P)
    return k % M, -k % M


def _rows_to_half(a: np.ndarray, P: int) -> np.ndarray:
    """The (P, P, N) k3 >= 0 half, FFT order, of the kept rows ``a``."""
    pos, _ = _row_index(P, a.shape[0])
    return a[np.ix_(pos, pos, np.arange(P // 2))]


def _values_to_modes(vals: np.ndarray, P: int) -> np.ndarray:
    """DFT values at every mode of J_N of real samples on an n^3 grid.

    Unprojected: negative k3 are rebuilt from the partner (-k1,-k2,-k3) of
    the kept rows by conjugation, the k3 = -N plane from k3 = +N.
    """
    N = P // 2
    a = _values_to_rows(vals, P)
    _, neg = _row_index(P, a.shape[0])
    out = np.empty((P, P, P), dtype=np.complex128)
    out[:, :, :N] = _rows_to_half(a, P)
    out[:, :, N:] = np.conj(a[np.ix_(neg, neg, np.arange(N, 0, -1))])
    return out


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


def _half_to_values(src: np.ndarray, grid: GridSpec, n: int) -> np.ndarray:
    """Point values on the n^3 grid of a real field from its k3 >= 0 half
    ``src[:, :, :N]`` (``src`` is the whole array or just that half)."""
    N = grid.N
    vals = _modes_to_values(src[:, :, :N] * _phase3(grid.P)[:, :, :N], n)
    vals *= n**3 / (2.0 * grid.L) ** 3
    return vals


def _values_to_half(vals: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Projected k3 >= 0 half of the rectangle-rule coefficients of samples."""
    P = grid.P
    half = _rows_to_half(_values_to_rows(vals, P), P)
    half *= _phase3(P)[:, :, : P // 2] * (2.0 * grid.L / vals.shape[0]) ** 3
    return _project_half(half)


def _check_hermitian(fhat: SpectralField) -> None:
    """Raise unless coefficients describe a real field (relative tol 1e-12)."""
    data = fhat.data
    P = fhat.grid.P
    N = P // 2
    scale = np.max(np.abs(data))
    if scale == 0.0:
        return
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
    (projection) and the Nyquist planes are zeroed.  Above n = P the
    transform runs one axis at a time and keeps only the rows of the
    modes -N..N after each pass (``_values_to_rows``).  The k3 >= 0 half
    is computed and the negative k3 are its conjugates (``_assemble``).
    """
    grid = field.grid
    P = grid.P
    if field.n % P != 0:
        raise ShapeMismatchError(f"grid size {field.n} is not a multiple of P={P}")
    return SpectralField(_assemble(_values_to_half(field.data, grid)), grid)


def to_physical(fhat: SpectralField, n: int | None = None) -> PhysicalField:
    """Inverse transform to point values on an n^3 grid (n >= P, multiple of P).

    The coefficients must describe a real field; violations of Hermitian
    symmetry beyond 1e-12 (relative) raise ``HermitianSymmetryError``.
    Only the k3 >= 0 half is transformed, one axis at a time, skipping
    the all-zero columns of the zero-padded spectrum (``_modes_to_values``).
    """
    grid = fhat.grid
    P = grid.P
    if n is None:
        n = P
    if n % P != 0 or n < P:
        raise ShapeMismatchError(f"output grid size {n} is not a multiple of P={P}")
    _check_hermitian(fhat)
    return PhysicalField(_half_to_values(fhat.data, grid, n), grid)


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
    v = velocity_axis(grid, n)
    r = np.sqrt(v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2)
    return _psi_profile(r, grid)


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
    _check_hermitian(fhat)
    return SpectralField(_assemble(_cutoff_half(fhat.data, grid)), grid)


def _cutoff_half(src: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Projected k3 >= 0 half of P_N(u psi_R), read from the k3 >= 0 half
    ``src[:, :, :N]`` of a real field u; ``src`` is left as it is.  With
    cutoff_shape == "none" this is a projected copy of that half."""
    half = src[:, :, : grid.N]
    if grid.cutoff_shape == "none":
        return _project_half(half.copy())
    n = grid.oversample * grid.P
    vals = _half_to_values(half, grid, n)
    vals *= _psi_grid_values(grid, n)
    return _values_to_half(vals, grid)


def padded_size(grid: GridSpec) -> int:
    """Transform size Q per axis for the mode convolutions on ``grid``.

    Sums l + m of modes in [-N, N-1] lie in [-2N, 2N-2], so an image
    l + m -/+ Q can land back in J_N only when Q <= 3N - 1 (at l + m = -2N
    it lands on N - 1).  Q is therefore the smallest FFT-friendly size
    >= 3N, Orszag's 3/2 rule.
    """
    return _sfft.next_fast_len(3 * grid.N, real=True)


def _padded_values(coeffs: np.ndarray, Q: int) -> np.ndarray:
    """Inverse DFT of (P,P,P) coefficients zero-padded to a Q^3 grid."""
    idx = _embed_idx(coeffs.shape[0], Q)
    big = np.zeros((Q, Q, Q), dtype=np.complex128)
    big[np.ix_(idx, idx, idx)] = coeffs
    return _ifftn(big)


def convolve_pairs(pairs, P: int, Q: int, hermitian: bool = False) -> np.ndarray:
    """sum_t conv(x_t, y_t) on J_N for (P,P,P) FFT-order pairs (x_t, y_t).

    The products of the padded point values share one accumulator and one
    forward transform.  Q >= 3N gives the literal truncated sums; Q < 3N
    aliases (``padded_size``).  ``hermitian`` operands must be
    coefficients of real fields (Hermitian, zero Nyquist planes); only
    their k3 >= 0 halves are read (``_convolve_real``) and the result is
    unprojected.  Otherwise any coefficients go through full complex
    transforms.
    """
    if hermitian:
        return _convolve_real(pairs, P, Q, full=True)
    acc = None
    for x, y in pairs:
        prod = _padded_values(x, Q)
        prod *= _padded_values(y, Q)
        acc = prod if acc is None else np.add(acc, prod, out=acc)
    idx = _embed_idx(P, Q)
    out = _fftn(acc)[np.ix_(idx, idx, idx)]
    out *= float(Q) ** 3
    return out


def _convolve_real(pairs, P: int, Q: int, full: bool = False) -> np.ndarray:
    """sum_t conv(x_t, y_t) for coefficients (x_t, y_t) of real fields, read
    from their k3 >= 0 halves (whole arrays or (P, P, N) halves).

    Each factor is zero-padded to Q points per axis by pruned one-axis
    passes (``_modes_to_values``), the products share one accumulator, and
    one pruned forward pass (``_values_to_rows``) reads the modes back:
    the unprojected k3 >= 0 half, or with ``full`` the whole unprojected
    (P, P, P) array (``_values_to_modes``).
    """
    acc = None
    for x, y in pairs:
        prod = _modes_to_values(x, Q)
        prod *= _modes_to_values(y, Q)
        acc = prod if acc is None else np.add(acc, prod, out=acc)
    out = _values_to_modes(acc, P) if full else _rows_to_half(_values_to_rows(acc, P), P)
    out *= float(Q) ** 3
    return out


def truncated_convolution(xhat: SpectralField, yhat: SpectralField) -> SpectralField:
    """Mode-space convolution z(k) = sum_{l+m=k, l,m in J_N} x(l) y(m), k in J_N.

    Padded by the 3/2 rule, so this is the literal truncated double sum to
    rounding.  Complex transforms, so any coefficients are accepted.
    """
    if xhat.grid != yhat.grid:
        raise ShapeMismatchError("operands live on different grids")
    grid = xhat.grid
    Q = padded_size(grid)
    return SpectralField(convolve_pairs([(xhat.data, yhat.data)], grid.P, Q), grid)


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

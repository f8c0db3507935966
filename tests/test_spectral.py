"""Transforms, projection, cutoff, convolution, snapshot I/O."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from landau_spectral.spectral import (
    GridSpec,
    HermitianSymmetryError,
    PhysicalField,
    ShapeMismatchError,
    SnapshotFormatError,
    SpectralField,
    apply_cutoff,
    padded_size,
    project,
    psi_R,
    read_snapshot,
    to_physical,
    to_spectral,
    truncated_convolution,
    velocity_axis,
    write_snapshot,
)
from landau_spectral.spectral import (
    _LSFD_HEADER,
    _check_hermitian,
    _convolution_transforms,
    _even_octant,
    _modes_to_values,
    _next_fast_len,
    _octant_matrices,
    _octant_to_full,
    _octant_to_values,
    _phase3,
    _psi_grid_values,
    _values_to_octant,
    _values_to_rows,
)


def _grid(P=8, L=2.0, **kw):
    return GridSpec(L=L, P=P, gamma=-3.0, **kw)


# ---------------------------------------------------------------------------
# mode convention and transform pair
# ---------------------------------------------------------------------------

def test_constant_field_transforms_to_mass_at_zero():
    grid = _grid()
    c = 0.7
    vals = np.full((grid.P,) * 3, c)
    fhat = to_spectral(PhysicalField(vals, grid))
    # fhat(0) = integral of f = c (2L)^3, everything else zero
    assert fhat.data[0, 0, 0] == pytest.approx(c * (2 * grid.L) ** 3, rel=1e-14)
    rest = fhat.data.copy()
    rest[0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12 * abs(fhat.data[0, 0, 0])


def test_trig_sum_recovers_known_coefficients():
    # f = 1 + cos(pi v1/L)/2 + sin(2 pi v2/L)/4 has four nonzero modes with
    # coefficients that follow from Euler's formula and fhat(k) = a_k (2L)^3
    grid = _grid(P=8, L=1.5)
    v = velocity_axis(grid)
    V1 = v[:, None, None]
    V2 = v[None, :, None]
    f = 1.0 + 0.5 * np.cos(np.pi * V1 / grid.L) + 0.25 * np.sin(2 * np.pi * V2 / grid.L)
    f = np.broadcast_to(f, (grid.P,) * 3).copy()
    fhat = to_spectral(PhysicalField(f, grid))
    vol = (2 * grid.L) ** 3
    assert fhat.data[0, 0, 0] == pytest.approx(vol, rel=1e-14)
    assert fhat.data[1, 0, 0] == pytest.approx(0.25 * vol, abs=1e-12 * vol)
    assert fhat.data[-1, 0, 0] == pytest.approx(0.25 * vol, abs=1e-12 * vol)
    assert fhat.data[0, 2, 0] == pytest.approx(-0.125j * vol, abs=1e-12 * vol)
    assert fhat.data[0, -2, 0] == pytest.approx(0.125j * vol, abs=1e-12 * vol)
    # nothing else
    mask = np.zeros_like(f, dtype=bool)
    for idx in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0)]:
        mask[idx] = True
    assert np.max(np.abs(fhat.data[~mask])) < 1e-12 * vol


def test_single_mode_synthesis():
    # one Hermitian pair of unit coefficients synthesizes 2 cos/(2L)^3
    grid = _grid(P=8, L=2.0)
    fhat = SpectralField.zeros(grid)
    fhat.data[0, 1, 0] = 1.0
    fhat.data[0, -1, 0] = 1.0
    f = to_physical(fhat)
    v = velocity_axis(grid)
    expect = 2.0 * np.cos(np.pi * v / grid.L) / (2 * grid.L) ** 3
    assert np.allclose(f.data[0, :, 0], expect, atol=1e-15)


def test_round_trip_native_and_oversampled(rng):
    grid = _grid(P=10, L=3.0)
    vals = rng.standard_normal((grid.P,) * 3)
    fhat = to_spectral(PhysicalField(vals, grid))
    for n in (grid.P, 2 * grid.P, 3 * grid.P):
        back = to_spectral(to_physical(fhat, n))
        assert np.max(np.abs(back.data - fhat.data)) < 1e-12 * np.max(np.abs(fhat.data))


def test_parseval_ties_both_norms(rng):
    grid = _grid(P=8)
    vals = rng.standard_normal((grid.P,) * 3)
    fhat = to_spectral(PhysicalField(vals, grid))
    f = to_physical(fhat)
    # the projection removed the Nyquist content, so compare after synthesis
    assert f.l2() == pytest.approx(fhat.l2(), rel=1e-12)


def test_to_spectral_rejects_bad_grid_size():
    grid = _grid(P=8)
    with pytest.raises(ShapeMismatchError):
        to_spectral(PhysicalField(np.zeros((12, 12, 12)), grid))


def test_to_physical_rejects_bad_sizes():
    grid = _grid(P=8)
    fhat = SpectralField.zeros(grid)
    with pytest.raises(ShapeMismatchError):
        to_physical(fhat, 12)
    with pytest.raises(ShapeMismatchError):
        to_physical(fhat, 4)


def test_to_physical_rejects_non_hermitian():
    grid = _grid(P=8)
    fhat = SpectralField.zeros(grid)
    fhat.data[1, 2, 3] = 1.0  # no conjugate partner
    with pytest.raises(HermitianSymmetryError):
        to_physical(fhat)


def test_velocity_axis():
    grid = _grid(P=8, L=2.0)
    v = velocity_axis(grid)
    assert v[0] == -2.0
    assert v[-1] == pytest.approx(2.0 - 0.5)  # +L itself is excluded
    assert np.allclose(np.diff(v), 0.5)
    assert velocity_axis(grid, 16).shape == (16,)


# ---------------------------------------------------------------------------
# projection hygiene
# ---------------------------------------------------------------------------

def test_project_zeros_nyquist_planes_and_is_idempotent(rng):
    grid = _grid(P=8)
    raw = SpectralField(
        rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8)), grid
    )
    p1 = project(raw)
    N = grid.N
    assert np.all(p1.data[N, :, :] == 0)
    assert np.all(p1.data[:, N, :] == 0)
    assert np.all(p1.data[:, :, N] == 0)
    # untouched away from the planes
    assert p1.data[1, 2, 3] == raw.data[1, 2, 3]
    p2 = project(p1)
    assert np.array_equal(p2.data, p1.data)


# ---------------------------------------------------------------------------
# velocity cutoff
# ---------------------------------------------------------------------------

def test_psi_values_paper_shape():
    grid = _grid(P=8, L=2.0)  # R defaults to L
    R = grid.R
    assert psi_R((0.0, 0.0, 0.0), grid) == 1.0
    assert psi_R((0.5 * R, 0.0, 0.0), grid) == 1.0
    assert psi_R((0.0, 0.95 * R, 0.0), grid) == pytest.approx(0.5, rel=1e-12)
    assert psi_R((0.0, 0.0, R), grid) == pytest.approx(0.0, abs=1e-12)
    assert psi_R((0.0, 0.0, 1.2 * R), grid) == 0.0
    # continuity at the inner edge of the ramp
    assert psi_R((0.9 * R - 1e-12, 0.0, 0.0), grid) == pytest.approx(1.0)
    assert psi_R((0.9 * R + 1e-12, 0.0, 0.0), grid) == pytest.approx(1.0, rel=1e-9)


def test_psi_values_smooth_shape():
    grid = _grid(P=8, L=2.0, cutoff_shape="smooth")
    R = grid.R
    assert psi_R((0.5 * R, 0.0, 0.0), grid) == 1.0
    assert psi_R((0.95 * R, 0.0, 0.0), grid) == pytest.approx(0.5, rel=1e-12)
    assert psi_R((R, 0.0, 0.0), grid) == pytest.approx(0.0, abs=1e-12)
    # C^1: slope vanishes at both ends of the ramp (defect is O(eps^2))
    eps = 1e-8 * R
    lo = psi_R((0.9 * R + eps, 0.0, 0.0), grid)
    hi = psi_R((R - eps, 0.0, 0.0), grid)
    assert 1.0 - lo < 1e-12
    assert hi < 1e-12


def test_psi_none_is_identity_and_apply_cutoff_passthrough(rng):
    grid = _grid(P=8, cutoff_shape="none")
    assert psi_R((0.0, 0.0, 10.0), grid) == 1.0
    vals = rng.standard_normal((8, 8, 8))
    fhat = to_spectral(PhysicalField(vals, grid))
    assert apply_cutoff(fhat) is fhat


def test_apply_cutoff_keeps_interior_gaussian():
    # a bump well inside 0.9R is (nearly) untouched by the cutoff.  At P=24
    # the truncation ringing (~7e-9) and the tail at 0.9R = 3.6 (~2e-7) both
    # sit far below the bound, so a break in the cutoff shape or its
    # collocation would stand out.
    grid = _grid(P=24, L=4.0)
    v = velocity_axis(grid)
    r2 = v[:, None, None] ** 2 + v[None, :, None] ** 2 + v[None, None, :] ** 2
    f = np.exp(-r2 / (2 * 0.65**2))
    fhat = to_spectral(PhysicalField(f, grid))
    cut = apply_cutoff(fhat)
    assert (cut - fhat).l2() < 1e-4 * fhat.l2()
    # result is a genuine real field (synthesis does not raise)
    to_physical(cut)


def test_apply_cutoff_removes_exterior_mass():
    # the constant state loses the corners outside |v| > R
    grid = _grid(P=16, L=2.0)
    vals = np.ones((grid.P,) * 3)
    fhat = to_spectral(PhysicalField(vals, grid))
    cut = apply_cutoff(fhat)
    # mass ratio ~ measure({psi=1}) + ramp contribution, well below the box
    ratio = cut.data[0, 0, 0].real / fhat.data[0, 0, 0].real
    ball = 4 * np.pi / 3 * grid.R**3 / (2 * grid.L) ** 3  # ~0.5236 for R=L
    assert 0.8 * ball < ratio < 1.2 * ball


# ---------------------------------------------------------------------------
# truncated convolution
# ---------------------------------------------------------------------------

def _brute_convolution(x, y, P):
    """Literal double sum over J_N; the exact reference for small P."""
    N = P // 2
    ks = np.fft.fftfreq(P, 1.0 / P).astype(int)
    out = np.zeros((P, P, P), dtype=np.complex128)
    modes = [(i, j, k) for i in ks for j in ks for k in ks]
    table = {m: x[m[0] % P, m[1] % P, m[2] % P] for m in modes}
    for l in modes:
        xl = table[l]
        if xl == 0.0:
            continue
        for m in modes:
            s = (l[0] + m[0], l[1] + m[1], l[2] + m[2])
            if all(-N <= c < N for c in s):
                out[s[0] % P, s[1] % P, s[2] % P] += xl * y[m[0] % P, m[1] % P, m[2] % P]
    return out


def test_truncated_convolution_matches_brute_force(rng):
    grid = _grid(P=4, L=1.0)
    x = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), grid))
    y = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), grid))
    want = _brute_convolution(x.data, y.data, 4)
    got = truncated_convolution(x, y)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.data - want)) < 1e-13 * scale


def test_convolution_delta_shift(rng):
    # convolving with a delta at mode e shifts coefficients by e
    grid = _grid(P=8, L=1.0)
    x = to_spectral(PhysicalField(rng.standard_normal((8, 8, 8)), grid))
    d = SpectralField.zeros(grid)
    d.data[0, 0, 1] = 1.0
    z = truncated_convolution(x, d)
    N = grid.N
    ks = np.fft.fftfreq(8, 1.0 / 8).astype(int)
    for k3 in ks:
        src = k3 - 1
        want = x.data[2, 3, src % 8] if -N <= src < N else 0.0
        assert z.data[2, 3, k3 % 8] == pytest.approx(want, abs=1e-14)


def test_convolution_grid_mismatch_raises(rng):
    a = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), _grid(P=4)))
    b = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), _grid(P=4, L=3.0)))
    with pytest.raises(ShapeMismatchError):
        truncated_convolution(a, b)


def _padded_convolution(pairs, P, Q):
    """sum_t conv(x_t, y_t) on J_N by n-D complex transforms of zero-padded
    Q^3 cubes: a reference independent of the engine's code."""
    N = P // 2
    idx = np.r_[:N, Q - N : Q]
    ix = np.ix_(idx, idx, idx)
    acc = np.zeros((Q,) * 3, dtype=np.complex128)
    for x, y in pairs:
        X, Y = np.zeros_like(acc), np.zeros_like(acc)
        X[ix], Y[ix] = x, y
        acc += scipy.fft.ifftn(X) * scipy.fft.ifftn(Y)
    return scipy.fft.fftn(acc)[ix] * float(Q) ** 3


def test_hermitian_engine_matches_complex(rng):
    # the real engine runs on the k3 >= 0 halves of real fields
    grid = _grid(P=8, L=2.0)
    N = grid.N
    x = to_spectral(PhysicalField(rng.standard_normal((8, 8, 8)), grid)).data
    y = to_spectral(PhysicalField(rng.standard_normal((8, 8, 8)), grid)).data
    want = _padded_convolution([(x, y)], grid.P, 2 * grid.P)[:, :, :N]
    x, y = x[:, :, :N], y[:, :, :N]
    values, modes = _convolution_transforms(x.shape, grid.P, 2 * grid.P)
    got = modes(values(x) * values(y))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_hermitian_engine_accumulates_pairs(rng):
    grid = _grid(P=8, L=2.0)
    fields = [
        to_spectral(PhysicalField(rng.standard_normal((8, 8, 8)), grid))
        for _ in range(4)
    ]
    pairs = [(fields[0].data, fields[1].data), (fields[2].data, fields[3].data)]
    want = _padded_convolution(pairs, grid.P, 2 * grid.P)[:, :, : grid.N]
    # modes of a sum of products of halves: _collide's W0 and W1 rely on it
    halves = [(x[:, :, : grid.N], y[:, :, : grid.N]) for x, y in pairs]
    values, modes = _convolution_transforms(halves[0][0].shape, grid.P, 2 * grid.P)
    got = modes(sum(values(x) * values(y) for x, y in halves))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_padded_size_follows_three_halves_rule():
    assert [padded_size(_grid(P=P)) for P in (4, 8, 16, 32, 48)] == [6, 12, 24, 48, 72]
    # 3N = 33 has the factor 11; the next 5-smooth size is 36
    assert padded_size(_grid(P=22)) == 36
    assert all(_next_fast_len(n) == scipy.fft.next_fast_len(n, real=True) for n in range(1, 400))


@pytest.mark.parametrize("real", [False, True])
def test_engine_at_three_halves_matches_brute_force(rng, real):
    grid = _grid(P=6, L=1.0)
    x = to_spectral(PhysicalField(rng.standard_normal((6, 6, 6)), grid)).data
    y = to_spectral(PhysicalField(rng.standard_normal((6, 6, 6)), grid)).data
    cases = [(x, y)]
    if not real:  # arbitrary coefficients, and Hermitian ones whose Nyquist
        # planes are live: read on their k3 >= 0 halves only, these would miss
        cases = [(x + 1j * rng.standard_normal(x.shape), y + rng.standard_normal(y.shape)),
                 (_hermitian_modes(rng, 6), _hermitian_modes(rng, 6))]
    for x, y in cases:
        want = _brute_convolution(x, y, 6)
        got = truncated_convolution(SpectralField(x, grid), SpectralField(y, grid)).data
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_engine_one_short_of_three_halves_aliases(rng):
    # negative control: at Q = 3N - 1 the image of l + m = -2N lands on
    # N - 1, so the engine must miss the literal sum there
    shape = (6, 6, 6)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = _brute_convolution(x, y, 6)
    got = {}
    for Q in (8, 9):
        values, modes = _convolution_transforms(x.shape, 6, Q)
        got[Q] = modes(values(x) * values(y))
    assert np.max(np.abs(got[8] - want)) > 1e-6 * np.max(np.abs(want))
    assert np.max(np.abs(got[9] - want)) < 1e-13 * np.max(np.abs(want))


def test_convolution_transforms_choose_by_shape(rng):
    # the shape alone picks the pair: a whole pair takes complex transforms
    # of the Q^3 cube even when it is Hermitian, a k3 >= 0 half and a real
    # octant take real passes; each gives the literal sum on its block
    P, N = 6, 3
    grid = _grid(P=P, L=1.0)
    Q = padded_size(grid)
    x, y = (to_spectral(PhysicalField(rng.standard_normal((P,) * 3), grid)).data
            for _ in range(2))
    _check_hermitian(x)
    _check_hermitian(y)
    ox, oy = rng.standard_normal((N,) * 3), rng.standard_normal((N,) * 3)
    cases = [((x, y), (x, y), np.complex128, (Q, Q, Q)),
             ((x, y), (x[:, :, :N], y[:, :, :N]), np.float64, (Q, Q, Q)),
             ((_octant_to_full(ox), _octant_to_full(oy)), (ox, oy), np.float64,
              (Q // 2 + 1,) * 3)]
    for (a, b), (u, w), dtype, shape in cases:
        values, modes = _convolution_transforms(u.shape, P, Q)
        vu = values(u)
        assert (vu.dtype, vu.shape) == (dtype, shape)
        got = modes(vu * values(w))
        want = _brute_convolution(a, b, P)[tuple(slice(n) for n in u.shape)]
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def _fourier_sum(full, L, n):
    """sum_k x_k exp(i pi k.v_j/L) at the n^3 points v_j = -L + 2Lj/n, an
    explicit loop over the modes of the (P, P, P) coefficients x."""
    P = full.shape[0]
    k = np.fft.fftfreq(P, d=1.0 / P)
    v = -L + 2.0 * L * np.arange(n) / n
    E = np.exp(1j * np.pi * np.outer(v, k) / L)  # (n, P): one mode per column
    out = np.zeros((n, n, n), dtype=np.complex128)
    for k1, k2, k3 in np.ndindex(full.shape):
        if full[k1, k2, k3] != 0.0:
            out += full[k1, k2, k3] * (E[:, k1, None, None] * E[None, :, k2, None]
                                       * E[None, None, :, k3])
    return out


@pytest.mark.parametrize("P,n", [(4, 4), (4, 6), (4, 8), (10, 15)])
def test_each_pair_is_the_fourier_sum_at_the_grid_points(rng, P, n):
    # the one convention: every form's values are the paper's Fourier sum at
    # the grid's own points, sign included and unscaled, and its modes the
    # rectangle rule n^-3 sum_j that inverts them on the form's block
    N, m = P // 2, n // 2 + 1
    grid = _grid(P=P, L=1.8)
    real = to_spectral(PhysicalField(rng.standard_normal((P,) * 3), grid)).data
    octant = rng.standard_normal((N,) * 3)
    whole = rng.standard_normal((P,) * 3) + 1j * rng.standard_normal((P,) * 3)
    cases = ((octant, _octant_to_full(octant), (m,) * 3),
             (real[:, :, :N], real, (n,) * 3),
             (whole, whole, (n,) * 3))
    for x, full, block in cases:
        values, modes = _convolution_transforms(x.shape, P, n)
        want = _fourier_sum(full, grid.L, n)[tuple(map(slice, block))]
        got = values(x)
        assert got.shape == block
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(modes(got) - x)) < 1e-13 * np.max(np.abs(x))


# ---------------------------------------------------------------------------
# pruned one-axis transforms against the full transforms
# ---------------------------------------------------------------------------

_PRUNED_SIZES = [(P, n) for P in (4, 10, 16, 22, 32)
                 for n in sorted({P, 2 * P, 3 * P, padded_size(_grid(P=P))})]


def _sign(P):
    """(-1)^(k1+k2+k3) over the (P, P, P) mode set in FFT order: the
    Fourier sum's factor at the first grid point v_0 = -L."""
    s = (-1.0) ** np.abs(np.fft.fftfreq(P, d=1.0 / P).astype(int))
    return s[:, None, None] * s[None, :, None] * s[None, None, :]


def _full_inverse(src, n):
    """irfftn, unscaled, of the whole zero-padded (n, n, n/2+1) half
    spectrum of the signed coefficients: their Fourier sum at the grid
    points v_j = -L + 2Lj/n."""
    P = src.shape[0]
    N = P // 2
    idx = np.r_[:N, n - N : n]
    H = np.zeros((n, n, n // 2 + 1), dtype=np.complex128)
    H[np.ix_(idx, idx, np.arange(N))] = (src * _sign(P))[:, :, :N]
    return scipy.fft.irfftn(H, s=(n, n, n), norm="forward")


def _full_forward(vals, P):
    """The full complex DFT of the samples over n^3, signed, read at every
    mode of J_N: their rectangle-rule Fourier coefficients."""
    n = vals.shape[0]
    N = P // 2
    idx = np.r_[:N, n - N : n]
    return scipy.fft.fftn(vals, norm="forward")[np.ix_(idx, idx, idx)] * _sign(P)


def _hermitian_modes(rng, P):
    """DFT of random real samples: Hermitian, with nonzero Nyquist planes."""
    return scipy.fft.fftn(rng.standard_normal((P, P, P)))


@pytest.mark.parametrize("P,n", _PRUNED_SIZES)
def test_pruned_inverse_matches_full_irfftn(rng, P, n):
    src = _hermitian_modes(rng, P)
    want = _full_inverse(src, n)
    kept = src.copy()
    got = _modes_to_values(src, n)
    assert np.array_equal(src, kept)  # the input is not transformed in place
    assert got.shape == (n, n, n)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("P,n", _PRUNED_SIZES)
def test_pruned_forward_matches_full_dft(rng, P, n):
    # every entry of the unprojected k3 >= 0 half, the k1, k2 = -N Nyquist
    # rows included
    vals = rng.standard_normal((n, n, n))
    want = _full_forward(vals, P)[:, :, : P // 2]
    kept = vals.copy()
    got = _values_to_rows(vals, P)
    assert got.shape == (P, P, P // 2)
    assert np.array_equal(vals, kept)
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("P,n", _PRUNED_SIZES)
def test_octant_pair_matches_the_half_pair(rng, P, n):
    # on an axis-even real field the octant pair reads the samples
    # j = 0..n//2 of the half pair's values, and their even extension gives
    # the half pair's modes on the octant (odd n = 15 at P = 10)
    N, m = P // 2, n // 2 + 1
    octant = rng.standard_normal((N,) * 3)
    want = _modes_to_values(_octant_to_full(octant), n)[:m, :m, :m]
    got = _octant_to_values(octant, n)
    assert got.flags.c_contiguous and got.shape == (m,) * 3
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
    half = rng.standard_normal((m,) * 3)
    mirror = np.minimum(np.arange(n), n - np.arange(n))
    want = _values_to_rows(half[np.ix_(mirror, mirror, mirror)], P)[:N, :N, :N]
    got = _values_to_octant(half, n, N)
    assert got.flags.c_contiguous and got.shape == (N,) * 3
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


# every (N, n) of a run's octant pair; P = 10 pads to the odd n = 15
_MATRIX_SIZES = [(P // 2, n) for P in (8, 10, 16, 32, 48, 64)
                 for n in sorted({P, padded_size(_grid(P=P)), 2 * P})]


@pytest.mark.parametrize("N,n", _MATRIX_SIZES)
def test_octant_matrices_match_their_fft_definition(N, n):
    # the FFT is the oracle here only: the octant pair makes no FFT call;
    # the sign (-1)^k is exp(i pi k v_0/L) at the first point v_0 = -L
    m = n // 2 + 1
    sign = (-1.0) ** np.arange(N)
    inverse, forward, sine = _octant_matrices(N, n)
    cases = ((inverse, np.fft.irfft(np.diag(sign), n, axis=0, norm="forward")[:m]),
             (forward, sign[:, None] * np.fft.hfft(np.eye(m), n, axis=0, norm="forward")[:N]),
             (sine, np.fft.irfft(1j * np.diag(sign), n, axis=0, norm="forward")[:m]))
    for got, want in cases:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cached_arrays_are_read_only():
    # lru_cache hands every caller the same array: one in-place write would
    # corrupt every later right-hand side
    grid = _grid(P=8)
    for a in (_phase3(8), _psi_grid_values(grid, 16), *_octant_matrices(4, 12)):
        with pytest.raises(ValueError):
            a *= 2.0


def test_even_octant_rule(rng):
    # the octant stands for the field when it rebuilds the coefficients
    # within 1e-12 of the largest: even in each axis, real, no Nyquist planes
    P, N = 8, 4
    octant = rng.standard_normal((N,) * 3)
    even = _octant_to_full(octant)
    assert np.array_equal(_even_octant(even), octant)
    scale = np.max(np.abs(even))
    for entry, dev, ok in (((1, 2, 3), 1e-13, True), ((1, 2, 3), 1e-11, False),
                           ((7, 0, 0), 1e-11, False), ((N, 0, 0), 1e-11, False),
                           ((1, 0, 0), 1e-11j, False)):
        near = even.copy()
        near[entry] += dev * scale
        assert (_even_octant(near) is not None) == ok, (entry, dev)
    real = to_spectral(PhysicalField(rng.standard_normal((P,) * 3), _grid(P=P))).data
    _check_hermitian(real)  # a real field, but not an axis-even one
    assert _even_octant(real) is None


@pytest.mark.parametrize("P", [10, 16, 22])
def test_hermitian_engine_unprojected_output_matches_complex(rng, P):
    # the engine returns unprojected modes: the k1, k2 = -N rows of the real
    # path's halves must match the complex reference too (odd Q = 15 at P = 10)
    grid = _grid(P=P)
    Q = padded_size(grid)
    N = P // 2
    x, y = (to_spectral(PhysicalField(rng.standard_normal((P,) * 3), grid)).data
            for _ in range(2))
    want = _padded_convolution([(x, y)], P, Q)[:, :, :N]
    x, y = x[:, :, :N], y[:, :, :N]
    values, modes = _convolution_transforms(x.shape, P, Q)
    got = modes(values(x) * values(y))
    assert np.max(np.abs(want[N])) > 1e-3 * np.max(np.abs(want))  # Nyquist plane is live
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_padded_transforms_are_pure_across_grids_and_workers(rng):
    # the padded inverse transforms its padded copy in place (and reads the
    # input itself at n = P), the forward pass its row copy; runs interleaved
    # over grids and sizes must repeat their first results exactly and leave
    # inputs alone
    from landau_spectral.collision import q_scheme_rhs
    from landau_spectral.kernel import build_kernel_tables

    sizes = {P: sorted({P, 2 * P, 3 * P, padded_size(_grid(P=P))}) for P in (10, 16)}
    cases = [(P, sizes[P][i]) for i in range(4) for P in (10, 16)]
    grids = {P: _grid(P=P, L=1.8) for P in (10, 16)}
    tables = {P: build_kernel_tables(g) for P, g in grids.items()}
    src = {P: _hermitian_modes(rng, P) for P in grids}
    state = {P: to_spectral(PhysicalField(rng.standard_normal((P,) * 3) + 2.0, g))
             for P, g in grids.items()}

    def results(P, n):
        g, f = grids[P], state[P]
        out = [_modes_to_values(src[P], n), apply_cutoff(f).data,
               q_scheme_rhs(f, g, tables[P]).data]
        if n % P == 0:
            out.append(to_physical(f, n).data)
        return out

    kept = {P: (src[P].copy(), state[P].data.copy()) for P in grids}
    want = {case: results(*case) for case in cases}
    for case in cases + cases[::-1]:
        for a, b in zip(results(*case), want[case]):
            assert np.array_equal(a, b)
    for P in grids:
        assert np.array_equal(src[P], kept[P][0])
        assert np.array_equal(state[P].data, kept[P][1])


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

def test_spectral_field_arithmetic(rng):
    grid = _grid(P=4)
    a = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), grid))
    b = to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), grid))
    s = a + b
    assert np.array_equal(s.data, a.data + b.data)
    d = a - b
    assert np.array_equal(d.data, a.data - b.data)
    assert np.array_equal((2.0 * a).data, 2.0 * a.data)
    assert np.array_equal((a * 2.0).data, 2.0 * a.data)
    with pytest.raises(ShapeMismatchError):
        a + to_spectral(PhysicalField(rng.standard_normal((4, 4, 4)), _grid(P=4, L=9.0)))


def test_field_shape_checks():
    grid = _grid(P=8)
    with pytest.raises(ShapeMismatchError):
        SpectralField(np.zeros((4, 4, 4)), grid)
    with pytest.raises(ShapeMismatchError):
        PhysicalField(np.zeros((4, 4, 2)), grid)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(L=0.0, P=8)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=7)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=2)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=8, gamma=2.0)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=8, R=1.5)
    with pytest.raises(TypeError):  # the collocation refinement is a constant
        GridSpec(L=1.0, P=8, oversample=3)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=8, cutoff_shape="boxcar")
    g = GridSpec(L=2.0, P=8)
    assert g.R == 2.0 and g.N == 4


@pytest.mark.parametrize("P", [8.0, np.float64(8.0), 8.5, "8"])
def test_grid_spec_refuses_a_non_integer_P(P):
    # 8.0 would fail later, inside initial_state, as a slice index
    with pytest.raises(ValueError, match="P must be an integer"):
        GridSpec(L=1.8, P=P)


def test_grid_spec_takes_numpy_integers():
    assert GridSpec(L=1.8, P=np.int64(8)).N == 4


def test_grid_spec_blames_a_non_finite_box_on_L():
    for L in (np.nan, np.inf):
        with pytest.raises(ValueError, match="L must be finite"):
            GridSpec(L=L, P=8)


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path, rng):
    grid = _grid(P=8, L=2.5)
    vals = rng.standard_normal((8, 8, 8))
    path = tmp_path / "state.lsfd"
    write_snapshot(path, PhysicalField(vals, grid), t=1.25)
    back, hdr = read_snapshot(path)
    assert np.array_equal(back, vals)
    assert hdr == {"P": 8, "L": 2.5, "gamma": -3.0, "t": 1.25}


def test_snapshot_rejects_oversampled_grid(rng):
    grid = _grid(P=8)
    with pytest.raises(ShapeMismatchError):
        write_snapshot("unused", PhysicalField(np.zeros((16, 16, 16)), grid), 0.0)


def test_snapshot_rejects_bad_magic(tmp_path, rng):
    grid = _grid(P=4)
    path = tmp_path / "state.lsfd"
    write_snapshot(path, PhysicalField(rng.standard_normal((4, 4, 4)), grid), 0.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path, rng):
    grid = _grid(P=4)
    path = tmp_path / "state.lsfd"
    write_snapshot(path, PhysicalField(rng.standard_normal((4, 4, 4)), grid), 0.0)
    raw = path.read_bytes()
    for cut in (10, len(raw) - 5):  # inside header, mid-element in the data
        path.write_bytes(raw[:cut])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)


@pytest.mark.parametrize("P", [64, 2**20])
def test_snapshot_size_is_checked_before_reading(tmp_path, P):
    # a header claiming more values than the file holds fails without a
    # buffer of the claimed size (2 MB and 8 EB here) ever being requested
    path = tmp_path / "state.lsfd"
    path.write_bytes(_LSFD_HEADER.pack(b"LSFD", 1, P, 2.0, -3.0, 0.0) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotFormatError, match=f"header gives P={P}"):
            read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

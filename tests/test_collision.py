"""Bilinear collision operator: fast path vs direct sum, conservation, guards."""

import tracemalloc

import numpy as np
import pytest

from landau_spectral import spectral
from landau_spectral.collision import (
    CostGuardError,
    _collide,
    q_periodic_direct,
    q_periodic_fast,
    q_scheme_rhs,
)
from landau_spectral.kernel import beta_coulomb
from landau_spectral.spectral import (
    GridSpec,
    PhysicalField,
    ShapeMismatchError,
    SpectralField,
    _mode_ints,
    apply_cutoff,
    padded_size,
    project,
    to_spectral,
    truncated_convolution,
)


def _grid(P=8, L=2.0, **kw):
    return GridSpec(L=L, P=P, gamma=-3.0, **kw)


def _hermitian(grid, rng, scale=1.0):
    vals = scale * rng.standard_normal((grid.P,) * 3)
    return to_spectral(PhysicalField(vals, grid))


def _hat_l2(fhat):
    return float(np.sqrt(np.sum(np.abs(fhat.data) ** 2)))


def _term_pairs(gdata, hdata, tables):
    """The seven (first, second) coefficient products whose convolutions sum
    to (2L)^3 Qhat: a reference statement of the operator, independent of
    the rank form.  B(l)|m|^2 = sum_i B(l) m_i^2 rides on the diagonal
    C_ii + B; off-diagonal tensor terms carry their symmetry factor 2.

    l and m run over the same mode integers, so the mode coordinates serve
    both factors: the first forms C_ij = Cs l_i l_j, the second m_i m_j.
    The operands are (P, P, P) arrays or (P, P, N) k3 >= 0 halves; the
    tables are read on the same columns."""
    P, _, K = gdata.shape
    k = _mode_ints(P).astype(np.float64)
    m = (k[:, None, None], k[None, :, None], k[None, None, :K])
    A, B, Cs = tables.A[:, :, :K], tables.B[:, :, :K], tables.Cs[:, :, :K]
    yield A * gdata, hdata
    for i in range(3):
        yield (Cs * (m[i] * m[i]) + B) * gdata, (m[i] * m[i]) * hdata
    for i, j in ((0, 1), (0, 2), (1, 2)):
        yield (Cs * (m[i] * m[j])) * gdata, (2.0 * m[i] * m[j]) * hdata


def _sum_of_term_pairs(gdata, hdata, tables, Q):
    """The sum of the convolutions of ``_term_pairs``' seven products at Q
    points per axis, through the engine's transform pair: part of the
    reference."""
    pairs = list(_term_pairs(gdata, hdata, tables))
    values, modes = spectral._convolution_transforms(gdata.shape, gdata.shape[0], Q)
    return modes(sum(values(x) * values(y) for x, y in pairs))


def _count_padded_transforms(monkeypatch, Q):
    """Record the operands of the real inverse passes and the number of
    forward passes that run at Q points per axis, on halves and octants."""
    inverse, forward = [], [0]

    def count_inverse(fn):
        def counted(src, n):
            if n == Q:
                inverse.append(src)
            return fn(src, n)
        return counted

    def count_forward(fn, size):
        def counted(vals, *args):
            forward[0] += vals.shape[0] == size
            return fn(vals, *args)
        return counted

    for name in ("_modes_to_values", "_octant_to_values"):
        monkeypatch.setattr(spectral, name, count_inverse(getattr(spectral, name)))
    for name, size in (("_values_to_rows", Q), ("_values_to_octant", Q // 2 + 1)):
        monkeypatch.setattr(spectral, name, count_forward(getattr(spectral, name), size))
    return inverse, forward


def _even(grid, rng, scale=1.0):
    """A random axis-even real field and its real (N, N, N) octant."""
    octant = scale * rng.standard_normal((grid.N,) * 3)
    return SpectralField(spectral._octant_to_full(octant), grid), octant


# ---------------------------------------------------------------------------
# single-pair identities (the operator on delta inputs IS the kernel)
# ---------------------------------------------------------------------------

def test_delta_modes_reproduce_kernel_coefficient(tables_for):
    grid = _grid(P=8, L=2.0)
    tables = tables_for(grid)
    cases = [
        ((1, 0, 0), (0, 1, 0)),
        ((2, -1, 3), (-1, 2, 0)),
        ((0, 0, 0), (1, 2, -2)),
        ((3, 3, 3), (-2, -3, -1)),
    ]
    vol = (2 * grid.L) ** 3
    for l, m in cases:
        g = SpectralField.zeros(grid)
        h = SpectralField.zeros(grid)
        g.data[tuple(np.mod(l, grid.P))] = 1.0
        h.data[tuple(np.mod(m, grid.P))] = 1.0
        out = q_periodic_fast(g, h, tables)
        k = tuple(np.array(l) + np.array(m))
        want = beta_coulomb(l, m) / vol
        got = out.data[tuple(np.mod(k, grid.P))]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        # single nonzero entry
        rest = out.data.copy()
        rest[tuple(np.mod(k, grid.P))] = 0.0
        assert np.max(np.abs(rest)) < 1e-13 * (abs(want) + 1.0)


def test_delta_modes_outside_range_vanish(tables_for):
    # l + m leaves J_N: the truncated sum contributes nothing at all
    grid = _grid(P=8)
    tables = tables_for(grid)
    g = SpectralField.zeros(grid)
    h = SpectralField.zeros(grid)
    g.data[3, 0, 0] = 1.0  # mode (3, 0, 0)
    h.data[2, 0, 0] = 1.0  # mode (2, 0, 0) -> sum (5,0,0) outside [-4, 3]
    out = q_periodic_fast(g, h, tables)
    assert np.max(np.abs(out.data)) < 1e-15


# ---------------------------------------------------------------------------
# fast path against the literal double sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("P", [4, 6, 8])
def test_fast_matches_direct(P, tables_for, rng):
    # whole arrays take complex transforms whatever their symmetry: real
    # fields, and two near misses of one, a coefficient 1e-9 of the scale
    # off its conjugate and a Hermitian field with live Nyquist planes,
    # whose k3 >= 0 halves alone would miss the direct sum
    grid = _grid(P=P, L=1.7)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    h = _hermitian(grid, rng)
    off = g.data.copy()
    off[1, 0, 1] += 1e-9 * np.max(np.abs(off))
    live = np.fft.fftn(rng.standard_normal((P,) * 3))
    for x in (g, SpectralField(off, grid), SpectralField(live, grid)):
        fast = q_periodic_fast(x, h, tables)
        direct = q_periodic_direct(x, h)
        scale = np.max(np.abs(direct.data))
        assert np.max(np.abs(fast.data - direct.data)) < 1e-12 * scale


@pytest.mark.parametrize("P", [4, 6, 8, 16])
def test_real_transform_path_matches_direct(P, tables_for, rng, monkeypatch):
    # the path q_scheme_rhs takes for a state that is not axis-even: the
    # k3 >= 0 halves of projected real fields, whose shape selects the real
    # passes; the seven factors of the rank form are such halves too
    grid = _grid(P=P, L=1.7)
    N = grid.N
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    h = _hermitian(grid, rng)
    factors, _ = _count_padded_transforms(monkeypatch, padded_size(grid))
    fast = _collide(g.data[:, :, :N], h.data[:, :, :N], tables, padded_size(grid))
    assert len(factors) == 7
    assert all(a.shape == (P, P, N) for a in factors)
    direct = q_periodic_direct(g, h).data[:, :, :N]
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(fast - direct)) < 1e-12 * scale


@pytest.mark.parametrize("P", [8, 16])
def test_octant_collision_matches_direct(P, tables_for, rng, monkeypatch):
    # the path run marches axis-even states on: real octants, octant pair
    grid = _grid(P=P, L=1.7)
    N = grid.N
    tables = tables_for(grid)
    (g, go), (h, ho) = _even(grid, rng), _even(grid, rng)
    factors, forward = _count_padded_transforms(monkeypatch, padded_size(grid))
    fast = _collide(go, ho, tables, padded_size(grid))
    assert (len(factors), forward[0]) == (7, 3)
    assert all(a.shape == (N,) * 3 and a.dtype == np.float64 for a in factors)
    direct = q_periodic_direct(g, h).data
    assert np.max(np.abs(direct.imag)) < 1e-15 * np.max(np.abs(direct))
    direct = direct[:N, :N, :N]
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("shape", ["paper", "smooth", "none"])
@pytest.mark.parametrize("P", [8, 16])
def test_octant_scheme_rhs_is_the_octant_of_the_half_rhs(P, shape, tables_for, rng):
    # the right-hand side keeps an axis-even state axis-even, and its octant
    # form agrees with the half form to rounding, Nyquist planes included
    grid = _grid(P=P, L=1.8, cutoff_shape=shape)
    tables = tables_for(grid)
    f, octant = _even(grid, rng, scale=0.1)
    kept = octant.copy()
    want = q_scheme_rhs(f, grid, tables).data
    got = q_scheme_rhs(octant, grid, tables)
    assert np.array_equal(octant, kept)
    assert got.shape == (grid.N,) * 3 and got.dtype == np.float64
    dev = np.max(np.abs(spectral._octant_to_full(got) - want))
    assert dev < 1e-13 * np.max(np.abs(want))
    with pytest.raises(ShapeMismatchError):
        q_scheme_rhs(octant[:, :, :-1], grid, tables)


@pytest.mark.parametrize("P", [32, 48])
def test_three_halves_padding_matches_double_padding(P, tables_for, rng):
    grid = _grid(P=P, L=1.8)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    want = _sum_of_term_pairs(g.data, g.data, tables, 2 * P)
    got = _sum_of_term_pairs(g.data, g.data, tables, padded_size(grid))
    assert padded_size(grid) == 3 * P // 2
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("P", [32, 48])
def test_rank_form_matches_seven_pairs_and_double_padding(P, tables_for, rng):
    # the |k|^4 terms of the rank form cancel at high |k|, so it sits further
    # from the seven separate convolutions than they sit from each other:
    # measured 3.8e-14 (P = 32) and 1.6e-13 (P = 48) against the seven-pair
    # form, and 4.2e-14 and 2.0e-13 for 3N against 2P padding; bound 1e-12
    grid = _grid(P=P, L=1.8)
    tables = tables_for(grid)
    g = _hermitian(grid, rng).data
    Q = padded_size(grid)
    got = _collide(g, g, tables, Q)
    seven = _sum_of_term_pairs(g, g, tables, Q) / (2 * grid.L) ** 3
    scale = np.max(np.abs(seven))
    assert np.max(np.abs(got - seven)) <= 1e-12 * scale
    assert np.max(np.abs(got - _collide(g, g, tables, 2 * P))) <= 1e-12 * scale


def test_direct_sum_with_constant_kernel_is_a_convolution(rng):
    # with beta = 1 the double sum collapses to the truncated convolution;
    # also exercises the scalar-callable fallback inside the direct path
    grid = _grid(P=4, L=1.0)
    g = _hermitian(grid, rng)
    h = _hermitian(grid, rng)
    got = q_periodic_direct(g, h, beta=lambda l, m: 1.0)
    want = truncated_convolution(g, h).data / (2 * grid.L) ** 3
    assert np.max(np.abs(got.data - want)) < 1e-13 * np.max(np.abs(want))


def test_direct_sum_cost_guard(rng):
    grid = _grid(P=18)
    g = SpectralField.zeros(grid)
    with pytest.raises(CostGuardError):
        q_periodic_direct(g, g)
    # force=True runs (small smoke on an actually tiny grid)
    small = _grid(P=4)
    a = _hermitian(small, rng)
    q_periodic_direct(a, a, force=True)


# ---------------------------------------------------------------------------
# structural properties of the operator
# ---------------------------------------------------------------------------

def test_mass_mode_is_annihilated(tables_for, rng):
    # beta(l, -l) = 0 makes k = 0 a null output mode, for any input pair
    grid = _grid(P=8, L=2.0)
    tables = tables_for(grid)
    for _ in range(5):
        g = _hermitian(grid, rng)
        h = _hermitian(grid, rng)
        out = q_periodic_fast(g, h, tables)
        assert abs(out.data[0, 0, 0]) <= 1e-13 * _hat_l2(g) * _hat_l2(h)


def test_bilinearity(tables_for, rng):
    grid = _grid(P=6)
    tables = tables_for(grid)
    g1, g2, h = (_hermitian(grid, rng) for _ in range(3))
    a = 0.37
    lhs = q_periodic_fast(a * g1 + g2, h, tables)
    rhs = a * q_periodic_fast(g1, h, tables) + q_periodic_fast(g2, h, tables)
    scale = np.max(np.abs(rhs.data))
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12 * scale


def test_real_inputs_give_real_output(tables_for, rng):
    # Hermitian inputs produce Hermitian output (after the projection that
    # clears the unpaired -N planes the convolution can populate)
    grid = _grid(P=8)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    out = project(q_periodic_fast(g, g, tables))
    P = grid.P
    rev = (P - np.arange(P)) % P
    defect = np.max(np.abs(out.data - np.conj(out.data[np.ix_(rev, rev, rev)])))
    assert defect < 1e-12 * np.max(np.abs(out.data))


def test_operand_and_table_mismatches_raise(tables_for, rng):
    grid = _grid(P=8)
    other = _grid(P=8, L=3.0)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    h = _hermitian(other, rng)
    with pytest.raises(ShapeMismatchError):
        q_periodic_fast(g, h, tables)
    with pytest.raises(ShapeMismatchError):
        q_periodic_direct(g, h)
    with pytest.raises(ShapeMismatchError):
        q_periodic_fast(h, h, tables)  # tables belong to the L=2 grid


# ---------------------------------------------------------------------------
# scheme right-hand side
# ---------------------------------------------------------------------------

def test_scheme_rhs_without_cutoff_reduces_to_projected_operator(tables_for, rng):
    grid = _grid(P=8, cutoff_shape="none")
    tables = tables_for(grid)
    f = _hermitian(grid, rng)
    rhs = q_scheme_rhs(f, grid, tables)
    want = project(q_periodic_fast(project(f), project(f), tables))
    assert np.max(np.abs(rhs.data - want.data)) < 1e-12 * np.max(np.abs(want.data))


def test_scheme_rhs_is_real_and_projected(tables_for, rng):
    grid = _grid(P=8)
    tables = tables_for(grid)
    f = _hermitian(grid, rng, scale=0.1)
    rhs = q_scheme_rhs(f, grid, tables)
    N = grid.N
    assert np.all(rhs.data[N, :, :] == 0)
    assert np.all(rhs.data[:, N, :] == 0)
    assert np.all(rhs.data[:, :, N] == 0)
    P = grid.P
    rev = (P - np.arange(P)) % P
    defect = np.max(np.abs(rhs.data - np.conj(rhs.data[np.ix_(rev, rev, rev)])))
    assert defect < 1e-12 * np.max(np.abs(rhs.data))


@pytest.mark.parametrize("P", [8, 16, 32])
@pytest.mark.parametrize("shape", ["paper", "smooth", "none"])
def test_scheme_rhs_equals_the_public_stage_composition(P, shape, tables_for, rng):
    # the half-spectrum right-hand side is the composition of the public
    # full-array stages to rounding: q_periodic_fast collides the whole
    # arrays through complex transforms (worst seen 1.7e-13 relative, at
    # P = 32 with no cutoff).  The input's Nyquist planes are nonzero: at
    # 1e-13 of the scale, which apply_cutoff's Hermitian check accepts and
    # whose k1, k2 = -N rows its inverse transform reads; with no cutoff,
    # at full size (both sides project them away)
    grid = _grid(P=P, L=1.8, cutoff_shape=shape)
    tables = tables_for(grid)
    f = _hermitian(grid, rng, scale=0.1).data + 1.0
    N = grid.N
    size = 1.0 if shape == "none" else 1e-13 * np.max(np.abs(f))
    for axis in range(3):
        nyq = [slice(None)] * 3
        nyq[axis] = N
        f[tuple(nyq)] = size * rng.standard_normal((P, P))
    f = SpectralField(f, grid)
    kept = f.data.copy()
    F = project(apply_cutoff(f))
    want = project(apply_cutoff(project(q_periodic_fast(F, F, tables))))
    got = q_scheme_rhs(f, grid, tables)
    assert np.max(np.abs(got.data - want.data)) <= 1e-12 * np.max(np.abs(want.data))
    assert np.array_equal(f.data, kept)


def test_scheme_rhs_collision_makes_seven_inverse_and_three_forward_transforms(
    tables_for, rng, monkeypatch
):
    # the rank form: 4 first factors of g and 3 second factors of h, each
    # transformed once, and one forward pass per sum W0, W1, W2.  The
    # cutoffs transform at oversample * P = 16 points, not at Q = 12.  The
    # (P, P, N) halves select the real passes by their shape, so the march
    # pays no Hermitian check
    grid = _grid(P=8)
    Q = padded_size(grid)
    assert Q != grid.oversample * grid.P
    tables = tables_for(grid)
    f = _hermitian(grid, rng, scale=0.1)
    inverse, forward = _count_padded_transforms(monkeypatch, Q)
    checks = []
    check = spectral._check_hermitian
    monkeypatch.setattr(spectral, "_check_hermitian", lambda data: checks.append(check(data)))
    q_scheme_rhs(f, grid, tables)
    assert (len(inverse), forward[0], len(checks)) == (7, 3, 0)
    # an axis-even state's real octant takes the octant pair, as often
    inverse.clear()
    forward[0] = 0
    q_scheme_rhs(_even(grid, rng, scale=0.1)[1], grid, tables)
    assert (len(inverse), forward[0], len(checks)) == (7, 3, 0)
    assert all(a.shape == (grid.N,) * 3 for a in inverse)


def test_scheme_rhs_traced_peak_stays_small(tables_for, rng):
    # each sum is forward-transformed as soon as it is complete, so at most
    # five padded arrays are live: 6.2 MiB traced at P = 32, against 11.2 MiB
    # when all seven factors are transformed first
    grid = _grid(P=32, L=1.8)
    tables = tables_for(grid)
    f = _hermitian(grid, rng, scale=0.1)
    q_scheme_rhs(f, grid, tables)  # warm: the cache of cutoff values
    tracemalloc.start()
    try:
        q_scheme_rhs(f, grid, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_scheme_rhs_refuses_an_octant_that_is_not_real(tables_for, rng):
    # a complex (N, N, N) array is no octant state: its imaginary part would
    # be dropped by the real passes without a word
    grid = _grid(P=8)
    tables = tables_for(grid)
    octant = _even(grid, rng, scale=0.1)[1]
    noisy = octant + 0.01j * rng.standard_normal(octant.shape)
    with pytest.raises(ShapeMismatchError, match="complex128"):
        q_scheme_rhs(noisy, grid, tables)
    with pytest.raises(ShapeMismatchError, match="complex128"):
        q_scheme_rhs(octant.astype(np.complex128), grid, tables)


def test_scheme_rhs_grid_mismatch_raises(tables_for, rng):
    grid = _grid(P=8)
    tables = tables_for(grid)
    f = _hermitian(grid, rng)
    with pytest.raises(ShapeMismatchError):
        q_scheme_rhs(f, _grid(P=8, L=3.0), tables)

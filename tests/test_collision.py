"""Bilinear collision operator: fast path vs direct sum, conservation, guards."""

import numpy as np
import pytest

from landau_spectral.collision import (
    CostGuardError,
    _term_pairs,
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
    apply_cutoff,
    convolve_pairs,
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
    grid = _grid(P=P, L=1.7)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    h = _hermitian(grid, rng)
    fast = q_periodic_fast(g, h, tables)
    direct = q_periodic_direct(g, h)
    scale = np.max(np.abs(direct.data))
    assert np.max(np.abs(fast.data - direct.data)) < 1e-12 * scale


@pytest.mark.parametrize("P", [4, 6, 8, 16])
def test_real_transform_path_matches_direct(P, tables_for, rng):
    # the path q_scheme_rhs takes: projected real fields, real transforms
    grid = _grid(P=P, L=1.7)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    h = _hermitian(grid, rng)
    fast = q_periodic_fast(g, h, tables, hermitian=True)
    direct = q_periodic_direct(g, h)
    scale = np.max(np.abs(direct.data))
    assert np.max(np.abs(fast.data - direct.data)) < 1e-12 * scale


@pytest.mark.parametrize("P", [32, 48])
def test_three_halves_padding_matches_double_padding(P, tables_for, rng):
    grid = _grid(P=P, L=1.8)
    tables = tables_for(grid)
    g = _hermitian(grid, rng)
    want = convolve_pairs(_term_pairs(g.data, g.data, tables), P, 2 * P, hermitian=True)
    got = convolve_pairs(_term_pairs(g.data, g.data, tables), P, padded_size(grid),
                         hermitian=True)
    assert padded_size(grid) == 3 * P // 2
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    # the half-spectrum right-hand side is bit for bit the composition of the
    # public full-array stages.  The input's Nyquist planes are nonzero: at
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
    want = project(apply_cutoff(project(q_periodic_fast(F, F, tables, hermitian=True))))
    got = q_scheme_rhs(f, grid, tables)
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(f.data, kept)


def test_scheme_rhs_grid_mismatch_raises(tables_for, rng):
    grid = _grid(P=8)
    tables = tables_for(grid)
    f = _hermitian(grid, rng)
    with pytest.raises(ShapeMismatchError):
        q_scheme_rhs(f, _grid(P=8, L=3.0), tables)

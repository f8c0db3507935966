"""Moments, entropies, Fisher information, error norms, CSV output."""

import csv

import numpy as np
import pytest

from landau_spectral.diagnostics import (
    CSV_COLUMNS,
    DegenerateStateError,
    DiagnosticsRecord,
    MomentSet,
    entropy,
    error_norms,
    fisher,
    l2_distance,
    maxwellian_of,
    moments,
    record_row,
    relative_entropy,
    sample_state,
    write_csv,
)
from landau_spectral.exact import BkwParams, bkw
from landau_spectral.spectral import (
    GridSpec,
    PhysicalField,
    ShapeMismatchError,
    to_physical,
    to_spectral,
    velocity_axis,
)


def _vgrid(grid, n=None):
    v = velocity_axis(grid, n)
    return np.stack(
        np.broadcast_arrays(v[:, None, None], v[None, :, None], v[None, None, :]),
        axis=-1,
    )


def _maxwellian(grid, rho=1.0, u=(0.0, 0.0, 0.0), T=1.0, n=None):
    V = _vgrid(grid, n)
    d2 = np.sum((V - np.asarray(u)) ** 2, axis=-1)
    vals = rho * (2 * np.pi * T) ** -1.5 * np.exp(-d2 / (2 * T))
    return PhysicalField(vals, grid)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_of_drifting_maxwellian():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    rho, u, T = 2.0, np.array([0.3, -0.2, 0.1]), 0.8
    ms = moments(_maxwellian(grid, rho, u, T))
    assert ms.rho == pytest.approx(rho, rel=1e-12)
    assert np.allclose(ms.momentum, rho * u, atol=1e-12)
    assert np.allclose(ms.u, u, atol=1e-12)
    assert ms.T == pytest.approx(T, rel=1e-12)
    assert ms.energy == pytest.approx(rho * (3 * T + u @ u), rel=1e-12)


def test_moments_m4_of_centered_maxwellian():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    ms = moments(_maxwellian(grid, rho=1.4, T=0.9))
    # int |v|^4 M dv = 15 rho T^2
    assert ms.m4 == pytest.approx(15 * 1.4 * 0.9**2, rel=1e-10)


def test_mass_equals_zero_mode(rng):
    grid = GridSpec(L=2.0, P=8, gamma=-3.0)
    fhat = to_spectral(PhysicalField(rng.standard_normal((8, 8, 8)), grid))
    ms = moments(to_physical(fhat))
    assert ms.rho == pytest.approx(fhat.data[0, 0, 0].real, rel=1e-12)


# ---------------------------------------------------------------------------
# matching Maxwellian
# ---------------------------------------------------------------------------

def test_maxwellian_of_round_trips_moments():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    ms = moments(_maxwellian(grid, rho=0.7, u=(0.2, 0.0, -0.4), T=1.1))
    mu = maxwellian_of(ms, grid)
    ms2 = moments(mu)
    assert ms2.rho == pytest.approx(ms.rho, rel=1e-12)
    assert np.allclose(ms2.u, ms.u, atol=1e-12)
    assert ms2.T == pytest.approx(ms.T, rel=1e-11)


def test_maxwellian_of_degenerate_states():
    grid = GridSpec(L=2.0, P=8, gamma=-3.0)
    bad_rho = MomentSet(rho=-0.1, momentum=np.zeros(3), energy=1.0,
                        u=np.zeros(3), T=1.0, m4=1.0)
    with pytest.raises(DegenerateStateError):
        maxwellian_of(bad_rho, grid)
    bad_T = MomentSet(rho=1.0, momentum=np.zeros(3), energy=-3.0,
                      u=np.zeros(3), T=-1.0, m4=1.0)
    with pytest.raises(DegenerateStateError):
        maxwellian_of(bad_T, grid)


# ---------------------------------------------------------------------------
# entropy functionals
# ---------------------------------------------------------------------------

def test_entropy_of_maxwellian_closed_form():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    rho, T = 1.3, 0.7
    f = _maxwellian(grid, rho=rho, u=(0.2, 0.0, 0.0), T=T)
    # int M log M = rho (log(rho (2 pi T)^(-3/2)) - 3/2); drift-invariant
    want = rho * (np.log(rho * (2 * np.pi * T) ** -1.5) - 1.5)
    assert entropy(f) == pytest.approx(want, rel=1e-9)


def test_entropy_masks_nonpositive_cells():
    grid = GridSpec(L=1.0, P=4, gamma=-3.0)
    vals = np.full((4, 4, 4), 2.0)
    vals[0, 0, 0] = -1.0
    vals[1, 1, 1] = 0.0
    f = PhysicalField(vals, grid)
    w = (2.0 / 4) ** 3
    want = 62 * 2.0 * np.log(2.0) * w
    assert entropy(f) == pytest.approx(want, rel=1e-14)


def test_relative_entropy_closed_form():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    rho1, T1 = 1.0, 0.8
    rho2, T2 = 1.3, 1.1
    f = _maxwellian(grid, rho=rho1, T=T1)
    mu = _maxwellian(grid, rho=rho2, T=T2)
    want = (
        rho1 * (np.log(rho1 / rho2) + 1.5 * np.log(T2 / T1) + 1.5 * (T1 / T2 - 1.0))
        + rho2
        - rho1
    )
    assert relative_entropy(f, mu) == pytest.approx(want, rel=1e-9)


def test_relative_entropy_vanishes_on_itself_and_is_nonnegative(rng):
    grid = GridSpec(L=8.0, P=16, gamma=0.0)
    f = _maxwellian(grid, rho=0.9, T=1.2)
    assert relative_entropy(f, f) == pytest.approx(0.0, abs=1e-14)
    g = _maxwellian(grid, rho=0.9, u=(0.3, 0, 0), T=0.9)
    assert relative_entropy(f, g) > 0.0
    with pytest.raises(ValueError):
        relative_entropy(f, _maxwellian(grid, n=32))


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def test_fisher_of_maxwellian_closed_form():
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    rho, T = 1.0, 1.0
    fhat = to_spectral(_maxwellian(grid, rho=rho, T=T))
    # int |grad M|^2 / M = 3 rho / T
    assert fisher(fhat) == pytest.approx(3.0 * rho / T, rel=1e-6)
    hot = to_spectral(_maxwellian(grid, rho=0.5, T=2.0))
    assert fisher(hot) == pytest.approx(3.0 * 0.5 / 2.0, rel=1e-6)


def test_fisher_finiteness_on_ringing_tails():
    # the BKW state at moderate resolution has oscillatory near-zero tails;
    # masking must keep the functional finite
    grid = GridSpec(L=8.0, P=16, gamma=0.0)
    V = _vgrid(grid)
    fhat = to_spectral(PhysicalField(bkw(0.0, V, BkwParams()), grid))
    val = fisher(fhat)
    assert np.isfinite(val) and val > 0.0


# ---------------------------------------------------------------------------
# distances and error norms
# ---------------------------------------------------------------------------

def test_l2_distance_between_constants():
    grid = GridSpec(L=2.0, P=4, gamma=-3.0)
    f = PhysicalField(np.full((4, 4, 4), 1.5), grid)
    g = PhysicalField(np.full((4, 4, 4), 0.25), grid)
    assert l2_distance(f, g) == pytest.approx(1.25 * 4.0**1.5, rel=1e-14)


def test_error_norms_count_pointwise(rng):
    grid = GridSpec(L=2.0, P=4, gamma=-3.0)
    vals = rng.standard_normal((4, 4, 4))
    f = PhysicalField(vals, grid)
    e1, e2 = error_norms(f, lambda t, V: np.zeros(V.shape[:-1]), 0.0)
    assert e1 == pytest.approx(np.sum(np.abs(vals)), rel=1e-14)
    assert e2 == pytest.approx(np.sqrt(np.sum(vals**2)), rel=1e-14)
    # and against a shifted copy of itself
    e1, e2 = error_norms(f, lambda t, V: vals - 0.5, 0.0)
    assert e1 == pytest.approx(0.5 * vals.size, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling and CSV output
# ---------------------------------------------------------------------------

def _bkw_record(with_exact=False):
    grid = GridSpec(L=8.0, P=32, gamma=0.0)
    V = _vgrid(grid)
    p = BkwParams()
    fhat = to_spectral(PhysicalField(bkw(0.0, V, p), grid))
    exact = (lambda t, W: bkw(t, W, p)) if with_exact else None
    return sample_state(0.25, fhat, exact=exact)


def test_sample_state_values():
    rec = _bkw_record()
    assert rec.t == 0.25
    assert rec.mass == pytest.approx(1.0, abs=1e-9)
    # the Galerkin projection removes the state's Nyquist content (~7e-6 for
    # this datum), which shifts the r^2-weighted sum at the 1e-5 level
    assert rec.energy == pytest.approx(3.0, abs=2e-4)
    assert rec.rel_entropy >= 0.0
    assert rec.fisher > 0.0
    assert rec.negative_mass >= 0.0
    assert rec.min_f <= rec.mass
    assert rec.e1 is None and rec.e2 is None
    rec2 = _bkw_record(with_exact=True)
    assert rec2.e1 > 0.0 and rec2.e2 > 0.0


def test_sample_state_transforms_the_state_once(monkeypatch):
    # one checked inverse transform per sample; the Fisher information reuses
    # its values and equals the public fisher() bit for bit
    import landau_spectral.diagnostics as diagnostics

    calls = []
    inverse = diagnostics.to_physical

    def counted(fhat, n=None):
        calls.append(n)
        return inverse(fhat, n)

    grid = GridSpec(L=8.0, P=16, gamma=0.0, cutoff_shape="none")
    fhat = to_spectral(PhysicalField(bkw(0.0, _vgrid(grid), BkwParams()), grid))
    monkeypatch.setattr(diagnostics, "to_physical", counted)
    rec = sample_state(0.25, fhat)
    assert calls == [None]
    assert rec.fisher == fisher(fhat)


def test_csv_layout_and_round_trip(tmp_path):
    rec = _bkw_record(with_exact=True)
    bare = _bkw_record()
    path = tmp_path / "diag.csv"
    write_csv(path, [rec, bare])
    rows = list(csv.reader(path.open()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    # 17 significant digits survive the string round trip exactly
    assert float(rows[1][1]) == rec.mass
    assert float(rows[1][9]) == rec.fisher
    assert float(rows[1][-1]) == rec.e2
    # records without an exact reference leave the error cells empty
    assert rows[2][-2] == "" and rows[2][-1] == ""


def test_csv_bytes_are_deterministic(tmp_path):
    rec = _bkw_record(with_exact=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, [rec])
    write_csv(p2, [rec])
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_state_rejects_degenerate(rng):
    grid = GridSpec(L=2.0, P=8, gamma=-3.0)
    vals = -np.abs(rng.standard_normal((8, 8, 8)))
    fhat = to_spectral(PhysicalField(vals, grid))
    with pytest.raises(DegenerateStateError):
        sample_state(0.0, fhat)


def test_sample_state_checks_the_grid_it_is_given():
    # a field is sampled on its own grid; another grid given with it is an
    # error, not a silent substitute
    grid = GridSpec(L=1.8, P=8, gamma=-3.0)
    fhat = to_spectral(PhysicalField(_maxwellian(grid, T=0.2).data, grid))
    assert record_row(sample_state(0.0, fhat, grid=grid)) == record_row(sample_state(0.0, fhat))
    with pytest.raises(ShapeMismatchError, match="differs"):
        sample_state(0.0, fhat, grid=GridSpec(L=3.0, P=8, gamma=-3.0))


def test_diagnostics_record_defaults():
    rec = DiagnosticsRecord(
        t=0.0, mass=1.0, momentum=np.zeros(3), energy=3.0, m4=15.0,
        entropy=-1.0, rel_entropy=0.0, fisher=3.0, l2_to_maxwellian=0.0,
        min_f=0.0, negative_mass=0.0,
    )
    assert rec.e1 is None and rec.e2 is None

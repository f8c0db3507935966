"""RK4 stepping, run-loop plumbing, blow-up detection."""

import numpy as np
import pytest

from landau_spectral.exact import BkwParams, bkw
from landau_spectral.integrator import (
    BlowUpError,
    TimeConfig,
    initial_state,
    rk4_step,
    run,
)
from landau_spectral.spectral import GridSpec, SpectralField


def _bkw_grid(P=8, cutoff_shape="none", **kw):
    return GridSpec(L=8.0, P=P, gamma=0.0, cutoff_shape=cutoff_shape, **kw)


def _f0(params=BkwParams()):
    return lambda V: bkw(0.0, V, params)


# ---------------------------------------------------------------------------
# TimeConfig
# ---------------------------------------------------------------------------

def test_time_config_validation():
    with pytest.raises(ValueError):
        TimeConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=1.0, sample_every=0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.3, t_end=1.0)  # not an integer number of steps
    tc = TimeConfig(dt=0.25, t_end=1.0)
    assert tc.n_steps == 4
    assert TimeConfig(dt=0.1, t_end=0.0).n_steps == 0
    # multiples that are not exact binary fractions still pass
    assert TimeConfig(dt=0.1, t_end=0.7).n_steps == 7


@pytest.mark.parametrize("dt,t_end", [(0.05, np.inf), (np.nan, 1.0), (np.inf, 1.0),
                                      (0.05, np.nan)])
def test_time_config_rejects_non_finite_values(dt, t_end):
    # ValueError, not the OverflowError or NaN conversion error of round()
    with pytest.raises(ValueError, match="must be finite"):
        TimeConfig(dt=dt, t_end=t_end)


# ---------------------------------------------------------------------------
# the RK4 tableau
# ---------------------------------------------------------------------------

def test_rk4_step_matches_stability_polynomial():
    # for rhs = lambda*f a step must produce exactly
    # (1 + z + z^2/2 + z^3/6 + z^4/24) f with z = lambda dt
    grid = GridSpec(L=1.0, P=4, gamma=-3.0)
    f = SpectralField.zeros(grid)
    f.data[1, 2, 3] = 2.0 - 1.0j
    lam = -0.7 + 0.3j
    dt = 0.37
    out = rk4_step(f, dt, lambda g: lam * g)
    z = lam * dt
    R = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    want = R * f.data[1, 2, 3]
    assert out.data[1, 2, 3] == pytest.approx(want, rel=1e-14)
    # nothing leaks into other modes
    rest = out.data.copy()
    rest[1, 2, 3] = 0.0
    assert np.all(rest == 0.0)


def test_rk4_fourth_order_on_exponential():
    grid = GridSpec(L=1.0, P=4, gamma=-3.0)
    lam = -1.0
    errs = []
    for n in (8, 16, 32):
        f = SpectralField.zeros(grid)
        f.data[0, 0, 0] = 1.0
        dt = 1.0 / n
        for _ in range(n):
            f = rk4_step(f, dt, lambda g: lam * g)
        errs.append(abs(f.data[0, 0, 0] - np.exp(lam)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.15)


def test_rk4_zero_dt_returns_copy():
    grid = GridSpec(L=1.0, P=4, gamma=-3.0)
    f = SpectralField.zeros(grid)
    f.data[0, 0, 0] = 1.0
    out = rk4_step(f, 0.0, lambda g: g)
    assert out is not f and out.data is not f.data
    assert np.array_equal(out.data, f.data)


# ---------------------------------------------------------------------------
# initial state construction
# ---------------------------------------------------------------------------

def test_initial_state_mass_and_determinism():
    grid = _bkw_grid(P=16, cutoff_shape="paper")
    a = initial_state(_f0(), grid)
    b = initial_state(_f0(), grid)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.data[0, 0, 0].real == pytest.approx(1.0, abs=1e-3)


def test_initial_state_cutoff_removes_tail_mass():
    # with R = L/2 = 4 the cutoff clips the (small) BKW tail beyond 3.6
    plain = initial_state(_f0(), _bkw_grid(P=16))
    clipped = initial_state(_f0(), _bkw_grid(P=16, cutoff_shape="paper", R=4.0))
    m_plain = plain.data[0, 0, 0].real
    m_clip = clipped.data[0, 0, 0].real
    assert m_clip < m_plain
    assert m_plain - m_clip < 1e-3


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def test_run_emission_cadence(tables_for):
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    f0 = initial_state(_f0(), grid)
    recs = []
    samples = []
    final = run(
        f0,
        grid,
        tables,
        TimeConfig(dt=1e-3, t_end=4e-3, sample_every=3),
        sinks=[recs.append],
        on_sample=lambda step, t, fhat: samples.append(step),
    )
    # records at steps 0, 3, 4; on_sample at every step
    assert [r.t for r in recs] == pytest.approx([0.0, 3e-3, 4e-3])
    assert samples == [0, 1, 2, 3, 4]
    assert isinstance(final, SpectralField)


def test_run_zero_horizon_emits_single_record(tables_for):
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    f0 = initial_state(_f0(), grid)
    recs = []
    final = run(f0, grid, tables, TimeConfig(dt=0.1, t_end=0.0), sinks=[recs.append])
    assert len(recs) == 1 and recs[0].t == 0.0
    assert np.array_equal(final.data, f0.data)


def test_run_is_deterministic(tables_for):
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    tc = TimeConfig(dt=1e-3, t_end=5e-3)
    outs = []
    masses = []
    for _ in range(2):
        recs = []
        f = run(initial_state(_f0(), grid), grid, tables, tc, sinks=[recs.append])
        outs.append(f.data.tobytes())
        masses.append([r.mass for r in recs])
    assert outs[0] == outs[1]
    assert masses[0] == masses[1]


def test_run_fills_error_columns_with_exact(tables_for):
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    p = BkwParams()
    recs = []
    run(
        initial_state(_f0(p), grid),
        grid,
        tables,
        TimeConfig(dt=1e-3, t_end=2e-3),
        sinks=[recs.append],
        exact=lambda t, V: bkw(t, V, p),
    )
    assert all(r.e1 is not None and r.e2 is not None for r in recs)
    assert all(r.e2 > 0.0 for r in recs)


def test_run_rejects_foreign_grid(tables_for):
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    other = _bkw_grid(P=8, oversample=3)
    f0 = initial_state(_f0(), other)
    with pytest.raises(ValueError):
        run(f0, grid, tables, TimeConfig(dt=1e-3, t_end=1e-3))


def test_blow_up_raises_with_location(tables_for):
    # a wildly excessive step blows up the quadratic dynamics in a few steps
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    f0 = initial_state(_f0(), grid)
    with pytest.raises(BlowUpError) as exc:
        # sparse sampling: no diagnostics on the absurd pre-overflow states
        run(f0, grid, tables, TimeConfig(dt=10.0, t_end=100.0, sample_every=64))
    err = exc.value
    assert err.step >= 1
    assert err.last_good_t == pytest.approx((err.step - 1) * 10.0)
    assert "unstable" in str(err)

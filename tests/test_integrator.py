"""RK4 stepping, run-loop plumbing, blow-up detection."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from landau_spectral import diagnostics as diag
from landau_spectral import integrator, spectral
from landau_spectral.collision import q_scheme_rhs
from landau_spectral.exact import BkwParams, ShellParams, bkw, coulomb_shell
from landau_spectral.integrator import (
    BlowUpError,
    TimeConfig,
    initial_state,
    rk4_step,
    run,
)
from landau_spectral.spectral import (
    GridSpec,
    ShapeMismatchError,
    SpectralField,
    _even_octant,
    _octant_to_full,
)


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


def test_time_config_caps_the_step_count():
    # finite and an integer multiple, but 1e100 steps would never end
    with pytest.raises(ValueError, match=r"1e\+100 steps.*larger dt"):
        TimeConfig(dt=1e-300, t_end=1e-200)
    with pytest.raises(ValueError, match="larger dt"):
        TimeConfig(dt=1.0, t_end=1e9 + 1.0)
    assert TimeConfig(dt=1.0, t_end=1e9).n_steps == 10**9


@pytest.mark.parametrize("every", [2.5, 2.0, np.float64(2.0), "2"])
def test_time_config_refuses_a_non_integer_sample_every(every):
    # 2.5 would sample at the steps divisible by 2.5
    with pytest.raises(ValueError, match="sample_every must be an integer"):
        TimeConfig(dt=0.1, t_end=1.0, sample_every=every)
    assert TimeConfig(dt=0.1, t_end=1.0, sample_every=np.int64(2)).sample_every == 2


@pytest.mark.parametrize("dt,t_end", [(0.05, np.inf), (np.nan, 1.0), (np.inf, 1.0),
                                      (0.05, np.nan), (1e-300, 1e10)])
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


def test_initial_state_frees_the_sampling_stack():
    # f0 is sampled on an (n, n, n, 3) velocity stack at n = oversample * P;
    # nothing may keep it once the call returns (a grid no other test uses,
    # so no cache was warm before)
    grid = GridSpec(L=3.7, P=16, gamma=-3.0)
    n = grid.oversample * grid.P
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        initial_state(_f0(), grid)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < n**3 * 3 * 8


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


def _half_march(initial, grid, tables, time, exact=None):
    """The march on (P, P, P) coefficients: the right-hand side read on the
    k3 >= 0 half, every step sampled.  Returns the final state and rows."""
    f, rows = initial, [diag.record_row(diag.sample_state(0.0, initial, exact))]
    for step in range(1, time.n_steps + 1):
        f = rk4_step(f, time.dt, lambda g: q_scheme_rhs(g, grid, tables))
        rows.append(diag.record_row(diag.sample_state(step * time.dt, f, exact)))
    return f, rows


def _run_rows(initial, grid, tables, time, exact=None):
    recs = []
    final = run(initial, grid, tables, time, sinks=[recs.append], exact=exact)
    return final, [diag.record_row(r) for r in recs]


def test_run_marches_a_non_even_state_on_the_half(tables_for):
    # a drift along v1 breaks the v1 -> -v1 symmetry, so run keeps the
    # (P, P, P) march, bit for bit
    grid = _bkw_grid(P=8)
    tables = tables_for(grid)
    f0 = initial_state(lambda V: bkw(0.0, V, BkwParams()) * (1.0 + 0.1 * V[..., 0]), grid)
    assert _even_octant(f0.data) is None
    tc = TimeConfig(dt=1e-3, t_end=3e-3)
    final, rows = _run_rows(f0, grid, tables, tc)
    want, want_rows = _half_march(f0, grid, tables, tc)
    assert np.array_equal(final.data, want.data)
    assert rows == want_rows


# largest relative deviation per diagnostics.csv column of the octant march
# from the half march; the momenta are measured against mass * L
_OCTANT_TOLERANCE = {
    "mass": 1e-14, "mom_x": 1e-13, "mom_y": 1e-13, "mom_z": 1e-13, "energy": 1e-13,
    "m4": 1e-11, "entropy": 1e-12, "rel_entropy": 1e-11, "fisher": 1e-8,
    "l2_to_maxwellian": 1e-12, "min_f": 1e-8, "negative_mass": 1e-8, "e1": 1e-9,
    "e2": 1e-9,
}


@pytest.mark.parametrize("datum", ["shell", "bkw"])
def test_run_marches_axis_even_data_on_the_octant(datum, tables_for):
    if datum == "shell":
        grid = GridSpec(L=1.8, P=16, gamma=-3.0)
        f0 = initial_state(lambda V: coulomb_shell(V, ShellParams()), grid)
        tc, exact = TimeConfig(dt=0.05, t_end=0.2), None
    else:
        grid = _bkw_grid(P=16)
        f0 = initial_state(_f0(), grid)
        tc, exact = TimeConfig(dt=1e-3, t_end=5e-3), lambda t, V: bkw(t, V, BkwParams())
    tables = tables_for(grid)
    final, rows = _run_rows(f0, grid, tables, tc, exact)
    want, want_rows = _half_march(f0, grid, tables, tc, exact)
    assert rows[0] == want_rows[0]  # step 0 samples the initial state itself
    scale = np.max(np.abs(want.data))
    assert np.max(np.abs(final.data - want.data)) < 1e-13 * scale
    # the octant march keeps the state exactly axis-even
    rev = -np.arange(grid.P) % grid.P
    assert all(np.array_equal(final.data.take(rev, axis), final.data) for axis in range(3))
    for i, col in enumerate(diag.CSV_COLUMNS):
        if col == "t" or (exact is None and col in ("e1", "e2")):
            assert [r[i] for r in rows] == [r[i] for r in want_rows]
            continue
        got = np.array([float(r[i]) for r in rows])
        ref = np.array([float(r[i]) for r in want_rows])
        if col.startswith("mom_"):
            size = grid.L * np.array([float(r[1]) for r in want_rows])
        else:
            size = np.abs(ref)
        assert np.all(np.abs(got - ref) <= _OCTANT_TOLERANCE[col] * size), col


@pytest.mark.parametrize("datum,P", [("shell", 16), ("shell", 32), ("bkw", 16)])
def test_octant_sample_matches_the_full_sample(datum, P, tables_for):
    # the octant's mirror-weighted sums against sample_state on the rebuilt
    # (P, P, P) state, over a few octant steps; the shell's v = -L face makes
    # u nonzero, so the folded, non-even Maxwellian is exercised
    if datum == "shell":
        grid = GridSpec(L=1.8, P=P, gamma=-3.0)
        f0 = initial_state(lambda V: coulomb_shell(V, ShellParams()), grid)
        dt, exact = 0.05, None
    else:
        grid = _bkw_grid(P=P)
        f0 = initial_state(_f0(), grid)
        dt, exact = 1e-3, lambda t, V: bkw(t, V, BkwParams())
    tables = tables_for(grid)
    x = _even_octant(f0.data)
    got, want = [], []
    for step in range(3):
        t = step * dt
        rec = diag.sample_state(t, x, exact, grid=grid)
        got.append(diag.record_row(rec))
        want.append(diag.record_row(
            diag.sample_state(t, SpectralField(_octant_to_full(x), grid), exact)))
        x = rk4_step(x, dt, lambda g: q_scheme_rhs(g, grid, tables))
    assert all(float(r[2]) != 0.0 for r in got)  # the v = -L face: u != 0
    for i, col in enumerate(diag.CSV_COLUMNS):
        if col == "t" or (exact is None and col in ("e1", "e2")):
            assert [r[i] for r in got] == [r[i] for r in want]
            continue
        new = np.array([float(r[i]) for r in got])
        ref = np.array([float(r[i]) for r in want])
        size = grid.L * np.array([float(r[1]) for r in want]) if col.startswith("mom_") else np.abs(ref)
        assert np.all(np.abs(new - ref) <= _OCTANT_TOLERANCE[col] * size), col


@pytest.mark.parametrize("cutoff_shape", ["paper", "none"])
def test_octant_path_makes_no_fft_call(cutoff_shape, monkeypatch, tables_for):
    # the octant pair is matrix products alone, its matrices built in closed
    # form: an FFT called on this path would be a fallback to the old pair
    grid = _bkw_grid(P=8, cutoff_shape=cutoff_shape)
    tables = tables_for(grid)
    x = _even_octant(initial_state(_f0(), grid).data)
    want = q_scheme_rhs(x, grid, tables)
    spectral._octant_matrices.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft called on the octant path")

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert np.array_equal(q_scheme_rhs(x, grid, tables), want)
    rec = diag.sample_state(0.0, x, lambda t, V: bkw(t, V, BkwParams()), grid=grid)
    assert rec.e2 is not None


@pytest.mark.parametrize("cutoff_shape", ["paper", "none"])
def test_octant_path_never_reads_the_sign_cube(cutoff_shape, monkeypatch, tables_for):
    # the octant matrices hold the sign (-1)^k of the first grid point: a
    # stage that reads the (P, P, P) sign cube flips or rescales by hand
    grid = _bkw_grid(P=8, cutoff_shape=cutoff_shape)
    tables = tables_for(grid)
    x = _even_octant(initial_state(_f0(), grid).data)
    want = q_scheme_rhs(x, grid, tables)

    def refuse(*args, **kwargs):
        raise AssertionError("the sign cube read on the octant path")

    for module in (spectral, diag):  # diagnostics must not import its own copy
        monkeypatch.setattr(module, "_phase3", refuse, raising=False)
    assert np.array_equal(q_scheme_rhs(x, grid, tables), want)
    rec = diag.sample_state(0.0, x, lambda t, V: bkw(t, V, BkwParams()), grid=grid)
    assert rec.e2 is not None


_THREAD_PROBE = """
import hashlib
import numpy as np
from landau_spectral import diagnostics as diag
from landau_spectral.exact import ShellParams, coulomb_shell
from landau_spectral.integrator import TimeConfig, initial_state, run
from landau_spectral.kernel import build_kernel_tables
from landau_spectral.spectral import GridSpec, _octant_to_values, _values_to_octant, padded_size
grid = GridSpec(L=1.8, P=48, gamma=-3.0)
x = np.random.default_rng(5).standard_normal((grid.N,) * 3)
digest = hashlib.sha256()
for n in (grid.P, padded_size(grid), 2 * grid.P):
    vals = _octant_to_values(x, n)
    digest.update(vals.tobytes())
    digest.update(_values_to_octant(vals, n, grid.N).tobytes())
f0 = initial_state(lambda V: coulomb_shell(V, ShellParams()), grid)
recs = []
final = run(f0, grid, build_kernel_tables(grid), TimeConfig(dt=0.05, t_end=0.1),
            sinks=[recs.append])
digest.update(final.data.tobytes())
for rec in recs:
    digest.update(",".join(diag.record_row(rec)).encode())
print(len(recs), digest.hexdigest())
"""


def test_octant_bits_do_not_depend_on_the_blas_thread_count():
    # the octant pair's matrix products, at P = 48 and in a 2-step shell
    # march, give the same bytes on one BLAS thread as on two
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert out[0][0] == "3"  # steps 0, 1 and 2 sampled
    assert out[0] == out[1]


def test_octant_sample_rejects_negative_mass():
    grid = GridSpec(L=2.0, P=8, gamma=-3.0)
    x = np.zeros((4, 4, 4))
    x[0, 0, 0] = -1.0
    with pytest.raises(diag.DegenerateStateError):
        diag.sample_state(0.0, x, grid=grid)
    with pytest.raises(ValueError):  # an octant of another grid
        diag.sample_state(0.0, np.zeros((5, 5, 5)), grid=grid)


def test_octant_sample_refuses_an_octant_that_is_not_real():
    # a complex (N, N, N) array is no octant state: the DCT-Is would sample
    # only its real part
    grid = GridSpec(L=1.8, P=16, gamma=-3.0)
    x = _even_octant(initial_state(lambda V: coulomb_shell(V, ShellParams()), grid).data)
    noisy = x + 0.01j * np.max(np.abs(x)) * np.random.default_rng(3).standard_normal(x.shape)
    with pytest.raises(ShapeMismatchError, match="complex128"):
        diag.sample_state(0.0, noisy, grid=grid)
    with pytest.raises(ShapeMismatchError, match="octant"):
        diag.sample_state(0.0, x)  # an octant carries no grid


def test_octant_run_refuses_an_exact_solution_that_is_not_even(tables_for):
    grid = _bkw_grid(P=8)
    f0 = initial_state(_f0(), grid)
    drifted = lambda t, V: bkw(t, V, BkwParams()) * (1.0 + 0.1 * V[..., 0])
    recs = []
    with pytest.raises(ValueError, match="not even in each velocity axis"):
        run(f0, grid, tables_for(grid), TimeConfig(dt=1e-3, t_end=3e-3),
            sinks=[recs.append], exact=drifted)
    assert recs == []  # refused before any record, let alone step 1


def test_octant_run_samples_every_step_on_the_octant(monkeypatch, tables_for):
    # the benchmark's diagnostics probe wraps integrator.sample_state; an
    # octant march samples through it at every step, and rebuilds the
    # (P, P, P) state only for the return value when there is no on_sample
    grid = _bkw_grid(P=8)
    f0 = initial_state(_f0(), grid)
    samples, rebuilds = [], []
    sample, rebuild = integrator.sample_state, integrator._octant_to_full

    def counted_sample(t, fhat, exact=None, **kw):
        samples.append(type(fhat))
        return sample(t, fhat, exact, **kw)

    def counted_rebuild(octant):
        rebuilds.append(octant.shape)
        return rebuild(octant)

    monkeypatch.setattr(integrator, "sample_state", counted_sample)
    monkeypatch.setattr(integrator, "_octant_to_full", counted_rebuild)
    tc = TimeConfig(dt=1e-3, t_end=3e-3)
    run(f0, grid, tables_for(grid), tc)
    assert samples == [SpectralField] + [np.ndarray] * tc.n_steps
    assert rebuilds == [(4, 4, 4)]


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
    other = _bkw_grid(P=8, R=4.0)
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

"""Reference solutions, and the operator validated against their dynamics."""

import numpy as np
import pytest
from scipy.integrate import quad

from landau_spectral.collision import q_scheme_rhs
from landau_spectral.exact import BkwParams, ShellParams, bkw, coulomb_shell
from landau_spectral.spectral import GridSpec, PhysicalField, to_spectral, velocity_axis


# ---------------------------------------------------------------------------
# BKW profile
# ---------------------------------------------------------------------------

def test_bkw_scale_and_origin():
    p = BkwParams()
    assert p.S0 == pytest.approx(0.6)
    assert p.scale(0.0) == pytest.approx(0.6)
    # the classical amplitude starts on the positivity boundary: f(0, 0) = 0
    assert bkw(0.0, (0.0, 0.0, 0.0), p) == 0.0
    assert bkw(0.0, (0.1, 0.0, 0.0), p) > 0.0


def test_bkw_is_nonnegative_for_admissible_amplitudes():
    v = np.linspace(-6, 6, 41)
    V = np.stack(
        np.broadcast_arrays(v[:, None, None], v[None, :, None], v[None, None, :]),
        axis=-1,
    )
    for amp in (0.4, 0.25, 0.0):
        p = BkwParams(amplitude=amp)
        for t in (0.0, 0.3, 2.0):
            assert np.min(bkw(t, V, p)) >= 0.0


def test_bkw_mass_and_energy_are_time_invariant():
    p = BkwParams(rate=2.5, amplitude=0.35)
    for t in (0.0, 0.4, 1.7):
        f_r = lambda r: bkw(t, (r, 0.0, 0.0), p)
        mass = quad(lambda r: 4 * np.pi * r**2 * f_r(r), 0, 30, epsabs=1e-13)[0]
        energy = quad(lambda r: 4 * np.pi * r**4 * f_r(r), 0, 30, epsabs=1e-13)[0]
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert energy == pytest.approx(3.0, abs=1e-9)


def test_bkw_relaxes_to_unit_maxwellian():
    p = BkwParams()
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 2.0], [3.0, 3.0, 3.0]])
    maxw = (2 * np.pi) ** -1.5 * np.exp(-np.sum(pts**2, axis=-1) / 2)
    late = bkw(12.0, pts, p)
    assert np.max(np.abs(late - maxw)) < 1e-15


def test_bkw_params_validation():
    with pytest.raises(ValueError):
        BkwParams(rate=0.0)
    with pytest.raises(ValueError):
        BkwParams(amplitude=0.41)
    with pytest.raises(ValueError):
        BkwParams(amplitude=-0.1)


@pytest.mark.parametrize("kw", [{"rate": np.nan}, {"rate": np.inf}, {"amplitude": np.nan}])
def test_bkw_params_refuse_non_finite_values(kw):
    # the CLI refuses these already; a library caller gets the field's name
    # here instead of a NaN datum failing later
    with pytest.raises(ValueError, match=next(iter(kw))):
        BkwParams(**kw)


# ---------------------------------------------------------------------------
# shell profile
# ---------------------------------------------------------------------------

def test_shell_profile_values():
    p = ShellParams()  # sigma = 0.3, S = 10
    assert coulomb_shell((0.3, 0.0, 0.0), p) == pytest.approx(1e-2, rel=1e-14)
    assert coulomb_shell((0.0, 0.0, 0.0), p) == pytest.approx(1e-2 * np.exp(-10.0), rel=1e-13)
    # isotropy
    a = coulomb_shell((0.12, 0.2, -0.31), p)
    r = np.linalg.norm([0.12, 0.2, -0.31])
    b = coulomb_shell((r, 0.0, 0.0), p)
    assert a == pytest.approx(b, rel=1e-14)


def test_shell_params_validation():
    with pytest.raises(ValueError):
        ShellParams(sigma=0.0)
    with pytest.raises(ValueError):
        ShellParams(S=-1.0)


@pytest.mark.parametrize("kw", [{"sigma": np.nan}, {"sigma": np.inf}, {"S": np.nan},
                                {"S": np.inf}])
def test_shell_params_refuse_non_finite_values(kw):
    # a NaN datum would otherwise reach run and fail at step 0 with
    # "no Maxwellian for rho = nan", which names neither field
    with pytest.raises(ValueError, match=f"^{next(iter(kw))} must be finite"):
        ShellParams(**kw)


# ---------------------------------------------------------------------------
# the dynamics oracle: the discrete operator must reproduce d/dt of the
# analytic solution, and the agreement must improve spectrally with P
# ---------------------------------------------------------------------------

def _bkw_spectral(t, grid, params):
    v = velocity_axis(grid)
    V = np.stack(
        np.broadcast_arrays(v[:, None, None], v[None, :, None], v[None, None, :]),
        axis=-1,
    )
    return to_spectral(PhysicalField(bkw(t, V, params), grid))


def _dynamics_residual(P, tables_for, t=0.0, h=1e-5):
    # no velocity cutoff here: the comparison is against the free-space
    # solution, whose tails at L = 8 are ~1e-23 and thus invisible
    grid = GridSpec(L=8.0, P=P, gamma=0.0, cutoff_shape="none")
    tables = tables_for(grid)
    params = BkwParams()
    fhat = _bkw_spectral(t, grid, params)
    rhs = q_scheme_rhs(fhat, grid, tables)
    dfdt = (_bkw_spectral(t + h, grid, params) - _bkw_spectral(t - h, grid, params)) * (
        1.0 / (2 * h)
    )
    return (rhs - dfdt).l2() / dfdt.l2()


def test_operator_reproduces_bkw_dynamics(tables_for):
    assert _dynamics_residual(32, tables_for) < 5e-3


@pytest.mark.slow
def test_operator_dynamics_converges_spectrally(tables_for):
    r32 = _dynamics_residual(32, tables_for)
    r48 = _dynamics_residual(48, tables_for)
    assert r48 < 1e-6
    assert r48 < 1e-2 * r32

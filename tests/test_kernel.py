"""Collision kernel coefficients: closed forms, quadrature, tables."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_spectral.kernel import (
    BetaParams,
    QuadratureError,
    _radial_F,
    beta_coulomb,
    beta_from_tables,
    beta_quadrature,
    build_kernel_tables,
    radial_profiles,
)
from landau_spectral.spectral import GridSpec, _mode_ints

PI = np.pi

int_vec = st.tuples(
    st.integers(-24, 24), st.integers(-24, 24), st.integers(-24, 24)
)


# ---------------------------------------------------------------------------
# Coulomb closed form
# ---------------------------------------------------------------------------

def test_zero_mode_is_pure_diffusion():
    # beta(0, m) = -(4 pi^3 / 3) |m|^2
    for m in ([1, 2, 3], [0, 0, 1], [-5, 4, 0]):
        mm = float(np.dot(m, m))
        assert beta_coulomb([0, 0, 0], m) == pytest.approx(-4 * PI**3 / 3 * mm, rel=1e-15)
    assert beta_coulomb([0, 0, 0], [0, 0, 0]) == 0.0


def test_unit_mode_against_constant():
    # m = 0 leaves only the 2|l|^4 (1 - sinc) term: beta((1,0,0), 0) = 8 pi
    assert beta_coulomb([1, 0, 0], [0, 0, 0]) == pytest.approx(8 * PI, rel=1e-15)


def test_aligned_modes_annihilate():
    # m = +-l zeroes both |l x m|^2 and |l|^4 - (l.m)^2, exactly
    rng = np.random.default_rng(5)
    ls = rng.integers(-20, 21, size=(300, 3))
    assert np.all(beta_coulomb(ls, ls) == 0.0)
    assert np.all(beta_coulomb(ls, -ls) == 0.0)


def test_orthogonal_modes_value():
    # l = (1,0,0), m = (0,1,0): cross = 1, l.m = 0, x = pi, sinc pi = 0
    # beta = 4 pi [1*(cos pi - 0) + 2*(1 - 0)*(1 - 0)] = 4 pi (2 - 1) = 4 pi
    assert beta_coulomb([1, 0, 0], [0, 1, 0]) == pytest.approx(4 * PI, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(int_vec, int_vec)
def test_parity_exact(l, m):
    assert beta_coulomb(l, m) == beta_coulomb(tuple(-x for x in l), tuple(-x for x in m))


@settings(max_examples=200, deadline=None)
@given(int_vec, int_vec)
def test_kernel_bound(l, m):
    b = float(beta_coulomb(l, m))
    ll = sum(x * x for x in l)
    mm = sum(x * x for x in m)
    if ll == 0:
        assert abs(b) <= 4 * PI**3 / 3 * mm * (1 + 1e-12)
    else:
        assert abs(b) <= 16 * PI * (1 + mm / ll) * (1 + 1e-12)


def test_broadcasting_matches_scalar():
    rng = np.random.default_rng(11)
    ls = rng.integers(-9, 10, size=(40, 3))
    ms = rng.integers(-9, 10, size=(40, 3))
    vec = beta_coulomb(ls, ms)
    scl = np.array([beta_coulomb(l, m) for l, m in zip(ls, ms)])
    assert np.array_equal(vec, scl)


def _profiles_highprec(ll):
    # independent 50-digit evaluation of the three radial profiles at |l|^2 = ll
    with mpmath.workdps(50):
        q = mpmath.mpf(int(ll))
        x = mpmath.pi * mpmath.sqrt(q)
        sinc = mpmath.sin(x) / x
        a = 8 * mpmath.pi * (1 - sinc)
        b = 4 * mpmath.pi * (mpmath.cos(x) - sinc) / q
        c = -4 * mpmath.pi * (mpmath.cos(x) + 2 - 3 * sinc) / q**2
        return float(a), float(b), float(c)


def test_profiles_match_high_precision():
    # the Coulomb profiles on every distinct nonzero radius of P = 48.  B
    # alone loses up to ~5e-12 relative where cos x ~ sinc x, so, as in
    # kernel-check's profile row, the defect is relative to beta's size at
    # |m| = |l|: |A| + |B||l|^2 + |Cs||l|^4.
    q = _distinct_ll(48)[1:]
    qf = q.astype(float)
    ref = np.array([_profiles_highprec(v) for v in q]).T
    w = np.stack([np.ones_like(qf), qf, qf * qf])
    dev = np.abs(radial_profiles(q, -3.0, 8.0) - ref) * w / np.sum(np.abs(ref) * w, axis=0)
    assert np.max(dev) <= 1e-13


# ---------------------------------------------------------------------------
# adaptive quadrature path (general gamma)
# ---------------------------------------------------------------------------

def test_quadrature_matches_coulomb():
    rng = np.random.default_rng(23)
    params = BetaParams(gamma=-3.0, L=8.0)
    worst = 0.0
    for _ in range(60):
        l = rng.integers(-8, 9, size=3)
        m = rng.integers(-8, 9, size=3)
        worst = max(worst, abs(beta_quadrature(l, m, params) - beta_coulomb(l, m)))
    assert worst <= 1e-8


def test_quadrature_l_dependence_only_through_radius():
    # F1/F2 depend on |l| alone; rotated l with the same norm and the same
    # geometric factors must give identical coefficients
    params = BetaParams(gamma=-1.0, L=4.0)
    a = beta_quadrature([3, 0, 0], [0, 2, 0], params)
    b = beta_quadrature([0, 3, 0], [0, 0, 2], params)
    assert a == pytest.approx(b, rel=1e-12)


def _gamma0_closed_form(l, m, L):
    """Independent oracle for gamma = 0: symbolic antiderivatives of the
    radial integrals (verified with a computer algebra system):
      F1(x) = 8 (3 sin x - 3 x cos x - x^2 sin x)
      F2(x) = 4 (-x^3 cos x + 4 x^2 sin x + 9 x cos x - 9 sin x)
    """
    l = np.asarray(l, dtype=float)
    m = np.asarray(m, dtype=float)
    ll = float(l @ l)
    c = (L / PI) ** 3
    if ll == 0.0:
        return -c * (8 * PI / 3) * PI**5 / 5 * float(m @ m)
    x = PI * np.sqrt(ll)
    F1 = 8 * (3 * np.sin(x) - 3 * x * np.cos(x) - x**2 * np.sin(x))
    F2 = 4 * (-(x**3) * np.cos(x) + 4 * x**2 * np.sin(x) + 9 * x * np.cos(x) - 9 * np.sin(x))
    lm = float(l @ m)
    cross2 = float(m @ m) * ll - lm * lm
    a1b1 = (ll * ll - lm * lm) / ll
    a2b2 = -cross2 / ll
    return PI * c * (a1b1 * F1 + a2b2 * F2) / ll ** 2.5


def test_gamma0_quadrature_against_antiderivative():
    rng = np.random.default_rng(31)
    params = BetaParams(gamma=0.0, L=2.5)
    worst = 0.0
    for _ in range(40):
        l = rng.integers(-6, 7, size=3)
        m = rng.integers(-6, 7, size=3)
        ref = _gamma0_closed_form(l, m, 2.5)
        got = beta_quadrature(l, m, params)
        worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-10


def test_gamma0_zero_mode_value():
    # l = 0, L = pi: coefficient -(8 pi^6/15) |m|^2
    params = BetaParams(gamma=0.0, L=PI)
    got = beta_quadrature([0, 0, 0], [1, 0, 0], params)
    assert got == pytest.approx(-8 * PI**6 / 15, rel=1e-13)


def test_quadrature_failure_raises():
    params = BetaParams(gamma=0.0, L=8.0)
    with pytest.raises(QuadratureError):
        beta_quadrature([6, 6, 6], [1, 1, 1], params, tol=1e-13, limit=1)


# ---------------------------------------------------------------------------
# precomputed tables
# ---------------------------------------------------------------------------

def test_tables_reproduce_coulomb_closed_form(tables_for):
    grid = GridSpec(L=8.0, P=8, gamma=-3.0)
    recon = beta_from_tables(tables_for(grid))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        l = rng.integers(-4, 4, size=3)  # modes of the P=8 grid
        m = rng.integers(-12, 13, size=3)
        ref = beta_coulomb(l, m)
        worst = max(worst, abs(recon(l, m) - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-12


def test_tables_gamma0_against_antiderivative(tables_for):
    grid = GridSpec(L=2.5, P=8, gamma=0.0)
    recon = beta_from_tables(tables_for(grid))
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(150):
        l = rng.integers(-4, 4, size=3)
        m = rng.integers(-10, 11, size=3)
        ref = _gamma0_closed_form(l, m, 2.5)
        worst = max(worst, abs(recon(l, m) - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-8


def _distinct_ll(P):
    k = _mode_ints(P)
    return np.unique(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)


@pytest.mark.parametrize("P", [32, 16])  # P = 16 reuses the cached P = 32 radii
@pytest.mark.parametrize("gamma", [0.0, -1.0, -2.5, 0.5])
def test_radial_profiles_match_from_zero_quadrature(gamma, P):
    # closed form (gamma = 0) or cumulative panels against the integrals
    # taken from zero, on every distinct radius of the grid.  Profiles cross
    # zero (A vanishes at |l| = 2 for gamma = -1), so each defect is relative
    # to beta's size at |m| = |l|: |A| + |B||l|^2 + |Cs||l|^4.
    L = 8.0
    q = _distinct_ll(P)[1:]
    qf = q.astype(float)
    F = np.array([_radial_F(gamma, float(PI * np.sqrt(v)), 1e-10, 200) for v in q])
    c = (L / PI) ** (gamma + 3.0)
    ref = np.stack([
        PI * c * F[:, 0] / qf ** ((gamma + 3.0) / 2.0),
        -PI * c * F[:, 1] / qf ** ((gamma + 5.0) / 2.0),
        PI * c * (F[:, 1] - F[:, 0]) / qf ** ((gamma + 7.0) / 2.0),
    ])
    w = np.stack([np.ones_like(qf), qf, qf * qf])
    dev = np.abs(radial_profiles(q, gamma, L) - ref) * w / np.sum(np.abs(ref) * w, axis=0)
    assert np.max(dev) <= 1e-11


@pytest.mark.parametrize("gamma", [-1.0, -2.5, 0.5])
def test_tables_independent_of_grid(gamma):
    # the cumulative panels of P = 8 and P = 16 end at different radii; the
    # shared modes must still get the same table entries
    t8 = build_kernel_tables(GridSpec(L=8.0, P=8, gamma=gamma))
    t16 = build_kernel_tables(GridSpec(L=8.0, P=16, gamma=gamma))
    shared = np.ix_(*[np.r_[0:4, 12:16]] * 3)  # modes -4..3 in FFT order
    for a, b in zip([t8.A, t8.B, t8.Cs], [t16.A, t16.B, t16.Cs]):
        assert np.max(np.abs(a - b[shared])) <= 1e-12 * np.max(np.abs(a))


def test_coulomb_tables_bit_identical_to_full_grid_formula():
    # the closed form evaluated on every mode of the grid; the per-radius
    # profiles, scattered, must reproduce it bit for bit
    P = 16
    k = _mode_ints(P)
    ll = (k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2).astype(float)
    zero = ll == 0
    q = np.where(zero, 1.0, ll)
    x = np.pi * np.sqrt(q)
    s, c = np.sin(x), np.cos(x)
    A = np.where(zero, 0.0, 8.0 * np.pi * (1.0 - s / x))
    B = np.where(zero, -4.0 * np.pi**3 / 3.0, 4.0 * np.pi * (c - s / x) / q)
    Cs = np.where(zero, 0.0, -4.0 * np.pi * (c + 2.0 - 3.0 * s / x) / (q * q))
    t = build_kernel_tables(GridSpec(L=1.8, P=P, gamma=-3.0))
    for got, want in zip([t.A, t.B, t.Cs], [A, B, Cs]):
        assert np.array_equal(got, want)


def test_table_zero_mode_entries(tables_for):
    t = tables_for(GridSpec(L=8.0, P=8, gamma=-3.0))
    assert t.A[0, 0, 0] == 0.0
    assert t.B[0, 0, 0] == pytest.approx(-4 * PI**3 / 3, rel=1e-15)
    assert t.Cs[0, 0, 0] == 0.0


def test_tables_have_fft_ordering(tables_for):
    # slot [1,0,0] is mode (1,0,0); slot [-1 % P, 0, 0] is mode (-1,0,0)
    t = tables_for(GridSpec(L=8.0, P=8, gamma=-3.0))
    b = beta_from_tables(t)
    assert b([1, 0, 0], [0, 0, 0]) == pytest.approx(8 * PI, rel=1e-12)
    assert b([-1, 0, 0], [0, 0, 0]) == pytest.approx(8 * PI, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        BetaParams(gamma=1.5, L=1.0)
    with pytest.raises(ValueError):
        BetaParams(gamma=-3.0, L=0.0)
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=7)  # odd P
    with pytest.raises(ValueError):
        GridSpec(L=1.0, P=2)  # too small


def test_integer_modes_required():
    with pytest.raises(ValueError):
        beta_coulomb([0.5, 0, 0], [1, 0, 0])


def test_closed_form_tables_do_not_import_scipy_integrate():
    # gamma = -3 and 0 never integrate, so a CLI process that builds only
    # their tables must not pay for importing scipy.integrate
    code = (
        "import sys\n"
        "import landau_spectral.cli\n"
        "from landau_spectral.kernel import build_kernel_tables\n"
        "from landau_spectral.spectral import GridSpec\n"
        "for gamma in (-3.0, 0.0):\n"
        "    build_kernel_tables(GridSpec(L=8.0, P=8, gamma=gamma))\n"
        "assert 'scipy.integrate' not in sys.modules, 'imported too early'\n"
        "t = build_kernel_tables(GridSpec(L=8.0, P=8, gamma=-2.5))\n"
        "assert 'scipy.integrate' in sys.modules and t.A.shape == (8, 8, 8)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

"""Command-line front end: runs, convergence studies, kernel self-checks.

Config files are flat ``key=value`` text (one pair per line, ``#``
comments allowed); every key corresponds to a RunConfig field and
round-trips through ``RunConfig.serialize``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time as _time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .collision import CostGuardError, _term_pairs, q_periodic_direct, q_periodic_fast
from .exact import BkwParams, ShellParams, bkw, coulomb_shell
from .integrator import BlowUpError, TimeConfig, initial_state, run
from .kernel import (
    BetaParams,
    QuadratureError,
    _profiles_from_integrals,
    _radial_F,
    beta_coulomb,
    beta_from_tables,
    beta_quadrature,
    build_kernel_tables,
    radial_profiles,
)
from .spectral import (
    GridSpec,
    HermitianSymmetryError,
    PhysicalField,
    ShapeMismatchError,
    SnapshotFormatError,
    SpectralField,
    _mode_ints,
    convolve_pairs,
    project,
    read_snapshot,
    set_fft_workers,
    to_physical,
    to_spectral,
    write_snapshot,
)

THREADS_ENV = "LANDAU_SPECTRAL_THREADS"

# kept only as the name perfbench/launch.py wraps to time table builds (kernel.build_s)
build_or_load_tables = build_kernel_tables


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass
class RunConfig:
    """Every run parameter; defaults give the desk-scale Coulomb shell case."""

    L: float = 1.8
    P: int = 32
    gamma: float = -3.0
    R: float | None = None  # resolved to L when left unset
    oversample: int = 2
    cutoff_shape: str = "paper"
    dt: float = 0.05
    t_end: float = 5.0
    sample_every: int = 1
    init: str = "shell"
    bkw_rate: float = 4.0
    bkw_amplitude: float = 0.4
    shell_sigma: float = 0.3
    shell_s: float = 10.0
    quad_tol: float = 1e-10
    output_dir: str = "."
    snapshot_every: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.R is None:
            self.R = float(self.L)
        if not (
            self.init in ("bkw", "shell") or self.init.startswith("file:")
        ):
            raise ConfigError(
                f"init must be 'bkw', 'shell' or 'file:<path>', got {self.init!r}"
            )
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.threads < 0:
            raise ConfigError(f"threads must be >= 0 (0 = auto), got {self.threads}")

    def grid(self) -> GridSpec:
        try:
            return GridSpec(
                L=self.L, P=self.P, gamma=self.gamma, R=self.R,
                oversample=self.oversample, cutoff_shape=self.cutoff_shape,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def time_config(self) -> TimeConfig:
        try:
            return TimeConfig(dt=self.dt, t_end=self.t_end, sample_every=self.sample_every)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={v!r}" if isinstance(v, float) else f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        kinds = {f.name: f for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in kinds:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                kwargs[key] = _convert(key, val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


_INT_KEYS = {"P", "oversample", "sample_every", "snapshot_every", "threads"}
_FLOAT_KEYS = {
    "L", "gamma", "R", "dt", "t_end", "bkw_rate", "bkw_amplitude",
    "shell_sigma", "shell_s", "quad_tol",
}


def _convert(key: str, val: str):
    if key in _INT_KEYS:
        try:
            return int(val)
        except ValueError:
            raise ValueError(f"key {key!r} expects an integer, got {val!r}")
    if key in _FLOAT_KEYS:
        try:
            x = float(val)
        except ValueError:
            raise ValueError(f"key {key!r} expects a number, got {val!r}")
        if not np.isfinite(x):
            raise ValueError(f"key {key!r} expects a finite number, got {val!r}")
        return x
    return val


def _resolve_threads(cfg_threads: int) -> int:
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            cfg_threads = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}")
    if cfg_threads == 0:
        return os.cpu_count() or 1
    if cfg_threads < 0:
        raise ConfigError(f"thread count must be >= 0, got {cfg_threads}")
    return cfg_threads


def _build_initial(cfg: RunConfig, grid: GridSpec):
    """Returns (fhat0, exact_or_None)."""
    if cfg.init == "bkw":
        p = BkwParams(rate=cfg.bkw_rate, amplitude=cfg.bkw_amplitude)
        f0 = lambda V: bkw(0.0, V, p)
        # the BKW family solves the gamma = 0 equation only
        exact = (lambda t, V: bkw(t, V, p)) if grid.gamma == 0.0 else None
        return initial_state(f0, grid), exact
    if cfg.init == "shell":
        p = ShellParams(sigma=cfg.shell_sigma, S=cfg.shell_s)
        return initial_state(lambda V: coulomb_shell(V, p), grid), None
    path = cfg.init[len("file:"):]
    vals, header = read_snapshot(path)
    if (header["P"], header["L"], header["gamma"]) != (grid.P, grid.L, grid.gamma):
        raise ConfigError(
            f"snapshot {path} has P={header['P']}, L={header['L']}, gamma={header['gamma']}; "
            f"config wants P={grid.P}, L={grid.L}, gamma={grid.gamma}"
        )
    # restart semantics: the stored state is used as-is (no fresh cutoff)
    return project(to_spectral(PhysicalField(vals, grid))), None


def cmd_run(cfg: RunConfig) -> int:
    cfg = replace(cfg, threads=_resolve_threads(cfg.threads))  # config.txt records it
    set_fft_workers(cfg.threads)
    grid = cfg.grid()
    tconf = cfg.time_config()
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tables = build_or_load_tables(grid, tol=cfg.quad_tol)
    fhat0, exact = _build_initial(cfg, grid)

    (outdir / "config.txt").write_text(cfg.serialize())
    records = []

    def on_sample(step, t, fhat):
        if cfg.snapshot_every > 0 and step % cfg.snapshot_every == 0:
            write_snapshot(outdir / f"snapshot_{step:06d}.lsfd", to_physical(fhat), t)

    t0 = _time.perf_counter()
    final = run(
        fhat0, grid, tables, tconf,
        sinks=[records.append], exact=exact,
        on_sample=on_sample if cfg.snapshot_every > 0 else None,
    )
    wall = _time.perf_counter() - t0
    diag.write_csv(outdir / "diagnostics.csv", records)
    min_f = float(to_physical(final).data.min())
    print(
        f"run complete: t = {tconf.t_end:g}, steps = {tconf.n_steps}, "
        f"wall = {wall:.2f} s, min f = {min_f:.3e}"
    )
    return 0


def cmd_convergence(cfg: RunConfig, grids: list[int]) -> int:
    if cfg.init != "bkw":
        raise ConfigError("convergence studies need init=bkw (the exact solution)")
    if cfg.gamma != 0.0:
        raise ConfigError("the BKW reference solves the gamma=0 equation; set gamma=0")
    if not grids:
        raise ConfigError("--grids lists no grid size")
    for P in grids:
        if P < 4 or P % 2 != 0:
            raise ConfigError(f"grid sizes must be even and >= 4, got {P}")
    set_fft_workers(_resolve_threads(cfg.threads))
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for P in grids:
        sub = replace(cfg, P=P)
        grid = sub.grid()
        tables = build_or_load_tables(grid, tol=cfg.quad_tol)
        fhat0, exact = _build_initial(sub, grid)
        records = []
        t0 = _time.perf_counter()
        run(fhat0, grid, tables, sub.time_config(), sinks=[records.append], exact=exact)
        wall = _time.perf_counter() - t0
        max_e1 = max(r.e1 for r in records)
        max_e2 = max(r.e2 for r in records)
        rows.append((P, grid.L / grid.N, max_e1, max_e2))
        print(f"P={P:4d}  L/N={grid.L / grid.N:8.4f}  max_e1={max_e1:.6e}  "
              f"max_e2={max_e2:.6e}  ({wall:.1f} s)")
    with open(outdir / "convergence.csv", "w", newline="") as fh:
        fh.write("P,L_over_N,max_e1,max_e2\n")
        for P, lon, e1, e2 in rows:
            fh.write(f"{P},{lon:.17g},{e1:.17g},{e2:.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# kernel self-checks
# ---------------------------------------------------------------------------

def _sample_modes(rng, P, count):
    N = P // 2
    return rng.integers(-N, N, size=(count, 3))


def kernel_check(points: int = 8, gamma: float = -3.0, L: float = 8.0,
                 corrupt: bool = False):
    """Run the kernel invariant suite; returns a list of (name, ok, detail).

    ``corrupt`` deliberately damages one table entry first and is the
    negative control used by the tests: with it the reconstruction check
    must fail.
    """
    if points > 16:
        raise ConfigError(f"kernel-check uses the O(P^6) oracle; points={points} > 16")
    grid = GridSpec(L=L, P=points, gamma=gamma)
    tables = build_kernel_tables(grid)
    if corrupt:
        tables.A[1, 0, 0] += 1e-3
    rng = np.random.default_rng(20240817)
    results = []
    k = _mode_ints(points)
    K = np.stack(
        np.broadcast_arrays(k[:, None, None], k[None, :, None], k[None, None, :]),
        axis=-1,
    ).reshape(-1, 3)
    ll = np.sum(K * K, axis=1)

    # reconstruction against the pointwise coefficient
    msample = np.concatenate([rng.integers(-8, 9, size=(48, 3)), -K[:: max(1, len(K) // 16)]])
    recon = beta_from_tables(tables)
    if gamma == -3.0:
        worst = 0.0
        for mv in msample:
            ref = beta_coulomb(K, np.broadcast_to(mv, K.shape))
            got = np.array([recon(lv, mv) for lv in K])
            worst = max(worst, np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
        results.append(("table reconstruction vs closed form", worst <= 1e-12,
                        f"max rel defect {worst:.3e} (tol 1e-12)"))
    else:
        params = BetaParams(gamma=gamma, L=L)
        worst = 0.0
        for lv in K:
            for mv in msample[rng.choice(len(msample), size=6, replace=False)]:
                ref = beta_quadrature(lv, mv, params)
                got = recon(lv, mv)
                worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
        results.append(("table reconstruction vs quadrature", worst <= 1e-9,
                        f"max rel defect {worst:.3e} (tol 1e-9)"))

        # the profiles (closed form or cumulative) on every distinct radius
        # against the integrals taken from zero; a profile may cross zero, so
        # the defect is relative to beta's size at |m| = |l|, the sum of the
        # weighted profiles |A| + |B||l|^2 + |Cs||l|^4
        q = np.unique(ll)[1:]
        F = np.array([_radial_F(gamma, float(np.pi * np.sqrt(v)), 1e-10, 200) for v in q])
        qf = q.astype(np.float64)
        ref = np.stack(_profiles_from_integrals(qf, F[:, 0], F[:, 1], gamma, L))
        w = np.stack([np.ones_like(qf), qf, qf * qf])
        dev = np.abs(radial_profiles(q, gamma, L) - ref) * w / np.sum(np.abs(ref) * w, axis=0)
        pworst = float(np.max(dev))
        results.append(("radial profiles vs from-zero quadrature", pworst <= 1e-11,
                        f"max rel defect {pworst:.3e} (tol 1e-11)"))

    # exact collision invariant beta(l, -l) = 0, via the tables themselves
    mass = np.array([recon(lv, -lv) for lv in K])
    scale = 1.0 + np.abs(tables.B.reshape(-1)) * ll
    mworst = np.max(np.abs(mass) / scale)
    results.append(("mass identity beta(l,-l) = 0", mworst <= 1e-12,
                    f"max scaled defect {mworst:.3e} (tol 1e-12)"))

    if gamma == -3.0:
        pairs_l = _sample_modes(rng, points, 64)
        pairs_m = rng.integers(-8, 9, size=(64, 3))
        par = np.max(np.abs(beta_coulomb(pairs_l, pairs_m) - beta_coulomb(-pairs_l, -pairs_m)))
        results.append(("parity beta(-l,-m) = beta(l,m)", par == 0.0,
                        f"max defect {par:.3e} (exact)"))

        okb = True
        worstb = 0.0
        for mv in pairs_m:
            vals = np.abs(beta_coulomb(K, np.broadcast_to(mv, K.shape)))
            mm = float(mv @ mv)
            bound = np.where(ll > 0, 16.0 * np.pi * (1.0 + mm / np.maximum(ll, 1)),
                             4.0 * np.pi**3 / 3.0 * mm)
            rel = np.max(vals / np.maximum(bound, 1e-300)) if mm or np.any(ll) else 0.0
            worstb = max(worstb, rel)
            okb = okb and np.all(vals <= bound * (1.0 + 1e-12) + 1e-300)
        results.append(("kernel bound |beta| <= 16 pi (1 + |m|^2/|l|^2)", okb,
                        f"max |beta|/bound {worstb:.3f}"))

        params = BetaParams(gamma=-3.0, L=L)
        qworst = 0.0
        for i in range(40):
            lv = pairs_l[i]
            mv = pairs_m[i]
            qworst = max(qworst, abs(beta_quadrature(lv, mv, params) - beta_coulomb(lv, mv)))
        results.append(("quadrature vs closed form", qworst <= 1e-8,
                        f"max abs defect {qworst:.3e} (tol 1e-8)"))
    else:
        # defects relative to beta's size |A| + (|B| + |Cs||l|^2)|m|^2 (the profile
        # row's scale at |m| = |l|), since coefficients reach 1e4-1e5 at L = 8
        params = BetaParams(gamma=gamma, L=L)
        qworst = 0.0
        for _ in range(20):
            lv = _sample_modes(rng, points, 1)[0]
            mv = rng.integers(-8, 9, size=3)
            a = beta_quadrature(lv, mv, params, tol=1e-8)
            b = beta_quadrature(lv, mv, params, tol=1e-10)
            A, B, Cs = np.abs(ref[:, np.searchsorted(q, lv @ lv)])
            size = A + (B + Cs * (lv @ lv)) * (mv @ mv)
            qworst = max(qworst, abs(a - b) / size)
        results.append(("quadrature self-consistency (tol 1e-8 vs 1e-10)", qworst <= 1e-9,
                        f"max rel defect {qworst:.3e} (tol 1e-9)"))

    # fast path vs direct double sum, on complex coefficients and on the
    # projected real fields that q_scheme_rhs passes to the real transforms
    beta_fn = beta_coulomb if gamma == -3.0 else beta_from_tables(tables)
    for real in (False, True):
        worst = 0.0
        for _ in range(3):
            g, h = _random_field(rng, grid, real), _random_field(rng, grid, real)
            fast = q_periodic_fast(g, h, tables, hermitian=real).data
            worst = max(worst, _rel_dev(fast, q_periodic_direct(g, h, beta_fn).data))
        results.append((("real-field " if real else "") + "FFT evaluation vs direct double sum",
                        worst <= 1e-12, f"max rel defect {worst:.3e} (tol 1e-12)"))

    # negative control: at Q = 3N - 1 the image of l + m = -2N lands on N - 1
    g, h = _random_field(rng, grid, False), _random_field(rng, grid, False)
    short = convolve_pairs(_term_pairs(g.data, h.data, tables), points, 3 * grid.N - 1)
    dev = _rel_dev(short / (2.0 * L) ** 3, q_periodic_direct(g, h, beta_fn).data)
    results.append(("aliasing seen at Q = 3N - 1", dev > 1e-6,
                    f"max rel defect {dev:.3e} (must exceed 1e-6)"))
    return results


def _random_field(rng, grid: GridSpec, real: bool) -> SpectralField:
    """Projected coefficients of a random real field, or random complex ones."""
    vals = rng.standard_normal((grid.P,) * 3)
    if real:
        return to_spectral(PhysicalField(vals, grid))
    return SpectralField(vals + 1j * rng.standard_normal(vals.shape), grid)


def _rel_dev(fast: np.ndarray, direct: np.ndarray) -> float:
    return float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))


def cmd_kernel_check(points: int, gamma: float, corrupt: bool = False) -> int:
    results = kernel_check(points=points, gamma=gamma, corrupt=corrupt)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 2


def cmd_oracle_compare(cfg: RunConfig) -> int:
    set_fft_workers(_resolve_threads(cfg.threads))
    grid = cfg.grid()
    if grid.P > 16:
        raise ConfigError(f"oracle comparison uses the O(P^6) direct sum; P={grid.P} > 16")
    tables = build_or_load_tables(grid, tol=cfg.quad_tol)
    beta_fn = beta_coulomb if grid.gamma == -3.0 else beta_from_tables(tables)
    rng = np.random.default_rng(745737)
    worst = 0.0
    for real in (False, True):
        for trial in range(5):
            g, h = _random_field(rng, grid, real), _random_field(rng, grid, real)
            fast = q_periodic_fast(g, h, tables, hermitian=real).data
            dev = _rel_dev(fast, q_periodic_direct(g, h, beta_fn).data)
            worst = max(worst, dev)
            print(f"{'real' if real else 'complex'} pair {trial}: max rel deviation {dev:.3e}")
    print(f"worst deviation {worst:.3e} (tol 1e-12)")
    return 0 if worst <= 1e-12 else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ConfigError(message)


def _load_config(path: str) -> RunConfig:
    return RunConfig.parse(Path(path).read_text())


def main(argv=None) -> int:
    parser = _Parser(
        prog="landau-spectral",
        description="Spectral solver for the space-homogeneous Landau equation "
                    "on a periodized velocity box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configuration")
    p_run.add_argument("config", help="path to a key=value config file")

    p_conv = sub.add_parser("convergence", help="error-vs-resolution study (init=bkw)")
    p_conv.add_argument("config")
    p_conv.add_argument("--grids", required=True,
                        help="comma-separated P values, e.g. 16,32,48")

    p_kc = sub.add_parser("kernel-check", help="kernel coefficient self-checks (L = 8)")
    p_kc.add_argument("--points", type=int, default=8)
    p_kc.add_argument("--gamma", type=float, default=-3.0)
    p_kc.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p_oc = sub.add_parser("oracle-compare",
                          help="FFT vs direct-sum collision evaluation (small P)")
    p_oc.add_argument("config")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(_load_config(args.config))
        if args.command == "convergence":
            grids = [int(s) for s in args.grids.split(",") if s]
            return cmd_convergence(_load_config(args.config), grids)
        if args.command == "kernel-check":
            return cmd_kernel_check(args.points, args.gamma, corrupt=args.corrupt)
        if args.command == "oracle-compare":
            return cmd_oracle_compare(_load_config(args.config))
        raise ConfigError(f"unknown command {args.command!r}")
    except (BlowUpError, QuadratureError, HermitianSymmetryError,
            diag.DegenerateStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SnapshotFormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ShapeMismatchError, CostGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

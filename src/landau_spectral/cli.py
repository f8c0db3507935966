"""Command-line front end: runs, convergence studies, kernel self-checks.

Config files are flat ``key=value`` text (one pair per line, ``#``
comments allowed); every key corresponds to a RunConfig field and
round-trips through ``RunConfig.serialize``.
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .collision import CostGuardError, _collide, q_periodic_direct
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
    _even_octant,
    _mode_ints,
    _octant_to_full,
    padded_size,
    read_snapshot,
    to_physical,
    to_spectral,
    write_snapshot,
)

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
    cutoff_shape: str = "paper"
    dt: float = 0.05
    t_end: float = 5.0
    sample_every: int = 1
    init: str = "shell"
    bkw_rate: float = 4.0
    bkw_amplitude: float = 0.4
    shell_sigma: float = 0.3
    shell_s: float = 10.0
    output_dir: str = "."
    snapshot_every: int = 0
    threads: int = 1  # only 1: kept so that existing configs still parse

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
        if self.threads != 1:
            raise ConfigError(
                f"threads = {self.threads}: FFTs run on one thread; "
                "set threads = 1 or drop the key"
            )
        try:
            self.grid()
            self.time_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> GridSpec:
        return GridSpec(L=self.L, P=self.P, gamma=self.gamma, R=self.R,
                        cutoff_shape=self.cutoff_shape)

    def time_config(self) -> TimeConfig:
        return TimeConfig(dt=self.dt, t_end=self.t_end, sample_every=self.sample_every)

    def serialize(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={v!r}" if isinstance(v, float) else f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        kinds = {f.name: f for f in fields(cls)}
        kwargs, set_on = {}, {}
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
            if key in set_on:
                raise ConfigError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                kwargs[key] = _convert(kinds[key], val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _convert(field, val: str):
    """``val`` as the type of the RunConfig field: its annotation is the
    string "int", "float", "float | None" or "str"."""
    key = field.name
    if field.type == "int":
        try:
            return int(val)
        except ValueError:
            raise ValueError(f"key {key!r} expects an integer, got {val!r}")
    if field.type.startswith("float"):
        try:
            x = float(val)
        except ValueError:
            raise ValueError(f"key {key!r} expects a number, got {val!r}")
        if not np.isfinite(x):
            raise ValueError(f"key {key!r} expects a finite number, got {val!r}")
        return x
    return val


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
    return to_spectral(PhysicalField(vals, grid)), None


def cmd_run(cfg: RunConfig) -> int:
    grid = cfg.grid()
    tconf = cfg.time_config()
    fhat0, exact = _build_initial(cfg, grid)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    tables = build_or_load_tables(grid)

    (outdir / "config.txt").write_text(cfg.serialize())
    records = []

    def on_sample(step, t, fhat):
        if cfg.snapshot_every > 0 and step % cfg.snapshot_every == 0:
            write_snapshot(outdir / f"snapshot_{step:06d}.lsfd", to_physical(fhat), t)

    t0 = _time.perf_counter()
    run(
        fhat0, grid, tables, tconf,
        sinks=[records.append], exact=exact,
        on_sample=on_sample if cfg.snapshot_every > 0 else None,
    )
    wall = _time.perf_counter() - t0
    diag.write_csv(outdir / "diagnostics.csv", records)
    # run samples the final step, so the last record holds the final min f
    march = "half" if _even_octant(fhat0.data) is None else "octant"
    print(
        f"run complete: t = {tconf.t_end:g}, steps = {tconf.n_steps}, "
        f"wall = {wall:.2f} s, min f = {records[-1].min_f:.3e}, march = {march}"
    )
    return 0


def cmd_convergence(cfg: RunConfig, grids: list[int]) -> int:
    if cfg.init != "bkw":
        raise ConfigError("convergence studies need init=bkw (the exact solution)")
    if cfg.gamma != 0.0:
        raise ConfigError("the BKW reference solves the gamma=0 equation; set gamma=0")
    if cfg.snapshot_every > 0:
        raise ConfigError("convergence writes no snapshots; set snapshot_every = 0")
    if not grids:
        raise ConfigError("--grids lists no grid size")
    for i, P in enumerate(grids):
        if P in grids[:i]:
            raise ConfigError(f"--grids lists P = {P} more than once")
    subs = [replace(cfg, P=P) for P in grids]  # every grid is checked before any work
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sub in subs:
        P, grid = sub.P, sub.grid()
        fhat0, exact = _build_initial(sub, grid)
        tables = build_or_load_tables(grid)
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


def kernel_check(points: int = 8, gamma: float = -3.0):
    """Run the kernel invariant suite; returns a list of (name, ok, detail)."""
    L = 8.0  # the box the tolerances below were calibrated on
    if points > 16:
        raise ConfigError(f"kernel-check uses the O(P^6) oracle; points={points} > 16")
    grid = GridSpec(L=L, P=points, gamma=gamma)
    tables = build_kernel_tables(grid)
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

    # fast path vs direct double sum, on complex coefficients, on the
    # projected real fields that run marches as halves and on the axis-even
    # real fields that it marches as octants
    beta_fn = beta_coulomb if gamma == -3.0 else beta_from_tables(tables)
    for kind, label in (("complex", ""), ("real", "real-field "),
                        ("even", "axis-even real field ")):
        worst = max(_oracle_deviations(rng, grid, tables, beta_fn, kind, 3))
        results.append((label + "FFT evaluation vs direct double sum",
                        worst <= 1e-12, f"max rel defect {worst:.3e} (tol 1e-12)"))

    # negative control: the rank form on whole arrays at Q = 3N - 1, where the
    # image of l + m = -2N lands on N - 1
    (g, _), (h, _) = _random_field(rng, grid, "complex"), _random_field(rng, grid, "complex")
    short = _collide(g.data, h.data, tables, 3 * grid.N - 1)
    dev = _rel_dev(short, q_periodic_direct(g, h, beta_fn).data)
    results.append(("aliasing seen at Q = 3N - 1", dev > 1e-6,
                    f"max rel defect {dev:.3e} (must exceed 1e-6)"))
    return results


def _oracle_deviations(rng, grid: GridSpec, tables, beta_fn, kind: str, trials: int):
    """Relative deviations from the direct double sum, on the same block,
    of ``_collide`` on ``trials`` random pairs in the form a state of that
    kind takes (``_random_field``)."""
    Q = padded_size(grid)
    for _ in range(trials):
        (g, gs), (h, hs) = _random_field(rng, grid, kind), _random_field(rng, grid, kind)
        fast = _collide(gs, hs, tables, Q)
        direct = q_periodic_direct(g, h, beta_fn).data
        yield _rel_dev(fast, direct[tuple(slice(n) for n in fast.shape)])


def _random_field(rng, grid: GridSpec, kind: str):
    """Random "complex" coefficients, or those of a random "real" or
    axis-"even" real field, with the form ``_collide`` takes them in: the
    whole array, the k3 >= 0 half or the real (N, N, N) octant."""
    if kind == "even":
        octant = rng.standard_normal((grid.N,) * 3)
        return SpectralField(_octant_to_full(octant), grid), octant
    vals = rng.standard_normal((grid.P,) * 3)
    if kind == "real":
        f = to_spectral(PhysicalField(vals, grid))
        return f, f.data[:, :, : grid.N]
    f = SpectralField(vals + 1j * rng.standard_normal(vals.shape), grid)
    return f, f.data


def _rel_dev(fast: np.ndarray, direct: np.ndarray) -> float:
    return float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))


def cmd_kernel_check(points: int, gamma: float) -> int:
    results = kernel_check(points=points, gamma=gamma)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 2


def cmd_oracle_compare(cfg: RunConfig) -> int:
    grid = cfg.grid()
    if grid.P > 16:
        raise ConfigError(f"oracle comparison uses the O(P^6) direct sum; P={grid.P} > 16")
    tables = build_or_load_tables(grid)
    beta_fn = beta_coulomb if grid.gamma == -3.0 else beta_from_tables(tables)
    rng = np.random.default_rng(745737)
    worst = 0.0
    for kind in ("complex", "real", "even"):
        for trial, dev in enumerate(_oracle_deviations(rng, grid, tables, beta_fn, kind, 5)):
            worst = max(worst, dev)
            print(f"{kind} pair {trial}: max rel deviation {dev:.3e}")
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

    p_oc = sub.add_parser("oracle-compare",
                          help="FFT vs direct-sum collision evaluation (small P)")
    p_oc.add_argument("config")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(_load_config(args.config))
        if args.command == "convergence":
            try:
                grids = [int(s) for s in args.grids.split(",") if s]
            except ValueError:
                raise ConfigError(f"--grids takes comma-separated even integers, "
                                  f"got {args.grids!r}") from None
            return cmd_convergence(_load_config(args.config), grids)
        if args.command == "kernel-check":
            return cmd_kernel_check(args.points, args.gamma)
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

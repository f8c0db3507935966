"""Benchmark for landau-spectral: fixed workloads, each CLI command in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload shell-p32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds of one workload for about ``--seconds`` seconds
(at least one round); a round is the workload's CLI commands, run one after
the other, each in a fresh interpreter, since the kernel and cutoff tables
are cached per process.  Every round's outputs are checked against
properties of the method (see checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``, each the median over the run's rounds.

The inputs are fixed configurations with no random draw, so ``--seed`` only
labels the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

LAUNCH = Path(__file__).resolve().parent / "launch.py"
OUT_ROOT = Path(".perfbench_out")
RUN_DEADLINE_S = 170.0  # a hung command is killed so that the run ends in time

SHELL = {"L": 1.8, "gamma": -3, "cutoff_shape": "paper", "init": "shell",
         "dt": 0.05, "sample_every": 1}
BKW = {"L": 8.0, "gamma": 0, "cutoff_shape": "none", "init": "bkw",
       "dt": 1e-3, "t_end": 0.01, "threads": 1}
BKW_GRIDS = [16, 32]
P48_STEPS, P48_RESTART_STEP = 4, 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "march_s": "s",
              "peak_rss_mb": "MB", "accuracy_err": "1"}
PER_LAYER = {
    "cli.startup_s": "s",
    "kernel.build_s": "s",
    "integrator.initial_state_s": "s",
    "collision.rhs_calls": "count",
    "collision.rhs_self_s": "s",
    "collision.rhs_ms_p50": "ms",
    "spectral.apply_cutoff_s": "s",
    "spectral.apply_cutoff_calls": "count",
    "spectral.project_s": "s",
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.fft_bytes_computed": "bytes",
    "spectral.fft_s": "s",
    "integrator.rk4_self_s": "s",
    "diagnostics.sample_s": "s",
    "diagnostics.samples": "count",
    "cli.io_s": "s",
    "cli.snapshot_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
}


@dataclass
class Op:
    """One CLI command run in its own process."""

    ok: bool
    wall: float = 0.0
    setup: float = 0.0
    march: float = 0.0
    rss_mb: float = 0.0
    ready: float = 0.0
    layers: dict | None = None


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    fails: list[str] = field(default_factory=list)
    accuracy: float = float("nan")


def write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def launch(args: list[str], d: Path, trace: bool, deadline: float) -> Op:
    """Run ``landau-spectral ARGS`` in a fresh process and read its probes."""
    tag = f"op{len(list(d.glob('*.err')))}"
    marks = d / f"marks-{tag}.json"
    env = dict(os.environ)
    env.pop("LANDAU_SPECTRAL_THREADS", None)  # it would override the config's threads
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["TMPDIR"] = str(d.resolve())
    cmd = [sys.executable, str(LAUNCH), str(marks), "1" if trace else "0", "--", *args]
    with open(d / f"{tag}.out", "w") as out, open(d / f"{tag}.err", "w") as err:
        t0 = time.monotonic()
        env["PERFBENCH_T0"] = repr(t0)
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:  # timed out or interrupted
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
    if rc != 0 or not marks.is_file():
        tail = (d / f"{tag}.err").read_text()[-2000:]
        print(f"command {args} failed (exit {rc}):\n{tail}", file=sys.stderr)
        return Op(ok=False)
    m = json.loads(marks.read_text())
    spans = m["marches"]
    if not spans:
        print(f"command {args} never started time stepping", file=sys.stderr)
        return Op(ok=False)
    march = sum(end - start for start, end in spans)
    return Op(ok=True, wall=wall, setup=spans[-1][1] - march, march=march,
              rss_mb=m["maxrss_kb"] / 1024.0, ready=m["ready"], layers=m["layers"])


def check_shell_run(rnd: Round, outdir: Path, n_steps: int, label: str) -> dict | None:
    try:
        cols = checks.read_diagnostics(outdir / "diagnostics.csv")
    except (OSError, ValueError, IndexError) as exc:
        rnd.fails.append(f"{label}: unreadable diagnostics.csv: {exc}")
        return None
    rnd.fails += [f"{label}: {msg}"
                  for msg in checks.check_diagnostics(cols, SHELL["dt"], SHELL["L"], n_steps)]
    return cols


def round_shell_p32(d: Path, run_cmd) -> Round:
    rnd = Round()
    out = d / "p32"
    cfg = write_config(d / "p32.cfg", **SHELL, P=32, t_end=0.5, threads=1,
                       output_dir=out.resolve())
    op = run_cmd(["run", str(cfg)])
    rnd.ops.append(op)
    if op.ok:
        cols = check_shell_run(rnd, out, 10, "shell-p32")
        if cols is not None:
            rnd.accuracy = checks.mass_drift(cols)
    return rnd


def round_bkw_convergence(d: Path, run_cmd) -> Round:
    rnd = Round()
    out = d / "bkw"
    cfg = write_config(d / "bkw.cfg", **BKW, output_dir=out.resolve())
    op = run_cmd(["convergence", str(cfg), "--grids", ",".join(map(str, BKW_GRIDS))])
    rnd.ops.append(op)
    if op.ok:
        try:
            rows = checks.read_convergence(out / "convergence.csv")
        except (OSError, ValueError, KeyError) as exc:
            rnd.fails.append(f"bkw-convergence: unreadable convergence.csv: {exc}")
            return rnd
        rnd.fails += [f"bkw-convergence: {msg}"
                      for msg in checks.check_convergence(rows, BKW_GRIDS)]
        if not rnd.fails:
            rnd.accuracy = rows[-1]["max_e2"]
    return rnd


def round_shell_p48_restart(d: Path, run_cmd) -> Round:
    """A P = 48 run with snapshots, then a restart from its mid-run snapshot.

    One FFT worker: with two on this two-core machine the march time of
    repeated runs spread about twice as wide (see README.md).

    The restart's ``t_end`` is the remaining time, not the absolute end time,
    because restarts begin their time axis at 0 (see CHANGES.md).
    """
    rnd = Round()
    dt = SHELL["dt"]
    cont, rest = d / "p48", d / "p48-restart"
    base = {**SHELL, "P": 48, "threads": 1, "snapshot_every": P48_RESTART_STEP}
    cfg = write_config(d / "p48.cfg", **base, t_end=P48_STEPS * dt,
                       output_dir=cont.resolve())
    op = run_cmd(["run", str(cfg)])
    rnd.ops.append(op)
    if not op.ok:
        rnd.ops.append(Op(ok=False))  # the restart has nothing to start from
        return rnd
    snap = cont / f"snapshot_{P48_RESTART_STEP:06d}.lsfd"
    rest_steps = P48_STEPS - P48_RESTART_STEP
    cfg = write_config(d / "p48-restart.cfg", **{**base, "init": f"file:{snap.resolve()}"},
                       t_end=rest_steps * dt, output_dir=rest.resolve())
    rnd.ops.append(run_cmd(["run", str(cfg)]))
    cols = check_shell_run(rnd, cont, P48_STEPS, "shell-p48")
    if cols is not None:
        rnd.accuracy = checks.mass_drift(cols)
    if rnd.ops[-1].ok:
        check_shell_run(rnd, rest, rest_steps, "shell-p48 restart")
        try:
            rnd.fails += checks.check_restart(
                checks.read_snapshot(cont / f"snapshot_{P48_STEPS:06d}.lsfd"),
                checks.read_snapshot(rest / f"snapshot_{rest_steps:06d}.lsfd"),
            )
        except (OSError, ValueError) as exc:
            rnd.fails.append(f"shell-p48 restart: unreadable snapshot: {exc}")
    return rnd


WORKLOADS = {
    "shell-p32": round_shell_p32,
    "bkw-convergence": round_bkw_convergence,
    "shell-p48-restart": round_shell_p48_restart,
}


def end_to_end(rnd: Round) -> dict[str, float]:
    return {
        "wall_s": sum(op.wall for op in rnd.ops),
        "setup_s": sum(op.setup for op in rnd.ops),
        "march_s": sum(op.march for op in rnd.ops),
        "peak_rss_mb": max(op.rss_mb for op in rnd.ops),
        "accuracy_err": rnd.accuracy,
    }


def per_layer(rnd: Round) -> dict[str, float]:
    def tot(kind: str, name: str) -> float:
        return sum(op.layers[kind].get(name, 0) for op in rnd.ops)

    rhs = [x for op in rnd.ops for x in op.layers["durations"].get("collision.rhs", [])]
    return {
        "cli.startup_s": sum(op.ready for op in rnd.ops),
        "kernel.build_s": tot("total", "kernel.build"),
        "integrator.initial_state_s": tot("total", "integrator.initial_state"),
        "collision.rhs_calls": tot("calls", "collision.rhs"),
        "collision.rhs_self_s": tot("self", "collision.rhs"),
        "collision.rhs_ms_p50": 1e3 * statistics.median(rhs) if rhs else 0.0,
        "spectral.apply_cutoff_s": tot("total", "spectral.apply_cutoff"),
        "spectral.apply_cutoff_calls": tot("calls", "spectral.apply_cutoff"),
        "spectral.project_s": tot("total", "spectral.project"),
        "spectral.fft_calls": sum(op.layers["fft"]["calls"] for op in rnd.ops),
        "spectral.fft_points": sum(op.layers["fft"]["points"] for op in rnd.ops),
        "spectral.fft_bytes_computed": sum(op.layers["fft"]["bytes"] for op in rnd.ops),
        "spectral.fft_s": sum(op.layers["fft"]["s"] for op in rnd.ops),
        "integrator.rk4_self_s": tot("self", "integrator.rk4_step"),
        "diagnostics.sample_s": tot("total", "diagnostics.sample"),
        "diagnostics.samples": tot("calls", "diagnostics.sample"),
        "cli.io_s": sum(tot("total", n) for n in
                        ("cli.read_snapshot", "cli.write_snapshot", "cli.write_csv")),
        "cli.snapshot_bytes": sum(op.layers["snapshot_bytes"] for op in rnd.ops),
        "trace.wall_s": sum(op.wall for op in rnd.ops),
        "trace.setup_s": sum(op.setup for op in rnd.ops),
    }


def run_workload(name: str, seconds: float, trace: bool) -> dict:
    run_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    rounds: list[Round] = []
    durations: list[float] = []
    # whole rounds only; start another only if it should end within the budget
    while not rounds or time.monotonic() - start + statistics.mean(durations) <= seconds:
        d = run_dir / f"r{len(rounds)}"
        d.mkdir(parents=True)
        t0 = time.monotonic()
        rounds.append(WORKLOADS[name](
            d, lambda args: launch(args, d, trace, start + RUN_DEADLINE_S)))
        durations.append(time.monotonic() - t0)
        print(f"{name} round {len(rounds)}: " + ", ".join(
            f"{op.wall:.3f}/{op.setup:.3f}/{op.march:.3f} s" if op.ok else "failed"
            for op in rounds[-1].ops) + " (wall/setup/march per command)")

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(not op.ok for r in rounds for op in r.ops)
    fails = [msg for r in rounds for msg in r.fails]
    for msg in fails:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    whole = [r for r in rounds if all(op.ok for op in r.ops)]
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    if whole:
        per_round = [(per_layer if trace else end_to_end)(r) for r in whole]
        metrics = {k: {"value": statistics.median(m[k] for m in per_round), "unit": u}
                   for k, u in units.items()}
    if not fails and not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": metrics, "rounds": len(rounds)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="labels the run; the workloads have no random inputs")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/landau_spectral/__init__.py").is_file():
        print("run from the root of a landau-spectral checkout (src/landau_spectral "
              "not found)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seconds, bool(args.trace))
        results[name] = res
        print(f"{name}: {res['rounds']} rounds, attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}")
        for k, m in res["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        final = {k: v for k, v in results[args.workload].items() if k != "rounds"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

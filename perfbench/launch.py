"""Child-process entry: run one ``landau-spectral`` CLI command with probes.

Usage: python3 perfbench/launch.py MARKS_JSON TRACE -- CLI_ARGS...

The parent passes the monotonic time at which it started this process in
``PERFBENCH_T0``.  Without tracing, the only probe is a wrapper around
``integrator.run`` as the CLI looks it up, which marks where set-up ends
and time stepping begins: two clock reads per march.  With tracing, every
layer boundary listed in ``TRACED`` is wrapped where its caller looks it
up, and the per-layer totals go into the marks file.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# (module, attribute, span name): each is wrapped where its caller looks it up
TRACED = [
    ("cli", "build_or_load_tables", "kernel.build"),
    ("cli", "initial_state", "integrator.initial_state"),
    ("cli", "read_snapshot", "cli.read_snapshot"),
    ("cli", "write_snapshot", "cli.write_snapshot"),
    ("diagnostics", "write_csv", "cli.write_csv"),
    ("integrator", "rk4_step", "integrator.rk4_step"),
    ("integrator", "q_scheme_rhs", "collision.rhs"),
    ("integrator", "sample_state", "diagnostics.sample"),
    ("collision", "apply_cutoff", "spectral.apply_cutoff"),
    ("collision", "project", "spectral.project"),
]
FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    """In-memory span totals: calls, total and self time, per-call durations.

    A span's self time is its duration minus the time of the traced spans
    it called.  FFT calls are counted and timed, but are not spans, so the
    collision's self time keeps the convolution's transforms.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.snapshot_bytes = 0
        self.fft = {"calls": 0, "points": 0, "bytes": 0, "s": 0.0}
        self._child = [0.0]  # child-time accumulator per open span

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._child.pop()
                self._child[-1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
                self.durations.setdefault(name, []).append(dur)
        return wrapper

    def fft_counter(self, fn):
        def wrapper(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            self.fft["s"] += time.perf_counter() - t0
            self.fft["calls"] += 1
            # transform length: the real side for rfftn/irfftn, else the input
            self.fft["points"] += out.size if out.dtype.kind == "f" else a.size
            self.fft["bytes"] += a.nbytes + out.nbytes
            return out
        return wrapper

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "durations": self.durations,
            "snapshot_bytes": self.snapshot_bytes,
            "fft": self.fft,
        }


def install_tracer(tracer: Tracer, mods: dict) -> None:
    import scipy.fft

    for modname, attr, name in TRACED:
        mod = mods[modname]
        setattr(mod, attr, tracer.span(name, getattr(mod, attr)))

    def count_written(fn):
        def wrapper(path, field, t):
            tracer.snapshot_bytes += field.data.nbytes
            return fn(path, field, t)
        return wrapper

    def count_read(fn):
        def wrapper(path):
            vals, header = fn(path)
            tracer.snapshot_bytes += vals.nbytes
            return vals, header
        return wrapper

    cli = mods["cli"]
    cli.write_snapshot = count_written(cli.write_snapshot)
    cli.read_snapshot = count_read(cli.read_snapshot)
    for attr in FFT_ENTRY_POINTS:
        setattr(scipy.fft, attr, tracer.fft_counter(getattr(scipy.fft, attr)))


def main() -> int:
    marks_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = float(os.environ["PERFBENCH_T0"])

    from landau_spectral import cli, collision, diagnostics, integrator

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"landau_spectral was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 4

    marches = []
    march = cli.run

    def timed_run(*args, **kwargs):
        start = time.monotonic()
        try:
            return march(*args, **kwargs)
        finally:
            marches.append((start - t0, time.monotonic() - t0))

    cli.run = timed_run
    tracer = None
    if trace:
        tracer = Tracer()
        install_tracer(tracer, {"cli": cli, "collision": collision,
                                "diagnostics": diagnostics, "integrator": integrator})
    ready = time.monotonic() - t0
    rc = cli.main(argv)
    marks = {
        "rc": rc,
        "ready": ready,
        "marches": marches,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.report() if tracer else None,
    }
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

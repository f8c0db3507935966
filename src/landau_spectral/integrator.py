"""Fixed-step classical RK4 time integration of the truncated dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import q_scheme_rhs
from .diagnostics import sample_state
from .kernel import KernelTables
from .spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    _psi_grid_values,
    project,
    to_spectral,
)


class BlowUpError(RuntimeError):
    """Integration produced non-finite or runaway values."""

    def __init__(self, step: int, t: float, dt: float):
        super().__init__(
            f"state blew up during step {step}; last good state at t = "
            f"{t - dt:g}; the explicit scheme is unstable at this dt"
        )
        self.step = step
        self.t = t
        self.last_good_t = t - dt


@dataclass(frozen=True)
class TimeConfig:
    """Fixed time step dt up to t_end, sampling diagnostics every sample_every steps."""

    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


def rk4_step(fhat: SpectralField, dt: float, rhs) -> SpectralField:
    """One classical Runge-Kutta-4 step f -> f + dt/6 (k1 + 2k2 + 2k3 + k4)."""
    if dt == 0.0:
        return fhat.copy()
    k1 = rhs(fhat)
    k2 = rhs(fhat + (0.5 * dt) * k1)
    k3 = rhs(fhat + (0.5 * dt) * k2)
    k4 = rhs(fhat + dt * k3)
    return fhat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def initial_state(f0, grid: GridSpec) -> SpectralField:
    """Project a function f0(V) restricted to the box onto the mode set.

    f0 is multiplied pointwise by the velocity cutoff psi_R before the
    projection (a no-op for cutoff_shape == "none"); sampling happens on
    the oversampled collocation grid so the projection quadrature matches
    the one used for cutoff multiplications during the run.
    """
    from .diagnostics import _v_stack  # local import to avoid a cycle at import time

    n = grid.oversample * grid.P
    V = _v_stack(grid, n)
    vals = np.asarray(f0(V), dtype=np.float64)
    if grid.cutoff_shape != "none":
        vals = vals * _psi_grid_values(grid, n)
    return to_spectral(PhysicalField(vals, grid))


def run(
    initial: SpectralField,
    grid: GridSpec,
    tables: KernelTables,
    time: TimeConfig,
    sinks=(),
    *,
    exact=None,
    on_sample=None,
) -> SpectralField:
    """March the truncated dynamics with RK4, emitting diagnostics records.

    A DiagnosticsRecord goes to every sink at step 0, every
    ``sample_every``-th step and the final step.  ``on_sample(step, t,
    fhat)``, when given, is called at every step including step 0 (for
    snapshot writers with their own cadence).  Returns the final state.
    """
    if initial.grid != grid:
        raise ValueError("initial state lives on a different grid")
    rhs = lambda g: q_scheme_rhs(g, grid, tables)

    def emit(step: int, t: float, fhat: SpectralField):
        rec = sample_state(t, fhat, exact)
        for sink in sinks:
            sink(rec)

    f = initial
    emit(0, 0.0, f)
    if on_sample is not None:
        on_sample(0, 0.0, f)
    n = time.n_steps
    # unstable runs can sit at huge-but-finite amplitudes for many steps
    # before overflowing, so bound the sup against the initial scale too
    sup_cap = 1e9 * (1.0 + float(np.max(np.abs(initial.data))))
    for step in range(1, n + 1):
        f = rk4_step(f, time.dt, rhs)
        t = step * time.dt
        sup = float(np.max(np.abs(f.data)))
        if not np.isfinite(sup) or sup > sup_cap:
            raise BlowUpError(step, t, time.dt)
        if step % time.sample_every == 0 or step == n:
            emit(step, t, f)
        if on_sample is not None:
            on_sample(step, t, f)
    return f

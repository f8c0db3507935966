"""Correctness checks on the outputs of ``landau-spectral`` runs.

Every check tests a property the method must have, never agreement with a
saved copy of earlier output.  Each returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

# .lsfd snapshot header: magic, version, P, L, gamma, t (little-endian)
_LSFD_HEADER = struct.Struct("<4sIIddd")

# Mass leaks only through the cutoff psi_R applied after each collision
# evaluation (the operator's mass mode is null on the mode set), so the
# relative drift grows at most linearly in t at the rate at which Q(F, F)
# carries mass past 0.9 R.  The shell datum at L = 1.8 loses 2.8e-4 of its
# mass per unit time at P = 32 and 1.2e-5 at P = 48; the bound leaves a
# factor 7 over the larger.
MASS_DRIFT_RATE = 2e-3

# Momentum components are sums of the same products in a permuted order,
# so they agree to rounding (~1e-18 here); the tolerance is scaled by the
# largest momentum the state could carry, mass * L.
MOMENTUM_SYMMETRY_TOL = 1e-12

RESTART_TOL = 1e-12


def read_diagnostics(path) -> dict[str, list[float]]:
    """Read ``diagnostics.csv`` into columns of floats (empty cells -> nan)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {
        name: [float(r[i]) if r[i] else math.nan for r in body]
        for i, name in enumerate(header)
    }


def check_diagnostics(cols: dict[str, list[float]], dt: float, L: float,
                      n_steps: int) -> list[str]:
    """Properties of a shell run sampled at every step."""
    fails = []
    needed = ("t", "mass", "mom_x", "mom_y", "mom_z", "rel_entropy")
    missing = [c for c in needed if c not in cols]
    if missing:
        return [f"diagnostics.csv lacks columns {missing}"]
    t = cols["t"]
    if len(t) != n_steps + 1:
        return [f"expected {n_steps + 1} rows, got {len(t)}"]
    for name in needed:
        if not all(math.isfinite(x) for x in cols[name]):
            fails.append(f"column {name} has non-finite values")
    if fails:
        return fails

    bad_t = [k for k, tk in enumerate(t) if tk != k * dt]
    if bad_t:
        k = bad_t[0]
        fails.append(f"t column: row {k} has t = {t[k]!r}, expected {k * dt!r}")

    mass = cols["mass"]
    m0 = mass[0]
    if not m0 > 0:
        fails.append(f"initial mass {m0!r} is not positive")
        return fails
    for k, (tk, mk) in enumerate(zip(t, mass)):
        drift = abs(mk - m0) / m0
        if drift > MASS_DRIFT_RATE * tk:
            fails.append(
                f"mass drift {drift:.3e} at t = {tk:g} exceeds "
                f"{MASS_DRIFT_RATE:g} * t = {MASS_DRIFT_RATE * tk:.3e}"
            )
            break

    h = cols["rel_entropy"]
    if not h[-1] < h[0]:
        fails.append(f"relative entropy did not decrease: {h[0]!r} -> {h[-1]!r}")

    for k, mk in enumerate(mass):
        mx, my, mz = cols["mom_x"][k], cols["mom_y"][k], cols["mom_z"][k]
        tol = MOMENTUM_SYMMETRY_TOL * L * abs(mk)
        if abs(mx - my) > tol or abs(my - mz) > tol:
            fails.append(
                f"momentum not permutation-symmetric at row {k}: "
                f"({mx!r}, {my!r}, {mz!r}), tol {tol:.3e}"
            )
            break
    return fails


def mass_drift(cols: dict[str, list[float]]) -> float:
    """Largest relative mass change over the run."""
    m0 = cols["mass"][0]
    return max(abs(m - m0) for m in cols["mass"]) / m0


def read_convergence(path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_convergence(rows: list[dict[str, float]], grids: list[int]) -> list[str]:
    """Spectral accuracy: doubling P cuts the error by at least 10x."""
    got = [int(r["P"]) for r in rows]
    if got != grids:
        return [f"convergence.csv has grids {got}, expected {grids}"]
    fails = []
    e2 = [r["max_e2"] for r in rows]
    for P, e in zip(grids, e2):
        if not (math.isfinite(e) and e > 0):
            fails.append(f"max_e2 at P = {P} is {e!r}, expected finite and positive")
    if fails:
        return fails
    for (Pa, ea), (Pb, eb) in zip(zip(grids, e2), zip(grids[1:], e2[1:])):
        if not eb <= 0.1 * ea:
            fails.append(
                f"max_e2 fell only from {ea:.3e} (P = {Pa}) to {eb:.3e} (P = {Pb}); "
                f"expected at least a factor 10"
            )
    return fails


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    """Parse an ``.lsfd`` snapshot into (header, P^3 values)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, P, L, gamma, t = _LSFD_HEADER.unpack_from(raw)
    if magic != b"LSFD":
        raise ValueError(f"{path}: bad magic {magic!r}")
    vals = np.frombuffer(raw, dtype="<f8", offset=_LSFD_HEADER.size)
    if vals.size != P**3:
        raise ValueError(f"{path}: {vals.size} values, expected {P**3}")
    return {"version": version, "P": P, "L": L, "gamma": gamma, "t": t}, vals


def check_restart(continuous, restarted) -> list[str]:
    """The restarted run's final state equals the continuous run's."""
    (ha, a), (hb, b) = continuous, restarted
    if (ha["P"], ha["L"], ha["gamma"]) != (hb["P"], hb["L"], hb["gamma"]):
        return [f"snapshot grids differ: {ha} vs {hb}"]
    scale = float(np.max(np.abs(a)))
    dev = float(np.max(np.abs(a - b)))
    if not (scale > 0 and math.isfinite(dev) and dev <= RESTART_TOL * scale):
        return [f"restart final state differs by {dev:.3e} (scale {scale:.3e}, "
                f"tol {RESTART_TOL:g} relative)"]
    return []

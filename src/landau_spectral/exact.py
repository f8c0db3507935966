"""Reference velocity distributions: the BKW similarity solution and the
spherical-shell initial datum for Coulomb relaxation runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BkwParams:
    """Parameters of the BKW family f(t) with scale S(t) = 1 - amplitude e^(-rate t).

    amplitude <= 0.4 keeps S >= 3/5 and hence the density nonnegative; the
    classical case amplitude = 0.4 starts exactly at the boundary, where
    f(0, 0) = 0.
    """

    rate: float = 4.0
    amplitude: float = 0.4

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and positive, got {self.rate}")
        if not 0.0 <= self.amplitude <= 0.4:
            raise ValueError(
                f"amplitude must lie in [0, 0.4] so that S(t) >= 3/5, got {self.amplitude}"
            )

    @property
    def S0(self) -> float:
        return 1.0 - self.amplitude

    def scale(self, t: float) -> float:
        return 1.0 - self.amplitude * np.exp(-self.rate * t)


def bkw(t, v, params: BkwParams = BkwParams()):
    """BKW solution of the Maxwell-molecules (gamma = 0) equation.

        f(t, v) = (2 pi S)^(-3/2) [ (5S-3)/(2S) + (1-S)/(2S^2) |v|^2 ]
                  exp(-|v|^2 / (2S)),    S = 1 - amplitude e^(-rate t).

    Unit mass and total energy 3 (temperature 1) for every t; relaxes to
    the unit Maxwellian as S -> 1.  ``v`` is a 3-vector or (..., 3) array.
    """
    S = params.scale(t)
    vv = np.sum(np.asarray(v, dtype=np.float64) ** 2, axis=-1)
    pref = (2.0 * np.pi * S) ** -1.5
    poly = (5.0 * S - 3.0) / (2.0 * S) + (1.0 - S) / (2.0 * S * S) * vv
    out = pref * poly * np.exp(-vv / (2.0 * S))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ShellParams:
    """Spherical shell exp profile: radius sigma, sharpness/amplitude S."""

    sigma: float = 0.3
    S: float = 10.0

    def __post_init__(self):
        for name in ("sigma", "S"):
            x = getattr(self, name)
            if not (np.isfinite(x) and x > 0):
                raise ValueError(f"{name} must be finite and positive, got {x}")


def coulomb_shell(v, params: ShellParams = ShellParams()):
    """Isotropic shell datum f0(v) = S^-2 exp(-S (|v| - sigma)^2 / sigma^2).

    Used unnormalized (total mass well below one), which sets the slow
    relaxation time scale of the Coulomb test runs.
    """
    r = np.linalg.norm(np.asarray(v, dtype=np.float64), axis=-1)
    out = params.S**-2 * np.exp(-params.S * (r - params.sigma) ** 2 / params.sigma**2)
    if out.ndim == 0:
        return float(out)
    return out

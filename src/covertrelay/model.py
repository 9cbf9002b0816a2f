"""Shared domain types: physical parameters, budgets, and unit handling.

All powers are carried internally in watts; dBm only appears at the
interface boundary.  Every type validates eagerly at construction so the
closed forms downstream can assume 0 < mu1 < mu2 etc. without rechecking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "AntennaConfig",
    "SystemParams",
    "ConstraintSet",
    "RateParams",
    "McEstimate",
    "RngSpec",
    "dbm_to_watts",
    "watts_to_dbm",
    "rho_from_db",
    "load_config",
    "NOISE_GRID_DBM",
]

# The paper's nominal noise powers in dBm, shared by the figures, the
# validation campaign and the discrepancy report.
NOISE_GRID_DBM = (-10.0, -5.0, 3.0)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _two_hop(a, b):
    """1 - (1 - a)(1 - b): either of two independent events, for floats or arrays."""
    return 1.0 - (1.0 - a) * (1.0 - b)


def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power level in dBm to watts (30 dBm -> 1 W)."""
    x_dbm = _require_finite("power in dBm", x_dbm)
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_watts: float) -> float:
    """Inverse of dbm_to_watts."""
    x_watts = _require_finite("power in watts", x_watts)
    if x_watts <= 0:
        raise ValueError(f"power must be > 0 to express in dBm, got {x_watts}")
    return 30.0 + 10.0 * math.log10(x_watts)


def rho_from_db(rho_db: float) -> float:
    """Noise-uncertainty ratio from its dB representation, rho = 10^(dB/10)."""
    rho_db = _require_finite("rho in dB", rho_db)
    return 10.0 ** (rho_db / 10.0)


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts at the source, relay (rx/tx) and destination."""

    n_s: int = 1
    n_rr: int = 1
    n_rt: int = 1
    n_d: int = 1

    def __post_init__(self) -> None:
        for name in ("n_s", "n_rr", "n_rt", "n_d"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    @property
    def is_single(self) -> bool:
        return self.n_s == self.n_rr == self.n_rt == self.n_d == 1


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration: transmit powers, nominal noise, uncertainty."""

    p_s: float
    p_r: float
    sigma_n2: float
    rho: float
    antennas: AntennaConfig = field(default_factory=AntennaConfig)

    def __post_init__(self) -> None:
        for name in ("p_s", "p_r", "sigma_n2"):
            value = _require_finite(name, getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be > 0 W, got {value}")
            object.__setattr__(self, name, value)
        rho = _require_finite("rho", self.rho)
        if rho <= 1:
            raise ValueError(f"rho must be > 1, got {rho}")
        object.__setattr__(self, "rho", rho)

    @property
    def mu1(self) -> float:
        """Lower noise-power bound sigma_n^2 / rho."""
        return self.sigma_n2 / self.rho

    @property
    def mu2(self) -> float:
        """Upper noise-power bound rho * sigma_n^2."""
        return self.rho * self.sigma_n2

    def with_powers(self, p_s: float, p_r: float) -> "SystemParams":
        return SystemParams(p_s, p_r, self.sigma_n2, self.rho, self.antennas)


@dataclass(frozen=True)
class ConstraintSet:
    """Covertness, reliability, and power budgets for the optimizers."""

    epsilon: float
    delta: float
    p_max: float

    def __post_init__(self) -> None:
        epsilon = _require_finite("epsilon", self.epsilon)
        delta = _require_finite("delta", self.delta)
        p_max = _require_finite("p_max", self.p_max)
        if not (0 < epsilon < 1):
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if not (0 < delta < 1):
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if p_max <= 0:
            raise ValueError(f"p_max must be > 0, got {p_max}")


@dataclass(frozen=True)
class RateParams:
    """Target transmission rate in bit/s/Hz."""

    t: float

    def __post_init__(self) -> None:
        t = _require_finite("t", self.t)
        if t < 0:
            raise ValueError(f"rate must be >= 0, got {t}")
        object.__setattr__(self, "t", t)

    @property
    def kappa(self) -> float:
        """SNR threshold 2^(2t) - 1 of the half-duplex outage event.

        Infinite past the float range (t > ~512), where every hop is in
        outage.
        """
        try:
            return math.expm1(2.0 * self.t * math.log(2.0))
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo estimate with its reproducibility record."""

    mean: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.stderr < 0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class RngSpec:
    """Seed plus substream index identifying one reproducible stream."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream < 0:
            raise ValueError(f"stream index must be >= 0, got {self.stream}")


def load_config(path: str) -> dict[str, str]:
    """Parse a key = value configuration file with # comments.

    Values are returned as strings; the CLI owns the typed interpretation
    so that flags and file entries go through identical parsing.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            values[key] = value
    return values

"""Analytic-vs-Monte-Carlo validation campaign used by the `validate` command.

Each check pits one closed form (or quadrature reference) against its
seeded Monte-Carlo estimator and passes when the analytic value lies
within `n_sigma` standard errors of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import RngSpec
from .detection import mc_dep_two_hop, min_dep_slot, min_dep_two_hop, mc_dep_slot, optimal_threshold
from .model import NOISE_GRID_DBM, RateParams, SystemParams, dbm_to_watts
from .throughput import (
    mc_outage_hop,
    outage_hop_multi_reference,
    outage_hop_single,
)

__all__ = ["ValidationCheck", "run_validation"]


@dataclass(frozen=True)
class ValidationCheck:
    """One analytic-vs-MC comparison outcome."""

    name: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    n_sigma: float
    passed: bool


def _check(name, analytic, estimate, n_sigma) -> ValidationCheck:
    # For rare events the empirical stderr collapses to 0 (zero hits);
    # fall back to the binomial standard error under the analytic value.
    floor = math.sqrt(max(analytic * (1.0 - analytic), 0.0) / estimate.n)
    stderr = max(estimate.stderr, floor)
    passed = abs(analytic - estimate.mean) <= n_sigma * stderr
    return ValidationCheck(name, analytic, estimate.mean, stderr, n_sigma, passed)


def run_validation(
    samples: int = 1_000_000,
    seed: int = 42,
    workers: int = 1,
    n_sigma: float = 3.0,
    rho: float = 1.5,
) -> list[ValidationCheck]:
    """Run the standard validation grid and return per-check results.

    `workers` accepts only 1; it stays while bench/worker.py passes it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    checks: list[ValidationCheck] = []
    stream = 0

    def next_spec() -> RngSpec:
        nonlocal stream
        stream += 1
        return RngSpec(seed, stream)

    # Minimum per-slot and two-hop DEP across the noise grid.
    for sigma_dbm in NOISE_GRID_DBM:
        sigma_n2 = dbm_to_watts(sigma_dbm)
        for p in (1.0, 3.0):
            params = SystemParams(p, p, sigma_n2, rho)
            tau = optimal_threshold(params)
            checks.append(
                _check(
                    f"min_dep_slot[p={p},sigma={sigma_dbm}dBm]",
                    min_dep_slot(p, params),
                    mc_dep_slot(p, tau, params, samples, next_spec()),
                    n_sigma,
                )
            )
            checks.append(
                _check(
                    f"min_dep_two_hop[p={p},sigma={sigma_dbm}dBm]",
                    min_dep_two_hop(params),
                    mc_dep_two_hop(params, tau, samples, next_spec()),
                    n_sigma,
                )
            )

    # Hop outages, single antenna and TAS/MRC.
    sigma_n2 = dbm_to_watts(-5.0)
    params = SystemParams(1.0, 1.0, sigma_n2, rho)
    for t in (0.5, 1.5):
        rate = RateParams(t)
        checks.append(
            _check(
                f"outage_hop_single[T={t}]",
                outage_hop_single(1.0, rate, params),
                mc_outage_hop(1.0, rate, params, 1, 1, samples, next_spec()),
                n_sigma,
            )
        )
    rate = RateParams(1.5)
    for n_t, n_r in ((2, 2), (2, 8), (4, 4)):
        checks.append(
            _check(
                f"outage_hop_multi[T=1.5,n_t={n_t},n_r={n_r}]",
                outage_hop_multi_reference(1.0, rate, params, n_t, n_r),
                mc_outage_hop(1.0, rate, params, n_t, n_r, samples, next_spec()),
                n_sigma,
            )
        )
    return checks

"""Covert-communication performance analysis for two-hop DF relay links.

Detection error probability at a noise-uncertain radiometer warden,
Rayleigh-fading outage and covert throughput (single-antenna and
TAS/MRC), and constrained throughput maximization — each closed form
backed by an independent quadrature reference and a seeded Monte-Carlo
estimator.

The exports resolve on first access (PEP 562), so that importing the
package, or a module that needs only the scalar closed forms, does not
import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each export, by the module that defines it.
_HOMES = {
    "channel": ("make_generator",),
    "errors": ("InfeasibleError", "NumericError"),
    "model": ("AntennaConfig", "ConstraintSet", "McEstimate", "RateParams", "RngSpec",
              "SystemParams", "dbm_to_watts", "watts_to_dbm"),
    "detection": ("DetectionOutcome", "dep_slot_paper", "dep_slot_reference", "mc_dep_slot",
                  "mc_dep_two_hop", "min_dep_slot", "min_dep_two_hop", "optimal_threshold"),
    "optimize": ("Optimum", "optimize_multi", "optimize_single"),
    "specfun": ("ei_diff", "expint_ei", "expint_ei_scaled", "upper_gamma"),
    "throughput": ("ThroughputOutcome", "capacity_hop", "mc_outage_hop",
                   "outage_hop_multi_paper", "outage_hop_multi_reference",
                   "outage_hop_single", "throughput_multi", "throughput_single"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Covert-communication performance analysis for two-hop DF relay links.

Detection error probability at a noise-uncertain radiometer warden,
Rayleigh-fading outage and covert throughput (single-antenna and
TAS/MRC), and constrained throughput maximization — each closed form
backed by an independent quadrature reference and a seeded Monte-Carlo
estimator.
"""

from .channel import RngSpec, make_generator
from .errors import InfeasibleError, NumericError
from .model import (
    AntennaConfig,
    ConstraintSet,
    McEstimate,
    RateParams,
    SystemParams,
    dbm_to_watts,
    watts_to_dbm,
)
from .detection import (
    DetectionOutcome,
    dep_slot_paper,
    dep_slot_reference,
    mc_dep_slot,
    mc_dep_two_hop,
    min_dep_slot,
    min_dep_two_hop,
    optimal_threshold,
)
from .optimize import Optimum, optimize_multi, optimize_single
from .specfun import ei_diff, expint_ei, expint_ei_scaled, upper_gamma
from .throughput import (
    ThroughputOutcome,
    capacity_hop,
    mc_outage_hop,
    outage_hop_multi_paper,
    outage_hop_multi_reference,
    outage_hop_single,
    throughput_multi,
    throughput_single,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig",
    "ConstraintSet",
    "DetectionOutcome",
    "InfeasibleError",
    "McEstimate",
    "NumericError",
    "Optimum",
    "RateParams",
    "RngSpec",
    "SystemParams",
    "ThroughputOutcome",
    "capacity_hop",
    "dbm_to_watts",
    "dep_slot_paper",
    "dep_slot_reference",
    "ei_diff",
    "expint_ei",
    "expint_ei_scaled",
    "make_generator",
    "mc_dep_slot",
    "mc_dep_two_hop",
    "mc_outage_hop",
    "min_dep_slot",
    "min_dep_two_hop",
    "optimal_threshold",
    "optimize_multi",
    "optimize_single",
    "outage_hop_multi_paper",
    "outage_hop_multi_reference",
    "outage_hop_single",
    "throughput_multi",
    "throughput_single",
    "upper_gamma",
    "watts_to_dbm",
]

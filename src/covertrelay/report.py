"""Machine-readable discrepancy report for the verbatim published forms.

Two formula families are known-suspect and are therefore evaluated
verbatim and compared against the in-repo reference paths instead of
being silently trusted or silently repaired:

  * the per-slot DEP branch for thresholds above the upper noise bound
    (its large-threshold limit is not 1, which the defining
    probabilities require), and
  * the combinatorial TAS/MRC outage expansion (an index factor yields
    a negative incomplete-gamma argument, the gamma order degenerates
    for single receive antennas, and one log factor is ambiguous), which
    as printed is a violation for every input, in both readings alike.

Every comparison becomes one CSV row; domain violations are recorded as
text in place of a numeric value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .detection import dep_slot_paper, dep_slot_reference
from .model import NOISE_GRID_DBM, RateParams, SystemParams, dbm_to_watts
from .throughput import outage_hop_multi_paper, outage_hop_multi_reference

__all__ = ["DiscrepancyRecord", "build_discrepancy_report", "write_discrepancy_csv"]

CSV_COLUMNS = ("formula_id", "params", "paper_value_or_violation", "reference_value", "abs_diff")


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One verbatim-vs-reference comparison: the verbatim value, or its violation text."""

    formula_id: str
    params: str
    paper_value_or_violation: float | str
    reference_value: float

    def row(self) -> tuple:
        paper, ref = self.paper_value_or_violation, self.reference_value
        if isinstance(paper, str):  # the verbatim form could not be evaluated
            paper_cell, diff = paper, ""
        else:
            paper_cell, diff = f"{paper:.17g}", f"{abs(paper - ref):.17g}"
        return (self.formula_id, self.params, paper_cell, f"{ref:.17g}", diff)


# The validation grid of the report.
_RHO = 1.5
_POWERS = (1.0, 3.0, 5.0)
_ANTENNAS = ((1, 1), (2, 2), (2, 8), (4, 4))
_T = 1.5


def build_discrepancy_report() -> list[DiscrepancyRecord]:
    """Evaluate both suspect formula families across the validation grid.

    One pass over (sigma_n^2, p) fills both lists; the DEP rows come first.
    """
    dep: list[DiscrepancyRecord] = []
    outage: list[DiscrepancyRecord] = []
    rate = RateParams(_T)
    for sigma_dbm in NOISE_GRID_DBM:
        sigma_n2 = dbm_to_watts(sigma_dbm)
        for p in _POWERS:
            params = SystemParams(p, p, sigma_n2, _RHO)
            point = f"p={p};sigma_n2_dbm={sigma_dbm};rho={_RHO}"
            # Above-threshold DEP branch: tau > mu2 on a per-parameter tau grid.
            for tau in np.geomspace(params.mu2 * 1.001, params.mu2 + 20.0 * p, 10):
                tau = float(tau)
                dep.append(DiscrepancyRecord(
                    "dep_slot_above_upper_bound", f"{point};tau={tau:.6g}",
                    dep_slot_paper(p, tau, params), dep_slot_reference(p, tau, params)))
            # Combinatorial TAS/MRC outage, both readings of the ambiguous log factor.
            for n_t, n_r in _ANTENNAS:
                ref = outage_hop_multi_reference(p, rate, params, n_t, n_r)
                for interp in ("ln_rho_sq_arg", "ln_rho_sq_whole"):
                    outage.append(DiscrepancyRecord(
                        f"outage_multi_combinatorial[{interp}]",
                        f"{point};T={_T};n_t={n_t};n_r={n_r}",
                        outage_hop_multi_paper(p, rate, params, n_t, n_r, interp), ref))
    return dep + outage


def write_discrepancy_csv(records, path: str) -> None:
    """Write records to `path` in the fixed five-column schema."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())

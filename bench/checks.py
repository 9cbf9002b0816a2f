"""Output checks, run after a round's timed region.

Each check goes through a path independent of the timed one where one
exists: slot DEPs against the quadrature arbiter `dep_slot_reference`,
outages against an expectation over the noise written in the log-noise
variable u (x = sigma_n^2 rho^(2u-1)) with scipy's regularized
incomplete gamma as the gain CDF, and CLI output against the same calls
made in-process.  Tolerances are the ones the test suite uses: 1e-9 for
a closed form against its reference, 1e-9 slack on the optimizer
constraints, and 1e-12 relative for the throughput identity.

`check_round` returns (operations attempted, failures); a failure names
its operation and every reason it failed.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
from scipy import integrate, special

import workloads

REF_TOL = 1e-9
FEAS_SLACK = 1e-9
ETA_REL = 1e-12
# Share of each closed-form grid that is compared with the reference.
GRID_SAMPLE = 0.05
SWEEP_SAMPLE = 0.1


def outage_reference(p: float, t: float, sigma_n2: float, rho: float, n_t: int, n_r: int) -> float:
    """Hop outage E_u[F(kappa x / p)], u uniform on [0, 1], x = sigma_n^2 rho^(2u-1).

    F is the TAS/MRC gain CDF, P(Gamma(n_r, 1) < y)^n_t, taken from
    scipy.special.gammainc rather than the library's own CDF.
    """
    if t == 0.0:
        return 0.0
    kappa = math.expm1(2.0 * t * math.log(2.0))
    log_rho = math.log(rho)

    def integrand(u: float) -> float:
        x = sigma_n2 * math.exp((2.0 * u - 1.0) * log_rho)
        return float(special.gammainc(n_r, kappa * x / p)) ** n_t

    value, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    if abserr > 1e-10:
        raise ArithmeticError(f"outage reference quadrature error {abserr}")
    return value


class _Failures:
    def __init__(self) -> None:
        self.by_op: dict[str, list[str]] = {}

    def add(self, op: str, reason: str) -> None:
        self.by_op.setdefault(op, []).append(reason)

    def near(self, op: str, what: str, got: float, want: float, tol: float = REF_TOL) -> None:
        if not abs(got - want) <= tol:
            self.add(op, f"{what} = {got!r}, reference {want!r} (tolerance {tol:g})")

    def guard(self, op: str, check, *args) -> None:
        """Run check(self, op, *args); a check that raises fails its operation."""
        try:
            check(self, op, *args)
        except Exception as exc:  # noqa: BLE001 - reported as the operation's failure
            self.add(op, f"check raised {type(exc).__name__}: {exc}")

    def listing(self) -> list[str]:
        return [f"{op}: {'; '.join(reasons)}" for op, reasons in self.by_op.items()]


class _Checker:
    def __init__(self, lib) -> None:
        self.model = lib["model"]
        self.detection = lib["detection"]
        self.throughput = lib["throughput"]

    def params(self, point: dict, antennas=(1, 1)):
        return workloads.system_params(self.model, point, antennas)

    def slot_reference(self, p: float, params) -> float:
        return self.detection.dep_slot_reference(p, self.detection.optimal_threshold(params), params)

    def dep_matches(self, fail: _Failures, op: str, params) -> None:
        """Both slot DEPs against the arbiter, and xi against their combination."""
        pe = []
        for label, p in (("pe1", params.p_s), ("pe2", params.p_r)):
            closed = self.detection.min_dep_slot(p, params)
            fail.near(op, label, closed, self.slot_reference(p, params))
            pe.append(closed)
        xi = self.detection.min_dep_two_hop(params)
        if xi != 1.0 - (1.0 - pe[0]) * (1.0 - pe[1]):
            fail.add(op, f"xi = {xi!r} is not 1-(1-pe1)(1-pe2)")

    def xi_matches(self, fail: _Failures, op: str, params, xi: float) -> None:
        """A returned two-hop DEP against the combination of the two arbiter slot DEPs."""
        pe1 = self.slot_reference(params.p_s, params)
        pe2 = self.slot_reference(params.p_r, params)
        fail.near(op, "xi", xi, 1.0 - (1.0 - pe1) * (1.0 - pe2), 2 * REF_TOL)

    def hops_match(self, fail: _Failures, op: str, params, t: float, hops, antennas) -> None:
        for label, p, hop in (("hop1", params.p_s, hops[0]), ("hop2", params.p_r, hops[1])):
            ref = outage_reference(p, t, params.sigma_n2, params.rho, *antennas)
            fail.near(op, f"{label} outage", hop, ref)

    def throughput_row(self, fail: _Failures, op: str, params, t: float, row, antennas) -> None:
        hop1, hop2, p_out, eta = row
        if p_out != 1.0 - (1.0 - hop1) * (1.0 - hop2):
            fail.add(op, f"p_out = {p_out!r} is not 1-(1-hop1)(1-hop2)")
        _eta_identity(fail, op, eta, t, p_out)
        self.hops_match(fail, op, params, t, (hop1, hop2), antennas)

    def optimum(self, fail: _Failures, op: str, prob: dict, out: dict, antennas) -> None:
        if "error" in out:
            fail.add(op, out["error"])
            return
        p_s, p_r, t, eta = out["p_s"], out["p_r"], out["t"], out["eta"]
        p_max = workloads.P_MAX
        if not (0.0 < p_s <= p_max and 0.0 < p_r <= p_max):
            fail.add(op, f"powers ({p_s!r}, {p_r!r}) outside the box (0, {p_max}]")
            return
        if not t > 0.0:
            fail.add(op, f"rate t = {t!r} is not positive")
            return
        params = self.params(prob, antennas).with_powers(p_s, p_r)
        xi = self.detection.min_dep_two_hop(params)
        if xi < 1.0 - prob["epsilon"] - FEAS_SLACK:
            fail.add(op, f"covertness violated: xi = {xi!r} < 1 - epsilon")
        rate = self.model.RateParams(t)
        multi = antennas != (1, 1)
        again = (self.throughput.throughput_multi if multi else self.throughput.throughput_single)(
            params, rate)
        if again.p_out > prob["delta"] + FEAS_SLACK:
            fail.add(op, f"reliability violated: p_out = {again.p_out!r} > delta")
        _eta_identity(fail, op, eta, t, again.p_out)
        self.dep_matches(fail, op, params)
        self.hops_match(fail, op, params, t, (again.p_out_hop1, again.p_out_hop2), antennas)
        if multi:
            if not out["evaluations"]:
                fail.add(op, "no feasible point was evaluated")
            elif eta < out["best_evaluated"]:
                fail.add(op, f"eta {eta!r} below the best evaluated {out['best_evaluated']!r}")


def _eta_identity(fail: _Failures, op: str, eta: float, t: float, p_out: float) -> None:
    want = t * (1.0 - p_out)
    if not abs(eta - want) <= ETA_REL * max(abs(eta), abs(want), 1.0):
        fail.add(op, f"eta = {eta!r} is not t*(1 - p_out) = {want!r}")


def _sample(rng, n: int, share: float) -> list[int]:
    return sorted(rng.sample(range(n), max(1, round(share * n)))) if n else []


def _grid_errors(fail: _Failures, kind: str, values) -> None:
    for i, (value, err) in enumerate(values):
        if err:
            fail.add(f"{kind}[{i}]", err)


def _check_single(ck: _Checker, fail: _Failures, inputs, outputs, rng) -> int:
    for k, (prob, out) in enumerate(zip(inputs["problems"], outputs["solves"])):
        fail.guard(f"solve[{k}]", ck.optimum, prob, out, (1, 1))
    for kind in ("dep", "throughput", "power_limit"):
        _grid_errors(fail, kind, outputs[kind])
    for i in _sample(rng, len(inputs["dep"]), GRID_SAMPLE):
        xi, err = outputs["dep"][i]
        if err is None:
            fail.guard(f"dep[{i}]", ck.xi_matches, ck.params(inputs["dep"][i]), xi)
    for i in _sample(rng, len(inputs["throughput"]), GRID_SAMPLE):
        row, err = outputs["throughput"][i]
        if err is None:
            pt = inputs["throughput"][i]
            fail.guard(f"throughput[{i}]", ck.throughput_row, ck.params(pt), pt["t"], row, (1, 1))
    for i, (pt, (p_cov, err)) in enumerate(zip(inputs["power_limit"], outputs["power_limit"])):
        if err is None:
            fail.guard(f"power_limit[{i}]", _check_power_limit, ck, pt, p_cov)
    return len(outputs["solves"]) + sum(len(outputs[k]) for k in ("dep", "throughput",
                                                                     "power_limit"))


def _check_power_limit(fail: _Failures, op: str, ck: _Checker, pt: dict, p_cov: float) -> None:
    """p_cov keeps the reference two-hop DEP at 1 - epsilon, and 0.1 % more power breaks it."""
    target = 1.0 - pt["epsilon"]
    base = ck.params(pt)

    def xi_ref(p: float) -> float:
        pe = ck.slot_reference(p, base.with_powers(p, p))
        return 1.0 - (1.0 - pe) ** 2

    if not 0.0 < p_cov <= workloads.P_MAX:
        fail.add(op, f"p_cov = {p_cov!r} outside (0, {workloads.P_MAX}]")
        return
    if xi_ref(p_cov) < target - REF_TOL:
        fail.add(op, f"reference xi at p_cov = {p_cov!r} is below 1 - epsilon")
    if p_cov < workloads.P_MAX and xi_ref(p_cov * 1.001) > target + REF_TOL:
        fail.add(op, f"p_cov = {p_cov!r} is not the largest covert power")


def _check_tasmrc(ck: _Checker, fail: _Failures, inputs, outputs, rng) -> int:
    for prob, out in zip(inputs["problems"], outputs["solves"]):
        fail.guard(f"solve[{prob['n_t']}x{prob['n_r']}]", ck.optimum, prob, out,
                   (prob["n_t"], prob["n_r"]))
    attempted = len(outputs["solves"])
    for j, (sw, rows) in enumerate(zip(inputs["sweeps"], outputs["sweeps"])):
        kind = f"sweep[{j}:{sw['n_t']}x{sw['n_r']}]"
        _grid_errors(fail, kind, rows)
        antennas = (sw["n_t"], sw["n_r"])
        params = ck.params(sw, antennas)
        for i in _sample(rng, len(rows), SWEEP_SAMPLE):
            row, err = rows[i]
            if err is None:
                fail.guard(f"{kind}[{i}]", ck.throughput_row, params, sw["rates"][i], row,
                           antennas)
        attempted += len(rows)
    return attempted


_CHECK_NAME = re.compile(r"^(\w+)\[(.*)\]$")


def _check_validation(ck: _Checker, fail: _Failures, inputs, outputs) -> int:
    checks = outputs["validation"]
    if isinstance(checks, dict):
        fail.add("validate", checks["error"])
        attempted = 1
    else:
        attempted = len(checks)
        for name, analytic, mc_mean, mc_stderr, n_sigma, passed in checks:
            op = f"check[{name}]"
            if not passed:
                fail.add(op, f"analytic {analytic!r} vs MC {mc_mean!r} +- {mc_stderr!r} "
                             f"outside {n_sigma} sigma")
            fail.guard(op, _check_analytic, ck, name, analytic, inputs["rho"])
    report = outputs["report"]
    attempted += 1
    if isinstance(report, dict):
        fail.add("report", report["error"])
    else:
        fail.guard("report", _check_report, report)
    return attempted


def _check_analytic(fail: _Failures, op: str, ck: _Checker, name: str, analytic: float,
                    rho: float) -> None:
    """The analytic side of a validation check against its reference path."""
    match = _CHECK_NAME.match(name)
    if not match:
        fail.add(op, "unrecognised check name")
        return
    kind = match.group(1)
    fields = dict(item.split("=", 1) for item in match.group(2).split(","))
    if kind in ("min_dep_slot", "min_dep_two_hop"):
        p = float(fields["p"])
        sigma_dbm = float(fields["sigma"].removesuffix("dBm"))
        params = ck.params({"p_s": p, "p_r": p, "sigma_dbm": sigma_dbm, "rho": rho})
        pe = ck.slot_reference(p, params)
        want = pe if kind == "min_dep_slot" else 1.0 - (1.0 - pe) ** 2
        fail.near(op, kind, analytic, want, REF_TOL if kind == "min_dep_slot" else 2 * REF_TOL)
    elif kind in ("outage_hop_single", "outage_hop_multi"):
        n_t, n_r = int(fields.get("n_t", 1)), int(fields.get("n_r", 1))
        # The validation campaign evaluates hop outages at p = 1 W, -5 dBm.
        want = outage_reference(1.0, float(fields["T"]), ck.model.dbm_to_watts(-5.0), rho,
                                n_t, n_r)
        fail.near(op, kind, analytic, want)
    else:
        fail.add(op, f"no reference for check kind {kind!r}")


# 3 noise levels x 3 powers x 10 thresholds; 3 x 3 x 4 antenna pairs x 2
# readings of the ambiguous log factor (acceptance criterion 7).
REPORT_DEP_ROWS = 90
REPORT_OUTAGE_ROWS = 72


def _check_report(fail: _Failures, op: str, rows) -> None:
    dep = [r for r in rows if r[0] == "dep_slot_above_upper_bound"]
    outage = [r for r in rows if r[0].startswith("outage_multi_combinatorial")]
    if (len(dep), len(outage), len(rows)) != (REPORT_DEP_ROWS, REPORT_OUTAGE_ROWS,
                                              REPORT_DEP_ROWS + REPORT_OUTAGE_ROWS):
        fail.add(op, f"{len(dep)} DEP and {len(outage)} outage rows of {len(rows)}, "
                           f"expected {REPORT_DEP_ROWS} and {REPORT_OUTAGE_ROWS}")
    for r in rows:
        if r[2] == "" or not 0.0 <= float(r[3]) <= 1.0:
            fail.add(op, f"row {r[0]} {r[1]} lacks a value or a reference in [0, 1]")
    if any(r[4] == "" for r in dep):
        fail.add(op, "a DEP row has no numeric difference")


def _parse_csv(stdout: str):
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# params:"):
        raise ValueError("output does not start with a '# params:' line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _cli_expected(ck: _Checker, inv: dict):
    """Header and rows of the same call made in-process."""
    pt = inv["point"]
    antennas = (pt.get("n_t", 1), pt.get("n_r", 1))
    params = ck.params(pt, antennas)
    det, thr = ck.detection, ck.throughput
    if inv["name"] == "dep":
        return (["tau_star_w", "pe1_star", "pe2_star", "xi_star"],
                [[det.optimal_threshold(params), det.min_dep_slot(params.p_s, params),
                  det.min_dep_slot(params.p_r, params), det.min_dep_two_hop(params)]])
    rate = ck.model.RateParams(pt["t"])
    if inv["name"].startswith("throughput"):
        fn = thr.throughput_multi if antennas != (1, 1) else thr.throughput_single
        out = fn(params, rate)
        return (["t", "p_out_hop1", "p_out_hop2", "p_out", "eta"],
                [[pt["t"], out.p_out_hop1, out.p_out_hop2, out.p_out, out.eta]])
    rows = []
    for value in np.linspace(pt["lo"], pt["hi"], workloads.CLI_SWEEP_STEPS):
        point = params.with_powers(float(value), float(value))
        out = thr.throughput_single(point, rate)
        rows.append([float(value), det.min_dep_two_hop(point), out.p_out, out.eta])
    return ["p", "xi_star", "p_out", "eta"], rows


def _check_cli_output(fail: _Failures, op: str, ck: _Checker, inv: dict, stdout: str) -> None:
    header, rows = _parse_csv(stdout)
    want_header, want_rows = _cli_expected(ck, inv)
    if header != want_header:
        fail.add(op, f"header {header} != {want_header}")
    elif rows != want_rows:
        fail.add(op, "CSV values differ from the same calls made in-process")


def _check_cli(ck: _Checker, fail: _Failures, inputs, outputs) -> int:
    for inv, res in zip(inputs["invocations"], outputs["cli"]):
        op = f"cli[{inv['name']}]"
        if res["rc"] != 0:
            fail.add(op, f"exit code {res['rc']}: {res.get('stderr', '').strip()}")
            continue
        fail.guard(op, _check_cli_output, ck, inv, res["stdout"])
    return len(outputs["cli"])


def check_round(workload: str, inputs: dict, outputs: dict, lib, rng) -> tuple[int, list[str]]:
    """(operations attempted, failures listed by operation) for one round."""
    ck = _Checker(lib)
    fail = _Failures()
    if workload == "single_design":
        attempted = _check_single(ck, fail, inputs, outputs, rng)
    elif workload == "tasmrc_design":
        attempted = _check_tasmrc(ck, fail, inputs, outputs, rng)
    elif workload == "mc_validate":
        attempted = _check_validation(ck, fail, inputs, outputs)
    else:
        attempted = _check_cli(ck, fail, inputs, outputs)
    return attempted, fail.listing()

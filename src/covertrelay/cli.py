"""Command-line front end.

Verbs: dep, sweep, throughput, optimize-single, optimize-multi,
validate, figures.  All outputs are CSV (stdout or --out) with a
`# params:` comment line capturing the fully resolved configuration.
Exit codes: 0 success, 2 invalid parameters, 3 infeasible optimization,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import astuple, dataclass, replace

import numpy as np

from .detection import DetectionOutcome, min_dep_slot, min_dep_two_hop, optimal_threshold
from .errors import InfeasibleError, NumericError
from .model import (
    NOISE_GRID_DBM,
    AntennaConfig,
    ConstraintSet,
    RateParams,
    SystemParams,
    dbm_to_watts,
    load_config,
    rho_from_db,
)
from .optimize import covert_power_limit, optimize_multi, optimize_single
from .report import build_discrepancy_report, write_discrepancy_csv
from .throughput import throughput_multi, throughput_single
from .validation import run_validation

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

# Documented defaults for quantities the source material leaves open:
# the power cap for the optimization figures and the reference rate used
# when comparing unoptimized throughputs.
DEFAULT_P_MAX = 5.0
DEFAULT_T_REF = 0.5


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(out: str | None, params_line: str, header, rows) -> None:
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", newline="", encoding="utf-8")) as handle:
        handle.write(f"# params: {params_line}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


@dataclass
class _Resolved:
    """Flag values after merging CLI > config file > built-in default."""

    args: argparse.Namespace
    config: dict

    def get(self, name: str, default=None, cast=float):
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = cast(self.config[name])
        if value is None:
            value = default
        return value


def _system_params(res: _Resolved) -> SystemParams:
    rho = res.get("rho")
    rho_db = res.get("rho_db")
    if rho is not None and rho_db is not None:
        raise ValueError("give either --rho or --rho-db, not both")
    if rho is None:
        rho = rho_from_db(rho_db) if rho_db is not None else 1.5
    n_t = res.get("nt", 1, int)
    n_r = res.get("nr", 1, int)
    return SystemParams(
        p_s=res.get("ps", 1.0),
        p_r=res.get("pr", 1.0),
        sigma_n2=dbm_to_watts(res.get("sigma_n_dbm", -5.0)),
        rho=rho,
        antennas=AntennaConfig(n_s=n_t, n_rr=n_r, n_rt=n_t, n_d=n_r),
    )


def _params_line(res: _Resolved, params: SystemParams, extra: dict | None = None) -> str:
    fields = {
        "ps": params.p_s,
        "pr": params.p_r,
        "sigma_n2_w": params.sigma_n2,
        "rho": params.rho,
        "nt": params.antennas.n_s,
        "nr": params.antennas.n_rr,
        "seed": res.get("seed", 0, int),
    }
    if extra:
        fields.update(extra)
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _cmd_dep(res: _Resolved) -> int:
    params = _system_params(res)
    pe1, pe2 = (min_dep_slot(p, params) for p in (params.p_s, params.p_r))
    outcome = DetectionOutcome.combine(optimal_threshold(params), pe1, pe2)
    _write_csv(
        res.get("out", None, str),
        _params_line(res, params),
        ["tau_star_w", "pe1_star", "pe2_star", "xi_star"],
        [astuple(outcome)],
    )
    return EXIT_OK


def _throughput(params: SystemParams, t: float):
    single = params.antennas.is_single
    return (throughput_single if single else throughput_multi)(params, RateParams(t))


def _cmd_throughput(res: _Resolved) -> int:
    params = _system_params(res)
    t = res.get("t", DEFAULT_T_REF)
    out = _throughput(params, t)
    _write_csv(
        res.get("out", None, str),
        _params_line(res, params, {"t": t}),
        ["t", "p_out_hop1", "p_out_hop2", "p_out", "eta"],
        [(t, out.p_out_hop1, out.p_out_hop2, out.p_out, out.eta)],
    )
    return EXIT_OK


def _with_antennas(params: SystemParams, n_t: int, n_r: int) -> SystemParams:
    return replace(params, antennas=AntennaConfig(n_t, n_r, n_t, n_r))


# How each variable of `sweep` and of figures 3-8 moves a point (params, t)
# to value v; epsilon moves both powers to the covert power limit under
# the power cap.
_SWEEPS = {
    "p": lambda s, t, v, cap: (s.with_powers(v, v), t),
    "p_s": lambda s, t, v, cap: (s.with_powers(v, s.p_r), t),
    "p_r": lambda s, t, v, cap: (s.with_powers(s.p_s, v), t),
    "rho": lambda s, t, v, cap: (replace(s, rho=v), t),
    "sigma_n2_dbm": lambda s, t, v, cap: (replace(s, sigma_n2=dbm_to_watts(v)), t),
    "t": lambda s, t, v, cap: (s, v),
    "epsilon": lambda s, t, v, cap: (s.with_powers(*[covert_power_limit(v, s, cap)] * 2), t),
    "n_t": lambda s, t, v, cap: (
        replace(s, antennas=replace(s.antennas, n_s=round(v), n_rt=round(v))), t),
    "n_r": lambda s, t, v, cap: (
        replace(s, antennas=replace(s.antennas, n_rr=round(v), n_d=round(v))), t),
}


def _sweep_rows(base: SystemParams, variable: str, grid, values, outer=None,
                t: float = DEFAULT_T_REF, p_max: float = DEFAULT_P_MAX) -> list:
    """Rows (outer value, inner value, *values(params, t)) around a base point.

    The inner variable runs over `grid` for each value of the optional
    `outer` (variable, grid); both move the point (base, t) by `_SWEEPS`.
    """
    starts = [((), base, t)]
    if outer is not None:
        name, outer_grid = outer
        starts = [((float(v),), *_SWEEPS[name](base, t, float(v), p_max)) for v in outer_grid]
    rows = []
    for lead, params, start_t in starts:
        for v in grid:
            point = _SWEEPS[variable](params, start_t, float(v), p_max)
            rows.append((*lead, float(v), *values(*point)))
    return rows


def _xi(params: SystemParams, t: float) -> tuple:
    return (min_dep_two_hop(params),)


def _xi_outage_eta(params: SystemParams, t: float) -> tuple:
    out = _throughput(params, t)
    return min_dep_two_hop(params), out.p_out, out.eta


def _etas(params: SystemParams, t: float) -> tuple:
    # Throughput with single antennas and with TAS/MRC (2, 8).
    return _throughput(params, t).eta, _throughput(_with_antennas(params, 2, 8), t).eta


_FIG_BASE = SystemParams(1.0, 1.0, dbm_to_watts(-5.0), 1.5)
_NOISE_AXIS = ("sigma_n2_dbm", NOISE_GRID_DBM)
# Figure number -> (header, rows), computed on demand.  Figure 7's antenna
# pairs are not a product of two axes; each pair, (1, 1) included, goes
# through the TAS/MRC path.
_FIGURES = {
    3: lambda: (("sigma_n2_dbm", "P_watts", "xi_star"), _sweep_rows(
        _FIG_BASE, "p", np.linspace(0.1, 5.0, 50), _xi, outer=_NOISE_AXIS)),
    4: lambda: (("sigma_n2_dbm", "rho", "xi_star"), _sweep_rows(
        _FIG_BASE.with_powers(3.0, 3.0), "rho", np.linspace(1.01, 3.0, 50), _xi,
        outer=_NOISE_AXIS)),
    5: lambda: (("p_s", "p_r", "xi_star"), _sweep_rows(
        _FIG_BASE, "p_r", np.linspace(0.25, 5.0, 20), _xi,
        outer=("p_s", np.linspace(0.25, 5.0, 20)))),
    6: lambda: (("t", "eta_single", "eta_multi"), _sweep_rows(
        _FIG_BASE, "t", np.linspace(0.01, 3.0, 200), _etas)),
    7: lambda: (("n_t", "n_r", "eta"), [
        (n_t, n_r, throughput_multi(_with_antennas(_FIG_BASE, n_t, n_r), RateParams(1.5)).eta)
        for n_t, n_r in ((1, 1), (1, 2), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8))]),
    8: lambda: (("epsilon", "p_cov_w", "eta_single", "eta_multi"), _sweep_rows(
        _FIG_BASE, "epsilon", np.linspace(0.05, 0.5, 20), lambda s, t: (s.p_s, *_etas(s, t)))),
}


def _sweep_grid(res: _Resolved):
    lo = res.get("sweep_from")
    hi = res.get("sweep_to")
    steps = res.get("steps", 50, int)
    scale = res.get("scale", "linear", str)
    if lo is None or hi is None:
        raise ValueError("sweep requires --from and --to")
    if not lo < hi:
        raise ValueError(f"--from must be < --to, got ({lo}, {hi})")
    if steps < 2:
        raise ValueError(f"--steps must be >= 2, got {steps}")
    if scale == "log":
        if lo <= 0:
            raise ValueError("log scale requires --from > 0")
        return np.geomspace(lo, hi, steps)
    if scale != "linear":
        raise ValueError(f"--scale must be linear or log, got {scale!r}")
    return np.linspace(lo, hi, steps)


def _cmd_sweep(res: _Resolved) -> int:
    variable = res.get("variable", None, str)
    if variable not in _SWEEPS:
        raise ValueError(f"--variable must be one of {tuple(_SWEEPS)}, got {variable!r}")
    base = _system_params(res)
    t = res.get("t", DEFAULT_T_REF)
    rows = _sweep_rows(base, variable, _sweep_grid(res), _xi_outage_eta, t=t,
                       p_max=res.get("p_max", DEFAULT_P_MAX))
    _write_csv(
        res.get("out", None, str),
        _params_line(res, base, {"variable": variable, "t": t}),
        [variable, "xi_star", "p_out", "eta"],
        rows,
    )
    return EXIT_OK


def _cmd_figures(res: _Resolved) -> int:
    which = res.get("which", None, str)
    outdir = res.get("outdir", ".", str)
    os.makedirs(outdir, exist_ok=True)
    numbers = range(3, 9) if which in (None, "all") else [int(which)]
    for number in numbers:
        if number not in _FIGURES:
            raise ValueError(f"unknown figure {number}; data figures are 3-8")
        header, rows = _FIGURES[number]()
        _write_csv(
            os.path.join(outdir, f"fig{number}.csv"),
            f"figure={number} rho=1.5 seed={res.get('seed', 0, int)}",
            header,
            rows,
        )
    return EXIT_OK


def _constraints(res: _Resolved) -> ConstraintSet:
    return ConstraintSet(
        epsilon=res.get("epsilon", 0.15),
        delta=res.get("delta", 0.1),
        p_max=res.get("p_max", DEFAULT_P_MAX),
    )


def _write_optimum(res, params, constraints, opt) -> None:
    _write_csv(
        res.get("out", None, str),
        _params_line(
            res,
            params,
            {"epsilon": constraints.epsilon, "delta": constraints.delta,
             "p_max": constraints.p_max},
        ),
        ["p_s", "p_r", "t", "eta", "method", "active_constraints"],
        [(opt.p_s, opt.p_r, opt.t, opt.eta, opt.method,
          "|".join(sorted(opt.active_constraints)) or "none")],
    )


def _cmd_optimize_single(res: _Resolved) -> int:
    params = _system_params(res)
    constraints = _constraints(res)
    opt = optimize_single(constraints, params)
    _write_optimum(res, params, constraints, opt)
    return EXIT_OK


def _cmd_optimize_multi(res: _Resolved) -> int:
    params = _system_params(res)
    constraints = _constraints(res)
    h1 = res.get("h1")
    h2 = res.get("h2")
    h3 = res.get("h3")
    steps = None
    if any(v is not None for v in (h1, h2, h3)):
        if None in (h1, h2, h3):
            raise ValueError("give all of --h1/--h2/--h3 or none")
        steps = (h1, h2, h3)
    opt = optimize_multi(
        constraints,
        params,
        steps=steps,
        phi=res.get("phi", 1e-6),
        v_max=res.get("v_max", 10**6, int),
    )
    _write_optimum(res, params, constraints, opt)
    return EXIT_OK


def _cmd_validate(res: _Resolved) -> int:
    samples = res.get("samples", 1_000_000, int)
    seed = res.get("seed", 42, int)
    checks = run_validation(samples=samples, seed=seed)
    rows = [
        (c.name, c.analytic, c.mc_mean, c.mc_stderr, c.n_sigma, "pass" if c.passed else "FAIL")
        for c in checks
    ]
    out = res.get("out", None, str)
    _write_csv(
        out,
        f"samples={samples} seed={seed}",
        ["check", "analytic", "mc_mean", "mc_stderr", "n_sigma", "status"],
        rows,
    )
    report_dir = os.path.dirname(out) if out else "."
    write_discrepancy_csv(
        build_discrepancy_report(), os.path.join(report_dir or ".", "discrepancies.csv")
    )
    if not all(c.passed for c in checks):
        raise NumericError("one or more analytic-vs-MC checks failed (see report)")
    return EXIT_OK


def _add_system_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ps", type=float, help="source transmit power in watts (default 1)")
    sp.add_argument("--pr", type=float, help="relay transmit power in watts (default 1)")
    sp.add_argument("--sigma-n-dbm", dest="sigma_n_dbm", type=float,
                    help="nominal noise power in dBm (default -5)")
    sp.add_argument("--rho", type=float, help="noise-uncertainty ratio > 1 (default 1.5)")
    sp.add_argument("--rho-db", dest="rho_db", type=float,
                    help="noise uncertainty in dB (alternative to --rho)")
    sp.add_argument("--nt", type=int, help="transmit antennas per hop (default 1)")
    sp.add_argument("--nr", type=int, help="receive antennas per hop (default 1)")


def _add_constraint_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--epsilon", type=float, help="covertness budget (default 0.15)")
    sp.add_argument("--delta", type=float, help="reliability budget (default 0.1)")
    sp.add_argument("--p-max", dest="p_max", type=float,
                    help=f"per-hop power cap in watts (default {DEFAULT_P_MAX})")


def _build_parser() -> argparse.ArgumentParser:
    # The global flags are accepted before and after the verb; SUPPRESS
    # keeps the verb's parser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="Monte-Carlo seed, used by validate (default 42)")
    common.add_argument("--config", type=str, help="key = value file supplying flag defaults")
    common.add_argument("--out", type=str, help="CSV output path (default stdout)")
    parser = argparse.ArgumentParser(
        prog="covertrelay",
        description="Covert two-hop relay performance: detection error probability, "
        "outage, covert throughput, and constrained optimization.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, help, **kwargs):  # noqa: A002 - mirrors argparse's keyword
        return sub.add_parser(name, help=help, parents=[common], **kwargs)

    sp = add_parser("dep", help="optimal threshold and minimum DEP at one parameter point")
    _add_system_flags(sp)

    sp = add_parser("throughput", help="outage and covert throughput at one parameter point")
    _add_system_flags(sp)
    sp.add_argument("--t", type=float, help=f"target rate bit/s/Hz (default {DEFAULT_T_REF})")

    sp = add_parser("sweep", help="sweep one variable, emitting xi*, outage and throughput")
    _add_system_flags(sp)
    sp.add_argument("--variable", type=str, help=f"one of {', '.join(_SWEEPS)}")
    sp.add_argument("--from", dest="sweep_from", type=float, help="sweep start")
    sp.add_argument("--to", dest="sweep_to", type=float, help="sweep end")
    sp.add_argument("--steps", type=int, help="grid points (default 50)")
    sp.add_argument("--scale", type=str, help="linear or log (default linear)")
    sp.add_argument("--t", type=float, help="target rate for throughput columns")
    sp.add_argument("--p-max", dest="p_max", type=float,
                    help="power cap used by the epsilon sweep")

    sp = add_parser("optimize-single", help="KKT throughput maximization, single antenna")
    _add_system_flags(sp)
    _add_constraint_flags(sp)

    sp = add_parser("optimize-multi", help="grid throughput maximization, TAS/MRC")
    _add_system_flags(sp)
    _add_constraint_flags(sp)
    sp.add_argument("--h1", type=float, help="linear source-power step (default: log grid)")
    sp.add_argument("--h2", type=float, help="linear relay-power step (default: log grid)")
    sp.add_argument("--h3", type=float, help="rate step (default 0.01)")
    sp.add_argument("--phi", type=float, help="rate-loop convergence tolerance (default 1e-6)")
    sp.add_argument("--v-max", dest="v_max", type=int, help="evaluation cap (default 1e6)")

    sp = add_parser(
        "validate", help="analytic-vs-Monte-Carlo campaign + discrepancy report",
        description="Run the analytic-vs-Monte-Carlo campaign and write its CSV to --out. "
        "The discrepancy report is also written, to discrepancies.csv in the directory "
        "of --out, or in the working directory when --out is not given.",
    )
    sp.add_argument("--samples", type=int, help="trials per check (default 1e6)")

    sp = add_parser("figures", help="emit the standard figure CSVs (3-8)")
    sp.add_argument("--which", type=str, help="figure number 3-8 or 'all' (default all)")
    sp.add_argument("--outdir", type=str, help="output directory (default .)")

    return parser


_COMMANDS = {
    "dep": _cmd_dep,
    "throughput": _cmd_throughput,
    "sweep": _cmd_sweep,
    "optimize-single": _cmd_optimize_single,
    "optimize-multi": _cmd_optimize_multi,
    "validate": _cmd_validate,
    "figures": _cmd_figures,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
    res = _Resolved(args, config)
    try:
        return _COMMANDS[args.command](res)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs: dep, sweep, throughput, optimize-single, optimize-multi,
validate, figures.  Each verb accepts only the flags it reads (`_VERBS`);
--config, accepted before or after the verb, names a file whose keys set
the verb's flag defaults.  All outputs are CSV (stdout or --out; figures
write to --outdir) with a `# params:` comment line recording the value
of each of the verb's flags that names the computed point.
Exit codes: 0 success, 2 invalid parameters, 3 infeasible optimization,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import re
import sys
from dataclasses import astuple, replace

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
# Noise-uncertainty ratio when neither --rho nor --rho-db is given.
DEFAULT_RHO = 1.5


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


def _system_params(args: argparse.Namespace) -> SystemParams:
    """The point named by the verb's flags.

    `dep` has no antenna flags, since the warden's DEP does not depend on
    them. The optimizers have no power flags, since they choose the
    powers; their point carries unit powers, which they never read.
    """
    if args.rho_db is None:
        rho = DEFAULT_RHO if args.rho is None else args.rho
    elif args.rho is None:
        rho = rho_from_db(args.rho_db)
    else:
        raise ValueError("give either --rho or --rho-db, not both")
    n_t, n_r = (args.nt, args.nr) if "nt" in args else (1, 1)
    powers = (args.ps, args.pr) if "ps" in args else (1.0, 1.0)
    return SystemParams(*powers, dbm_to_watts(args.sigma_n_dbm), rho,
                        AntennaConfig(n_s=n_t, n_rr=n_r, n_rt=n_t, n_d=n_r))


def _params_line(args: argparse.Namespace, params: SystemParams, **extra) -> str:
    """`# params:` fields for the point's flags that the verb has, then `extra`."""
    fields = {"ps": params.p_s, "pr": params.p_r} if "ps" in args else {}
    fields.update(sigma_n2_w=params.sigma_n2, rho=params.rho)
    if "nt" in args:
        fields.update(nt=params.antennas.n_s, nr=params.antennas.n_rr)
    fields.update(extra)
    return " ".join(f"{k}={_fmt(v)}" for k, v in fields.items())


def _cmd_dep(args: argparse.Namespace) -> int:
    params = _system_params(args)
    pe1, pe2 = (min_dep_slot(p, params) for p in (params.p_s, params.p_r))
    outcome = DetectionOutcome.combine(optimal_threshold(params), pe1, pe2)
    _write_csv(
        args.out,
        _params_line(args, params),
        ["tau_star_w", "pe1_star", "pe2_star", "xi_star"],
        [astuple(outcome)],
    )
    return EXIT_OK


def _throughput(params: SystemParams, t: float):
    single = params.antennas.is_single
    return (throughput_single if single else throughput_multi)(params, RateParams(t))


def _cmd_throughput(args: argparse.Namespace) -> int:
    params = _system_params(args)
    out = _throughput(params, args.t)
    _write_csv(
        args.out,
        _params_line(args, params, t=args.t),
        ["t", "p_out_hop1", "p_out_hop2", "p_out", "eta"],
        [(args.t, out.p_out_hop1, out.p_out_hop2, out.p_out, out.eta)],
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


def _sweep_grid(args: argparse.Namespace):
    lo, hi, steps, scale = args.sweep_from, args.sweep_to, args.steps, args.scale
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.variable not in _SWEEPS:
        raise ValueError(f"--variable must be one of {tuple(_SWEEPS)}, got {args.variable!r}")
    base = _system_params(args)
    rows = _sweep_rows(base, args.variable, _sweep_grid(args), _xi_outage_eta, t=args.t,
                       p_max=args.p_max)
    _write_csv(
        args.out,
        _params_line(args, base, variable=args.variable, t=args.t),
        [args.variable, "xi_star", "p_out", "eta"],
        rows,
    )
    return EXIT_OK


def _cmd_figures(args: argparse.Namespace) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    numbers = range(3, 9) if args.which == "all" else [int(args.which)]
    for number in numbers:
        if number not in _FIGURES:
            raise ValueError(f"unknown figure {number}; data figures are 3-8")
        header, rows = _FIGURES[number]()
        _write_csv(
            os.path.join(args.outdir, f"fig{number}.csv"),
            f"figure={number} rho=1.5",
            header,
            rows,
        )
    return EXIT_OK


def _optimum(args: argparse.Namespace, solve) -> int:
    """Write the optimum `solve(constraints, params)` finds under the verb's budgets."""
    params = _system_params(args)
    constraints = ConstraintSet(args.epsilon, args.delta, args.p_max)
    opt = solve(constraints, params)
    _write_csv(
        args.out,
        _params_line(args, params, epsilon=args.epsilon, delta=args.delta, p_max=args.p_max),
        ["p_s", "p_r", "t", "eta", "method", "active_constraints"],
        [(opt.p_s, opt.p_r, opt.t, opt.eta, opt.method,
          "|".join(sorted(opt.active_constraints)) or "none")],
    )
    return EXIT_OK


def _cmd_optimize_single(args: argparse.Namespace) -> int:
    return _optimum(args, optimize_single)


def _cmd_optimize_multi(args: argparse.Namespace) -> int:
    steps = (args.h1, args.h2, args.h3)
    if None in steps:
        if steps != (None, None, None):
            raise ValueError("give all of --h1/--h2/--h3 or none")
        steps = None
    return _optimum(args, lambda constraints, params: optimize_multi(
        constraints, params, steps=steps, phi=args.phi, v_max=args.v_max))


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = run_validation(samples=args.samples, seed=args.seed)
    rows = [
        (c.name, c.analytic, c.mc_mean, c.mc_stderr, c.n_sigma, "pass" if c.passed else "FAIL")
        for c in checks
    ]
    out = args.out
    _write_csv(
        out,
        f"samples={args.samples} seed={args.seed}",
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


# Each flag's add_argument keywords; help shows the default via %(default)s.
_FLAGS = {
    "--ps": dict(type=float, default=1.0, help="source transmit power in W (default %(default)s)"),
    "--pr": dict(type=float, default=1.0, help="relay transmit power in W (default %(default)s)"),
    "--sigma-n-dbm": dict(dest="sigma_n_dbm", type=float, default=-5.0,
                          help="nominal noise power in dBm (default %(default)s)"),
    "--rho": dict(type=float, help=f"noise-uncertainty ratio > 1 (default {DEFAULT_RHO})"),
    "--rho-db": dict(dest="rho_db", type=float, help="noise uncertainty in dB, instead of --rho"),
    "--nt": dict(type=int, default=1, help="transmit antennas per hop (default %(default)s)"),
    "--nr": dict(type=int, default=1, help="receive antennas per hop (default %(default)s)"),
    "--t": dict(type=float, default=DEFAULT_T_REF,
                help="target rate in bit/s/Hz (default %(default)s)"),
    "--epsilon": dict(type=float, default=0.15, help="covertness budget (default %(default)s)"),
    "--delta": dict(type=float, default=0.1, help="reliability budget (default %(default)s)"),
    "--p-max": dict(dest="p_max", type=float, default=DEFAULT_P_MAX,
                    help="per-hop power cap in W (default %(default)s)"),
    "--variable": dict(type=str, help=f"one of {', '.join(_SWEEPS)}"),
    "--from": dict(dest="sweep_from", type=float, help="sweep start"),
    "--to": dict(dest="sweep_to", type=float, help="sweep end"),
    "--steps": dict(type=int, default=50, help="grid points (default %(default)s)"),
    "--scale": dict(type=str, default="linear", help="linear or log (default %(default)s)"),
    "--h1": dict(type=float, help="linear source-power step (default: log grid)"),
    "--h2": dict(type=float, help="linear relay-power step (default: log grid)"),
    "--h3": dict(type=float, help="rate step (default 0.01)"),
    "--phi": dict(type=float, default=1e-6,
                  help="rate-loop convergence tolerance (default %(default)s)"),
    "--v-max": dict(dest="v_max", type=int, default=10**6,
                    help="evaluation cap (default %(default)s)"),
    "--samples": dict(type=int, default=1_000_000, help="trials per check (default %(default)s)"),
    "--seed": dict(type=int, default=42, help="Monte-Carlo seed (default %(default)s)"),
    "--which": dict(type=str, default="all",
                    help="figure number 3-8 or 'all' (default %(default)s)"),
    "--outdir": dict(type=str, default=".", help="output directory (default %(default)s)"),
    "--out": dict(type=str, help="CSV output path (default stdout)"),
}
_POWERS = ("--ps", "--pr")
_NOISE = ("--sigma-n-dbm", "--rho", "--rho-db")
_ANTENNAS = ("--nt", "--nr")
_BUDGETS = ("--epsilon", "--delta", "--p-max")

# Verb -> (command, help, flags): each verb has exactly the flags its command reads.
_VERBS = {
    "dep": (_cmd_dep, "optimal threshold and minimum DEP at one parameter point",
            (*_POWERS, *_NOISE, "--out")),
    "throughput": (_cmd_throughput, "outage and covert throughput at one parameter point",
                   (*_POWERS, *_NOISE, *_ANTENNAS, "--t", "--out")),
    "sweep": (_cmd_sweep, "sweep one variable, emitting xi*, outage and throughput",
              (*_POWERS, *_NOISE, *_ANTENNAS, "--variable", "--from", "--to", "--steps",
               "--scale", "--t", "--p-max", "--out")),
    "optimize-single": (_cmd_optimize_single, "KKT throughput maximization, single antenna",
                        (*_NOISE, *_BUDGETS, "--out")),
    "optimize-multi": (_cmd_optimize_multi, "grid throughput maximization, TAS/MRC",
                       (*_NOISE, *_ANTENNAS, *_BUDGETS, "--h1", "--h2", "--h3", "--phi",
                        "--v-max", "--out")),
    "validate": (_cmd_validate, "analytic-vs-Monte-Carlo campaign, written to --out; it also "
                 "writes discrepancies.csv to the directory of --out (default: the working "
                 "directory)", ("--samples", "--seed", "--out")),
    "figures": (_cmd_figures, "emit the standard figure CSVs (3-8)", ("--which", "--outdir")),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and the parser of each verb, by name.

    --config is the one flag accepted before and after the verb; SUPPRESS
    keeps the verb's parser from clobbering a value given before it.
    """
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", type=str, help="key = value file of the verb's flag "
                        "defaults; a key is the flag's dest (p_max for --p-max)")
    parser = argparse.ArgumentParser(
        prog="covertrelay",
        description="Covert two-hop relay performance: detection error probability, "
        "outage, covert throughput, and constrained optimization.",
        parents=[common],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)
    for name, (_, help_text, flags) in _VERBS.items():
        sp = sub.add_parser(name, help=help_text, description=help_text, parents=[common],
                            allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    # argparse's negative-number pattern has no exponent, so it reads a value such
    # as "-4.8e-05" as an unknown option; no flag here looks like a number.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser, sub.choices


def _parse_with_config(parser: argparse.ArgumentParser, verb: argparse.ArgumentParser,
                       args: argparse.Namespace, argv: list[str] | None) -> argparse.Namespace:
    """Parse `argv` again with the --config file's entries as `verb`'s defaults.

    Each key names a flag of the verb by its dest (p_max for --p-max,
    sweep_from for --from); that flag's type converts the value, and the
    command line still wins. A key the verb has no flag for is an error.
    """
    try:
        entries = load_config(args.config)
    except OSError as exc:
        raise ValueError(exc) from exc
    unknown = sorted(set(entries) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(f"{args.config}: {args.command} has no flag for key(s) "
                         f"{', '.join(unknown)}")
    verb.set_defaults(**entries)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    parser, verb_parsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if "config" in args:
            args = _parse_with_config(parser, verb_parsers[args.command], args, argv)
        return _VERBS[args.command][0](args)
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

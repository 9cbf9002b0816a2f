"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --round I --trace 0|1 [--spans PATH]
                            [--setup-only]

Run by run.py, one process per round, so that imports and the library's
process-wide caches are paid as a user pays them.  The round imports the
library and builds its inputs (set-up), runs the timed calls, records
peak memory, and only then checks the outputs (untraced rounds) or
reduces the spans (traced rounds).  The result is one JSON line on
stdout.

    python3 bench/worker.py --cli-main SUMMARY -- ARGV...

runs one CLI invocation in-process under the tracer: the traced
counterpart of `python3 -m covertrelay.cli ARGV...`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import workloads  # noqa: E402
from tracer import NullTracer, Tracer, layer_summary  # noqa: E402

perf = time.perf_counter


def import_library():
    """Import the package from this checkout's src/, never from elsewhere."""
    package = importlib.import_module("covertrelay")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"covertrelay imported from {package.__file__}, not {SRC}")
    return {name: importlib.import_module(f"covertrelay.{name}")
            for name in ("model", "errors", "detection", "throughput", "optimize",
                         "validation", "report")}


def _attempt(fn, *args, **kwargs):
    # The boundary of one benchmark operation: any exception is recorded
    # as that operation's failure and the round goes on.
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001
        return None, f"{type(exc).__name__}: {exc}"


def _optimum(opt) -> dict:
    return {"p_s": opt.p_s, "p_r": opt.p_r, "t": opt.t, "eta": opt.eta,
            "method": opt.method, "active": sorted(opt.active_constraints)}


class Round:
    """Outputs and timings of one round."""

    def __init__(self) -> None:
        self.outputs: dict = {}
        self.ops: list[tuple[str, float]] = []  # (kind, seconds) of each user-level call
        # (units, seconds) per timed phase: analytic points, MC trials or CLI calls
        self.work: list[tuple[float, float]] = []
        self.facts: dict = {}


def _params(lib, point, antennas=(1, 1)):
    return workloads.system_params(lib["model"], point, antennas)


def _solve(lib, rnd, span, prob, multi: bool) -> dict:
    """One optimizer call; returns its optimum or error."""
    model, optimize = lib["model"], lib["optimize"]
    antennas = (prob["n_t"], prob["n_r"]) if multi else (1, 1)
    params = _params(lib, prob, antennas)
    constraints = model.ConstraintSet(prob["epsilon"], prob["delta"], workloads.P_MAX)
    evaluations: list = []
    with span("bench.solve"):
        start = perf()
        if multi:
            opt, err = _attempt(optimize.optimize_multi, constraints, params,
                                evaluations=evaluations)
        else:
            opt, err = _attempt(optimize.optimize_single, constraints, params)
        rnd.ops.append(("solve", perf() - start))
    out = {"error": err} if err else _optimum(opt)
    if multi and not err:
        out["evaluations"] = len(evaluations)
        out["best_evaluated"] = max((e[3] for e in evaluations), default=None)
    return out


def _chunk(items: list, k: int, n: int) -> list:
    size = len(items) // n
    return items[k * size:(k + 1) * size]


def _single_design(lib, inputs, span) -> Round:
    """Per problem: one solve, then its share of the figure-style grids."""
    rnd = Round()
    detection, throughput, optimize = lib["detection"], lib["throughput"], lib["optimize"]
    rate = lib["model"].RateParams
    solves, dep, thr, limit = [], [], [], []
    n = len(inputs["problems"])
    for k, prob in enumerate(inputs["problems"]):
        solves.append(_solve(lib, rnd, span, prob, multi=False))
        with span("bench.grid"):
            start = perf()
            done = len(dep) + len(thr) + len(limit)
            dep += [_attempt(detection.min_dep_two_hop, _params(lib, pt))
                    for pt in _chunk(inputs["dep"], k, n)]
            for pt in _chunk(inputs["throughput"], k, n):
                out, err = _attempt(throughput.throughput_single, _params(lib, pt), rate(pt["t"]))
                thr.append((None, err) if err else
                           ([out.p_out_hop1, out.p_out_hop2, out.p_out, out.eta], None))
            limit += [_attempt(optimize.covert_power_limit, pt["epsilon"], _params(lib, pt),
                               workloads.P_MAX) for pt in _chunk(inputs["power_limit"], k, n)]
            rnd.work.append((len(dep) + len(thr) + len(limit) - done, perf() - start))
    rnd.outputs.update(solves=solves, dep=dep, throughput=thr, power_limit=limit)
    rnd.facts["grid_solves"] = sum(s.get("method") == "grid" for s in solves)
    return rnd


def _tasmrc_design(lib, inputs, span) -> Round:
    rnd = Round()
    rnd.outputs["solves"] = [_solve(lib, rnd, span, prob, multi=True)
                             for prob in inputs["problems"]]
    throughput, rate = lib["throughput"], lib["model"].RateParams
    sweeps = []
    for k in range(workloads.N_SWEEP_SETS):
        # One phase per set of sweeps: the antenna pairs cost very
        # differently per point.
        with span("bench.sweep"):
            start = perf()
            done = len(sweeps)
            for sw in _chunk(inputs["sweeps"], k, workloads.N_SWEEP_SETS):
                params = _params(lib, sw, (sw["n_t"], sw["n_r"]))
                rows = []
                for t in sw["rates"]:
                    out, err = _attempt(throughput.throughput_multi, params, rate(t))
                    rows.append((None, err) if err else
                                ([out.p_out_hop1, out.p_out_hop2, out.p_out, out.eta], None))
                sweeps.append(rows)
            rnd.work.append((sum(len(rows) for rows in sweeps[done:]), perf() - start))
    rnd.outputs["sweeps"] = sweeps
    rnd.facts["evaluations"] = sum(s.get("evaluations", 0) for s in rnd.outputs["solves"])
    return rnd


def _mc_trials(name: str, samples: int) -> int:
    # A two-hop DEP check estimates two slots of `samples` trials each.
    return 2 * samples if name.startswith("min_dep_two_hop") else samples


def _mc_validate(lib, inputs, span) -> Round:
    rnd = Round()
    with span("bench.validate"):
        start = perf()
        checks, err = _attempt(lib["validation"].run_validation, samples=inputs["samples"],
                               seed=inputs["seed"], workers=1, n_sigma=inputs["n_sigma"],
                               rho=inputs["rho"])
        validate_s = perf() - start
    rnd.ops.append(("validate", validate_s))
    with span("bench.report"):
        start = perf()
        records, report_err = _attempt(lib["report"].build_discrepancy_report)
        rnd.ops.append(("report", perf() - start))
    rnd.outputs["validation"] = (
        {"error": err} if err else
        [[c.name, c.analytic, c.mc_mean, c.mc_stderr, c.n_sigma, c.passed] for c in checks])
    rnd.outputs["report"] = {"error": report_err} if report_err else [r.row() for r in records]
    if not err:
        rnd.work.append((sum(_mc_trials(c.name, inputs["samples"]) for c in checks), validate_s))
        rnd.facts["checks_failed"] = sum(not c.passed for c in checks)
    return rnd


def _cli_cold(inputs, traced: bool) -> Round:
    rnd = Round()
    results, main_s, layers = [], [], []
    if traced:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
    start_all = perf()
    for k, inv in enumerate(inputs["invocations"]):
        if traced:
            summary = ROOT / ".bench_out" / f"cli-{os.getpid()}-{k}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--cli-main", str(summary),
                   "--", *inv["argv"]]
        else:
            cmd = [sys.executable, "-m", "covertrelay.cli", *inv["argv"]]
        start = perf()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        rnd.ops.append(("cli", perf() - start))
        results.append({"rc": proc.returncode, "stdout": proc.stdout})
        if proc.returncode != 0:
            results[-1]["stderr"] = proc.stderr[-2000:]
        if traced and summary.exists():  # absent only if the CLI process crashed
            with open(summary, encoding="utf-8") as handle:
                data = json.load(handle)
            summary.unlink()
            main_s.append(data["main_s"])
            layers.append(data["layers"])
    rnd.work.append((len(results), perf() - start_all))
    rnd.outputs["cli"] = results
    if traced:
        rnd.facts["cli_main_s"] = main_s
        rnd.facts["cli_layers"] = layers
    return rnd


RUNNERS = {
    "single_design": _single_design,
    "tasmrc_design": _tasmrc_design,
    "mc_validate": _mc_validate,
}


def digest(outputs) -> str:
    """Hash of the canonical JSON of a round's outputs (floats round-trip exactly)."""
    text = json.dumps(outputs, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(workload: str, seed: int, round_index: int, traced: bool,
              spans_path: str | None = None, setup_only: bool = False) -> dict:
    """Set up, run and check one round; with setup_only, stop at the first timed call."""
    inputs = workloads.make_inputs(workload, seed, round_index)
    tracer = Tracer() if traced else NullTracer()
    if workload == "cli_cold":
        t_first = time.monotonic()
        if setup_only:
            return {"t_first": t_first}
        start = perf()
        rnd = _cli_cold(inputs, traced)
        wall = perf() - start
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        lib = None
    else:
        lib = import_library()
        if traced:
            tracer.install()
        t_first = time.monotonic()
        if setup_only:
            return {"t_first": t_first}
        start = perf()
        rnd = RUNNERS[workload](lib, inputs, tracer.span)
        wall = perf() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "ops": rnd.ops,
        "work": rnd.work,
        "peak_rss_mb": rss_kb / 1024.0,
        "digest": digest(rnd.outputs),
        "facts": rnd.facts,
    }
    if traced:
        if workload != "cli_cold":
            tracer.uninstall()
            result["layers"] = [layer_summary(tracer)]
            if spans_path:
                tracer.write_json(spans_path)
        else:
            result["layers"] = rnd.facts.pop("cli_layers")
    else:
        import checks

        result["attempted"], result["failures"] = checks.check_round(
            workload, inputs, rnd.outputs, lib or import_library(),
            workloads.round_rng(workload, seed, round_index, "checks"))
    return result


def cli_main(summary_path: str, argv: list[str]) -> int:
    """Run covertrelay.cli.main(argv) under the tracer and write a summary."""
    cli = importlib.import_module("covertrelay.cli")
    tracer = Tracer()
    tracer.install()
    start = perf()
    try:
        code = cli.main(argv)
    finally:
        main_s = perf() - start
        tracer.uninstall()
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump({"main_s": main_s, "layers": layer_summary(tracer)}, handle)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cli-main"]:
        if len(argv) < 3 or argv[2] != "--":
            print("usage: worker.py --cli-main SUMMARY -- ARGV...", file=sys.stderr)
            return 2
        return cli_main(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--round", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans", help="write the round's spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit at the first timed call (a set-up time probe)")
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.round, bool(args.trace), args.spans,
                       args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

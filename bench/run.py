"""Benchmark of covertrelay: four workloads, end to end and per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --baseline

Each round of a workload runs in a fresh interpreter (bench/worker.py),
one after another, for about S seconds (a round starts only if a round
of median length would still end in time).  With --trace 0 the
run prints the end-to-end metrics, with --trace 1 it pairs every round
with a traced twin, checks the two produce identical outputs, and
prints the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
is the run record.  --workload all runs every workload in turn and
prints one table of eight end-to-end metrics under their per-workload
names.  --baseline times the default-argument problems of the ROADMAP
table.

Only the standard library is imported here; the library is imported by
the workers, from this checkout's src/ and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Every process a run starts must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
# A run with fewer rounds than this tops its set-up samples up with
# set-up-only probes, so setup_s is always a median of several.
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Metric names and units, in one place: the benchmark's BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# The user-level call whose median latency is op_p50_s, and the unit of
# work_per_s, per workload.
PRIMARY_OP = {"single_design": "solve", "tasmrc_design": "solve", "mc_validate": "validate",
              "cli_cold": "cli"}
# Per-workload names for the same numbers, plus error_rate: the eight
# metrics of the --workload all table.
NAMED_METRICS = (
    ("wall_s", "s", "wall_s", None),
    ("setup_s", "s", "setup_s", None),
    ("solve_s", "s", "op_p50_s", ("single_design", "tasmrc_design")),
    ("points_per_s", "1/s", "work_per_s", ("single_design", "tasmrc_design")),
    ("mc_trials_per_s", "1/s", "work_per_s", ("mc_validate",)),
    ("cli_p50_s", "s", "op_p50_s", ("cli_cold",)),
    ("peak_rss_mb", "MB", "peak_rss_mb", None),
    ("error_rate", "ratio", "error_rate", None),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


class Runner:
    """Starts the run's processes one at a time, each bounded by the deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = child_env()

    def run(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """(monotonic start time, completed process); killed at the deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(cmd[1:4])} passed the run deadline") from None
        return started, subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def worker(self, workload: str, seed: int, index: int, traced: bool,
               spans: Path | None = None, setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--round", str(index), "--trace", "1" if traced else "0"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        started, proc = self.run(cmd)
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} round {index} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["t_first"] - started
        return result

    def python_seconds(self, code: str) -> float:
        """Wall time of a fresh `python -c code`, or the float it prints."""
        started, proc = self.run([sys.executable, "-c", code])
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            raise BenchError(f"python -c {code!r} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return float(proc.stdout) if proc.stdout.strip() else elapsed


def summary(values: list[float]) -> dict:
    """Sample count, median and quartiles (quartiles equal the median below 2 samples)."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    median = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def rounds_for(runner: Runner, workload: str, seed: int, seconds: float, traced: bool):
    """Untraced rounds, and with tracing their traced twins, for about `seconds`.

    A round starts only if a round of median length would still end
    within `seconds`, so a run overruns its budget only when its first
    round does.
    """
    start = time.monotonic()
    plain, twins, lengths = [], [], []
    while True:
        began = time.monotonic()
        index = len(plain)
        plain.append(runner.worker(workload, seed, index, traced=False))
        if traced:
            spans = OUT / f"spans-{workload}.json.gz" if index == 0 else None
            twins.append(runner.worker(workload, seed, index, traced=True, spans=spans))
        lengths.append(time.monotonic() - began)
        if time.monotonic() - start + statistics.median(lengths) > seconds:
            return plain, twins


def tally(plain: list[dict], twins: list[dict]) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for i, r in enumerate(plain):
        attempted += r["attempted"]
        failures += [f"round {i}: {f}" for f in r["failures"]]
    for i, (r, t) in enumerate(zip(plain, twins)):
        attempted += 1
        if r["digest"] != t["digest"]:
            failures.append(f"round {i}: trace_identity: traced outputs differ from untraced")
    return attempted, failures


def end_to_end(runner: Runner, workload: str, seed: int, plain: list[dict]) -> dict:
    kind = PRIMARY_OP[workload]
    setups = [r["setup_s"] for r in plain]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.worker(workload, seed, len(setups), False, setup_only=True)["setup_s"])
    return {
        "wall_s": summary([r["wall_s"] for r in plain]),
        "setup_s": summary(setups),
        "op_p50_s": summary([s for r in plain for k, s in r["ops"] if k == kind]),
        "work_per_s": summary([units / secs for r in plain for units, secs in r["work"] if secs > 0]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
    }


def _merge(processes: list[dict]) -> dict:
    """Sum the layer summaries of the processes of one round."""
    merged: dict = {}
    for layers in processes:
        for group, row in layers.items():
            into = merged.setdefault(group, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged


def per_layer(runner: Runner, plain: list[dict], twins: list[dict]) -> dict:
    rounds = [_merge(t["layers"]) for t in twins]

    def per_round(group: str, key: str) -> dict:
        return summary([r.get(group, {}).get(key, 0) for r in rounds])

    def total(group: str, key: str) -> float:
        return sum(r.get(group, {}).get(key, 0) for r in rounds)

    def ratio(num: float, den: float, scale: float = 1.0) -> dict:
        return {"n": len(rounds), "median": scale * num / den if den else 0.0}

    def fact(key: str) -> float:
        return sum(t["facts"].get(key, 0) for t in twins)

    m = {}
    for group, work in (("specfun", None), ("detection.min_dep", None),
                        ("throughput.single", None), ("optimize.single", None),
                        ("channel.gain_cdf", None), ("throughput.outage_multi", None),
                        ("optimize.multi", None), ("channel.sampler", "draws"),
                        ("detection.mc", "trials"), ("throughput.mc", "trials"),
                        ("detection.reference", None), ("throughput.paper", None),
                        ("report.build", None), ("validation.run", None)):
        if work is None:
            m[f"{group}.calls"] = per_round(group, "calls")
        else:
            m[f"{group}.{work}"] = per_round(group, "amount")
        m[f"{group}.self_s"] = per_round(group, "self_s")
    for group in ("specfun", "channel.gain_cdf"):
        m[f"{group}.us_per_call"] = ratio(total(group, "self_s"), total(group, "calls"), 1e6)
    m["channel.sampler.ns_per_draw"] = ratio(total("channel.sampler", "self_s"),
                                             total("channel.sampler", "amount"), 1e9)
    for group in ("detection.mc", "throughput.mc"):
        m[f"{group}.ns_per_trial"] = ratio(total(group, "self_s"), total(group, "amount"), 1e9)
    solves = total("optimize.single", "calls")
    m["optimize.single.evals_per_solve"] = ratio(total("counters", "single_solve_evals"), solves)
    m["optimize.single.grid_fallback_ratio"] = ratio(fact("grid_solves"), solves)
    m["throughput.outage_multi.distinct_ratio"] = ratio(
        total("throughput.outage_multi", "distinct"), total("throughput.outage_multi", "spans"))
    m["optimize.multi.feasible_ratio"] = ratio(fact("evaluations"),
                                               total("counters", "multi_outage_calls") / 2)
    m["validation.run.checks_failed"] = summary([t["facts"].get("checks_failed", 0)
                                                 for t in twins])
    m["cli.main_s"] = summary([s for t in twins for s in t["facts"].get("cli_main_s", [])])
    m["cli.interp_s"] = summary([runner.python_seconds("pass") for _ in range(3)])
    m["cli.import_s"] = summary([runner.python_seconds(
        "import time; t = time.perf_counter(); import covertrelay.cli; "
        "print(time.perf_counter() - t)") for _ in range(3)])
    m["trace.overhead_s"] = summary([t["wall_s"] - r["wall_s"] for r, t in zip(plain, twins)])
    for stats in m.values():
        stats.setdefault("q1", stats["median"])
        stats.setdefault("q3", stats["median"])
    return m


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(workload: str, seed: int, seconds: float, traced: bool, rounds: int,
           metrics: dict, units: dict, attempted: int, failures: list[str]) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "rounds": rounds, "commit": _commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc(), "thread_caps": {v: str(nproc()) for v in THREAD_VARS},
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "metrics": {name: dict(stats, unit=units[name]) for name, stats in metrics.items()},
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>5s}  unit")
    for name, stats in metrics.items():
        print(f"  {name:40s} {stats['median']:14.6g} {stats['q1']:14.6g} {stats['q3']:14.6g} "
              f"{stats['n']:5d}  {units[name]}")


def measure(runner: Runner, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    runner.deadline = time.monotonic() + RUN_DEADLINE_S
    plain, twins = rounds_for(runner, workload, seed, seconds, traced)
    attempted, failures = tally(plain, twins)
    if traced:
        metrics, units = per_layer(runner, plain, twins), PER_LAYER
    else:
        metrics, units = end_to_end(runner, workload, seed, plain), END_TO_END
    missing = units.keys() - metrics.keys()
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the run does not measure: {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    rec = record(workload, seed, seconds, traced, len(plain), metrics, units, attempted, failures)
    print_table(f"{workload} seed={seed} rounds={len(plain)} trace={int(traced)} "
                f"attempted={attempted} failed={len(failures)}", metrics, units)
    for failure in failures:
        print(f"  FAILED {failure}")
    return rec


def result_line(recs: list[dict], prefix: bool) -> dict:
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    metrics = {}
    for r in recs:
        for name, stats in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": stats["median"], "unit": stats["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_named_table(recs: list[dict]) -> None:
    """The eight named end-to-end metrics, one row per workload where each applies."""
    print("end-to-end metrics (median [q1, q3] over n samples)")
    for name, unit, source, applies in NAMED_METRICS:
        for r in recs:
            w = r["workload"]
            if applies is not None and w not in applies:
                continue
            if source == "error_rate":
                value = r["failed"] / r["attempted"]
                print(f"  {name:16s} {w:14s} {value:12.6g} {'':27s} n={r['attempted']} ops  "
                      f"{unit}")
                continue
            s = r["metrics"][source]
            print(f"  {name:16s} {w:14s} {s['median']:12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"n={s['n']}  {unit}")


BASELINE = (
    # (what, ROADMAP range in s, CLI arguments timed in-process in a fresh interpreter)
    ("optimize-multi --nt 2 --nr 8 (in process)", (5.0, 7.6),
     ["optimize-multi", "--nt", "2", "--nr", "8"]),
    ("optimize-single (in process)", (0.8, 0.95), ["optimize-single"]),
    ("validate --samples 1e6 (in process)", (2.5, 2.8),
     ["validate", "--samples", "1000000", "--out", str(OUT / "baseline-validate.csv")]),
)


def baseline(runner: Runner) -> int:
    """Time the ROADMAP baseline table's default-argument problems."""
    rows = []
    for what, bounds, argv in BASELINE:
        code = ("import io, sys, time, contextlib, covertrelay.cli as c\n"
                "t = time.perf_counter()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = c.main({argv!r})\n"
                "if code:\n"
                "    raise SystemExit(code)\n"
                "print(time.perf_counter() - t)")
        rows.append((what, bounds, [runner.python_seconds(code)]))
    dep = [runner.python_seconds("import subprocess, sys, time\n"
                                 "t = time.perf_counter()\n"
                                 "subprocess.run([sys.executable, '-m', 'covertrelay.cli', 'dep'],"
                                 " check=True, capture_output=True)\n"
                                 "print(time.perf_counter() - t)") for _ in range(5)]
    rows.append(("fresh `python -m covertrelay.cli dep` (5 runs)", (0.8, 1.16), dep))
    print(f"baseline cross-check on {nproc()} CPUs, python {platform.python_version()}")
    for what, (lo, hi), values in rows:
        print(f"  {what:48s} min {min(values):7.3f} s  median {statistics.median(values):7.3f} s"
              f"  ROADMAP {lo}-{hi} s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="time the ROADMAP baseline problems instead")
    args = parser.parse_args(argv)
    if not (SRC / "covertrelay" / "__init__.py").is_file():
        print(f"error: no covertrelay package under {SRC}", file=sys.stderr)
        return 2
    if not args.baseline and args.workload is None:
        parser.error("give --workload or --baseline")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    # Compile once up front so no round's set-up pays for byte-compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                   check=False, capture_output=True)
    try:
        if args.baseline:
            return baseline(runner)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        recs = [measure(runner, w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all" and not args.trace:
        print_named_table(recs)
    for rec in recs:
        print("record " + json.dumps(rec))
    print(json.dumps(result_line(recs, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

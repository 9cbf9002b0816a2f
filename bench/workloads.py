"""Seeded inputs for the four benchmark workloads.

Inputs depend only on (workload, seed, round) and use the standard
library's generator, so they are identical across machines, need no
numpy, and the program under test receives nothing but the generated
values.  Ranges follow the paper's figures: sigma_n^2 in [-10, 3] dBm,
rho in [1.01, 3], powers in [0.1, 5] W, epsilon in [0.05, 0.5] and rates
in [0.01, 3] bit/s/Hz.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import random

WORKLOADS = ("single_design", "tasmrc_design", "mc_validate", "cli_cold")

# The CLI's documented default power cap; the optimizers' power grids
# span six decades below it.
P_MAX = 5.0
RHO_FIG = (1.01, 3.0)
SIGMA_DBM = (-10.0, 3.0)
POWER = (0.1, 5.0)
EPSILON = (0.05, 0.5)
DELTA = (0.05, 0.3)
RATE = (0.01, 3.0)

ANTENNA_PAIRS = ((2, 2), (2, 8), (4, 4))
# optimize_multi's cost varies threefold across the figure ranges of rho
# and the budgets, and a run holds only one or two tasmrc rounds, so the
# TAS/MRC problems and sweeps stay near the paper's default operating
# point (rho = 1.5, -5 dBm, p = 1 W, the CLI's budgets): each still gets
# its own (rho, sigma_n^2), so the outage cache shares nothing between
# them.  The wide ranges are exercised by single_design.
RHO_TASMRC = (1.45, 1.55)
SIGMA_DBM_TASMRC = (-5.5, -4.5)
POWER_TASMRC = (0.9, 1.1)
BUDGETS_TASMRC = {"epsilon": 0.15, "delta": 0.1}

# single_design solves a fixed suite of eight problems, points 3-10 of
# the unshifted R_4 sequence over the figure ranges.  Of points 0-13 only
# point 10 (delta = 0.068) falls back to the 60^3 grid; starting at 3
# puts it in an eight-problem suite, so the suite's fallback share, one
# in eight, matches the one-in-eight to one-in-four rate of random draws
# and the grid path is timed.  The suite does not move with the seed: a
# solve takes 0.5-1.9 s, or 5-13 s when it falls back, and both flip
# under a 2 % change of the inputs, so seeded problems would make two
# seeds' medians differ by a quarter.  The seed moves the grid points
# instead.
SUITE = (3, 11)
# Grid points per round, split evenly between the suite problems: each
# problem's share takes ~25 ms, long enough that points_per_s, the median
# over the shares, is not dominated by timer or scheduler noise.
N_DEP_POINTS = 1024
N_THROUGHPUT_POINTS = 2048
N_POWER_LIMIT_POINTS = 48
N_SWEEP_RATES = 60
# tasmrc_design runs this many sets of sweeps, one per antenna pair in
# each, and reports the median set: one 0.4 s set per run spread 0.16
# across seeds, from short-lived machine noise rather than the inputs.
N_SWEEP_SETS = 4
# Trials per validation check.  The CLI default of 1e6 peaks near 0.5 GB;
# a quarter of that keeps the same sampler mix at a quarter of the memory.
MC_SAMPLES = 250_000
# run_validation's pass band.  At the CLI's 3 sigma, 17 checks fail by
# chance for about one seed in twenty; 5 sigma makes a chance failure
# negligible over every run the benchmark makes while still flagging any
# bias above five standard errors.
MC_N_SIGMA = 5.0
MC_RHO = 1.5
CLI_SWEEP_STEPS = 20


def round_rng(workload: str, seed: int, round_index: int, purpose: str = "inputs") -> random.Random:
    """Generator for one round; string seeds hash with SHA-512, so stably."""
    return random.Random(f"{workload}/{seed}/{round_index}/{purpose}")


def _u(rng: random.Random, bounds: tuple) -> float:
    return rng.uniform(*bounds)


def _point(rng: random.Random) -> dict:
    return {
        "p_s": _u(rng, POWER),
        "p_r": _u(rng, POWER),
        "rho": _u(rng, RHO_FIG),
        "sigma_dbm": _u(rng, SIGMA_DBM),
    }


def _quasi_random(space: dict, seed: int | None, label: str, start: int,
                  count: int) -> list[dict]:
    """Points start..start+count-1 of an R_d sequence over `space`.

    The additive recurrence x_i = frac(shift + i * alpha), with alpha the
    powers of 1/g for g the root of g^(d+1) = g + 1, spreads any run of
    consecutive points evenly over the box, so every round holds the same
    mix of cheap and costly points.  The seed moves all points through the
    shift; seed None gives the unshifted sequence.
    """
    d = len(space)
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (d + 1))
    shift_rng = random.Random(f"{seed}/{label}/shift")
    shift = [0.0] * d if seed is None else [shift_rng.random() for _ in range(d)]
    points = []
    for i in range(start, start + count):
        point = {}
        for j, (name, (lo, hi)) in enumerate(space.items()):
            frac = (shift[j] + (i + 1) * g ** -(j + 1)) % 1.0
            point[name] = lo + frac * (hi - lo)
        points.append(point)
    return points


PROBLEM_SPACE = {"epsilon": EPSILON, "delta": DELTA, "rho": RHO_FIG, "sigma_dbm": SIGMA_DBM}
DEP_SPACE = {"p_s": POWER, "p_r": POWER, "rho": RHO_FIG, "sigma_dbm": SIGMA_DBM}
THROUGHPUT_SPACE = dict(DEP_SPACE, t=RATE)
POWER_LIMIT_SPACE = {"epsilon": EPSILON, "rho": RHO_FIG, "sigma_dbm": SIGMA_DBM}


def _single_design(seed: int, round_index: int) -> dict:
    def points(space: dict, label: str, count: int) -> list[dict]:
        return _quasi_random(space, seed, label, round_index * count, count)

    return {
        "problems": _quasi_random(PROBLEM_SPACE, None, "suite", SUITE[0], SUITE[1] - SUITE[0]),
        "dep": points(DEP_SPACE, "dep", N_DEP_POINTS),
        "throughput": points(THROUGHPUT_SPACE, "throughput", N_THROUGHPUT_POINTS),
        "power_limit": points(POWER_LIMIT_SPACE, "power_limit", N_POWER_LIMIT_POINTS),
    }


def _stratified(rng: random.Random, bounds: tuple, n: int) -> list[float]:
    # One uniform draw in each of n equal slices, so every sweep covers the
    # whole range evenly.
    lo, hi = bounds
    step = (hi - lo) / n
    return [lo + (k + rng.random()) * step for k in range(n)]


def _tasmrc_design(rng: random.Random) -> dict:
    def near_default() -> dict:
        return {"rho": _u(rng, RHO_TASMRC), "sigma_dbm": _u(rng, SIGMA_DBM_TASMRC)}

    return {
        "problems": [dict(near_default(), n_t=n_t, n_r=n_r, **BUDGETS_TASMRC)
                     for n_t, n_r in ANTENNA_PAIRS],
        "sweeps": [
            dict(near_default(), p_s=_u(rng, POWER_TASMRC), p_r=_u(rng, POWER_TASMRC),
                 n_t=n_t, n_r=n_r, rates=_stratified(rng, RATE, N_SWEEP_RATES))
            for _ in range(N_SWEEP_SETS) for n_t, n_r in ANTENNA_PAIRS
        ],
    }


def _mc_validate(seed: int) -> dict:
    return {"samples": MC_SAMPLES, "seed": seed, "n_sigma": MC_N_SIGMA, "rho": MC_RHO}


def _flags(point: dict) -> list[str]:
    return ["--ps", repr(point["p_s"]), "--pr", repr(point["p_r"]),
            "--sigma-n-dbm", repr(point["sigma_dbm"]), "--rho", repr(point["rho"])]


def _cli_cold(rng: random.Random) -> dict:
    dep = _point(rng)
    single = dict(_point(rng), t=_u(rng, RATE))
    multi = dict(_point(rng), t=_u(rng, RATE), n_t=2, n_r=8)
    sweep = dict(_point(rng), t=_u(rng, RATE), lo=rng.uniform(0.1, 1.0), hi=rng.uniform(2.0, 5.0))
    return {"invocations": [
        {"name": "dep", "point": dep, "argv": ["dep", *_flags(dep)]},
        {"name": "throughput", "point": single,
         "argv": ["throughput", *_flags(single), "--t", repr(single["t"])]},
        {"name": "throughput-2x8", "point": multi,
         "argv": ["throughput", *_flags(multi), "--t", repr(multi["t"]), "--nt", "2", "--nr", "8"]},
        {"name": "sweep", "point": sweep,
         "argv": ["sweep", *_flags(sweep), "--t", repr(sweep["t"]), "--variable", "p",
                  "--from", repr(sweep["lo"]), "--to", repr(sweep["hi"]),
                  "--steps", str(CLI_SWEEP_STEPS)]},
    ]}


def system_params(model, point: dict, antennas: tuple = (1, 1)):
    """model.SystemParams for a generated point; `model` is covertrelay.model."""
    n_t, n_r = antennas
    return model.SystemParams(point.get("p_s", 1.0), point.get("p_r", 1.0),
                              model.dbm_to_watts(point["sigma_dbm"]), point["rho"],
                              model.AntennaConfig(n_t, n_r, n_t, n_r))


def make_inputs(workload: str, seed: int, round_index: int) -> dict:
    """The inputs of one round of `workload`, a pure function of its arguments."""
    rng = round_rng(workload, seed, round_index)
    if workload == "single_design":
        return _single_design(seed, round_index)
    if workload == "tasmrc_design":
        return _tasmrc_design(rng)
    if workload == "mc_validate":
        return _mc_validate(seed)
    if workload == "cli_cold":
        return _cli_cold(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

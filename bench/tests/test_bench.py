"""Tests of the benchmark itself: tracer, inputs and checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_summary, self_times  # noqa: E402


def _bindings():
    """Every function bound at module level anywhere in the package."""
    lib = worker.import_library()
    importlib.import_module("covertrelay.cli")  # install() imports every layer module
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "covertrelay" or n.startswith("covertrelay."))]
    assert len(mods) > len(lib)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if inspect.isfunction(v)}


def test_self_time_of_synthetic_nested_spans():
    # 0: root [0, 10]; 1: child [1, 4] with 2: grandchild [2, 3];
    # 3: child [5, 9] with 4: grandchild [6, 8].
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    # The root's children cover 3 + 4 of its 10 seconds.
    assert list(self_times(parent, start, end)) == [3.0, 2.0, 1.0, 2.0, 2.0]


def test_layer_summary_counts_entries_into_a_layer_once():
    tracer = Tracer()
    with tracer.span("bench.round"):
        with tracer.span("specfun.ei_diff"):
            with tracer.span("specfun.expint_ei"):
                pass
        with tracer.span("specfun.expint_ei"):
            pass
    layers = layer_summary(tracer)
    assert layers["specfun"]["calls"] == 2
    assert layers["specfun"]["spans"] == 3
    total = tracer.end[0] - tracer.start[0]
    assert math.isclose(layers["bench.round"]["self_s"] + layers["specfun"]["self_s"], total)


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    detection = importlib.import_module("covertrelay.detection")
    optimize = importlib.import_module("covertrelay.optimize")
    specfun = importlib.import_module("covertrelay.specfun")
    model = importlib.import_module("covertrelay.model")
    tracer = Tracer()
    tracer.install()
    try:
        # Bound at import time in another module, and looked up lazily.
        assert optimize.ei_diff is not before[("covertrelay.specfun", "ei_diff")]
        assert specfun.expint_ei_scaled is not before[("covertrelay.specfun",
                                                       "expint_ei_scaled")]
        detection.min_dep_slot(1.0, model.SystemParams(1.0, 1.0, 1e-3, 1.5))
        names = [tracer.names[i] for i in tracer.name]
        assert names[0] == "detection.min_dep_slot"
        assert names.count("specfun.expint_ei_scaled") == 2
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_inputs_are_deterministic_per_seed_and_differ_between_seeds():
    for workload in workloads.WORKLOADS:
        first = workloads.make_inputs(workload, 7, 0)
        assert first == workloads.make_inputs(workload, 7, 0)
        assert first != workloads.make_inputs(workload, 8, 0)
        if workload != "mc_validate":  # every round repeats the validation at the seed
            assert first != workloads.make_inputs(workload, 7, 1)


def test_traced_and_untraced_rounds_give_identical_outputs():
    runner = run.Runner()
    plain = runner.worker("mc_validate", 3, 0, traced=False)
    traced = runner.worker("mc_validate", 3, 0, traced=True)
    assert plain["failures"] == []
    assert plain["digest"] == traced["digest"]
    layers = traced["layers"][0]
    assert layers["detection.mc"]["amount"] == plain["work"][0][0] - 5 * workloads.MC_SAMPLES
    assert layers["throughput.mc"]["amount"] == 5 * workloads.MC_SAMPLES


def test_traced_optimizer_round_matches_and_counts(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SUITE", (4, 5))  # one quick problem
    monkeypatch.setattr(workloads, "N_DEP_POINTS", 20)
    monkeypatch.setattr(workloads, "N_THROUGHPUT_POINTS", 20)
    monkeypatch.setattr(workloads, "N_POWER_LIMIT_POINTS", 2)
    plain = worker.run_round("single_design", 11, 0, traced=False)
    spans = tmp_path / "spans.json.gz"
    traced = worker.run_round("single_design", 11, 0, traced=True, spans_path=str(spans))
    assert plain["failures"] == []
    assert plain["attempted"] == 1 + 20 + 20 + 2
    with gzip.open(spans, "rt") as handle:
        written = json.load(handle)
    assert len(written["start_ns"]) == len(written["parent"]) > 1000
    assert all(a <= b for a, b in zip(written["start_ns"], written["end_ns"]))
    assert written["names"][written["name"][0]] == "bench.solve"
    assert plain["digest"] == traced["digest"]
    layers = traced["layers"][0]
    assert layers["optimize.single"]["calls"] == 1
    assert layers["specfun"]["calls"] > 1000
    assert layers["counters"]["single_solve_evals"] > 1000


def test_checks_flag_wrong_outputs():
    lib = worker.import_library()
    inputs = workloads.make_inputs("cli_cold", 1, 0)
    wrong = {"cli": [{"rc": 0, "stdout": "# params: x\ntau_star_w,pe1_star,pe2_star,xi_star\n"
                                        "1,0.5,0.5,0.75\n"}] + [{"rc": 4, "stdout": ""}] * 3}
    attempted, failures = checks.check_round("cli_cold", inputs, wrong, lib,
                                             workloads.round_rng("cli_cold", 1, 0, "checks"))
    assert attempted == 4
    assert [f.split(":")[0] for f in failures] == [
        "cli[dep]", "cli[throughput]", "cli[throughput-2x8]", "cli[sweep]"]
    assert "differ" in failures[0]

    # A timed two-hop DEP is compared itself, not recomputed.
    ck, fail = checks._Checker(lib), checks._Failures()
    params = workloads.system_params(lib["model"],
                                     workloads.make_inputs("single_design", 1, 0)["dep"][0])
    xi = lib["detection"].min_dep_two_hop(params)
    ck.xi_matches(fail, "dep[0]", params, xi)
    ck.xi_matches(fail, "dep[1]", params, xi + 1e-8)
    assert list(fail.by_op) == ["dep[1]"]

    report = lib["report"].build_discrepancy_report()
    outputs = {"validation": [], "report": [r.row() for r in report][:-1]}
    _, failures = checks.check_round("mc_validate", workloads.make_inputs("mc_validate", 1, 0),
                                     outputs, lib, None)
    assert failures and failures[0].startswith("report: 90 DEP and 71 outage rows")


@pytest.mark.parametrize("p,t,antennas", [(1.0, 1.5, (1, 1)), (1e-3, 1.5, (2, 2)),
                                          (0.05, 2.0, (2, 8)), (0.02, 2.5, (4, 4))])
def test_outage_reference_matches_the_library(p, t, antennas):
    lib = worker.import_library()
    params = lib["model"].SystemParams(1.0, 1.0, lib["model"].dbm_to_watts(-5.0), 1.5)
    want = lib["throughput"].outage_hop_multi_reference(p, lib["model"].RateParams(t), params,
                                                        *antennas)
    assert abs(checks.outage_reference(p, t, params.sigma_n2, 1.5, *antennas) - want) <= 1e-12

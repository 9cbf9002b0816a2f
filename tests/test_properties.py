"""Property suite over the documented domain: probabilities stay in [0, 1].

Domain: p in [1e-12, 1e3] W, sigma^2 in [1e-13, 1] W, rho in [1.001, 1e3],
t in [0, 600] bit/s/Hz, n_t in 1..4 and n_r in 1..16; the slot-DEP
reference also over rho in [1.001, 1e300] and tau in (0, 4 rho sigma^2].
No evaluation may raise, and (with warnings as errors) none may warn.
The CLI verbs `dep` and `throughput` exit 0 over the same domain and 2
outside it.
"""

import contextlib
import csv
import io
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertrelay.cli import main
from covertrelay.detection import dep_slot_reference, min_dep_slot
from covertrelay.model import RateParams, SystemParams
from covertrelay.specfun import expint_ei
from covertrelay.throughput import (
    PaperFormulaValue,
    outage_hop_multi_paper,
    outage_hop_multi_reference,
    outage_hop_single,
)

# The positive zero of Ei (the Ramanujan-Soldner constant's logarithm).
EI_ROOT = 0.37250741078136663


def log_uniform(lo, hi):
    """Floats on [lo, hi], drawn both plainly and by decimal exponent."""
    by_exponent = st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0**e, lo), hi)
    )
    return st.floats(lo, hi) | by_exponent


powers = log_uniform(1e-12, 1e3)
params = st.builds(
    lambda sigma2, rho: SystemParams(1.0, 1.0, sigma2, rho),
    log_uniform(1e-13, 1.0),
    log_uniform(1.001, 1e3),
)
wide_params = st.builds(
    lambda sigma2, rho: SystemParams(1.0, 1.0, sigma2, rho),
    log_uniform(1e-13, 1.0),
    log_uniform(1.001, 1e300),
)
rates = st.floats(0.0, 600.0).map(RateParams)
antennas = st.tuples(st.integers(1, 4), st.integers(1, 16))


def assert_probability(value):
    assert isinstance(value, float)
    assert 0.0 <= value <= 1.0


@settings(deadline=None, max_examples=200)
@given(p=powers, params=params)
def test_min_dep_slot_is_a_probability(p, params):
    assert_probability(min_dep_slot(p, params))


@settings(deadline=None, max_examples=200)
@given(p=powers, params=wide_params, fraction=log_uniform(1e-300, 1.0))
def test_slot_dep_reference_is_a_probability(p, params, fraction):
    tau = 4.0 * params.mu2 * fraction
    assume(tau > 0.0)
    assert_probability(dep_slot_reference(p, tau, params))


@settings(deadline=None, max_examples=200)
@given(p=powers, rate=rates, params=params)
def test_single_antenna_outage_is_a_probability(p, rate, params):
    assert_probability(outage_hop_single(p, rate, params))


@settings(deadline=None, max_examples=60)
@given(p=powers, rate=rates, params=params, ant=antennas)
def test_tas_mrc_outage_is_a_probability(p, rate, params, ant):
    assert_probability(outage_hop_multi_reference(p, rate, params, *ant))


@settings(deadline=None, max_examples=200)
@given(p=powers, rate=rates, params=params, ant=antennas,
       interpretation=st.sampled_from(["ln_rho_sq_arg", "ln_rho_sq_whole"]))
def test_verbatim_tas_mrc_form_reports_a_value_or_violation(p, rate, params, ant, interpretation):
    result = outage_hop_multi_paper(p, rate, params, *ant, interpretation)
    assert isinstance(result, PaperFormulaValue)


@settings(deadline=None, max_examples=300)
@given(x=st.floats(-800.0, 800.0).filter(lambda x: x != 0.0))
def test_ei_has_its_sign_or_overflows_to_inf(x):
    value = expint_ei(x)
    assert isinstance(value, float) and not math.isnan(value)
    # Within rounding of the root the sign is not resolved.
    if abs(x - EI_ROOT) > 1e-12:
        assert (value > 0.0) == (x > EI_ROOT)


# The CLI verbs over the same domain, in the units of their flags.
sigma_dbm = st.floats(-100.0, 30.0)
cli_rho = log_uniform(1.001, 1e3)


def run_cli(argv):
    """(exit code, header, first row) of an in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = out.getvalue().splitlines()
    if code != 0:
        return code, None, None
    assert lines[0].startswith("# params:")
    header, row = csv.reader(lines[1:])
    return code, header, [float(v) for v in row]


def point_flags(p_s, p_r, sigma, rho):
    return [f"--ps={p_s!r}", f"--pr={p_r!r}", f"--sigma-n-dbm={sigma!r}", f"--rho={rho!r}"]


@settings(deadline=None, max_examples=40)
@given(p_s=powers, p_r=powers, sigma=sigma_dbm, rho=cli_rho)
def test_cli_dep_reports_probabilities(p_s, p_r, sigma, rho):
    code, header, row = run_cli(["dep", *point_flags(p_s, p_r, sigma, rho)])
    assert code == 0
    assert header == ["tau_star_w", "pe1_star", "pe2_star", "xi_star"]
    for value in row[1:]:
        assert 0.0 <= value <= 1.0


@settings(deadline=None, max_examples=40)
@given(p_s=powers, p_r=powers, sigma=sigma_dbm, rho=cli_rho, t=st.floats(0.0, 600.0),
       ant=st.one_of(st.just((1, 1)), antennas))
def test_cli_throughput_reports_probabilities(p_s, p_r, sigma, rho, t, ant):
    argv = ["throughput", *point_flags(p_s, p_r, sigma, rho), f"--t={t!r}",
            f"--nt={ant[0]}", f"--nr={ant[1]}"]
    code, header, row = run_cli(argv)
    assert code == 0
    assert header == ["t", "p_out_hop1", "p_out_hop2", "p_out", "eta"]
    for value in row[1:4]:
        assert 0.0 <= value <= 1.0
    assert 0.0 <= row[4] <= t


@settings(deadline=None, max_examples=40)
@given(verb=st.sampled_from(["dep", "throughput"]), data=st.data())
def test_cli_rejects_out_of_domain_flags(verb, data):
    bad = {
        "--rho": st.floats(-1e3, 1.0),
        "--ps": st.floats(-1e3, 0.0),
        "--pr": st.floats(-1e3, 0.0),
    }
    if verb == "throughput":
        bad.update({"--nt": st.integers(-3, 0), "--nr": st.integers(-3, 0),
                    "--t": st.floats(-600.0, 0.0, exclude_max=True)})
    flag = data.draw(st.sampled_from(sorted(bad)))
    value = data.draw(bad[flag])
    assert run_cli([verb, f"{flag}={value!r}"])[0] == 2

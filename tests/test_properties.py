"""Property suite over the documented domain: probabilities stay in [0, 1].

Domain: p in [1e-12, 1e3] W, sigma^2 in [1e-13, 1] W, rho in [1.001, 1e3],
t in [0, 600] bit/s/Hz, n_t in 1..4 and n_r in 1..16.  No evaluation may
raise, and (with warnings as errors) none may warn.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from covertrelay.detection import min_dep_slot
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

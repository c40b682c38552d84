"""Power control: frozen optimum values, branch continuity, oracle agreement."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macwtfb import ValidationError
from macwtfb.gaussian import (
    TWO_PI_E,
    GaussianMacWt,
    df_sum_bound,
    gaussian_diff_entropy,
    hybrid_sum_bound,
)
from macwtfb.power import (
    ABOVE_THRESHOLD,
    BELOW_THRESHOLD,
    MIN_SIGMA1_SQ,
    optimal_power,
    saturation_threshold,
    sum_rate,
    sweep,
)

from oracles import grid_oracle

# Frozen at 30-digit precision: (2*pi*e*5 - 1)*2/2 and
# log2(1 + (2*pi*e*5 - 1)*2/5)/2 for variances (5, 2).
THRESHOLD_5_2 = 84.397342226735671
RSTAR_5_2 = 2.5596560262934571
# log2(2*pi*e)/2 + log2(10)/2, the large-power limit for variances (1, 10).
LIMIT_1_10 = 3.7080596326243223

NOISY_EVE = GaussianMacWt(1.0, 1.0, 5.0, 2.0)
NOISY_MAIN = GaussianMacWt(1.0, 1.0, 1.0, 10.0)


# --- frozen closed-form optima ------------------------------------------------

def test_saturated_optimum_matches_frozen_values():
    res = optimal_power(200.0, NOISY_EVE)
    assert res.p1_star == pytest.approx(THRESHOLD_5_2, abs=1e-9)
    assert res.p2_star == pytest.approx(THRESHOLD_5_2, abs=1e-9)
    assert res.r_sum_star == pytest.approx(RSTAR_5_2, abs=1e-12)
    assert res.threshold == pytest.approx(THRESHOLD_5_2, abs=1e-9)
    assert res.regime == ABOVE_THRESHOLD


def test_saturated_optimum_at_documented_precision():
    res = optimal_power(200.0, NOISY_EVE)
    assert res.p1_star == pytest.approx(84.39737, abs=1e-4)
    assert res.r_sum_star == pytest.approx(2.559655, abs=1e-5)


def test_small_cap_uses_full_power():
    res = optimal_power(1.0, NOISY_MAIN)
    assert (res.p1_star, res.p2_star) == (1.0, 1.0)
    assert res.r_sum_star == pytest.approx(0.79248125036057809, abs=1e-12)
    assert res.regime == BELOW_THRESHOLD


def test_zero_cap():
    res = optimal_power(0.0, NOISY_EVE)
    assert (res.p1_star, res.p2_star, res.r_sum_star) == (0.0, 0.0, 0.0)
    assert res.regime == BELOW_THRESHOLD


@pytest.mark.parametrize("g", [NOISY_EVE, NOISY_MAIN], ids=["noisy_eve", "noisy_main"])
def test_negative_zero_cap_is_reported_as_zero(g):
    res = optimal_power(-0.0, g)
    assert math.copysign(1.0, res.p1_star) == math.copysign(1.0, res.p2_star) == 1.0
    signs = {math.copysign(1.0, v) for cap, res in sweep(-0.0, 3, g) for v in (cap, res.p1_star, res.p2_star)}
    assert signs == {1.0}


def test_noisier_eavesdropper_keeps_corner_when_below_threshold():
    res = optimal_power(50.0, NOISY_EVE)
    assert (res.p1_star, res.p2_star) == (50.0, 50.0)
    assert res.r_sum_star == pytest.approx(0.5 * math.log2(1.0 + 100.0 / 5.0), abs=1e-12)
    assert res.regime == BELOW_THRESHOLD


def test_cap_exactly_at_threshold_is_labeled_above():
    thr = saturation_threshold(NOISY_EVE)
    res = optimal_power(thr, NOISY_EVE)
    assert res.regime == ABOVE_THRESHOLD
    assert res.p1_star == pytest.approx(thr, abs=0.0)
    assert res.r_sum_star == pytest.approx(RSTAR_5_2, abs=1e-10)


# --- piecewise sum rate ---------------------------------------------------------

def test_sum_rate_zero_power():
    assert sum_rate(0.0, 0.0, NOISY_EVE) == 0.0


def test_sum_rate_below_threshold_value():
    assert sum_rate(1.0, 1.0, NOISY_MAIN) == pytest.approx(0.5 * math.log2(3.0), abs=1e-15)


def test_branch_continuity_at_breakpoint():
    s1, s2 = 5.0, 2.0
    total = (TWO_PI_E * s1 - 1.0) * s2
    low = 0.5 * math.log2(1.0 + total / s1)
    high = (
        0.5 * math.log2(1.0 + total / s1)
        - 0.5 * math.log2(1.0 + total / s2)
        + 0.5 * math.log2(TWO_PI_E * s1)
    )
    assert abs(low - high) <= 1e-10
    assert sum_rate(total / 2.0, total / 2.0, NOISY_EVE) == pytest.approx(low, abs=1e-10)


def test_sum_rate_above_breakpoint_value():
    s1, s2 = 5.0, 2.0
    total = 400.0
    expected = (
        0.5 * math.log2(1.0 + total / s1)
        - 0.5 * math.log2(1.0 + total / s2)
        + 0.5 * math.log2(TWO_PI_E * s1)
    )
    assert sum_rate(150.0, 250.0, NOISY_EVE) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 300.0),
    st.floats(0.0, 300.0),
    st.floats(0.07, 8.0),
    st.floats(0.05, 8.0),
)
def test_sum_rate_depends_only_on_total(p1, p2, s1, s2):
    g = GaussianMacWt(0.0, 0.0, s1, s2)
    assert sum_rate(p1, p2, g) == pytest.approx(sum_rate(p2, p1, g), abs=1e-12)
    assert sum_rate(p1, p2, g) == pytest.approx(sum_rate(p1 + p2, 0.0, g), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 500.0), st.floats(0.07, 8.0), st.floats(0.05, 8.0))
def test_reported_rate_matches_sum_rate_at_reported_point(cap, s1, s2):
    g = GaussianMacWt(0.0, 0.0, s1, s2)
    res = optimal_power(cap, g)
    assert 0.0 <= res.p1_star <= cap + 1e-12
    assert 0.0 <= res.p2_star <= cap + 1e-12
    assert res.r_sum_star == pytest.approx(sum_rate(res.p1_star, res.p2_star, g), abs=1e-9)
    assert (res.regime == ABOVE_THRESHOLD) == (cap >= res.threshold)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(MIN_SIGMA1_SQ, 1e300),
    st.floats(1e-3, 1e3),
    st.floats(1.0, 4.0),
    st.floats(0.0, 1.0),
)
@example(5.0, 2.0, 1.0, 1.0)  # the first total above the breakpoint
@example(MIN_SIGMA1_SQ, 2.0, 1.0, 1.0)  # a zero breakpoint: every positive total is above it
# fl(2 pi e s1) lies in [2**53, 2**54) and fl(x - 1) rounds to x - 2: here
# the capacity term is one ulp below h(N1) and wins the hybrid bound's min
@example(1001558655059978.9, 16.4, 1.0, 1.0)
def test_sum_rate_above_breakpoint_is_hybrid_sum_bound(s1, s2, scale, share):
    g = GaussianMacWt(0.0, 0.0, s1, s2)
    breakpoint_total = 2.0 * saturation_threshold(g)
    total = math.nextafter(breakpoint_total * scale, math.inf)
    p1 = total * share
    p2 = total - p1
    assume(p1 + p2 > breakpoint_total)
    pair = GaussianMacWt(p1, p2, s1, s2)
    rate = sum_rate(p1, p2, g)
    assert rate == hybrid_sum_bound(pair)
    if TWO_PI_E * s1 < 2.0**53:
        # the key term is h(N1) itself, as sum_rate's docstring argues
        assert rate == df_sum_bound(pair) + gaussian_diff_entropy(s1)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e6), st.floats(MIN_SIGMA1_SQ, 1e6), st.floats(1e-3, 1e6))
@example(84.397342226735671, 5.0, 2.0)  # a cap next to the threshold of variances (5, 2)
# a cap of -0.0 against the zero threshold at the floor reports +0.0, which
# min(cap, threshold) would not
@example(-0.0, MIN_SIGMA1_SQ, 0.01)
def test_optimal_power_is_sum_rate_at_its_point(cap, s1, s2):
    g = GaussianMacWt(0.0, 0.0, s1, s2)
    threshold = saturation_threshold(g)
    p = threshold if s1 > s2 and cap >= threshold else cap
    regime = ABOVE_THRESHOLD if cap >= threshold else BELOW_THRESHOLD
    res = optimal_power(cap, g)
    assert res == (p, p, sum_rate(p, p, g), regime, threshold)
    assert math.copysign(1.0, res.p1_star) == math.copysign(1.0, p)


def test_saturated_optimum_whose_total_overflows_rejected():
    # the threshold is finite, but the optimum's total power, twice it, is not
    g = GaussianMacWt(0.0, 0.0, 1e290, 1.5e17)
    threshold = saturation_threshold(g)
    assert math.isfinite(threshold) and math.isinf(2.0 * threshold)
    with pytest.raises(ValidationError, match="overflows to infinity"):
        optimal_power(threshold, g)


# --- domain and argument validation --------------------------------------------

def test_main_variance_below_entropy_floor_rejected():
    g = GaussianMacWt(1.0, 1.0, 0.05, 2.0)
    assert 0.05 < MIN_SIGMA1_SQ
    for call in (
        lambda: sum_rate(1.0, 1.0, g),
        lambda: optimal_power(10.0, g),
        lambda: grid_oracle(10.0, g, 11),
        lambda: sweep(10.0, 5, g),
        lambda: saturation_threshold(g),
    ):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize(
    "s1, s2",
    [(1.0, 1e-310), (MIN_SIGMA1_SQ * (1.0 + 2.0**-40), 1e-300)],
    ids=["tiny_sigma2", "sigma1_near_floor"],
)
def test_subnormal_breakpoint_rejected(s1, s2):
    # The breakpoint (2 pi e s1 - 1) s2 is nonzero but below the smallest
    # normal float, where the two branches disagree at it.
    g = GaussianMacWt(0.0, 0.0, s1, s2)
    assert 0.0 < (TWO_PI_E * s1 - 1.0) * s2 < sys.float_info.min
    for call in (
        lambda: sum_rate(0.0, 0.0, g),
        lambda: optimal_power(1.0, g),
        lambda: grid_oracle(1.0, g, 3),
        lambda: sweep(1.0, 3, g),
        lambda: saturation_threshold(g),
    ):
        with pytest.raises(ValidationError, match=f"sigma1_sq={s1:g} and sigma2_sq={s2:g} "):
            call()


@pytest.mark.parametrize("s1", [1.0, MIN_SIGMA1_SQ], ids=["normal_breakpoint", "zero_breakpoint"])
def test_tiny_eavesdropper_variance_accepted(s1):
    # sigma2_sq = 1e-300: at sigma1_sq = 1 the breakpoint 1.6e-299 is a
    # normal float and both branches agree on it; at the entropy floor it
    # is exactly 0.
    g = GaussianMacWt(0.0, 0.0, s1, 1e-300)
    total = 2.0 * saturation_threshold(g)
    above = 0.5 * math.log2(1.0 + total / s1) - 0.5 * math.log2(1.0 + total / 1e-300)
    above += 0.5 * math.log2(TWO_PI_E * s1)
    assert sum_rate(total, 0.0, g) == pytest.approx(above, abs=1e-12)
    assert optimal_power(1.0, g).threshold == total / 2.0


def test_negative_arguments_rejected():
    with pytest.raises(ValidationError):
        sum_rate(-1.0, 1.0, NOISY_EVE)
    with pytest.raises(ValidationError):
        optimal_power(-0.5, NOISY_EVE)
    with pytest.raises(ValidationError):
        grid_oracle(10.0, NOISY_EVE, 1)
    with pytest.raises(ValidationError):
        sweep(10.0, 1, NOISY_EVE)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_rejected(bad):
    with pytest.raises(ValidationError):
        sum_rate(bad, 1.0, NOISY_EVE)
    with pytest.raises(ValidationError):
        sum_rate(1.0, bad, NOISY_EVE)
    with pytest.raises(ValidationError):
        optimal_power(bad, NOISY_EVE)
    with pytest.raises(ValidationError):
        sweep(bad, 3, NOISY_EVE)


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
def test_non_integer_steps_rejected(steps):
    message = "steps must be an integer of at least 2, got %r" % (steps,)
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        sweep(10.0, steps, NOISY_EVE)


def test_numpy_integer_steps_accepted():
    assert sweep(10.0, np.int64(3), NOISY_EVE) == sweep(10.0, 3, NOISY_EVE)


def test_overflowing_total_rejected():
    # each power is finite, but their sum, or its ratio to a noise
    # variance, is not
    with pytest.raises(ValidationError):
        sum_rate(1e308, 1e308, NOISY_EVE)
    with pytest.raises(ValidationError):
        sum_rate(1e308, 0.0, GaussianMacWt(0.0, 0.0, 5.0, 0.5))
    with pytest.raises(ValidationError):
        optimal_power(1e308, NOISY_MAIN)
    with pytest.raises(ValidationError):
        sweep(1e308, 3, NOISY_MAIN)


# --- brute-force oracle ---------------------------------------------------------

def test_oracle_brackets_closed_form_near_saturation():
    p1, p2, rate = grid_oracle(200.0, NOISY_EVE, 2001)
    assert rate <= RSTAR_5_2 + 1e-12
    assert rate == pytest.approx(RSTAR_5_2, abs=1e-3)
    # The objective depends only on p1 + p2, so the row-major tie-break
    # lands on the smallest p1 that reaches the best grid total.
    assert p1 == 0.0
    assert p1 + p2 == pytest.approx(2.0 * THRESHOLD_5_2, abs=0.2)


def test_oracle_picks_corner_when_rate_is_monotone():
    p1, p2, rate = grid_oracle(10.0, NOISY_MAIN, 1001)
    assert (p1, p2) == (10.0, 10.0)
    assert rate == pytest.approx(optimal_power(10.0, NOISY_MAIN).r_sum_star, abs=1e-12)


def test_oracle_never_beats_closed_form():
    for cap in (5.0, 80.0, 120.0, 300.0):
        for g in (NOISY_EVE, NOISY_MAIN, GaussianMacWt(0.0, 0.0, 3.0, 3.0)):
            _, _, rate = grid_oracle(cap, g, 201)
            assert rate <= optimal_power(cap, g).r_sum_star + 1e-12


# --- sweeps ---------------------------------------------------------------------

def test_sweep_saturates_when_eavesdropper_is_noisier():
    rows = sweep(500.0, 100, NOISY_EVE)
    assert len(rows) == 100
    assert rows[0][0] == 0.0 and rows[0][1].r_sum_star == 0.0
    rates = [res.r_sum_star for _, res in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert max(rates) <= RSTAR_5_2 + 1e-12
    for cap, res in rows:
        if cap >= 84.39737:
            assert res.r_sum_star == pytest.approx(2.559655, abs=1e-5)
            assert res.p1_star == pytest.approx(THRESHOLD_5_2, abs=1e-9)
            assert res.regime == ABOVE_THRESHOLD


def test_sweep_approaches_limit_when_main_is_noisier():
    rows = sweep(1e6, 50, NOISY_MAIN)
    rates = [res.r_sum_star for _, res in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert max(rates) <= LIMIT_1_10
    assert rates[-1] == pytest.approx(LIMIT_1_10, abs=1e-4)
    assert all(res.p1_star == cap for cap, res in rows)


def test_sweep_two_steps_gives_endpoints():
    rows = sweep(40.0, 2, NOISY_EVE)
    assert [cap for cap, _ in rows] == [0.0, 40.0]
    assert rows[0][1].r_sum_star == 0.0


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(-324.0, 300.0).map(lambda exponent: 10.0**exponent)),
    st.integers(2, 200),
)
@example(1.5e-323, 8)  # the step underflows to 0, where linspace scales i / (steps - 1) instead
def test_sweep_caps_are_linspace_bit_for_bit(p_max, steps):
    caps = [cap for cap, _ in sweep(p_max, steps, NOISY_EVE)]
    assert [cap.hex() for cap in caps] == [float(cap).hex() for cap in np.linspace(0.0, p_max, steps)]

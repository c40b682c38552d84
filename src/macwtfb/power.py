"""Optimal power control for the scalar Gaussian pair of channels.

The secrecy sum rate under a common average-power cap is piecewise in the
total transmit power: below a breakpoint it is the main-channel capacity
term alone, above it the hybrid sum cap of ``gaussian``, where the
eavesdropper's capacity term is debited and the feedback key term
saturates at h(N1).  The maximizer has a closed form; this module keeps
only the breakpoint and the rule that splits its two sides, takes every
rate from ``gaussian``'s closed forms, and adds a sweep helper that
tabulates the optimum as a function of the power cap.

All rates are in bits.  The closed form is only meaningful when the
per-transmitter saturation power (2*pi*e*sigma1_sq - 1)*sigma2_sq/2 is
nonnegative, i.e. sigma1_sq >= MIN_SIGMA1_SQ = 1/(2*pi*e), the floor
``gaussian`` defines; smaller main-channel variances are rejected rather
than silently extrapolated.  So are variances whose breakpoint
(2*pi*e*sigma1_sq - 1)*sigma2_sq is nonzero but subnormal: there the
breakpoint keeps too few bits for the two branches to agree on it.

The module imports nothing beyond the standard library and ``gaussian``:
its rates are computed on the C library's ``log2``, and its result record
is an immutable named tuple, so ``powersweep`` and ``figure --which 4|5``
start like ``region gaussian``.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from . import ValidationError, _integer, _real
from .gaussian import MIN_SIGMA1_SQ, TWO_PI_E, GaussianMacWt, _cap, hybrid_sum_bound

__all__ = [
    "ABOVE_THRESHOLD",
    "BELOW_THRESHOLD",
    "MIN_SIGMA1_SQ",
    "PowerControlResult",
    "optimal_power",
    "saturation_threshold",
    "sum_rate",
    "sweep",
]

BELOW_THRESHOLD = "below_threshold"
ABOVE_THRESHOLD = "above_threshold"


class PowerControlResult(NamedTuple):
    """Maximizer of the secrecy sum rate under a common power cap, an
    immutable named tuple.

    ``regime`` is ``"below_threshold"`` when the cap is strictly below the
    per-transmitter saturation power and ``"above_threshold"`` otherwise
    (a cap exactly at the threshold is labeled above, where both branches
    of the closed form agree).  The reported point is one maximizer; every
    power pair with the same total is equally optimal because the sum rate
    depends on the pair only through its sum.
    """

    p1_star: float
    p2_star: float
    r_sum_star: float
    regime: str
    threshold: float


def saturation_threshold(g: GaussianMacWt) -> float:
    """Per-transmitter power (2*pi*e*sigma1_sq - 1)*sigma2_sq/2 at which the
    symmetric optimum stops growing when the eavesdropper's channel is the
    noisier one.  Raises ValidationError when ``g`` lies outside the domain
    of the closed form."""
    if g.sigma1_sq < MIN_SIGMA1_SQ:
        raise ValidationError(
            "sigma1_sq=%g is below 1/(2*pi*e)=%.12g, so the breakpoint "
            "(2*pi*e*sigma1_sq - 1)*sigma2_sq of the piecewise sum rate is "
            "negative and the closed form does not apply" % (g.sigma1_sq, MIN_SIGMA1_SQ)
        )
    threshold = 0.5 * (TWO_PI_E * g.sigma1_sq - 1.0) * g.sigma2_sq
    if 0.0 < 2.0 * threshold < sys.float_info.min:
        raise ValidationError(
            "sigma1_sq=%g and sigma2_sq=%g make the breakpoint (2*pi*e*sigma1_sq - 1)*sigma2_sq "
            "subnormal, where the two branches of the sum rate disagree" % (g.sigma1_sq, g.sigma2_sq)
        )
    return threshold


def sum_rate(p1: float, p2: float, g: GaussianMacWt) -> float:
    """Secrecy sum rate of the power pair ``(p1, p2)`` in bits.

    Piecewise in the total t = p1 + p2 with breakpoint
    (2*pi*e*sigma1_sq - 1)*sigma2_sq: below it the rate is
    log2(1 + t/sigma1_sq)/2, above it ``gaussian.hybrid_sum_bound`` of the
    pair, whose key term min{h(N1), log2(1 + t/sigma2_sq)/2} is there
    h(N1) = log2(2*pi*e*sigma1_sq)/2.  The two branches agree at the
    breakpoint, so the function is continuous.  A negative or non-finite
    power, or a total that overflows once divided by a noise variance, is
    a ValidationError.

    The min picks h(N1) in floats too, so above the breakpoint the rate is
    df_sum_bound + h(N1) bit for bit, when x = fl(2*pi*e*sigma1_sq) is
    below 2**53.  The computed breakpoint is fl(B*sigma2_sq) with
    B = fl(x - 1), and B = x - 1 exactly for such x.  Rounding is
    monotone, so t > fl(B*sigma2_sq) gives fl(t/sigma2_sq) >= B, hence
    fl(1 + fl(t/sigma2_sq)) >= x, and log2 being monotone, the capacity
    term is at least h(N1).  For x in [2**53, 2**54) (sigma1_sq between
    about 5.3e14 and 1.05e15), fl(x - 1) may round down to x - 2, and the
    capacity term, up to one ulp below h(N1), can win the min.  Below the
    breakpoint hybrid_sum_bound would compute (c - d) + d, which rounds
    differently from c, so that side keeps the capacity formula.
    """
    threshold = saturation_threshold(g)  # checks the domain
    pair = GaussianMacWt(p1, p2, g.sigma1_sq, g.sigma2_sq)  # validates the pair and its total
    total = pair.p1 + pair.p2
    if total <= 2.0 * threshold:
        return _cap(total / g.sigma1_sq)
    return hybrid_sum_bound(pair)


def optimal_power(power_cap: float, g: GaussianMacWt) -> PowerControlResult:
    """Closed-form maximizer of :func:`sum_rate` over [0, cap]^2.

    When sigma1_sq > sigma2_sq the rate peaks at the saturation threshold:
    both transmitters use the threshold once the cap reaches it.  Otherwise
    the rate is nondecreasing in the total power and the corner (cap, cap)
    is optimal.  The reported rate is :func:`sum_rate` at the reported
    point; at the threshold the total is exactly the breakpoint, so it is
    the capacity term there.  An optimum whose total power overflows is a
    ValidationError, as in :func:`sum_rate`.
    """
    threshold = saturation_threshold(g)
    power_cap = _real(power_cap, "power cap", "nonnegative") + 0.0  # adding 0.0 reports a cap of -0.0 as 0.0
    regime = ABOVE_THRESHOLD if power_cap >= threshold else BELOW_THRESHOLD
    p = threshold if g.sigma1_sq > g.sigma2_sq and power_cap >= threshold else power_cap
    return PowerControlResult(p, p, sum_rate(p, p, g), regime, threshold)


def sweep(
    p_max: float, steps: int, g: GaussianMacWt
) -> list[tuple[float, PowerControlResult]]:
    """Tabulate :func:`optimal_power` on a uniform grid of ``steps`` caps
    spanning [0, p_max].  The optimal sum rate column is nondecreasing in
    the cap.  ``steps`` is an integer of at least 2 and ``p_max`` a finite
    nonnegative real, by the package's argument rule.

    Cap i is i * (p_max / (steps - 1)), and the last cap is p_max itself;
    when that step underflows to 0 (a subnormal p_max), cap i is
    i / (steps - 1) * p_max instead.  That is ``linspace(0.0, p_max, steps)``
    of the array library bit for bit, as the sweep tests check.
    """
    saturation_threshold(g)  # checks the domain
    div = _integer(steps, "steps", 2) - 1
    p_max = _real(p_max, "maximum power", "nonnegative") + 0.0  # adding 0.0 turns a -0.0 cap into 0.0
    step = p_max / div
    caps = [i * step if step else i / div * p_max for i in range(div)] + [p_max]
    return [(cap, optimal_power(cap, g)) for cap in caps]


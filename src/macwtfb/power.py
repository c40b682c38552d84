"""Optimal power control for the scalar Gaussian pair of channels.

The secrecy sum rate under a common average-power cap is piecewise in the
total transmit power: below a breakpoint it is the main-channel capacity
term alone, above it the eavesdropper's capacity term is debited and the
feedback key term saturates.  The maximizer has a closed form; this module
implements it and a sweep helper that tabulates the optimum as a function
of the power cap.

All rates are in bits.  The closed form is only meaningful when the
per-transmitter saturation power (2*pi*e*sigma1_sq - 1)*sigma2_sq/2 is
nonnegative, i.e. sigma1_sq >= 1/(2*pi*e); smaller main-channel variances
are rejected rather than silently extrapolated.  So are variances whose
breakpoint (2*pi*e*sigma1_sq - 1)*sigma2_sq is nonzero but subnormal: there
the breakpoint keeps too few bits for the two branches to agree on it.

The module imports nothing beyond the standard library and ``gaussian``:
its rates are ``gaussian``'s closed forms, on the C library's ``log2``, and
its result record is an immutable named tuple, so ``powersweep`` and
``figure --which 4|5`` start like ``region gaussian``.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from . import ValidationError, _integer, _real
from .gaussian import TWO_PI_E, GaussianMacWt, _cap, df_sum_bound, gaussian_diff_entropy

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

#: Smallest admissible main-channel noise variance, 1/(2*pi*e).
MIN_SIGMA1_SQ = 1.0 / TWO_PI_E

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
    log2(1 + t/sigma1_sq)/2, above it the eavesdropper term
    log2(1 + t/sigma2_sq)/2 is subtracted and the constant
    log2(2*pi*e*sigma1_sq)/2 added.  The two branches agree at the
    breakpoint, so the function is continuous.  A negative or non-finite
    power, or a total that overflows once divided by a noise variance, is
    a ValidationError.
    """
    threshold = saturation_threshold(g)  # checks the domain
    pair = GaussianMacWt(p1, p2, g.sigma1_sq, g.sigma2_sq)  # validates the pair and its total
    total = pair.p1 + pair.p2
    if total <= 2.0 * threshold:
        return _cap(total / g.sigma1_sq)
    return df_sum_bound(pair) + gaussian_diff_entropy(g.sigma1_sq)


def optimal_power(power_cap: float, g: GaussianMacWt) -> PowerControlResult:
    """Closed-form maximizer of :func:`sum_rate` over [0, cap]^2.

    When sigma1_sq > sigma2_sq the rate peaks at the saturation threshold:
    both transmitters use min(cap, threshold).  Otherwise the rate is
    nondecreasing in the total power and the corner (cap, cap) is optimal.
    """
    threshold = saturation_threshold(g)
    power_cap = _real(power_cap, "power cap", "nonnegative")
    regime = ABOVE_THRESHOLD if power_cap >= threshold else BELOW_THRESHOLD
    if g.sigma1_sq > g.sigma2_sq and power_cap >= threshold:
        rate = _cap(2.0 * threshold / g.sigma1_sq)
        return PowerControlResult(threshold, threshold, rate, regime, threshold)
    rate = sum_rate(power_cap, power_cap, g)
    return PowerControlResult(power_cap, power_cap, rate, regime, threshold)


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
    p_max = _real(p_max, "maximum power", "nonnegative")
    step = p_max / div
    caps = [i * step if step else i / div * p_max for i in range(div)] + [p_max]
    return [(cap, optimal_power(cap, g)) for cap in caps]


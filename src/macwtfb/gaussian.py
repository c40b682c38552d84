"""The Gaussian model and its closed-form secrecy rate bounds.

Y = X1 + X2 + N1, Z = X1 + X2 + N2, with noise variances sigma1_sq (main)
and sigma2_sq (eavesdropper) and average powers p1, p2 (``GaussianMacWt``).
All rates in bits.

The decode-and-forward inner region caps each rate by its single-user main
channel capacity and the sum by the main-minus-eavesdropper sum capacity
difference. The hybrid region adds the secret-key gain
min{ h(N1), 1/2 log2(1 + (p1+p2)/sigma2_sq) } to the sum cap, where h(N1) is
the differential entropy of the main noise; both closed forms are evaluated
at the full-power, fully-correlated-auxiliary operating point. Full power does
not always maximize them: when sigma1_sq > sigma2_sq the hybrid sum cap peaks
at a finite total power (see power.optimal_power). The outer bound caps the
secret sum rate through the conditional entropy h(Y|Z) of jointly Gaussian
outputs.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from . import ValidationError, _real
from .regions import RateRegion, capped_region, region_from_halfspaces

TWO_PI_E = 2.0 * math.pi * math.e


class _GaussianFields(NamedTuple):
    p1: float
    p2: float
    sigma1_sq: float
    sigma2_sq: float


class GaussianMacWt(_GaussianFields):
    """Gaussian model Y = X1 + X2 + N1, Z = X1 + X2 + N2, an immutable
    named tuple whose fields are coerced to floats.

    p1, p2 are average power constraints (nonnegative); sigma1_sq and
    sigma2_sq the main and eavesdropper noise variances (positive).
    """

    __slots__ = ()

    def __new__(cls, p1, p2, sigma1_sq, sigma2_sq):
        g = super().__new__(
            cls,
            _real(p1, "p1", "nonnegative"),
            _real(p2, "p2", "nonnegative"),
            _real(sigma1_sq, "sigma1_sq", "positive"),
            _real(sigma2_sq, "sigma2_sq", "positive"),
        )
        if not math.isfinite((g.p1 + g.p2) / min(g.sigma1_sq, g.sigma2_sq)):
            raise ValidationError("(p1 + p2) / min(sigma1_sq, sigma2_sq) overflows to infinity")
        return g

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace validates too
        return cls(*iterable)


def gaussian_diff_entropy(variance: float) -> float:
    """Differential entropy of a scalar Gaussian, 1/2 log2(2 pi e variance), bits."""
    return 0.5 * math.log2(TWO_PI_E * _real(variance, "variance", "positive"))


def _cap(snr: float) -> float:
    """1/2 log2(1 + snr), the Gaussian capacity formula."""
    return 0.5 * math.log2(1.0 + snr)


def df_sum_bound(g: GaussianMacWt) -> float:
    """Sum-rate cap of the decode-and-forward region (may be negative)."""
    s = g.p1 + g.p2
    return _cap(s / g.sigma1_sq) - _cap(s / g.sigma2_sq)


def hybrid_sum_bound(g: GaussianMacWt) -> float:
    """Sum-rate cap of the hybrid (key-generation) region."""
    gain = min(gaussian_diff_entropy(g.sigma1_sq), _cap((g.p1 + g.p2) / g.sigma2_sq))
    return df_sum_bound(g) + gain


def gaussian_df_region(g: GaussianMacWt) -> RateRegion:
    """Decode-and-forward inner bound region."""
    return capped_region(_cap(g.p1 / g.sigma1_sq), _cap(g.p2 / g.sigma1_sq), df_sum_bound(g))


def gaussian_hybrid_region(g: GaussianMacWt) -> RateRegion:
    """Hybrid inner bound region: decode-and-forward plus a fed-back secret key.

    For sigma1_sq < 1/(2 pi e) the key-rate term h(N1) is negative and the
    closed form is evaluated literally; a RuntimeWarning flags the result
    since the region is then smaller than decode-and-forward alone.
    """
    if gaussian_diff_entropy(g.sigma1_sq) < 0.0:
        warnings.warn(
            "main-noise differential entropy is negative "
            f"(sigma1_sq={g.sigma1_sq!r} < 1/(2 pi e)); the hybrid sum bound "
            "is evaluated literally and shrinks below decode-and-forward",
            RuntimeWarning,
            stacklevel=2,
        )
    return capped_region(_cap(g.p1 / g.sigma1_sq), _cap(g.p2 / g.sigma1_sq), hybrid_sum_bound(g))


def tekin_yener_region(g: GaussianMacWt) -> RateRegion:
    """No-feedback comparison region (Tekin-Yener style individual caps).

    Each individual cap subtracts the rate the eavesdropper collects when the
    other user's signal acts as its noise; the sum cap coincides with the
    decode-and-forward one.
    """
    r1 = _cap(g.p1 / g.sigma1_sq) - _cap(g.p1 / (g.sigma2_sq + g.p2))
    r2 = _cap(g.p2 / g.sigma1_sq) - _cap(g.p2 / (g.sigma2_sq + g.p1))
    return capped_region(r1, r2, df_sum_bound(g))


def gaussian_outer_sum(g: GaussianMacWt) -> float:
    """Sato-type outer cap on R1 + R2: h(Y|Z) in bits, clamped at zero.

    The noises are coupled so that the noisier output is a degraded copy of
    the other, and the input X1 + X2 is Gaussian with variance S = p1 + p2,
    i.e. independent inputs at full power.

    - sigma1_sq > sigma2_sq: Y = Z + N' with N' of variance
      sigma1_sq - sigma2_sq, so h(Y|Z) = 1/2 log2(2 pi e (sigma1_sq -
      sigma2_sq)), independent of power.
    - sigma1_sq < sigma2_sq: Z = Y + N'' with N'' of variance
      sigma2_sq - sigma1_sq, so h(Y|Z) = 1/2 log2(2 pi e (sigma2_sq -
      sigma1_sq)) + 1/2 log2((S + sigma1_sq) / (S + sigma2_sq)), which grows
      with S.

    Equal variances leave h(Y|Z) degenerate, which the closed form cannot
    represent, so that case is rejected.

    Open question: the finite-channel Sato bound maximises H(Y|Z) over joint
    input laws P(x1, x2), and feedback lets the transmitters correlate their
    inputs. Fully correlated inputs give S = (sqrt(p1) + sqrt(p2))^2, which
    in the second branch raises the bound. At P1 = P2 = 1, variances
    (1, 10), independent inputs give 2.632058 and correlated inputs
    2.889345. This function keeps the independent-input reading.
    """
    s1, s2 = g.sigma1_sq, g.sigma2_sq
    if s1 == s2:
        raise ValidationError(
            "outer bound is undefined for equal noise variances "
            f"(sigma1_sq == sigma2_sq == {s1!r})"
        )
    if s1 > s2:
        value = gaussian_diff_entropy(s1 - s2)
    else:
        s = g.p1 + g.p2
        value = gaussian_diff_entropy(s2 - s1) + 0.5 * math.log2((s + s1) / (s + s2))
    return max(0.0, value)


def gaussian_outer_region(g: GaussianMacWt) -> RateRegion:
    """Triangle {R1 + R2 <= gaussian_outer_sum} in the quadrant.

    The converse constrains only the sum rate, so the region is the plain
    simplex below the outer sum cap.
    """
    return region_from_halfspaces([(1.0, 1.0, gaussian_outer_sum(g))])

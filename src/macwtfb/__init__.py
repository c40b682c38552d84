"""Secrecy capacity region bounds for the two-user multiple-access wiretap
channel with noiseless channel-output feedback.

Inner (decode-and-forward and hybrid key-generation) and Sato-type outer
bounds over discrete memoryless channels, closed-form Gaussian counterparts,
optimal power control, and an exact rational Fourier-Motzkin verification of
the hybrid region's rate-splitting construction.

The package root exports the names the README presents; everything else
is imported from its module, e.g. ``macwtfb.fm`` or ``macwtfb.channels``.
"""

from .channels import GaussianMacWt, MacWiretapKernel, WiretapKernel
from .discrete import (
    SearchConfig,
    feedback_secrecy_capacity,
    search_inner,
    search_outer,
    wyner_capacity,
)
from .fm import verify_hybrid_region_projection
from .gaussian import gaussian_hybrid_region, gaussian_outer_sum
from .info import ValidationError
from .power import optimal_power
from .regions import RateRegion, boundary_samples, hull_of_regions, is_subset

__version__ = "0.1.0"

__all__ = [
    "GaussianMacWt",
    "MacWiretapKernel",
    "RateRegion",
    "SearchConfig",
    "ValidationError",
    "WiretapKernel",
    "boundary_samples",
    "feedback_secrecy_capacity",
    "gaussian_hybrid_region",
    "gaussian_outer_sum",
    "hull_of_regions",
    "is_subset",
    "optimal_power",
    "search_inner",
    "search_outer",
    "verify_hybrid_region_projection",
    "wyner_capacity",
]

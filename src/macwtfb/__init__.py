"""Secrecy capacity region bounds for the two-user multiple-access wiretap
channel with noiseless channel-output feedback.

Inner (decode-and-forward and hybrid key-generation) and Sato-type outer
bounds over discrete memoryless channels, closed-form Gaussian counterparts,
optimal power control, and an exact rational Fourier-Motzkin verification of
the hybrid region's rate-splitting construction.

The package root exports the names the README presents; everything else
is imported from its module, e.g. ``macwtfb.fm`` or ``macwtfb.channels``.
Each export is imported from its module on first access, so importing the
package loads no module, and numpy only comes in with a module that
computes with it (``discrete``, ``power``).
"""

import importlib

__version__ = "0.1.0"

# export name -> the module that defines it
_EXPORTS = {
    "GaussianMacWt": "channels",
    "MacWiretapKernel": "channels",
    "RateRegion": "regions",
    "SearchConfig": "discrete",
    "ValidationError": "info",
    "WiretapKernel": "channels",
    "boundary_samples": "regions",
    "feedback_secrecy_capacity": "discrete",
    "gaussian_hybrid_region": "gaussian",
    "gaussian_outer_sum": "gaussian",
    "hull_of_regions": "regions",
    "is_subset": "regions",
    "optimal_power": "power",
    "search_inner": "discrete",
    "search_outer": "discrete",
    "verify_hybrid_region_projection": "fm",
    "wyner_capacity": "discrete",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

"""Secrecy capacity region bounds for the two-user multiple-access wiretap
channel with noiseless channel-output feedback.

Inner (decode-and-forward and hybrid key-generation) and Sato-type outer
bounds over discrete memoryless channels, closed-form Gaussian counterparts,
optimal power control, and an exact rational Fourier-Motzkin verification of
the hybrid region's rate-splitting construction.

The package root exports the names the README presents; everything else
is imported from its module, e.g. ``macwtfb.fm`` or ``macwtfb.channels``.
Each export is imported from its module on first access, so importing the
package loads no module.  ``ValidationError``, which every module raises,
is defined here.

A module either imports numpy at the top or never imports it.
``channels``, ``info`` and ``discrete`` compute with arrays and import it;
``regions``, ``gaussian``, ``power``, ``fm`` and ``cli`` never do, so the
Gaussian closed forms, the power sweeps and the exact checks run without
loading numpy.
Their value types are immutable named tuples, not data classes, so that
they load no ``inspect`` either.
"""

import importlib

__version__ = "0.1.0"


class ValidationError(ValueError):
    """Raised when an input fails a distribution or argument contract."""


# export name -> the module that defines it
_EXPORTS = {
    "GaussianMacWt": "gaussian",
    "MacWiretapKernel": "channels",
    "RateRegion": "regions",
    "SearchConfig": "discrete",
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

__all__ = ["ValidationError", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

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
is defined here, with the one rule for scalar arguments: ``_integer``
accepts what has ``__index__`` (numpy's ``int64`` too) and ``_real`` what
has ``__float__`` or ``__index__`` (numpy's ``float32`` too), and both
reject bools and text with a ``ValidationError``; ``_real`` returns a
finite float, nonnegative or positive where the caller asks for it.

A module either imports numpy at the top or never imports it.
``channels``, ``info`` and ``discrete`` compute with arrays and import it;
``regions``, ``gaussian``, ``power``, ``fm`` and ``cli`` never do, so the
Gaussian closed forms, the power sweeps and the exact checks run without
loading numpy.
Their value types are immutable named tuples, not data classes, so that
they load no ``inspect`` either.
"""

import importlib
import math

__version__ = "0.1.0"


class ValidationError(ValueError):
    """Raised when an input fails a distribution or argument contract."""


def _integer(value, what: str, least: int):
    """``value`` if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < least:
        raise ValidationError("%s must be an integer of at least %d, got %r" % (what, least, value))
    return value


def _real(value, what: str, sign: str = "") -> float:
    """``float(value)`` if ``value`` is a real number (not a bool or text)
    whose float is finite and, for ``sign`` ``"nonnegative"`` or
    ``"positive"``, of that sign.  An integer too large for a float is
    infinite."""
    kind = type(value)
    if isinstance(value, bool) or not (hasattr(kind, "__float__") or hasattr(kind, "__index__")):
        raise ValidationError("%s must be a real number, got %r" % (what, value))
    try:
        v = float(value)
    except OverflowError:
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v) or v < 0.0 and sign == "nonnegative" or v <= 0.0 and sign == "positive":
        raise ValidationError("%s must be finite%s, got %r" % (what, sign and " and " + sign, v))
    return v


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

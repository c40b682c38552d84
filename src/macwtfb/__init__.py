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
returns ``operator.index`` of its value as an ``int`` (numpy's ``int64``
too) and ``_real`` the float of what has ``__float__`` or ``__index__``
(numpy's ``float32`` too).  Both reject bools and text, numpy's too, and
arrays with one or more axes with a ``ValidationError``; ``_real``
returns a finite float, nonnegative or positive where the caller asks for
it.  No other module decides what is an integer or a real.

A module either imports numpy at the top or never imports it.
``channels``, ``info`` and ``discrete`` compute with arrays and import it;
``regions``, ``gaussian``, ``power``, ``fm`` and ``cli`` never do, so the
Gaussian closed forms, the power sweeps and the exact checks run without
loading numpy.
Their value types are immutable named tuples, not data classes, so that
they load no ``inspect`` either.  The private ``_draws``, which only
``discrete`` imports, draws the search's restart laws on Python numbers:
the bits of numpy's generator, without importing it.
"""

import importlib
import math
import operator
import sys

__version__ = "0.1.0"


class ValidationError(ValueError):
    """Raised when an input fails a distribution or argument contract."""


def _scalar(value) -> bool:
    """Whether ``value`` is no bool and, if a numpy value, an integer or
    float without axes: numpy bools, text and complex numbers and arrays
    with one or more axes are not.  numpy is looked up, never imported:
    no numpy value exists before it is."""
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(value, (numpy.generic, numpy.ndarray)):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return not isinstance(value, bool)


def _integer(value, what: str, least: float = -math.inf) -> int:
    """``operator.index(value)``, a Python ``int``, if ``value`` is an
    integer (not a bool or an array with axes) of at least ``least``."""
    try:
        v = operator.index(value) if _scalar(value) else None
    except TypeError:
        v = None
    if v is None or v < least:
        raise ValidationError("%s must be an integer of at least %s, got %r" % (what, least, value))
    return v


def _real(value, what: str, sign: str = "") -> float:
    """``float(value)`` if ``value`` is a real number (not a bool, an array
    with axes or text) whose float is finite and, for ``sign``
    ``"nonnegative"`` or ``"positive"``, of that sign.  An integer too
    large for a float is infinite."""
    kind = type(value)
    if not _scalar(value) or not (hasattr(kind, "__float__") or hasattr(kind, "__index__")):
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

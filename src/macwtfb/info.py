"""Information measures over finite distributions, in bits.

Distributions are validated numpy float arrays. All measures use log base 2
and treat 0 * log 0 = 0. Tiny negative results caused by float cancellation
(within NEG_CLAMP) are clamped to zero; anything more negative signals a bug
in the caller and raises ConsistencyError.

numpy is imported by the functions that use it, not by the module: the
Gaussian closed forms and the exact checks need only ValidationError and
gaussian_diff_entropy from here, and run without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# mass functions must sum to 1 within this
PROB_ATOL = 1e-12
# float cancellation allowance on quantities that are nonnegative in exact math
NEG_CLAMP = 1e-10

TWO_PI_E = 2.0 * math.pi * math.e


class ValidationError(ValueError):
    """Raised when an input fails a distribution or argument contract."""


class ConsistencyError(RuntimeError):
    """Raised when an internally computed quantity violates exact-math bounds."""


def check_mass(values, what: str = "mass", sum_axes=None, atol: float = PROB_ATOL) -> np.ndarray:
    """Validated read-only copy of a probability mass array.

    Entries must be finite and no lower than -PROB_ATOL; the tolerated tiny
    negatives are clipped to 0. Every sum over ``sum_axes`` (all axes when
    None) must be 1 within ``atol``. Errors name the offending index.
    """
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError(f"{what} is empty: shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = _argmax_index(bad)
        raise ValidationError(f"{what} has non-finite entry {float(arr[idx])!r} at index {idx}")
    idx = _argmax_index(-arr)
    if arr[idx] < -PROB_ATOL:
        raise ValidationError(f"{what} has negative entry {arr[idx]:.3e} at index {idx}")
    arr = np.where(arr < 0.0, 0.0, arr)
    sums = np.asarray(arr.sum(axis=sum_axes))
    idx = _argmax_index(np.abs(sums - 1.0))
    if abs(sums[idx] - 1.0) > atol:
        row = f" row {idx}" if idx else ""
        raise ValidationError(f"{what}{row} sums to {float(sums[idx])!r}, off by more than {atol:g}")
    arr.flags.writeable = False
    return arr


def _argmax_index(values: np.ndarray) -> tuple[int, ...]:
    import numpy as np

    return tuple(int(i) for i in np.unravel_index(int(values.argmax()), values.shape))


@dataclass(frozen=True)
class JointDist:
    """Joint probability mass function; axis i is the i-th random variable."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", check_mass(self.mass))

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return self.mass.shape

    @property
    def num_axes(self) -> int:
        return self.mass.ndim

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        """Marginal mass over the given axes, in the order given."""
        import numpy as np

        axes = _check_axes(self, axes, "axes")
        drop = tuple(i for i in range(self.mass.ndim) if i not in axes)
        m = self.mass.sum(axis=drop) if drop else self.mass
        # sum() preserves the original relative order; permute to match `axes`
        kept = [i for i in range(self.mass.ndim) if i in axes]
        perm = [kept.index(i) for i in axes]
        return np.transpose(m, perm) if perm != list(range(len(axes))) else m


def _check_axes(joint: JointDist, axes: Sequence[int], name: str) -> tuple[int, ...]:
    axes = tuple(int(i) for i in axes)
    if len(set(axes)) != len(axes):
        raise ValidationError(f"{name} contains repeated axes: {axes}")
    for i in axes:
        if not 0 <= i < joint.num_axes:
            raise ValidationError(f"{name} axis {i} out of range for {joint.num_axes} axes")
    return axes


def _entropy_of(mass: np.ndarray) -> float:
    import numpy as np

    flat = np.asarray(mass, dtype=float).ravel()
    nz = flat[flat > 0.0]
    if nz.size == 0:
        return 0.0
    return float(-np.dot(nz, np.log2(nz)))


def entropy(dist: JointDist) -> float:
    """Shannon entropy in bits of all axes of a JointDist."""
    if not isinstance(dist, JointDist):
        raise ValidationError(f"expected JointDist, got {type(dist).__name__}")
    return _entropy_of(dist.mass)


def _clamp_nonneg(value: float, what: str) -> float:
    if value < 0.0:
        if value < -NEG_CLAMP:
            raise ConsistencyError(f"{what} = {value!r} is negative beyond the float allowance")
        return 0.0
    return value


def conditional_entropy(joint: JointDist, target_axes: Sequence[int],
                        given_axes: Sequence[int] = ()) -> float:
    """H(target | given) in bits, computed as H(target, given) - H(given)."""
    target = _check_axes(joint, target_axes, "target_axes")
    given = _check_axes(joint, given_axes, "given_axes")
    if set(target) & set(given):
        raise ValidationError(f"target and given axes overlap: {target} vs {given}")
    if not target:
        raise ValidationError("target_axes is empty")
    h_joint = _entropy_of(joint.marginal(target + given))
    h_given = _entropy_of(joint.marginal(given)) if given else 0.0
    return _clamp_nonneg(h_joint - h_given, "conditional entropy")


def mutual_information(joint: JointDist, left_axes: Sequence[int],
                       right_axes: Sequence[int],
                       given_axes: Sequence[int] = ()) -> float:
    """I(left; right | given) in bits.

    Evaluated as H(left,given) + H(right,given) - H(left,right,given) - H(given),
    which is nonnegative in exact arithmetic; tiny float negatives clamp to 0.
    """
    left = _check_axes(joint, left_axes, "left_axes")
    right = _check_axes(joint, right_axes, "right_axes")
    given = _check_axes(joint, given_axes, "given_axes")
    groups = (set(left), set(right), set(given))
    if (groups[0] & groups[1]) or (groups[0] & groups[2]) or (groups[1] & groups[2]):
        raise ValidationError(f"axis groups overlap: {left}, {right}, {given}")
    if not left or not right:
        raise ValidationError("left_axes and right_axes must be nonempty")
    h_lg = _entropy_of(joint.marginal(left + given))
    h_rg = _entropy_of(joint.marginal(right + given))
    h_lrg = _entropy_of(joint.marginal(left + right + given))
    h_g = _entropy_of(joint.marginal(given)) if given else 0.0
    return _clamp_nonneg(h_lg + h_rg - h_lrg - h_g, "mutual information")


def gaussian_diff_entropy(variance: float) -> float:
    """Differential entropy of a scalar Gaussian, 1/2 log2(2 pi e variance), bits."""
    v = float(variance)
    if not math.isfinite(v) or v <= 0.0:
        raise ValidationError(f"variance must be positive and finite, got {variance!r}")
    return 0.5 * math.log2(TWO_PI_E * v)

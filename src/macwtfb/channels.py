"""Channel models and the bridge from channels to information quantities.

A discrete two-user wiretap channel is a conditional law P(y, z | x1, x2); the
legitimate receiver sees Y, the eavesdropper sees Z. Inputs factor through a
common auxiliary as P(u) P(x1|u) P(x2|u). The Gaussian model is
Y = X1 + X2 + N1, Z = X1 + X2 + N2 with average power constraints.

numpy is imported by the functions that build or read arrays, not by the
module, so the Gaussian model loads without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .info import (
    JointDist,
    ValidationError,
    check_mass,
    conditional_entropy,
    mutual_information,
)

if TYPE_CHECKING:
    import numpy as np

# per-input transition rows renormalize when off by at most this, reject beyond
ROW_SUM_ATOL = 1e-9


def _clean_transition(table, n_input_axes: int, what: str) -> np.ndarray:
    import numpy as np

    arr = np.asarray(table, dtype=float)
    expected_ndim = n_input_axes + 2
    if arr.ndim != expected_ndim:
        raise ValidationError(
            f"{what} must have {expected_ndim} axes (inputs then y then z), got shape {arr.shape}"
        )
    arr = check_mass(arr, what, sum_axes=(-2, -1), atol=ROW_SUM_ATOL)
    arr = arr / arr.sum(axis=(-2, -1), keepdims=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MacWiretapKernel:
    """Transition law P(y, z | x1, x2) on finite alphabets.

    transition has shape (|X1|, |X2|, |Y|, |Z|); each (x1, x2) slice is a
    probability mass over (y, z). Slices off from sum 1 by at most 1e-9 are
    renormalized, anything worse is rejected.
    """

    transition: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "transition", _clean_transition(self.transition, 2, "transition")
        )

    @property
    def x1_size(self) -> int:
        return self.transition.shape[0]

    @property
    def x2_size(self) -> int:
        return self.transition.shape[1]

    @property
    def y_size(self) -> int:
        return self.transition.shape[2]

    @property
    def z_size(self) -> int:
        return self.transition.shape[3]


@dataclass(frozen=True)
class WiretapKernel:
    """Single-transmitter wiretap law P(y, z | x), shape (|X|, |Y|, |Z|)."""

    transition: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "transition", _clean_transition(self.transition, 1, "transition")
        )

    @property
    def x_size(self) -> int:
        return self.transition.shape[0]

    @property
    def y_size(self) -> int:
        return self.transition.shape[1]

    @property
    def z_size(self) -> int:
        return self.transition.shape[2]


@dataclass(frozen=True)
class InputFactorization:
    """Input law P(u) P(x1|u) P(x2|u) over a finite auxiliary alphabet."""

    u_dist: np.ndarray       # shape (|U|,)
    x1_given_u: np.ndarray   # shape (|U|, |X1|)
    x2_given_u: np.ndarray   # shape (|U|, |X2|)

    def __post_init__(self):
        import numpy as np

        u, x1, x2 = (
            np.asarray(t, dtype=float) for t in (self.u_dist, self.x1_given_u, self.x2_given_u)
        )
        if (u.ndim, x1.ndim, x2.ndim) != (1, 2, 2) or not len(u) == len(x1) == len(x2):
            raise ValidationError(
                "u_dist, x1_given_u, x2_given_u must have shapes (|U|,), (|U|, |X1|), "
                f"(|U|, |X2|), got {u.shape}, {x1.shape}, {x2.shape}"
            )
        object.__setattr__(self, "u_dist", check_mass(u, "u_dist"))
        object.__setattr__(self, "x1_given_u", check_mass(x1, "x1_given_u", sum_axes=1))
        object.__setattr__(self, "x2_given_u", check_mass(x2, "x2_given_u", sum_axes=1))

    @property
    def u_size(self) -> int:
        return self.u_dist.size


@dataclass(frozen=True)
class GaussianMacWt:
    """Gaussian model Y = X1 + X2 + N1, Z = X1 + X2 + N2.

    p1, p2 are average power constraints (nonnegative); sigma1_sq and
    sigma2_sq the main and eavesdropper noise variances (positive).
    """

    p1: float
    p2: float
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        for name in ("p1", "p2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"{name} must be finite and nonnegative, got {v!r}")
            object.__setattr__(self, name, v)
        for name in ("sigma1_sq", "sigma2_sq"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValidationError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)
        if not math.isfinite((self.p1 + self.p2) / min(self.sigma1_sq, self.sigma2_sq)):
            raise ValidationError("(p1 + p2) / min(sigma1_sq, sigma2_sq) overflows to infinity")


@dataclass(frozen=True)
class InfoQuantities:
    """The six information quantities the bounds are built from, in bits.

    a = I(X1; Y | X2, U), b = I(X2; Y | X1, U), c = I(X1, X2; Y),
    d = I(X1, X2; Z), e = H(Y | X1, X2, Z), h_y_given_z = H(Y | Z).
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    h_y_given_z: float


def _df_sum(a, b, c, d, e):
    """Decode-and-forward sum-rate cap min(c, a + b) - d; exact on Fractions."""
    return min(c, a + b) - d


def _hybrid_sum(a, b, c, d, e):
    """Hybrid sum-rate cap min(c, a + b) - d + min(d, e): the leakage debit d
    partly refunded by the feedback key rate e; exact on Fractions."""
    return min(c, a + b) - d + min(d, e)


def assemble_joint(kernel: MacWiretapKernel, inputs: InputFactorization) -> JointDist:
    """Joint law of (U, X1, X2, Y, Z) under P(u)P(x1|u)P(x2|u) P(y,z|x1,x2)."""
    import numpy as np

    if inputs.x1_given_u.shape[1] != kernel.x1_size:
        raise ValidationError(
            f"x1 alphabet mismatch: inputs give {inputs.x1_given_u.shape[1]}, "
            f"kernel expects {kernel.x1_size}"
        )
    if inputs.x2_given_u.shape[1] != kernel.x2_size:
        raise ValidationError(
            f"x2 alphabet mismatch: inputs give {inputs.x2_given_u.shape[1]}, "
            f"kernel expects {kernel.x2_size}"
        )
    mass = np.einsum(
        "u,ua,ub,abyz->uabyz",
        inputs.u_dist,
        inputs.x1_given_u,
        inputs.x2_given_u,
        kernel.transition,
    )
    return JointDist(mass)


def joint_from_input_law(kernel: MacWiretapKernel, joint_x: np.ndarray) -> JointDist:
    """Joint law of (X1, X2, Y, Z) under an arbitrary input law P(x1, x2)."""
    import numpy as np

    q = np.asarray(joint_x, dtype=float)
    if q.shape != (kernel.x1_size, kernel.x2_size):
        raise ValidationError(
            f"input law must have shape {(kernel.x1_size, kernel.x2_size)}, got {q.shape}"
        )
    q = check_mass(q, "input law")
    return JointDist(q[:, :, None, None] * kernel.transition)


def info_quantities(kernel: MacWiretapKernel, inputs: InputFactorization) -> InfoQuantities:
    """Evaluate all six quantities for one factorized input law.

    Axes of the assembled joint: 0=U, 1=X1, 2=X2, 3=Y, 4=Z.
    """
    j = assemble_joint(kernel, inputs)
    return InfoQuantities(
        a=mutual_information(j, [1], [3], [0, 2]),
        b=mutual_information(j, [2], [3], [0, 1]),
        c=mutual_information(j, [1, 2], [3]),
        d=mutual_information(j, [1, 2], [4]),
        e=conditional_entropy(j, [3], [1, 2, 4]),
        h_y_given_z=conditional_entropy(j, [3], [4]),
    )


# --- JSON channel files --------------------------------------------------------

def parse_channel(obj) -> MacWiretapKernel:
    """Build a kernel from the JSON channel-file structure.

    Expected keys: x1_size, x2_size, y_size, z_size, and
    transition[x1][x2][y][z] as nested lists.
    """
    import numpy as np

    if not isinstance(obj, dict):
        raise ValidationError(f"channel document must be a JSON object, got {type(obj).__name__}")
    required = ("x1_size", "x2_size", "y_size", "z_size", "transition")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"channel document missing keys: {', '.join(missing)}")
    sizes = []
    for key in required[:4]:
        v = obj[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValidationError(f"{key} must be a positive integer, got {v!r}")
        sizes.append(v)
    bad = next(_non_numbers(obj["transition"]), None)
    if bad is not None:
        raise ValidationError(f"transition entry at index {bad} is not a number")
    try:
        arr = np.asarray(obj["transition"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"transition is not a rectangular numeric array: {exc}") from None
    if arr.shape != tuple(sizes):
        raise ValidationError(
            f"transition shape {arr.shape} does not match declared sizes {tuple(sizes)}"
        )
    return MacWiretapKernel(arr)


def _non_numbers(value, index: tuple[int, ...] = ()):
    """Indices of the leaves of nested lists that are not JSON numbers;
    booleans are not numbers here, although Python counts them as ints."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_numbers(item, index + (i,))
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        yield index


def load_channel(path) -> MacWiretapKernel:
    """Load a channel from a JSON file; errors carry file position or row index."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{path}: not valid UTF-8 at byte offset {exc.start}: {exc.reason}"
            ) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return parse_channel(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None

"""Channel models and the bridge from channels to information quantities.

A discrete two-user wiretap channel is a conditional law P(y, z | x1, x2); the
legitimate receiver sees Y, the eavesdropper sees Z. Inputs factor through a
common auxiliary as P(u) P(x1|u) P(x2|u). The Gaussian model is
Y = X1 + X2 + N1, Z = X1 + X2 + N2 with average power constraints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .info import (
    PROB_ATOL,
    JointDist,
    ValidationError,
    conditional_entropy,
    mutual_information,
)

# per-input transition rows renormalize when off by at most this, reject beyond
ROW_SUM_ATOL = 1e-9


def _clean_transition(table, n_input_axes: int, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    expected_ndim = n_input_axes + 2
    if arr.ndim != expected_ndim:
        raise ValidationError(
            f"{what} must have {expected_ndim} axes (inputs then y then z), got shape {arr.shape}"
        )
    if min(arr.shape) < 1:
        raise ValidationError(f"{what} has an empty axis: shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if arr.min() < -PROB_ATOL:
        idx = np.unravel_index(int(arr.argmin()), arr.shape)
        raise ValidationError(f"{what} has negative entry {arr.min():.3e} at index {idx}")
    arr = np.where(arr < 0.0, 0.0, arr)
    sums = arr.sum(axis=(-2, -1))
    dev = np.abs(sums - 1.0)
    if dev.max() > ROW_SUM_ATOL:
        idx = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            f"{what} row {idx} sums to {sums[idx]!r}, off by more than {ROW_SUM_ATOL:g}"
        )
    arr = arr / sums[..., None, None]
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


def _clean_rows(table, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{what} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if arr.min() < -PROB_ATOL:
        raise ValidationError(f"{what} has negative entry {arr.min():.3e}")
    arr = np.where(arr < 0.0, 0.0, arr)
    sums = arr.sum(axis=1)
    if np.abs(sums - 1.0).max() > PROB_ATOL:
        raise ValidationError(f"{what} rows must sum to 1 within {PROB_ATOL:g}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class InputFactorization:
    """Input law P(u) P(x1|u) P(x2|u) over a finite auxiliary alphabet."""

    u_dist: np.ndarray       # shape (|U|,)
    x1_given_u: np.ndarray   # shape (|U|, |X1|)
    x2_given_u: np.ndarray   # shape (|U|, |X2|)

    def __post_init__(self):
        u = np.asarray(self.u_dist, dtype=float)
        if u.ndim != 1 or u.size < 1:
            raise ValidationError(f"u_dist must be a nonempty vector, got shape {u.shape}")
        if not np.isfinite(u).all() or u.min() < -PROB_ATOL:
            raise ValidationError("u_dist entries must be finite and nonnegative")
        u = np.where(u < 0.0, 0.0, u)
        if abs(u.sum() - 1.0) > PROB_ATOL:
            raise ValidationError(f"u_dist must sum to 1 within {PROB_ATOL:g}")
        u.flags.writeable = False
        x1 = _clean_rows(self.x1_given_u, "x1_given_u")
        x2 = _clean_rows(self.x2_given_u, "x2_given_u")
        if x1.shape[0] != u.size or x2.shape[0] != u.size:
            raise ValidationError(
                f"conditional tables must have {u.size} rows, got {x1.shape[0]} and {x2.shape[0]}"
            )
        object.__setattr__(self, "u_dist", u)
        object.__setattr__(self, "x1_given_u", x1)
        object.__setattr__(self, "x2_given_u", x2)

    @property
    def u_size(self) -> int:
        return self.u_dist.size


def uniform_factorization(u_size: int, x1_size: int, x2_size: int) -> InputFactorization:
    """Uniform auxiliary and uniform conditional inputs."""
    return InputFactorization(
        np.full(u_size, 1.0 / u_size),
        np.full((u_size, x1_size), 1.0 / x1_size),
        np.full((u_size, x2_size), 1.0 / x2_size),
    )


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


def assemble_joint(kernel: MacWiretapKernel, inputs: InputFactorization) -> JointDist:
    """Joint law of (U, X1, X2, Y, Z) under P(u)P(x1|u)P(x2|u) P(y,z|x1,x2)."""
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
    q = np.asarray(joint_x, dtype=float)
    if q.shape != (kernel.x1_size, kernel.x2_size):
        raise ValidationError(
            f"input law must have shape {(kernel.x1_size, kernel.x2_size)}, got {q.shape}"
        )
    if not np.isfinite(q).all() or q.min() < -PROB_ATOL:
        raise ValidationError("input law entries must be finite and nonnegative")
    q = np.where(q < 0.0, 0.0, q)
    if abs(q.sum() - 1.0) > PROB_ATOL:
        raise ValidationError(f"input law must sum to 1 within {PROB_ATOL:g}")
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
    try:
        arr = np.asarray(obj["transition"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"transition is not a rectangular numeric array: {exc}") from None
    if arr.shape != tuple(sizes):
        raise ValidationError(
            f"transition shape {arr.shape} does not match declared sizes {tuple(sizes)}"
        )
    return MacWiretapKernel(arr)


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


def channel_to_dict(kernel: MacWiretapKernel) -> dict:
    """Inverse of parse_channel, for writing channel files."""
    return {
        "x1_size": kernel.x1_size,
        "x2_size": kernel.x2_size,
        "y_size": kernel.y_size,
        "z_size": kernel.z_size,
        "transition": kernel.transition.tolist(),
    }

"""Finite channel models and the bridge from channels to information quantities.

A discrete two-user wiretap channel is a conditional law P(y, z | x1, x2); the
legitimate receiver sees Y, the eavesdropper sees Z. Inputs factor through a
common auxiliary as P(u) P(x1|u) P(x2|u). A single-transmitter channel
P(y, z | x) is the same kernel with a one-letter X2: ``WiretapKernel`` is a
``MacWiretapKernel`` whose 4-axis ``transition`` has shape (|X|, 1, |Y|, |Z|),
so every function here takes it as it is. Channels are numpy arrays; the
Gaussian model, which needs no arrays, lives in the gaussian module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ValidationError, _integer
from .info import JointDist, check_mass, conditional_entropy, mutual_information

# per-input transition rows renormalize when off by at most this, reject beyond
ROW_SUM_ATOL = 1e-9


def _clean_transition(table) -> np.ndarray:
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 4:
        raise ValidationError(
            f"transition must have 4 axes (inputs then y then z), got shape {arr.shape}"
        )
    arr = check_mass(arr, "transition", sum_axes=(-2, -1), atol=ROW_SUM_ATOL)
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
        object.__setattr__(self, "transition", _clean_transition(self.transition))

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


class WiretapKernel(MacWiretapKernel):
    """Single-transmitter wiretap law P(y, z | x): the two-user kernel
    whose second transmitter has a one-letter alphabet.

    ``WiretapKernel(t)`` takes a table of shape (|X|, |Y|, |Z|) and holds it
    as ``transition`` of shape (|X|, 1, |Y|, |Z|), so its sizes are
    ``x1_size``, ``y_size`` and ``z_size``, and every two-user function
    takes it as it is.
    """

    def __init__(self, transition):
        table = np.asarray(transition, dtype=float)
        if table.ndim != 3:
            raise ValidationError(f"transition must have 3 axes (x, y, z), got shape {table.shape}")
        super().__init__(table[:, None])


@dataclass(frozen=True)
class InputFactorization:
    """Input law P(u) P(x1|u) P(x2|u) over a finite auxiliary alphabet."""

    u_dist: np.ndarray       # shape (|U|,)
    x1_given_u: np.ndarray   # shape (|U|, |X1|)
    x2_given_u: np.ndarray   # shape (|U|, |X2|)

    def __post_init__(self):
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
    if not isinstance(obj, dict):
        raise ValidationError(f"channel document must be a JSON object, got {type(obj).__name__}")
    required = ("x1_size", "x2_size", "y_size", "z_size", "transition")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"channel document missing keys: {', '.join(missing)}")
    sizes = [_integer(obj[key], key, 1) for key in required[:4]]
    bad = next(_non_numbers(obj["transition"]), None)
    if bad is not None:
        raise ValidationError(f"transition entry at index {bad} is not a number")
    try:
        arr = np.asarray(obj["transition"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
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
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to decode") from None
    try:
        return parse_channel(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None

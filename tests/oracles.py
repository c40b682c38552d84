"""Reference constructions the tests check the package against.

``grid_oracle`` maximizes the Gaussian sum rate by brute force, an
independent check of the closed form in ``macwtfb.power.optimal_power``;
``uniform_factorization`` is the uniform input law of the discrete tests.
"""

import numpy as np

from macwtfb.channels import GaussianMacWt, InputFactorization
from macwtfb.info import ValidationError
from macwtfb.power import _check_domain, _rate_of_total


def grid_oracle(
    power_cap: float, g: GaussianMacWt, resolution: int
) -> tuple[float, float, float]:
    """Exhaustive maximum of :func:`sum_rate` over a uniform grid on the
    square [0, cap]^2.

    Returns ``(p1, p2, rate)`` at the first grid maximum in row-major
    order, which breaks ties toward smaller p1 and then smaller p2.  Used
    as an independent check of :func:`optimal_power`.
    """
    _check_domain(g)
    if resolution < 2:
        raise ValidationError("grid resolution must be at least 2, got %d" % resolution)
    if power_cap < 0.0:
        raise ValidationError("power cap must be nonnegative, got %g" % power_cap)
    axis = np.linspace(0.0, power_cap, resolution)
    rate = _rate_of_total(axis[:, None] + axis[None, :], g)
    flat = int(np.argmax(rate))
    i, j = divmod(flat, resolution)
    return float(axis[i]), float(axis[j]), float(rate[i, j])


def uniform_factorization(u_size: int, x1_size: int, x2_size: int) -> InputFactorization:
    """Uniform auxiliary and uniform conditional inputs."""
    return InputFactorization(
        np.full(u_size, 1.0 / u_size),
        np.full((u_size, x1_size), 1.0 / x1_size),
        np.full((u_size, x2_size), 1.0 / x2_size),
    )

"""Reference constructions the tests check the package against.

``grid_oracle`` maximizes the Gaussian sum rate by brute force, an
independent check of the closed form in ``macwtfb.power.optimal_power``;
``uniform_factorization`` is the uniform input law of the discrete tests.

The scalar search below is the discrete search as it was before its
restarts ran in lockstep, kept verbatim as the reference that produced the
pinned goldens: ``scalar_factorized_quantities`` scores one input law,
``scalar_entropy_bits`` is its entropy, ``scalar_scores`` scores each lane
on Python floats, and ``sequential_best_of_restarts`` runs the restarts of
one objective one after another with ``sequential_ascend``.  The batched
search must match them bit for bit.  The sequential search still draws
its restart rows with numpy's ``default_rng(key).dirichlet``, while the
package draws them with its own ``macwtfb._draws``, so the match also
checks that module against numpy's generator.

The ``Fraction`` Fourier-Motzkin steps below are the exact elimination as
it was before it ran on integer rows, kept verbatim as the ``==``
reference.  A ``FractionSystem`` holds variable names and rows with
primitive integer coefficients and ``Fraction`` bounds: ``fraction_system``
builds one from ``(coefficients, relation, bound)`` triples and
``fraction_view`` from normalized integer rows over a denominator, the form
``fm`` works in.  ``fraction_eliminate`` and ``fraction_project_to``
combine ``Fraction`` bounds row by row, and ``fraction_exact_vertices``
intersects lines with ``Fraction`` coordinates through the number-generic
``fraction_feasible_intersections``.  ``rate_splitting_inequalities`` is
the rate-splitting system's inequality list as ``fm.rate_splitting_system``
wrote it inline before its row table, and ``closed_form_inequalities`` the
closed-form hybrid region with its sum cap written out.
"""

import dataclasses
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from macwtfb import ValidationError
from macwtfb.channels import InputFactorization
from macwtfb.discrete import _DECAY_PATIENCE, _INITIAL_STEP, _STEP_DECAY, SearchConfig
from macwtfb.fm import as_rational
from macwtfb.gaussian import TWO_PI_E, GaussianMacWt
from macwtfb.power import saturation_threshold
from macwtfb.regions import _hull_ccw, _recession_direction


def grid_oracle(
    power_cap: float, g: GaussianMacWt, resolution: int
) -> tuple[float, float, float]:
    """Exhaustive maximum of :func:`sum_rate` over a uniform grid on the
    square [0, cap]^2.

    Returns ``(p1, p2, rate)`` at the first grid maximum in row-major
    order, which breaks ties toward smaller p1 and then smaller p2.  Used
    as an independent check of :func:`optimal_power`, so the piecewise sum
    rate is written out here from :func:`sum_rate`'s docstring, on numpy
    arrays; the package only checks the domain.
    """
    saturation_threshold(g)
    if resolution < 2:
        raise ValidationError("grid resolution must be at least 2, got %d" % resolution)
    if power_cap < 0.0:
        raise ValidationError("power cap must be nonnegative, got %g" % power_cap)
    s1, s2 = g.sigma1_sq, g.sigma2_sq
    axis = np.linspace(0.0, power_cap, resolution)
    total = axis[:, None] + axis[None, :]
    below = 0.5 * np.log2(1.0 + total / s1)
    above = below - 0.5 * np.log2(1.0 + total / s2) + 0.5 * np.log2(TWO_PI_E * s1)
    rate = np.where(total <= (TWO_PI_E * s1 - 1.0) * s2, below, above)
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


# --- the scalar discrete search, before lockstep ---------------------------------


def scalar_entropy_bits(mass: np.ndarray) -> float:
    positive = mass[mass > 0.0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum())


def _clamp(value: float) -> float:
    return value if value > 0.0 else 0.0


def scalar_factorized_quantities(
    w: np.ndarray, u: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[float, float, float, float, float]:
    """(a, b, c, d, e) for P(u)P(x1|u)P(x2|u); fast path of the public
    info_quantities, kept numerically equivalent by the test suite."""
    joint = np.einsum("i,ia,ib,abyz->iabyz", u, x1, x2, w)
    p_uaby = joint.sum(axis=4)
    p_uab = p_uaby.sum(axis=3)
    p_uay = p_uaby.sum(axis=2)
    p_uby = p_uaby.sum(axis=1)
    p_ua = p_uab.sum(axis=2)
    p_ub = p_uab.sum(axis=1)
    p_abyz = joint.sum(axis=0)
    p_aby = p_uaby.sum(axis=0)
    p_ab = p_uab.sum(axis=0)
    p_abz = p_abyz.sum(axis=2)
    h_y_given_all = scalar_entropy_bits(p_uaby) - scalar_entropy_bits(p_uab)
    a = _clamp(scalar_entropy_bits(p_uby) - scalar_entropy_bits(p_ub) - h_y_given_all)
    b = _clamp(scalar_entropy_bits(p_uay) - scalar_entropy_bits(p_ua) - h_y_given_all)
    c = _clamp(
        scalar_entropy_bits(p_aby.sum(axis=(0, 1)))
        - (scalar_entropy_bits(p_aby) - scalar_entropy_bits(p_ab))
    )
    d = _clamp(
        scalar_entropy_bits(p_abz.sum(axis=(0, 1)))
        - (scalar_entropy_bits(p_abz) - scalar_entropy_bits(p_ab))
    )
    e = _clamp(scalar_entropy_bits(p_abyz) - scalar_entropy_bits(p_abz))
    return a, b, c, d, e


def scalar_scores(sum_score: Callable, ids: np.ndarray, quantities) -> list[float]:
    """Lane j's value ``scores[ids[j]](a, b, c, d, e)``, on Python floats:
    the sum cap and the two corner rates min(a, cap) and min(b, cap)."""
    scores: list[Callable] = [
        sum_score,
        lambda a, b, c, d, e: min(a, sum_score(a, b, c, d, e)),
        lambda a, b, c, d, e: min(b, sum_score(a, b, c, d, e)),
    ]
    rows = zip(*(q.tolist() for q in quantities))
    return [scores[i](*q) for i, q in zip(ids.tolist(), rows)]


def sequential_best_of_restarts(
    shapes: Sequence[tuple[int, int]],
    stream: tuple[int, ...],
    objective: Callable[..., float],
    config: SearchConfig,
) -> tuple[float, list[np.ndarray]]:
    """Best value and blocks over the seeded restarts of one objective.

    Each ``(k, n)`` in ``shapes`` is a block of k rows, each row a law on n
    letters, and the objective scores ``objective(*blocks)``.  Restart 0
    starts from uniform rows; restart ``r > 0`` draws every row from a flat
    Dirichlet, block by block and row by row, with the generator keyed
    ``(seed, *stream, r)``, so it does not depend on how many restarts run.
    Ties keep the earlier restart.
    """
    best_value = -math.inf
    best_blocks = None
    for restart in range(config.restarts):
        if restart == 0:
            blocks = [np.full((k, n), 1.0 / n) for k, n in shapes]
        else:
            rng = np.random.default_rng((config.seed, *stream, restart))
            blocks = [rng.dirichlet(np.ones(n), size=k) for k, n in shapes]
        value = sequential_ascend(blocks, objective, config)
        if value > best_value:
            best_value = value
            best_blocks = blocks
    return best_value, best_blocks


def sequential_ascend(
    blocks: list[np.ndarray], objective: Callable[..., float], config: SearchConfig
) -> float:
    """Projected coordinate ascent over the rows of the blocks, in place.

    Each move bumps one coordinate of one row by the current step (both
    signs tried), clips at zero and renormalizes the row; a move is kept
    when ``objective(*blocks)`` improves by more than 1e-15, and undone
    otherwise.  A move that leaves the row bit-for-bit unchanged is not
    evaluated.  The step never exceeds ``_INITIAL_STEP`` and every row sums
    to 1, so a bumped row sums to at least 0.75.  Deterministic: no
    randomness beyond the initial blocks.
    """
    best = objective(*blocks)
    step = _INITIAL_STEP
    stalled = 0
    for _ in range(config.refinement_iterations):
        improved = False
        for block in blocks:
            for row in block:
                for i in range(row.size):
                    for sign in (1.0, -1.0):
                        saved = row.copy()
                        row[i] = max(0.0, row[i] + sign * step)
                        row /= row.sum()
                        if np.array_equal(row, saved):
                            continue  # same blocks, same value: cannot pass the rule
                        value = objective(*blocks)
                        if value > best + 1e-15:
                            best = value
                            improved = True
                        else:
                            row[:] = saved
        if improved:
            stalled = 0
            continue
        stalled += 1
        if stalled >= 3 * _DECAY_PATIENCE:
            break
        if stalled % _DECAY_PATIENCE == 0:
            step *= _STEP_DECAY
    return best


# --- Fraction Fourier-Motzkin, before integer rows ----------------------------------


# A normalized inequality: primitive integer coefficients and a rational
# upper bound, meaning coeffs . x <= bound.
Row = tuple[tuple[int, ...], Fraction]


@dataclasses.dataclass(frozen=True)
class FractionSystem:
    """Variable names and normalized rows, sorted, so two systems with the
    same feasible description compare equal."""

    variable_names: tuple[str, ...]
    rows: tuple[Row, ...]

    @property
    def is_infeasible(self) -> bool:
        """True when normalization surfaced a contradictory constant row."""
        return any(not any(c) and b < 0 for c, b in self.rows)


def fraction_system(variable_names: Sequence[str], inequalities) -> FractionSystem:
    """The row normalization on ``Fraction`` bounds (inputs assumed valid):
    ``>=`` rows negated, each row made primitive, then merged."""
    names = tuple(variable_names)
    rows = []
    for coeffs, relation, bound in inequalities:
        vec = tuple(coeffs)
        b = as_rational(bound)
        if relation == ">=":
            vec = tuple(-c for c in vec)
            b = -b
        rows.append(_canonical_row(vec, b))
    return FractionSystem(names, _normalize(len(names), rows))


def fraction_view(denominator: int, names: Sequence[str], rows) -> FractionSystem:
    """Normalized integer rows over ``denominator`` as a ``FractionSystem``:
    each coefficient vector divided by its content, and the bound with it."""
    view = []
    for coeffs, beta in rows:
        content = math.gcd(*coeffs)
        if not content:  # the marker row 0 <= -1, alone in its system
            return FractionSystem(tuple(names), ((coeffs, Fraction(-1)),))
        view.append((tuple(c // content for c in coeffs), Fraction(beta, content * denominator)))
    return FractionSystem(tuple(names), tuple(view))


RATE_SPLIT_VARIABLES = ("R1", "R2", "R10", "R11", "R1s", "R20", "R21", "R2s")


def rate_splitting_inequalities(a, b, c, d, e) -> list:
    """``(coefficients, relation, bound)`` triples over ``RATE_SPLIT_VARIABLES``."""

    def vec(**weights) -> list[int]:
        return [weights.get(name, 0) for name in RATE_SPLIT_VARIABLES]

    inequalities = [
        (vec(R10=1, R11=1, R1s=1), "<=", a),
        (vec(R20=1, R21=1, R2s=1), "<=", b),
        (vec(R10=1, R11=1, R1s=1, R20=1, R21=1, R2s=1), "<=", c),
        (vec(R11=1, R21=1, R1s=1, R2s=1), "<=", d),
        (vec(R1s=1, R2s=1), ">=", d - e),
        (vec(R1=1, R10=-1, R11=-1), "<=", 0),
        (vec(R1=1, R10=-1, R11=-1), ">=", 0),
        (vec(R2=1, R20=-1, R21=-1), "<=", 0),
        (vec(R2=1, R20=-1, R21=-1), ">=", 0),
    ]
    for split in ("R10", "R11", "R1s", "R20", "R21", "R2s"):
        inequalities.append((vec(**{split: 1}), ">=", 0))
    return inequalities


def closed_form_inequalities(a, b, c, d, e) -> list:
    """R1 <= a, R2 <= b, R1 + R2 <= min(c, a + b) - d + min(d, e), R1, R2 >= 0,
    as ``(coefficients, relation, bound)`` triples over ``("R1", "R2")``."""
    return [
        ((1, 0), "<=", a),
        ((0, 1), "<=", b),
        ((1, 1), "<=", min(c, a + b) - d + min(d, e)),
        ((1, 0), ">=", 0),
        ((0, 1), ">=", 0),
    ]


def fraction_eliminate(system: FractionSystem, drop_variable: str) -> FractionSystem:
    """One Fourier-Motzkin step: project out ``drop_variable``.

    Rows not involving the variable pass through; every upper bound on it
    is combined with every lower bound.  The projection is exact: the
    result's feasible set is precisely the shadow of the input's.
    """
    try:
        idx = system.variable_names.index(drop_variable)
    except ValueError:
        raise ValidationError(
            "variable %r not in system %r" % (drop_variable, list(system.variable_names))
        ) from None
    keep = [k for k in range(len(system.variable_names)) if k != idx]
    names = tuple(system.variable_names[k] for k in keep)
    upper = []
    lower = []
    rows = []
    for coeffs, bound in system.rows:
        weight = coeffs[idx]
        reduced = tuple(coeffs[k] for k in keep)
        if weight > 0:
            upper.append((weight, reduced, bound))
        elif weight < 0:
            lower.append((-weight, reduced, bound))
        else:
            rows.append((reduced, bound))
    for wu, ru, bu in upper:
        for wl, rl, bl in lower:
            combo = tuple(wl * u + wu * l for u, l in zip(ru, rl))
            rows.append(_canonical_row(combo, wl * bu + wu * bl))
    return FractionSystem(names, _normalize(len(names), rows))


def fraction_project_to(system: FractionSystem, keep_variables: Iterable[str]) -> FractionSystem:
    """Eliminate every variable outside ``keep_variables``.

    At each step the variable with the fewest upper-times-lower bound
    pairs is eliminated first, which keeps intermediate systems small on
    the block-structured inputs this package produces.
    """
    keep = set(keep_variables)
    if not keep:
        raise ValidationError("must keep at least one variable")
    missing = keep.difference(system.variable_names)
    if missing:
        raise ValidationError("unknown variables in keep set: %s" % sorted(missing))
    current = system
    while True:
        drops = [v for v in current.variable_names if v not in keep]
        if not drops:
            return current

        def pair_count(name: str) -> tuple[int, int]:
            at = current.variable_names.index(name)
            pos = sum(1 for coeffs, _ in current.rows if coeffs[at] > 0)
            neg = sum(1 for coeffs, _ in current.rows if coeffs[at] < 0)
            return pos * neg, at

        current = fraction_eliminate(current, min(drops, key=pair_count))


def fraction_exact_vertices(system: FractionSystem) -> tuple[tuple[Fraction, Fraction], ...]:
    """Vertices of a bounded two-variable system, in exact rationals.

    Candidate points are all pairwise boundary-line intersections; the
    feasible ones are reduced to extreme points by an exact convex hull.
    The recession test, the feasibility filter and the hull are the ones
    ``regions.region_from_halfspaces`` uses on floats, run here at
    tolerance 0.
    The result is ordered counterclockwise starting from the
    lexicographically smallest vertex, so equal regions give equal tuples.
    An infeasible system yields the empty tuple.  A feasible system that
    is unbounded raises ``ValidationError`` naming a direction along which
    it is unbounded (every system built in this module is bounded).
    """
    if len(system.variable_names) != 2:
        raise ValidationError(
            "vertex enumeration needs exactly two variables, got %d"
            % len(system.variable_names)
        )
    if system.is_infeasible:
        return ()
    lines = [(c1, c2, b) for (c1, c2), b in system.rows]
    direction = _recession_direction(lines, det_tol=0)
    if direction is not None:
        x, y = system.variable_names
        if fraction_eliminate(fraction_eliminate(system, x), y).is_infeasible:
            return ()
        raise ValidationError("system is unbounded along direction %r" % (direction,))
    return tuple(_hull_ccw(fraction_feasible_intersections(lines, tol=0, det_tol=0), 0))


def fraction_feasible_intersections(lines, tol, det_tol) -> list[tuple]:
    """Pairwise intersections of the lines c1*x + c2*y = b that satisfy
    every c1*x + c2*y <= b within ``tol``, in first-seen pair order.

    Generic over the number type: pairs whose determinant is within
    ``det_tol`` of zero are skipped and repeated points are tested once,
    so ``tol=0, det_tol=0`` with integer coefficients and ``Fraction``
    bounds gives the exact rational vertex candidates.
    """
    relaxed = [(c1, c2, b + tol) for c1, c2, b in lines]
    feasible: dict[tuple, bool] = {}  # keyed in first-seen order
    for i in range(len(lines)):
        a1, a2, b1 = lines[i]
        for j in range(i + 1, len(lines)):
            c1, c2, b2 = lines[j]
            det = a1 * c2 - a2 * c1
            if abs(det) <= det_tol:
                continue
            p = ((b1 * c2 - b2 * a2) / det, (a1 * b2 - b1 * c1) / det)
            if p not in feasible:
                feasible[p] = all(r1 * p[0] + r2 * p[1] <= r for r1, r2, r in relaxed)
    return [p for p, ok in feasible.items() if ok]


def _canonical_row(coeffs: tuple[int, ...], bound: Fraction) -> Row:
    content = math.gcd(*coeffs)
    if content > 1:
        coeffs = tuple(c // content for c in coeffs)
        bound = bound / content
    return coeffs, bound


def _normalize(num_variables: int, rows: Iterable[Row]) -> tuple[Row, ...]:
    merged: dict[tuple[int, ...], Fraction] = {}
    for coeffs, bound in rows:
        if not any(coeffs):
            if bound < 0:
                return (((0,) * num_variables, Fraction(-1)),)
            continue
        held = merged.get(coeffs)
        if held is None or bound < held:
            merged[coeffs] = bound
    return tuple(sorted(merged.items()))

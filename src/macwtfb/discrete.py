"""Discrete-channel secrecy bounds by seeded search over input laws.

The inner bounds hold for factorized input laws P(u) P(x1|u) P(x2|u); the
outer bound is a conditional entropy maximized over arbitrary joint input
laws.  None of the objectives is concave, so every maximization here is a
seeded multi-start projected coordinate ascent on simplex blocks: honest,
reproducible lower bounds on the true suprema.  Results are deterministic
functions of the kernel, the configuration and the seed; restarts are
independent and merged in seed order, so a concurrent execution would have
to produce the identical output.

Single-letter quantities for one input law come from the channels module;
the search loop uses a private einsum evaluation of the same expressions
that is pinned to the public one by the test suite.  The sum-rate formulas
come from the channels module too, the one place they are written.  The
single-user rates are not separate formulas: they are the two-user sum caps
of a kernel whose second transmitter has a one-letter alphabet and whose
auxiliary is constant, so Wyner's I(X;Y) - I(X;Z) is the decode-and-forward
cap and the feedback-key rate min{I(X;Y), I(X;Y) - I(X;Z) + H(Y|X,Z)} is the
hybrid cap.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .channels import (
    InfoQuantities,
    InputFactorization,
    MacWiretapKernel,
    WiretapKernel,
    _df_sum,
    _hybrid_sum,
    info_quantities,
    joint_from_input_law,
)
from .info import JointDist, ValidationError, conditional_entropy
from .regions import Halfspace, RateRegion, hull_of_regions, is_subset, region_from_halfspaces

__all__ = [
    "InnerSearchResult",
    "SearchConfig",
    "df_region_for_input",
    "feedback_secrecy_capacity",
    "hybrid_region_for_input",
    "sato_outer_for_joint",
    "search_inner",
    "search_outer",
    "wyner_capacity",
]

# Distinct stream labels keep the three searches' random restarts decoupled
# even when they share a user seed.
_INNER_STREAM = 1
_OUTER_STREAM = 2
_SINGLE_STREAM = 3

# Ascent schedule: the simplex step starts at _INITIAL_STEP and is multiplied
# by _STEP_DECAY after every _DECAY_PATIENCE consecutive sweeps without
# improvement; a restart stops once three patience windows pass without
# progress.
_INITIAL_STEP = 0.25
_STEP_DECAY = 0.5
_DECAY_PATIENCE = 25


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Knobs of the seeded multi-start ascent.

    ``u_cardinality_max`` bounds the auxiliary alphabet of the inner
    searches, every objective gets ``restarts`` seeded restarts, and
    ``refinement_iterations`` caps the number of full coordinate sweeps per
    restart.  The step schedule within a restart is fixed by the module
    constants ``_INITIAL_STEP``, ``_STEP_DECAY`` and ``_DECAY_PATIENCE``.
    """

    u_cardinality_max: int = 4
    restarts: int = 64
    refinement_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("u_cardinality_max", "restarts", "refinement_iterations"):
            if getattr(self, name) < 1:
                raise ValidationError("%s must be at least 1" % name)
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


@dataclasses.dataclass(frozen=True)
class InnerSearchResult:
    """Nondominated input laws found by the search, their regions, and the
    convex hull of the union (time-sharing closure)."""

    candidates: tuple[tuple[InputFactorization, RateRegion], ...]
    hull: RateRegion


# --- per-distribution regions ---------------------------------------------------


def df_region_for_input(q: InfoQuantities) -> RateRegion:
    """Decode-and-forward inner region of one input law:
    R1 <= a, R2 <= b, R1 + R2 <= min(c, a + b) - d."""
    return _region_with_sum(q, _df_sum)


def hybrid_region_for_input(q: InfoQuantities) -> RateRegion:
    """Hybrid inner region of one input law: the decode-and-forward shape
    with the leakage debit partially refunded by the feedback key,
    R1 + R2 <= min(c, a + b) - d + min(d, e)."""
    return _region_with_sum(q, _hybrid_sum)


def sato_outer_for_joint(kernel: MacWiretapKernel, joint_input: np.ndarray) -> float:
    """H(Y|Z) in bits under an arbitrary joint input law P(x1, x2).

    The outer region for this input is {R1 + R2 <= returned value}
    intersected with the nonnegative quadrant.
    """
    joint = joint_from_input_law(kernel, joint_input)
    return conditional_entropy(joint, [2], [3])


# --- seeded searches --------------------------------------------------------------


def search_inner(
    kernel: MacWiretapKernel,
    bound_kind: str,
    config: SearchConfig = SearchConfig(),
) -> InnerSearchResult:
    """Search factorized input laws maximizing an inner bound.

    For every auxiliary cardinality up to the configured maximum, three
    objectives are maximized separately (the sum bound and the two corner
    rates), each with seeded random restarts around a uniform start.  The
    distinct local maxima are reduced to the nondominated set, and the hull
    of their union is the time-sharing region.
    """
    if bound_kind not in _BOUND_KINDS:
        raise ValidationError(
            "bound_kind must be one of %s, got %r" % (list(_BOUND_KINDS), bound_kind)
        )
    kind_id = _BOUND_KINDS.index(bound_kind)
    sum_score, region_of = _BOUNDS[bound_kind]
    scores: list[Callable] = [
        sum_score,
        lambda a, b, c, d, e: min(a, sum_score(a, b, c, d, e)),
        lambda a, b, c, d, e: min(b, sum_score(a, b, c, d, e)),
    ]
    w = kernel.transition
    n1, n2 = kernel.x1_size, kernel.x2_size
    found: list[tuple[InputFactorization, RateRegion]] = []
    for u_size in range(1, config.u_cardinality_max + 1):
        for score_id, score in enumerate(scores):
            _, (u, x1, x2) = _best_of_restarts(
                [(1, u_size), (u_size, n1), (u_size, n2)],
                (_INNER_STREAM, kind_id, u_size, score_id),
                lambda u, x1, x2: score(*_factorized_quantities(w, u[0], x1, x2)),
                config,
            )
            fact = InputFactorization(u[0], x1, x2)
            found.append((fact, region_of(info_quantities(kernel, fact))))
    kept = _nondominated(found)
    return InnerSearchResult(
        candidates=tuple(kept), hull=hull_of_regions([region for _, region in kept])
    )


def search_outer(
    kernel: MacWiretapKernel, config: SearchConfig = SearchConfig()
) -> tuple[JointDist, float]:
    """Maximize H(Y|Z) over joint input laws P(x1, x2).

    No concavity is assumed; the returned value is the best of the seeded
    restarts and is therefore a lower bound on the true outer-bound
    constant.  The first restart starts at the uniform joint, so the
    result never falls below the uniform-input value.
    """
    w = kernel.transition
    n1, n2 = kernel.x1_size, kernel.x2_size

    def objective(p: np.ndarray) -> float:
        p_yz = np.einsum("q,qyz->yz", p[0], w.reshape(n1 * n2, kernel.y_size, kernel.z_size))
        return _entropy_bits(p_yz) - _entropy_bits(p_yz.sum(axis=0))

    _, (p,) = _best_of_restarts([(1, n1 * n2)], (_OUTER_STREAM,), objective, config)
    joint = JointDist(p.reshape(n1, n2))
    return joint, sato_outer_for_joint(kernel, np.asarray(joint.mass))


def wyner_capacity(kernel: WiretapKernel, config: SearchConfig = SearchConfig()) -> float:
    """Search maximum of I(X;Y) - I(X;Z) over single-transmitter input
    laws, clamped at zero (a constant input always achieves zero).

    This is the decode-and-forward sum cap with a silent second transmitter
    and a constant auxiliary, where a = c = I(X;Y), b = 0 and d = I(X;Z).
    """
    return max(0.0, _single_user_search(kernel, config, _df_sum))


def feedback_secrecy_capacity(
    kernel: WiretapKernel, config: SearchConfig = SearchConfig()
) -> float:
    """Search maximum of min{I(X;Y), I(X;Y) - I(X;Z) + H(Y|X,Z)}, the
    single-user secrecy rate with noiseless feedback, clamped at zero.

    This is the hybrid sum cap with a silent second transmitter and a
    constant auxiliary: with a = c = I(X;Y), b = 0, d = I(X;Z) and
    e = H(Y|X,Z), c - d + min(d, e) = min{c, c - d + e}.  The objective
    dominates the one of :func:`wyner_capacity` pointwise, so with equal
    seeds the returned value is never smaller.
    """
    return max(0.0, _single_user_search(kernel, config, _hybrid_sum))


# --- search internals ---------------------------------------------------------------


def _region_with_sum(q: InfoQuantities, sum_bound: Callable) -> RateRegion:
    return region_from_halfspaces(
        [
            Halfspace(1.0, 0.0, q.a),
            Halfspace(0.0, 1.0, q.b),
            Halfspace(1.0, 1.0, sum_bound(q.a, q.b, q.c, q.d, q.e)),
        ]
    )


# Per inner bound: its sum-rate formula and its per-input region.
_BOUNDS = {
    "df": (_df_sum, df_region_for_input),
    "hybrid": (_hybrid_sum, hybrid_region_for_input),
}
# A bound's index here is part of its RNG stream key.
_BOUND_KINDS = tuple(_BOUNDS)


def _entropy_bits(mass: np.ndarray) -> float:
    positive = mass[mass > 0.0]
    if positive.size == 0:
        return 0.0
    return float(-(positive * np.log2(positive)).sum())


def _clamp(value: float) -> float:
    return value if value > 0.0 else 0.0


def _factorized_quantities(
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
    h_y_given_all = _entropy_bits(p_uaby) - _entropy_bits(p_uab)
    a = _clamp(_entropy_bits(p_uby) - _entropy_bits(p_ub) - h_y_given_all)
    b = _clamp(_entropy_bits(p_uay) - _entropy_bits(p_ua) - h_y_given_all)
    c = _clamp(
        _entropy_bits(p_aby.sum(axis=(0, 1)))
        - (_entropy_bits(p_aby) - _entropy_bits(p_ab))
    )
    d = _clamp(
        _entropy_bits(p_abz.sum(axis=(0, 1)))
        - (_entropy_bits(p_abz) - _entropy_bits(p_ab))
    )
    e = _clamp(_entropy_bits(p_abyz) - _entropy_bits(p_abz))
    return a, b, c, d, e


def _single_user_search(kernel: WiretapKernel, config: SearchConfig, sum_score: Callable) -> float:
    # The single transmitter is X1 of a two-user kernel whose X2 alphabet
    # has one letter; the auxiliary is constant.
    w = kernel.transition[:, None]
    u, x2 = np.ones(1), np.ones((1, 1))

    def objective(x: np.ndarray) -> float:
        return sum_score(*_factorized_quantities(w, u, x, x2))

    best, _ = _best_of_restarts([(1, kernel.x_size)], (_SINGLE_STREAM,), objective, config)
    return best


def _best_of_restarts(
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
        value = _ascend(blocks, objective, config)
        if value > best_value:
            best_value = value
            best_blocks = blocks
    return best_value, best_blocks


def _ascend(
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


def _nondominated(
    found: list[tuple[InputFactorization, RateRegion]]
) -> list[tuple[InputFactorization, RateRegion]]:
    kept = []
    for i, (fact, region) in enumerate(found):
        dominated = False
        for j, (_, other) in enumerate(found):
            if i == j or not is_subset(region, other):
                continue
            if not is_subset(other, region) or j < i:
                dominated = True
                break
        if not dominated:
            kept.append((fact, region))
    return kept

"""Discrete-channel secrecy bounds by seeded search over input laws.

The inner bounds hold for factorized input laws P(u) P(x1|u) P(x2|u); the
outer bound is a conditional entropy maximized over arbitrary joint input
laws.  The inner objectives are not concave.  The outer objective H(Y|Z)
is concave in P(x1, x2), because P(y, z) is linear in it and H(Y|Z) is
concave in P(y, z); the search does not use that.  Every maximization here
is a seeded multi-start projected coordinate ascent on simplex blocks, and
its value is the best one found: an honest, reproducible lower bound on
the true supremum.  Results are deterministic functions of the kernel,
the configuration and the seed.

The restarts run in lockstep.  A *lane* is one independent ascent, one
(objective, restart) pair: an inner search has three objectives per bound
kind times R restarts per auxiliary cardinality, the other searches R
lanes.  The kinds that ``search_inners`` searches together share one
lockstep, whose objective calls score the lanes of every kind on one
evaluation of the information quantities.  All lanes
sweep the same rows, each with its own step, stall count and stop.  A
batched evaluation scores a window of at least one trial move of a row for
every live lane, up to 72 (lane, move) pairs in all unless more than 72
lanes are live; a lane that keeps a move has its later moves of the row
rebuilt from the new row and scored in a later evaluation.  A lane whose
last sweep took no move and kept its step would rebuild the same trial
moves and reject them all again, so it sits out the sweeps until its step
halves; its stall count still advances.  Lanes never interact and the
batched evaluation gives each lane the bits a one-law evaluation would
give, so every lane ends exactly where its restart would end alone, and
the winners are merged in restart order.

Single-letter quantities for one input law come from the channels module;
the search loop uses a private batched einsum evaluation of the same
expressions that is pinned to the public one by the test suite.  The
sum-rate formulas come from the regions module, the one place they are
written, and score all lanes of a batch at once on the quantity arrays.  The
single-user rates are not separate formulas: they are the two-user sum caps
of a kernel whose second transmitter has a one-letter alphabet and whose
auxiliary is constant, so Wyner's I(X;Y) - I(X;Z) is the decode-and-forward
cap and the feedback-key rate min{I(X;Y), I(X;Y) - I(X;Z) + H(Y|X,Z)} is the
hybrid cap.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from . import ValidationError, _integer
from .channels import (
    InfoQuantities,
    InputFactorization,
    MacWiretapKernel,
    WiretapKernel,
    info_quantities,
    joint_from_input_law,
)
from .info import JointDist, conditional_entropy
from .regions import RateRegion, _df_sum, _hybrid_sum, capped_region, hull_of_regions, is_subset

__all__ = [
    "InnerSearchResult",
    "SearchConfig",
    "df_region_for_input",
    "feedback_secrecy_capacity",
    "hybrid_region_for_input",
    "sato_outer_for_joint",
    "search_inner",
    "search_inners",
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

# (lane, move) pairs per objective call of the ascent: the six moves of a
# 3-letter row for the 12 lanes of one bound's 4-restart inner search, or
# three moves each for the 24 lanes of df and hybrid in one lockstep.  Each
# live lane gets an equal share but at least one move, so above 36 live lanes
# a call holds one move of each, and above 72 it holds more pairs.  With one
# BLAS thread, a df-and-hybrid call of the 2- and 3-letter kernels at |U| of
# 2 to 4 costs about 75-100 us at 4 lanes, 100-180 us at 12 and 135-320 us at
# 24, mostly fixed overhead, but 220-740 us at 64 and 0.6-2.5 ms at 192,
# where the per-lane work dominates; the cap keeps the discarded moves and
# the arrays small.  A cap of 144 gives the same bits, but the 3-letter
# df-and-hybrid search of the benchmark takes about 10% longer with it.
_PAIRS_PER_CALL = 72


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Knobs of the seeded multi-start ascent.

    ``u_cardinality_max`` bounds the auxiliary alphabet of the inner
    searches, every objective gets ``restarts`` seeded restarts, and
    ``refinement_iterations`` caps the number of full coordinate sweeps per
    restart.  All four are integers by the package's argument rule, at least
    1 except ``seed``, which is at least 0.  The step schedule within a
    restart is fixed by the module constants ``_INITIAL_STEP``,
    ``_STEP_DECAY`` and ``_DECAY_PATIENCE``.
    """

    u_cardinality_max: int = 4
    restarts: int = 64
    refinement_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _integer(getattr(self, field.name), field.name, 0 if field.name == "seed" else 1)


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
    return capped_region(q.a, q.b, _df_sum(q.a, q.b, q.c, q.d, q.e))


def hybrid_region_for_input(q: InfoQuantities) -> RateRegion:
    """Hybrid inner region of one input law: the decode-and-forward shape
    with the leakage debit partially refunded by the feedback key,
    R1 + R2 <= min(c, a + b) - d + min(d, e)."""
    return capped_region(q.a, q.b, _hybrid_sum(q.a, q.b, q.c, q.d, q.e))


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
    rates), each with seeded random restarts around a uniform start; the
    restarts of all three run in lockstep.  The
    distinct local maxima are reduced to the nondominated set, and the hull
    of their union is the time-sharing region.  This is the one-kind view of
    :func:`search_inners`.
    """
    return search_inners(kernel, (bound_kind,), config)[0]


def search_inners(
    kernel: MacWiretapKernel,
    bound_kinds: Sequence[str],
    config: SearchConfig = SearchConfig(),
) -> tuple[InnerSearchResult, ...]:
    """:func:`search_inner` for each of the distinct ``bound_kinds``, one
    result per kind in the order given, with the restarts of every kind run
    in one lockstep per auxiliary cardinality.

    Each kind's lanes keep the stream keys they have in a search of that
    kind alone, and one call of the objective scores the lanes of all kinds
    on one evaluation of the information quantities, so every result equals
    the one :func:`search_inner` returns for its kind.
    """
    kinds = tuple(bound_kinds)
    for kind in kinds:
        if kind not in _BOUND_KINDS:
            raise ValidationError(
                "bound_kind must be one of %s, got %r" % (list(_BOUND_KINDS), kind)
            )
    if not kinds or len(set(kinds)) != len(kinds):
        raise ValidationError("bound_kinds must be distinct and not empty, got %r" % (kinds,))
    caps = [_BOUNDS[kind][0] for kind in kinds]
    w = kernel.transition
    n1, n2 = kernel.x1_size, kernel.x2_size

    def objective(ids: np.ndarray, u: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        # stream s scores objective s % 3 of _scores for kind s // 3
        q = _factorized_quantities(w, u[:, 0], x1, x2)
        return np.choose(ids // 3, [_scores(cap, ids % 3, q) for cap in caps])

    found: list[list[tuple[InputFactorization, RateRegion]]] = [[] for _ in kinds]
    for u_size in range(1, config.u_cardinality_max + 1):
        streams = [
            (_INNER_STREAM, _BOUND_KINDS.index(kind), u_size, score_id)
            for kind in kinds
            for score_id in range(3)
        ]
        shapes = [(1, u_size), (u_size, n1), (u_size, n2)]
        best = _best_of_restarts(shapes, streams, objective, config)
        for s, (_, (u, x1, x2)) in enumerate(best):
            fact = InputFactorization(u[0], x1, x2)
            region_of = _BOUNDS[kinds[s // 3]][1]
            found[s // 3].append((fact, region_of(info_quantities(kernel, fact))))
    kept = [_nondominated(kind_found) for kind_found in found]
    return tuple(
        InnerSearchResult(candidates=tuple(k), hull=hull_of_regions([region for _, region in k]))
        for k in kept
    )


def search_outer(
    kernel: MacWiretapKernel, config: SearchConfig = SearchConfig()
) -> tuple[JointDist, float]:
    """Maximize H(Y|Z) over joint input laws P(x1, x2).

    H(Y|Z) is concave in P(x1, x2), but the ascent stops on its step
    schedule, not at a certified maximum: the returned value is the best
    of the seeded restarts and is therefore a lower bound on the true
    outer-bound constant.  The first restart starts at the uniform joint,
    so the result never falls below the uniform-input value.
    """
    n1, n2 = kernel.x1_size, kernel.x2_size
    w = kernel.transition.reshape(n1 * n2, kernel.y_size, kernel.z_size)

    def objective(ids: np.ndarray, p: np.ndarray) -> np.ndarray:
        p_yz = np.einsum("lq,qyz->lyz", p[:, 0], w)
        h = _entropy_bits(p_yz, p_yz.sum(axis=1))
        return h[0] - h[1]

    ((_, (p,)),) = _best_of_restarts([(1, n1 * n2)], [(_OUTER_STREAM,)], objective, config)
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


# Per inner bound: its sum-rate formula and its per-input region.
_BOUNDS = {
    "df": (_df_sum, df_region_for_input),
    "hybrid": (_hybrid_sum, hybrid_region_for_input),
}
# A bound's index here is part of its RNG stream key.
_BOUND_KINDS = tuple(_BOUNDS)


def _entropy_bits(*masses: np.ndarray) -> np.ndarray:
    """Entropy in bits of every lane of each mass array: row t of the
    result holds the entropies of ``masses[t][lane]`` for every lane.

    Each lane's value equals, bit for bit, the negated sum of that lane's
    positive terms ``p log2 p`` added up as one 1-D array.  Every (lane,
    mass) segment sits behind a ``-1.0`` marker in one flat array, so no
    entry may be negative: blocks are clipped at 0 and ``check_mass`` clips
    the kernel.  With the zeros (``-0.0`` too) dropped, the marker's term is
    ``log2(1) * -1.0 = -0.0``.  ``np.add.reduceat`` adds a segment's first
    entry to numpy's pairwise sum of the rest, and ``np.add.reduce`` adds
    the pairwise sum of a 1-D array to ``0.0``; both starts leave a sum of
    terms unchanged, since it is never ``-0.0``.  A segment without mass
    sums to the marker's ``-0.0`` and gives entropy ``0.0``.
    """
    lanes = len(masses[0])
    marker = np.full((lanes, 1), -1.0)
    flat = np.concatenate(
        [part for mass in masses for part in (marker, mass.reshape(lanes, -1))], axis=1
    ).ravel()
    flat = flat[flat != 0.0]
    terms = np.log2(np.abs(flat)) * flat
    return -np.add.reduceat(terms, np.flatnonzero(flat < 0.0)).reshape(lanes, len(masses)).T


def _factorized_quantities(
    w: np.ndarray, u: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(a, b, c, d, e) of every lane's law P(u)P(x1|u)P(x2|u), as five
    arrays over the lanes; ``u`` is (L, |U|), ``x1`` (L, |U|, |X1|) and
    ``x2`` (L, |U|, |X2|).  Fast path of the public info_quantities, kept
    numerically equivalent by the test suite."""
    joint = np.einsum("li,lia,lib,abyz->liabyz", u, x1, x2, w)
    p_uaby = joint.sum(axis=5)
    p_uab = p_uaby.sum(axis=4)
    p_abyz = joint.sum(axis=1)
    p_aby = p_uaby.sum(axis=1)
    p_abz = p_abyz.sum(axis=3)
    h = _entropy_bits(
        p_uaby, p_uab,  # (U, X1, X2, Y), (U, X1, X2)
        p_uaby.sum(axis=2), p_uab.sum(axis=2),  # (U, X2, Y), (U, X2)
        p_uaby.sum(axis=3), p_uab.sum(axis=3),  # (U, X1, Y), (U, X1)
        p_aby.sum(axis=(1, 2)), p_aby, p_uab.sum(axis=1),  # Y, (X1, X2, Y), (X1, X2)
        p_abz.sum(axis=(1, 2)), p_abz, p_abyz,  # Z, (X1, X2, Z), (X1, X2, Y, Z)
    )
    h_y_given_all = h[0] - h[1]
    a = h[2] - h[3] - h_y_given_all
    b = h[4] - h[5] - h_y_given_all
    c = h[6] - (h[7] - h[8])
    d = h[9] - (h[10] - h[8])
    e = h[11] - h[10]
    return tuple(np.where(q > 0.0, q, 0.0) for q in (a, b, c, d, e))  # clamped at 0


def _scores(sum_cap: Callable, ids: np.ndarray, quantities: tuple[np.ndarray, ...]) -> np.ndarray:
    """Every lane's objective from the (a, b, c, d, e) lane arrays: with
    s = ``sum_cap(a, b, c, d, e)``, lane j scores s when ``ids[j]`` is 0,
    the R1 corner min(a, s) when 1 and the R2 corner min(b, s) when 2."""
    a, b = quantities[:2]
    s = sum_cap(*quantities, np.minimum)
    return np.choose(ids, (s, np.minimum(a, s), np.minimum(b, s)))


def _single_user_search(kernel: WiretapKernel, config: SearchConfig, sum_cap: Callable) -> float:
    # The single transmitter is X1 of a two-user kernel whose X2 alphabet
    # has one letter; the auxiliary is constant.  One stream, so every id
    # is 0 and every lane scores the sum cap.
    w = kernel.transition[:, None]

    def objective(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        ones = np.ones((len(x), 1))
        return _scores(sum_cap, ids, _factorized_quantities(w, ones, x, ones[:, :, None]))

    ((best, _),) = _best_of_restarts(
        [(1, kernel.x_size)], [(_SINGLE_STREAM,)], objective, config
    )
    return best


def _best_of_restarts(
    shapes: Sequence[tuple[int, int]],
    streams: Sequence[tuple[int, ...]],
    objective: Callable[..., Sequence[float]],
    config: SearchConfig,
) -> list[tuple[float, list[np.ndarray]]]:
    """Best value and blocks of each objective over its seeded restarts,
    one pair per stream, all restarts run in lockstep.

    Each ``(k, n)`` in ``shapes`` is a block of k rows, each row a law on n
    letters.  A *lane* is one (objective, restart) pair: lane ``s * R + r``
    ascends objective s (keyed ``streams[s]``) from restart r's start, for
    R = ``config.restarts``.  Restart 0 starts from uniform rows; restart
    ``r > 0`` draws every row from a flat Dirichlet, block by block and row
    by row, with the generator keyed ``(seed, *streams[s], r)``, so it does
    not depend on how many restarts run.  ``objective(ids, *blocks)`` scores
    a batch of lanes: ``ids`` holds each lane's objective index and block
    ``(k, n)`` arrives as one ``(lanes, k, n)`` array; it returns one value
    per lane.  Lanes do not interact, so each one ends exactly where its
    restart would end alone.  Ties keep the earlier restart.
    """
    restarts = config.restarts
    starts = []
    for stream in streams:
        starts.append([np.full((k, n), 1.0 / n) for k, n in shapes])
        for restart in range(1, restarts):
            rng = np.random.default_rng((config.seed, *stream, restart))
            starts.append([rng.dirichlet(np.ones(n), size=k) for k, n in shapes])
    blocks = [np.stack(block) for block in zip(*starts)]
    values = _ascend(blocks, np.repeat(np.arange(len(streams)), restarts), objective, config)
    best = []
    for first in range(0, len(values), restarts):
        lane = first + int(np.argmax(values[first:first + restarts]))
        best.append((float(values[lane]), [block[lane] for block in blocks]))
    return best


def _ascend(
    blocks: list[np.ndarray],
    ids: np.ndarray,
    objective: Callable[..., Sequence[float]],
    config: SearchConfig,
) -> np.ndarray:
    """Projected coordinate ascent of every lane over the rows of its
    blocks, in place; returns each lane's best value.

    Each trial move bumps one letter of one row by the lane's current step,
    clips at zero and renormalizes the row; the moves of a row go letter by
    letter, ``+`` before ``-``, and a lane keeps a move when its value
    improves by more than 1e-15.  A move that leaves the row bit-for-bit
    unchanged is not scored.  A row's moves are scored in rounds of one
    objective call each: every live lane tries a window of its next moves,
    built from its current row, and takes the first one that passes.  Its
    earlier moves failed on the row a one-lane ascent would hold, and its
    later ones are rebuilt from the new row in the next round.  A lane's
    first window is the whole row; after a take it is two moves, and it
    doubles after each round without a take, so a run of takes costs about
    two evaluations per move rather than a rescan of the row after each.
    Windows are cut to an equal share of ``_PAIRS_PER_CALL`` (lane, move)
    pairs, but to no less than one move, so no call is wider than the larger
    of that and the lane count; above ``_PAIRS_PER_CALL / 2`` lanes every
    lane scores one move per call, all lanes in step.  Every lane keeps
    exactly the moves it would keep alone.  Each lane has its own step,
    stall counter and stop: the step starts at ``_INITIAL_STEP`` and halves
    after every ``_DECAY_PATIENCE`` sweeps without improvement, and a lane
    stops after three such windows.  A lane is *idle* after a sweep that
    took no move and did not halve its step: its next sweep would start
    from the same blocks, step and best value and reject the same moves,
    so it is not scored, but it counts as not improved, so its stall
    count, step and stop advance as before.  The step never exceeds
    ``_INITIAL_STEP`` and every row sums to 1, so a bumped row sums to at
    least 0.75.  Deterministic: no randomness beyond the initial blocks.
    """
    best = np.asarray(objective(ids, *blocks), dtype=float)
    step = np.full(len(ids), _INITIAL_STEP)
    stalled = np.zeros(len(ids), dtype=int)
    live = np.ones(len(ids), dtype=bool)
    idle = np.zeros(len(ids), dtype=bool)  # last sweep took nothing and kept the step

    # per block: its move count and each move's letter and sign; move m bumps
    # letter m // 2, by -step when m is odd
    block_moves = [
        (2 * n, np.arange(2 * n) // 2, np.tile([1.0, -1.0], n)) for n in (b.shape[2] for b in blocks)
    ]
    for _ in range(config.refinement_iterations):
        improved = np.zeros(len(ids), dtype=bool)
        for k, (block, (moves, letter, sign)) in enumerate(zip(blocks, block_moves)):
            for row in range(block.shape[1]):
                lanes = np.flatnonzero(live & ~idle)
                first = np.zeros(len(lanes), dtype=int)  # each lane's first untried move
                width = np.full(len(lanes), moves)  # moves each lane tries this round
                while lanes.size:
                    cap = max(1, _PAIRS_PER_CALL // len(lanes))
                    width = np.minimum(width, np.minimum(moves - first, cap))
                    pair = np.repeat(np.arange(len(lanes)), width)  # (lane, move) pairs
                    move = np.arange(len(pair)) + np.repeat(first - np.cumsum(width) + width, width)
                    lane = lanes[pair]
                    saved = block[lane, row]
                    trial = saved.copy()
                    cell = (np.arange(len(pair)), letter[move])
                    bumped = trial[cell] + sign[move] * step[lane]
                    trial[cell] = np.where(bumped > 0.0, bumped, 0.0)
                    trial /= trial.sum(axis=1, keepdims=True)
                    first += width
                    width *= 2
                    scored = np.flatnonzero((trial != saved).any(axis=1))
                    if scored.size:  # one call; each lane takes its first trial that passes
                        who = lane[scored]
                        trial_blocks = [b[who] for b in blocks]
                        trial_blocks[k][:, row] = trial[scored]
                        value = np.asarray(objective(ids[who], *trial_blocks), dtype=float)
                        passed = np.flatnonzero(value > best[who] + 1e-15)
                        passer = who[passed]  # nondecreasing, so a lane's first pass leads its run
                        lead = np.ones(len(passed), dtype=bool)
                        lead[1:] = passer[1:] != passer[:-1]
                        passed = passed[lead]
                        take = scored[passed]
                        block[lane[take], row] = trial[take]
                        best[lane[take]] = value[passed]
                        improved[lane[take]] = True
                        first[pair[take]] = move[take] + 1  # later moves are rebuilt from the new row
                        width[pair[take]] = 2
                    left = first < moves
                    lanes, first, width = lanes[left], first[left], width[left]
        stalled = np.where(improved, 0, stalled + 1)
        live &= stalled < 3 * _DECAY_PATIENCE
        decayed = live & ~improved & (stalled % _DECAY_PATIENCE == 0)
        step = np.where(decayed, step * _STEP_DECAY, step)
        idle = ~improved & ~decayed
        if not live.any():
            break
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

"""Discrete bounds: per-input regions, seeded searches, and the fast
objective path pinned against the reference quantities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macwtfb import ValidationError, cli
from macwtfb.channels import (
    InfoQuantities,
    MacWiretapKernel,
    WiretapKernel,
    info_quantities,
)
from macwtfb.discrete import (
    SearchConfig,
    feedback_secrecy_capacity,
    region_for_input,
    sato_outer_for_joint,
    search_inner,
    search_inners,
    search_outer,
    wyner_capacity,
)
from macwtfb.discrete import (
    _INNER_STREAM,
    _ascend,
    _best_of_restarts,
    _entropy_bits,
    _factorized_quantities,
    _scores,
)
from macwtfb.info import JointDist, conditional_entropy, mutual_information
from macwtfb.regions import SUM_CAPS, Halfspace, _df_sum, _hybrid_sum, is_subset, region_from_halfspaces

from oracles import (
    scalar_entropy_bits,
    scalar_factorized_quantities,
    scalar_scores,
    sequential_ascend,
    sequential_best_of_restarts,
    uniform_factorization,
)

H2_011 = 0.499915958164528  # binary entropy of 0.11, frozen at 30 digits

FAST = SearchConfig(u_cardinality_max=2, restarts=3, refinement_iterations=30)


def quantities(a, b, c, d, e):
    return InfoQuantities(a=a, b=b, c=c, d=d, e=e, h_y_given_z=e + 0.1)


def xor_blind_kernel():
    """Y = X1 xor X2 noiselessly, Z constant."""
    w = np.zeros((2, 2, 2, 1))
    for x1 in range(2):
        for x2 in range(2):
            w[x1, x2, (x1 + x2) % 2, 0] = 1.0
    return MacWiretapKernel(w)


def xor_exposed_kernel():
    """Y = X1 xor X2 and Z = Y."""
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            y = (x1 + x2) % 2
            w[x1, x2, y, y] = 1.0
    return MacWiretapKernel(w)


def random_kernel(rng, n1=2, n2=2, ny=2, nz=2):
    flat = rng.dirichlet(np.ones(ny * nz), size=n1 * n2)
    return MacWiretapKernel(flat.reshape(n1, n2, ny, nz))


def flip_eavesdropper_kernel(flip=0.11):
    """Y = X noiselessly; Z is X through a binary symmetric channel."""
    w = np.zeros((2, 2, 2))
    for x in range(2):
        w[x, x, x] = 1.0 - flip
        w[x, x, 1 - x] = flip
    return WiretapKernel(w)


def blind_single_kernel():
    """Y = X noiselessly; Z constant regardless of X."""
    w = np.zeros((2, 2, 1))
    for x in range(2):
        w[x, x, 0] = 1.0
    return WiretapKernel(w)


# --- per-input regions ------------------------------------------------------------

def test_df_region_pentagon():
    r = region_for_input("df", quantities(1.0, 1.0, 1.5, 0.5, 0.0))
    assert r.max_r1() == pytest.approx(1.0, abs=1e-12)
    assert r.max_r2() == pytest.approx(1.0, abs=1e-12)
    assert r.max_sum() == pytest.approx(1.0, abs=1e-12)


def test_df_region_degenerate_when_leakage_dominates():
    r = region_for_input("df", quantities(1.0, 1.0, 1.5, 1.6, 0.0))
    assert r.is_degenerate


def test_df_region_zero_leakage_is_plain_mac_shape():
    r = region_for_input("df", quantities(1.0, 1.0, 1.5, 0.0, 0.0))
    assert r.max_sum() == pytest.approx(1.5, abs=1e-12)


def test_hybrid_region_values():
    q = quantities(1.0, 1.0, 1.5, 0.5, 0.2)
    assert region_for_input("hybrid", q).max_sum() == pytest.approx(1.2, abs=1e-12)
    full = quantities(1.0, 1.0, 1.5, 0.5, 0.7)
    assert region_for_input("hybrid", full).max_sum() == pytest.approx(1.5, abs=1e-12)


def test_hybrid_equals_df_without_key_material():
    q = quantities(0.8, 0.6, 1.1, 0.3, 0.0)
    assert region_for_input("hybrid", q).vertices == region_for_input("df", q).vertices


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
@example(a=1.0, b=2.2250738585072014e-308, c=0.0, d=1e-09, e=0.0)
def test_df_inside_hybrid(a, b, c, d, e):
    q = quantities(a, b, c, d, e)
    assert is_subset(region_for_input("df", q), region_for_input("hybrid", q))


# --- outer bound for a fixed joint -------------------------------------------------

def test_outer_zero_when_fully_exposed():
    k = xor_exposed_kernel()
    assert sato_outer_for_joint(k, np.full((2, 2), 0.25)) == pytest.approx(0.0, abs=1e-12)


def test_outer_one_bit_when_blind():
    k = xor_blind_kernel()
    assert sato_outer_for_joint(k, np.full((2, 2), 0.25)) == pytest.approx(1.0, abs=1e-12)


def test_outer_matches_brute_force_on_random_kernels():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = random_kernel(rng)
        q = rng.dirichlet(np.ones(4)).reshape(2, 2)
        p_yz = np.zeros((2, 2))
        for x1 in range(2):
            for x2 in range(2):
                for y in range(2):
                    for z in range(2):
                        p_yz[y, z] += q[x1, x2] * k.transition[x1, x2, y, z]
        h_yz = -sum(p * math.log2(p) for p in p_yz.ravel() if p > 0)
        p_z = p_yz.sum(axis=0)
        h_z = -sum(p * math.log2(p) for p in p_z if p > 0)
        assert sato_outer_for_joint(k, q) == pytest.approx(h_yz - h_z, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_outer_objective_is_midpoint_concave_in_the_joint_input(n1, n2, ny, nz, seed):
    # P(y, z) is linear in P(x1, x2) and H(Y|Z) is concave in P(y, z).
    rng = np.random.default_rng(seed)
    k = random_kernel(rng, n1, n2, ny, nz)
    p, q = rng.dirichlet(np.ones(n1 * n2), size=2).reshape(2, n1, n2)
    midpoint = sato_outer_for_joint(k, (p + q) / 2)
    assert midpoint >= (sato_outer_for_joint(k, p) + sato_outer_for_joint(k, q)) / 2 - 1e-12


def test_outer_rejects_mismatched_input():
    with pytest.raises(ValidationError):
        sato_outer_for_joint(xor_blind_kernel(), np.full((3, 2), 1.0 / 6.0))


# --- seeded searches -----------------------------------------------------------------

def test_inner_search_blind_xor_recovers_mac_sum_capacity():
    res = search_inner(xor_blind_kernel(), "df", FAST)
    assert res.hull.max_sum() == pytest.approx(1.0, abs=1e-3)
    for _, region in res.candidates:
        assert is_subset(region, res.hull)


def test_inner_search_fully_exposed_hybrid_collapses():
    res = search_inner(xor_exposed_kernel(), "hybrid", FAST)
    assert res.hull.is_degenerate
    assert res.hull.vertices == ((0.0, 0.0),)


def test_inner_search_is_deterministic():
    a = search_inner(xor_blind_kernel(), "df", FAST)
    b = search_inner(xor_blind_kernel(), "df", FAST)
    assert a.hull.vertices == b.hull.vertices
    assert all(
        x.vertices == y.vertices
        for (_, x), (_, y) in zip(a.candidates, b.candidates)
    )


def test_inner_search_rejects_unknown_bound():
    with pytest.raises(ValidationError):
        search_inner(xor_blind_kernel(), "outer", FAST)


@pytest.mark.parametrize(
    "n1, umax, restarts",
    # 13 restarts put 78 lanes in the joint lockstep, so windows are cut
    [(2, 2, 3), (2, 3, 13), (3, 2, 13), (3, 3, 4)],
)
def test_joint_inner_search_equals_the_one_kind_searches(n1, umax, restarts):
    k = random_kernel(np.random.default_rng(71 + n1 + umax), n1, 2, 2, 2)
    config = SearchConfig(u_cardinality_max=umax, restarts=restarts, refinement_iterations=60, seed=umax)
    joint = search_inners(k, ("df", "hybrid"), config)
    alone = (search_inner(k, "df", config), search_inner(k, "hybrid", config))
    assert len(joint) == 2
    for got, want in zip(joint, alone):
        assert got.hull.vertices == want.hull.vertices
        assert len(got.candidates) == len(want.candidates)
        for (got_law, got_region), (want_law, want_region) in zip(got.candidates, want.candidates):
            assert got_region == want_region
            for field in dataclasses.fields(got_law):
                assert np.array_equal(getattr(got_law, field.name), getattr(want_law, field.name))


@pytest.mark.parametrize("kinds", [("df", "sato"), ("outer",), ("hybrid", "df", "hybrid"), ()])
def test_joint_inner_search_rejects_bad_kinds(kinds):
    with pytest.raises(ValidationError):
        search_inners(xor_blind_kernel(), kinds, FAST)


@pytest.mark.parametrize("kind", ["outer", "ty", ""])
def test_region_for_input_rejects_what_the_search_rejects(kind):
    with pytest.raises(ValidationError) as searched:
        search_inner(xor_blind_kernel(), kind, FAST)
    with pytest.raises(ValidationError) as per_input:
        region_for_input(kind, quantities(1.0, 1.0, 1.5, 0.5, 0.2))
    assert str(per_input.value) == str(searched.value)
    assert str(per_input.value) == "bound_kind must be one of ['df', 'hybrid'], got %r" % kind


def test_bound_table_order_is_the_stream_key():
    # A kind's position in regions.SUM_CAPS is part of its restarts' RNG
    # stream key (_INNER_STREAM, position, |U|, objective), and the CLI
    # writes the discrete files in the same order.  Reordering SUM_CAPS
    # changes every discrete golden.
    assert SUM_CAPS == {"df": _df_sum, "hybrid": _hybrid_sum}
    assert {kind: list(SUM_CAPS).index(kind) for kind in SUM_CAPS} == {"df": 0, "hybrid": 1}
    assert cli._DISCRETE_BOUNDS == ("df", "hybrid", "outer")


def test_inner_vertices_inside_searched_outer():
    rng = np.random.default_rng(17)
    for _ in range(3):
        k = random_kernel(rng)
        _, outer_value = search_outer(k, FAST)
        outer_region = region_from_halfspaces([Halfspace(1.0, 1.0, outer_value)])
        for kind in ("df", "hybrid"):
            res = search_inner(k, kind, FAST)
            for x, y in res.hull.vertices:
                assert x + y <= outer_value + 1e-6
            for _, region in res.candidates:
                assert is_subset(region, outer_region) or region.max_sum() <= outer_value + 1e-6


def test_outer_search_fully_exposed_is_zero():
    _, value = search_outer(xor_exposed_kernel(), FAST)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_outer_search_blind_xor_hits_one_bit():
    joint, value = search_outer(xor_blind_kernel(), FAST)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert joint.mass.shape == (2, 2)


def test_outer_search_never_below_uniform():
    rng = np.random.default_rng(29)
    for _ in range(5):
        k = random_kernel(rng)
        _, value = search_outer(k, FAST)
        uniform = sato_outer_for_joint(k, np.full((2, 2), 0.25))
        assert value >= uniform - 1e-12


def test_outer_search_is_deterministic():
    j1, v1 = search_outer(xor_blind_kernel(), FAST)
    j2, v2 = search_outer(xor_blind_kernel(), FAST)
    assert v1 == v2
    assert np.array_equal(j1.mass, j2.mass)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_more_restarts_never_lower_the_search(kernel_seed, k):
    # Restart r draws from its own seeded stream, so k + 1 restarts replay
    # the first k and can only add a better one.
    rng = np.random.default_rng(kernel_seed)
    mac = random_kernel(rng)
    single = WiretapKernel(rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2))
    fewer = SearchConfig(u_cardinality_max=1, restarts=k, refinement_iterations=5, seed=3)
    more = dataclasses.replace(fewer, restarts=k + 1)
    assert search_outer(mac, more)[1] >= search_outer(mac, fewer)[1] - 1e-12
    assert wyner_capacity(single, more) >= wyner_capacity(single, fewer)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_search_blocks_keep_their_shapes_and_stay_on_the_simplex(k, n1, n2, restarts, iterations, seed):
    # Every row of every block is a distribution after each move, so a
    # bumped row always sums to at least 1 - _INITIAL_STEP > 0.  Two
    # objectives share the lanes; each returns its own winner.
    shapes = [(1, k), (k, n1), (k, n2)]
    rng = np.random.default_rng(seed)
    weights = [[rng.normal(size=shape) for shape in shapes] for _ in range(2)]
    config = SearchConfig(restarts=restarts, refinement_iterations=iterations, seed=seed)

    def linear(s, *blocks):
        return float(sum((w * b).sum() for w, b in zip(weights[s], blocks)))

    def lanes(ids, *blocks):
        return [linear(s, *(b[j] for b in blocks)) for j, s in enumerate(ids)]

    best = _best_of_restarts(shapes, [(9,), (10,)], lanes, config)
    assert len(best) == 2
    for s, (value, blocks) in enumerate(best):
        assert [block.shape for block in blocks] == shapes
        assert value == linear(s, *blocks)
        for block in blocks:
            assert (block >= 0.0).all()
            np.testing.assert_allclose(block.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # a constant objective accepts no move, so restart 0 stays uniform
    ((_, flat),) = _best_of_restarts(
        shapes, [(9,)], lambda ids, *blocks: [0.0] * len(ids), dataclasses.replace(config, restarts=1)
    )
    for block, (_, n) in zip(flat, shapes):
        assert np.array_equal(block, np.full_like(block, 1.0 / n))


def test_ascent_skips_moves_that_leave_the_row_unchanged():
    # A one-letter row renormalizes back to [1.0] after every bump, so no
    # trial move changes the blocks and only the starting point is scored.
    calls = []

    def counting(ids, block):
        calls.append(len(ids))
        return [0.0] * len(ids)

    config = SearchConfig(restarts=1, refinement_iterations=5)
    _best_of_restarts([(1, 1)], [(9,)], counting, config)
    assert calls == [1]
    # the lanes of every objective are scored by that one call
    calls.clear()
    _best_of_restarts([(1, 1)], [(9,), (10,), (11,)], counting, config)
    assert calls == [3]


def test_ascent_scores_a_row_in_one_call_when_no_lane_moves():
    # A constant objective rejects every move, so each row of a scored
    # sweep is one call scoring both lanes' six trial moves.  A sweep that
    # takes nothing and keeps the step would repeat itself exactly, so
    # only the first sweep and the first one after each step halving are
    # scored.
    calls = []

    def constant(ids, block):
        calls.append(len(ids))
        return [0.0] * len(ids)

    _best_of_restarts([(2, 3)], [(9,)], constant, SearchConfig(restarts=2, refinement_iterations=4))
    assert calls == [2] + [2 * 6] * 2
    # Sweeps 1, 26 and 51 are scored; the lanes stop after sweep 75.
    calls.clear()
    _best_of_restarts([(2, 3)], [(9,)], constant, SearchConfig(restarts=2, refinement_iterations=80))
    assert calls == [2] + [2 * 6] * 2 * 3
    # 36 lanes share the 72 pairs of a call, two moves each: three calls a
    # row.  From 37 lanes on every call scores one move of every lane, also
    # above 72 lanes, where an equal share of the pairs is less than one.
    for restarts, row_calls in [(36, [36 * 2] * 3), (37, [37] * 6), (73, [73] * 6)]:
        calls.clear()
        config = SearchConfig(restarts=restarts, refinement_iterations=4)
        _best_of_restarts([(2, 3)], [(9,)], constant, config)
        assert calls == [restarts] + row_calls * 2


def test_a_lane_takes_two_moves_in_one_row():
    # On the row [0.5, 0.5], lane 0 maximizes the first letter: it takes
    # move 0 (letter 0 up) and, rebuilt from the new row, move 3 (letter 1
    # down).  Lane 1 maximizes the second letter and takes moves 1 and 2.
    # After a take a lane scores two moves in the next call, and twice as
    # many after a call without a take.
    calls = []
    objectives = [lambda b: float(b[0, 0]), lambda b: float(b[0, 1])]

    def lanes(ids, block):
        calls.append(len(ids))
        return [objectives[s](block[j]) for j, s in enumerate(ids)]

    config = SearchConfig(restarts=1, refinement_iterations=1)
    blocks = [np.full((2, 1, 2), 0.5)]
    values = _ascend(blocks, np.array([0, 1]), lanes, config)
    assert calls == [2, 2 * 4, 2 + 2, 1 + 1]
    for lane, objective in enumerate(objectives):
        alone = [np.full((1, 2), 0.5)]
        assert values[lane] == sequential_ascend(alone, objective, config)
        assert np.array_equal(blocks[0][lane], alone[0])
    np.testing.assert_allclose(blocks[0][:, 0], [[0.8, 0.2], [4.0 / 15.0, 11.0 / 15.0]])


def test_a_stalled_lane_is_scored_once_per_step_beside_a_climbing_lane():
    # On the row [p, 1 - p], lane 0 maximizes p but scores -1 once the
    # second letter is empty, so each sweep it takes only move 0, which
    # brings 1 - p down by a factor 1.25 and never to 0: it improves on
    # every sweep, in three calls (the row, then moves 1-2, then move 3).
    # Lane 1's constant objective rejects all four moves.  Its later sweeps
    # at the same step would repeat them, so it is scored on sweep 1 and on
    # the first sweep after each halving (26 and 51), and it stops after
    # sweep 75.
    calls = []
    objectives = [lambda b: float(b[0, 0]) if b[0, 1] > 0.0 else -1.0, lambda b: 0.0]

    def lanes(ids, block):
        calls.append(ids.tolist())
        return [objectives[s](block[j]) for j, s in enumerate(ids)]

    config = SearchConfig(restarts=1, refinement_iterations=80)
    blocks = [np.full((2, 1, 2), 0.5)]
    values = _ascend(blocks, np.array([0, 1]), lanes, config)
    expected = [[0, 1]]
    for sweep in range(1, 81):
        expected += [[0] * 4 + [1] * 4 * (sweep in (1, 26, 51)), [0] * 2, [0]]
    assert calls == expected
    for lane, objective in enumerate(objectives):
        alone = [np.full((1, 2), 0.5)]
        assert values[lane] == sequential_ascend(alone, objective, config)
        assert np.array_equal(blocks[0][lane], alone[0])


def test_a_lane_that_takes_every_other_move_scores_each_move_about_once():
    # Maximizing the last letter from the uniform row, the lane alone
    # rejects "+" and takes "-" on letters 0..4, then takes "+" and rejects
    # "-" on letter 5: six takes in twelve moves.  The first call scores the
    # whole row; after each take the lane scores the next two moves, here a
    # rejection and the next take, until the take of move 10 discards move
    # 11, which the last call scores again.  Rescoring every move after each
    # take would need 12 + 10 + 8 + 6 + 4 + 2 + 1 evaluations.
    calls = []

    def last_letter(ids, block):
        calls.append(len(ids))
        return block[:, 0, -1].tolist()

    config = SearchConfig(restarts=1, refinement_iterations=1)
    blocks = [np.full((1, 1, 6), 1.0 / 6.0)]
    value = _ascend(blocks, np.array([0]), last_letter, config)
    assert calls == [1, 12] + [2] * 5 + [1]
    sequential = []

    def counted(block):
        sequential.append(1)
        return float(block[0, -1])

    alone = [np.full((1, 6), 1.0 / 6.0)]
    assert value == sequential_ascend(alone, counted, config)
    assert np.array_equal(blocks[0][0], alone[0])
    assert len(sequential) == 1 + 12


def _bumpy_objectives(rng, shapes):
    """Three objectives on which restarts climb, stall, halve their step
    and stop on different sweeps: linear (a vertex is reached and every
    later move fails), a concave quadratic with an interior peak (the step
    keeps halving) and a multimodal cosine sum."""
    lin = [rng.normal(size=shape) for shape in shapes]
    centre = [rng.dirichlet(np.ones(n), size=k) for k, n in shapes]
    freq = [rng.uniform(3.0, 12.0, size=shape) for shape in shapes]

    def linear(*blocks):
        return float(sum((w * b).sum() for w, b in zip(lin, blocks)))

    def quadratic(*blocks):
        return float(-sum(((b - c) ** 2).sum() for b, c in zip(blocks, centre)))

    def cosine(*blocks):
        return float(sum(np.cos(f * b).sum() for f, b in zip(freq, blocks)))

    return [linear, quadratic, cosine]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(1, 110),
    st.integers(0, 2**32 - 1),
)
@example([(2, 3)], 13, 110, 1)
@example([(1, 3)], 25, 30, 1)
def test_lockstep_search_equals_the_sequential_restarts(shapes, restarts, iterations, seed):
    # Every lane of the lockstep ascent ends bit for bit where its restart
    # ends when run alone, and each objective's winner is the sequential one.
    # The first example's 39 lanes score one move per call until enough of
    # them stop, and a window of moves per call after that; the second
    # example's 75 lanes start above 72, where each window is one move.
    objectives = _bumpy_objectives(np.random.default_rng(seed), shapes)
    config = SearchConfig(restarts=restarts, refinement_iterations=iterations, seed=seed)
    streams = [(5, s) for s in range(len(objectives))]

    def lanes(ids, *blocks):
        return [objectives[s](*(b[j] for b in blocks)) for j, s in enumerate(ids)]

    starts = []
    for stream in streams:
        for restart in range(restarts):
            rng = np.random.default_rng((seed, *stream, restart))
            starts.append([rng.dirichlet(np.ones(n), size=k) for k, n in shapes])
    ids = np.repeat(np.arange(len(objectives)), restarts)
    blocks = [np.stack(block) for block in zip(*starts)]
    values = _ascend(blocks, ids, lanes, config)
    for lane, s in enumerate(ids):
        alone = [block.copy() for block in starts[lane]]
        assert values[lane] == sequential_ascend(alone, objectives[s], config)
        for got, want in zip(blocks, alone):
            assert np.array_equal(got[lane], want)

    best = _best_of_restarts(shapes, streams, lanes, config)
    for (value, got), objective, stream in zip(best, objectives, streams):
        want_value, want = sequential_best_of_restarts(shapes, stream, objective, config)
        assert value == want_value
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("n1", [2, 3])
def test_inner_search_objective_equals_the_scalar_oracle(n1):
    # The real objective of search_inners through the lockstep ascent, ==
    # the scalar kernel and scorer through the sequential restarts, on the
    # same stream keys: equal values and blocks per (|U|, kind, objective),
    # for each kind alone and for both kinds in one lockstep.  Every law
    # search_inners keeps is one of these winners of its own kind.
    kernel = random_kernel(np.random.default_rng(43 + n1), n1, 2, 2, 2)
    w = kernel.transition
    for kinds in (("df",), ("hybrid",), ("df", "hybrid")):
        caps = [SUM_CAPS[kind] for kind in kinds]
        winners = [[] for _ in kinds]

        def objective(ids, u, x1, x2):
            q = _factorized_quantities(w, u[:, 0], x1, x2)
            return np.choose(ids // 3, [_scores(cap, ids % 3, q) for cap in caps])

        for u_size in range(1, FAST.u_cardinality_max + 1):
            shapes = [(1, u_size), (u_size, n1), (u_size, 2)]
            streams = [
                (_INNER_STREAM, list(SUM_CAPS).index(kind), u_size, score_id)
                for kind in kinds
                for score_id in range(3)
            ]
            best = _best_of_restarts(shapes, streams, objective, FAST)
            assert len(best) == len(streams)
            for s, ((value, got), stream) in enumerate(zip(best, streams)):
                sum_cap, score_id = caps[s // 3], s % 3

                def scalar(u, x1, x2):
                    q = scalar_factorized_quantities(w, u[0], x1, x2)
                    return scalar_scores(sum_cap, np.array([score_id]), [np.array([v]) for v in q])[0]

                want_value, want = sequential_best_of_restarts(shapes, stream, scalar, FAST)
                assert value == want_value
                for g, v in zip(got, want):
                    assert np.array_equal(g, v)
                winners[s // 3].append((got[0][0], got[1], got[2]))

        for result, kind_winners in zip(search_inners(kernel, kinds, FAST), winners):
            assert result.candidates
            for law, _ in result.candidates:
                assert any(
                    all(np.array_equal(g, v) for g, v in zip(dataclasses.astuple(law), winner))
                    for winner in kind_winners
                )


# --- single-user rates -----------------------------------------------------------------

def test_wyner_zero_when_exposed():
    w = np.zeros((2, 2, 2))
    for x in range(2):
        w[x, x, x] = 1.0  # Z = Y = X
    assert wyner_capacity(WiretapKernel(w), FAST) == 0.0


def test_wyner_flip_kernel_value():
    value = wyner_capacity(flip_eavesdropper_kernel(), FAST)
    assert value == pytest.approx(0.500084, abs=1e-3)
    assert value == pytest.approx(H2_011, abs=1e-9)


def test_wyner_blind_eavesdropper_full_bit():
    assert wyner_capacity(blind_single_kernel(), FAST) == pytest.approx(1.0, abs=1e-9)


def test_feedback_zero_when_everything_exposed():
    w = np.zeros((2, 2, 2))
    for x in range(2):
        w[x, x, x] = 1.0
    assert feedback_secrecy_capacity(WiretapKernel(w), FAST) == 0.0


def test_feedback_blind_eavesdropper_equals_main_capacity():
    assert feedback_secrecy_capacity(blind_single_kernel(), FAST) == pytest.approx(1.0, abs=1e-9)


def test_feedback_dominates_wyner():
    k = flip_eavesdropper_kernel()
    assert feedback_secrecy_capacity(k, FAST) >= wyner_capacity(k, FAST) - 1e-12
    rng = np.random.default_rng(31)
    for _ in range(5):
        flat = rng.dirichlet(np.ones(4), size=2)
        k = WiretapKernel(flat.reshape(2, 2, 2))
        assert feedback_secrecy_capacity(k, FAST) >= wyner_capacity(k, FAST) - 1e-12
    # both single-user searches start from the same laws; a search drawing the
    # df and hybrid starts from different streams ends 2.6e-5 below wyner here
    k = WiretapKernel(np.random.default_rng(19).dirichlet(np.ones(4), size=2).reshape(2, 2, 2))
    assert feedback_secrecy_capacity(k, FAST) >= wyner_capacity(k, FAST) - 1e-12


# --- fast path pinned to the reference ---------------------------------------------------

def test_fast_quantities_match_reference():
    rng = np.random.default_rng(41)
    kernels = [xor_blind_kernel(), xor_exposed_kernel()] + [
        random_kernel(rng, 2, 3, 2, 2),
        random_kernel(rng, 3, 2, 2, 3),
    ]
    for k in kernels:
        for u_size in (1, 2, 3):
            facts = [uniform_factorization(u_size, k.x1_size, k.x2_size)] + [
                _random_factorization(rng, u_size, k.x1_size, k.x2_size) for _ in range(7)
            ]
            fast = _factorized_quantities(
                k.transition,
                np.stack([f.u_dist for f in facts]),
                np.stack([f.x1_given_u for f in facts]),
                np.stack([f.x2_given_u for f in facts]),
            )
            for lane, fact in enumerate(facts):
                ref = info_quantities(k, fact)
                for got, want in zip(fast, (ref.a, ref.b, ref.c, ref.d, ref.e)):
                    assert got[lane] == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_single_user_embedding_matches_generic_quantities(nx, ny, nz, seed):
    # The single-user searches score a kernel with a one-letter second
    # input and a constant auxiliary; there (a, b, c, d, e) must be
    # (I(X;Y), 0, I(X;Y), I(X;Z), H(Y|X,Z)).
    rng = np.random.default_rng(seed)
    w = WiretapKernel(rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz)).transition
    p = rng.dirichlet(np.ones(nx))
    if nx > 1 and rng.random() < 0.3:  # exercise an unused input letter
        p[0] = 0.0
        p /= p.sum()
    got = _factorized_quantities(w[:, None], np.ones((1, 1)), p[None, None, :], np.ones((1, 1, 1)))
    joint = JointDist(p[:, None, None] * w)  # axes X, Y, Z
    i_xy = mutual_information(joint, [0], [1])
    want = (
        i_xy,
        0.0,
        i_xy,
        mutual_information(joint, [0], [2]),
        conditional_entropy(joint, [1], [0, 2]),
    )
    for g, v in zip(got, want):
        assert g[0] == pytest.approx(v, abs=1e-10)


def _sparse_laws(rng, lanes, rows, n, zeros):
    """``lanes`` stacks of ``rows`` laws on n letters; with ``zeros`` some
    coordinates are clipped to 0, as the ascent does."""
    laws = rng.dirichlet(np.ones(n), size=(lanes, rows))
    if zeros and n > 1:
        laws[rng.random(laws.shape) < 0.35] = 0.0
        laws[..., 0] += laws.sum(axis=-1) == 0.0  # keep every row a law
        laws /= laws.sum(axis=-1, keepdims=True)
    return laws


def _random_lanes(rng, u_size, sizes, lanes, sparse_kernel, sparse_laws):
    """A kernel's transition array and ``lanes`` input laws (u, x1, x2) on
    alphabets ``sizes`` = (|X1|, |X2|, |Y|, |Z|), with zero coordinates in
    the kernel rows and in the laws on request.  One draw in five uses 3x3
    inputs with |Y| = |Z| = 4, where a flattened mass array is longer
    than 128."""
    n1, n2, ny, nz = sizes
    if rng.random() < 0.2:
        n1, n2, ny, nz = 3, 3, 4, 4
    rows = rng.dirichlet(np.ones(ny * nz), size=n1 * n2)
    if sparse_kernel:
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[:, 0] += rows.sum(axis=1) == 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    w = MacWiretapKernel(rows.reshape(n1, n2, ny, nz)).transition
    u = _sparse_laws(rng, lanes, 1, u_size, sparse_laws)[:, 0]
    x1 = _sparse_laws(rng, lanes, u_size, n1, sparse_laws)
    x2 = _sparse_laws(rng, lanes, u_size, n2, sparse_laws)
    return w, u, x1, x2


_LANE_DRAWS = (
    st.integers(1, 5),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.integers(1, 64),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(*_LANE_DRAWS)
def test_batched_quantities_are_bit_equal_to_the_scalar_kernel(u_size, sizes, lanes, sparse_kernel, sparse_laws, seed):
    # == and not approx: the batched kernel must give, lane by lane, the
    # bits of the scalar kernel that produced the pinned goldens, also when
    # zero masses sit among the terms of an entropy and when a flattened
    # mass array is longer than 128.
    rng = np.random.default_rng(seed)
    w, u, x1, x2 = _random_lanes(rng, u_size, sizes, lanes, sparse_kernel, sparse_laws)
    got = _factorized_quantities(w, u, x1, x2)
    for lane in range(lanes):
        want = scalar_factorized_quantities(w, u[lane], x1[lane], x2[lane])
        assert tuple(q[lane] for q in got) == want
    # the single-user embedding: a one-letter X2 and a constant auxiliary
    single = w[:, 0]
    x = _sparse_laws(rng, lanes, 1, w.shape[0], sparse_laws)
    ones = np.ones((lanes, 1))
    got = _factorized_quantities(single[:, None], ones, x, ones[:, :, None])
    for lane in range(lanes):
        want = scalar_factorized_quantities(single[:, None], np.ones(1), x[lane], np.ones((1, 1)))
        assert tuple(q[lane] for q in got) == want


@settings(max_examples=60, deadline=None)
@given(*_LANE_DRAWS)
def test_array_scores_are_bit_equal_to_the_scalar_scores(u_size, sizes, lanes, sparse_kernel, sparse_laws, seed):
    # np.minimum and min differ only on NaN and on a 0.0 / -0.0 tie.  The
    # kernel's outputs carry neither, so every lane scores the bits the
    # per-lane Python-float scorer gave, for each bound and objective id.
    rng = np.random.default_rng(seed)
    w, u, x1, x2 = _random_lanes(rng, u_size, sizes, lanes, sparse_kernel, sparse_laws)
    x = _sparse_laws(rng, lanes, 1, w.shape[0], sparse_laws)
    ones = np.ones((lanes, 1))
    mixed = rng.integers(0, 3, size=lanes)
    for quantities in (
        _factorized_quantities(w, u, x1, x2),
        _factorized_quantities(w[:, :1], ones, x, ones[:, :, None]),  # single-user embedding
    ):
        for q in quantities:
            assert not np.isnan(q).any()
            assert not np.signbit(q).any()
        for sum_cap in (_df_sum, _hybrid_sum):
            for ids in (*(np.full(lanes, i) for i in range(3)), mixed):
                got = _scores(sum_cap, ids, quantities)
                want = scalar_scores(sum_cap, ids, quantities)
                assert got.tobytes() == np.array(want).tobytes()  # ==, and signs of zero agree


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 320), min_size=1, max_size=12),
    st.integers(1, 64),
    st.floats(0.0, 0.9),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example([3, 1], 2, 1.0, False, 0)  # lanes without mass: entropy +0.0
@example([1, 2], 3, 0.0, False, 0)  # point masses: p log2 p = 0.0 summed and negated, -0.0
@example([4, 9], 3, 0.5, True, 0)  # -0.0 entries count as zeros
@example([1296], 3, 0.3, False, 0)  # the (X1, X2, Y, Z) joint of a 6-letter kernel
def test_batched_entropies_are_bit_equal_to_the_scalar_ones(widths, lanes, zero_share, negative_zeros, seed):
    rng = np.random.default_rng(seed)
    masses = []
    for width in widths:
        mass = rng.dirichlet(np.ones(width), size=lanes)
        mass[rng.random(mass.shape) < zero_share] = -0.0 if negative_zeros else 0.0
        masses.append(mass)
    got = _entropy_bits(*masses)
    assert got.shape == (len(widths), lanes)
    for t, mass in enumerate(masses):
        for lane in range(lanes):
            want = scalar_entropy_bits(mass[lane])
            assert got[t, lane].tobytes() == np.float64(want).tobytes()  # ==, and signs of zero agree


def _random_factorization(rng, u_size, n1, n2):
    from macwtfb.channels import InputFactorization

    u = rng.dirichlet(np.ones(u_size))
    x1 = rng.dirichlet(np.ones(n1), size=u_size)
    x2 = rng.dirichlet(np.ones(n2), size=u_size)
    if rng.random() < 0.3:  # exercise sparse rows
        x1[0] = 0.0
        x1[0, 0] = 1.0
    return InputFactorization(u, x1, x2)


# --- configuration validation --------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(restarts=0)
    with pytest.raises(ValidationError):
        SearchConfig(seed=-1)
    with pytest.raises(ValidationError):
        SearchConfig(u_cardinality_max=0)
    # every field is an integer, and a bool is not one
    for name in ("u_cardinality_max", "restarts", "refinement_iterations", "seed"):
        for bad in (2.5, 2.0, True, "2", None):
            with pytest.raises(ValidationError):
                SearchConfig(**{name: bad})
    assert SearchConfig(restarts=np.int64(2), seed=np.uint32(7)).restarts == 2


def test_numpy_integer_config_searches_as_its_ints():
    """The fields keep Python ints, so a numpy seed keys the draws as its int."""
    ints = SearchConfig(restarts=2, refinement_iterations=3, seed=7)
    numpys = SearchConfig(restarts=np.int64(2), refinement_iterations=np.int64(3), seed=np.uint32(7))
    assert numpys == ints and all(type(value) is int for value in dataclasses.astuple(numpys))
    joint, value = search_outer(xor_blind_kernel(), numpys)
    expected_joint, expected_value = search_outer(xor_blind_kernel(), ints)
    assert joint.mass.tobytes() == expected_joint.mass.tobytes() and value == expected_value

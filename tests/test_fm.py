"""Exact elimination: worked projections, soundness by back-substitution,
and the rate-splitting system's agreement with the closed form."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macwtfb import cli, fm
from macwtfb.channels import InfoQuantities
from macwtfb.discrete import hybrid_region_for_input
from macwtfb.fm import (
    _PROJECTED_RATE_SPLIT_ROWS,
    RATE_SPLIT_VARIABLES,
    _closed_form_rows,
    _evaluate,
    _evaluate_projected,
    _information_constants,
    as_rational,
    exact_vertices,
    project_to,
    rate_splitting_system,
    verify_hybrid_region_projection,
)
from macwtfb.info import ValidationError
from macwtfb.regions import region_from_halfspaces
from oracles import (
    closed_form_inequalities,
    fraction_eliminate,
    fraction_exact_vertices,
    fraction_project_to,
    fraction_system,
    fraction_view,
    rate_splitting_inequalities,
)

rationals = st.fractions(min_value=0, max_value=4, max_denominator=64)


def integer_rows(inequalities):
    """``(coefficients, relation, bound)`` triples as a denominator and
    integer ``<=`` rows over it; a ``>=`` row is negated."""
    rows = [
        (tuple(c), as_rational(b)) if relation == "<=" else (tuple(-x for x in c), -as_rational(b))
        for c, relation, b in inequalities
    ]
    denominator = math.lcm(*(b.denominator for _, b in rows))
    return denominator, [(c, b.numerator * (denominator // b.denominator)) for c, b in rows]


# --- rationalization boundary --------------------------------------------------

def test_as_rational_conversions():
    assert as_rational(F(3, 7)) == F(3, 7)
    assert as_rational(2) == F(2)
    assert as_rational(0.25) == F(1, 4)
    assert abs(as_rational(0.3) - F(3, 10)) < F(1, 2**32)


@pytest.mark.parametrize("float_type", [np.float16, np.float32, np.float64])
def test_as_rational_converts_numpy_floats(float_type):
    # A numpy float is a numbers.Real; float16 and float32 are no float.
    assert as_rational(float_type(0.5)) == F(1, 2)
    assert as_rational(float_type(0.3)) == as_rational(float(float_type(0.3)))
    with pytest.raises(ValidationError, match="non-finite value nan"):
        as_rational(float_type("nan"))
    assert verify_hybrid_region_projection(*map(float_type, (1, 1, 1.5, 0.5, 0.25))).match


def test_as_rational_rejects_non_finite_and_foreign_types():
    with pytest.raises(ValidationError):
        as_rational(float("nan"))
    with pytest.raises(ValidationError):
        as_rational(float("inf"))
    with pytest.raises(ValidationError):
        as_rational("0.5")
    for flag in (True, False, np.True_):
        with pytest.raises(ValidationError, match="got bool"):
            as_rational(flag)
    with pytest.raises(ValidationError, match="got bool"):
        verify_hybrid_region_projection(True, 1, 1, 0, 0)


@pytest.mark.parametrize("consts", [(0, 0, 0, 0, 0), (1, 1, 2, 1, 0), (2, 3, 4, 1, 2), (5, 2, 6, 3, 7)])
def test_numpy_integers_are_integers(consts):
    # np.int64 is a numbers.Integral but no int; np.float64 is a float.
    value = as_rational(np.int64(consts[2]))
    assert value == F(consts[2]) and type(value.numerator) is int
    check = verify_hybrid_region_projection(*consts)
    assert verify_hybrid_region_projection(*map(np.int64, consts)) == check
    assert verify_hybrid_region_projection(*map(np.float64, consts)) == check


# --- single elimination steps and the normal form --------------------------------

def test_transitive_chain():
    assert project_to(("x", "y"), [((1, 0), 1), ((-1, 1), 0)], ("y",)) == (("y",), [((1,), 1)])


def test_contradiction_surfaces_as_constant_row():
    # x >= 2 and x <= 1: eliminating x leaves the marker row 0 <= -1 alone.
    names, rows = project_to(("x", "y"), [((-1, 0), -2), ((1, 0), 1), ((0, 1), 3)], ("y",))
    assert rows == [((0,), -1)]
    assert fraction_view(1, names, rows).is_infeasible


def test_duplicate_rows_keep_tightest_bound():
    # 4x <= 2 is the tightest of x <= 2, x <= 5 and x <= 1/2.
    names, rows = project_to(("x", "y"), [((2, 0), 4), ((1, 0), 5), ((4, 0), 2)], ("x", "y"))
    assert rows == [((4, 0), 2)]
    assert fraction_view(1, names, rows).rows == (((1, 0), F(1, 2)),)


def test_satisfied_constant_rows_are_dropped():
    assert project_to(("x",), [((0,), 3), ((1,), 1)], ("x",)) == (("x",), [((1,), 1)])


# --- projection ------------------------------------------------------------------

def test_keep_all_is_identity():
    rows = [((0, -1), 0), ((1, 2), 3)]  # already in normal form
    assert project_to(("x", "y"), rows, ("x", "y")) == (("x", "y"), rows)


def test_simplex_shadow():
    rows = [((1, 1, 1), 1), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)]
    assert project_to(("x", "y", "z"), rows, ("x",)) == (("x",), [((-1,), 0), ((1,), 1)])


def test_projection_keep_set_validation():
    with pytest.raises(ValidationError, match="must keep at least one variable"):
        project_to(("x", "y"), [((1, 1), 1)], ())
    with pytest.raises(ValidationError, match="unknown variables in keep set: \\['nope'\\]"):
        project_to(("x", "y"), [((1, 1), 1)], ("x", "nope"))


def _random_box_system(rng):
    """Names and integer rows over denominator 1: the box [-2, 2]^4 and five
    random rows."""
    names = ("w", "x", "y", "z")
    rows = []
    for k in range(4):
        unit = [0, 0, 0, 0]
        unit[k] = 1
        rows.append((tuple(unit), 2))
        rows.append((tuple(-u for u in unit), 2))
    for _ in range(5):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(4))
        rows.append((coeffs, rng.randint(1, 4)))
    return names, rows


def _eliminate(names, rows, drop):
    return project_to(names, rows, [name for name in names if name != drop])


def _feasible_interval(names, rows, var, assignment):
    """Exact [lo, hi] for var given values of all other variables."""
    idx = names.index(var)
    lo, hi = None, None
    for coeffs, bound in rows:
        weight = coeffs[idx]
        rest = sum(
            c * assignment[name]
            for k, (c, name) in enumerate(zip(coeffs, names))
            if k != idx
        )
        if weight > 0:
            cap = F(bound - rest, weight)
            hi = cap if hi is None or cap < hi else hi
        elif weight < 0:
            floor = F(bound - rest, weight)
            lo = floor if lo is None or floor > lo else lo
    return lo, hi


def _satisfies(names, rows, assignment):
    return all(
        sum(c * assignment[n] for c, n in zip(coeffs, names)) <= bound
        for coeffs, bound in rows
    )


def test_projection_soundness_by_back_substitution():
    # Every point of the projected system extends, coordinate by
    # coordinate, to a point of the original system.
    rng = random.Random(7)
    for _ in range(10):
        original = _random_box_system(rng)
        mid = _eliminate(*original, "y")
        final = _eliminate(*mid, "z")
        assert final[0] == ("w", "x")
        verts = exact_vertices(1, final[1])
        assert verts, "box-bounded system should be nonempty"
        probes = list(verts)
        for p, q in zip(verts, verts[1:]):
            probes.append(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
        for w, x in probes:
            assignment = {"w": w, "x": x}
            lo, hi = _feasible_interval(*mid, "z", assignment)
            assert lo is not None and hi is not None and lo <= hi
            assignment["z"] = (lo + hi) / 2
            lo, hi = _feasible_interval(*original, "y", assignment)
            assert lo is not None and hi is not None and lo <= hi
            assignment["y"] = (lo + hi) / 2
            assert _satisfies(*original, assignment)


def test_projection_completeness_on_sampled_points():
    # The shadow of every original solution satisfies the projection.
    rng = random.Random(11)
    for _ in range(6):
        names, rows = _random_box_system(rng)
        projected = project_to(names, rows, ("w", "x"))
        hits = 0
        for _ in range(60):
            point = {
                name: F(rng.randint(-16, 16), 8)
                for name in names
            }
            if _satisfies(names, rows, point):
                hits += 1
                assert _satisfies(*projected, {"w": point["w"], "x": point["x"]})
        assert hits > 0


def test_elimination_order_does_not_change_the_shadow():
    rng = random.Random(23)
    for _ in range(8):
        original = _random_box_system(rng)
        forward = original
        for name in ("y", "z"):
            forward = _eliminate(*forward, name)
        backward = original
        for name in ("z", "y"):
            backward = _eliminate(*backward, name)
        assert forward[0] == backward[0] == ("w", "x")
        assert exact_vertices(1, forward[1]) == exact_vertices(1, backward[1])


# --- the rate-splitting system ----------------------------------------------------

def test_split_system_shape():
    denominator, rows = rate_splitting_system(1, 1, 2, 1, 1)
    assert RATE_SPLIT_VARIABLES == ("R1", "R2", "R10", "R11", "R1s", "R20", "R21", "R2s")
    assert denominator == 1
    assert len(rows) == 15
    assert all(len(coeffs) == len(RATE_SPLIT_VARIABLES) for coeffs, _ in rows)
    # The bounds a, b, c, d and e - d over the constants' common denominator.
    denominator, rows = rate_splitting_system(F(1, 2), F(1, 3), 1, F(1, 4), 0)
    assert denominator == 12
    assert [beta for _, beta in rows[:5]] == [6, 4, 12, 3, -3]


def test_negative_constants_rejected():
    with pytest.raises(ValidationError, match="nonnegative"):
        rate_splitting_system(1, 1, 1, -F(1, 2), 0)
    with pytest.raises(ValidationError, match="nonnegative"):
        verify_hybrid_region_projection(-1, 1, 1, 0, 0)


def test_all_zero_constants_give_origin():
    chk = verify_hybrid_region_projection(0, 0, 0, 0, 0)
    assert chk.match
    assert chk.projected_vertices == ((F(0), F(0)),)


def test_worked_rational_instance():
    chk = verify_hybrid_region_projection(F(1), F(1), F(3, 2), F(1, 2), F(1, 5))
    assert chk.match
    assert max(x + y for x, y in chk.projected_vertices) == F(6, 5)


def test_vacuous_key_constraint_when_key_exceeds_leakage():
    # e >= d makes the lower bound on the randomization rates vacuous and
    # the projected sum bound collapses to min(c, a + b).
    chk = verify_hybrid_region_projection(F(2), F(3), F(4), F(1, 3), F(1, 2))
    assert chk.match
    assert max(x + y for x, y in chk.projected_vertices) == F(4)
    chk = verify_hybrid_region_projection(F(2), F(3), F(7), F(1, 3), F(2))
    assert max(x + y for x, y in chk.projected_vertices) == F(5)


def test_zero_key_rate_reduces_to_full_leakage_debit():
    a, b, c, d = F(1), F(1), F(3, 2), F(1, 2)
    chk = verify_hybrid_region_projection(a, b, c, d, F(0))
    assert chk.match
    assert max(x + y for x, y in chk.projected_vertices) == min(c, a + b) - d


def test_infeasible_split_system_matches_empty_closed_form():
    chk = verify_hybrid_region_projection(1, 1, 1, 5, 0)
    assert chk.match
    assert chk.projected_vertices == ()
    assert chk.closed_form_vertices == ()


def test_degenerate_segment_region():
    chk = verify_hybrid_region_projection(0, 1, F(3, 2), F(1, 2), F(1, 5))
    assert chk.match
    assert chk.projected_vertices == ((F(0), F(0)), (F(0), F(7, 10)))


def test_float_inputs_are_rationalized():
    chk = verify_hybrid_region_projection(1.0, 1.0, 1.5, 0.5, 0.2)
    assert chk.match
    assert max(x + y for x, y in chk.projected_vertices) == F(6, 5)


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals)
def test_projection_always_matches_closed_form(a, b, c, d, e):
    chk = verify_hybrid_region_projection(a, b, c, d, e)
    assert chk.match, (a, b, c, d, e)


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals)
@example(F(0), F(0), F(0), F(0), F(0))
@example(F(1), F(1), F(3, 2), F(1, 2), F(0))  # d > e
@example(F(2), F(3), F(4), F(1, 3), F(1, 2))  # e >= d
@example(F(1, 64), F(0), F(4), F(1, 7), F(1, 7))  # e = d
@example(F(1), F(1), F(1), F(5), F(0))  # infeasible
def test_integer_split_rows_match_the_fraction_oracle(a, b, c, d, e):
    # The split system from the row table against its inequality list, and
    # both vertex sets of the check against the Fraction elimination.
    split = fraction_system(RATE_SPLIT_VARIABLES, rate_splitting_inequalities(a, b, c, d, e))
    denominator, rows = rate_splitting_system(a, b, c, d, e)
    assert fraction_view(denominator, *project_to(RATE_SPLIT_VARIABLES, rows, RATE_SPLIT_VARIABLES)) == split
    closed = fraction_system(("R1", "R2"), closed_form_inequalities(a, b, c, d, e))
    _, consts = _information_constants(a, b, c, d, e)
    closed_rows = project_to(("R1", "R2"), _closed_form_rows(*consts), ("R1", "R2"))
    assert fraction_view(denominator, *closed_rows) == closed
    chk = verify_hybrid_region_projection(a, b, c, d, e)
    assert chk.projected_vertices == fraction_exact_vertices(fraction_project_to(split, ("R1", "R2")))
    assert chk.closed_form_vertices == fraction_exact_vertices(closed)


@settings(max_examples=150, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals)
@example(F(0), F(0), F(0), F(0), F(0))
@example(F(1), F(1), F(3, 2), F(1, 2), F(0))  # d > e
@example(F(2), F(3), F(4), F(1, 3), F(1, 2))  # e >= d
@example(F(1, 64), F(0), F(4), F(1, 7), F(1, 7))  # e = d
@example(F(1), F(1), F(1), F(5), F(0))  # infeasible
def test_projected_table_matches_per_instance_elimination(a, b, c, d, e):
    # The table eliminated once with the constants as columns, evaluated on
    # one instance, is the instance's own elimination row for row.
    _, consts = _information_constants(a, b, c, d, e)
    names, rows = project_to(RATE_SPLIT_VARIABLES, rate_splitting_system(a, b, c, d, e)[1], {"R1", "R2"})
    assert names == ("R1", "R2")
    assert project_to(names, _evaluate(_PROJECTED_RATE_SPLIT_ROWS, consts), names)[1] == rows
    # The direction-grouped evaluation the check runs gives the same rows.
    assert _evaluate_projected(consts) == rows


def test_seeded_cases_match_the_fraction_oracle():
    # Every seeded fm-verify instance matches, so a fault that moved both
    # vertex sets alike would keep every output byte; compare each set with
    # the Fraction elimination instead.
    for name, consts in cli._fm_cases(300, 0):
        chk = verify_hybrid_region_projection(*consts)
        split = fraction_system(RATE_SPLIT_VARIABLES, rate_splitting_inequalities(*consts))
        closed = fraction_system(("R1", "R2"), closed_form_inequalities(*consts))
        assert chk.projected_vertices == fraction_exact_vertices(fraction_project_to(split, ("R1", "R2"))), name
        assert chk.closed_form_vertices == fraction_exact_vertices(closed), name


def test_check_enumerates_vertices_twice_through_the_module(monkeypatch):
    # The check looks exact_vertices up on the module, once per system, so
    # a wrapper installed there (as the benchmark's stage span is) sees
    # every call.
    calls = []

    def counting(denominator, rows):
        calls.append(denominator)
        return exact_vertices(denominator, rows)

    monkeypatch.setattr(fm, "exact_vertices", counting)
    cases = cli._fm_cases(20, 0)
    for _, consts in cases:
        verify_hybrid_region_projection(*consts)
    assert len(calls) == 2 * len(cases)


def test_exact_vertices_requires_two_variables():
    with pytest.raises(ValidationError, match="needs exactly two variables, got 1"):
        exact_vertices(1, [((1,), 1)])


@pytest.mark.parametrize(
    "rows, direction",
    [
        ([((1, 0), "<=", 1)], "(0, 1)"),
        ([((1, 0), "<=", 1), ((0, 1), "<=", 1), ((1, 0), ">=", 0)], "(0, -1)"),
    ],
    ids=["half_plane", "strip"],
)
def test_exact_vertices_rejects_unbounded_systems(rows, direction):
    with pytest.raises(ValidationError) as info:
        exact_vertices(*integer_rows(rows))
    assert str(info.value) == "system is unbounded along direction " + direction


def test_exact_vertices_of_infeasible_unbounded_system_is_empty():
    # y is free, but x <= -1 and x >= 0 leave no point at all.
    assert exact_vertices(1, [((1, 0), -1), ((-1, 0), 0)]) == ()


def test_exact_vertices_names_a_primitive_direction():
    # The tightest row of one direction keeps its coefficients (-2x <= 0),
    # and the strip 0 <= x <= 3 is unbounded along its line; the direction
    # named is primitive all the same.
    with pytest.raises(ValidationError, match=r"direction \(0, -1\)$"):
        exact_vertices(1, [((-2, 0), 0), ((-1, 0), 1), ((1, 0), 3)])


@pytest.mark.parametrize("scale", [1, 2], ids=["content_1", "content_2"])
def test_list_and_tuple_coefficients_give_equal_results(scale):
    # The triangle x <= 1, y <= 1, x + y >= 0, its rows scaled so that their
    # content is 1 or above; the rows normalize to the same tuples either way.
    triangle = [((scale, 0), scale), ((0, scale), scale), ((-scale, -scale), 0)]
    as_lists = [(list(coeffs), beta) for coeffs, beta in triangle]
    assert exact_vertices(1, as_lists) == exact_vertices(1, triangle) == ((-1, 1), (1, -1), (1, 1))
    for keep in (("x",), ("x", "y")):
        assert project_to(("x", "y"), as_lists, keep) == project_to(("x", "y"), triangle, keep)


small_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 6)), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(small_rows, st.integers(1, 3), st.integers(1, 3), st.integers(0, 6))
def test_exact_vertices_agree_with_float_region(rows, cap1, cap2, cap_bound):
    # Nonnegative bounds keep the origin feasible; the positive cap row and
    # the quadrant keep the polygon bounded.
    rows = rows + [(cap1, cap2, cap_bound), (-1, 0, 0), (0, -1, 0)]
    exact = [(float(x), float(y)) for x, y in exact_vertices(1, [((c1, c2), b) for c1, c2, b in rows])]
    floats = region_from_halfspaces(rows).vertices
    assert len(exact) == len(floats)
    for (ex, ey), (fx, fy) in zip(exact, floats):
        assert ex == pytest.approx(fx, abs=1e-9) and ey == pytest.approx(fy, abs=1e-9)


def _vertices_or_unbounded(build):
    try:
        return build()
    except ValidationError as error:
        assert "unbounded" in str(error)
        return "unbounded"


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)), max_size=4))
def test_float_and_exact_paths_agree_on_each_verdict(rows):
    # No cap row: the system may be empty, a point, a polygon or unbounded.
    # Vertex order is not compared: two vertices with the same exact R1 can
    # round to different floats, which moves the float polygon's start.
    quadrant = [(-1, 0, 0), (0, -1, 0)]
    system = [((c1, c2), b) for c1, c2, b in rows + quadrant]
    exact = _vertices_or_unbounded(lambda: exact_vertices(1, system))
    floats = _vertices_or_unbounded(lambda: region_from_halfspaces(rows))
    if exact == "unbounded" or floats == "unbounded":
        assert exact == floats
    elif exact == ():
        assert floats.is_degenerate
    else:
        assert len(exact) == len(floats.vertices)


sixty_fourths = st.integers(0, 256).map(lambda k: k / 64)


@settings(max_examples=200, deadline=None)
@given(sixty_fourths, sixty_fourths, sixty_fourths, sixty_fourths, sixty_fourths)
def test_closed_form_system_matches_searched_hybrid_region(a, b, c, d, e):
    # The rows fm-verify checks and the region the discrete search writes
    # come from one hybrid sum formula; an empty exact region is the
    # degenerate float region.
    denominator, consts = _information_constants(a, b, c, d, e)
    exact = exact_vertices(denominator, _closed_form_rows(*consts))
    region = hybrid_region_for_input(InfoQuantities(a, b, c, d, e, 0.0))
    if not exact:
        assert region.is_degenerate
        return
    assert len(exact) == len(region.vertices)
    for (ex, ey), (fx, fy) in zip(exact, region.vertices):
        assert float(ex) == pytest.approx(fx, abs=1e-9)
        assert float(ey) == pytest.approx(fy, abs=1e-9)


# --- integer rows against the Fraction oracle ---------------------------------------


@st.composite
def small_systems(draw):
    """Variable names and inequalities: 2-4 variables, integer coefficients
    in [-3, 3], rational bounds with denominators up to 64."""
    names = ("w", "x", "y", "z")[: draw(st.integers(2, 4))]
    row = st.tuples(
        st.tuples(*[st.integers(-3, 3)] * len(names)),
        st.sampled_from(("<=", ">=")),
        st.fractions(min_value=-4, max_value=4, max_denominator=64),
    )
    return names, draw(st.lists(row, max_size=7))


def _outcome(build):
    try:
        return build()
    except ValidationError as error:
        return "ValidationError: %s" % error


TRIANGLE = [(1, 0), (0, 1), (-1, -1)]
STRIP = [(1, 0), (-1, 0)]
pair_coefficients = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(pair_coefficients, st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=1, max_size=6))
@example(TRIANGLE, [[1, 1, 0], [-1, -1, -3], [2, 0, 1]])  # bounded, infeasible, bounded
@example(STRIP, [[1, 0], [-1, 0], [3, 3]])  # unbounded, infeasible, unbounded
def test_memoized_geometry_is_exact_for_every_bound(coefficients, bound_vectors):
    # Systems that share one coefficient tuple share exact_vertices' memo
    # entry, whatever their bounds: bounded or not, feasible or not, each
    # outcome is the Fraction oracle's, value or error.
    names = ("x", "y")
    for denominator, bounds in enumerate(bound_vectors, start=1):
        rows = list(zip(coefficients, bounds))
        inequalities = [(coeffs, "<=", F(beta, denominator)) for coeffs, beta in rows]
        exact = _outcome(lambda: exact_vertices(denominator, rows))
        assert exact == _outcome(lambda: fraction_exact_vertices(fraction_system(names, inequalities)))


BOX = [((1, 0), "<=", 2), ((1, 0), ">=", -2), ((0, 1), "<=", 2), ((0, 1), ">=", -2)]


@settings(max_examples=300, deadline=None)
@given(small_systems())
@example((("x", "y"), BOX + [((2, 0), "<=", F(4, 3)), ((4, 0), "<=", F(2, 3)), ((3, 3), "<=", 1)]))
@example((("x", "y"), BOX + [((1, 1), "<=", F(1, 2)), ((2, 2), ">=", F(-1, 3)), ((1, -1), "<=", 0)]))
@example((("x", "y", "z"), [((1, 0, 0), ">=", 2), ((1, 0, 0), "<=", 1), ((0, 1, 1), "<=", F(1, 64))]))
@example((("x", "y"), [((1, 0), "<=", F(1, 3)), ((1, -1), "<=", 0)]))
@example((("x", "y"), [((1, 0), "<=", -1), ((1, 0), ">=", 0), ((0, 0), "<=", 1)]))
@example((("w", "x", "y", "z"), [((1, 1, 1, 1), "<=", F(5, 7)), ((0, 0, 0, 0), ">=", F(1, 64))]))
def test_integer_rows_match_the_fraction_oracle(case):
    # The examples: duplicate directions, parallel rows, an infeasible
    # system, an unbounded one, an infeasible unbounded one and a false
    # constant row.
    names, inequalities = case
    denominator, rows = integer_rows(inequalities)
    system = fraction_system(names, inequalities)
    assert fraction_view(denominator, *project_to(names, rows, names)) == system
    for name in names:
        eliminated = project_to(names, rows, [n for n in names if n != name])
        assert fraction_view(denominator, *eliminated) == fraction_eliminate(system, name)
    for keep in (names[:1], names[:2], names[-2:]):
        projected = project_to(names, rows, keep)
        oracle = fraction_project_to(system, keep)
        assert fraction_view(denominator, *projected) == oracle
        if len(keep) == 2:
            exact = _outcome(lambda: exact_vertices(denominator, projected[1]))
            assert exact == _outcome(lambda: fraction_exact_vertices(oracle))

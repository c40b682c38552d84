"""Exact elimination: worked projections, soundness by back-substitution,
and the rate-splitting system's agreement with the closed form."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macwtfb.channels import InfoQuantities
from macwtfb.discrete import hybrid_region_for_input
from macwtfb.fm import (
    _PROJECTED_RATE_SPLIT_ROWS,
    LinearSystem,
    _evaluate,
    _information_constants,
    _project_rows,
    _rate_split_rows,
    as_rational,
    eliminate,
    exact_vertices,
    hybrid_closed_form_system,
    project_to,
    rate_splitting_system,
    verify_hybrid_region_projection,
)
from macwtfb.info import ValidationError
from macwtfb.regions import region_from_halfspaces
from oracles import (
    RATE_SPLIT_VARIABLES,
    closed_form_inequalities,
    fraction_eliminate,
    fraction_exact_vertices,
    fraction_project_to,
    fraction_system,
    rate_splitting_inequalities,
)

rationals = st.fractions(min_value=0, max_value=4, max_denominator=64)


# --- rationalization boundary --------------------------------------------------

def test_as_rational_conversions():
    assert as_rational(F(3, 7)) == F(3, 7)
    assert as_rational(2) == F(2)
    assert as_rational(0.25) == F(1, 4)
    assert abs(as_rational(0.3) - F(3, 10)) < F(1, 2**32)


def test_as_rational_rejects_non_finite_and_foreign_types():
    with pytest.raises(ValidationError):
        as_rational(float("nan"))
    with pytest.raises(ValidationError):
        as_rational(float("inf"))
    with pytest.raises(ValidationError):
        as_rational("0.5")
    for flag in (True, False):
        with pytest.raises(ValidationError, match="got bool"):
            as_rational(flag)
    with pytest.raises(ValidationError, match="got bool"):
        verify_hybrid_region_projection(True, 1, 1, 0, 0)


# --- single elimination steps ---------------------------------------------------

def test_transitive_chain():
    s = LinearSystem(("x", "y"), [((1, 0), "<=", 1), ((-1, 1), "<=", 0)])
    r = eliminate(s, "x")
    assert r.variable_names == ("y",)
    assert r.rows == (((1,), F(1)),)


def test_contradiction_surfaces_as_constant_row():
    s = LinearSystem(("x",), [((1,), ">=", 2), ((1,), "<=", 1)])
    r = eliminate(s, "x")
    assert r.is_infeasible
    assert r.rows == (((), F(-1)),)


def test_eliminate_unknown_variable():
    s = LinearSystem(("x",), [((1,), "<=", 1)])
    with pytest.raises(ValidationError):
        eliminate(s, "q")


def test_duplicate_rows_keep_tightest_bound():
    s = LinearSystem(("x", "y"), [((2, 0), "<=", 4), ((1, 0), "<=", 5), ((4, 0), "<=", 2)])
    assert s.rows == (((1, 0), F(1, 2)),)


def test_satisfied_constant_rows_are_dropped():
    s = LinearSystem(("x",), [((0,), "<=", 3), ((1,), "<=", 1)])
    assert s.rows == (((1,), F(1)),)


@pytest.mark.parametrize(
    "coefficient", [0.5, F(1, 2), "1", True], ids=["float", "fraction", "str", "bool"]
)
def test_non_integer_coefficient_names_the_row(coefficient):
    with pytest.raises(ValidationError, match="row 1 has a non-integer coefficient"):
        LinearSystem(("x", "y"), [((1, 0), "<=", 1), ((coefficient, 1), "<=", 1)])


def test_system_is_immutable():
    s = LinearSystem(("x",), [((1,), "<=", 1)])
    with pytest.raises(AttributeError):
        s.rows = ()
    assert s.rows == (((1,), F(1)),)


# --- projection ------------------------------------------------------------------

def test_keep_all_is_identity():
    s = LinearSystem(("x", "y"), [((1, 2), "<=", 3), ((0, 1), ">=", 0)])
    assert project_to(s, ("x", "y")) == s
    assert hash(project_to(s, ("x", "y"))) == hash(s)


def test_simplex_shadow():
    s = LinearSystem(
        ("x", "y", "z"),
        [
            ((1, 1, 1), "<=", 1),
            ((1, 0, 0), ">=", 0),
            ((0, 1, 0), ">=", 0),
            ((0, 0, 1), ">=", 0),
        ],
    )
    shadow = project_to(s, ("x",))
    assert shadow.rows == (((-1,), F(0)), ((1,), F(1)))


def test_projection_keep_set_validation():
    s = LinearSystem(("x", "y"), [((1, 1), "<=", 1)])
    with pytest.raises(ValidationError):
        project_to(s, ())
    with pytest.raises(ValidationError):
        project_to(s, ("x", "nope"))


def _random_box_system(rng):
    names = ("w", "x", "y", "z")
    rows = []
    for k in range(4):
        unit = [0, 0, 0, 0]
        unit[k] = 1
        rows.append((tuple(unit), "<=", 2))
        rows.append((tuple(unit), ">=", -2))
    for _ in range(5):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(4))
        rows.append((coeffs, "<=", rng.randint(1, 4)))
    return LinearSystem(names, rows)


def _feasible_interval(system, var, assignment):
    """Exact [lo, hi] for var given values of all other variables."""
    idx = system.variable_names.index(var)
    lo, hi = None, None
    for coeffs, bound in system.rows:
        weight = coeffs[idx]
        rest = sum(
            c * assignment[name]
            for k, (c, name) in enumerate(zip(coeffs, system.variable_names))
            if k != idx
        )
        if weight > 0:
            cap = F(bound - rest, weight)
            hi = cap if hi is None or cap < hi else hi
        elif weight < 0:
            floor = F(bound - rest, weight)
            lo = floor if lo is None or floor > lo else lo
    return lo, hi


def _satisfies(system, assignment):
    return all(
        sum(c * assignment[n] for c, n in zip(coeffs, system.variable_names)) <= bound
        for coeffs, bound in system.rows
    )


def test_projection_soundness_by_back_substitution():
    # Every point of the projected system extends, coordinate by
    # coordinate, to a point of the original system.
    rng = random.Random(7)
    for _ in range(10):
        original = _random_box_system(rng)
        mid = eliminate(original, "y")
        final = eliminate(mid, "z")
        verts = exact_vertices(final)
        assert verts, "box-bounded system should be nonempty"
        probes = list(verts)
        for p, q in zip(verts, verts[1:]):
            probes.append(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
        for w, x in probes:
            assignment = {"w": w, "x": x}
            lo, hi = _feasible_interval(mid, "z", assignment)
            assert lo is not None and hi is not None and lo <= hi
            assignment["z"] = (lo + hi) / 2
            lo, hi = _feasible_interval(original, "y", assignment)
            assert lo is not None and hi is not None and lo <= hi
            assignment["y"] = (lo + hi) / 2
            assert _satisfies(original, assignment)


def test_projection_completeness_on_sampled_points():
    # The shadow of every original solution satisfies the projection.
    rng = random.Random(11)
    for _ in range(6):
        original = _random_box_system(rng)
        projected = project_to(original, ("w", "x"))
        hits = 0
        for _ in range(60):
            point = {
                name: F(rng.randint(-16, 16), 8)
                for name in original.variable_names
            }
            if _satisfies(original, point):
                hits += 1
                assert _satisfies(projected, {"w": point["w"], "x": point["x"]})
        assert hits > 0


def test_elimination_order_does_not_change_the_shadow():
    rng = random.Random(23)
    for _ in range(8):
        original = _random_box_system(rng)
        forward = original
        for name in ("y", "z"):
            forward = eliminate(forward, name)
        backward = original
        for name in ("z", "y"):
            backward = eliminate(backward, name)
        assert exact_vertices(forward) == exact_vertices(backward)


# --- the rate-splitting system ----------------------------------------------------

def test_split_system_shape():
    s = rate_splitting_system(1, 1, 2, 1, 1)
    assert s.variable_names == ("R1", "R2", "R10", "R11", "R1s", "R20", "R21", "R2s")
    assert len(s.rows) == 15


def test_negative_constants_rejected():
    with pytest.raises(ValidationError):
        rate_splitting_system(1, 1, 1, -F(1, 2), 0)
    with pytest.raises(ValidationError):
        hybrid_closed_form_system(-1, 1, 1, 0, 0)


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
    assert rate_splitting_system(a, b, c, d, e) == split
    closed = fraction_system(("R1", "R2"), closed_form_inequalities(a, b, c, d, e))
    assert hybrid_closed_form_system(a, b, c, d, e) == closed
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
    names, rows = _project_rows(RATE_SPLIT_VARIABLES, _rate_split_rows(consts), {"R1", "R2"})
    assert names == ("R1", "R2")
    assert _evaluate(_PROJECTED_RATE_SPLIT_ROWS, consts) == rows


def test_exact_vertices_requires_two_variables():
    s = LinearSystem(("x",), [((1,), "<=", 1)])
    with pytest.raises(ValidationError):
        exact_vertices(s)


@pytest.mark.parametrize(
    "rows, direction",
    [
        ([((1, 0), "<=", 1)], "(0, 1)"),
        ([((1, 0), "<=", 1), ((0, 1), "<=", 1), ((1, 0), ">=", 0)], "(0, -1)"),
    ],
    ids=["half_plane", "strip"],
)
def test_exact_vertices_rejects_unbounded_systems(rows, direction):
    s = LinearSystem(("x", "y"), rows)
    with pytest.raises(ValidationError) as info:
        exact_vertices(s)
    assert str(info.value) == "system is unbounded along direction " + direction


def test_exact_vertices_of_infeasible_unbounded_system_is_empty():
    # y is free, but x <= -1 and x >= 0 leave no point at all.
    s = LinearSystem(("x", "y"), [((1, 0), "<=", -1), ((1, 0), ">=", 0)])
    assert exact_vertices(s) == ()


small_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 6)), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(small_rows, st.integers(1, 3), st.integers(1, 3), st.integers(0, 6))
def test_exact_vertices_agree_with_float_region(rows, cap1, cap2, cap_bound):
    # Nonnegative bounds keep the origin feasible; the positive cap row and
    # the quadrant keep the polygon bounded.
    rows = rows + [(cap1, cap2, cap_bound), (-1, 0, 0), (0, -1, 0)]
    system = LinearSystem(("R1", "R2"), [((c1, c2), "<=", b) for c1, c2, b in rows])
    exact = [(float(x), float(y)) for x, y in exact_vertices(system)]
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
    system = LinearSystem(("R1", "R2"), [((c1, c2), "<=", b) for c1, c2, b in rows + quadrant])
    exact = _vertices_or_unbounded(lambda: exact_vertices(system))
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
    # The system fm-verify checks and the region the discrete search writes
    # come from one hybrid sum formula; an empty exact region is the
    # degenerate float region.
    exact = exact_vertices(hybrid_closed_form_system(a, b, c, d, e))
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
    system = LinearSystem(names, inequalities)
    assert system == fraction_system(names, inequalities)
    for name in names:
        assert eliminate(system, name) == fraction_eliminate(system, name)
    for keep in (names[:1], names[:2], names[-2:]):
        projected = project_to(system, keep)
        assert projected == fraction_project_to(system, keep)
        if len(keep) == 2:
            exact = _outcome(lambda: exact_vertices(projected))
            assert exact == _outcome(lambda: fraction_exact_vertices(projected))

"""Rate-region geometry: vertex enumeration, canonicalization, containment,
boundary sampling, and hulls."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macwtfb import regions
from macwtfb.gaussian import GaussianMacWt, gaussian_hybrid_region
from macwtfb.info import ValidationError
from macwtfb.regions import (
    TOL,
    Halfspace,
    boundary_samples,
    capped_region,
    contains,
    hull_of_regions,
    is_subset,
    region_from_halfspaces,
    region_to_dict,
)


def verts(region):
    return [tuple(round(c, 9) for c in v) for v in region.vertices]


# --- construction and canonical form -------------------------------------------

def test_unit_square():
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    assert verts(r) == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert len(r.halfspaces) == 2


def test_pentagon():
    r = capped_region(0.5, 0.5, 0.661)
    assert len(r.vertices) == 5
    assert (0.5, pytest.approx(0.161, abs=1e-12)) in [
        (v[0], v[1]) for v in r.vertices
    ]
    assert contains(r, (0.161, 0.5))
    assert r.max_sum() == pytest.approx(0.661, abs=1e-12)


def test_redundant_halfspace_dropped():
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 1), (1, 1, 5)])
    assert verts(r) == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert len(r.halfspaces) == 2
    assert all(h.bound <= 1 + 1e-12 for h in r.halfspaces)


def test_duplicate_halfspaces_merge_to_tightest():
    r = region_from_halfspaces([(1, 0, 1), (2, 0, 1.2), (0, 1, 1)])
    # 2 R1 <= 1.2 is R1 <= 0.6, tighter than R1 <= 1
    assert r.max_r1() == pytest.approx(0.6, abs=1e-12)
    assert len(r.halfspaces) == 2


def test_infeasible_and_zero_sum_degenerate():
    assert region_from_halfspaces([(1, 1, -0.5)]).is_degenerate
    r = region_from_halfspaces([(1, 1, 0.0)])
    assert verts(r) == [(0, 0)]
    assert not contains(r, (0.1, 0.0))
    assert contains(r, (0.0, 0.0))


def test_segment_regions():
    horizontal = region_from_halfspaces([(1, 0, 1), (0, 1, 0)])
    assert verts(horizontal) == [(0, 0), (1, 0)]
    vertical = region_from_halfspaces([(1, 0, 0), (0, 1, 1)])
    assert verts(vertical) == [(0, 0), (0, 1)]


def test_triangle():
    r = region_from_halfspaces([(1, 1, 1)])
    assert verts(r) == [(0, 0), (1, 0), (0, 1)]


def test_unbounded_raises():
    with pytest.raises(ValidationError, match="unbounded"):
        region_from_halfspaces([])
    with pytest.raises(ValidationError, match="unbounded") as info:
        region_from_halfspaces([(1, 0, 1)])  # R2 free
    # the direction prints without a negative zero
    assert str(info.value) == "halfspace intersection is unbounded along direction (0.0, 1.0)"
    with pytest.raises(ValidationError, match="unbounded"):
        region_from_halfspaces([(-1, -1, -1)])  # R1 + R2 >= 1, quadrant cone open


def test_tiny_coefficient_rows_still_bound_the_region():
    # Only an all-zero row is a constant row; -1e-10 R1 <= -1 is R1 >= 1e10.
    def coords(region):
        return [c for v in region.vertices for c in v]

    r = region_from_halfspaces([(-1e-10, 0, -1), (1, 0, 2e10), (0, 1, 1)])
    assert coords(r) == pytest.approx([1e10, 0, 2e10, 0, 2e10, 1, 1e10, 1])
    r = region_from_halfspaces([(1e-10, 0, 5), (0, 1, 1)])
    assert coords(r) == pytest.approx([0, 0, 5e10, 0, 5e10, 1, 0, 1])


def test_overflowing_scaled_bound_names_the_row():
    # Every input is finite, but 1e10 / 1e-300 is not: R1 <= 1e310.
    with pytest.raises(ValidationError) as info:
        region_from_halfspaces([(1e-300, 0, 1e10), (0, 1, 1)])
    assert str(info.value) == (
        "halfspace (1e-300, 0.0, 10000000000.0) bounds the region only beyond "
        "the float range: its scaled bound overflows"
    )


def test_region_contains_its_own_vertices_after_the_quadrant_clamp():
    # R1 + R2 <= -1e-9 meets R2 <= 2.2e-308 at R1 = -1e-9, inside TOL of
    # the quadrant; clamped to (0, 2.2e-308) that point breaks the sum row
    # by more than TOL, so it is no vertex and the region is the origin.
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 2.2250738585072014e-308), (1, 1, -1e-9)])
    assert r.vertices == ((0.0, 0.0),)
    assert is_subset(r, r)


def test_idempotent_reconstruction():
    r = region_from_halfspaces([(1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.661)])
    again = region_from_halfspaces(r.halfspaces)
    assert len(again.vertices) == len(r.vertices)
    for u, v in zip(again.vertices, r.vertices):
        assert u == pytest.approx(v, abs=1e-9)


# --- containment -----------------------------------------------------------------

def test_contains_boundary_tolerance():
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    assert contains(r, (1.0 + 5e-10, 0.5))
    assert not contains(r, (1.0 + 5e-9, 0.5))
    assert not contains(r, (-1e-6, 0.5))


def test_is_subset():
    small = region_from_halfspaces([(1, 0, 0.5), (0, 1, 0.5)])
    big = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    assert is_subset(small, big)
    assert not is_subset(big, small)
    degenerate = region_from_halfspaces([(1, 1, -1)])
    assert is_subset(degenerate, small)


# --- boundary sampling -------------------------------------------------------------

def test_boundary_samples_unit_square():
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    pts = boundary_samples(r, 3)
    assert pts == [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    many = boundary_samples(r, 21)
    assert len(many) == 21
    assert many[0] == (0.0, 1.0) and many[-1] == (1.0, 0.0)
    # ordered by nondecreasing R1
    assert all(many[i + 1][0] >= many[i][0] - 1e-12 for i in range(20))


def test_boundary_samples_stay_on_boundary():
    r = region_from_halfspaces([(1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.661)])
    for p in boundary_samples(r, 17):
        assert contains(r, p)
        tight = min(
            h.bound - h.value_at(p) for h in r.halfspaces
        )
        assert abs(tight) <= 1e-9


def test_boundary_samples_triangle_and_degenerate():
    tri = region_from_halfspaces([(1, 1, 1)])
    pts = boundary_samples(tri, 5)
    assert pts[0] == (0.0, 1.0) and pts[-1] == (1.0, 0.0)
    for x, y in pts:
        assert x + y == pytest.approx(1.0, abs=1e-12)
    assert boundary_samples(tri, 1) == [(0.0, 1.0)]
    assert boundary_samples(tri, 2) == [(0.0, 1.0), (1.0, 0.0)]
    degenerate = region_from_halfspaces([(1, 1, -1)])
    assert boundary_samples(degenerate, 4) == [(0.0, 0.0)] * 4
    with pytest.raises(ValidationError):
        boundary_samples(tri, 0)


@pytest.mark.parametrize("count", [2.5, 3.0, True])
def test_boundary_samples_reject_non_integer_counts(count):
    with pytest.raises(ValidationError, match="count must be an integer"):
        boundary_samples(region_from_halfspaces([(1, 1, 1)]), count)


def test_boundary_samples_do_not_depend_on_the_builtin_sum(monkeypatch):
    # From Python 3.12 the builtin sum of floats is compensated, like fsum.
    # On this region a chain length taken from fsum would move 71 of the 101
    # samples, if the samples read the builtin sum.
    g = GaussianMacWt(0.9788760256797676, 0.21035266803020208, 0.22548300746592062, 2.225666818062565)
    region = gaussian_hybrid_region(g)
    plain = boundary_samples(region, 101)
    monkeypatch.setattr(regions, "sum", math.fsum, raising=False)
    assert boundary_samples(region, 101) == plain


# --- hulls of unions ---------------------------------------------------------------

def test_hull_of_regions():
    tall = region_from_halfspaces([(1, 0, 0.2), (0, 1, 1)])
    wide = region_from_halfspaces([(1, 0, 1), (0, 1, 0.2)])
    hull = hull_of_regions([tall, wide])
    assert is_subset(tall, hull) and is_subset(wide, hull)
    assert contains(hull, (0.55, 0.55))  # midpoint of (0.2,1) and (1,0.2) buckles in
    assert not contains(hull, (0.9, 0.9))
    assert hull.max_r1() == pytest.approx(1.0, abs=1e-9)
    assert hull.max_r2() == pytest.approx(1.0, abs=1e-9)


def test_hull_of_degenerate_regions():
    d = region_from_halfspaces([(1, 1, -1)])
    assert hull_of_regions([d, d]).is_degenerate
    square = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    hull = hull_of_regions([d, square])
    assert verts(hull) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_hull_of_axis_segment():
    seg = region_from_halfspaces([(1, 0, 0.7), (0, 1, 0)])
    hull = hull_of_regions([seg])
    assert hull.max_r1() == pytest.approx(0.7, abs=1e-9)
    assert hull.max_r2() == pytest.approx(0.0, abs=1e-9)
    # same along the other axis: the lone hull edge caps only R1, so the
    # builder must supply the missing R2 cap itself
    upright = region_from_halfspaces([(1, 0, 0), (0, 1, 0.7)])
    hull = hull_of_regions([upright, upright])
    assert hull.max_r1() == pytest.approx(0.0, abs=1e-9)
    assert hull.max_r2() == pytest.approx(0.7, abs=1e-9)


# --- randomized cross-checks ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.floats(-1.0, 3.0),
    st.floats(-1.0, 3.0),
    st.floats(-1.0, 5.0),
    st.integers(0, 10 ** 6),
)
@example(0.0, 1.0, 2.0, 0)  # segment on the R1 axis
@example(1.0, 1.0, 0.0, 0)  # sum cap 0: only the origin
@example(1.0, -0.5, 2.0, 0)  # empty intersection
def test_random_cap_regions_round_trip(r1, r2, s, seed):
    rng = np.random.default_rng(seed)
    rows = [(1.0, 0.0, r1), (0.0, 1.0, r2), (1.0, 1.0, s)]
    base = capped_region(r1, r2, s)
    # a couple of random extra slanted caps
    extra = []
    for _ in range(rng.integers(0, 3)):
        c1, c2 = rng.uniform(0.1, 2.0, size=2)
        extra.append((c1, c2, float(rng.uniform(0.05, 4.0))))
    region = region_from_halfspaces([*base.halfspaces, *extra]) if extra else base
    rows += extra
    if min(r1, r2, s) < -TOL:
        # no quadrant point meets the caps: the documented empty region
        assert region.vertices == ((0.0, 0.0),)
    else:
        # every vertex satisfies every input constraint
        for v in region.vertices:
            assert v[0] >= -1e-9 and v[1] >= -1e-9
            for c1, c2, b in rows:
                assert c1 * v[0] + c2 * v[1] <= b + 1e-8
    # canonicalization is idempotent
    again = region_from_halfspaces(region.halfspaces)
    assert len(again.vertices) == len(region.vertices)
    for u, v in zip(again.vertices, region.vertices):
        assert u == pytest.approx(v, abs=1e-8)


def test_dense_grid_cross_check():
    # grid feasibility agrees with the canonical polygon on a fine lattice
    rows = [(1.0, 0.0, 1.1), (0.0, 1.0, 0.9), (1.0, 1.0, 1.5), (2.0, 1.0, 2.0)]
    region = region_from_halfspaces(rows)
    xs = np.linspace(0, 1.2, 601)
    ys = np.linspace(0, 1.0, 501)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    feas = np.ones_like(X, dtype=bool)
    for c1, c2, b in rows:
        feas &= c1 * X + c2 * Y <= b + 1e-12
    inside = np.ones_like(X, dtype=bool)
    for h in region.halfspaces:
        inside &= h.coeff_r1 * X + h.coeff_r2 * Y <= h.bound + 1e-12
    assert (feas == inside).all()
    # the polygon's extreme sums agree with the grid's
    grid_max_sum = (X + Y)[feas].max()
    assert region.max_sum() == pytest.approx(grid_max_sum, abs=5e-3)


def test_region_to_dict():
    r = region_from_halfspaces([(1, 0, 1), (0, 1, 1)])
    d = region_to_dict(r)
    assert set(d) == {"halfspaces", "vertices"}
    assert [tuple(v) for v in d["vertices"]] == verts(r)
    assert all(set(h) == {"coeff_r1", "coeff_r2", "bound"} for h in d["halfspaces"])


def test_halfspace_validation():
    with pytest.raises(ValidationError):
        Halfspace(float("nan"), 1.0, 1.0)

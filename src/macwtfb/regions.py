"""Two-dimensional rate regions as halfspace intersections.

A region is the intersection of halfspaces coeff_r1*R1 + coeff_r2*R2 <= bound
with the nonnegative quadrant. Regions are canonicalized on construction:
vertices are enumerated from pairwise constraint intersections, ordered
counterclockwise starting at the lexicographically smallest vertex, and
halfspaces that are not tight anywhere are dropped. The empty intersection
canonicalizes to the degenerate region {(0, 0)}.

Every inner region of the package has one shape, built by
``capped_region``: an individual cap on each rate plus a cap on their sum.
The finite-channel sum caps are written once, here, as ``_df_sum`` and
``_hybrid_sum`` of the information quantities, and ``SUM_CAPS`` names them:
its keys are the inner bounds of a finite channel, in file order.  The
discrete search scores the caps on arrays, and ``fm`` evaluates
``_hybrid_sum`` on the integer numerators of constants over one common
denominator.

All comparisons use the absolute tolerance TOL = 1e-9.

No output value goes through the builtin ``sum`` of floats, which is
compensated from Python 3.12 on: ``boundary_samples`` takes its chain
length from one running sum, so the numpy-free commands write the same
bytes on Python 3.10-3.13.

Two polygon steps are shared with the exact vertex enumeration of
``fm.exact_vertices``: the recession-direction test
(``_recession_direction``), which reads only the coefficients, and the
convex hull (``_hull_ccw``).  ``region_from_halfspaces`` calls them on
floats at ``TOL``; ``fm.exact_vertices`` calls them on integers at
tolerance 0 and enumerates its candidate points itself, so the feasible
pairwise intersections (``_feasible_intersections``) are float-only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from . import ValidationError, _integer, _real

TOL = 1e-9
# Line pairs whose determinant is this close to zero count as parallel.
_DET_TOL = 1e-12


class _HalfspaceFields(NamedTuple):
    coeff_r1: float
    coeff_r2: float
    bound: float


class Halfspace(_HalfspaceFields):
    """The constraint coeff_r1 * R1 + coeff_r2 * R2 <= bound, an immutable
    named tuple whose entries are finite floats, by the package's argument
    rule."""

    __slots__ = ()

    def __new__(cls, coeff_r1, coeff_r2, bound):
        return super().__new__(
            cls,
            _real(coeff_r1, "halfspace coeff_r1"),
            _real(coeff_r2, "halfspace coeff_r2"),
            _real(bound, "halfspace bound"),
        )

    @classmethod
    def _make(cls, iterable):  # through __new__, so _replace validates too
        return cls(*iterable)

    def value_at(self, point) -> float:
        return self.coeff_r1 * point[0] + self.coeff_r2 * point[1]


class RateRegion(NamedTuple):
    """Canonical bounded region in the nonnegative quadrant, an immutable
    named tuple.

    vertices are counterclockwise, starting at the lexicographically smallest
    vertex; the quadrant constraints are implied and not stored. Construct
    through region_from_halfspaces, which establishes the invariants.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[float, float], ...]

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) == 1 and self.vertices[0] == (0.0, 0.0)

    def max_sum(self) -> float:
        """Largest R1 + R2 over the region."""
        return max(v[0] + v[1] for v in self.vertices)

    def max_r1(self) -> float:
        return max(v[0] for v in self.vertices)

    def max_r2(self) -> float:
        return max(v[1] for v in self.vertices)


# The region {(0, 0)}, which every empty intersection canonicalizes to.
_DEGENERATE = RateRegion((Halfspace(1.0, 0.0, 0.0), Halfspace(0.0, 1.0, 0.0)), ((0.0, 0.0),))


def _canonical_rows(halfspaces: Iterable):
    """Validate each (c1, c2, bound) triple as a ``Halfspace``, scale it to
    max(|c1|,|c2|) = 1, drop all-zero rows and merge duplicates.

    Returns (rows, infeasible) where rows is a list of (c1, c2, bound) and
    infeasible marks a 0 <= negative row.  Only an exactly zero coefficient
    pair is a constant row: a tiny nonzero pair still bounds the region,
    unless its scaled bound overflows, which raises ValidationError.
    """
    merged: dict[tuple[float, float], float] = {}
    infeasible = False
    for h in map(Halfspace._make, halfspaces):
        scale = max(abs(h.coeff_r1), abs(h.coeff_r2))
        if scale == 0.0:
            if h.bound < -TOL:
                infeasible = True
            continue
        c1, c2, b = h.coeff_r1 / scale, h.coeff_r2 / scale, h.bound / scale
        if not math.isfinite(b):
            raise ValidationError(
                f"halfspace ({h.coeff_r1!r}, {h.coeff_r2!r}, {h.bound!r}) bounds the "
                "region only beyond the float range: its scaled bound overflows"
            )
        key = (round(c1, 12), round(c2, 12))
        if key not in merged or b < merged[key]:
            merged[key] = b
    rows = [(c1, c2, b) for (c1, c2), b in merged.items()]
    return rows, infeasible


def _recession_direction(lines, det_tol=_DET_TOL) -> tuple | None:
    """A nonzero direction d with c1*d[0] + c2*d[1] <= det_tol on every line.

    A recession direction of a plane polyhedron runs along the boundary of
    one of its constraints, so ``±(-c2, c1)`` of every line are the only
    candidates, or ``(1, 0)`` when there are no lines.  None means a
    nonempty intersection is bounded; an empty one may still have a
    direction.  Generic over the number type: integer coefficients at
    ``det_tol=0`` give the exact answer.
    """
    candidates = [d for c1, c2, _ in lines for d in ((-c2, c1), (c2, -c1))] or [(1, 0)]
    for d in candidates:
        if all(c1 * d[0] + c2 * d[1] <= det_tol for c1, c2, _ in lines):
            return d
    return None


def _feasible_intersections(lines) -> list[tuple[float, float]]:
    """Pairwise intersections of the lines c1*x + c2*y = b that satisfy
    every c1*x + c2*y <= b within ``TOL``, in first-seen pair order.

    Pairs whose determinant is within ``_DET_TOL`` of zero count as
    parallel and are skipped; repeated points are tested once.
    """
    relaxed = [(c1, c2, b + TOL) for c1, c2, b in lines]
    feasible: dict[tuple, bool] = {}  # keyed in first-seen order
    for i in range(len(lines)):
        a1, a2, b1 = lines[i]
        for j in range(i + 1, len(lines)):
            c1, c2, b2 = lines[j]
            det = a1 * c2 - a2 * c1
            if abs(det) <= _DET_TOL:
                continue
            p = ((b1 * c2 - b2 * a2) / det, (a1 * b2 - b1 * c1) / det)
            if p not in feasible:
                feasible[p] = all(r1 * p[0] + r2 * p[1] <= r for r1, r2, r in relaxed)
    return [p for p, ok in feasible.items() if ok]


def _dedupe(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    kept: list[tuple[float, float]] = []
    for p in points:
        if not any(abs(p[0] - q[0]) <= TOL and abs(p[1] - q[1]) <= TOL for q in kept):
            kept.append(p)
    return kept


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_ccw(points: list[tuple], tol=TOL) -> list[tuple]:
    """Monotone-chain convex hull, counterclockwise from the lexicographic min.

    Collinear intermediate points are removed; a turn counts as collinear
    within ``tol`` times the point extent.  With ``tol=0`` the hull of
    integer points is exact.
    """
    pts = sorted(points)
    if len(pts) <= 2:
        return pts
    eps = tol * max(1.0, max(max(abs(p[0]), abs(p[1])) for p in pts)) if tol else 0

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= eps:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if hull else [pts[0]]


def region_from_halfspaces(halfspaces: Iterable) -> RateRegion:
    """Canonical region for the given halfspaces intersected with the quadrant.

    Accepts Halfspace objects or (coeff_r1, coeff_r2, bound) triples. Returns
    the degenerate region {(0,0)} when no quadrant point is feasible. Raises
    ValidationError if the intersection is unbounded.
    """
    rows, infeasible = _canonical_rows(halfspaces)
    if infeasible:
        return _DEGENERATE

    lines = rows + [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    candidates = _feasible_intersections(lines)
    if not candidates:
        return _DEGENERATE

    direction = _recession_direction(lines)
    if direction is not None:
        direction = (direction[0] + 0.0, direction[1] + 0.0)  # no negative zero
        raise ValidationError(
            f"halfspace intersection is unbounded along direction {direction}"
        )

    # Clamping onto the quadrant can move a point that met a row only
    # within TOL past it; such a point is no vertex of the region, or the
    # region would not contain its own vertices.
    clamped = [(max(p[0], 0.0), max(p[1], 0.0)) for p in candidates]
    clamped = [p for p in clamped if all(c1 * p[0] + c2 * p[1] <= b + TOL for c1, c2, b in rows)]
    if not clamped:
        return _DEGENERATE
    verts = _hull_ccw(_dedupe(clamped))

    kept = []
    for c1, c2, b in rows:
        slack = min(b - (c1 * vx + c2 * vy) for vx, vy in verts)
        if abs(slack) <= TOL * max(1.0, abs(b)):
            kept.append(Halfspace(c1, c2, b))
    kept.sort(key=lambda h: (-h.coeff_r1, h.coeff_r2, h.bound))
    return RateRegion(tuple(kept), tuple((float(x), float(y)) for x, y in verts))


def capped_region(r1_cap: float, r2_cap: float, sum_cap: float) -> RateRegion:
    """The region R1 <= r1_cap, R2 <= r2_cap, R1 + R2 <= sum_cap."""
    return region_from_halfspaces([(1.0, 0.0, r1_cap), (0.0, 1.0, r2_cap), (1.0, 1.0, sum_cap)])


def _df_sum(a, b, c, d, e, minimum=min):
    """Decode-and-forward sum-rate cap min(c, a + b) - d.

    ``minimum`` is ``min`` for scalars (exact on integers) and
    ``np.minimum`` for arrays that hold one quantity per search lane."""
    return minimum(c, a + b) - d


def _hybrid_sum(a, b, c, d, e, minimum=min):
    """Hybrid sum-rate cap min(c, a + b) - d + min(d, e): the DF cap plus the
    key refund min(d, e), by which the feedback key rate e partly repays the
    leakage debit d.

    ``minimum`` is ``min`` for scalars (exact on integers) and
    ``np.minimum`` for arrays that hold one quantity per search lane."""
    return _df_sum(a, b, c, d, e, minimum) + minimum(d, e)


# The inner bounds of a finite channel and their sum caps, in file order.
# A name's position here is part of the discrete search's RNG stream key
# (df 0, hybrid 1): reordering the table changes every searched region.
SUM_CAPS = {"df": _df_sum, "hybrid": _hybrid_sum}


def contains(region: RateRegion, point) -> bool:
    """Whether the point lies in the region, within absolute tolerance ``TOL``."""
    x, y = float(point[0]), float(point[1])
    if x < -TOL or y < -TOL:
        return False
    # Not implied by the halfspace test below: the degenerate region of
    # region_from_halfspaces([(1, 1, 0)]) keeps only the row (1, 1, 0), which
    # admits (2e-9, -1e-9) within TOL; the region is the single point (0, 0).
    if region.is_degenerate:
        return abs(x) <= TOL and abs(y) <= TOL
    return all(h.value_at((x, y)) <= h.bound + TOL for h in region.halfspaces)


def is_subset(inner: RateRegion, outer: RateRegion) -> bool:
    """Whether inner is contained in outer (within ``TOL``); exact for convex polygons."""
    return all(contains(outer, v) for v in inner.vertices)


def _pareto_path(region: RateRegion) -> list[tuple[float, float]]:
    """Upper-right boundary chain, from the highest-R2 end to the highest-R1 end."""
    verts = list(region.vertices)
    n = len(verts)
    start = max(range(n), key=lambda i: (verts[i][1], -verts[i][0]))
    end = max(range(n), key=lambda i: (verts[i][0], -verts[i][1]))
    path = [verts[start]]
    i = start
    while i != end:
        i = (i - 1) % n  # clockwise in the counterclockwise list
        path.append(verts[i])
    return path


def boundary_samples(region: RateRegion, count: int) -> list[tuple[float, float]]:
    """Evenly spaced points along the upper-right boundary, by arc length.

    Ordered by increasing R1; both endpoints of the chain are included.
    ``count`` is an integer of at least 1 by the package's argument rule.
    """
    _integer(count, "count", 1)
    path = _pareto_path(region)
    seg_len = [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(path, path[1:])]
    cum = list(itertools.accumulate(seg_len, initial=0.0))
    if count == 1 or cum[-1] <= 0.0:
        return [path[0]] * count

    samples = []
    for k in range(count - 1):
        target = cum[-1] * k / (count - 1)
        i = bisect.bisect_left(cum, target, 1, len(seg_len)) - 1  # capped at the last segment
        t = (target - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
        x = path[i][0] + t * (path[i + 1][0] - path[i][0])
        y = path[i][1] + t * (path[i + 1][1] - path[i][1])
        samples.append((x, y))
    samples.append(path[-1])
    return samples


def hull_of_regions(regions: Sequence[RateRegion]) -> RateRegion:
    """Convex hull of a union of regions (the time-sharing region).

    Assumes each input region is closed downward (every constraint has
    nonnegative coefficients), which holds for all bound regions produced
    by this package.
    """
    if not regions:
        raise ValidationError("hull_of_regions needs at least one region")
    points = [v for r in regions for v in r.vertices]
    if max(max(abs(x), abs(y)) for x, y in points) <= TOL:
        return _DEGENERATE
    hull = _hull_ccw(_dedupe(points))
    halfspaces = []
    # A segment has a single generating edge; a polygon closes back to hull[0].
    for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1] if len(hull) > 2 else hull[1:]):
        nx, ny = qy - py, px - qx  # outward normal of a counterclockwise edge
        if max(nx, ny) <= 1e-12:
            continue  # quadrant-facing edge, implied by nonnegativity
        # region_from_halfspaces scales each row to max(|c1|, |c2|) = 1.
        halfspaces.append(Halfspace(nx, ny, nx * px + ny * py))
    # Axis caps: redundant for a two-dimensional hull, but they close the
    # region when the hull collapses to a segment on either axis (whose only
    # counterclockwise edge bounds just one coordinate).
    halfspaces.append(Halfspace(1.0, 0.0, max(x for x, _ in hull)))
    halfspaces.append(Halfspace(0.0, 1.0, max(y for _, y in hull)))
    return region_from_halfspaces(halfspaces)


def region_to_dict(region: RateRegion) -> dict:
    """JSON-ready structure with halfspaces and vertices."""
    return {
        "halfspaces": [
            {"coeff_r1": h.coeff_r1, "coeff_r2": h.coeff_r2, "bound": h.bound}
            for h in region.halfspaces
        ],
        "vertices": [[x, y] for x, y in region.vertices],
    }

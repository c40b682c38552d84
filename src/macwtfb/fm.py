"""Exact Fourier-Motzkin elimination and the rate-splitting consistency check.

The hybrid inner bound is stated as a closed-form region in the pair of
message rates, but its proof works with six auxiliary rates: a common part,
a key-protected part and a residual randomization part per transmitter.
This module re-derives the closed form independently: it encodes the
auxiliary constraint system verbatim, projects it onto the message-rate
plane by Fourier-Motzkin elimination in exact rational arithmetic, and
compares the projected polygon vertex by vertex with the closed form.  The
closed form's sum cap is the same function the discrete search uses
(``regions._hybrid_sum``), so the check certifies the formula the package
writes, not a copy of it.

Every coefficient is an integer and no floating-point comparison occurs
anywhere in this module.  Inputs pass the package's scalar rule once, at
the boundary (``as_rational``): integers stay exact, and other reals are
rationalized with denominators capped at 2**32, an error far below every
tolerance used elsewhere in the package.  A system is a list of integer
rows ``(coeffs, beta)`` over one system denominator ``D``, meaning
``coeffs . x <= beta / D``; ``Fraction`` appears only in the vertices
``exact_vertices`` returns.  The three stages are ``rate_splitting_system``
(the constants over one ``D`` and the split rows), ``project_to`` (the
elimination) and ``exact_vertices``; each accepts any integer rows.

The rate-splitting rows have fixed integer coefficients; only their bounds,
integer combinations of the five constants (a, b, c, d, e), change from
instance to instance.  So the elimination runs once per process, when the
module is imported, on the system with the five constants as columns that
are never eliminated, and its result is a table of 28 projected rows.  The
check puts the five constants over one ``D``, evaluates the 28 projected
rows and the closed form on them and enumerates both vertex sets; only the
bounds are computed per instance.  ``exact_vertices`` brings the evaluated
rows to the normal form below like any other input, and takes what depends
on the coefficients alone (the recession test, and for each pair of lines
their intersection and the feasibility test in terms of the bounds) from a
bounded memo keyed on the coefficient tuple; the check's two systems have
one coefficient tuple each on nearly every instance.

``project_to`` and ``exact_vertices`` bring their rows to one normal form:
rows with the same direction (the primitive coefficient vector) are merged
keeping the tightest bound, found by cross-multiplying, satisfied constant
rows are dropped, and a contradictory constant row collapses the whole
system to the single marker row ``0 <= -1``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import ValidationError, _integer, _real
from .regions import _hull_ccw, _hybrid_sum, _recession_direction

__all__ = [
    "ProjectionCheck",
    "as_rational",
    "exact_vertices",
    "project_to",
    "rate_splitting_system",
    "verify_hybrid_region_projection",
]

#: Denominator cap used when rationalizing floating-point inputs.
RATIONALIZE_DENOMINATOR = 1 << 32

# An inequality over a system denominator D: integer coefficients and an
# integer bound beta, meaning coeffs . x <= beta / D.
IntRow = tuple[tuple[int, ...], int]
# A row of a coefficient table: integer coefficients and the integer weights
# of the five constants (a, b, c, d, e), meaning coeffs . x <= weights . consts.
TableRow = tuple[tuple[int, ...], tuple[int, ...]]


def as_rational(value, what: str = "value") -> Fraction:
    """Convert an integer, Fraction or other real number to an exact
    rational under the package's scalar rule.  An integer (numpy's
    ``int64`` too) stays exact at any size and sign; any other real
    (numpy's ``float32`` too) is rounded to the nearest fraction with
    denominator at most 2**32, so downstream arithmetic is exact and
    reproducible.  A bool, an array or text raises a ``ValidationError``
    that names the value ``what``.
    """
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(_integer(value, what))
    except ValidationError:
        pass
    return Fraction(_real(value, what)).limit_denominator(RATIONALIZE_DENOMINATOR)


RATE_SPLIT_VARIABLES = ("R1", "R2", "R10", "R11", "R1s", "R20", "R21", "R2s")

# The rate-splitting system as ``<=`` rows: integer coefficients over
# RATE_SPLIT_VARIABLES, and the integer weights of (a, b, c, d, e) whose
# sum is the bound.  An equality is two rows; a ``>=`` row is negated.
_RATE_SPLIT_ROWS = (
    ((0, 0, 1, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0)),  # R10 + R11 + R1s <= a
    ((0, 0, 0, 0, 0, 1, 1, 1), (0, 1, 0, 0, 0)),  # R20 + R21 + R2s <= b
    ((0, 0, 1, 1, 1, 1, 1, 1), (0, 0, 1, 0, 0)),  # all six split rates <= c
    ((0, 0, 0, 1, 1, 0, 1, 1), (0, 0, 0, 1, 0)),  # R11 + R1s + R21 + R2s <= d
    ((0, 0, 0, 0, -1, 0, 0, -1), (0, 0, 0, -1, 1)),  # R1s + R2s >= d - e
    ((1, 0, -1, -1, 0, 0, 0, 0), (0, 0, 0, 0, 0)),  # R1 = R10 + R11
    ((-1, 0, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 1, 0, 0, 0, -1, -1, 0), (0, 0, 0, 0, 0)),  # R2 = R20 + R21
    ((0, -1, 0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0)),
    ((0, 0, -1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),  # every split rate >= 0
    ((0, 0, 0, -1, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, -1, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, -1, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0, 0, 0, -1), (0, 0, 0, 0, 0)),
)


def rate_splitting_system(a, b, c, d, e) -> tuple[int, list[IntRow]]:
    """The auxiliary-rate constraint system behind the hybrid inner bound,
    as its denominator ``D`` and its integer rows over ``D``.

    Variables (``RATE_SPLIT_VARIABLES``): message rates R1, R2 and the six
    split rates R10, R11, R1s, R20, R21, R2s (common, key-protected and
    randomization parts).  The constants are the channel information
    quantities: a and b bound each transmitter's decodable total, c the
    joint total, d the leakage total of the key-protected and randomization
    parts, and the randomization parts must cover the leakage left
    uncovered by the feedback key, whose rate is at most e.
    """
    denominator, consts = _information_constants(a, b, c, d, e)
    return denominator, _evaluate(_RATE_SPLIT_ROWS, consts)


def project_to(
    names: Sequence[str], rows: Iterable[IntRow], keep_variables: Iterable[str]
) -> tuple[tuple[str, ...], list[IntRow]]:
    """Eliminate every variable outside ``keep_variables``: the kept names,
    in their order in ``names``, and the normalized projected rows.

    Every upper bound on an eliminated variable is combined with every lower
    bound, so the result's feasible set is precisely the shadow of the
    input's.  At each step the variable with the fewest upper-times-lower
    bound pairs is eliminated first, which keeps intermediate systems small
    on the block-structured inputs this package produces.  Each row must
    have one coefficient per name; a row of another width raises
    ``ValidationError`` naming it.
    """
    keep = set(keep_variables)
    if not keep:
        raise ValidationError("must keep at least one variable")
    missing = keep.difference(names)
    if missing:
        raise ValidationError("unknown variables in keep set: %s" % sorted(missing))
    names, rows = tuple(names), list(rows)
    for row in rows:
        if len(row[0]) != len(names):
            raise ValidationError("row %r has %d coefficients for %d variables" % (row, len(row[0]), len(names)))
    rows = _normalize(rows)

    def pair_count(at: int) -> int:
        return sum(c[at] > 0 for c, _ in rows) * sum(c[at] < 0 for c, _ in rows)

    while drops := [at for at, name in enumerate(names) if name not in keep]:
        at = min(drops, key=pair_count)
        rows = _eliminate_rows(rows, at)
        names = names[:at] + names[at + 1 :]
    return names, rows


def exact_vertices(denominator: int, rows: Iterable[IntRow]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Vertices of a bounded two-variable system over ``denominator``, in
    exact rationals.

    Candidate points are all pairwise boundary-line intersections; the
    feasible ones are reduced to extreme points by an exact convex hull.
    Everything runs on integers: the scaled system ``coeffs . (x, y) <= beta``
    has its intersections in homogeneous integer coordinates ``(x, y, m)``,
    ``m > 0`` and the gcd divided out, and a point is feasible when
    ``c1*x + c2*y <= beta*m`` on every row.  The recession test and the hull
    are the ones ``regions.region_from_halfspaces`` uses on floats, run here
    at tolerance 0; the recession test and the pairwise intersection formulas
    read only the coefficients and are memoized on them, so a system whose
    coefficients were seen before costs only its bounds.  ``Fraction``
    vertices are built for the hull only.
    The result is ordered counterclockwise starting from the
    lexicographically smallest vertex, so equal regions give equal tuples.
    An infeasible system yields the empty tuple.  A feasible system that
    is unbounded raises ``ValidationError`` naming a primitive direction
    along which it is unbounded (every system built in this module is
    bounded).  ``denominator`` must be an integer of at least 1 and every
    row must have two coefficients, or ``ValidationError`` is raised.
    """
    denominator = _integer(denominator, "denominator", 1)
    rows = list(rows)
    for coeffs, _ in rows:
        if len(coeffs) != 2:
            raise ValidationError("vertex enumeration needs exactly two variables, got %d" % len(coeffs))
    rows = _normalize(rows)
    if rows and not any(rows[0][0]):  # the marker row 0 <= -1, alone in its system
        return ()
    direction, pairs = _geometry(tuple((c1, c2) for (c1, c2), _ in rows))
    if direction is not None:
        if _eliminate_rows(_eliminate_rows(rows, 0), 0):
            return ()
        g = math.gcd(*direction)
        raise ValidationError("system is unbounded along direction %r" % ((direction[0] // g, direction[1] // g),))
    bounds = [beta for _, beta in rows]
    points = set()
    for i, j, xi, xj, yi, yj, m, others in pairs:
        bi, bj = bounds[i], bounds[j]
        for k, u, v in others:
            if u * bi + v * bj > m * bounds[k]:
                break
        else:
            x, y = xi * bi + xj * bj, yi * bi + yj * bj
            g = math.gcd(x, y, m)
            points.add((x // g, y // g, m // g))
    scale = math.lcm(*(m for _, _, m in points))
    hull = _hull_ccw([(x * scale // m, y * scale // m) for x, y, m in points], 0)
    den = scale * denominator
    return tuple((_fraction(x, den), _fraction(y, den)) for x, y in hull)


class ProjectionCheck(NamedTuple):
    """Outcome of comparing the projected rate-splitting system with the
    closed-form hybrid region, an immutable named tuple.

    ``match`` is an exact rational verdict on the two vertex tuples; an
    empty (infeasible) region has the empty tuple.
    """

    match: bool
    projected_vertices: tuple[tuple[Fraction, Fraction], ...]
    closed_form_vertices: tuple[tuple[Fraction, Fraction], ...]


def verify_hybrid_region_projection(a, b, c, d, e) -> ProjectionCheck:
    """Project the rate-splitting system to the message-rate plane and
    compare with the closed form, exactly.

    Any float input is rationalized first, so the comparison is a strict
    polygon equality, not a tolerance check.  The elimination itself runs
    once per process, at import, on the rate-splitting system with the five
    constants as columns that are never eliminated; each instance only
    evaluates the 28 projected rows on the constants over their common
    denominator.  Both systems are then integer rows over that denominator,
    and ``exact_vertices`` normalizes each like any other input and
    enumerates its vertices from its bounds and the memoized geometry of
    its coefficients.
    """
    denominator, consts = _information_constants(a, b, c, d, e)
    projected_vertices = exact_vertices(denominator, _evaluate(_PROJECTED_RATE_SPLIT_ROWS, consts))
    closed_vertices = exact_vertices(denominator, _closed_form_rows(*consts))
    return ProjectionCheck(
        match=projected_vertices == closed_vertices,
        projected_vertices=projected_vertices,
        closed_form_vertices=closed_vertices,
    )


# --- internals ----------------------------------------------------------------


def _information_constants(*values) -> tuple[int, list[int]]:
    """The constants rationalized and checked nonnegative, as integer
    numerators over their least common denominator."""
    ratios = [as_rational(v, name).as_integer_ratio() for name, v in zip("abcde", values)]
    denominator = math.lcm(*(d for _, d in ratios))
    numerators = [n * (denominator // d) for n, d in ratios]
    if min(numerators) < 0:
        raise ValidationError("information quantities must be nonnegative")
    return denominator, numerators


def _evaluate(table: Sequence[TableRow], consts: Sequence[int]) -> list[IntRow]:
    """The rows of a coefficient table for the constants over one
    denominator: each bound is ``weights . consts``."""
    return [(coeffs, sum(map(operator.mul, weights, consts))) for coeffs, weights in table]


def _closed_form_rows(a: int, b: int, c: int, d: int, e: int) -> list[IntRow]:
    """The closed-form hybrid region R1 <= a, R2 <= b,
    R1 + R2 <= min(c, a + b) - d + min(d, e), both rates nonnegative, as
    rows over (R1, R2) for the constants over one denominator.  The sum cap
    is the package's own hybrid formula, the one the discrete search
    writes; ``_hybrid_sum`` is positively homogeneous, so it gives the cap
    over the denominator too."""
    sum_bound = _hybrid_sum(a, b, c, d, e)
    return [((1, 0), a), ((0, 1), b), ((1, 1), sum_bound), ((-1, 0), 0), ((0, -1), 0)]


# Vertex coordinates by numerator and denominator, memoized: the two systems
# of a matching check share their vertices, which then are the same objects,
# so the verdict's tuple comparison takes the identity shortcut instead of
# Fraction.__eq__.
_fraction = functools.lru_cache(maxsize=256)(Fraction)


@functools.lru_cache(maxsize=64)
def _geometry(coeffs: tuple[tuple[int, int], ...]) -> tuple:
    """What ``exact_vertices`` derives from the coefficients alone, memoized
    (the systems of the check have two coefficient tuples between them):
    ``regions._recession_direction`` at tolerance 0, and each pair of lines
    i < j that meet as ``(i, j, xi, xj, yi, yj, m, others)``.  With bounds
    ``b``, they meet at ``(xi*bi + xj*bj, yi*bi + yj*bj, m)`` in homogeneous
    coordinates, ``m > 0``, and that point is feasible when ``u*bi + v*bj <=
    m*bk`` for each ``(k, u, v)`` of ``others``, one per other line; lines i
    and j hold with equality there."""
    direction = _recession_direction([(c1, c2, 0) for c1, c2 in coeffs], det_tol=0)
    pairs = []
    for i, (a1, a2) in enumerate(coeffs):
        for j in range(i + 1, len(coeffs)):
            c1, c2 = coeffs[j]
            m = a1 * c2 - a2 * c1
            if m:
                s = 1 if m > 0 else -1
                xi, xj, yi, yj = s * c2, -s * a2, -s * c1, s * a1
                others = tuple(
                    (k, r1 * xi + r2 * yi, r1 * xj + r2 * yj) for k, (r1, r2) in enumerate(coeffs) if k not in (i, j)
                )
                pairs.append((i, j, xi, xj, yi, yj, s * m, others))
    return direction, tuple(pairs)


def _eliminate_rows(rows: list[IntRow], idx: int) -> list[IntRow]:
    """One Fourier-Motzkin step on integer rows: every upper bound on
    variable ``idx`` is combined with every lower bound."""
    upper, lower, out = [], [], []
    for coeffs, beta in rows:
        weight = coeffs[idx]
        reduced = coeffs[:idx] + coeffs[idx + 1 :]
        if weight > 0:
            upper.append((weight, reduced, beta))
        elif weight < 0:
            lower.append((-weight, reduced, beta))
        else:
            out.append((reduced, beta))
    for wu, ru, bu in upper:
        for wl, rl, bl in lower:
            out.append((tuple(wl * u + wu * l for u, l in zip(ru, rl)), wl * bu + wu * bl))
    return _normalize(out)


def _normalize(rows: Iterable[IntRow]) -> list[IntRow]:
    """The normal form of integer rows over one denominator, sorted by
    direction; of two rows with one direction, the one with the smaller
    bound over content is kept, compared by cross-multiplying.  Coefficients
    may come as any sequence and leave as tuples."""
    merged: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]] = {}
    for coeffs, beta in rows:
        coeffs = tuple(coeffs)
        content = math.gcd(*coeffs)
        if not content:
            if beta < 0:
                return [(coeffs, -1)]  # the marker row 0 <= -1
            continue
        direction = tuple(c // content for c in coeffs) if content > 1 else coeffs
        held = merged.get(direction)
        if held is None or beta * held[2] < held[1] * content:
            merged[direction] = (coeffs, beta, content)
    return [merged[direction][:2] for direction in sorted(merged)]


def _project_rate_split_table() -> tuple[TableRow, ...]:
    """The rate-splitting table projected onto (R1, R2): a coefficient table
    over (R1, R2) and the weights of (a, b, c, d, e).

    The elimination runs on the table's 13-column system
    ``coeffs . x - weights . (a, b, c, d, e) <= 0``, in which the five
    constants are columns that are never eliminated.  Fixing the constants
    after this projection gives the same set as fixing them before it, so
    each instance only evaluates the projected rows.
    """
    constants = ("a", "b", "c", "d", "e")
    rows = [(coeffs + tuple(-w for w in weights), 0) for coeffs, weights in _RATE_SPLIT_ROWS]
    _, projected = project_to(RATE_SPLIT_VARIABLES + constants, rows, {"R1", "R2", *constants})
    return tuple((coeffs[:2], tuple(-w for w in coeffs[2:])) for coeffs, _ in projected)


#: The projected rate-splitting rows, eliminated once per process at import;
#: each instance evaluates all of them, and ``exact_vertices`` normalizes the
#: result like any other input.
_PROJECTED_RATE_SPLIT_ROWS = _project_rate_split_table()

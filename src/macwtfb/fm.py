"""Exact Fourier-Motzkin elimination and the rate-splitting consistency check.

The hybrid inner bound is stated as a closed-form region in the pair of
message rates, but its proof works with six auxiliary rates: a common part,
a key-protected part and a residual randomization part per transmitter.
This module re-derives the closed form independently: it encodes the
auxiliary constraint system verbatim, projects it onto the message-rate
plane by Fourier-Motzkin elimination in exact rational arithmetic, and
compares the projected polygon vertex by vertex with the closed form.  The
closed form's sum cap is the same function the discrete search uses
(``channels._hybrid_sum``), so the check certifies the formula the package
writes, not a copy of it.

Every coefficient is an integer and every bound a ``fractions.Fraction``;
no floating-point comparison occurs anywhere in this module.  Float inputs
are rationalized once at the boundary with denominators capped at 2**32,
an error far below every tolerance used elsewhere in the package.

Rows are kept in a canonical normal form: the coefficient vector of each
inequality ``coeffs . x <= bound`` is scaled to primitive integers (content
divided out), identical coefficient vectors are merged keeping the tightest
bound, satisfied constant rows are dropped, and a contradictory constant
row collapses the whole system to the single marker row ``0 <= -1``.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .channels import _hybrid_sum
from .info import ValidationError
from .regions import _hull_ccw, _intersection_candidates

__all__ = [
    "LinearSystem",
    "ProjectionCheck",
    "as_rational",
    "eliminate",
    "exact_vertices",
    "hybrid_closed_form_system",
    "project_to",
    "rate_splitting_system",
    "verify_hybrid_region_projection",
]

#: Denominator cap used when rationalizing floating-point inputs.
RATIONALIZE_DENOMINATOR = 1 << 32

# A normalized inequality: primitive integer coefficients and a rational
# upper bound, meaning coeffs . x <= bound.
Row = tuple[tuple[int, ...], Fraction]


def as_rational(value) -> Fraction:
    """Convert an int, Fraction or float to an exact rational.

    Floats are rounded to the nearest fraction with denominator at most
    2**32, so downstream arithmetic is exact and reproducible.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError("cannot rationalize non-finite value %r" % value)
        return Fraction(value).limit_denominator(RATIONALIZE_DENOMINATOR)
    raise ValidationError(
        "expected int, float or Fraction, got %s" % type(value).__name__
    )


@dataclasses.dataclass(frozen=True, init=False)
class LinearSystem:
    """A finite list of linear inequalities over named variables.

    Construct with inequalities given as ``(coefficients, relation, bound)``
    triples where ``relation`` is ``"<="`` or ``">="``, every coefficient is
    an ``int`` and the bound is an int, float or ``Fraction``; everything is
    stored as normalized ``<=`` rows.  The row list is kept sorted, so two
    systems with the same feasible description compare equal.  Instances
    are immutable and hashable.
    """

    variable_names: tuple[str, ...]
    rows: tuple[Row, ...]

    def __init__(
        self,
        variable_names: Sequence[str],
        inequalities: Iterable[tuple[Sequence[int], str, object]],
    ) -> None:
        names = tuple(variable_names)
        if not names:
            raise ValidationError("a system needs at least one variable")
        if len(set(names)) != len(names):
            raise ValidationError("variable names must be distinct")
        rows = []
        for index, (coeffs, relation, bound) in enumerate(inequalities):
            vec = tuple(coeffs)
            if len(vec) != len(names):
                raise ValidationError(
                    "coefficient vector has length %d, expected %d"
                    % (len(vec), len(names))
                )
            if not all(isinstance(c, int) for c in vec):
                raise ValidationError("row %d has a non-integer coefficient: %r" % (index, vec))
            b = as_rational(bound)
            if relation == ">=":
                vec = tuple(-c for c in vec)
                b = -b
            elif relation != "<=":
                raise ValidationError("relation must be '<=' or '>=', got %r" % relation)
            rows.append(_canonical_row(vec, b))
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "rows", _normalize(len(names), rows))

    @classmethod
    def _from_rows(cls, names: tuple[str, ...], rows: tuple[Row, ...]) -> "LinearSystem":
        system = object.__new__(cls)
        object.__setattr__(system, "variable_names", names)
        object.__setattr__(system, "rows", rows)
        return system

    @property
    def is_infeasible(self) -> bool:
        """True when normalization surfaced a contradictory constant row."""
        return any(not any(c) and b < 0 for c, b in self.rows)


def eliminate(system: LinearSystem, drop_variable: str) -> LinearSystem:
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
    return LinearSystem._from_rows(names, _normalize(len(names), rows))


def project_to(system: LinearSystem, keep_variables: Iterable[str]) -> LinearSystem:
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

        current = eliminate(current, min(drops, key=pair_count))


RATE_SPLIT_VARIABLES = ("R1", "R2", "R10", "R11", "R1s", "R20", "R21", "R2s")


def rate_splitting_system(a, b, c, d, e) -> LinearSystem:
    """The auxiliary-rate constraint system behind the hybrid inner bound.

    Variables: message rates R1, R2 and the six split rates R10, R11, R1s,
    R20, R21, R2s (common, key-protected and randomization parts).  The
    constants are the channel information quantities: a and b bound each
    transmitter's decodable total, c the joint total, d the leakage total
    of the key-protected and randomization parts, and the randomization
    parts must cover the leakage left uncovered by the feedback key, whose
    rate is at most e.
    """
    a, b, c, d, e = _information_constants(a, b, c, d, e)

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
    return LinearSystem(RATE_SPLIT_VARIABLES, inequalities)


def hybrid_closed_form_system(a, b, c, d, e) -> LinearSystem:
    """The closed-form hybrid region as a two-variable system:
    R1 <= a, R2 <= b, R1 + R2 <= min(c, a + b) - d + min(d, e), both
    rates nonnegative.  The sum cap is the package's own hybrid formula,
    the one the discrete search writes, evaluated on rationals."""
    a, b, c, d, e = _information_constants(a, b, c, d, e)
    sum_bound = _hybrid_sum(a, b, c, d, e)
    return LinearSystem(
        ("R1", "R2"),
        [
            ((1, 0), "<=", a),
            ((0, 1), "<=", b),
            ((1, 1), "<=", sum_bound),
            ((1, 0), ">=", 0),
            ((0, 1), ">=", 0),
        ],
    )


def exact_vertices(system: LinearSystem) -> tuple[tuple[Fraction, Fraction], ...]:
    """Vertices of a bounded two-variable system, in exact rationals.

    Candidate points are all pairwise boundary-line intersections; the
    feasible ones are reduced to extreme points by an exact convex hull.
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
    rows = system.rows
    # A nonzero recession direction of a plane polyhedron runs along some
    # row's boundary line, or anywhere when there are no rows.
    directions = [d for (c1, c2), _ in rows for d in ((-c2, c1), (c2, -c1))] or [(1, 0)]
    for d in directions:
        if all(c1 * d[0] + c2 * d[1] <= 0 for (c1, c2), _ in rows):
            x, y = system.variable_names
            if eliminate(eliminate(system, x), y).is_infeasible:
                return ()
            raise ValidationError("system is unbounded along direction %r" % (d,))
    points = set(_intersection_candidates([(c1, c2, b) for (c1, c2), b in rows], 0))
    feasible = [
        p for p in points
        if all(c[0] * p[0] + c[1] * p[1] <= b for c, b in rows)
    ]
    if not feasible:
        return ()
    return tuple(_hull_ccw(feasible, 0))


@dataclasses.dataclass(frozen=True)
class ProjectionCheck:
    """Outcome of comparing the projected rate-splitting system with the
    closed-form hybrid region.

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
    polygon equality, not a tolerance check.
    """
    projected = project_to(rate_splitting_system(a, b, c, d, e), ("R1", "R2"))
    closed = hybrid_closed_form_system(a, b, c, d, e)
    projected_vertices = exact_vertices(projected)
    closed_vertices = exact_vertices(closed)
    return ProjectionCheck(
        match=projected_vertices == closed_vertices,
        projected_vertices=projected_vertices,
        closed_form_vertices=closed_vertices,
    )


# --- internals ----------------------------------------------------------------


def _information_constants(*values) -> list[Fraction]:
    consts = [as_rational(v) for v in values]
    if any(v < 0 for v in consts):
        raise ValidationError("information quantities must be nonnegative")
    return consts


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

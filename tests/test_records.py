"""The value records of the numpy-free modules: ``regions.Halfspace``,
``regions.RateRegion``, ``gaussian.GaussianMacWt``, ``fm.ProjectionCheck``
and ``power.PowerControlResult``.

``Halfspace`` and ``GaussianMacWt`` validate and coerce on construction.
Each record keeps its fields in a fixed order, cannot be changed after
construction, compares and hashes by its fields, prints as
``Name(field=value, ...)`` and survives a pickle round trip.
"""

import math
import pickle
from fractions import Fraction

import pytest

from macwtfb import ValidationError
from macwtfb.fm import ProjectionCheck, verify_hybrid_region_projection
from macwtfb.gaussian import GaussianMacWt
from macwtfb.power import BELOW_THRESHOLD, PowerControlResult, optimal_power
from macwtfb.regions import Halfspace, RateRegion, capped_region, region_from_halfspaces

INF, NAN = math.inf, math.nan

# Each record's builder and one of its fields.
RECORDS = [
    pytest.param(lambda: Halfspace(1, 0, 2), "bound", id="Halfspace"),
    pytest.param(lambda: capped_region(1, 1, 1.5), "vertices", id="RateRegion"),
    pytest.param(lambda: GaussianMacWt(1, 1, 1, 10), "p1", id="GaussianMacWt"),
    pytest.param(lambda: verify_hybrid_region_projection(1, 1, 0, 0, 0), "match", id="ProjectionCheck"),
    pytest.param(lambda: optimal_power(200.0, GaussianMacWt(1, 1, 5, 2)), "regime", id="PowerControlResult"),
]


# --- validation ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, message",
    [
        ((NAN, 0, 0), "halfspace coeff_r1 must be finite, got nan"),
        ((1, INF, 0), "halfspace coeff_r2 must be finite, got inf"),
        ((1, 0, -INF), "halfspace bound must be finite, got -inf"),
    ],
)
def test_halfspace_rejects_non_finite_entries(args, message):
    with pytest.raises(ValidationError) as info:
        Halfspace(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 1, 1, 1), "p1 must be finite and nonnegative, got -1.0"),
        ((1, INF, 1, 1), "p2 must be finite and nonnegative, got inf"),
        ((1, 1, 0, 1), "sigma1_sq must be finite and positive, got 0.0"),
        ((1, 1, 1, -2), "sigma2_sq must be finite and positive, got -2.0"),
        ((1, 1, 1, INF), "sigma2_sq must be finite and positive, got inf"),
        ((1e308, 1e308, 1, 1), "(p1 + p2) / min(sigma1_sq, sigma2_sq) overflows to infinity"),
        ((1e300, 0, 1e-10, 1), "(p1 + p2) / min(sigma1_sq, sigma2_sq) overflows to infinity"),
    ],
)
def test_gaussian_model_rejects_bad_powers_and_variances(args, message):
    with pytest.raises(ValidationError) as info:
        GaussianMacWt(*args)
    assert str(info.value) == message


def test_validating_records_coerce_their_fields_to_float():
    h = Halfspace(1, 0, 2)
    assert h.bound == 2.0 and type(h.bound) is float
    assert all(type(v) is float for v in (h.coeff_r1, h.coeff_r2, h.bound))
    assert Halfspace(Fraction(1, 2), 0, 1).coeff_r1 == 0.5
    g = GaussianMacWt(1, Fraction(1, 4), 2, 10)
    assert all(type(v) is float for v in (g.p1, g.p2, g.sigma1_sq, g.sigma2_sq))
    assert g.p2 == 0.25


def test_records_take_their_fields_by_keyword():
    assert Halfspace(coeff_r1=1, coeff_r2=0, bound=2) == Halfspace(1, 0, 2)
    assert GaussianMacWt(p1=1, p2=1, sigma1_sq=1, sigma2_sq=10) == GaussianMacWt(1, 1, 1, 10)
    region = capped_region(1, 1, 1.5)
    assert RateRegion(halfspaces=region.halfspaces, vertices=region.vertices) == region
    check = verify_hybrid_region_projection(1, 1, 0, 0, 0)
    assert ProjectionCheck(
        match=check.match,
        projected_vertices=check.projected_vertices,
        closed_form_vertices=check.closed_form_vertices,
    ) == check
    result = optimal_power(1.0, GaussianMacWt(1, 1, 1, 10))
    assert PowerControlResult(
        p1_star=result.p1_star,
        p2_star=result.p2_star,
        r_sum_star=result.r_sum_star,
        regime=result.regime,
        threshold=result.threshold,
    ) == result


def test_records_keep_their_fields_in_order():
    assert Halfspace._fields == ("coeff_r1", "coeff_r2", "bound")
    assert RateRegion._fields == ("halfspaces", "vertices")
    assert GaussianMacWt._fields == ("p1", "p2", "sigma1_sq", "sigma2_sq")
    assert ProjectionCheck._fields == ("match", "projected_vertices", "closed_form_vertices")
    assert PowerControlResult._fields == ("p1_star", "p2_star", "r_sum_star", "regime", "threshold")
    assert tuple(PowerControlResult(1.0, 2.0, 0.5, BELOW_THRESHOLD, 3.0)) == (1.0, 2.0, 0.5, BELOW_THRESHOLD, 3.0)


# --- immutability, equality, hash -----------------------------------------------------


@pytest.mark.parametrize("build, field", RECORDS)
def test_records_are_immutable(build, field):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build, field", RECORDS)
def test_records_compare_and_hash_by_fields(build, field):
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_records_with_different_fields_differ():
    assert Halfspace(1, 0, 2) != Halfspace(1, 0, 3)
    assert capped_region(1, 1, 1.5) != capped_region(1, 1, 1.25)
    assert GaussianMacWt(1, 1, 1, 10) != GaussianMacWt(1, 1, 1, 9)
    assert verify_hybrid_region_projection(1, 1, 0, 0, 0) != verify_hybrid_region_projection(1, 1, 1, 0, 0)
    assert optimal_power(200.0, GaussianMacWt(1, 1, 5, 2)) != optimal_power(20.0, GaussianMacWt(1, 1, 5, 2))


# --- repr and pickle --------------------------------------------------------------------


def test_records_print_as_class_name_and_fields():
    assert repr(Halfspace(1, 0, 2)) == "Halfspace(coeff_r1=1.0, coeff_r2=0.0, bound=2.0)"
    assert repr(region_from_halfspaces([(1, 1, 0)])) == (
        "RateRegion(halfspaces=(Halfspace(coeff_r1=1.0, coeff_r2=1.0, bound=0.0),), vertices=((0.0, 0.0),))"
    )
    assert repr(GaussianMacWt(1, 1, 1, 10)) == "GaussianMacWt(p1=1.0, p2=1.0, sigma1_sq=1.0, sigma2_sq=10.0)"
    assert repr(verify_hybrid_region_projection(1, 1, 0, 0, 0)) == (
        "ProjectionCheck(match=True, projected_vertices=((Fraction(0, 1), Fraction(0, 1)),), "
        "closed_form_vertices=((Fraction(0, 1), Fraction(0, 1)),))"
    )
    assert repr(PowerControlResult(1.0, 2.0, 0.5, BELOW_THRESHOLD, 3.0)) == (
        "PowerControlResult(p1_star=1.0, p2_star=2.0, r_sum_star=0.5, regime='below_threshold', threshold=3.0)"
    )


@pytest.mark.parametrize("build, field", RECORDS)
def test_records_survive_a_pickle_round_trip(build, field):
    record = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record)
        assert copy == record and repr(copy) == repr(record)


def test_replace_validates_and_coerces_like_construction():
    # _replace is the named-tuple way to change a field; it goes through __new__.
    h = Halfspace(1, 0, 2)._replace(bound=3)
    assert h == Halfspace(1, 0, 3) and type(h.bound) is float and type(h) is Halfspace
    with pytest.raises(ValidationError, match="^halfspace bound must be finite, got inf$"):
        Halfspace(1, 0, 2)._replace(bound=INF)
    assert GaussianMacWt(1, 1, 1, 10)._replace(p2=2) == GaussianMacWt(1, 2, 1, 10)
    with pytest.raises(ValidationError, match="^p1 must be finite and nonnegative, got -1.0$"):
        GaussianMacWt(1, 1, 1, 10)._replace(p1=-1)

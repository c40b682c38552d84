"""Gaussian closed forms: frozen reference values and structural invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwtfb import ValidationError
from macwtfb.gaussian import (
    GaussianMacWt,
    df_sum_bound,
    gaussian_df_region,
    gaussian_hybrid_region,
    gaussian_outer_region,
    gaussian_outer_sum,
    hybrid_sum_bound,
    tekin_yener_region,
)
from macwtfb.regions import is_subset

# Frozen reference values, computed independently at 30-digit precision.
FIG2 = GaussianMacWt(1.0, 1.0, 1.0, 10.0)
FIG2_DF_SUM = 0.66096404744368117
FIG2_HYBRID_SUM = 0.79248125036057809
FIG2_TY_R1 = 0.43723455895807054
FIG2_OUTER = 2.6320580859017973

FIG3 = GaussianMacWt(10.0, 10.0, 5.0, 2.0)
FIG3_HYBRID_SUM = 1.1609640474436812
FIG3_OUTER = 2.8395768355412192

ONE_OVER_2PIE = 0.058549831524319161


# --- frozen closed-form values -----------------------------------------------

def test_fig2_df_region():
    r = gaussian_df_region(FIG2)
    assert r.max_r1() == pytest.approx(0.5, abs=1e-12)
    assert r.max_r2() == pytest.approx(0.5, abs=1e-12)
    assert r.max_sum() == pytest.approx(FIG2_DF_SUM, abs=1e-12)
    assert len(r.vertices) == 5  # pentagon: the sum cap is active


def test_fig2_hybrid_region():
    r = gaussian_hybrid_region(FIG2)
    assert r.max_sum() == pytest.approx(FIG2_HYBRID_SUM, abs=1e-12)
    # the key gain here is the eavesdropper leakage term, giving back
    # exactly what the sum cap subtracted
    assert hybrid_sum_bound(FIG2) == pytest.approx(
        0.5 * math.log2(3.0), abs=1e-12
    )


def test_fig2_tekin_yener_region():
    r = tekin_yener_region(FIG2)
    assert r.max_r1() == pytest.approx(FIG2_TY_R1, abs=1e-12)
    assert r.max_r2() == pytest.approx(FIG2_TY_R1, abs=1e-12)
    assert r.max_sum() == pytest.approx(FIG2_DF_SUM, abs=1e-12)


def test_fig2_outer():
    assert gaussian_outer_sum(FIG2) == pytest.approx(FIG2_OUTER, abs=1e-12)
    tri = gaussian_outer_region(FIG2)
    assert tri.max_sum() == pytest.approx(FIG2_OUTER, abs=1e-12)
    assert len(tri.vertices) == 3


def test_fig3_regions():
    assert gaussian_df_region(FIG3).vertices == ((0.0, 0.0),)
    assert tekin_yener_region(FIG3).vertices == ((0.0, 0.0),)
    assert gaussian_hybrid_region(FIG3).max_sum() == pytest.approx(
        FIG3_HYBRID_SUM, abs=1e-12
    )
    assert gaussian_outer_sum(FIG3) == pytest.approx(FIG3_OUTER, abs=1e-12)


def test_fig3_df_sum_is_negative():
    # the eavesdropper channel is better, so the difference goes negative
    assert df_sum_bound(FIG3) < 0


# --- structure and domains ------------------------------------------------------

def test_equal_variances():
    g = GaussianMacWt(1.0, 1.0, 2.0, 2.0)
    assert df_sum_bound(g) == 0.0
    assert gaussian_df_region(g).is_degenerate
    with pytest.raises(ValidationError, match="equal noise variances"):
        gaussian_outer_sum(g)


def test_hybrid_warns_below_entropy_floor():
    g = GaussianMacWt(1.0, 1.0, 0.05, 0.5)  # sigma1_sq < 1/(2 pi e)
    with pytest.warns(RuntimeWarning, match="evaluated literally"):
        gaussian_hybrid_region(g)


def test_outer_clamped_at_zero():
    # variance gap so small that the entropy term would go negative
    g = GaussianMacWt(1.0, 1.0, 1.01, 1.0)
    assert gaussian_outer_sum(g) == 0.0
    assert gaussian_outer_region(g).is_degenerate


def test_zero_power_segment():
    g = GaussianMacWt(1.0, 0.0, 1.0, 10.0)
    r = tekin_yener_region(g)
    assert r.max_r2() == pytest.approx(0.0, abs=1e-12)
    assert r.max_r1() > 0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
    st.floats(0.06, 8.0),
    st.floats(0.05, 8.0),
)
def test_region_nesting(p1, p2, s1, s2):
    # Only the algebraic identities are asserted here.  The hybrid inner
    # region and the conditional-entropy outer region come from unrelated
    # arguments and genuinely cross for small main-channel noise (for
    # instance P = (0, 1), variances (0.125, 1)), so hybrid-inside-outer
    # is checked only at the preset parameter points in the figure tests.
    g = GaussianMacWt(p1, p2, s1, s2)
    df = gaussian_df_region(g)
    hybrid = gaussian_hybrid_region(g)
    ty = tekin_yener_region(g)
    assert is_subset(df, hybrid)
    assert is_subset(ty, df)


def test_hybrid_inside_outer_at_preset_parameters():
    for g in (FIG2, FIG3):
        hybrid = gaussian_hybrid_region(g)
        assert is_subset(hybrid, gaussian_outer_region(g))
        assert is_subset(gaussian_df_region(g), gaussian_outer_region(g))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1.001, 3.0))
def test_sum_bounds_monotone_in_power_when_eavesdropper_noisier(p, s1, ratio):
    s2 = s1 * ratio  # sigma2_sq > sigma1_sq
    lo = GaussianMacWt(p, p, s1, s2)
    hi = GaussianMacWt(2 * p, 2 * p, s1, s2)
    assert df_sum_bound(hi) >= df_sum_bound(lo) - 1e-12
    assert hybrid_sum_bound(hi) >= hybrid_sum_bound(lo) - 1e-12
    assert gaussian_outer_sum(hi) >= gaussian_outer_sum(lo) - 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.1, 10.0),
    st.floats(1.5, 10.0),
    st.booleans(),
)
def test_outer_sum_matches_schur_complement(p1, p2, lo, ratio, main_noisier):
    # Independent derivation of h(Y|Z): with N1, N2 coupled so that the
    # noisier output is a degraded copy of the other, Cov(Y, Z) = S + min
    # variance, and Var(Y|Z) is the Schur complement of the 2x2 covariance.
    # One expression covers both variance orders.  The ranges keep the
    # variance gap large enough against S + max variance that the
    # subtraction below loses well under 1e-12 bits.
    s1, s2 = (lo * ratio, lo) if main_noisier else (lo, lo * ratio)
    s = p1 + p2
    cov = s + min(s1, s2)
    var_y_given_z = (s + s1) - cov * cov / (s + s2)
    reference = 0.5 * math.log2(2.0 * math.pi * math.e * var_y_given_z)
    g = GaussianMacWt(p1, p2, s1, s2)
    assert gaussian_outer_sum(g) == pytest.approx(max(0.0, reference), abs=1e-12)


def test_power_independent_outer_when_main_noisier():
    a = GaussianMacWt(1.0, 1.0, 5.0, 2.0)
    b = GaussianMacWt(100.0, 3.0, 5.0, 2.0)
    assert gaussian_outer_sum(a) == gaussian_outer_sum(b)

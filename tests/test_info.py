"""Information-measure core: frozen oracle values, brute-force cross-checks,
and algebraic property tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwtfb.gaussian import gaussian_diff_entropy
from macwtfb.info import (
    ConsistencyError,
    JointDist,
    ValidationError,
    conditional_entropy,
    entropy,
    mutual_information,
)

# Frozen reference values, computed independently at 30-digit precision.
H2_011 = 0.499915958164528
GDE_1 = 2.0470955851806411
GDE_3 = 2.8395768355412192


def random_joint(shape, seed):
    rng = np.random.default_rng(seed)
    m = rng.random(shape)
    return JointDist(m / m.sum())


# --- entropy -----------------------------------------------------------------

def test_entropy_bernoulli_frozen():
    assert entropy(JointDist([0.11, 0.89])) == pytest.approx(H2_011, abs=1e-12)


def test_entropy_uniform_and_deterministic():
    assert entropy(JointDist([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)
    assert entropy(JointDist([1.0, 0.0, 0.0])) == 0.0


def test_entropy_brute_force_oracle():
    # independent plain-math evaluation over the atoms
    j = random_joint((3, 4), seed=7)
    expected = -sum(
        p * math.log2(p) for p in j.mass.ravel() if p > 0
    )
    assert entropy(j) == pytest.approx(expected, abs=1e-13)


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
def test_entropy_bounds(weights):
    mass = np.array(weights) / sum(weights)
    h = entropy(JointDist(mass))
    assert -1e-12 <= h <= math.log2(len(weights)) + 1e-12


@given(
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
)
def test_entropy_concavity(w1, w2, lam):
    p = np.array(w1) / sum(w1)
    q = np.array(w2) / sum(w2)
    mix = JointDist(lam * p + (1 - lam) * q)
    blend = lam * entropy(JointDist(p)) + (1 - lam) * entropy(JointDist(q))
    assert entropy(mix) >= blend - 1e-9


# --- conditional entropy and mutual information ------------------------------

def test_conditional_entropy_brute_force_oracle():
    j = random_joint((3, 2, 4), seed=11)
    # H(X0 | X2) from first principles: -sum p(x0,x2) log2 p(x0|x2)
    p_02 = j.mass.sum(axis=1)
    p_2 = p_02.sum(axis=0)
    expected = 0.0
    for i in range(3):
        for k in range(4):
            if p_02[i, k] > 0:
                expected -= p_02[i, k] * math.log2(p_02[i, k] / p_2[k])
    assert conditional_entropy(j, [0], [2]) == pytest.approx(expected, abs=1e-12)


def test_mutual_information_brute_force_oracle():
    j = random_joint((2, 3, 2, 2), seed=13)
    # I(X0; X2 | X1, X3) from first principles over the atoms
    m = j.mass
    p_g = m.sum(axis=(0, 2))
    p_lg = m.sum(axis=2)
    p_rg = m.sum(axis=0)
    expected = 0.0
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(2):
                for i3 in range(2):
                    p = m[i0, i1, i2, i3]
                    if p > 0:
                        expected += p * math.log2(
                            p * p_g[i1, i3] / (p_lg[i0, i1, i3] * p_rg[i1, i2, i3])
                        )
    got = mutual_information(j, [0], [2], [1, 3])
    assert got == pytest.approx(expected, abs=1e-12)


def test_chain_rule():
    j = random_joint((4, 5), seed=3)
    h_joint = entropy(j)
    h_0 = entropy(JointDist(j.marginal([0])))
    assert h_joint == pytest.approx(h_0 + conditional_entropy(j, [1], [0]), abs=1e-12)


def test_conditioning_reduces_entropy():
    j = random_joint((4, 4), seed=5)
    h_0 = entropy(JointDist(j.marginal([0])))
    assert conditional_entropy(j, [0], [1]) <= h_0 + 1e-12


def test_mutual_information_symmetry_and_independence():
    j = random_joint((3, 4), seed=9)
    assert mutual_information(j, [0], [1]) == pytest.approx(
        mutual_information(j, [1], [0]), abs=1e-12
    )
    px = np.array([0.2, 0.8])
    py = np.array([0.5, 0.3, 0.2])
    indep = JointDist(np.outer(px, py))
    assert mutual_information(indep, [0], [1]) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 31 - 1))
def test_mutual_information_nonnegative(seed):
    j = random_joint((2, 3, 2), seed=seed)
    assert mutual_information(j, [0], [1], [2]) >= 0.0


def test_marginal_axis_order():
    j = random_joint((2, 3, 4), seed=21)
    m = j.marginal([2, 0])
    assert m.shape == (4, 2)
    np.testing.assert_allclose(m, j.mass.sum(axis=1).T, atol=1e-15)


# --- gaussian differential entropy --------------------------------------------

def test_gaussian_diff_entropy_frozen():
    assert gaussian_diff_entropy(1.0) == pytest.approx(GDE_1, abs=1e-12)
    assert gaussian_diff_entropy(3.0) == pytest.approx(GDE_3, abs=1e-12)


def test_gaussian_diff_entropy_scaling():
    # adding log2(k)/2 per variance factor k
    assert gaussian_diff_entropy(4.0) == pytest.approx(gaussian_diff_entropy(1.0) + 1.0, abs=1e-12)


@given(st.floats(1e-6, 1e6), st.floats(1.0001, 10.0))
def test_gaussian_diff_entropy_monotone(v, factor):
    assert gaussian_diff_entropy(v * factor) > gaussian_diff_entropy(v)


def test_gaussian_diff_entropy_domain():
    with pytest.raises(ValidationError):
        gaussian_diff_entropy(0.0)
    with pytest.raises(ValidationError):
        gaussian_diff_entropy(-1.0)


# --- validation ---------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValidationError):
        JointDist([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValidationError):
        JointDist([0.5, 0.6, -0.1])
    with pytest.raises(ValidationError):
        JointDist(np.array([[0.5, np.nan], [0.25, 0.25]]))


def test_axis_validation():
    j = random_joint((2, 2), seed=1)
    with pytest.raises(ValidationError):
        conditional_entropy(j, [0], [0])
    with pytest.raises(ValidationError):
        mutual_information(j, [0], [5])
    with pytest.raises(ValidationError):
        mutual_information(j, [0, 0], [1])

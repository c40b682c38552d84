"""Channel assembly, information-quantity extraction, and channel-file IO."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macwtfb import ValidationError
from macwtfb.channels import (
    InputFactorization,
    MacWiretapKernel,
    WiretapKernel,
    assemble_joint,
    info_quantities,
    joint_from_input_law,
    load_channel,
    parse_channel,
)
from macwtfb.gaussian import GaussianMacWt, gaussian_diff_entropy

from oracles import uniform_factorization


def random_kernel(shape, seed):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    t /= t.sum(axis=(-2, -1), keepdims=True)
    return MacWiretapKernel(t)


def random_factorization(u, x1, x2, seed):
    rng = np.random.default_rng(seed)

    def rows(n, k):
        m = rng.random((n, k))
        return m / m.sum(axis=1, keepdims=True)

    pu = rng.random(u)
    return InputFactorization(pu / pu.sum(), rows(u, x1), rows(u, x2))


def xor_kernel():
    """Y = X1 xor X2 noiselessly, Z constant (carries nothing)."""
    t = np.zeros((2, 2, 2, 1))
    for a in range(2):
        for b in range(2):
            t[a, b, a ^ b, 0] = 1.0
    return MacWiretapKernel(t)


# --- first-principles oracle ----------------------------------------------------

def oracle_quantities(kernel, fact):
    """Recompute the six quantities by direct sums over atoms, no shared code."""
    U, A, B = fact.u_size, kernel.x1_size, kernel.x2_size
    Y, Z = kernel.y_size, kernel.z_size
    j = np.zeros((U, A, B, Y, Z))
    for u in range(U):
        for a in range(A):
            for b in range(B):
                for y in range(Y):
                    for z in range(Z):
                        j[u, a, b, y, z] = (
                            fact.u_dist[u]
                            * fact.x1_given_u[u, a]
                            * fact.x2_given_u[u, b]
                            * kernel.transition[a, b, y, z]
                        )

    def H(axes):
        keep = j.sum(axis=tuple(i for i in range(5) if i not in axes))
        return -sum(p * math.log2(p) for p in keep.ravel() if p > 0)

    a_q = H((0, 1, 2)) + H((0, 2, 3)) - H((0, 2)) - H((0, 1, 2, 3))
    b_q = H((0, 1, 2)) + H((0, 1, 3)) - H((0, 1)) - H((0, 1, 2, 3))
    c_q = H((1, 2)) + H((3,)) - H((1, 2, 3))
    d_q = H((1, 2)) + H((4,)) - H((1, 2, 4))
    e_q = H((1, 2, 3, 4)) - H((1, 2, 4))
    hyz = H((3, 4)) - H((4,))
    return a_q, b_q, c_q, d_q, e_q, hyz


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_info_quantities_match_oracle(seed):
    kernel = random_kernel((2, 2, 2, 2), seed)
    fact = random_factorization(3, 2, 2, seed + 100)
    got = info_quantities(kernel, fact)
    a, b, c, d, e, hyz = oracle_quantities(kernel, fact)
    assert got.a == pytest.approx(a, abs=1e-12)
    assert got.b == pytest.approx(b, abs=1e-12)
    assert got.c == pytest.approx(c, abs=1e-12)
    assert got.d == pytest.approx(d, abs=1e-12)
    assert got.e == pytest.approx(e, abs=1e-12)
    assert got.h_y_given_z == pytest.approx(hyz, abs=1e-12)


def test_quantity_bounds():
    kernel = random_kernel((2, 3, 4, 2), seed=42)
    fact = random_factorization(2, 2, 3, seed=43)
    q = info_quantities(kernel, fact)
    assert 0 <= q.c <= math.log2(kernel.y_size) + 1e-12
    assert 0 <= q.d <= math.log2(kernel.z_size) + 1e-12
    # extra conditioning can only lower the residual entropy of Y
    assert q.e <= q.h_y_given_z + 1e-12
    assert q.h_y_given_z <= math.log2(kernel.y_size) + 1e-12


def test_xor_kernel_quantities():
    q = info_quantities(xor_kernel(), uniform_factorization(1, 2, 2))
    # knowing X2 makes Y reveal X1 exactly; Z is useless
    assert q.a == pytest.approx(1.0, abs=1e-12)
    assert q.b == pytest.approx(1.0, abs=1e-12)
    assert q.c == pytest.approx(1.0, abs=1e-12)
    assert q.d == pytest.approx(0.0, abs=1e-12)
    assert q.e == pytest.approx(0.0, abs=1e-12)
    assert q.h_y_given_z == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(("noisy", "copy", "blind")),
    st.integers(0, 2**32 - 1),
)
def test_degraded_kernel_splits_h_y_given_z(u, x1, x2, y, eavesdropper, seed):
    # Z drawn from Y by a channel: X1 X2 -> Y -> Z is Markov, so
    # H(Y|X1,X2,Z) = H(Y|X1,X2) + H(Z|Y) - H(Z|X1,X2) and
    # c - d + e = H(Y) + H(Z|Y) - H(Z) = H(Y|Z) for every input law.
    rng = np.random.default_rng(seed)
    y_given_x = rng.dirichlet(np.ones(y), size=(x1, x2))
    z_given_y = {
        "noisy": rng.dirichlet(np.ones(3), size=y),
        "copy": np.eye(y),
        "blind": np.ones((y, 1)),
    }[eavesdropper]
    kernel = MacWiretapKernel(np.einsum("aby,yz->abyz", y_given_x, z_given_y))
    q = info_quantities(kernel, random_factorization(u, x1, x2, seed))
    assert abs(q.c - q.d + q.e - q.h_y_given_z) <= 1e-12


def _binned_gaussian(mean, sigma, width):
    """Bin masses of N(mean, sigma^2) at ``width`` over +-(2 + 8 sigma); the
    end bins hold the tails."""
    half = 2 + 8 * sigma
    edges = [-half + k * width for k in range(1, math.ceil(2 * half / width))]
    cdf = [0.5 * (1 + math.erf((t - mean) / (sigma * math.sqrt(2)))) for t in edges]
    return np.diff([0.0, *cdf, 1.0])


def test_binned_gaussian_kernel_approaches_the_gaussian_model():
    # BPSK inputs +-1 per user through Y = X1 + X2 + N1 and Z = X1 + X2 + N2
    # at (sigma1^2, sigma2^2) = (1, 10), both outputs binned at width w.  Y and
    # Z are independent given the inputs, so e is the entropy of binned N1,
    # which tends to h(N1) - log2 w from above, the gap shrinking about
    # fourfold per halving; a, c and d settle.
    inputs = InputFactorization([1.0], [[0.5, 0.5]], [[0.5, 0.5]])
    means = [x1 + x2 for x1 in (-1, 1) for x2 in (-1, 1)]
    gaps, found = [], []
    for width in (1, 0.5, 0.25, 0.125):
        y = np.reshape([_binned_gaussian(m, 1.0, width) for m in means], (2, 2, -1))
        z = np.reshape([_binned_gaussian(m, math.sqrt(10), width) for m in means], (2, 2, -1))
        q = info_quantities(MacWiretapKernel(np.einsum("aby,abz->abyz", y, z)), inputs)
        gaps.append(q.e - (gaussian_diff_entropy(1.0) - math.log2(width)))
        found.append((q.a, q.c, q.d))
    assert all(0.0 < gap < 0.3 * previous for previous, gap in zip([math.inf, *gaps], gaps))
    assert gaps[-1] < 0.002
    assert all(abs(fine - coarse) < 0.002 for coarse, fine in zip(*found[-2:]))


def test_assemble_joint_matches_hand_product():
    kernel = random_kernel((2, 2, 2, 2), seed=8)
    fact = random_factorization(2, 2, 2, seed=9)
    j = assemble_joint(kernel, fact)
    assert j.axis_sizes == (2, 2, 2, 2, 2)
    assert j.mass.sum() == pytest.approx(1.0, abs=1e-12)
    expected = (
        fact.u_dist[:, None, None, None, None]
        * fact.x1_given_u[:, :, None, None, None]
        * fact.x2_given_u[:, None, :, None, None]
        * kernel.transition[None, :, :, :, :]
    )
    np.testing.assert_allclose(j.mass, expected, atol=1e-15)


def test_joint_from_input_law():
    kernel = random_kernel((2, 2, 3, 2), seed=10)
    q = np.array([[0.1, 0.2], [0.3, 0.4]])
    j = joint_from_input_law(kernel, q)
    assert j.axis_sizes == (2, 2, 3, 2)
    np.testing.assert_allclose(j.marginal([0, 1]), q, atol=1e-12)
    with pytest.raises(ValidationError):
        joint_from_input_law(kernel, np.array([[0.5, 0.5]]))


def test_alphabet_mismatch_rejected():
    kernel = random_kernel((2, 2, 2, 2), seed=3)
    with pytest.raises(ValidationError):
        assemble_joint(kernel, uniform_factorization(1, 3, 2))
    with pytest.raises(ValidationError):
        assemble_joint(kernel, uniform_factorization(1, 2, 4))


def test_kernel_validation_and_renormalization():
    t = np.full((1, 1, 2, 2), 0.25)
    t[0, 0, 0, 0] += 5e-10  # within the renormalization allowance
    k = MacWiretapKernel(t)
    assert k.transition.sum() == pytest.approx(1.0, abs=1e-15)

    bad = np.full((1, 1, 2, 2), 0.25)
    bad[0, 0, 0, 0] += 1e-6
    with pytest.raises(ValidationError):
        MacWiretapKernel(bad)
    with pytest.raises(ValidationError):
        MacWiretapKernel(-t)
    with pytest.raises(ValidationError):
        MacWiretapKernel(np.full((2, 2, 2), 0.25))


def test_empty_conditional_table_rejected():
    with pytest.raises(ValidationError, match="empty"):
        InputFactorization([1.0], np.zeros((1, 0)), [[1.0]])


def test_wiretap_kernel():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[0, 0, 1] = 0.5
    t[1, 1, 0] = t[1, 1, 1] = 0.5
    k = WiretapKernel(t)
    assert isinstance(k, MacWiretapKernel)
    assert (k.x1_size, k.x2_size, k.y_size, k.z_size) == (2, 1, 2, 2)
    assert k.transition.tobytes() == MacWiretapKernel(t[:, None]).transition.tobytes()
    with pytest.raises(ValidationError, match=r"transition must have 3 axes \(x, y, z\), got shape \(2, 1, 2, 2\)"):
        WiretapKernel(t[:, None])


def test_gaussian_model_validation():
    g = GaussianMacWt(1.0, 2.0, 1.0, 10.0)
    assert g.p1 == 1.0
    with pytest.raises(ValidationError):
        GaussianMacWt(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        GaussianMacWt(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        GaussianMacWt(1.0, 1.0, 1.0, math.inf)


# --- channel files ---------------------------------------------------------------

def test_channel_json_round_trip(tmp_path):
    kernel = random_kernel((2, 3, 2, 2), seed=77)
    path = tmp_path / "chan.json"
    doc = {"x1_size": 2, "x2_size": 3, "y_size": 2, "z_size": 2, "transition": kernel.transition.tolist()}
    path.write_text(json.dumps(doc))
    loaded = load_channel(path)
    np.testing.assert_allclose(loaded.transition, kernel.transition, atol=1e-15)


def test_channel_json_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"x1_size": 2,\n  "oops"')
    with pytest.raises(ValidationError, match=r"line \d+"):
        load_channel(bad_json)

    with pytest.raises(ValidationError, match="missing keys"):
        parse_channel({"x1_size": 2})
    with pytest.raises(ValidationError, match="^x1_size must be an integer of at least 1, got 0$"):
        parse_channel(
            {"x1_size": 0, "x2_size": 1, "y_size": 1, "z_size": 1, "transition": []}
        )
    doc = {
        "x1_size": 1, "x2_size": 1, "y_size": 2, "z_size": 1,
        "transition": [[[[0.5], [0.6]]]],  # row sums to 1.1
    }
    with pytest.raises(ValidationError, match="sums to"):
        parse_channel(doc)
    doc["transition"] = [[[[0.5], [0.5], [0.0]]]]  # wrong y size
    with pytest.raises(ValidationError, match="shape"):
        parse_channel(doc)

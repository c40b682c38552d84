"""Acceptance suite: one test per shipped acceptance criterion.

Each test name carries its criterion number, so a verbose run prints one
pass/fail line per criterion.  Criteria 1 and 2 check their region
constants, the outer-bound sums among them, as the closed forms correctly
rounded to 6 decimals, at the stated 1e-6 tolerance.  Each is paired with a
companion test that pins the full-precision closed-form value.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from macwtfb.channels import (
    InputFactorization,
    MacWiretapKernel,
    WiretapKernel,
    info_quantities,
)
from macwtfb.cli import _fm_cases
from macwtfb.discrete import (
    SearchConfig,
    feedback_secrecy_capacity,
    region_for_input,
    search_inner,
    search_outer,
    wyner_capacity,
)
from macwtfb.fm import verify_hybrid_region_projection
from macwtfb.gaussian import (
    TWO_PI_E,
    GaussianMacWt,
    df_sum_bound,
    gaussian_df_region,
    gaussian_hybrid_region,
    gaussian_outer_sum,
    hybrid_sum_bound,
    tekin_yener_region,
)
from macwtfb.power import optimal_power, saturation_threshold
from macwtfb.regions import is_subset

from oracles import grid_oracle, uniform_factorization

FIG2 = GaussianMacWt(1.0, 1.0, 1.0, 10.0)
FIG3 = GaussianMacWt(10.0, 10.0, 5.0, 2.0)

# Full-precision closed-form outer sums at the two preset parameter points;
# criteria 1 and 2 check them rounded to 6 decimals (2.632058, 2.839577).
FIG2_OUTER_EXACT = 2.6320580859017973
FIG3_OUTER_EXACT = 2.8395768355412192


# --- criterion 1: region constants at P1 = P2 = 1, variances (1, 10) -------------


def test_criterion_1_region_constants_at_unit_power():
    started = time.perf_counter()
    df = df_sum_bound(FIG2)
    hybrid = hybrid_sum_bound(FIG2)
    individual = max(x for x, _ in gaussian_df_region(FIG2).vertices)
    ty_r1 = max(x for x, _ in tekin_yener_region(FIG2).vertices)
    outer = gaussian_outer_sum(FIG2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert df == pytest.approx(0.660964, abs=1e-6)
    assert hybrid == pytest.approx(0.792481, abs=1e-6)
    assert individual == pytest.approx(0.5, abs=1e-6)
    assert ty_r1 == pytest.approx(0.437235, abs=1e-6)
    assert outer == pytest.approx(2.632058, abs=1e-6), (
        f"outer sum h(Y|Z) = {outer:.12f} is not 2.632058 to 6 decimals"
    )


def test_criterion_1_companion_outer_sum_full_precision():
    assert gaussian_outer_sum(FIG2) == pytest.approx(FIG2_OUTER_EXACT, abs=1e-12)


# --- criterion 2: region constants at P1 = P2 = 10, variances (5, 2) -------------


def test_criterion_2_region_constants_at_reversed_advantage():
    started = time.perf_counter()
    df_region = gaussian_df_region(FIG3)
    ty_region = tekin_yener_region(FIG3)
    hybrid = hybrid_sum_bound(FIG3)
    outer = gaussian_outer_sum(FIG3)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert df_region.vertices == ((0.0, 0.0),)
    assert ty_region.vertices == ((0.0, 0.0),)
    assert hybrid == pytest.approx(1.160964, abs=1e-6)
    assert outer == pytest.approx(2.839577, abs=1e-6), (
        f"outer sum h(N1 - N2) = {outer:.12f} is not 2.839577 to 6 decimals"
    )


def test_criterion_2_companion_outer_sum_full_precision():
    assert gaussian_outer_sum(FIG3) == pytest.approx(FIG3_OUTER_EXACT, abs=1e-12)


# --- criterion 3: power control closed form against the grid oracle --------------


def test_criterion_3_power_control_matches_grid_oracle():
    started = time.perf_counter()
    g = GaussianMacWt(1.0, 1.0, 5.0, 2.0)
    assert saturation_threshold(g) == pytest.approx(84.39737, abs=1e-4)
    saturated = optimal_power(10_000.0, g)
    assert saturated.r_sum_star == pytest.approx(2.559655, abs=1e-5)

    rng = np.random.default_rng(20260818)
    for _ in range(50):
        s1 = rng.uniform(1.0, 10.0)
        s2 = rng.uniform(1.0, 10.0)
        draw = GaussianMacWt(1.0, 1.0, s1, s2)
        # keep one grid step cheap relative to the 1e-3 budget near the kink
        cap_limit = min(400.0, 2.0 * (s1 + saturation_threshold(draw)))
        cap = rng.uniform(1.0, cap_limit)
        closed = optimal_power(cap, draw)
        _, _, oracle_rate = grid_oracle(cap, draw, 2001)
        assert abs(closed.r_sum_star - oracle_rate) <= 1e-3
        assert closed.r_sum_star >= oracle_rate - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


# --- criterion 4: the two sum-rate branches agree at the breakpoint --------------


def test_criterion_4_branch_agreement_at_breakpoint():
    rng = np.random.default_rng(41)
    for _ in range(100):
        s1 = 1.0 / TWO_PI_E + rng.uniform(0.0, 10.0)
        s2 = rng.uniform(0.1, 10.0)
        breakpoint_total = (TWO_PI_E * s1 - 1.0) * s2
        below = 0.5 * math.log2(1.0 + breakpoint_total / s1)
        above = (
            0.5 * math.log2(1.0 + breakpoint_total / s1)
            - 0.5 * math.log2(1.0 + breakpoint_total / s2)
            + 0.5 * math.log2(TWO_PI_E * s1)
        )
        assert abs(below - above) <= 1e-10


# --- criterion 5: exact elimination matches the closed form ----------------------


def test_criterion_5_elimination_matches_closed_form_exactly():
    started = time.perf_counter()
    cases = _fm_cases(1000, 7)
    for name, consts in cases:
        check = verify_hybrid_region_projection(*consts)
        assert check.match, (
            f"{name}: eliminated system and closed form disagree at "
            f"(a, b, c, d, e) = ({', '.join(str(v) for v in consts)}): "
            f"{check.projected_vertices} vs {check.closed_form_vertices}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


# --- criterion 6: discrete searches are mutually consistent ----------------------


def _brute_entropy(masses) -> float:
    return -sum(p * math.log2(p) for p in masses if p > 1e-300)


def _group_entropy(joint: dict, axes: tuple[int, ...]) -> float:
    marginal: dict = {}
    for index, p in joint.items():
        key = tuple(index[i] for i in axes)
        marginal[key] = marginal.get(key, 0.0) + p
    return _brute_entropy(marginal.values())


def _brute_quantities(kernel: MacWiretapKernel, inputs: InputFactorization):
    """First-principles oracle: dict-of-atoms joint law and plain loops."""
    joint: dict = {}
    w = kernel.transition
    for u, pu in enumerate(inputs.u_dist):
        for x1, p1 in enumerate(inputs.x1_given_u[u]):
            for x2, p2 in enumerate(inputs.x2_given_u[u]):
                for y in range(kernel.y_size):
                    for z in range(kernel.z_size):
                        p = pu * p1 * p2 * w[x1, x2, y, z]
                        if p > 0.0:
                            key = (u, x1, x2, y, z)
                            joint[key] = joint.get(key, 0.0) + p
    h = lambda *axes: _group_entropy(joint, axes)
    return {
        "a": h(0, 1, 2) + h(0, 2, 3) - h(0, 1, 2, 3) - h(0, 2),
        "b": h(0, 1, 2) + h(0, 1, 3) - h(0, 1, 2, 3) - h(0, 1),
        "c": h(1, 2) + h(3) - h(1, 2, 3),
        "d": h(1, 2) + h(4) - h(1, 2, 4),
        "e": h(1, 2, 3, 4) - h(1, 2, 4),
        "h_y_given_z": h(3, 4) - h(4),
    }


def _random_mac_kernel(rng) -> MacWiretapKernel:
    rows = rng.dirichlet(np.ones(4), size=4)
    return MacWiretapKernel(rows.reshape(2, 2, 2, 2))


def test_criterion_6_discrete_consistency_suite():
    config = SearchConfig(u_cardinality_max=2, restarts=3, refinement_iterations=30)
    for index in range(25):
        rng = np.random.default_rng((2026, index))
        kernel = _random_mac_kernel(rng)
        _, outer_value = search_outer(kernel, config)
        for kind in ("df", "hybrid"):
            result = search_inner(kernel, kind, config)
            for x, y in result.hull.vertices:
                assert x + y <= outer_value + 1e-6
            for inputs, _ in result.candidates:
                q = info_quantities(kernel, inputs)
                assert is_subset(region_for_input("df", q), region_for_input("hybrid", q))
        for inputs in (
            uniform_factorization(2, 2, 2),
            InputFactorization(
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2), size=2),
                rng.dirichlet(np.ones(2), size=2),
            ),
        ):
            fast = info_quantities(kernel, inputs)
            slow = _brute_quantities(kernel, inputs)
            for field, expected in slow.items():
                assert getattr(fast, field) == pytest.approx(expected, abs=1e-10)


# --- criterion 7: single-user capacities ------------------------------------------


def _flip_wiretap_kernel(flip: float) -> WiretapKernel:
    t = np.zeros((2, 2, 2))
    for x in range(2):
        t[x, x, x] = 1.0 - flip
        t[x, x, 1 - x] = flip
    return WiretapKernel(t)


def _exposed_wiretap_kernel() -> WiretapKernel:
    t = np.zeros((2, 2, 2))
    for x in range(2):
        t[x, x, x] = 1.0
    return WiretapKernel(t)


def test_criterion_7_single_user_sanity():
    config = SearchConfig(u_cardinality_max=1, restarts=8, refinement_iterations=120)
    flip = _flip_wiretap_kernel(0.11)
    wyner_flip = wyner_capacity(flip, config)
    assert wyner_flip == pytest.approx(0.500084, abs=1e-3)

    suite = [flip, _exposed_wiretap_kernel()]
    for index in range(8):
        rng = np.random.default_rng((77, index))
        rows = rng.dirichlet(np.ones(4), size=2)
        suite.append(WiretapKernel(rows.reshape(2, 2, 2)))
    for kernel in suite:
        assert feedback_secrecy_capacity(kernel, config) >= wyner_capacity(kernel, config) - 1e-9

    exposed = _exposed_wiretap_kernel()
    assert wyner_capacity(exposed, config) == 0.0
    assert feedback_secrecy_capacity(exposed, config) == 0.0


# --- criterion 8: CLI byte determinism --------------------------------------------


def _run_cli(argv: list[str], out_dir: Path) -> None:
    env = dict(os.environ)
    env.pop("MACWTFB_OUTPUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "macwtfb", *argv, "--output-dir", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_criterion_8_cli_commands_are_byte_deterministic(tmp_path):
    channel = tmp_path / "channel.json"
    t = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            t[a][b][a ^ b][a & b] = 1.0
    channel.write_text(
        json.dumps({"x1_size": 2, "x2_size": 2, "y_size": 2, "z_size": 2, "transition": t}),
        encoding="utf-8",
    )
    commands = [
        ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10", "--bounds", "df,hybrid,ty,outer"],
        ["region", "gaussian", "--p1", "10", "--p2", "10", "--sigma1sq", "5", "--sigma2sq", "2", "--bounds", "hybrid,outer", "--format", "json"],
        ["region", "discrete", "--channel", str(channel), "--bounds", "df,hybrid,outer", "--umax", "2", "--restarts", "2", "--iterations", "20", "--seed", "5"],
        ["powersweep", "--pmax", "120", "--steps", "7", "--sigma1sq", "5", "--sigma2sq", "2"],
        ["figure", "--which", "2"],
        ["figure", "--which", "4"],
        ["fm-verify", "--samples", "20", "--seed", "7"],
    ]
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        for argv in commands:
            _run_cli(argv, out_dir)
    produced = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == produced
    assert len(produced) >= 10
    for name in produced:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

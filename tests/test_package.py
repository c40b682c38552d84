"""The package root exports what the README's library example imports,
every command but ``region discrete`` runs without loading numpy or
``dataclasses``, ``region discrete`` draws its restarts without loading
numpy's generator subpackage or ``hashlib`` where ``import numpy`` does
not load them,
``json`` loads only when a command needs it, only fm-verify loads the
elimination module, and every scalar argument of the library follows the
one argument rule defined beside ``ValidationError``, which refuses
bools and text, numpy's too, and numpy arrays with axes."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macwtfb
from macwtfb import ValidationError
from macwtfb.channels import parse_channel
from macwtfb.discrete import SearchConfig
from macwtfb.fm import as_rational, exact_vertices, verify_hybrid_region_projection
from macwtfb.gaussian import GaussianMacWt, gaussian_diff_entropy
from macwtfb.power import optimal_power, sum_rate, sweep
from macwtfb.regions import Halfspace, boundary_samples, region_from_halfspaces

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported_from_the_package_root():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "macwtfb"
        for alias in node.names
    }
    assert imported, "README's python block imports nothing from macwtfb"
    assert imported <= set(macwtfb.__all__), sorted(imported - set(macwtfb.__all__))
    assert all(hasattr(macwtfb, name) for name in macwtfb.__all__)


# Runs in a fresh interpreter, so that no test has loaded a watched module
# before it; prints one record per step with ``repr``, since json is watched:
# [step or command, exit code, then whether each WATCHED module is loaded].
_IMPORT_RULE_SCRIPT = """
import sys

WATCHED = ("numpy", "macwtfb.fm", "macwtfb.info", "macwtfb.channels", "dataclasses", "inspect", "json", "numbers",
           "numpy.random", "hashlib")

def record(step, code=0):
    print(repr([step, code, *(name in sys.modules for name in WATCHED)]))

out, channel = sys.argv[1], sys.argv[2]
import macwtfb.cli as cli
record("import macwtfb.cli")
gaussian = ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10"]
powersweep = ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2"]
for step, argv in (
    ("region gaussian", [*gaussian, "--bounds", "df,hybrid,ty,outer"]),
    ("figure --which 2", ["figure", "--which", "2"]),
    ("powersweep", powersweep),
    ("figure --which 4", ["figure", "--which", "4"]),
    ("figure --which 5", ["figure", "--which", "5"]),
    ("fm-verify", ["fm-verify", "--samples", "3"]),
    ("region gaussian --format json", [*gaussian, "--bounds", "df", "--format", "json"]),
    ("powersweep --format json", [*powersweep, "--format", "json"]),
    ("region discrete", ["region", "discrete", "--channel", channel, "--bounds", "df,outer",
                         "--umax", "1", "--restarts", "1", "--iterations", "2"]),
    # restart 1 draws its start rows
    ("region discrete --restarts 2", ["region", "discrete", "--channel", channel, "--bounds", "df,outer",
                                      "--umax", "1", "--restarts", "2", "--iterations", "2"]),
):
    record(step, cli.main([*argv, "--output-dir", out]))
from macwtfb import optimal_power, search_inner
record("from macwtfb import search_inner, optimal_power")
"""


# What ``import numpy`` alone loads of the draws' two watched modules:
# numpy 1.x imports its generator, and with it ``hashlib``, at the top;
# newer numpy loads ``numpy.random`` on first use.
_NUMPY_ALONE_SCRIPT = "import sys, numpy; print(repr(['numpy.random' in sys.modules, 'hashlib' in sys.modules]))"


def test_closed_form_commands_never_import_numpy(tmp_path):
    """Nor ``dataclasses`` and with it ``inspect``; ``json`` loads only
    for JSON output or a channel file, and ``numpy.random`` and ``hashlib``
    only if ``import numpy`` alone loads them."""
    channel = tmp_path / "channel.json"
    doc = {"x1_size": 1, "x2_size": 1, "y_size": 1, "z_size": 1, "transition": [[[[1.0]]]]}
    channel.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env.pop("MACWTFB_OUTPUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_RULE_SCRIPT, str(tmp_path / "out"), str(channel)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    records = [ast.literal_eval(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    alone = subprocess.run([sys.executable, "-c", _NUMPY_ALONE_SCRIPT], capture_output=True, text=True, check=True)
    random, hashlib = ast.literal_eval(alone.stdout)
    # numpy, fm, info, channels, dataclasses, inspect, json, numbers, numpy.random, hashlib
    assert records == [
        ["import macwtfb.cli", 0, False, False, False, False, False, False, False, False, False, False],
        ["region gaussian", 0, False, False, False, False, False, False, False, False, False, False],
        ["figure --which 2", 0, False, False, False, False, False, False, False, False, False, False],
        ["powersweep", 0, False, False, False, False, False, False, False, False, False, False],
        ["figure --which 4", 0, False, False, False, False, False, False, False, False, False, False],
        ["figure --which 5", 0, False, False, False, False, False, False, False, False, False, False],
        ["fm-verify", 0, False, True, False, False, False, False, False, True, False, False],
        ["region gaussian --format json", 0, False, True, False, False, False, False, True, True, False, False],
        ["powersweep --format json", 0, False, True, False, False, False, False, True, True, False, False],
        ["region discrete", 0, True, True, True, True, True, True, True, True, random, hashlib],
        ["region discrete --restarts 2", 0, True, True, True, True, True, True, True, True, random, hashlib],
        ["from macwtfb import search_inner, optimal_power", 0, True, True, True, True, True, True, True, True, random, hashlib],
    ], proc.stderr


MODEL = GaussianMacWt(1, 1, 5, 2)
SQUARE = [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
TRIANGLE = region_from_halfspaces([(1, 1, 1)])

SIZES = ("x1_size", "x2_size", "y_size", "z_size")


def channel_shape(key, value):
    """The transition shape of a channel document whose ``key`` size is
    ``value`` and whose other sizes are 1; its transition fits size 3."""
    shape = [3 if k == key else 1 for k in SIZES]
    doc = {**dict.fromkeys(SIZES, 1), key: value}
    doc["transition"] = np.full(shape, 1 / (shape[2] * shape[3])).tolist()
    return parse_channel(doc).transition.shape


# Each routed argument: a call that passes its value there, the name its
# messages give it, and its rule, either the least integer it admits, the
# sign a real must have ("" for any finite real), or None for a finite
# real that keeps an integer of any size exact.
ARGUMENTS = [
    pytest.param(lambda v: SearchConfig(u_cardinality_max=v), "u_cardinality_max", 1, id="SearchConfig.u_cardinality_max"),
    pytest.param(lambda v: SearchConfig(restarts=v), "restarts", 1, id="SearchConfig.restarts"),
    pytest.param(lambda v: SearchConfig(refinement_iterations=v), "refinement_iterations", 1, id="SearchConfig.refinement_iterations"),
    pytest.param(lambda v: SearchConfig(seed=v), "seed", 0, id="SearchConfig.seed"),
    pytest.param(lambda v: exact_vertices(v, SQUARE), "denominator", 1, id="exact_vertices.denominator"),
    pytest.param(lambda v: boundary_samples(TRIANGLE, v), "count", 1, id="boundary_samples.count"),
    pytest.param(lambda v: sweep(10.0, v, MODEL), "steps", 2, id="sweep.steps"),
    pytest.param(lambda v: sweep(v, 3, MODEL), "maximum power", "nonnegative", id="sweep.p_max"),
    pytest.param(lambda v: optimal_power(v, MODEL), "power cap", "nonnegative", id="optimal_power.power_cap"),
    pytest.param(lambda v: sum_rate(v, 1.0, MODEL), "p1", "nonnegative", id="sum_rate.p1"),
    pytest.param(lambda v: sum_rate(1.0, v, MODEL), "p2", "nonnegative", id="sum_rate.p2"),
    pytest.param(lambda v: GaussianMacWt(v, 1, 5, 2), "p1", "nonnegative", id="GaussianMacWt.p1"),
    pytest.param(lambda v: GaussianMacWt(1, v, 5, 2), "p2", "nonnegative", id="GaussianMacWt.p2"),
    pytest.param(lambda v: GaussianMacWt(1, 1, v, 2), "sigma1_sq", "positive", id="GaussianMacWt.sigma1_sq"),
    pytest.param(lambda v: GaussianMacWt(1, 1, 5, v), "sigma2_sq", "positive", id="GaussianMacWt.sigma2_sq"),
    pytest.param(lambda v: gaussian_diff_entropy(v), "variance", "positive", id="gaussian_diff_entropy"),
    pytest.param(lambda v: Halfspace(v, 0, 1), "halfspace coeff_r1", "", id="Halfspace.coeff_r1"),
    pytest.param(lambda v: Halfspace(1, v, 1), "halfspace coeff_r2", "", id="Halfspace.coeff_r2"),
    pytest.param(lambda v: Halfspace(1, 0, v), "halfspace bound", "", id="Halfspace.bound"),
    pytest.param(as_rational, "value", None, id="fm.as_rational"),
    pytest.param(lambda v: verify_hybrid_region_projection(v, 1, 1, 0, 0), "a", None, id="verify_hybrid_region_projection.a"),
    *(pytest.param(lambda v, key=key: channel_shape(key, v), key, 1, id="parse_channel." + key) for key in SIZES),
]


@pytest.mark.parametrize("call, what, rule", ARGUMENTS)
def test_every_scalar_argument_follows_the_one_rule(call, what, rule):
    if isinstance(rule, int):
        integer = "%s must be an integer of at least %d, got %%r" % (what, rule)
        refused = (True, np.True_, "3", np.str_("3"), math.nan, np.float32(3), np.array(3.5), np.array([3, 4]))
        rejected = [(v, integer % (v,)) for v in refused]
        accepted = [(np.int64(3), 3), (np.array(3), 3)]
    else:
        real = "%s must be a real number, got %%r" % what
        refused = (True, np.True_, np.False_, "3", np.str_("3"), np.array([1.0, 2.0]))
        rejected = [(v, real % (v,)) for v in refused]
        finite = "%s must be finite%s, got %%s" % (what, " and " + rule if rule else "")
        rejected.append((math.nan, finite % "nan"))
        if rule is not None:
            rejected.append((-(10**400), finite % "-inf"))
        accepted = [(np.int64(3), 3), (np.float32(1.5), 1.5)]
    for value, message in rejected:
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == message
    for value, plain in accepted:
        assert call(value) == call(plain)


def test_an_integer_power_cap_gives_float_powers():
    result = optimal_power(1, MODEL)
    assert type(result.p1_star) is float and type(result.p2_star) is float
    assert result == optimal_power(1.0, MODEL)

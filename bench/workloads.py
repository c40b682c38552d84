"""Seeded command lists for the benchmark workloads.

Every input the program sees is drawn here from the workload seed: channel
files, Gaussian parameters and fm-verify seeds.  A workload is one *round*
of commands; the runner repeats the round until the run length is used up,
so all rounds of one run issue identical commands and must write identical
bytes.

Why these workloads:

- ``discrete-search`` spends over 90% of its wall time in the seeded ascent
  of ``macwtfb.discrete`` (one binary and one ternary Dirichlet kernel).
- ``fm-exact`` spends its time in the exact ``Fraction`` elimination of
  ``macwtfb.fm`` and never touches ``macwtfb.discrete``.
- ``closed-form-cli`` is many short commands whose cost is interpreter
  start-up, ``import macwtfb`` and the closed forms of ``gaussian``/``power``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("discrete-search", "fm-exact", "closed-form-cli")

# Output checks a command's result gets besides exit code 0 and determinism.
CHECK_EXIT = "exit"
CHECK_DISCRETE = "discrete"
CHECK_FM = "fm"

# One ascent sweep costs 2 * (|U| + |U||X1| + |U||X2|) objective evaluations:
# 30 for binary and 42 for ternary inputs summed over |U| = 1, 2.  These
# iteration counts give both kernels the same evaluation budget, so the two
# commands of a round take about the same time and the median command is
# well defined.
_DISCRETE_ITERATIONS = {2: 28, 3: 20}
_DISCRETE_FLAGS = ("--bounds", "df,hybrid,outer", "--umax", "2", "--restarts", "4")

_FM_SAMPLES = 300
_FM_COMMANDS = 3

_FIGURE_REPEATS = 2
_GAUSSIAN_REGIONS = 16
_POWER_SWEEPS = 12
# Keeps sigma1^2 above 1/(2 pi e) ~ 0.0585, where every closed form applies.
_SIGMA_LOG10_RANGE = (-1.0, 1.3)
_POWER_LOG10_RANGE = (-2.0, 2.0)


@dataclass(frozen=True)
class Command:
    """CLI arguments after ``macwtfb`` (without ``--output-dir``) and the
    output check the result must pass."""

    argv: tuple[str, ...]
    check: str = CHECK_EXIT


def build(workload: str, seed: int, inputs_dir: Path) -> list[Command]:
    """One round of ``workload`` at ``seed``; input files go to ``inputs_dir``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "discrete-search":
        return _discrete_search(rng, inputs_dir)
    if workload == "fm-exact":
        return _fm_exact(rng)
    if workload == "closed-form-cli":
        return _closed_form_cli(rng)
    raise ValueError(f"unknown workload {workload!r}")


def criterion8(inputs_dir: Path) -> list[Command]:
    """The command set of acceptance criterion 8, whose outputs are pinned.

    Its discrete command is compared by bytes only.  With 2 restarts of 20
    sweeps on this XOR channel the searches stop short: the df hull reaches
    R1 = 0.99990 where the hybrid hull reaches 0.99960, and the searched
    outer value 0.99907 lies below both, so the discrete-search invariants
    do not hold on it.  The outer value is a search result, not a certified
    bound; the pinned bytes record that behaviour as it stands.
    """
    t = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            t[a][b][a ^ b][a & b] = 1.0
    channel = _write_channel(inputs_dir / "criterion8_channel.json", 2, t)
    return [
        Command(("region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "1",
                 "--sigma2sq", "10", "--bounds", "df,hybrid,ty,outer")),
        Command(("region", "gaussian", "--p1", "10", "--p2", "10", "--sigma1sq", "5",
                 "--sigma2sq", "2", "--bounds", "hybrid,outer", "--format", "json")),
        Command(("region", "discrete", "--channel", channel, "--bounds", "df,hybrid,outer",
                 "--umax", "2", "--restarts", "2", "--iterations", "20", "--seed", "5")),
        Command(("powersweep", "--pmax", "120", "--steps", "7", "--sigma1sq", "5",
                 "--sigma2sq", "2")),
        Command(("figure", "--which", "2")),
        Command(("figure", "--which", "4")),
        Command(("fm-verify", "--samples", "20", "--seed", "7"), CHECK_FM),
    ]


def _dirichlet_kernel(rng: random.Random, n: int) -> list:
    """transition[x1][x2][y][z] with each (y, z) row drawn from Dirichlet(1)."""
    table = []
    for _ in range(n):
        block = []
        for _ in range(n):
            g = [rng.gammavariate(1.0, 1.0) for _ in range(n * n)]
            total = sum(g)
            block.append([[g[y * n + z] / total for z in range(n)] for y in range(n)])
        table.append(block)
    return table


def _write_channel(path: Path, n: int, table: list) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"x1_size": n, "x2_size": n, "y_size": n, "z_size": n, "transition": table}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _discrete_search(rng: random.Random, inputs_dir: Path) -> list[Command]:
    commands = []
    for n in (2, 3):
        channel = _write_channel(inputs_dir / f"kernel_{n}.json", n, _dirichlet_kernel(rng, n))
        argv = ("region", "discrete", "--channel", channel, *_DISCRETE_FLAGS,
                "--iterations", str(_DISCRETE_ITERATIONS[n]),
                "--seed", str(rng.randrange(1_000_000)))
        commands.append(Command(argv, CHECK_DISCRETE))
    return commands


def _fm_exact(rng: random.Random) -> list[Command]:
    return [
        Command(("fm-verify", "--samples", str(_FM_SAMPLES), "--seed", str(rng.randrange(1_000_000)),
                 "--format", ("csv", "json")[i % 2]), CHECK_FM)
        for i in range(_FM_COMMANDS)
    ]


def _log_uniform(rng: random.Random, bounds: tuple[float, float]) -> str:
    return "%.6g" % 10.0 ** rng.uniform(*bounds)


def _variances(rng: random.Random) -> tuple[str, str]:
    # The outer bound rejects equal variances, so redraw until they differ.
    while True:
        s1, s2 = _log_uniform(rng, _SIGMA_LOG10_RANGE), _log_uniform(rng, _SIGMA_LOG10_RANGE)
        if float(s1) != float(s2):
            return s1, s2


def _closed_form_cli(rng: random.Random) -> list[Command]:
    commands = [Command(("figure", "--which", str(w)))
                for _ in range(_FIGURE_REPEATS) for w in (2, 3, 4, 5)]
    for i in range(_GAUSSIAN_REGIONS):
        s1, s2 = _variances(rng)
        commands.append(Command((
            "region", "gaussian",
            "--p1", _log_uniform(rng, _POWER_LOG10_RANGE),
            "--p2", _log_uniform(rng, _POWER_LOG10_RANGE),
            "--sigma1sq", s1, "--sigma2sq", s2,
            "--bounds", "df,hybrid,ty,outer", "--format", ("csv", "json")[i % 2],
        )))
    for i in range(_POWER_SWEEPS):
        s1, s2 = _variances(rng)
        commands.append(Command((
            "powersweep",
            "--pmax", "%.6g" % 10.0 ** rng.uniform(1.0, 3.0),
            "--steps", str(rng.randint(20, 120)),
            "--sigma1sq", s1, "--sigma2sq", s2, "--format", ("csv", "json")[i % 2],
        )))
    rng.shuffle(commands)
    return commands

"""Output checks that hold on any seed, and byte comparison with goldens.

The checks read only the files and text the CLI produced; they do not
import ``macwtfb``, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from workloads import CHECK_DISCRETE, CHECK_FM

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# CSV floats carry 12 significant digits; containment allows for that rounding.
_GEOMETRY_TOL = 1e-9
# Inner vertex sums may exceed the written outer value by at most this much.
_OUTER_TOL = 1e-6
_FM_SUMMARY = re.compile(r"fm-verify: (\d+) instances checked, (\d+) mismatches")


def file_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file below ``out_dir``, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def compare_hashes(expected: dict[str, str], actual: dict[str, str], what: str) -> list[str]:
    """Problems where ``actual`` differs from ``expected`` in names or bytes."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            problems.append(f"{what}: {name} missing")
        elif name not in expected:
            problems.append(f"{what}: unexpected file {name}")
        elif expected[name] != actual[name]:
            problems.append(f"{what}: {name} bytes differ")
    return problems


def load_golden(name: str) -> dict | None:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def read_vertices(path: Path) -> list[tuple[float, float]]:
    """The ``vertex`` rows of a region CSV file."""
    vertices = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        section, _, r1, r2 = line.split(",")
        if section == "vertex":
            vertices.append((float(r1), float(r2)))
    return vertices


def in_convex_polygon(point, polygon, tol: float = _GEOMETRY_TOL) -> bool:
    """Whether ``point`` lies within ``tol`` of a convex polygon given by its
    counterclockwise vertices (a point or a segment when degenerate)."""
    px, py = point
    if len(polygon) == 1:
        return math.dist(point, polygon[0]) <= tol
    if len(polygon) == 2:
        (ax, ay), (bx, by) = polygon
        length_sq = (bx - ax) ** 2 + (by - ay) ** 2
        t = max(0.0, min(1.0, ((px - ax) * (bx - ax) + (py - ay) * (by - ay)) / length_sq))
        return math.dist(point, (ax + t * (bx - ax), ay + t * (by - ay))) <= tol
    for (ax, ay), (bx, by) in zip(polygon, polygon[1:] + polygon[:1]):
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross < -tol * math.hypot(bx - ax, by - ay):
            return False
    return True


def _discrete_regions(out_dir: Path):
    return [read_vertices(out_dir / f"region_{name}.csv") for name in ("df", "hybrid", "outer")]


def discrete_problems(out_dir: Path) -> list[str]:
    """Every inner vertex sum is at most the written outer value."""
    try:
        df, hybrid, outer = _discrete_regions(out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable region file: {exc}"]
    outer_value = max(x + y for x, y in outer)
    worst = max(x + y for x, y in df + hybrid)
    if worst > outer_value + _OUTER_TOL:
        return [f"inner vertex sum {worst!r} exceeds outer value {outer_value!r}"]
    return []


def df_outside_hybrid(out_dir: Path) -> bool:
    """Whether a searched df vertex lies outside the searched hybrid hull.

    Every df rate pair is achievable by the hybrid scheme, but the two hulls
    come from independent searches, so a hybrid search that stops short can
    miss a point the df search found.  The program does not promise
    containment; the runner counts it as search quality, not as a failure.
    """
    try:
        df, hybrid, _ = _discrete_regions(out_dir)
    except (OSError, ValueError):
        return False  # discrete_problems already reports unreadable files
    return not all(in_convex_polygon(v, hybrid) for v in df)


def fm_problems(stdout: str) -> list[str]:
    match = _FM_SUMMARY.search(stdout)
    if match is None:
        return ["fm-verify printed no summary line"]
    if match.group(2) != "0":
        return [f"fm-verify reported {match.group(2)} mismatches"]
    return []


def command_problems(check: str, exit_code: int, stdout: str, out_dir: Path) -> list[str]:
    """Exit code 0 plus the command kind's own invariant."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if check == CHECK_DISCRETE:
        return discrete_problems(out_dir)
    if check == CHECK_FM:
        return fm_problems(stdout)
    return []

"""Pin the golden output hashes the benchmark compares against.

    python3 bench/pin_goldens.py

Run from the root of a checkout.  Writes ``bench/golden/criterion-8.json``
and one file per workload at the default seed, each with the sha256 of every
file every command writes, plus the Python and numpy versions that produced
them.  Goldens pin behaviour: only a change to the benchmark itself may
re-pin them, never a change that claims the program still behaves the same.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import run
import workloads


def pin(name: str, seed: int | None, commands, runner: run.Runner, numpy_version: str) -> None:
    hashes = runner.round(commands).hashes
    if runner.problems:
        raise SystemExit("refusing to pin failing outputs:\n" + "\n".join(runner.problems))
    doc = {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "argv": [" ".join(c.argv) for c in commands],
        "commands": hashes,
    }
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    path = checks.GOLDEN_DIR / f"{name}.json"
    # Input paths in argv depend on where the checkout lives.
    text = json.dumps(doc, indent=1, sort_keys=True).replace(str(run.ROOT) + "/", "")
    path.write_text(text + "\n", encoding="utf-8")
    print(f"pinned {path}")


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    deadline = time.monotonic() + 600.0
    _, numpy_version = run.versions(deadline)
    runner = run.Runner(run.run_cli_child, deadline)
    inputs = run.WORK / "inputs"
    pin("criterion-8", None, workloads.criterion8(inputs), runner, numpy_version)
    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        pin(name, seed, workloads.build(name, seed, inputs), runner, numpy_version)
    return 0


if __name__ == "__main__":
    sys.exit(main())

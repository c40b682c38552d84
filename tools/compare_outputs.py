"""Run the benchmark commands on two source trees and list every command
whose results differ.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE \\
        --workloads closed-form-cli,fm-exact --seeds 0-39
    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE \\
        --workloads discrete-search --seeds 0-3 --set umax=4 --set restarts=16

A tree is a source checkout with the package under ``src/``, e.g. one
made by ``git archive``.  The commands are those of ``bench/workloads.py``
in the checkout that holds this script, one round per workload and seed;
their input files are written once and read by both trees.  Each
``--set NAME=VALUE`` replaces the value of ``--NAME`` in every command that
has that flag; a setting no command has is an error.  Each tree runs
its commands through its own ``macwtfb.cli.main`` in one child interpreter
with ``PYTHONPATH=<tree>/src``.

A command differs when its exit code, standard output, standard error or
the sha256 of an output file differs.  Before the comparison, the
command's output directory and the tree's path are replaced by ``<out>``
and ``<tree>`` in the printed text.  Exits 1 when any command differs and
2 when a tree's child interpreter fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def run_jobs(jobs_path: str, results_path: str) -> None:
    """Child side: every argv of the job file through ``cli.main`` by
    ``bench/run.py``'s in-process runner, with exit code and printed text."""
    from macwtfb import cli

    results = []
    for argv in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        outcome = run.run_inprocess(cli, argv)
        results.append({"exit": outcome.exit_code, "stdout": outcome.stdout, "stderr": outcome.stderr})
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A or A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_setting(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name or name.startswith("-"):
        raise argparse.ArgumentTypeError(f"--set takes NAME=VALUE, got {text!r}")
    return name, value


def with_settings(argv: tuple[str, ...], settings: list[tuple[str, str]]) -> list[str]:
    """``argv`` with the value after each set ``--NAME`` it holds replaced."""
    argv = list(argv)
    for name, value in settings:
        if "--" + name in argv[:-1]:
            argv[argv.index("--" + name) + 1] = value
    return argv


def start_tree(tree: Path, argvs: list[list[str]], work: Path, side: str) -> subprocess.Popen:
    jobs = work / f"{side}_jobs.json"
    jobs.write_text(json.dumps(argvs), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("MACWTFB_OUTPUT_DIR", None)
    return subprocess.Popen(
        [sys.executable, __file__, "--run-jobs", str(jobs), str(work / f"{side}_results.json")],
        env=env,
        cwd=work,
    )


def observed(result: dict, out_dir: Path, tree: Path) -> dict:
    def normalize(text: str) -> str:
        return text.replace(str(out_dir), "<out>").replace(str(tree), "<tree>")

    return {
        "exit": result["exit"],
        "stdout": normalize(result["stdout"]),
        "stderr": normalize(result["stderr"]),
        "files": checks.file_hashes(out_dir) if out_dir.is_dir() else {},
    }


def differences(old: dict, new: dict) -> list[str]:
    found = [
        f"{key}: {old[key]!r} -> {new[key]!r}"
        for key in ("exit", "stdout", "stderr")
        if old[key] != new[key]
    ]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(name) != new["files"].get(name):
            found.append(f"file {name}: sha256 {old['files'].get(name)} -> {new['files'].get(name)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A or A-B, inclusive")
    parser.add_argument(
        "--set",
        type=parse_setting,
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="replace the value of --NAME in every command that has it (repeatable)",
    )
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "macwtfb" / "cli.py").is_file():
            parser.error(f"{side} tree {tree} has no src/macwtfb/cli.py")

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        work = Path(tmp)
        labels, argvs = [], {side: [] for side in trees}
        for name in names:
            for seed in args.seeds:
                commands = workloads.build(name, seed, work / "inputs" / name / str(seed))
                for i, command in enumerate(commands):
                    argv = with_settings(command.argv, args.set)
                    labels.append((f"{name} seed {seed} #{i}", argv))
                    for side in trees:
                        out_dir = work / side / name / str(seed) / f"c{i:02d}"
                        argvs[side].append([*argv, "--output-dir", str(out_dir)])
        unused = [name for name, _ in args.set if not any("--" + name in argv[:-1] for _, argv in labels)]
        if unused:
            parser.error(f"--set {unused[0]}: no command has --{unused[0]}")
        children = {side: start_tree(tree, argvs[side], work, side) for side, tree in trees.items()}
        failed = [side for side, child in children.items() if child.wait() != 0]
        if failed:
            print(f"compare_outputs: the {failed[0]} tree's run failed", file=sys.stderr)
            return 2
        seen = {}
        for side, tree in trees.items():
            results = json.loads((work / f"{side}_results.json").read_text(encoding="utf-8"))
            seen[side] = [
                observed(result, Path(cmd[-1]), tree)
                for result, cmd in zip(results, argvs[side])
            ]

    differing = 0
    for (label, argv), old, new in zip(labels, seen["parent"], seen["change"]):
        found = differences(old, new)
        if found:
            differing += 1
            print(f"{label}: {' '.join(argv)}")
            for line in found:
                print(f"    {line}")
    print(f"compare_outputs: {differing} of {len(labels)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-jobs"]:
        run_jobs(*sys.argv[2:4])
    else:
        sys.exit(main())

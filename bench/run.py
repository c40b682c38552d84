"""Benchmark of the ``macwtfb`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in a closed loop issues
the workload's commands one at a time, each in a fresh interpreter
(``python -m macwtfb``), the way a user runs them, and repeats the round of
commands for about ``--seconds``.  Every command's output is
checked: exit code 0, the workload's invariants, byte equality with the
first round and, at the default seed, with the pinned goldens.  The
acceptance-criterion-8 command set is run and compared with its goldens
first, outside the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds in this process through ``macwtfb.cli.main``, alternating plain
rounds with rounds traced by the wrappers of ``spans.py``, and reports the
per-layer metrics.  Run metadata goes on the line before the result; the
result is the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
# The whole run, commands included, ends well inside the 180 s allowance.
RUN_DEADLINE_S = 170.0
# The tail is the highest percentile with at least this many commands beyond it.
TAIL_BEYOND = 10
# Host speed probe: a fixed pure-Python loop run before every command.  On a
# shared host the same code runs up to 1.5x slower for tens of seconds at a
# time; times are scaled by PROBE_NOMINAL_S / (median probe time), which
# takes that drift out.  PROBE_NOMINAL_S is the probe's typical time on the
# 2-vCPU host the benchmark was built on, so scaled times read as seconds
# there.
PROBE_LOOPS = 100_000
PROBES_PER_COMMAND = 3
PROBE_NOMINAL_S = 0.008

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Outcome:
    """One command's exit code, printed text and resources."""

    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


# --- statistics -------------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, commands beyond it) for the highest nearest-rank
    percentile with at least TAIL_BEYOND commands beyond it, or the median
    when there are too few commands for that to lie above it."""
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        value = statistics.median(values)
        return 50.0, value, sum(v > value for v in values)
    value = sorted(values)[n - TAIL_BEYOND - 1]
    return 100.0 * (n - TAIL_BEYOND) / n, value, sum(v > value for v in values)


def keep_going(runner: "Runner", start: float, seconds: float, last_round: float) -> bool:
    """Whether to run another round: while half a round more still ends
    before ``seconds``, so that small changes in round time do not change
    the number of rounds."""
    elapsed = time.perf_counter() - start
    return elapsed + last_round / 2 < seconds and not runner.past_deadline()


# --- host speed -------------------------------------------------------------------


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Probe times taken before each command, for scaling measured times."""

    def __init__(self):
        self.samples: list[float] = []

    def probed(self, run_command):
        """``run_command`` preceded by PROBES_PER_COMMAND probes."""

        def run(argv, deadline):
            self.samples += [probe() for _ in range(PROBES_PER_COMMAND)]
            return run_command(argv, deadline)

        return run

    def scale(self, since: int) -> float:
        """Factor that turns times measured since probe ``since`` into
        seconds at nominal host speed."""
        return PROBE_NOMINAL_S / statistics.median(self.samples[since:])


# --- running commands -------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MACWTFB_OUTPUT_DIR", None)
    return env


def run_child(args: list[str], deadline: float) -> Outcome:
    """``python args`` in a child; rusage comes from ``os.wait4`` of that
    child alone, so one command's peak memory never leaks into another's."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=WORK)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read().decode(errors="replace"),
                       err.read().decode(errors="replace"), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_cli_child(argv: list[str], deadline: float) -> Outcome:
    return run_child(["-m", "macwtfb", *argv], deadline)


def run_inprocess(cli, argv: list[str]) -> Outcome:
    """``cli.main(argv)`` with its printed text captured.  ``cli.main`` is
    looked up per call so that installed wrappers take effect."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a failed command; keep going and report it.
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


@dataclass
class Round:
    outcomes: list[Outcome]
    wall_s: float
    hashes: list[dict[str, str]]
    df_outside_hybrid: int


class Runner:
    """Runs commands into per-round output directories and checks them."""

    def __init__(self, run_command, deadline: float):
        self.run_command = run_command  # (argv, deadline) -> Outcome
        self.deadline = deadline
        self.attempted = 0
        self.problems: list[str] = []
        self._rounds = 0

    def round(self, commands, golden=None, first=None) -> Round:
        """Run every command once, then check each command's output against
        its invariants, ``first`` (hashes of the run's first round) and
        ``golden`` (pinned hashes)."""
        out_root = WORK / f"round{self._rounds:03d}"
        self._rounds += 1
        dirs = [out_root / f"c{i:02d}" for i in range(len(commands))]
        outcomes = [
            self.run_command([*command.argv, "--output-dir", str(out_dir)], self.deadline)
            for command, out_dir in zip(commands, dirs)
        ]
        wall = sum(outcome.wall_s for outcome in outcomes)
        hashes = []
        df_outside = 0
        for i, (command, outcome, out_dir) in enumerate(zip(commands, outcomes, dirs)):
            out_dir.mkdir(parents=True, exist_ok=True)
            found = checks.command_problems(command.check, outcome.exit_code, outcome.stdout, out_dir)
            if command.check == workloads.CHECK_DISCRETE:
                df_outside += checks.df_outside_hybrid(out_dir)
            actual = checks.file_hashes(out_dir)
            if first is not None:
                found += checks.compare_hashes(first[i], actual, "differs from the first round")
            if golden is not None:
                found += checks.compare_hashes(golden[i], actual, "differs from the golden")
            self.attempted += 1
            if found:
                if outcome.stderr.strip():
                    found.append("stderr: " + outcome.stderr.strip().splitlines()[-1])
                self.problems.append("%s: %s" % (" ".join(command.argv), "; ".join(found)))
            hashes.append(actual)
        shutil.rmtree(out_root)
        return Round(outcomes, wall, hashes, df_outside)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def past_deadline(self) -> bool:
        return time.monotonic() >= self.deadline


def golden_hashes(name: str, seed: int | None, commands):
    """Pinned per-command hashes of ``name``, or None when nothing is pinned
    for this seed."""
    doc = checks.load_golden(name)
    if doc is None or (seed is not None and doc["seed"] != seed):
        return None
    if len(doc["commands"]) != len(commands):
        raise SystemExit(f"bench: golden {name} pins {len(doc['commands'])} commands, "
                         f"the workload has {len(commands)}")
    return doc["commands"]


def check_criterion8(runner: Runner) -> None:
    commands = workloads.criterion8(WORK / "inputs")
    runner.round(commands, golden_hashes("criterion-8", None, commands))


# --- the two modes ----------------------------------------------------------------


def end_to_end(runner: Runner, host: HostSpeed, commands, seed: int, seconds: float,
               meta: dict) -> dict:
    """End-to-end metrics; every time is scaled to nominal host speed by the
    probes taken in the same round (or set-up)."""
    import_child = host.probed(run_child)
    setup = []
    for i in range(SETUP_SAMPLES + 1):
        outcome = import_child(["-c", "import macwtfb.cli"], runner.deadline)
        if outcome.exit_code != 0:
            raise SystemExit("bench: importing macwtfb failed:\n" + outcome.stderr)
        if i:  # the first import fills the bytecode cache
            setup.append(outcome.wall_s)
    setup_scale = host.scale(PROBES_PER_COMMAND)
    check_criterion8(runner)

    golden = golden_hashes(meta["workload"], seed, commands)
    walls, cpus, command_walls, rss, scales, raw_walls = [], [], [], [], [], []
    first = None
    start = time.perf_counter()
    while not walls or keep_going(runner, start, seconds, raw_walls[-1]):
        mark = len(host.samples)
        done = runner.round(commands, golden, first)
        first = first or done.hashes
        scale = host.scale(mark)
        scales.append(scale)
        raw_walls.append(done.wall_s)
        walls.append(done.wall_s * scale)
        cpus.append(sum(o.cpu_s for o in done.outcomes) * scale)
        command_walls += [o.wall_s * scale for o in done.outcomes]
        rss += [o.rss_mb for o in done.outcomes]
    q, tail_value, beyond = tail(command_walls)
    meta.update(
        setup_samples=len(setup),
        raw_setup_s=statistics.median(setup),
        rounds=len(walls),
        raw_round_walls=raw_walls,
        host_speed_scales=scales + [setup_scale],
        cmd_p50={"percentile": 50.0, "samples": len(command_walls)},
        cmd_tail={"percentile": q, "samples": len(command_walls), "beyond": beyond},
        golden="compared" if golden is not None else "none pinned for this seed",
        df_outside_hybrid_per_round=done.df_outside_hybrid,
    )
    return {
        "setup_s": statistics.median(setup) * setup_scale,
        "wall_s": statistics.median(walls),
        "cmd_p50_s": statistics.median(command_walls),
        "cmd_tail_s": tail_value,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
    }


def import_cli():
    """``macwtfb.cli`` from the checkout, and the seconds its import took
    (the first in this process, so numpy and all of macwtfb load)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import macwtfb.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's src/")
    return cli, import_s


def traced(runner: Runner, commands, seed: int, seconds: float, meta: dict) -> dict:
    check_criterion8(runner)

    golden = golden_hashes(meta["workload"], seed, commands)
    plain_walls, traced_walls, per_round = [], [], []
    first = None
    start = time.perf_counter()
    while not traced_walls or keep_going(runner, start, seconds, done.wall_s):
        recorder = spans.Recorder() if len(plain_walls) > len(traced_walls) else None
        installed = spans.install(recorder) if recorder else None
        try:
            done = runner.round(commands, golden, first)
        finally:
            if installed:
                installed.remove()
        first = first or done.hashes
        if recorder:
            traced_walls.append(done.wall_s)
            per_round.append(spans.layer_metrics(recorder, done.wall_s))
            last_spans = recorder.spans
        else:
            plain_walls.append(done.wall_s)
    spans.write_json(last_spans, WORK / "spans.json")
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    metrics["discrete.df_outside_hybrid"] = done.df_outside_hybrid
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    meta.update(plain_rounds=len(plain_walls), traced_rounds=len(traced_walls),
                golden="compared" if golden is not None else "none pinned for this seed")
    return metrics


# --- metadata and entry point -----------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def versions(deadline: float) -> tuple[str, str]:
    """(macwtfb module path, numpy version) as a child interpreter sees them."""
    outcome = run_child(["-c", "import macwtfb, numpy; print(macwtfb.__file__); "
                               "print(numpy.__version__)"], deadline)
    if outcome.exit_code != 0:
        raise SystemExit("bench: importing macwtfb failed:\n" + outcome.stderr)
    path, numpy_version = outcome.stdout.split()
    return path, numpy_version


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "macwtfb" / "__init__.py").is_file():
        print(f"bench: no macwtfb sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    module_path, numpy_version = versions(deadline)
    if not Path(module_path).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: children import {module_path}, not the checkout's src/", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
        "clients": 1,
    }
    commands = workloads.build(args.workload, args.seed, WORK / "inputs")
    if args.trace:
        cli, import_s = import_cli()
        runner = Runner(lambda argv, _deadline: run_inprocess(cli, argv), deadline)
        values = traced(runner, commands, args.seed, args.seconds, meta)
        values["startup.import_s"] = import_s
        units = spans.metric_units()
    else:
        host = HostSpeed()
        runner = Runner(host.probed(run_cli_child), deadline)
        values = end_to_end(runner, host, commands, args.seed, args.seconds, meta)
        units = END_TO_END_UNITS
    meta.update(attempted=runner.attempted, failed=runner.failed,
                failed_frac=runner.failed / runner.attempted, problems=runner.problems[:20])
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

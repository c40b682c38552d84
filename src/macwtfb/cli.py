"""Command-line surface over the bound computations.

Four subcommands cover the library: ``region`` evaluates the requested
bounds (closed forms for the Gaussian model, seeded searches for a finite
channel file) and writes one file per bound with vertices and boundary
samples; ``powersweep`` tabulates the optimal symmetric power allocation
over a grid of power caps; ``figure`` bundles four preset parameter sets
(2 and 3 produce region-boundary tables, 4 and 5 power sweeps); and
``fm-verify`` checks the exact elimination of the rate-splitting system
against the closed-form sum bound on a corner battery plus seeded random
rational instances; the elimination runs once per process, on the system
with the five constants (a, b, c, d, e) as columns, and each instance only
evaluates the projected rows.

Every run is deterministic: identical flags (including the seed) produce
byte-identical files.  CSV floats are rendered with %.12g; JSON documents
are indented with sorted keys.  Output lands in the current directory
unless --output-dir or the MACWTFB_OUTPUT_DIR environment variable says
otherwise.  Every file goes through one writer, :func:`_emit`, which
writes all of a command's files or none and prints ``wrote <path>`` for
each.

Commands raise their failures and :func:`main` reports each one on stderr
as ``<prog>: error: <message>`` (``invariant violation`` in place of
``error`` for the figure checks).  A Python warning raised by a command,
such as the hybrid closed form's below ``sigma1_sq = 1/(2 pi e)``, is
recorded and printed as one ``<prog>: warning: <message>`` line before any
error line; it changes neither the exit code nor the files.  A usage
error, including an output directory that cannot be created, is reported
before any file is written; ``region discrete`` resolves the directory
after loading the channel and before its search, which runs the df and
hybrid searches in one lockstep (``discrete.search_inners``) when both are
requested.  Each command builds the text of every file before it writes
the first; a file that cannot be written is a usage error too.

``region gaussian`` also warns, once per pair, when an inner region it
writes is not inside another region it writes (df inside hybrid, every
inner inside outer); the files and the exit code stay as they are.

Exit codes: 0 success, 1 verification or input-data failure (an
``fm-verify`` mismatch, an unusable channel file), 2 internal invariant
violation, 64 usage error.

Only ``region discrete`` loads numpy.  At the top this module imports
only the numpy-free ``gaussian`` and ``regions``; every module that
computes with arrays imports numpy at its own top and is imported inside
the handlers that need it.  ``region discrete`` imports ``channels`` and
``discrete`` (the search works on arrays).  ``powersweep`` and
``figure --which 4|5`` import ``power``, which computes on ``math``.
``region gaussian``, ``powersweep``, ``figure`` and ``fm-verify`` run on
the closed forms and on exact integer arithmetic and load neither numpy
nor ``info`` and ``channels``, which saves most of a short command's
start-up.  ``fm-verify`` alone imports ``fm``, ``fractions`` and
``random``.  The same rule keeps ``inspect`` out: the numpy-free modules
define their value types as immutable named tuples, because the standard
module that builds data classes imports ``inspect``, while the array
modules keep their data classes, as numpy imports ``inspect`` anyway.
``json`` is imported only by :func:`_json_text`, for ``--format json``,
and by ``channels`` to read a channel file.  The sweep files hold the bits
of the C library's ``log2``, so they do not depend on which ``log2`` loops
numpy would pick for the CPU.

Run through ``python -m macwtfb`` or the installed ``macwtfb`` command
(:func:`macwtfb.__main__.main`), the numpy command uses one OpenBLAS
thread unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` chooses a count: the package makes no BLAS call large
enough to use more.  :func:`main` itself writes no environment.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Sequence

from . import ValidationError
from .gaussian import (
    GaussianMacWt,
    gaussian_df_region,
    gaussian_hybrid_region,
    gaussian_outer_region,
    tekin_yener_region,
)
from .regions import RateRegion, boundary_samples, is_subset, region_from_halfspaces, region_to_dict

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVARIANT = 2
EXIT_USAGE = 64

OUTPUT_DIR_ENV = "MACWTFB_OUTPUT_DIR"

# Gaussian bounds in file and column order.
_GAUSSIAN_REGION_FNS = {
    "df": gaussian_df_region,
    "hybrid": gaussian_hybrid_region,
    "ty": tekin_yener_region,
    "outer": gaussian_outer_region,
}
_GAUSSIAN_BOUNDS = tuple(_GAUSSIAN_REGION_FNS)
_DISCRETE_BOUNDS = ("df", "hybrid", "outer")

# Power-sweep columns: the CSV header and the JSON row keys.
_SWEEP_COLUMNS = ("P", "p1_star", "p2_star", "r_sum_star", "regime")

# Preset parameter sets for the figure command.  2 and 3 are region
# boundaries (p1, p2, sigma1_sq, sigma2_sq); 4 and 5 are power sweeps
# (p_max, steps, sigma1_sq, sigma2_sq).
_FIGURE_REGION_PRESETS = {
    2: (1.0, 1.0, 1.0, 10.0),
    3: (10.0, 10.0, 5.0, 2.0),
}
_FIGURE_SWEEP_PRESETS = {
    4: (500.0, 100, 5.0, 2.0),
    5: (500.0, 100, 1.0, 10.0),
}
_FIGURE_SAMPLE_COUNT = 101

# Fixed (a, b, c, d, e) tuples always checked by fm-verify, as integer
# (numerator, denominator) pairs: all-zero constants, no key material
# (e = 0), key rate saturated by the leakage (e >= d), and no leakage at
# all (d = 0).
_CORNER_BATTERY = (
    ("corner_zeros", ((0, 1), (0, 1), (0, 1), (0, 1), (0, 1))),
    ("corner_e_zero", ((1, 1), (1, 1), (3, 2), (1, 2), (0, 1))),
    ("corner_e_dominates_d", ((2, 1), (3, 1), (4, 1), (1, 3), (1, 2))),
    ("corner_d_zero", ((1, 1), (1, 1), (3, 2), (0, 1), (1, 4))),
)


# --- argument plumbing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap that to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


def _int_at_least(lower: int):
    """argparse type: an integer no smaller than ``lower``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
        return value

    return parse


def _add_common_flags(parser: argparse.ArgumentParser, handler, with_format: bool = True) -> None:
    """The output flags every command takes, and the handler :func:`main`
    runs, with the command's ``prog`` for its error lines."""
    if with_format:
        parser.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output file format (default: csv)",
        )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="directory for output files (default: $%s or the current directory)" % OUTPUT_DIR_ENV,
    )
    parser.set_defaults(handler=handler, prog=parser.prog)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="macwtfb",
        description="Secrecy-rate bounds for the two-transmitter wiretap channel with feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    region = sub.add_parser(
        "region",
        help="compute bound regions and write vertices plus boundary samples",
    )
    region_sub = region.add_subparsers(dest="source", required=True, metavar="source")

    gauss = region_sub.add_parser("gaussian", help="closed-form bounds for the scalar Gaussian model")
    gauss.add_argument("--p1", type=_finite_float, required=True, help="transmitter 1 average power")
    gauss.add_argument("--p2", type=_finite_float, required=True, help="transmitter 2 average power")
    gauss.add_argument("--sigma1sq", type=_finite_float, required=True, help="main-channel noise variance")
    gauss.add_argument("--sigma2sq", type=_finite_float, required=True, help="eavesdropper noise variance")
    gauss.add_argument(
        "--bounds",
        required=True,
        help="comma-separated subset of %s" % ",".join(_GAUSSIAN_BOUNDS),
    )
    gauss.add_argument(
        "--samples", type=_int_at_least(1), default=101, help="boundary samples per region (default: 101)"
    )
    _add_common_flags(gauss, _cmd_region_gaussian)

    disc = region_sub.add_parser("discrete", help="searched bounds for a finite channel file")
    disc.add_argument("--channel", required=True, help="JSON channel description")
    disc.add_argument(
        "--bounds",
        required=True,
        help="comma-separated subset of %s" % ",".join(_DISCRETE_BOUNDS),
    )
    disc.add_argument(
        "--samples", type=_int_at_least(1), default=101, help="boundary samples per region (default: 101)"
    )
    disc.add_argument("--seed", type=_int_at_least(0), default=0, help="search seed (default: 0)")
    disc.add_argument(
        "--umax", type=_int_at_least(1), default=4, help="largest auxiliary cardinality (default: 4)"
    )
    disc.add_argument(
        "--restarts", type=_int_at_least(1), default=64, help="random restarts per objective (default: 64)"
    )
    disc.add_argument(
        "--iterations", type=_int_at_least(1), default=200, help="ascent sweeps per restart (default: 200)"
    )
    _add_common_flags(disc, _cmd_region_discrete)

    psweep = sub.add_parser("powersweep", help="tabulate the optimal power allocation over a cap grid")
    psweep.add_argument("--pmax", type=_nonnegative_float, required=True, help="largest power cap")
    psweep.add_argument("--steps", type=_int_at_least(2), required=True, help="number of caps in [0, pmax]")
    psweep.add_argument("--sigma1sq", type=_finite_float, required=True, help="main-channel noise variance")
    psweep.add_argument("--sigma2sq", type=_finite_float, required=True, help="eavesdropper noise variance")
    _add_common_flags(psweep, _cmd_powersweep)

    fig = sub.add_parser(
        "figure",
        help="write a preset dataset (2, 3: region boundaries; 4, 5: power sweeps)",
    )
    fig.add_argument(
        "--which",
        type=int,
        choices=sorted(set(_FIGURE_REGION_PRESETS) | set(_FIGURE_SWEEP_PRESETS)),
        required=True,
        help="preset number",
    )
    _add_common_flags(fig, _cmd_figure, with_format=False)

    fmv = sub.add_parser(
        "fm-verify",
        help="check the eliminated rate-splitting system against the closed-form region",
    )
    fmv.add_argument(
        "--samples", type=_int_at_least(1), required=True, help="number of random rational instances"
    )
    fmv.add_argument("--seed", type=_int_at_least(0), default=0, help="sampling seed (default: 0)")
    _add_common_flags(fmv, _cmd_fm_verify)

    return parser


# --- output and failures ------------------------------------------------------


class _Failure(Exception):
    """A failed command.  :func:`main` prints ``<prog>: <label>: <line>`` on
    stderr for each line and exits with ``code``."""

    def __init__(self, code: int, *lines: str, label: str = "error"):
        super().__init__(*lines)
        self.code = code
        self.label = label


def _fmt(value: float) -> str:
    # adding 0.0 turns IEEE negative zero into plain zero before rendering
    return "%.12g" % (float(value) + 0.0)


def _json_text(doc) -> str:
    import json

    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    """CSV lines; cells that are not strings are rendered with :func:`_fmt`."""
    lines = (",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in [header, *rows])
    return "\n".join(lines) + "\n"


def _output_dir(args) -> Path:
    """The output directory, created if missing; one that cannot be is a usage error."""
    path = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use output directory '{path}': {exc.strerror or exc}") from None
    return path


def _emit(files: dict[Path, str]) -> None:
    """Write a command's output files, all or none, and report each; no
    other code opens a file here.  Every text goes to a temporary file in
    its target's directory, and the temporaries replace their targets only
    once every write has succeeded.  A file that cannot be written is a
    usage error, and no temporary file outlives the call."""
    temporaries = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for path, text in files.items():
            if path.is_dir():  # the one target a rename cannot replace
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(temporaries[path], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for path, temporary in temporaries.items():
            os.replace(temporary, path)
    except OSError as exc:
        raise ValidationError(f"cannot write '{path}': {exc.strerror or exc}") from None
    finally:  # every temporary is renamed on success; remove any a failure left
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)
    for path in files:
        print(f"wrote {path}")


def _parse_bounds(text: str, allowed: Sequence[str]) -> list[str]:
    requested = [token.strip() for token in text.split(",") if token.strip()]
    if not requested:
        raise ValidationError("no bounds requested")
    unknown = [token for token in requested if token not in allowed]
    if unknown:
        raise ValidationError(
            "unknown or unavailable bound(s) %s; valid here: %s"
            % (", ".join(repr(t) for t in unknown), ", ".join(allowed))
        )
    return [name for name in allowed if name in requested]


def _region_text(name: str, region: RateRegion, n_samples: int, fmt: str) -> str:
    samples = boundary_samples(region, n_samples)
    if fmt == "json":
        return _json_text(dict(region_to_dict(region), bound=name, samples=[[x, y] for x, y in samples]))
    rows = [("vertex", str(i), x, y) for i, (x, y) in enumerate(region.vertices)]
    rows += [("sample", str(i), x, y) for i, (x, y) in enumerate(samples)]
    return _csv_text(("section", "index", "r1", "r2"), rows)


def _sweep_text(table, fmt: str) -> str:
    rows = [(cap, *(getattr(res, column) for column in _SWEEP_COLUMNS[1:])) for cap, res in table]
    if fmt == "json":
        return _json_text({"rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows]})
    return _csv_text(_SWEEP_COLUMNS, rows)


# --- region ---------------------------------------------------------------------


def _write_regions(out_dir: Path, regions: dict[str, RateRegion], args) -> int:
    # every text is built before the first file is written
    texts = {name: _region_text(name, region, args.samples, args.format) for name, region in regions.items()}
    _emit({out_dir / f"region_{name}.{args.format}": text for name, text in texts.items()})
    return EXIT_OK


def _cmd_region_gaussian(args) -> int:
    bounds = _parse_bounds(args.bounds, _GAUSSIAN_BOUNDS)
    g = GaussianMacWt(args.p1, args.p2, args.sigma1sq, args.sigma2sq)
    regions = {name: _GAUSSIAN_REGION_FNS[name](g) for name in bounds}
    for problem in _containment_failures(regions):
        warnings.warn(problem)
    return _write_regions(_output_dir(args), regions, args)


def _cmd_region_discrete(args) -> int:
    from .channels import load_channel
    from .discrete import SearchConfig, search_inner, search_inners, search_outer

    bounds = _parse_bounds(args.bounds, _DISCRETE_BOUNDS)
    config = SearchConfig(
        u_cardinality_max=args.umax,
        restarts=args.restarts,
        refinement_iterations=args.iterations,
        seed=args.seed,
    )
    try:
        kernel = load_channel(args.channel)
    except (OSError, ValidationError) as exc:
        raise _Failure(EXIT_FAILURE, str(exc)) from exc
    # resolved before the search, so an unusable directory fails fast
    out_dir = _output_dir(args)
    inner = [name for name in bounds if name != "outer"]
    # Two inner bounds share one lockstep.  A single one goes through
    # search_inner, the one-kind view, because the benchmark's layer spans
    # time and count that function by name.
    if len(inner) > 1:
        hulls = dict(zip(inner, (result.hull for result in search_inners(kernel, inner, config))))
    else:
        hulls = {name: search_inner(kernel, name, config).hull for name in inner}
    regions = {}
    for name in bounds:  # filled in bounds order, the order of the files
        if name == "outer":
            _, value = search_outer(kernel, config)
            regions[name] = region_from_halfspaces([(1.0, 1.0, value)])
        else:
            regions[name] = hulls[name]
    return _write_regions(out_dir, regions, args)


# --- powersweep -----------------------------------------------------------------


def _cmd_powersweep(args) -> int:
    from .power import sweep

    g = GaussianMacWt(args.pmax, args.pmax, args.sigma1sq, args.sigma2sq)
    text = _sweep_text(sweep(args.pmax, args.steps, g), args.format)
    _emit({_output_dir(args) / f"powersweep.{args.format}": text})
    return EXIT_OK


# --- figure ---------------------------------------------------------------------


def _containment_failures(regions: dict[str, RateRegion]) -> list[str]:
    """Cross-bound containment: df inside hybrid, every inner inside outer."""
    failures = []
    pairs = (("df", "hybrid"), ("df", "outer"), ("hybrid", "outer"), ("ty", "outer"))
    for inner_name, outer_name in pairs:
        if inner_name in regions and outer_name in regions:
            if not is_subset(regions[inner_name], regions[outer_name]):
                failures.append(f"{inner_name} region is not contained in the {outer_name} region")
    return failures


def _cmd_figure(args) -> int:
    out_dir = _output_dir(args)
    which = args.which
    if which in _FIGURE_REGION_PRESETS:
        g = GaussianMacWt(*_FIGURE_REGION_PRESETS[which])
        regions = {name: region_fn(g) for name, region_fn in _GAUSSIAN_REGION_FNS.items()}
        problems = _containment_failures(regions)
        if problems:
            raise _Failure(EXIT_INVARIANT, *problems, label="invariant violation")
        sampled = [boundary_samples(region, _FIGURE_SAMPLE_COUNT) for region in regions.values()]
        header = ["sample", *(f"{name}_{axis}" for name in regions for axis in ("r1", "r2"))]
        rows = ([str(i), *(v for points in sampled for v in points[i])] for i in range(_FIGURE_SAMPLE_COUNT))
        text = _csv_text(header, rows)
    else:
        from .power import sweep

        p_max, steps, s1, s2 = _FIGURE_SWEEP_PRESETS[which]
        g = GaussianMacWt(p_max, p_max, s1, s2)
        table = sweep(p_max, steps, g)
        rates = [res.r_sum_star for _, res in table]
        if any(later < earlier - 1e-12 for earlier, later in zip(rates, rates[1:])):
            raise _Failure(
                EXIT_INVARIANT, "optimal sum rate decreased along the sweep", label="invariant violation"
            )
        text = _sweep_text(table, "csv")
    _emit({out_dir / f"fig{which}.csv": text})
    return EXIT_OK


# --- fm-verify ------------------------------------------------------------------


def _fm_cases(count: int, seed: int) -> list[tuple[str, tuple]]:
    """The corner battery, then ``count`` seeded rational (a, b, c, d, e)
    tuples in [0, 4] with denominator <= 64, each as ``(name, Fractions)``."""
    import random
    from fractions import Fraction

    rng = random.Random(seed)

    def rational() -> Fraction:
        den = rng.randint(1, 64)
        return Fraction(rng.randint(0, 4 * den), den)

    corners = [(name, tuple(Fraction(*pair) for pair in pairs)) for name, pairs in _CORNER_BATTERY]
    return corners + [(f"sample_{index:04d}", tuple(rational() for _ in range(5))) for index in range(count)]


def _vertices_text(vertices) -> str:
    if not vertices:
        return "(empty)"
    return "; ".join("(%s, %s)" % (x, y) for x, y in vertices)


def _cmd_fm_verify(args) -> int:
    from .fm import verify_hybrid_region_projection

    out_dir = _output_dir(args)
    cases = _fm_cases(args.samples, args.seed)
    records = [(name, consts, verify_hybrid_region_projection(*consts)) for name, consts in cases]
    if args.format == "csv":
        rows = ([name, *map(str, consts), "true" if check.match else "false"] for name, consts, check in records)
        text = _csv_text(("case", "a", "b", "c", "d", "e", "match"), rows)
    else:
        cases_doc = [
            {"case": name, "constants": [str(v) for v in consts], "match": check.match}
            for name, consts, check in records
        ]
        text = _json_text({"cases": cases_doc})
    _emit({out_dir / f"fm_verify.{args.format}": text})
    failures = [record for record in records if not record[2].match]
    print("fm-verify: %d instances checked, %d mismatches" % (len(records), len(failures)))
    for name, consts, check in failures:
        print(
            "mismatch %s: (a, b, c, d, e) = (%s)" % (name, ", ".join(str(v) for v in consts)),
            file=sys.stderr,
        )
        print(
            "  eliminated-system vertices: %s" % _vertices_text(check.projected_vertices),
            file=sys.stderr,
        )
        print(
            "  closed-form vertices:       %s" % _vertices_text(check.closed_form_vertices),
            file=sys.stderr,
        )
    return EXIT_FAILURE if failures else EXIT_OK


# --- entry point ----------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.handler(args)
        except ValidationError as exc:
            failure = _Failure(EXIT_USAGE, str(exc))
        except _Failure as exc:
            failure = exc
    for warning in caught:
        print(f"{args.prog}: warning: {warning.message}", file=sys.stderr)
    if failure is None:
        return code
    for line in failure.args:
        print(f"{args.prog}: {failure.label}: {line}", file=sys.stderr)
    return failure.code

"""End-to-end checks of the command-line surface.

Commands are driven in-process through ``main`` so exit codes, stdout, and
the produced files can be asserted directly.  Determinism is checked at
the byte level: two runs with identical flags must write identical files.
"""

import json
from fractions import Fraction

import pytest

from macwtfb import ValidationError, cli, discrete, fm, power
from macwtfb.cli import (
    EXIT_FAILURE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    _containment_failures,
    _fmt,
    main,
)
from macwtfb.gaussian import GaussianMacWt, gaussian_hybrid_region, gaussian_outer_region
from macwtfb.regions import boundary_samples, region_from_halfspaces

FIG2_FLAGS = ["--p1", "1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10"]


def write_zy_channel(path):
    """Y = X1 xor X2 and Z = Y: the eavesdropper sees everything."""
    t = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            y = a ^ b
            t[a][b][y][y] = 1.0
    doc = {"x1_size": 2, "x2_size": 2, "y_size": 2, "z_size": 2, "transition": t}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


SMALL_SEARCH = ["--umax", "2", "--restarts", "2", "--iterations", "20"]


# --- region: gaussian source ----------------------------------------------------


def test_region_gaussian_writes_one_file_per_bound(tmp_path):
    code = main(
        ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,hybrid,ty,outer", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["region_df.csv", "region_hybrid.csv", "region_outer.csv", "region_ty.csv"]


def test_region_gaussian_csv_matches_library_samples(tmp_path):
    main(
        ["region", "gaussian", *FIG2_FLAGS, "--bounds", "outer", "--samples", "11", "--output-dir", str(tmp_path)]
    )
    header, rows = read_rows(tmp_path / "region_outer.csv")
    assert header == ["section", "index", "r1", "r2"]
    g = GaussianMacWt(1.0, 1.0, 1.0, 10.0)
    region = gaussian_outer_region(g)
    vertex_rows = [r for r in rows if r[0] == "vertex"]
    sample_rows = [r for r in rows if r[0] == "sample"]
    assert len(vertex_rows) == len(region.vertices)
    assert len(sample_rows) == 11
    for row, (x, y) in zip(sample_rows, boundary_samples(region, 11)):
        assert row[2] == _fmt(x) and row[3] == _fmt(y)


def test_region_gaussian_json_structure(tmp_path):
    main(
        ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df", "--samples", "5", "--format", "json", "--output-dir", str(tmp_path)]
    )
    doc = json.loads((tmp_path / "region_df.json").read_text(encoding="utf-8"))
    assert sorted(doc) == ["bound", "halfspaces", "samples", "vertices"]
    assert doc["bound"] == "df"
    assert len(doc["samples"]) == 5
    assert all(len(point) == 2 for point in doc["samples"])


def test_region_gaussian_warns_when_an_inner_region_leaves_the_outer(tmp_path, capsys):
    argv = ["region", "gaussian", "--p1", "10", "--p2", "10", "--sigma1sq", "2", "--sigma2sq", "2.5"]
    code = main([*argv, "--bounds", "hybrid,outer", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "macwtfb region gaussian: warning: hybrid region is not contained in the outer region"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["region_hybrid.csv", "region_outer.csv"]
    # the warning changes no byte of the files
    quiet = tmp_path / "quiet"
    for name in ("hybrid", "outer"):
        assert main([*argv, "--bounds", name, "--output-dir", str(quiet)]) == EXIT_OK
        assert (quiet / f"region_{name}.csv").read_bytes() == (tmp_path / f"region_{name}.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_region_gaussian_figure_two_point_does_not_warn(tmp_path, capsys):
    code = main(["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,hybrid,ty,outer", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_region_gaussian_rejects_unknown_bound(tmp_path, capsys):
    code = main(
        ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,secret", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "secret" in capsys.readouterr().err


def test_region_gaussian_equal_variances_is_usage_error(tmp_path, capsys):
    code = main(
        ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "2", "--sigma2sq", "2", "--bounds", "outer", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "equal noise variances" in capsys.readouterr().err


# --- region: discrete source ----------------------------------------------------


def test_region_discrete_fully_exposed_channel_collapses_to_origin(tmp_path):
    channel = write_zy_channel(tmp_path / "zy.json")
    code = main(
        ["region", "discrete", "--channel", channel, "--bounds", "hybrid", *SMALL_SEARCH, "--samples", "7", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_rows(tmp_path / "region_hybrid.csv")
    assert [r for r in rows if r[0] == "vertex"] == [["vertex", "0", "0", "0"]]
    assert all(r[2] == "0" and r[3] == "0" for r in rows if r[0] == "sample")


def test_region_discrete_outer_is_a_sum_triangle(tmp_path):
    channel = write_zy_channel(tmp_path / "zy.json")
    main(
        ["region", "discrete", "--channel", channel, "--bounds", "outer", *SMALL_SEARCH, "--format", "json", "--output-dir", str(tmp_path)]
    )
    doc = json.loads((tmp_path / "region_outer.json").read_text(encoding="utf-8"))
    # H(Y|Z) = 0 when Z = Y, so even the outer region collapses.
    assert doc["vertices"] == [[0.0, 0.0]]


def test_region_discrete_ty_is_usage_error(tmp_path, capsys):
    channel = write_zy_channel(tmp_path / "zy.json")
    code = main(["region", "discrete", "--channel", channel, "--bounds", "ty", "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "ty" in capsys.readouterr().err


def test_region_discrete_malformed_channel_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"x1_size": 2,\n  "oops"\n}', encoding="utf-8")
    code = main(["region", "discrete", "--channel", str(bad), "--bounds", "df", "--output-dir", str(tmp_path)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "line 3" in err and "bad.json" in err


def test_region_discrete_non_utf8_channel_reports_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"x1_size": \xff2}')
    code = main(["region", "discrete", "--channel", str(bad), "--bounds", "df", "--output-dir", str(tmp_path)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "error:" in err and "bad.json" in err and "byte offset 12" in err


def test_region_discrete_missing_channel_file(tmp_path, capsys):
    code = main(
        ["region", "discrete", "--channel", str(tmp_path / "nope.json"), "--bounds", "df", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_FAILURE
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "transition, message",
    [
        ([[[[True]]]], "is not a number"),
        ([[[[0.0, True]]]], "is not a number"),
        ([[[["1.0"]]]], "is not a number"),
        ([[[[10 ** 400]]]], "not a rectangular numeric array: int too large"),
    ],
    ids=["true", "late_true", "string", "huge_int"],
)
def test_region_discrete_rejects_non_numeric_probabilities(tmp_path, capsys, transition, message):
    path = tmp_path / "chan.json"
    doc = {"x1_size": 1, "x2_size": 1, "y_size": 1, "z_size": len(transition[0][0][0]), "transition": transition}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["region", "discrete", "--channel", str(path), "--bounds", "outer", "--output-dir", str(out_dir)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not out_dir.exists()


def test_region_discrete_deeply_nested_channel_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text(
        '{"x1_size": 1, "x2_size": 1, "y_size": 1, "z_size": 1, "transition": '
        + "[" * depth + "]" * depth + "}",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code = main(["region", "discrete", "--channel", str(path), "--bounds", "outer", "--output-dir", str(out_dir)])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "deep.json" in err and "nested too deeply" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["powersweep", "--pmax", "1e308", "--steps", "3", "--sigma1sq", "1", "--sigma2sq", "10"],
        ["region", "gaussian", "--p1", "1e308", "--p2", "1e308", "--sigma1sq", "1", "--sigma2sq", "10", "--bounds", "df,hybrid,ty,outer"],
    ],
    ids=["powersweep", "region_gaussian"],
)
def test_overflowing_total_power_is_usage_error(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code = main([*argv, "--output-dir", str(out_dir)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: (p1 + p2) / min(sigma1_sq, sigma2_sq) overflows" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["region", "gaussian", "--p1", "-1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10", "--bounds", "df"],
            "macwtfb region gaussian: error: p1 must be finite and nonnegative, got -1.0",
        ),
        (
            ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "0", "--sigma2sq", "2"],
            "macwtfb powersweep: error: sigma1_sq must be finite and positive, got 0.0",
        ),
    ],
    ids=["region_gaussian_negative_power", "powersweep_zero_variance"],
)
def test_library_argument_error_is_one_exact_line(tmp_path, capsys, argv, line):
    out_dir = tmp_path / "out"
    code = main([*argv, "--output-dir", str(out_dir)])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", line + "\n")
    assert not out_dir.exists()


# --- powersweep -----------------------------------------------------------------


def test_powersweep_two_steps_starts_at_zero(tmp_path):
    code = main(
        ["powersweep", "--pmax", "500", "--steps", "2", "--sigma1sq", "5", "--sigma2sq", "2", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    header, rows = read_rows(tmp_path / "powersweep.csv")
    assert header == ["P", "p1_star", "p2_star", "r_sum_star", "regime"]
    assert len(rows) == 2
    assert rows[0] == ["0", "0", "0", "0", "below_threshold"]


def test_powersweep_saturates_above_threshold(tmp_path):
    main(
        ["powersweep", "--pmax", "500", "--steps", "100", "--sigma1sq", "5", "--sigma2sq", "2", "--output-dir", str(tmp_path)]
    )
    header, rows = read_rows(tmp_path / "powersweep.csv")
    assert len(rows) == 100
    assert rows[-1][4] == "above_threshold"
    assert rows[-1][3] == _fmt(2.5596560262934571)
    rates = [float(r[3]) for r in rows]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(rates, rates[1:]))


def test_powersweep_domain_violation_cites_breakpoint(tmp_path, capsys):
    code = main(
        ["powersweep", "--pmax", "10", "--steps", "5", "--sigma1sq", "0.01", "--sigma2sq", "2", "--output-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE
    assert "breakpoint" in capsys.readouterr().err


def test_powersweep_negative_pmax_names_the_flag(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["powersweep", "--pmax", "-1", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2", "--output-dir", str(out_dir)])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "macwtfb powersweep: error: argument --pmax: must be nonnegative, got -1" in err
    assert "p1 must be" not in err
    assert not out_dir.exists()


def test_powersweep_one_step_names_the_flag(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["powersweep", "--pmax", "10", "--steps", "1", "--sigma1sq", "5", "--sigma2sq", "2", "--output-dir", str(out_dir)])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: macwtfb powersweep")
    assert "macwtfb powersweep: error: argument --steps: must be at least 2, got 1" in err
    assert "sweep needs" not in err
    assert not out_dir.exists()


def test_powersweep_json_rows(tmp_path):
    main(
        ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2", "--format", "json", "--output-dir", str(tmp_path)]
    )
    doc = json.loads((tmp_path / "powersweep.json").read_text(encoding="utf-8"))
    assert [row["P"] for row in doc["rows"]] == [0.0, 5.0, 10.0]
    assert doc["rows"][0]["r_sum_star"] == 0.0


# --- figure ---------------------------------------------------------------------


def test_figure_two_has_all_four_bound_columns(tmp_path):
    code = main(["figure", "--which", "2", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_rows(tmp_path / "fig2.csv")
    assert header == ["sample", "df_r1", "df_r2", "hybrid_r1", "hybrid_r2", "ty_r1", "ty_r2", "outer_r1", "outer_r2"]
    assert len(rows) == 101
    # the sum-rate endpoints of the four boundaries
    assert rows[-1][1] == "0.5"
    assert rows[-1][7] == _fmt(2.6320580859017973)


def test_figure_three_documents_degenerate_inner_bounds(tmp_path):
    main(["figure", "--which", "3", "--output-dir", str(tmp_path)])
    header, rows = read_rows(tmp_path / "fig3.csv")
    assert all(r[1] == "0" and r[2] == "0" and r[5] == "0" and r[6] == "0" for r in rows)
    assert any(r[3] != "0" for r in rows)
    assert rows[-1][7] == _fmt(2.8395768355412192)


@pytest.mark.parametrize("which", ["4", "5"])
def test_figure_sweeps_write_sweep_tables(tmp_path, which):
    code = main(["figure", "--which", which, "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_rows(tmp_path / f"fig{which}.csv")
    assert header == ["P", "p1_star", "p2_star", "r_sum_star", "regime"]
    assert len(rows) == 100


def test_containment_gate_flags_a_violation():
    big = region_from_halfspaces([(1.0, 1.0, 2.0)])
    small = region_from_halfspaces([(1.0, 1.0, 1.0)])
    assert _containment_failures({"df": big, "hybrid": small}) == [
        "df region is not contained in the hybrid region"
    ]
    assert _containment_failures({"df": small, "hybrid": big, "outer": big, "ty": small}) == []
    assert EXIT_INVARIANT == 2
    # The pairs are derived from the roles: every bound but outer is inner,
    # each inner must lie inside outer, and df inside hybrid too.  With all
    # four Gaussian regions failing, the messages come in bounds order, the
    # order region gaussian and figure print them on stderr.
    tiny = region_from_halfspaces([(1.0, 1.0, 0.5)])
    failing = {"df": big, "hybrid": small, "ty": big, "outer": tiny}
    expected = [
        "df region is not contained in the hybrid region",
        "df region is not contained in the outer region",
        "hybrid region is not contained in the outer region",
        "ty region is not contained in the outer region",
    ]
    assert _containment_failures(failing) == expected
    # another key order checks the same pairs; ty, outside hybrid here, is
    # never checked against it
    assert sorted(_containment_failures(dict(reversed(failing.items())))) == expected
    # outer, outside every other region here, is never checked as an inner one
    assert _containment_failures({"outer": big, "df": small, "hybrid": small, "ty": small}) == []


def _big_df_region(g):
    return region_from_halfspaces([(1.0, 1.0, 100.0)])


def _reversed_sweep(p_max, steps, g, real=power.sweep):
    return real(p_max, steps, g)[::-1]


@pytest.mark.parametrize(
    "which, target, fake, message",
    [
        ("2", "df", _big_df_region, "df region is not contained in the hybrid region"),
        ("3", "df", _big_df_region, "df region is not contained in the hybrid region"),
        ("4", "sweep", _reversed_sweep, "optimal sum rate decreased along the sweep"),
        ("5", "sweep", _reversed_sweep, "optimal sum rate decreased along the sweep"),
    ],
    ids=["2", "3", "4", "5"],
)
def test_figure_invariant_violation_writes_nothing(tmp_path, capsys, monkeypatch, which, target, fake, message):
    if target == "sweep":
        monkeypatch.setattr(power, "sweep", fake)
    else:
        monkeypatch.setitem(cli._GAUSSIAN_REGION_FNS, target, fake)
    code = main(["figure", "--which", which, "--output-dir", str(tmp_path)])
    assert code == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert f"macwtfb figure: invariant violation: {message}" in captured.err.splitlines()
    assert "wrote" not in captured.out
    assert list(tmp_path.glob("fig*.csv")) == []


# --- fm-verify ------------------------------------------------------------------


def test_fm_verify_passes_and_reports_every_case(tmp_path, capsys):
    code = main(["fm-verify", "--samples", "12", "--seed", "7", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "16 instances checked, 0 mismatches" in out
    header, rows = read_rows(tmp_path / "fm_verify.csv")
    assert header == ["case", "a", "b", "c", "d", "e", "match"]
    assert len(rows) == 16
    assert rows[0][0] == "corner_zeros"
    assert all(row[6] == "true" for row in rows)


def test_fm_verify_json_report(tmp_path):
    code = main(["fm-verify", "--samples", "3", "--format", "json", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "fm_verify.json").read_text(encoding="utf-8"))
    assert len(doc["cases"]) == 7
    assert all(case["match"] is True for case in doc["cases"])
    assert doc["cases"][1]["constants"] == ["1", "1", "3/2", "1/2", "0"]


def test_fm_verify_mismatch_keeps_the_file_and_reports_both_vertex_sets(tmp_path, capsys, monkeypatch):
    real = fm.verify_hybrid_region_projection

    def flip_corner_e_zero(*consts):
        check = real(*consts)
        if consts == (1, 1, Fraction(3, 2), Fraction(1, 2), 0):
            return check._replace(match=False, projected_vertices=((Fraction(1, 3), Fraction(0)),))
        return check

    monkeypatch.setattr(fm, "verify_hybrid_region_projection", flip_corner_e_zero)
    code = main(["fm-verify", "--samples", "2", "--output-dir", str(tmp_path)])
    assert code == EXIT_FAILURE
    captured = capsys.readouterr()
    assert "6 instances checked, 1 mismatches" in captured.out
    header, rows = read_rows(tmp_path / "fm_verify.csv")
    assert [row[0] for row in rows if row[6] == "false"] == ["corner_e_zero"]
    err = captured.err.splitlines()
    assert "mismatch corner_e_zero: (a, b, c, d, e) = (1, 1, 3/2, 1/2, 0)" in err
    assert "  eliminated-system vertices: (1/3, 0)" in err
    assert "  closed-form vertices:       (0, 0); (1, 0); (0, 1)" in err


def test_fm_verify_seeds_differ(tmp_path):
    main(["fm-verify", "--samples", "5", "--seed", "1", "--output-dir", str(tmp_path / "a")])
    main(["fm-verify", "--samples", "5", "--seed", "2", "--output-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "fm_verify.csv").read_bytes()
    b = (tmp_path / "b" / "fm_verify.csv").read_bytes()
    assert a != b


# --- shared behavior ------------------------------------------------------------


def test_identical_flags_give_byte_identical_files(tmp_path):
    channel = write_zy_channel(tmp_path / "zy.json")
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        main(["figure", "--which", "2", "--output-dir", out])
        main(["powersweep", "--pmax", "20", "--steps", "4", "--sigma1sq", "5", "--sigma2sq", "2", "--output-dir", out])
        main(["fm-verify", "--samples", "6", "--seed", "3", "--format", "json", "--output-dir", out])
        main(["region", "discrete", "--channel", channel, "--bounds", "df", *SMALL_SEARCH, "--output-dir", out])
    for name in ("fig2.csv", "powersweep.csv", "fm_verify.json", "region_df.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_output_dir_env_var_is_the_default(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("MACWTFB_OUTPUT_DIR", str(target))
    code = main(["figure", "--which", "5"])
    assert code == EXIT_OK
    assert (target / "fig5.csv").exists()


BAD_DIR_COMMANDS = {
    "region_gaussian": ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,outer"],
    "region_discrete": ["region", "discrete", "--channel", "CHANNEL", "--bounds", "df,outer"],
    "region_discrete_joint": ["region", "discrete", "--channel", "CHANNEL", "--bounds", "df,hybrid,outer"],
    "powersweep": ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2"],
    "figure": ["figure", "--which", "2"],
    "fm_verify": ["fm-verify", "--samples", "2"],
}


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran before the output directory was checked")


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", sorted(BAD_DIR_COMMANDS))
def test_unusable_output_dir_is_usage_error(tmp_path, capsys, monkeypatch, command, via):
    monkeypatch.setattr(discrete, "search_inner", _no_search)
    monkeypatch.setattr(discrete, "search_inners", _no_search)
    monkeypatch.setattr(discrete, "search_outer", _no_search)
    channel = write_zy_channel(tmp_path / "zy.json")
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    argv = [channel if arg == "CHANNEL" else arg for arg in BAD_DIR_COMMANDS[command]]
    if via == "flag":
        argv += ["--output-dir", str(afile)]
    else:
        monkeypatch.setenv("MACWTFB_OUTPUT_DIR", str(afile))
    code = main(argv)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot use output directory '{afile}':" in captured.err
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "zy.json"]
    assert afile.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize(
    "argv, prog, blocked, written",
    [
        (["figure", "--which", "2"], "macwtfb figure", "fig2.csv", []),
        (
            ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,hybrid"],
            "macwtfb region gaussian",
            "region_hybrid.csv",
            [],
        ),
    ],
    ids=["figure", "region_second_file"],
)
def test_unwritable_output_file_is_usage_error(tmp_path, capsys, argv, prog, blocked, written):
    (tmp_path / blocked).mkdir()
    code = main([*argv, "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{prog}: error: cannot write '{tmp_path / blocked}': Is a directory"]
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == written


def test_written_files_replace_their_targets_and_leave_no_temporary(tmp_path, capsys):
    (tmp_path / "region_df.csv").write_text("stale\n", encoding="utf-8")
    argv = ["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,hybrid,ty,outer"]
    assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_OK
    names = ["region_df.csv", "region_hybrid.csv", "region_ty.csv", "region_outer.csv"]
    assert capsys.readouterr().out.splitlines() == [f"wrote {tmp_path / name}" for name in names]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert (tmp_path / "region_df.csv").read_text(encoding="utf-8").startswith("section,index,r1,r2\n")


ENTROPY_FLOOR_WARNING = (
    "macwtfb region gaussian: warning: main-noise differential entropy is negative "
    "(sigma1_sq=0.01 < 1/(2 pi e)); the hybrid sum bound is evaluated literally "
    "and shrinks below decode-and-forward"
)


@pytest.mark.parametrize("blocked", [False, True], ids=["written", "unwritable"])
def test_python_warnings_become_one_warning_line(tmp_path, capsys, blocked):
    # The warning is printed in the CLI's own format, before any error line;
    # it changes neither the exit code nor the file, which holds the
    # library's region.
    target = tmp_path / "region_hybrid.csv"
    if blocked:
        target.mkdir()
    argv = ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "0.01", "--sigma2sq", "1"]
    code = main([*argv, "--bounds", "hybrid", "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert lines[0] == ENTROPY_FLOOR_WARNING
    assert "RuntimeWarning" not in captured.err and "cli.py" not in captured.err
    if blocked:
        assert code == EXIT_USAGE
        assert lines[1:] == [f"macwtfb region gaussian: error: cannot write '{target}': Is a directory"]
        return
    assert code == EXIT_OK and lines == [ENTROPY_FLOOR_WARNING]
    with pytest.warns(RuntimeWarning, match="evaluated literally"):
        region = gaussian_hybrid_region(GaussianMacWt(1.0, 1.0, 0.01, 1.0))
    _, rows = read_rows(target)
    vertex_rows = [r for r in rows if r[0] == "vertex"]
    assert [(r[2], r[3]) for r in vertex_rows] == [(_fmt(x), _fmt(y)) for x, y in region.vertices]


def test_region_texts_are_built_before_any_file_is_written(tmp_path, capsys, monkeypatch):
    real = cli._region_text

    def fail_on_second(name, *args):
        if name == "hybrid":
            raise ValidationError("no text for the second bound")
        return real(name, *args)

    monkeypatch.setattr(cli, "_region_text", fail_on_second)
    code = main(["region", "gaussian", *FIG2_FLAGS, "--bounds", "df,hybrid,outer", "--output-dir", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "macwtfb region gaussian: error: no text for the second bound\n"
    assert list(tmp_path.glob("region_*")) == []


def test_usage_errors_exit_sixtyfour():
    for argv in (
        [],
        ["bogus"],
        ["figure", "--which", "7"],
        ["powersweep", "--pmax", "10", "--steps", "0", "--sigma1sq", "5", "--sigma2sq", "2"],
        ["fm-verify", "--samples", "-3"],
        ["region", "gaussian", "--p1", "inf", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10", "--bounds", "df"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE


def test_float_rendering_normalizes_negative_zero():
    assert _fmt(-0.0) == "0"
    assert _fmt(2.5596560262934571) == "2.55965602629"

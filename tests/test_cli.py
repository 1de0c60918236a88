"""End-to-end checks of the command-line front end."""

import csv
import json
import warnings
from fractions import Fraction

import pytest

from duporcq import cli, study
from duporcq.cli import main
from duporcq.geometry import (
    AffineMap2,
    BaseParams,
    PentapodDesign,
    PlanarPoint,
    build_platform,
    design_to_dict,
    duporcq_hexapod,
    reconstruct_candidates,
    worked_design,
    WORKED_PARAMS,
)
from duporcq.selfmotion import TOL_LEG, build_motion_design, motion_radii


def write_design(tmp_path, design, hexapod=None, name="design.json"):
    path = tmp_path / name
    path.write_text(json.dumps(design_to_dict(design, hexapod)))
    return str(path)


def worked_file(tmp_path, with_sixth=True):
    d = worked_design()
    hexa = duporcq_hexapod(d) if with_sixth else None
    return write_design(tmp_path, d, hexa)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -------------------------------------------------------------------- classify

def test_classify_worked(tmp_path, capsys):
    code, out = run_cli(capsys, "classify", worked_file(tmp_path),
                        "--samples", "10")
    assert code == 0
    assert out["verdict"] == "duporcq-rec2"
    assert out["matched_slot"] == "2bi"
    assert out["accepted_slots"] == ["1a", "2bi", "3"]
    assert set(out["rejections"]) == {"1b", "2a", "2bii"}


def test_classify_planar_affine(tmp_path, capsys):
    d = worked_design()
    path = write_design(tmp_path, PentapodDesign(d.base, d.base,
                                                 (1, 1, 1, 1, 1)))
    code, out = run_cli(capsys, "classify", path, "--samples", "10")
    assert code == 0
    assert out["verdict"] == "planar-affine"
    assert out["matched_slot"] == "1a"


def test_classify_rejected_slot(tmp_path, capsys):
    cand = next(c for c in reconstruct_candidates(WORKED_PARAMS)
                if c.tag == "2bii")
    d = worked_design()
    path = write_design(tmp_path, PentapodDesign(d.base, cand.platform,
                                                 (1, 1, 1, 1, 1)))
    code, out = run_cli(capsys, "classify", path, "--samples", "10")
    assert code == 0
    assert out["verdict"] == "invalid-case-2bii"


def test_classify_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "classify", str(bad))[0] == 2
    assert run_cli(capsys, "classify", str(tmp_path / "missing.json"))[0] == 2


def test_classify_noncanonical_base(tmp_path, capsys):
    d = worked_design()
    base = (d.base[1], d.base[0]) + d.base[2:]
    path = write_design(tmp_path, PentapodDesign(base, d.platform, d.radii2))
    assert run_cli(capsys, "classify", path)[0] == 3


def test_classify_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, out = run_cli(capsys, "classify", worked_file(tmp_path),
                        "--samples", "10", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == out


# ---------------------------------------------------------------------- motion

def test_motion_worked(tmp_path, capsys):
    csv_path = tmp_path / "motion.csv"
    code, out = run_cli(capsys, "motion", worked_file(tmp_path),
                        "--samples", "20", "--out", str(csv_path))
    assert code == 0
    assert out["samples"] == 20
    assert out["max_residual"] <= 1e-9
    assert out["max_f0"] <= 1e-12
    assert out["tangent_rank"] == 2
    assert out["radii2"] == ["1", "18", "18/25", "1", "18"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:8] == ["e0", "e1", "e2", "e3", "f0", "f1", "f2", "f3"]
    assert rows[0][8:] == [f"res{i}" for i in range(1, 7)]
    assert len(rows) == 21
    assert all(float(r[0]) == 0.0 for r in rows[1:])


def test_motion_single_sample(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    code, out = run_cli(capsys, "motion", worked_file(tmp_path, False),
                        "--samples", "1", "--out", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[0].endswith("res5")


def test_motion_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    path = worked_file(tmp_path)
    run_cli(capsys, "motion", path, "--samples", "8", "--out", str(a))
    run_cli(capsys, "motion", path, "--samples", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_motion_perturbed_radius_inconsistent(tmp_path, capsys):
    # the file's (r1^2, r2^2) pass the gate, but its r3^2 is off G = 0
    d = worked_design()
    path = write_design(tmp_path, PentapodDesign(d.base, d.platform,
                                                 (1, 18, 1, 1, 18)))
    code, _ = run_cli(capsys, "motion", path, "--samples", "3",
                      "--out", str(tmp_path / "x.csv"))
    assert code == 5


@pytest.mark.parametrize("flag, value, radii", [
    ("--r1sq", "2", ["2", "18", "48/25", "2", "18"]),
    ("--r2sq", "17", ["1", "17", "23/25", "1", "17"]),
])
def test_motion_radius_override_samples_the_moving_radii(tmp_path, capsys,
                                                         flag, value, radii):
    # an override samples the radii motion_radii solves for, not the file's
    # r3^2..r5^2 next to the new pair (that design has no motion and
    # exited 5 on its inconsistent slice)
    code, out = run_cli(capsys, "motion", worked_file(tmp_path, False),
                        flag, value, "--samples", "5",
                        "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert out["radii2"] == radii
    assert out["samples"] == 5


@pytest.mark.parametrize("flag, value", [("--r1sq", "2"), ("--r2sq", "17")])
def test_motion_radius_override_on_a_hexapod_file_samples_six_legs(
        tmp_path, capsys, flag, value):
    # the sixth leg takes r3^2, which motion_radii solves for, so an
    # override moves the hexapod too: its six legs close at the solved radii
    csv_path = tmp_path / "x.csv"
    code, out = run_cli(capsys, "motion", worked_file(tmp_path), flag, value,
                        "--samples", "5", "--out", str(csv_path))
    assert code == 0
    r1sq, r2sq = ((Fraction(value), 18) if flag == "--r1sq"
                  else (1, Fraction(value)))
    radii = motion_radii(WORKED_PARAMS, r1sq, r2sq)
    assert out["radii2"] == [str(r) for r in radii]
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == out["samples"] == 5
    tol = TOL_LEG * (1 + max(radii))
    assert all(abs(float(row[f"res{i}"])) <= tol
               for row in rows for i in range(1, 7))


def test_motion_unrealizable_radii(tmp_path, capsys):
    code, _ = run_cli(capsys, "motion", worked_file(tmp_path),
                      "--r2sq", "100", "--samples", "3",
                      "--out", str(tmp_path / "x.csv"))
    assert code == 4


@pytest.mark.parametrize("flag", ["--r1sq", "--r2sq"])
def test_motion_bad_radius_flag_is_schema_error(tmp_path, capsys, flag):
    code = main(["motion", worked_file(tmp_path), flag, "abc",
                 "--samples", "3", "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "abc" in json.loads(captured.err)["error"]


def test_non_list_design_field_is_schema_error(tmp_path, capsys):
    d = design_to_dict(worked_design())
    d["base"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert run_cli(capsys, "classify", str(path))[0] == 2


def test_motion_needs_identity_platform(tmp_path, capsys):
    d = worked_design()
    path = write_design(tmp_path, PentapodDesign(d.base, d.base,
                                                 (1, 1, 1, 1, 1)))
    code, _ = run_cli(capsys, "motion", path, "--samples", "3",
                      "--out", str(tmp_path / "x.csv"))
    assert code == 3


def test_motion_needs_the_identity_mu(tmp_path, capsys):
    # a kappa_2 platform under another normalization mu is refused by name
    d = worked_design()
    platform = build_platform(WORKED_PARAMS, AffineMap2(2, 0, 1))
    path = write_design(tmp_path, PentapodDesign(d.base, platform, d.radii2))
    code = main(["motion", path, "--samples", "3",
                 "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert json.loads(captured.err) == {
        "error": "motion sampling needs the identity kappa_2 platform"}


@pytest.mark.parametrize("command", ["motion", "pipeline"])
def test_platform_outside_the_kappa2_frame_is_refused_by_name(
        tmp_path, capsys, command):
    # a platform of neither collinearity case has no kappa_2 twin, and a
    # translated kappa_2 platform is not normalized in its frame
    d = worked_design()
    moved = tuple(p + PlanarPoint(1, 0) for p in d.platform)
    for platform, error in ((d.base, "no case-2/case-3 collinearity"),
                            (moved, "platform not normalized")):
        path = write_design(tmp_path, PentapodDesign(d.base, platform,
                                                     d.radii2))
        code = main([command, path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert error in json.loads(captured.err)["error"]


# -------------------------------------------------------------------- pipeline

def test_pipeline_worked_file(tmp_path, capsys):
    code, out = run_cli(capsys, "pipeline", worked_file(tmp_path))
    assert code == 0
    assert out["conclusion"].startswith("two-parameter self-motion")
    assert out["F1F2"]["F2_identically_zero"] is True
    assert out["Ke"]["e0e3_ratio"] == "-8"
    assert out["ansatz"]["forces_all_zero"] is True
    assert out["chain"]["factors"]["match"] is True


def test_pipeline_matches_params_form(tmp_path, capsys):
    _, from_file = run_cli(capsys, "pipeline", worked_file(tmp_path))
    _, from_params = run_cli(capsys, "pipeline", "--params", "0,1,2,3",
                             "--mu", "1,0,1", "--radii", "1,18,18/25,1,18")
    assert from_file == from_params


def test_pipeline_generic_mu(capsys):
    code, out = run_cli(capsys, "pipeline", "--params", "0,1,2,3",
                        "--mu", "2,0,1")
    assert code == 0
    assert out["conclusion"] == "no two-parameter self-motion"
    assert out["Ke"]["e0e3_ratio"] == "-12"
    assert out["T"]["epsilons"]["eps01"] == "-6"
    assert out["F1F2"]["F2"] == "2*e2^2"
    assert out["chain"]["factors"]["match"] is True


def test_pipeline_params_with_a_negative_first_value(capsys):
    # argparse reads "-1/2,..." after a space as an option, so a negative
    # first value is given in the --params= form
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--params", "-1/2,-2,1/2,3", "--mu", "2,1,3"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out = run_cli(capsys, "pipeline", "--params=-1/2,-2,1/2,3",
                        "--mu=2,1,3", "--radii=1,2,3,4,5")
    assert code == 0
    assert out["Ke"]["e0e3_ratio"] == "-20"
    assert out["T"]["epsilons"]["eps01"] == "-45"


def test_pipeline_degenerate_base(capsys):
    code, _ = run_cli(capsys, "pipeline", "--params", "0,2,3,2")
    assert code == 3


def test_pipeline_without_input(capsys):
    assert run_cli(capsys, "pipeline")[0] == 2


@pytest.mark.parametrize("options", [
    ["--mu", "3/2,1/5,-2", "--radii", "1,2,3,4,5"],
    ["--params", "0,1,2,3"],
])
def test_pipeline_refuses_a_file_with_params_options(tmp_path, capsys,
                                                     options):
    # the file's report was printed with --mu and --radii ignored, and the
    # --params report with the file ignored, both with exit 0
    code = main(["pipeline", worked_file(tmp_path), *options])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {
        "error": "pipeline takes a design file or --params (with --mu, "
                 "--radii), not both"}


def test_pipeline_invariant_violation_exits_3(monkeypatch, capsys):
    real = study.leg_split

    def perturbed(design):
        # break the first check: the K_e weights must annihilate the f-rows
        split = real(design)
        row, c = split[4]
        split[4] = ((row[0], row[1] + study.GENS["e0"]) + row[2:], c)
        return split

    monkeypatch.setattr(study, "leg_split", perturbed)
    code = main(["pipeline", "--params", "1/3,-2,5/2,7",
                 "--mu", "3/2,1/5,-2", "--radii", "1,2,3,4,5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "f1 survives" in json.loads(captured.err)["error"]


def test_profile_with_four_collinear_points_exits_3(tmp_path, capsys):
    # a direction carrying several collinear triples has no extended
    # picture; that is a degenerate configuration, not a crash
    pts = [PlanarPoint(x, y) for x, y in ((0, 0), (1, 0), (2, 0), (3, 0),
                                          (0, 1))]
    path = write_design(tmp_path, PentapodDesign(pts, pts, (1, 1, 1, 1, 1)))
    code = main(["profile", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "collinear triples" in json.loads(captured.err)["error"]


def test_motion_invariant_violation_exits_3(monkeypatch, tmp_path, capsys):
    # a vanishing r3sq coefficient of G is an invariant failure, not a crash
    monkeypatch.setattr("duporcq.selfmotion.g_coefficients",
                        lambda gpoly: (1, 1, 1, 0, 1, 1))
    code = main(["motion", worked_file(tmp_path), "--samples", "1",
                 "--out", str(tmp_path / "m.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "r3sq" in json.loads(captured.err)["error"]


# --------------------------------------------------------------- hexapod-check

def test_hexapod_check_worked(tmp_path, capsys):
    code, out = run_cli(capsys, "hexapod-check", worked_file(tmp_path),
                        "--samples", "25")
    assert code == 0
    assert out["sixth_radius2"] == "18/25"
    assert out["max_residual"] <= 1e-9
    assert out["arch_worst_sv"] <= 1e-9
    assert out["architecturally_singular"] is True


def test_hexapod_check_completes_missing_sixth(tmp_path, capsys):
    code, out = run_cli(capsys, "hexapod-check",
                        worked_file(tmp_path, with_sixth=False),
                        "--samples", "10")
    assert code == 0
    assert out["sixth_vertex"]["M"] == ["2/5", "3/5"]
    assert out["sixth_vertex"]["m"] == ["-1", "0"]


def test_hexapod_check_non_duporcq(tmp_path, capsys):
    d = worked_design()
    path = write_design(tmp_path, PentapodDesign(d.base, d.base,
                                                 (1, 1, 1, 1, 1)))
    assert run_cli(capsys, "hexapod-check", path, "--samples", "5")[0] == 3


# --------------------------------------------------------------------- profile

def test_profile_worked(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    code, out = run_cli(capsys, "profile", worked_file(tmp_path),
                        "--samples", "4", "--out", str(csv_path))
    assert code == 0
    entries = {e["direction"]: e for e in out["base"]["special_directions"]}
    assert entries["d123"]["membership"] == [[4, 5]]
    assert entries["d123"]["extended"] is True
    assert entries["d24"]["membership"] == [[2, 4]]
    assert entries["d24"]["extended"] is False
    assert len(out["base"]["components"]) == 6
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "phi0", "phi1", "phi2", "phi3", "phi4", "phi5"]
    assert len(rows) == 5


# ------------------------------------------------------------------------- svg

def test_svg_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    path = worked_file(tmp_path)
    code, out = run_cli(capsys, "svg", path, "--out", str(a))
    assert code == 0
    assert out["bytes"] == len(a.read_bytes())
    run_cli(capsys, "svg", path, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    for color in ("silver", "blue", "gold", "hotpink", "green", "orange"):
        assert color in text
    for label in ("L45", "L12", "L15", "L14", "L25", "L24", "M6", "m6"):
        assert label in text


def test_svg_coordinate_without_a_float_is_a_schema_error(tmp_path, capsys):
    # float() of the exact coordinate raised OverflowError (exit 1)
    d = design_to_dict(worked_design())
    d["base"][3][0] = "1e400"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "x.svg"
    code = main(["svg", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "no finite float" in json.loads(captured.err)["error"]
    assert not out.exists()


def test_svg_span_without_a_float_frame_is_a_schema_error(tmp_path, capsys):
    # each coordinate has a float, but the frame built from their span
    # overflowed and the drawing got nan and inf coordinates (exit 0)
    d = design_to_dict(worked_design())
    d["base"][3][0] = "1.5e308"
    d["base"][4][0] = "-1e307"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "x.svg"
    code = main(["svg", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "no finite float" in json.loads(captured.err)["error"]
    assert not out.exists()


# ---------------------------------------------------------------------- config

def test_rejects_nonpositive_tolerance(tmp_path, capsys):
    code = main(["motion", worked_file(tmp_path), "--tol-f0", "0",
                 "--out", str(tmp_path / "m.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"error": "--tol-f0 must be positive"}


def off_motion_file(tmp_path):
    """The worked pentapod with r3^2 = 721/1000 in place of 18/25: no
    self-motion, so its linear slices are inconsistent."""
    d = worked_design()
    radii = d.radii2[:2] + (Fraction(721, 1000),) + d.radii2[3:]
    return write_design(tmp_path, PentapodDesign(d.base, d.platform, radii))


def test_motion_off_motion_radius_is_an_inconsistent_slice(tmp_path, capsys):
    code = main(["motion", off_motion_file(tmp_path), "--samples", "3",
                 "--out", str(tmp_path / "m.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (5, "")
    assert json.loads(captured.err) == {"error": "linear slice is inconsistent"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--tol-f0"])
def test_rejects_non_finite_tolerance(tmp_path, capsys, flag, value):
    # nan passed the old "<= 0" gate, and a nan bound rejects every pose
    csv_path = tmp_path / "m.csv"
    code = main(["motion", off_motion_file(tmp_path), f"{flag}={value}",
                 "--samples", "3", "--out", str(csv_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"error": "--tol-f0 must be finite"}
    assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "{design}", "--tol-leg", "1e-9"],
    ["motion", "{design}", "--tol-leg", "1e-9"],
    ["hexapod-check", "{design}", "--tol-leg", "1e-9"],
    ["pipeline", "{design}", "--seed", "1"],
    ["profile", "{design}", "--seed", "1"],
    ["svg", "{design}", "--samples", "3"],
])
def test_rejects_an_option_the_command_does_not_read(argv, tmp_path, capsys):
    path = worked_file(tmp_path)
    with pytest.raises(SystemExit) as done:
        main([a.format(design=path) for a in argv])
    assert done.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_rejects_nonpositive_samples(tmp_path, capsys):
    code, _ = run_cli(capsys, "classify", worked_file(tmp_path),
                      "--samples", "0")
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "hexapod-check"])
def test_rejects_negative_seed(tmp_path, capsys, command):
    # numpy's default_rng raised a bare ValueError (exit 1) on hexapod-check
    code = main([command, worked_file(tmp_path), "--seed", "-1",
                 "--samples", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {
        "error": "--seed must be non-negative"}


def huge_radius_file(tmp_path):
    """The worked pentapod with r3^2 = 10^400, which has no finite float."""
    d = worked_design()
    radii = d.radii2[:2] + (Fraction(10) ** 400,) + d.radii2[3:]
    return write_design(tmp_path, PentapodDesign(d.base, d.platform, radii),
                        name="huge.json")


@pytest.mark.parametrize("argv", [
    ["motion", "{huge}"],
    ["hexapod-check", "{huge}"],
    ["motion", "{worked}", "--r1sq", "1e400"],
])
def test_radius_without_a_float_is_a_schema_error(argv, tmp_path, capsys):
    # float() of the exact radius raised OverflowError (exit 1)
    files = {"huge": huge_radius_file(tmp_path),
             "worked": worked_file(tmp_path)}
    code = main([a.format(**files) for a in argv]
                + ["--samples", "3", "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "no finite float" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("command", ["motion", "hexapod-check"])
def test_slice_without_a_float_is_a_schema_error(command, tmp_path, capsys):
    # on the base (0, 10^155, 2, 3) every radius and anchor has a float but
    # the squares of the leg slice overflow; both commands exited 0 with
    # nan in every CSV row and "max_residual": NaN.  No numpy warning
    # reaches stderr
    design = build_motion_design(BaseParams(0, 10**155, 2, 3), 1, 1)
    csv_path = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, write_design(tmp_path, design),
                     "--samples", "3", "--out", str(csv_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {
        "error": "leg slice has no finite float"}
    assert not csv_path.exists()


# ---------------------------------------------------------------------- parser

def test_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys):
    builds = []
    real = cli._build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    path = worked_file(tmp_path)
    assert run_cli(capsys, "classify", path)[0] == 0
    assert run_cli(capsys, "profile", path)[0] == 0
    assert len(builds) == 1
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == real().format_help()
    with pytest.raises(SystemExit) as done:
        main(["no-such-command"])
    assert done.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    assert len(builds) == 1

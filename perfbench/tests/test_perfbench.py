"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run from the repository root:
    python3 -m pytest perfbench/tests -q
"""

import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import workloads as W

from duporcq import cli, study
from duporcq.exactpoly import ZeroDegree


def _snapshot(wl, workdir):
    """Everything the program would receive, with the work dir blanked."""
    ops = []
    for op in wl.ops:
        argvs = [[a.replace(workdir, "<dir>") for a in argv]
                 for argv in op.argvs]
        ops.append((op.kind, op.group, argvs, repr(op.expect).replace(
            workdir, "<dir>"), op.props))
    files = {name: Path(workdir, name).read_text()
             for name in sorted(os.listdir(workdir))}
    return ops, files, wl.shares


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = _snapshot(W.build(name, 7, str(dirs[0])), str(dirs[0]))
    b = _snapshot(W.build(name, 7, str(dirs[1])), str(dirs[1]))
    c = _snapshot(W.build(name, 8, str(dirs[2])), str(dirs[2]))
    assert a == b
    assert a[0] != c[0]


def test_stated_input_shares(tmp_path):
    cls = W.build("classify-survey", 3, str(tmp_path))
    assert cls.shares["slot"] == {s: round(1 / 6, 4) for s in sorted(W.SLOTS)}
    elim = W.build("elimination-survey", 3, str(tmp_path))
    assert elim.shares["mu"] == {"generic": 0.75, "identity": 0.25}
    sym = W.build("symbolic-scale", 3, str(tmp_path))
    assert set(sym.shares["menu"].values()) == {0.25}


def test_workloads_are_the_ones_benchmark_json_names():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)


def test_draws_stay_in_the_stated_domains(tmp_path):
    elim = W.build("elimination-survey", 3, str(tmp_path))
    for op in elim.ops:
        mu1, mu2, mu3 = op.expect["mu"]
        assert mu2 or mu1 + mu3
    motion = W.build("motion-sampling", 3, str(tmp_path))
    for op in motion.ops:
        if op.kind == "motion":
            r1sq, r2sq = op.expect["radii"][:2]
            assert W.worked_half_turn_rho2(r1sq, r2sq) >= \
                W.HALF_TURN_RHO2_MIN


def test_generated_designs_match_the_package_constructions(tmp_path):
    from duporcq.geometry import BaseParams, reconstruct_candidates
    from duporcq.selfmotion import build_motion_design

    for r1sq, r2sq in ((1, 18), (Fraction(29, 4), 18), (21, 2)):
        design = build_motion_design(BaseParams(0, 1, 2, 3), r1sq, r2sq)
        assert tuple((p.x, p.y) for p in design.base) == W.WORKED_BASE
        assert tuple((p.x, p.y) for p in design.platform) == \
            W.WORKED_PLATFORM
        assert design.radii2[2] == W.worked_r3sq(r1sq, r2sq)
    params = (Fraction(1, 3), Fraction(-2), Fraction(5, 2), Fraction(7))
    ours = W.slot_platforms(W.canonical_base(*params))
    for cand in reconstruct_candidates(BaseParams(*params)):
        assert tuple((p.x, p.y) for p in cand.platform) == ours[cand.tag]


# ------------------------------------------------- known failures, not drawn
# Each reproduces a failure of the program that the workloads keep out of
# their domains; once the program is fixed the test passes, strict xfail
# turns that into a failure, and the domain can be widened again.

@pytest.mark.xfail(strict=True, raises=ZeroDegree,
                   reason="resultant_chain raises ZeroDegree at mu2 = 0, "
                          "mu3 = -mu1")
def test_known_failure_pipeline_at_mu2_zero_mu3_minus_mu1():
    assert cli.main(["pipeline", "--params=3/4,2/3,-4,-5/2",
                     "--mu=1,0,-1", "--radii=1,1,1,1,1"]) == 0


def _motion_exit_code(tmp_path, r1sq, r2sq, *extra):
    radii = (r1sq, r2sq, W.worked_r3sq(r1sq, r2sq), r1sq, r2sq)
    path = str(tmp_path / "pentapod.json")
    W._write_json(path, W.design_json(W.WORKED_BASE, W.WORKED_PLATFORM,
                                      radii))
    return _run_cli(["motion", path, "--samples", str(W.MOTION_SAMPLES),
                     "--out", str(tmp_path / "motion.csv"), *extra], [])


@pytest.mark.xfail(strict=True, reason="|f0| is held to an unscaled 1e-12")
def test_known_failure_motion_f0_at_the_default_tolerance(tmp_path):
    assert _motion_exit_code(tmp_path, 10, 10) == 0


def test_motion_passes_at_the_scaled_f0_tolerance(tmp_path):
    radii = (10, 10, W.worked_r3sq(10, 10))
    assert _motion_exit_code(tmp_path, 10, 10, "--tol-f0",
                             repr(W.motion_tol_f0(radii))) == 0


@pytest.mark.xfail(strict=True, reason="the tangent test's reference pose "
                                       "lies on an empty half-turn circle")
def test_known_failure_motion_with_an_empty_half_turn_circle(tmp_path):
    assert W.worked_half_turn_rho2(2, 2) < 0
    assert _motion_exit_code(tmp_path, 2, 2) == 0


# ------------------------------------------------------------------ checks

def _cli_outputs(op):
    outs = []
    for argv in op.argvs:
        rec_out = []
        code = _run_cli(argv, rec_out)
        assert code == 0
        outs.append(json.loads(rec_out[0]))
    return outs


def _run_cli(argv, sink):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    sink.append(buf.getvalue())
    return code


def _first(wl, group):
    return next(op for op in wl.ops if op.group == group)


def test_classify_check_rejects_corrupted_outputs(tmp_path):
    wl = W.build("classify-survey", 1, str(tmp_path))
    op = _first(wl, "classify/2bii")
    outs = _cli_outputs(op)
    assert W.check_classify(op.expect, outs) is None
    bad = copy.deepcopy(outs)
    bad[0]["accepted_slots"] = ["1a", "2bi"]
    assert W.check_classify(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[0]["verdict"] = "duporcq-rec2"
    assert W.check_classify(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[0]["matched_slot"] = "2bi"
    assert W.check_classify(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[1]["base"]["special_directions"][0]["membership"] = [[1, 2]]
    assert W.check_classify(op.expect, bad)


@pytest.mark.parametrize("group", ["pipeline/identity-mu",
                                   "pipeline/generic-mu"])
def test_pipeline_check_rejects_corrupted_outputs(group, tmp_path):
    wl = W.build("elimination-survey", 1, str(tmp_path))
    op = _first(wl, group)
    outs = _cli_outputs(op)
    assert W.check_pipeline(op.expect, outs) is None
    bad = copy.deepcopy(outs)
    bad[0]["conclusion"] = ("no two-parameter self-motion"
                            if group.startswith("pipeline/identity")
                            else "two-parameter self-motion")
    assert W.check_pipeline(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[0]["Ke"]["e0e3_ratio"] = "-7"
    assert W.check_pipeline(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[0]["chain"]["factors"]["match"] = False
    assert W.check_pipeline(op.expect, bad)


def test_motion_check_rejects_corrupted_outputs(tmp_path):
    path = str(tmp_path / "worked.json")
    out = str(tmp_path / "motion.csv")
    W._write_json(path, W.design_json(W.WORKED_BASE, W.WORKED_PLATFORM,
                                      W.WORKED_RADII))
    op = W.Op("motion", argvs=[["motion", path, "--samples",
                                str(W.MOTION_SAMPLES), "--out", out]],
              expect={"radii": W.WORKED_RADII, "csv": out})
    outs = _cli_outputs(op)
    assert W.check_motion(op.expect, outs) is None
    bad = copy.deepcopy(outs)
    bad[0]["tangent_rank"] = 1
    assert W.check_motion(op.expect, bad)
    bad = copy.deepcopy(outs)
    bad[0]["samples"] = W.MOTION_SAMPLES - 1
    assert W.check_motion(op.expect, bad)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    for col, value in ((5, 0.25), (4, 1e-9)):      # move f1, then f0
        broken = copy.deepcopy(rows)
        broken[3][col] = repr(float(broken[3][col]) + value)
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(broken)
        assert W.check_motion(op.expect, outs)


def test_hexapod_check_rejects_corrupted_outputs(tmp_path):
    wl = W.build("motion-sampling", 1, str(tmp_path))
    op = _first(wl, "hexapod-check")
    outs = _cli_outputs(op)
    assert W.check_hexapod(op.expect, outs) is None
    for key, value in (("architecturally_singular", False),
                       ("sixth_radius2", "18/24"), ("max_f0", 1e-6)):
        bad = copy.deepcopy(outs)
        bad[0][key] = value
        assert W.check_hexapod(op.expect, bad)


def test_symbolic_check_rejects_corrupted_outputs():
    g = study.GENS
    d = study.CanonicalDesign(g["A4"], Fraction(1), Fraction(2),
                              Fraction(3), Fraction(2), Fraction(1, 2),
                              Fraction(3), (1, 2, 3, 4, 5))
    expect = {"numeric": {"B4": Fraction(1), "A5": Fraction(2),
                          "B5": Fraction(3), "mu1": Fraction(2),
                          "mu2": Fraction(1, 2), "mu3": Fraction(3)},
              "point_seed": 5}
    ke = study.compute_Ke(d)
    td = study.rank_drop_T(d)
    good = {"Ke": ke, "T": td}
    assert W.check_symbolic(expect, [good]) is None
    e0 = g["e0"]
    wrong_T = SimpleNamespace(
        T=SimpleNamespace(poly=td.T.poly + e0 * e0), epsilons=td.epsilons)
    assert W.check_symbolic(expect, [{"T": wrong_T}])
    swapped = dict(td.epsilons)
    swapped["eps01"], swapped["eps23"] = swapped["eps23"], swapped["eps01"]
    assert W.check_symbolic(expect, [{"T": SimpleNamespace(
        T=td.T, epsilons=swapped)}])
    assert W.check_symbolic(expect, [{"Ke": SimpleNamespace(
        poly=ke.poly * 2)}])
    chain = SimpleNamespace(factor_match=False, gcd=g["e1"])
    assert W.check_symbolic(expect, [{"chain": chain}])


# ---------------------------------------------------------------- tracing

@pytest.mark.parametrize("name,count", [("classify-survey", 1),
                                        ("elimination-survey", 2),
                                        ("motion-sampling", 4),
                                        ("symbolic-scale", 1)])
def test_traced_and_untraced_runs_give_the_same_outputs(name, count,
                                                        tmp_path):
    wl = W.build(name, 2, str(tmp_path))
    original = cli.main
    plain = [run.run_op(cli, op) for op in wl.ops[:count]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        traced = [run.run_op(cli, op) for op in wl.ops[:count]]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert not any(r["wrong"] for r in plain + traced)
    metrics = tracer.metrics(count, 1.0)
    assert set(metrics) == set(spans.PER_LAYER)
    if name == "classify-survey":
        assert metrics["moebius.same_picture.calls"]["value"] > 0
        assert metrics["moebius.base_picture.repeat_ratio"]["value"] > 1
        assert metrics["cli.main.self_ms"]["value"] > 0
    elif name == "elimination-survey":
        assert metrics["study.rank_drop_T.det_calls"]["value"] == 5
        assert metrics["study.delta.repeat_ratio"]["value"] == 2
    elif name == "motion-sampling":
        assert metrics["selfmotion.sample_pose.calls"]["value"] > 0
    else:
        assert metrics["study.Ke.terms"]["value"] == 1356


def test_tracer_refuses_a_function_the_package_lacks(monkeypatch):
    original = cli.main
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (
        ("exactpoly", "MPoly.no_such_method", "exactpoly.gone"),))
    tracer = spans.Tracer()
    with pytest.raises(LookupError, match="MPoly.no_such_method"):
        tracer.install()
    assert cli.main is original
    assert tracer._patches == []


def test_a_broken_size_hook_changes_the_traced_output(monkeypatch,
                                                      tmp_path):
    op = W.build("elimination-survey", 2, str(tmp_path)).ops[1]
    plain = run.run_op(cli, op)

    def broken(self, args, result, exc):
        raise TypeError("the hook no longer fits det")

    monkeypatch.setattr(spans.Tracer, "_leave_exactpoly_det", broken)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_op(cli, op)
    finally:
        tracer.uninstall()
    assert plain["outcome"] == "exit 0"
    assert traced["digest"] != plain["digest"]


# ------------------------------------------------------------ the runner

def test_tail_is_a_fixed_percentile():
    assert run.tail(list(range(1, 201)), 90) == (180, 20)
    assert run.tail(list(range(1, 101)), 90) == (90, 10)
    assert run.tail(list(range(1, 51)), 90) == (45, 5)
    assert run.tail(list(range(1, 501)), 98) == (490, 10)
    assert run.tail([7.0] * 3 + [1.0] * 5, 90) == (7.0, 0)


def test_setup_probe_reports_a_corrected_time():
    ready, corrected = run.probe_setup("symbolic-scale", 1)
    assert 0 < ready < run.PROBE_TIMEOUT_S
    assert 0 < corrected < run.PROBE_TIMEOUT_S


def test_error_class_groups_equal_causes():
    a = run.error_class('{"error": "|f0| = 1.358e-12 over 1.000e-12"}')
    b = run.error_class('{"error": "|f0| = 2.1e-12 over 1.000e-12"}')
    assert a == b == "|f0| = # over #"


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Repository guards that keep the package's invariants enforceable."""

import argparse
import ast
import csv
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import duporcq
import duporcq.cli
from duporcq.geometry import design_to_dict, worked_design

PACKAGE = Path(duporcq.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = Path(__file__).resolve().parents[1] / "README.md"

# each script with its smallest arguments and the files it writes
SCRIPT_RUNS = {
    "export_worked_design.py": (["--out", "design.json"], ["design.json"]),
    "ratio_survey.py": (["--draws", "1"], []),
}


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises typed exceptions,
    # and the scripts exit 1 with a message
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _read_names(tree) -> set:
    """Every name the tree loads, a string annotation's names included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        note = (getattr(node, "annotation", None)
                or getattr(node, "returns", None))
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _read_names(ast.parse(note.value, mode="eval"))
    return read


def _unread_names(tree) -> list:
    """(line, name) of each module-level import and each function-local
    assignment that nothing reads; names starting with _ are exempt."""
    read = _read_names(tree)
    found = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    found = [(line, name) for line, name in found if name not in read]
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # a nested function is its own scope, but its reads of this
        # function's names count
        nested = {id(node) for inner in ast.walk(fn) if inner is not fn
                  and isinstance(inner, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda))
                  for node in ast.walk(inner)}
        shared = {name for node in ast.walk(fn)
                  if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        fn_read = _read_names(fn)
        found += [(node.lineno, node.id) for node in ast.walk(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)
                  and id(node) not in nested
                  and node.id not in fn_read | shared]
    return sorted((line, name) for line, name in set(found)
                  if not name.startswith("_"))


def test_package_has_no_unread_names():
    # an import nothing reads, or a local assigned and never read, is dead
    # code; a name starting with _ marks one that is meant to go unread
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unread_names(tree)]
    assert found == []


# the public library names that no module in src/, scripts/ or perfbench/
# references: the paper oracles the tests check the package against, and
# the exact leg model and kernel views the tests build their oracles from
UNREFERENCED_PUBLIC_NAMES = {
    "apply_pose", "build_motion_design", "circle_translations",
    "cross_ratio", "dij", "exact_rank", "f1_degeneracy_certificate",
    "f_matrix_at", "platform_m3_closed_form", "pose_from_translation",
    "similarity_bond", "translational_submotion",
    # acceptance test 08's claim at numeric points, until it states the
    # generic one
    "chain_vanishes_at",
    "sphere_condition", "MPoly.from_exponents", "MPoly.monomials",
}


def test_public_names_are_referenced_or_listed():
    # a public function, class or method that nothing in the package, the
    # scripts or the benchmark refers to by name is library code only the
    # tests call: delete it, or list it above as an oracle.  The list holds
    # exactly those names, so it does not go stale.  The benchmark's span
    # and counter names ("Class.method") count as references
    refs = set()
    sources = (sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
               + sorted(SPANS.parent.glob("*.py")))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
            elif (path == SPANS and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                refs.update(node.value.split("."))
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            public.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                public += [(f"{node.name}.{m.name}", m.name)
                           for m in node.body
                           if isinstance(m, ast.FunctionDef)]
    unreferenced = {qualified for qualified, name in public
                    if not name.startswith("_") and name not in refs}
    assert unreferenced == UNREFERENCED_PUBLIC_NAMES


def test_only_the_kernel_reads_polynomial_terms():
    # MPoly stores a content as a numerator and denominator pair and a dict
    # of packed exponents to ints, a layout private to exactpoly; other
    # modules go through its methods.
    # MPoly.terms rebuilds Fraction coefficients on every read, so it is
    # left to tests and the benchmark, and exactpoly does not read it either
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        banned = {"terms"}
        if path.name != "exactpoly.py":
            banned |= {"_num", "_den", "_prim"}
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in banned]
    assert found == []


def test_only_the_kernel_names_the_gaussian_scalar():
    # directions and polynomial coefficients are rational, so no module but
    # exactpoly, which defines them, names GaussRational, I or as_gauss
    gaussian = {"GaussRational", "I", "as_gauss"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactpoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id in gaussian)
                  or (isinstance(node, ast.Attribute)
                      and node.attr in gaussian)
                  or (isinstance(node, ast.ImportFrom)
                      and any(a.name in gaussian for a in node.names))]
    assert found == []


def test_selfmotion_keeps_no_cache():
    # each public call of selfmotion builds its float legs once and passes
    # them down; a functools cache would hash the design on every pose and
    # keep the legs after the call
    tree = ast.parse((PACKAGE / "selfmotion.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name == "functools" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and node.module == "functools")
             or (isinstance(node, (ast.Name, ast.Attribute))
                 and getattr(node, "id", getattr(node, "attr", None))
                 in {"lru_cache", "cache", "cached_property"})]
    assert found == []


def test_cli_import_does_not_load_numpy():
    # numpy is about half of the CLI's import time, and classify, pipeline
    # and profile never use it; main() builds the argparse parser on its
    # first call, so the import builds none either
    env = _package_env()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, duporcq.cli as cli; "
         "print('numpy' in sys.modules, cli._parser is None)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False True"


def test_cli_import_does_not_build_the_ring_G():
    # selfmotion builds G over the base ring on the first derive_G call,
    # so importing the CLI, which every subcommand does, pays no ring build
    env = _package_env()
    done = subprocess.run(
        [sys.executable, "-c",
         "import duporcq.cli, duporcq.selfmotion as s; "
         "print(s._ring_G is None)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_cli_subcommands_accept_only_what_they_read():
    # each subcommand's parser accepts exactly the attributes its function
    # reads from the parsed namespace, and --out also where main writes
    # the JSON report there, so no option is settable and then ignored
    parser = duporcq.cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    for name, p in sub.choices.items():
        accepted = {a.dest for a in p._actions if a.dest != "help"}
        tree = ast.parse(inspect.getsource(p.get_default("func")))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        if name in duporcq.cli.JSON_OUT_COMMANDS:
            read.add("out")
        assert accepted == read, name


def test_bench_tracer_installs(tmp_path, capsys):
    # the traced benchmark wraps package functions by name; renaming or
    # removing one of them must fail here, not only in a benchmark run.
    # One op of each benchmarked subcommand prints under the tracer what
    # it prints untraced (the tracer's hooks read the wrapped functions'
    # arguments), and the motion and classify ops book their work to the
    # sample_pose and candidate_report spans
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design_to_dict(worked_design())))
    ops = [["motion", str(path), "--samples", "10",
            "--out", str(tmp_path / "motion.csv")],
           ["classify", str(path), "--samples", "10"],
           ["profile", str(path), "--samples", "3"],
           ["pipeline", "--params", "0,1,2,3"],
           ["hexapod-check", str(path), "--samples", "10"]]

    def run_all():
        out = []
        for argv in ops:
            assert duporcq.cli.main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    untraced = run_all()
    original = duporcq.cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert duporcq.cli.main is not original
        traced = run_all()
    finally:
        tracer.uninstall()
    assert duporcq.cli.main is original
    assert traced == untraced
    assert tracer.calls("selfmotion.sample_pose") > 0
    assert tracer.calls("moebius.candidate_report") > 0


def test_scripts_run(tmp_path):
    # the scripts import the package by name; a rename that breaks one
    # must fail here
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SCRIPT_RUNS)
    env = _package_env()
    for name, (args, outputs) in SCRIPT_RUNS.items():
        done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, f"{name}: {done.stderr}"
        for out in outputs:
            assert (tmp_path / out).stat().st_size > 0, f"{name}: {out}"


def test_readme_example_prints_what_its_comment_says(tmp_path):
    # the README's python example runs as it is written, and prints the
    # text of its last line's trailing comment
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = block.rstrip().splitlines()[-1].partition("  # ")[2]
    assert expected
    done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                          env=_package_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected + "\n"


def test_readme_worked_configuration_runs_as_written(tmp_path):
    # the README's worked-configuration commands are the way to write the
    # worked hexapod's motion to CSV; each line runs as written, with
    # duporcq as python -m duporcq and scripts/ the repository's scripts
    [block] = re.findall(r"## Worked configuration\n.*?```sh\n(.*?)```",
                         README.read_text(), re.S)
    env = _package_env()
    for line in block.splitlines():
        argv = shlex.split(line)
        if argv[0] == "duporcq":
            argv[:1] = [sys.executable, "-m", "duporcq"]
        elif argv[0] == "python":
            argv[:2] = [sys.executable, str(SCRIPTS.parent / argv[1])]
        done = subprocess.run(argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, f"{line}: {done.stderr}"
    with open(tmp_path / "motion.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ([f"e{i}" for i in range(4)] + [f"f{i}" for i in range(4)]
                      + [f"res{i}" for i in range(1, 7)])
    assert len(rows) == 50


def test_ratio_survey_exits_1_on_a_mismatch(monkeypatch):
    # a row off its closed form fails the run, also under python -O
    spec = importlib.util.spec_from_file_location(
        "ratio_survey", SCRIPTS / "ratio_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    real = survey.pipeline_report

    def off_ratio(design):
        report = real(design)
        report["Ke"]["e0e3_ratio"] = "0"
        return report

    monkeypatch.setattr(survey, "pipeline_report", off_ratio)
    monkeypatch.setattr(sys, "argv", ["ratio_survey.py", "--draws", "1"])
    with pytest.raises(SystemExit) as exc:
        survey.main()
    assert exc.value.code == ("survey mismatch: identity draw 0: ratio 0; "
                              "general draw 0: ratio MISMATCH, chain True")

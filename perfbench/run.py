#!/usr/bin/env python3
"""Benchmark of the duporcq toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  ``--workload all`` runs the
four workloads one after another, each in its own interpreter.

Load: one process, one thread, a closed loop with a single client.  Each op
starts only after the previous one returns, and the run ends with the first
op to end after ``--seconds`` (on symbolic-scale, with the first whole round
of its menu, so every run holds the same mix).  End-to-end ops call
``duporcq.cli.main(argv)``, the entry point of the ``duporcq`` console
script, with stdout and stderr captured; the library-only workload calls the
public ``study`` functions.  Every output is checked against the paper's
closed forms (see ``workloads.py``) outside the timed region.

Host speed: on a shared host the CPU's speed drifts, on the 2-vCPU host the
bounds were set on by up to 1.8x, switching several times a second, and
every wall time moves with it.  Each op is therefore bracketed by
``reference_ms()``, a fixed exact-arithmetic snippet that slows down with
the host, and sampled by it every 50 ms while it runs (``Ticker``).  The
timing metrics use wall time * REF_MS / (harmonic mean of those snippet
times): the op's milliseconds at the host's nominal speed.  The set-up
probes are corrected the same way, except for the time spent writing input
files, which is rescaled by the file system's speed (``fs_reference_ms``).
The uncorrected figures are in the printed report.

Metrics (``--trace 0``):
  setup_s      median over seven fresh interpreters of the time from start
               to ready for the first op: import of duporcq plus writing the
               generated inputs (there is no warm-up op)
  op_ms_p50    median wall time of one op over every attempted op
  op_ms_tail   the 90th percentile of the op times (see ``tail``)
  ops_per_s    successful ops per second of timed wall time
  rows_per_s   accepted output rows per second of timed wall time: pose rows
               on motion-sampling, one checked report per successful op on
               the other workloads
  peak_rss_mb  peak resident memory of the measuring process
The report printed before the last line adds the sample counts, the samples
beyond the tail, failed_ratio with counts by exit code and error class, the
input-property shares and the output sizes of each kind of op.

``--trace 1`` measures half of ``--seconds`` untraced, then the same op
sequence for the other half with every public function of the package
wrapped (``spans.py``), and prints the per-layer metrics, the span table
and ``trace.overhead_ratio`` (traced over untraced median op time).  Span
times include the ticker's samples, about 2% of an op's wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops that exited
non-zero, raised, or failed their output check; ``correct`` is false when an
op's output failed its check (a wrong answer, not a refusal or a crash) or
when tracing changed an output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# best time of reference_ms() on the 2-vCPU host the bounds were set on, in
# its fast state; times are reported as if the host always ran at that speed
REF_MS = 0.35
TICK_S = 0.05
# fs_reference_ms() on that host while its file system was fast (it took
# 0.07 to 1 ms per file over an afternoon)
FS_REF_MS = 0.1
FS_REF_FILES = 40
# op_ms_tail: above the 1 in 8 hexapod-check ops of motion-sampling, which
# take half the time of its motion ops, and inside the motion ops' own tail
TAIL_PCT = 90

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "ops_per_s": "1/s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

_NUMBER = re.compile(r"(?<![A-Za-z_\d])[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"
                     r"(?:/\d+)?")


def error_class(text: str) -> str:
    """An error message with its numbers blanked, so equal causes group."""
    try:
        text = json.loads(text.strip().splitlines()[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        text = text.strip().splitlines()[-1] if text.strip() else ""
    return _NUMBER.sub("#", text)[:120]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
    return h.hexdigest()[:16]


def _symbolic_sizes(res) -> dict:
    sizes = {}
    if "Ke" in res:
        sizes["Ke_terms"] = res["Ke"].poly.term_count
    if "T" in res:
        sizes["T_terms"] = res["T"].T.poly.term_count
    if "chain" in res:
        sizes["gcd_terms"] = res["chain"].gcd.term_count
    return sizes


def _cli_sizes(op, outputs) -> dict:
    if op.kind == "classify":
        return {"candidates": 6, "directions": 6 + workloads.CLASSIFY_SAMPLES}
    if op.kind == "pipeline":
        rep = outputs[0]
        return {"Ke_terms": rep["Ke"]["terms"],
                "gcd_chars": len(rep["chain"]["gcd"])}
    rep = outputs[0]
    if op.kind == "motion":
        return {"directions_attempted": rep["attempted"],
                "directions_accepted": rep["samples"],
                "directions_skipped": rep["attempted"] - rep["samples"]}
    return {"samples": rep["samples"]}


def run_op(cli, op) -> dict:
    """Run one op, time the program's part only, then check its output.

    ``ms`` is the program's wall time without the ticker's; ``refs`` are the
    reference times the ticker took while the program ran.
    """
    perf = time.perf_counter
    ticker = Ticker()
    elapsed = 0.0
    outputs, texts = [], []
    outcome = None
    if op.call is not None:
        with ticker:
            t = perf()
            try:
                res = op.call()
            except Exception as exc:    # a crash is data: record and go on
                outcome = f"raised {type(exc).__name__}"
            else:
                outputs.append(res)
            elapsed = perf() - t
    else:
        for argv in op.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), ticker:
                t = perf()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:    # a crash is data: record it
                    code = None
                    outcome = f"raised {type(exc).__name__}"
                elapsed += perf() - t
            if outcome is not None:
                break
            if code != 0:
                outcome = f"exit {code}: {error_class(err.getvalue())}"
                break
            texts.append(out.getvalue())
            try:
                outputs.append(json.loads(out.getvalue()))
            except ValueError:
                outputs.append(None)
    rec = {"ms": 1e3 * (elapsed - ticker.spent), "refs": ticker.samples,
           "kind": op.group, "ok": False, "rows": 0, "wrong": False,
           "sizes": {}}
    if outcome is None:
        try:
            reason = workloads.CHECKS[op.kind](op.expect, outputs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                OSError) as exc:
            reason = f"malformed output ({type(exc).__name__})"
        if reason is None:
            rec["ok"] = True
            outcome = "exit 0"
            if op.kind == "motion":
                rec["rows"] = workloads.MOTION_SAMPLES
            elif op.kind != "hexapod":
                rec["rows"] = 1
            with contextlib.suppress(AttributeError, KeyError, TypeError):
                rec["sizes"] = (_symbolic_sizes(outputs[0]) if op.call
                                else _cli_sizes(op, outputs))
        else:
            outcome = f"check failed: {_NUMBER.sub('#', reason)}"
            rec["wrong"] = True
    rec["outcome"] = outcome
    rec["digest"] = _digest(texts + [outcome, json.dumps(rec["sizes"],
                                                           sort_keys=True)])
    return rec


def reference_ms() -> float:
    """Best of three timings, in ms, of a fixed exact-arithmetic snippet.

    The snippet does the kind of work the package does (Fractions, tuple
    keys, dicts) and nothing from the package, so it slows down exactly
    when the host does.
    """
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        acc = {}
        x = Fraction(2, 3)
        for i in range(1, 60):
            key = (i % 7, i % 5)
            acc[key] = acc.get(key, 0) + x * Fraction(i, i + 2) + \
                Fraction(1, i)
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def fs_reference_ms(workdir: str) -> float:
    """Mean time, in ms, to write one generated design file.

    The set-up writes hundreds of small files, and on the host the bounds
    were set on the time to create one swings tenfold within minutes,
    independently of the CPU's speed; this is the file system's
    counterpart of reference_ms().
    """
    data = workloads.design_json(workloads.WORKED_BASE,
                                 workloads.WORKED_PLATFORM,
                                 workloads.WORKED_RADII)
    paths = [os.path.join(workdir, f"fs_reference_{i}.json")
             for i in range(FS_REF_FILES)]
    t = time.perf_counter()
    for path in paths:
        with open(path, "w") as fh:
            json.dump(data, fh)
    elapsed = time.perf_counter() - t
    for path in paths:
        os.remove(path)
    return 1e3 * elapsed / FS_REF_FILES


class Ticker:
    """While active, takes reference_ms() every TICK_S seconds.

    The samples come from a SIGALRM handler on the measuring thread, so
    they need no second thread and show the host's speed while a long op
    ran, not only before and after it.  ``spent`` is the handler's own
    time, which the caller takes off what it timed.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(reference_ms())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def corrected(wall: float, refs: list) -> float:
    """Wall time rescaled to the host's nominal speed (see REF_MS).

    ``refs`` are reference times taken evenly over the wall time; the work
    done is the wall time times the mean speed, 1 / harmonic mean of refs.
    """
    return wall * REF_MS / statistics.harmonic_mean(refs)


def run_phase(cli, wl, seconds: float, tracer=None) -> list:
    records = []
    deadline = time.perf_counter() + seconds
    before = reference_ms()
    i = 0
    while time.perf_counter() < deadline or i % wl.cycle:
        rec = run_op(cli, wl.ops[i % len(wl.ops)])
        after = reference_ms()
        rec["wall_ms"] = rec["ms"]
        rec["ms"] = corrected(rec["wall_ms"], [before, *rec.pop("refs"),
                                               after])
        records.append(rec)
        before = after
        if tracer is not None:
            tracer.end_op()
        i += 1
    return records


def tail(times: list, pct: int) -> tuple:
    """(value, samples beyond it) of the pct-th percentile, the order
    statistic at ceil(pct / 100 * n).

    A fixed percentile (TAIL_PCT), not the highest one with ten samples
    beyond it: op times fall into kinds of fixed share, and a percentile
    that moved with the op count would switch kind whenever the program's
    speed changed.
    """
    s = sorted(times)
    idx = math.ceil(pct / 100 * len(s)) - 1
    return s[idx], len(s) - 1 - idx


def summarize(records: list) -> dict:
    times = [r["ms"] for r in records]
    total_s = sum(times) / 1e3
    ok = sum(r["ok"] for r in records)
    tail_ms, tail_beyond = tail(times, TAIL_PCT)
    outcomes, kinds = {}, {}
    for r in records:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
        k = kinds.setdefault(r["kind"], {"ops": 0, "ok": 0, "ms": [],
                                         "sizes": {}})
        k["ops"] += 1
        k["ok"] += r["ok"]
        k["ms"].append(r["ms"])
        for key, v in r["sizes"].items():
            k["sizes"].setdefault(key, []).append(v)
    per_kind = {}
    for name, k in sorted(kinds.items()):
        per_kind[name] = {
            "ops": k["ops"], "ok": k["ok"],
            "op_ms_p50": round(statistics.median(k["ms"]), 3),
            "sizes": {key: {"mean": round(statistics.fmean(v), 2),
                            "max": max(v)}
                      for key, v in sorted(k["sizes"].items())}}
    wall = [r["wall_ms"] for r in records]
    return {
        "samples": len(records), "ok": ok, "failed": len(records) - ok,
        "failed_ratio": (len(records) - ok) / len(records),
        "wrong": sum(r["wrong"] for r in records),
        "op_ms_p50": statistics.median(times),
        "op_ms_tail": tail_ms, "tail_percentile": TAIL_PCT,
        "samples_beyond_tail": tail_beyond,
        "ops_per_s": ok / total_s if total_s else 0.0,
        "rows_per_s": sum(r["rows"] for r in records) / total_s
        if total_s else 0.0,
        "timed_s": total_s,
        "uncorrected": {"op_ms_p50": statistics.median(wall),
                        "op_ms_tail": tail(wall, TAIL_PCT)[0],
                        "ops_per_s": 1e3 * ok / sum(wall) if sum(wall)
                        else 0.0},
        "outcomes": dict(sorted(outcomes.items())),
        "per_kind": per_kind,
    }


def setup(name: str, seed: int, workdir: str):
    """Everything before the first timed op: import and input generation."""
    import duporcq.cli as cli

    return cli, workloads.build(name, seed, workdir)


def probe_setup(name: str, seed: int) -> tuple:
    """Seconds from starting a fresh interpreter until its set-up is done,
    as measured and as corrected to the host's nominal speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT))
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t
        rest = proc.stdout.read().split()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    spent, writes, fs_ref, *refs = map(float, rest)
    return ready, (corrected(ready - spent - writes, refs)
                   + writes * FS_REF_MS / fs_ref)


def measure(args) -> dict:
    setup_times = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        cli, wl = setup(args.workload, args.seed, workdir)
        report = {"workload": wl.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "setup_s_samples": [round(t[1], 4) for t in setup_times],
                  "setup_s_uncorrected": [round(t[0], 4)
                                          for t in setup_times],
                  "input_shares": wl.shares, "input_pool": len(wl.ops)}
        if not args.trace:
            records = run_phase(cli, wl, args.seconds)
            summary = summarize(records)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": statistics.median(t[1]
                                                    for t in setup_times),
                       "op_ms_p50": summary["op_ms_p50"],
                       "op_ms_tail": summary["op_ms_tail"],
                       "ops_per_s": summary["ops_per_s"],
                       "rows_per_s": summary["rows_per_s"],
                       "peak_rss_mb": rss}
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in metrics.items()}
            mismatched = 0
        else:
            from spans import Tracer

            plain = run_phase(cli, wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(cli, wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            m = min(len(plain), len(traced))
            overhead = (statistics.median(r["ms"] for r in traced[:m])
                        / statistics.median(r["ms"] for r in plain[:m]))
            mismatched = sum(a["digest"] != b["digest"]
                             for a, b in zip(plain[:m], traced[:m]))
            records = plain + traced
            summary = summarize(records)
            report["untraced"] = summarize(plain)
            report["traced"] = summarize(traced)
            report["outputs_mismatched_by_tracing"] = mismatched
            report["spans"] = tracer.span_table(len(traced))
            metrics = tracer.metrics(len(traced), overhead)
        report["summary"] = summary
        report["metrics"] = metrics
        print(json.dumps(report, indent=1, default=str))
        return {"correct": summary["wrong"] == 0 and mismatched == 0,
                "attempted": summary["samples"],
                "failed": summary["failed"],
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    failed = []
    for name in sorted(workloads.WORKLOADS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(cmd, cwd=str(ROOT), check=False).returncode:
            failed.append(name)
    if failed:
        print(f"failed to run: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "duporcq" / "__init__.py").is_file():
        print(f"no duporcq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            with Ticker() as ticker:
                setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            # what probe_setup needs to correct the time, after the mark
            print(ticker.spent, workloads.write_seconds,
                  fs_reference_ms(workdir), *ticker.samples, reference_ms())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each duporcq module, in
every module that imported them (``cli`` imports most of them by name), with
wrappers that record a span: name, wall time, the span that called it, and
the sizes of what went in and came out.  Spans are folded into per-name
totals as they close, so memory stays flat.  A layer's self time is its
span's duration minus the time covered by the spans it called.
``Tracer.uninstall`` puts the original functions back.  A listed function
the package no longer has stops the install, and a size hook that no longer
fits the package's signatures raises inside the traced call, which changes
that op's outcome; either way the traced run fails instead of reporting a
layer that does no work.

Scalar Gaussian multiplication is too frequent for a span; it gets a
counter only.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, attribute, span name); methods are listed as "Class.method"
SPANS = (
    ("exactpoly", "MPoly.__mul__", "exactpoly.mpoly_mul"),
    ("exactpoly", "MPoly.__rmul__", "exactpoly.mpoly_mul"),
    ("exactpoly", "MPoly.exact_div", "exactpoly.exact_div"),
    ("exactpoly", "det", "exactpoly.det"),
    ("exactpoly", "gcd", "exactpoly.gcd"),
    ("exactpoly", "resultant", "exactpoly.resultant"),
    ("geometry", "load_design", "geometry.load_design"),
    ("geometry", "reconstruct_candidates", "geometry.reconstruct_candidates"),
    ("study", "delta", "study.delta"),
    ("study", "f_coefficient_matrix", "study.f_coefficient_matrix"),
    ("study", "compute_Ke", "study.compute_Ke"),
    ("study", "rank_drop_T", "study.rank_drop_T"),
    ("study", "resultant_chain", "study.resultant_chain"),
    ("study", "tangency_ansatz", "study.tangency_ansatz"),
    ("study", "pipeline_report", "study.pipeline_report"),
    ("moebius", "candidate_report", "moebius.candidate_report"),
    ("moebius", "same_picture", "moebius.same_picture"),
    ("moebius", "del_pezzo", "moebius.del_pezzo"),
    ("moebius", "extended_del_pezzo", "moebius.extended_del_pezzo"),
    ("moebius", "profile", "moebius.profile"),
    ("moebius", "membership_report", "moebius.membership_report"),
    ("selfmotion", "motion_radii", "selfmotion.motion_radii"),
    ("selfmotion", "derive_G", "selfmotion.derive_G"),
    ("selfmotion", "sample_pose", "selfmotion.sample_pose"),
    ("selfmotion", "residuals_at", "selfmotion.residuals_at"),
    ("selfmotion", "verify_selfmotion", "selfmotion.verify_selfmotion"),
    ("selfmotion", "arch_singularity_check",
     "selfmotion.arch_singularity_check"),
    ("cli", "main", "cli.main"),
)
COUNTERS = (
    ("exactpoly", "GaussRational.__mul__"),
    ("exactpoly", "GaussRational.__rmul__"),
)

# per_layer metrics of BENCHMARK.json: name -> unit
PER_LAYER = {
    "exactpoly.mpoly_mul.calls": "count/op",
    "exactpoly.mpoly_mul.self_ms": "ms/op",
    "exactpoly.mpoly_mul.term_pairs": "count/op",
    "exactpoly.exact_div.calls": "count/op",
    "exactpoly.exact_div.self_ms": "ms/op",
    "exactpoly.det.calls": "count/op",
    "exactpoly.det.self_ms": "ms/op",
    "exactpoly.gcd.calls": "count/op",
    "exactpoly.gcd.self_ms": "ms/op",
    "exactpoly.resultant.calls": "count/op",
    "exactpoly.resultant.self_ms": "ms/op",
    "exactpoly.coeff_bits_max": "bits",
    "exactpoly.gauss_mul.calls": "count/op",
    "exactpoly.gauss_mul.imag_ratio": "ratio",
    "study.compute_Ke.self_ms": "ms/op",
    "study.Ke.terms": "count",
    "study.rank_drop_T.self_ms": "ms/op",
    "study.rank_drop_T.det_calls": "count/call",
    "study.T.terms": "count",
    "study.resultant_chain.self_ms": "ms/op",
    "study.chain.gcd_terms": "count",
    "study.tangency_ansatz.self_ms": "ms/op",
    "study.delta.calls": "count/op",
    "study.delta.repeat_ratio": "ratio",
    "moebius.candidate_report.self_ms": "ms/op",
    "moebius.same_picture.calls": "count/op",
    "moebius.del_pezzo.calls": "count/op",
    "moebius.extended_del_pezzo.calls": "count/op",
    "moebius.profile.self_ms": "ms/op",
    "moebius.membership_report.self_ms": "ms/op",
    "moebius.base_picture.repeat_ratio": "ratio",
    "moebius.post_failure.direction_ratio": "ratio",
    "selfmotion.sample_pose.calls": "count/op",
    "selfmotion.sample_pose.us_per_call": "us",
    "selfmotion.sample_pose.accept_ratio": "ratio",
    "selfmotion.residuals_at.calls": "count/op",
    "selfmotion.verify_selfmotion.self_ms": "ms/op",
    "selfmotion.arch_singularity_check.self_ms": "ms/op",
    "selfmotion.motion_radii.self_ms": "ms/op",
    "geometry.load_design.self_ms": "ms/op",
    "geometry.reconstruct_candidates.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}


# per_layer metrics that are a span's self time, or call count, per op
SELF_MS = (
    "exactpoly.mpoly_mul", "exactpoly.exact_div", "exactpoly.det",
    "exactpoly.gcd", "exactpoly.resultant", "study.compute_Ke",
    "study.rank_drop_T", "study.resultant_chain", "study.tangency_ansatz",
    "moebius.candidate_report", "moebius.profile", "moebius.membership_report",
    "selfmotion.verify_selfmotion", "selfmotion.arch_singularity_check",
    "selfmotion.motion_radii", "geometry.load_design",
    "geometry.reconstruct_candidates", "cli.main",
)
CALLS = (
    "exactpoly.mpoly_mul", "exactpoly.exact_div", "exactpoly.det",
    "exactpoly.gcd", "exactpoly.resultant", "study.delta",
    "moebius.same_picture", "moebius.del_pezzo", "moebius.extended_del_pezzo",
    "selfmotion.sample_pose", "selfmotion.residuals_at",
)


def coeff_bits(p) -> int:
    """Largest numerator or denominator bit length among p's coefficients."""
    terms = getattr(p, "terms", None)
    if not isinstance(terms, dict):
        return 0
    best = 0
    for c in terms.values():
        for part in (getattr(c, "re", c), getattr(c, "im", 0)):
            if isinstance(part, (int, Fraction)):
                part = Fraction(part)
                best = max(best, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return best


def _terms(p) -> int:
    return getattr(p, "term_count", 0)


def _key(obj):
    try:
        hash(obj)
        return obj
    except TypeError:
        return repr(obj)


class Tracer:
    def __init__(self):
        self._stack = []          # open frames: [start, children's time]
        self._open = {}           # span name -> how many are open
        self._patches = []
        self.stats = {}           # span name -> [calls, inclusive s, self s]
        self.sizes = {}           # span name -> {size: [n, sum, max]}
        self.counts = {}
        self._delta_keys = set()
        self._report = None       # candidate_report in progress

    # ------------------------------------------------------------- patching

    def install(self):
        """Wrap every listed function.

        Raises LookupError, and patches nothing, when the package lacks a
        listed function: a renamed or moved function must stop the traced
        run, not read as a layer that takes no time.
        """
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("duporcq.")}
        spans = [(self._lookup(mods, m, a), span) for m, a, span in SPANS]
        counters = [self._lookup(mods, m, a) for m, a in COUNTERS]
        wrapped = {}
        for (mod, owner, name, orig), span in spans:
            if orig not in wrapped:
                wrapped[orig] = self._span(span, orig)
            if owner is mod:
                for other_mod in mods.values():
                    for other, val in list(vars(other_mod).items()):
                        if val is orig:
                            self._patch(other_mod, other, wrapped[orig])
            else:
                self._patch(owner, name, wrapped[orig])
        for _, owner, name, orig in counters:
            if orig not in wrapped:
                wrapped[orig] = self._gauss_counter(orig)
            self._patch(owner, name, wrapped[orig])

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    @staticmethod
    def _lookup(mods, modname, attr):
        """(module, owner, name, function) of ``attr`` ("f" or
        "Class.method") as defined in duporcq.``modname``."""
        cls, _, name = attr.rpartition(".")
        try:
            mod = mods[modname]
            owner = getattr(mod, cls) if cls else mod
            return mod, owner, name, vars(owner)[name]
        except (AttributeError, KeyError):
            raise LookupError(
                f"duporcq.{modname} defines no {attr} to trace") from None

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    # ---------------------------------------------------------------- spans

    def _span(self, name, fn):
        tracer = self
        perf = time.perf_counter
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            frame = [perf(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, perf())
                if leave is not None:
                    leave(args, None, exc)
                raise
            tracer._close(name, frame, perf())
            if leave is not None:
                leave(args, result, None)
            return result
        return wrapper

    def _close(self, name, frame, end):
        self._stack.pop()
        self._open[name] -= 1
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]

    def _gauss_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            r = fn(a, b)
            if r is not NotImplemented:
                counts["gauss_mul"] = counts.get("gauss_mul", 0) + 1
                if a.im or getattr(b, "im", 0):
                    counts["gauss_imag"] = counts.get("gauss_imag", 0) + 1
            return r
        return wrapper

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def size(self, span, key, value):
        s = self.sizes.setdefault(span, {}).setdefault(key, [0, 0, 0])
        s[0] += 1
        s[1] += value
        s[2] = max(s[2], value)

    # -------------------------------------------------- per-span size hooks

    def _enter_exactpoly_mpoly_mul(self, args, kwargs):
        self.count("term_pairs", _terms(args[0]) * getattr(args[1],
                                                           "term_count", 1))

    def _bits(self, span, result):
        bits = coeff_bits(result)
        self.size(span, "coeff_bits", bits)
        self.size(span, "terms_out", _terms(result))
        if bits > self.counts.get("coeff_bits_max", 0):
            self.counts["coeff_bits_max"] = bits

    def _leave_exactpoly_exact_div(self, args, result, exc):
        if exc is None:
            self._bits("exactpoly.exact_div", result)

    def _enter_exactpoly_det(self, args, kwargs):
        self.size("exactpoly.det", "rows", len(args[0]))
        if self._open.get("study.rank_drop_T"):
            self.count("rank_drop_T.det")

    def _leave_exactpoly_det(self, args, result, exc):
        if exc is None:
            self._bits("exactpoly.det", result)

    def _enter_exactpoly_gcd(self, args, kwargs):
        self.size("exactpoly.gcd", "terms_in",
                  max(_terms(args[0]), _terms(args[1])))

    def _leave_exactpoly_gcd(self, args, result, exc):
        if exc is None:
            self._bits("exactpoly.gcd", result)

    def _enter_exactpoly_resultant(self, args, kwargs):
        p, q, var = args[:3]
        self.size("exactpoly.resultant", "sylvester_rows",
                  p.degree_in(var) + q.degree_in(var))
        self.size("exactpoly.resultant", "terms_in",
                  max(_terms(p), _terms(q)))

    def _leave_exactpoly_resultant(self, args, result, exc):
        if exc is None:
            self._bits("exactpoly.resultant", result)

    def _enter_study_delta(self, args, kwargs):
        self._delta_keys.add((id(args[0]), args[1]))

    def _leave_study_compute_Ke(self, args, result, exc):
        if exc is None:
            self.size("study.compute_Ke", "terms", _terms(result.poly))

    def _leave_study_rank_drop_T(self, args, result, exc):
        if exc is None:
            self.size("study.rank_drop_T", "terms", _terms(result.T.poly))

    def _leave_study_resultant_chain(self, args, result, exc):
        if exc is None:
            self.size("study.resultant_chain", "gcd_terms",
                      _terms(result.gcd))

    def _enter_moebius_candidate_report(self, args, kwargs):
        b = args[0]
        V = b.B4 * b.A5 - b.A4 * b.B5
        base = ((0, 0), (1, 0), (V / (b.B4 - b.B5), 0), (b.A4, b.B4),
                (b.A5, b.B5))
        self._report = {"base": base, "failed": set(), "pictures": set()}
        self.size("moebius.candidate_report", "candidates", len(args[1]))
        self.size("moebius.candidate_report", "directions",
                  6 + kwargs.get("samples", 20))

    def _leave_moebius_candidate_report(self, args, result, exc):
        rep, self._report = self._report, None
        self.count("base_picture_pairs", len(rep["pictures"]))

    def _enter_moebius_del_pezzo(self, args, kwargs):
        rep = self._report
        if rep is not None and tuple((p.x, p.y) for p in args[0]) \
                == rep["base"]:
            self.count("base_pictures")
            rep["pictures"].add(_key(args[1]))

    def _leave_moebius_same_picture(self, args, result, exc):
        rep = self._report
        if rep is None:
            return
        cand = id(args[1])
        self.count("report_directions")
        if cand in rep["failed"]:
            self.count("post_failure_directions")
        elif result is False:
            rep["failed"].add(cand)

    def _leave_moebius_profile(self, args, result, exc):
        if exc is None:
            self.size("moebius.profile", "degree",
                      max(c.degree() for c in result.components))

    def _leave_selfmotion_sample_pose(self, args, result, exc):
        if exc is None:
            self.count("pose_accepted")
        elif type(exc).__name__ == "NoRealSolution":
            self.count("pose_skipped")

    def _leave_selfmotion_verify_selfmotion(self, args, result, exc):
        if exc is None:
            s = "selfmotion.verify_selfmotion"
            self.size(s, "directions_attempted", result.attempted)
            self.size(s, "directions_accepted", len(result.samples))
            self.size(s, "directions_skipped",
                      result.attempted - len(result.samples))

    # ------------------------------------------------------------ op bounds

    def end_op(self):
        self.count("delta_distinct", len(self._delta_keys))
        self._delta_keys.clear()

    # -------------------------------------------------------------- results

    def self_ms(self, name) -> float:
        return 1e3 * self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def metrics(self, ops: int, overhead_ratio: float) -> dict:
        """The per_layer metrics over ``ops`` traced operations."""
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def mean_size(span, key):
            s = self.sizes.get(span, {}).get(key)
            return s[1] / s[0] if s else 0.0

        v = {f"{name}.self_ms": self.self_ms(name) / ops for name in SELF_MS}
        v.update({f"{name}.calls": self.calls(name) / ops for name in CALLS})
        v["exactpoly.mpoly_mul.term_pairs"] = c.get("term_pairs", 0) / ops
        v["exactpoly.coeff_bits_max"] = c.get("coeff_bits_max", 0)
        v["exactpoly.gauss_mul.calls"] = c.get("gauss_mul", 0) / ops
        v["exactpoly.gauss_mul.imag_ratio"] = ratio(c.get("gauss_imag", 0),
                                                    c.get("gauss_mul", 0))
        v["study.Ke.terms"] = mean_size("study.compute_Ke", "terms")
        v["study.rank_drop_T.det_calls"] = ratio(
            c.get("rank_drop_T.det", 0), self.calls("study.rank_drop_T"))
        v["study.T.terms"] = mean_size("study.rank_drop_T", "terms")
        v["study.chain.gcd_terms"] = mean_size("study.resultant_chain",
                                               "gcd_terms")
        v["study.delta.repeat_ratio"] = ratio(self.calls("study.delta"),
                                              c.get("delta_distinct", 0))
        v["moebius.base_picture.repeat_ratio"] = ratio(
            c.get("base_pictures", 0), c.get("base_picture_pairs", 0))
        v["moebius.post_failure.direction_ratio"] = ratio(
            c.get("post_failure_directions", 0), c.get("report_directions", 0))
        pose_calls = self.calls("selfmotion.sample_pose")
        v["selfmotion.sample_pose.us_per_call"] = ratio(
            1e6 * self.stats.get("selfmotion.sample_pose", [0, 0.0])[1],
            pose_calls)
        v["selfmotion.sample_pose.accept_ratio"] = ratio(
            c.get("pose_accepted", 0), pose_calls)
        v["trace.overhead_ratio"] = overhead_ratio
        return {k: {"value": v[k], "unit": PER_LAYER[k]} for k in PER_LAYER}

    def span_table(self, ops: int) -> dict:
        """Per-span calls, inclusive and self ms per op, and mean/max sizes."""
        out = {}
        for name in sorted(self.stats):
            calls, incl, own = self.stats[name]
            row = {"calls_per_op": round(calls / ops, 3),
                   "incl_ms_per_op": round(1e3 * incl / ops, 3),
                   "self_ms_per_op": round(1e3 * own / ops, 3)}
            for key, (n, total, top) in sorted(self.sizes.get(name,
                                                              {}).items()):
                row[key] = {"mean": round(total / n, 2), "max": top}
            out[name] = row
        return out

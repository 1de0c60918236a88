"""Command-line front end.

Subcommands: classify a design file against the reconstruction case tree,
sample and export a self-motion, run the elimination pipeline, check the
hexapod extension, emit Moebius profile data, and render a static SVG figure
of a configuration.  All outputs are deterministic for a fixed seed.
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .geometry import (
    AffineMap2,
    BaseParams,
    DegenerateBase,
    DegeneratePlatform,
    HexapodDesign,
    InvariantViolation,
    NotDuporcq,
    PentapodDesign,
    SchemaError,
    affine_match,
    duporcq_hexapod,
    kappa2_mu,
    kappa2_twin,
    load_design,
    reconstruct_candidates,
    swap_4_5,
)
from .moebius import (
    AllZero,
    NotCollinearDirection,
    candidate_report,
    membership_report,
    profile,
    profile_rows,
    special_directions,
)
from .selfmotion import (
    TOL_F0,
    FloatOverflow,
    InconsistentSystem,
    NoRealSolution,
    Unrealizable,
    arch_singularity_check,
    finite_floats,
    motion_radii,
    sixth_radius,
    verify_selfmotion,
)
from .study import CanonicalDesign, pipeline_report

EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_UNREALIZABLE = 4
EXIT_INCONSISTENT = 5

# each typed failure with its exit code; main takes the first match
EXIT_CODES = {
    SchemaError: EXIT_SCHEMA, FloatOverflow: EXIT_SCHEMA,
    Unrealizable: EXIT_UNREALIZABLE,
    InconsistentSystem: EXIT_INCONSISTENT, NoRealSolution: EXIT_INCONSISTENT,
    DegenerateBase: EXIT_DEGENERATE, DegeneratePlatform: EXIT_DEGENERATE,
    NotDuporcq: EXIT_DEGENERATE, InvariantViolation: EXIT_DEGENERATE,
    AllZero: EXIT_DEGENERATE, NotCollinearDirection: EXIT_DEGENERATE,
}

CASE_VERDICT = {1: "planar-affine", 2: "duporcq-rec2", 3: "duporcq-rec3"}

# Fig.-1 style palette: each special direction with the line its picture
# lands on (the triple carrier collapses its triple, leaving the other pair)
DIRECTION_STYLE = {
    "d123": ("silver", "L45"),
    "d345": ("blue", "L12"),
    "d15": ("gold", "L15"),
    "d14": ("hotpink", "L14"),
    "d25": ("green", "L25"),
    "d24": ("orange", "L24"),
}
DIRECTION_ANCHOR = {"d123": 0, "d345": 3, "d15": 0, "d14": 0, "d25": 1,
                    "d24": 1}

# the commands whose --out also gets the JSON report printed to stdout
JSON_OUT_COMMANDS = ("classify", "pipeline", "hexapod-check")


# ------------------------------------------------------------------- helpers

def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from exc


def _radius(text: str) -> Fraction:
    """A squared radius given on the command line; it is sampled as a
    float, so one with no finite float is refused here."""
    value = _rational(text)
    finite_floats([value])
    return value


def _rational_tuple(text: str, n: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SchemaError(f"{what} needs {n} comma-separated rationals")
    return tuple(_rational(p) for p in parts)


def _float_cell(v) -> str:
    return repr(float(v))


def _write_out(path: str, text: str) -> None:
    """Write an --out file; SchemaError naming the path when it cannot be
    written."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write --out {path}: {exc.strerror}") \
            from exc


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write_out(path, buf.getvalue())


# ------------------------------------------------------------------ commands

def cmd_classify(args):
    design, _ = load_design(args.input)
    params = BaseParams.from_points(design.base)
    candidates = reconstruct_candidates(params)
    report = candidate_report(params, candidates, seed=args.seed,
                              samples=args.samples)
    accepted = [c.tag for c in candidates if report[c.tag] is None]
    match = None
    for cand in sorted(candidates, key=lambda c: c.tag not in accepted):
        if affine_match(cand.platform, design.platform):
            match = cand
            break
    if match is None:
        verdict = "invalid-case-unmatched"
    elif match.tag in accepted:
        verdict = CASE_VERDICT[match.case]
    else:
        verdict = f"invalid-case-{match.tag}"
    payload = {
        "verdict": verdict,
        "matched_slot": match.tag if match else None,
        "accepted_slots": accepted,
        "rejections": {tag: failure for tag, failure in report.items()
                       if failure is not None},
    }
    return 0, payload


def cmd_motion(args):
    design, sixth = load_design(args.input)
    case, twin = kappa2_twin(design)
    params = BaseParams.from_points(twin.base)
    if kappa2_mu(params, twin.platform) != AffineMap2.identity():
        raise DegeneratePlatform(
            "motion sampling needs the identity kappa_2 platform")
    r1sq = design.radii2[0] if args.r1sq is None else _radius(args.r1sq)
    r2sq = design.radii2[1] if args.r2sq is None else _radius(args.r2sq)
    # motion_radii gates (r1^2, r2^2) and solves the twin's radii with a
    # motion; an override samples them in file order, else the file's own
    radii = motion_radii(params, r1sq, r2sq)
    if case == 3:
        radii = swap_4_5(radii)
    if args.r1sq is None and args.r2sq is None:
        radii = design.radii2
    moving = PentapodDesign(design.base, design.platform, radii)
    if sixth is not None:
        moving = HexapodDesign(moving, sixth[0], sixth[1])
    report = verify_selfmotion(moving, count=args.samples, tol_f0=args.tol_f0)
    legs = len(report.samples[0].residuals)
    header = ("e0", "e1", "e2", "e3", "f0", "f1", "f2", "f3") + tuple(
        f"res{i}" for i in range(1, legs + 1))
    rows = [[_float_cell(v) for v in s.e + s.f + s.residuals]
            for s in report.samples]
    out = args.out or "motion.csv"
    _write_csv(out, header, rows)
    tangent_rank = 2 if report.tangent_angle > 1e-6 else 1
    payload = {
        "csv": out,
        "samples": len(report.samples),
        "attempted": report.attempted,
        "radii2": [str(Fraction(r)) for r in radii],
        "max_residual": float(report.max_residual),
        "max_f0": float(report.max_f0),
        "tangent_angle": float(report.tangent_angle),
        "tangent_rank": tangent_rank,
    }
    if case == 3:
        payload["case"] = case
    return 0, payload


def cmd_pipeline(args):
    case = 2
    if args.input is not None:
        if (args.params, args.mu, args.radii) != (None, None, None):
            raise SchemaError("pipeline takes a design file or --params "
                              "(with --mu, --radii), not both")
        design, _ = load_design(args.input)
        case, design = kappa2_twin(design)
        params = BaseParams.from_points(design.base)
        mu = kappa2_mu(params, design.platform)
        radii = design.radii2
    elif args.params is not None:
        params = BaseParams(*_rational_tuple(args.params, 4, "--params"))
        mu = _rational_tuple(args.mu, 3, "--mu") if args.mu else (1, 0, 1)
        radii = (_rational_tuple(args.radii, 5, "--radii")
                 if args.radii else (1, 1, 1, 1, 1))
        try:
            mu = AffineMap2(*mu)
        except ValueError as exc:
            raise DegeneratePlatform(str(exc)) from exc
    else:
        raise SchemaError("pipeline needs a design file or --params")
    canonical = CanonicalDesign.from_params(params, mu=mu, radii=radii)
    payload = pipeline_report(canonical)
    payload["params"] = {
        "A4": str(params.A4), "B4": str(params.B4),
        "A5": str(params.A5), "B5": str(params.B5),
        "mu": [str(mu.mu1), str(mu.mu2), str(mu.mu3)],
        "radii2": [str(Fraction(r)) for r in radii],
    }
    if case == 3:
        payload["case"] = case
    return 0, payload


def cmd_hexapod_check(args):
    design, sixth = load_design(args.input)
    if sixth is not None:
        hexapod = HexapodDesign(design, sixth[0], sixth[1])
    else:
        hexapod = duporcq_hexapod(design)
    report = verify_selfmotion(hexapod, count=args.samples, tol_f0=args.tol_f0)
    arch = float(arch_singularity_check(hexapod, seed=args.seed,
                                        samples=args.samples))
    payload = {
        "sixth_vertex": {"M": [str(hexapod.M6.x), str(hexapod.M6.y)],
                         "m": [str(hexapod.m6.x), str(hexapod.m6.y)]},
        "sixth_radius2": str(sixth_radius(hexapod)),
        "samples": len(report.samples),
        "max_residual": float(report.max_residual),
        "max_f0": float(report.max_f0),
        "arch_worst_sv": arch,
        "architecturally_singular": arch <= 1e-9,
    }
    return 0, payload


def cmd_profile(args):
    design, _ = load_design(args.input)
    payload = {}
    curves = {}
    for name, pts in (("base", design.base), ("platform", design.platform)):
        curve = curves[name] = profile(pts)
        directions = special_directions(pts)
        payload[name] = {
            "components": [c.to_str() for c in curve.components],
            "removed_factor": curve.removed.to_str(),
            "special_directions": membership_report(pts, directions),
        }
    if args.out:
        rows = profile_rows(curves["base"],
                            [Fraction(k) for k in range(args.samples)])
        _write_csv(args.out, ("t", "phi0", "phi1", "phi2", "phi3", "phi4",
                             "phi5"), rows)
        payload["csv"] = args.out
    return 0, payload


def _svg_line(p, u, scale, tf, color, label):
    px, py, ux, uy = float(p.x), float(p.y), u[0], u[1]
    a = tf((px - ux * scale, py - uy * scale))
    b = tf((px + ux * scale, py + uy * scale))
    return (f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            f'stroke="{color}" stroke-width="1.5"><title>{label}</title>'
            '</line>')


def cmd_svg(args):
    design, sixth = load_design(args.input)
    pts = list(design.base) + list(design.platform)
    if sixth is not None:
        pts += list(sixth)
    coords = finite_floats(c for p in pts for c in p)
    xs, ys = coords[0::2], coords[1::2]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1.0)
    # the direction lines reach 3 spans past a point and the frame is 1.7
    # spans wide, so every float below stays under this bound
    if not math.isfinite(max(map(abs, coords)) + 5 * span):
        raise FloatOverflow(f"the drawing's frame has no finite float "
                            f"(span {span:.3g})")
    pad = 0.35 * span
    width, height = 640, 640

    def tf(xy):
        x = (float(xy[0]) - lo_x + pad) / (span + 2 * pad) * width
        y = height - (float(xy[1]) - lo_y + pad) / (span + 2 * pad) * height
        return (f"{x:.2f}", f"{y:.2f}")

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    base = design.base
    for name, u in special_directions(base):
        ux, uy = finite_floats(u)
        nn = max(abs(ux), abs(uy))
        color, line_tag = DIRECTION_STYLE[name]
        anchor = base[DIRECTION_ANCHOR[name]]
        parts.append(_svg_line(anchor, (ux / nn, uy / nn), 3.0 * span, tf,
                               color, f"{name} -> {line_tag}"))
    for i, p in enumerate(base, start=1):
        x, y = tf((p.x, p.y))
        parts.append(f'<circle cx="{x}" cy="{y}" r="5" fill="black"/>')
        parts.append(f'<text x="{x}" y="{y}" dx="8" dy="-6" '
                     f'font-size="14">M{i}</text>')
    for i, p in enumerate(design.platform, start=1):
        x, y = tf((p.x, p.y))
        parts.append(f'<rect x="{float(x) - 4:.2f}" y="{float(y) - 4:.2f}" '
                     'width="8" height="8" fill="none" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{y}" dx="8" dy="14" '
                     f'font-size="14">m{i}</text>')
    if sixth is not None:
        for tag, p in (("M6", sixth[0]), ("m6", sixth[1])):
            x, y = tf((p.x, p.y))
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="gray"/>')
            parts.append(f'<text x="{x}" y="{y}" dx="8" dy="-6" '
                         f'font-size="14">{tag}</text>')
    for k, name in enumerate(sorted(DIRECTION_STYLE)):
        color, line_tag = DIRECTION_STYLE[name]
        y = 20 + 18 * k
        parts.append(f'<rect x="10" y="{y - 10}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="28" y="{y}" font-size="13">{name} '
                     f'&#8594; {line_tag}</text>')
    parts.append("</svg>")
    out = args.out or "design.svg"
    data = "\n".join(parts) + "\n"
    _write_out(out, data)
    return 0, {"out": out, "bytes": len(data.encode())}


# ---------------------------------------------------------------- entry point

_OPTIONS = {
    "--seed": {"type": int, "default": 0},
    "--samples": {"type": int, "default": 100},
    "--tol-f0": {"type": float, "default": TOL_F0},
    "--out": {"default": None},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duporcq",
        description="Planar pentapod classification and self-motion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options, input_optional=False):
        # each subcommand takes only the options its function reads
        p = sub.add_parser(name, help=help)
        if input_optional:
            p.add_argument("input", nargs="?", default=None,
                           help="design JSON file (or use --params)")
        else:
            p.add_argument("input", help="design JSON file")
        for opt in options:
            p.add_argument(opt, **_OPTIONS[opt])
        p.set_defaults(func=func)
        return p

    command("classify", cmd_classify, "case-tree verdict for a design",
            "--seed", "--samples", "--out")
    p = command("motion", cmd_motion, "sample a self-motion to CSV",
                "--samples", "--tol-f0", "--out")
    p.add_argument("--r1sq", default=None, help="first squared radius")
    p.add_argument("--r2sq", default=None, help="second squared radius")
    p = command("pipeline", cmd_pipeline, "elimination pipeline report",
                "--out", input_optional=True)
    p.add_argument("--params", default=None, help="A4,B4,A5,B5")
    p.add_argument("--mu", default=None, help="mu1,mu2,mu3")
    p.add_argument("--radii", default=None, help="five squared radii")
    command("hexapod-check", cmd_hexapod_check,
            "sixth-leg constancy and singularity test",
            "--seed", "--samples", "--tol-f0", "--out")
    command("profile", cmd_profile, "Moebius profile data for a design",
            "--samples", "--out")
    command("svg", cmd_svg, "static figure of a configuration", "--out")
    return parser


_parser = None       # built on the first main() call and kept


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        tol_f0 = getattr(args, "tol_f0", 1)
        if not math.isfinite(tol_f0):   # a nan bound would reject every pose
            raise SchemaError("--tol-f0 must be finite")
        if tol_f0 <= 0:
            raise SchemaError("--tol-f0 must be positive")
        if getattr(args, "samples", 1) <= 0:
            raise SchemaError("--samples must be positive")
        if getattr(args, "seed", 0) < 0:
            raise SchemaError("--seed must be non-negative")
        code, payload = args.func(args)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out and args.command in JSON_OUT_COMMANDS:
            _write_out(args.out, text + "\n")
    except tuple(EXIT_CODES) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: classify a design file against the reconstruction case tree,
sample and export a self-motion, run the elimination pipeline, check the
hexapod extension, emit Moebius profile data, and render a static SVG figure
of a configuration.  All outputs are deterministic for a fixed seed.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
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
    PlanarPoint,
    SchemaError,
    build_platform,
    canonical_base,
    collinear,
    cross,
    duporcq_hexapod,
    load_design,
    reconstruct_candidates,
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
    ConstructionDegenerate,
    InconsistentSystem,
    NoRealSolution,
    Unrealizable,
    arch_singularity_check,
    motion_radii,
    sixth_radius,
    verify_selfmotion,
)
from .study import CanonicalDesign, pipeline_report

EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_UNREALIZABLE = 4
EXIT_INCONSISTENT = 5

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


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None
    out: str | None
    seed: int
    samples: int
    tol_leg: float
    tol_f0: float
    extra: dict

    def __post_init__(self):
        if self.tol_leg <= 0 or self.tol_f0 <= 0:
            raise SchemaError("tolerances must be positive")
        if self.samples <= 0:
            raise SchemaError("--samples must be positive")


# ------------------------------------------------------------------- helpers

def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from exc


def _rational_tuple(text: str, n: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SchemaError(f"{what} needs {n} comma-separated rationals")
    return tuple(_rational(p) for p in parts)


def _params_from_base(base) -> BaseParams:
    """Recover (A4,B4,A5,B5) from a canonical-form base point tuple."""
    M1, M2, M3, M4, M5 = base
    if M1 != PlanarPoint(0, 0) or M2 != PlanarPoint(1, 0) or M3.y != 0:
        raise DegenerateBase(
            "base not in canonical form M1=(0,0), M2=(1,0), M3 on the x-axis")
    params = BaseParams(M4.x, M4.y, M5.x, M5.y)
    if M3.x != params.V / (params.B4 - params.B5):
        raise DegenerateBase("M3 is not the diagonal point of M4, M5")
    return params


def _affine_match(src, dst) -> bool:
    """True when an affine plane map sends src[i] -> dst[i] for all i."""
    pivot = None
    for j in range(1, 5):
        for k in range(j + 1, 5):
            if not collinear(src[0], src[j], src[k]):
                pivot = (j, k)
                break
        if pivot:
            break
    if pivot is None:
        return False
    j, k = pivot
    u1, u2 = src[j] - src[0], src[k] - src[0]
    v1, v2 = dst[j] - dst[0], dst[k] - dst[0]
    det = cross(u1, u2)
    a = (v1.x * u2.y - v2.x * u1.y) / det
    b = (v2.x * u1.x - v1.x * u2.x) / det
    c = (v1.y * u2.y - v2.y * u1.y) / det
    d = (v2.y * u1.x - v1.y * u2.x) / det
    p0, q0 = src[0], dst[0]
    for s, t in zip(src, dst):
        w = s - p0
        if PlanarPoint(q0.x + a * w.x + b * w.y,
                       q0.y + c * w.x + d * w.y) != t:
            return False
    return True


def _mu_from_platform(params: BaseParams, platform) -> AffineMap2:
    """The normalization (mu1, mu2, mu3) of a kappa_2 platform, if any."""
    m1, _, _, m4, m5 = platform
    if m4 != PlanarPoint(0, 0) or m5.y != 0:
        raise DegeneratePlatform(
            "platform not normalized: expected m4=(0,0) and m5 on the x-axis")
    mu1 = m5.x
    mu3 = m1.y / params.B4
    try:
        mu = AffineMap2(mu1, (m1.x - mu1 * params.A4) / params.B4, mu3)
    except ValueError as exc:
        raise DegeneratePlatform(str(exc)) from exc
    if tuple(build_platform(params, 2, mu)) != tuple(platform):
        raise DegeneratePlatform("platform is not a kappa_2 image of the base")
    return mu


def _float_cell(v) -> str:
    return repr(float(v))


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# ------------------------------------------------------------------ commands

def cmd_classify(cfg: RunConfig):
    design, _ = load_design(cfg.input)
    params = _params_from_base(design.base)
    candidates = reconstruct_candidates(params)
    report = candidate_report(params, candidates, seed=cfg.seed,
                              samples=cfg.samples)
    accepted = [c.tag for c in candidates if report[c.tag]["accepted"]]
    match = None
    for cand in sorted(candidates, key=lambda c: c.tag not in accepted):
        if _affine_match(cand.platform, design.platform):
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
        "rejections": {tag: report[tag]["first_failure"]
                       for tag in report if not report[tag]["accepted"]},
    }
    return 0, payload


def cmd_motion(cfg: RunConfig):
    design, sixth = load_design(cfg.input)
    params = _params_from_base(design.base)
    expected = build_platform(params, 2, AffineMap2.identity())
    if tuple(design.platform) != tuple(expected):
        raise DegeneratePlatform(
            "motion sampling needs the identity kappa_2 platform")
    r1sq = cfg.extra["r1sq"] if cfg.extra["r1sq"] is not None \
        else design.radii2[0]
    r2sq = cfg.extra["r2sq"] if cfg.extra["r2sq"] is not None \
        else design.radii2[1]
    motion_radii(params, r1sq, r2sq)    # realizability gate for (r1^2, r2^2)
    radii = (r1sq, r2sq) + tuple(design.radii2[2:])
    moving = PentapodDesign(design.base, design.platform, radii)
    if sixth is not None:
        moving = HexapodDesign(moving, sixth[0], sixth[1])
    report = verify_selfmotion(moving, count=cfg.samples,
                               tol_leg=cfg.tol_leg, tol_f0=cfg.tol_f0)
    legs = len(report.samples[0].residuals)
    header = ("e0", "e1", "e2", "e3", "f0", "f1", "f2", "f3") + tuple(
        f"res{i}" for i in range(1, legs + 1))
    rows = [[_float_cell(v) for v in s.e + s.f + s.residuals]
            for s in report.samples]
    out = cfg.out or "motion.csv"
    _write_csv(out, header, rows)
    t1, t2 = report.tangents
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
    return 0, payload


def cmd_pipeline(cfg: RunConfig):
    if cfg.extra["params"] is not None:
        vals = _rational_tuple(cfg.extra["params"], 4, "--params")
        params = BaseParams(*vals)
        mu_vals = (_rational_tuple(cfg.extra["mu"], 3, "--mu")
                   if cfg.extra["mu"] else (1, 0, 1))
        radii = (_rational_tuple(cfg.extra["radii"], 5, "--radii")
                 if cfg.extra["radii"] else (1, 1, 1, 1, 1))
    elif cfg.input:
        design, _ = load_design(cfg.input)
        params = _params_from_base(design.base)
        mu = _mu_from_platform(params, design.platform)
        mu_vals = (mu.mu1, mu.mu2, mu.mu3)
        radii = design.radii2
    else:
        raise SchemaError("pipeline needs a design file or --params")
    try:
        mu = AffineMap2(*mu_vals)
    except ValueError as exc:
        raise DegeneratePlatform(str(exc)) from exc
    canonical = CanonicalDesign.from_params(params, mu=mu, radii=radii)
    payload = pipeline_report(canonical)
    payload["params"] = {
        "A4": str(params.A4), "B4": str(params.B4),
        "A5": str(params.A5), "B5": str(params.B5),
        "mu": [str(v) for v in mu_vals],
        "radii2": [str(Fraction(r)) for r in radii],
    }
    return 0, payload


def cmd_hexapod_check(cfg: RunConfig):
    design, sixth = load_design(cfg.input)
    if sixth is not None:
        hexapod = HexapodDesign(design, sixth[0], sixth[1])
    else:
        hexapod = duporcq_hexapod(design)
    report = verify_selfmotion(hexapod, count=cfg.samples,
                               tol_leg=cfg.tol_leg, tol_f0=cfg.tol_f0)
    arch = float(arch_singularity_check(hexapod, seed=cfg.seed,
                                        samples=cfg.samples))
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


def cmd_profile(cfg: RunConfig):
    design, _ = load_design(cfg.input)
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
    if cfg.out:
        rows = profile_rows(curves["base"],
                            [Fraction(k) for k in range(cfg.samples)])
        _write_csv(cfg.out, ("t", "phi0", "phi1", "phi2", "phi3", "phi4",
                             "phi5"), rows)
        payload["csv"] = cfg.out
    return 0, payload


def _svg_line(p, u, scale, tf, color, label):
    px, py, ux, uy = float(p.x), float(p.y), u[0], u[1]
    a = tf((px - ux * scale, py - uy * scale))
    b = tf((px + ux * scale, py + uy * scale))
    return (f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            f'stroke="{color}" stroke-width="1.5"><title>{label}</title>'
            '</line>')


def cmd_svg(cfg: RunConfig):
    design, sixth = load_design(cfg.input)
    pts = list(design.base) + list(design.platform)
    if sixth is not None:
        pts += list(sixth)
    xs = [float(p.x) for p in pts]
    ys = [float(p.y) for p in pts]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1.0)
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
        ux, uy = float(u.x), float(u.y)
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
    out = cfg.out or "design.svg"
    data = "\n".join(parts) + "\n"
    with open(out, "w") as fh:
        fh.write(data)
    return 0, {"out": out, "bytes": len(data.encode())}


# ---------------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duporcq",
        description="Planar pentapod classification and self-motion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="design JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--tol-leg", type=float, default=1e-9)
        p.add_argument("--tol-f0", type=float, default=1e-12)
        p.add_argument("--out", default=None)

    p = sub.add_parser("classify", help="case-tree verdict for a design")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("motion", help="sample a self-motion to CSV")
    common(p)
    p.add_argument("--r1sq", default=None, help="first squared radius")
    p.add_argument("--r2sq", default=None, help="second squared radius")
    p.set_defaults(func=cmd_motion)

    p = sub.add_parser("pipeline", help="elimination pipeline report")
    common(p, needs_input=False)
    p.add_argument("input", nargs="?", default=None,
                   help="design JSON file (or use --params)")
    p.add_argument("--params", default=None, help="A4,B4,A5,B5")
    p.add_argument("--mu", default=None, help="mu1,mu2,mu3")
    p.add_argument("--radii", default=None, help="five squared radii")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("hexapod-check",
                       help="sixth-leg constancy and singularity test")
    common(p)
    p.set_defaults(func=cmd_hexapod_check)

    p = sub.add_parser("profile", help="Moebius profile data for a design")
    common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("svg", help="static figure of a configuration")
    common(p)
    p.set_defaults(func=cmd_svg)
    return parser


_parser = None       # built on the first main() call and kept


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    extra = {k: getattr(args, k) for k in ("r1sq", "r2sq", "params", "mu",
                                           "radii") if hasattr(args, k)}
    try:
        for key in ("r1sq", "r2sq"):
            if extra.get(key) is not None:
                extra[key] = _rational(extra[key])
        cfg = RunConfig(command=args.command, input=getattr(args, "input",
                                                            None),
                        out=args.out, seed=args.seed, samples=args.samples,
                        tol_leg=args.tol_leg, tol_f0=args.tol_f0, extra=extra)
        code, payload = args.func(cfg)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_SCHEMA
    except Unrealizable as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_UNREALIZABLE
    except (InconsistentSystem, NoRealSolution) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INCONSISTENT
    except (DegenerateBase, DegeneratePlatform, NotDuporcq, AllZero,
            NotCollinearDirection, ConstructionDegenerate,
            InvariantViolation) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DEGENERATE
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if cfg.out and args.command in ("classify", "pipeline", "hexapod-check"):
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

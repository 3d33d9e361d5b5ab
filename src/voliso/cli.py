"""Command-line front end: fixtures, random-body batches, and reports.

Exit codes follow a CI-friendly contract: 0 on pass, 1 when an estimate
violates the relevant bound, 2 on input or solver errors.  Each
``cmd_<command>`` returns its report as a plain dict; ``main`` alone writes
it and maps its ``passed`` entry (true when absent) to exit code 0 or 1.
Every report embeds the resolved configuration (flags, seeds, tolerances)
as its ``config`` dict, and repeated runs with identical flags produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import shapes
from .bodies import (MAX_EXACT_DIM, Ellipsoid, HPolytope, VPolytope,
                     apply_affine, hrep_from_vrep, read_polytope,
                     unit_ball_volume, vrep_from_hrep)
from .brascamp_lieb import (BLSystem, Density1D, bl_ratio,
                            reverse_isoperimetric_constant)
from .errors import DegenerateBodyError, VolisoError
from .john import (contact_points, john_decomposition, john_position,
                   max_inscribed_ellipsoid)
from .lp_spaces import (L1_VR_LIMIT, SubspaceSpec, _lewis_volume_ratio,
                        lp_ball_volume_ratio)
from .measures import isoperimetric_quotient, petty_functional, polytope_volume
from .sampling import McParams

PASS, BOUND_VIOLATION, INPUT_ERROR = 0, 1, 2
_REL_TOL = 1e-6
_SAMPLES = 200_000      # default --samples


def _scalar(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj).__name__}")


def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=_scalar) + "\n"
    else:
        text = _to_csv(report)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, value))


def _to_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    rows: list = []
    _flatten("", report, rows)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_john(args) -> dict:
    body = read_polytope(args.input)
    shift = None
    if not isinstance(body, HPolytope):
        try:
            body = hrep_from_vrep(body)
        except DegenerateBodyError:
            # the origin is not inside the hull: solve about the vertex
            # centroid, which is, and move the ellipsoid back (John's
            # ellipsoid commutes with translations)
            shift = body.vertices.mean(axis=0)
            body = hrep_from_vrep(VPolytope(body.vertices - shift))
    ellipsoid, info = max_inscribed_ellipsoid(body, full_output=True)
    transform = ellipsoid.as_map().inverse()
    image = apply_affine(body, transform)
    if shift is not None:
        ellipsoid = Ellipsoid(ellipsoid.shape, ellipsoid.center + shift)
        transform = ellipsoid.as_map().inverse()
    contacts = contact_points(image)
    decomposition = john_decomposition(contacts, symmetric=args.symmetric)
    return {
        "config": {"command": "john", "input": args.input,
                   "symmetric": args.symmetric},
        "ellipsoid": {"shape": ellipsoid.shape.tolist(),
                      "center": ellipsoid.center.tolist(),
                      "volume": ellipsoid.volume},
        "john_map": {"linear": transform.linear.tolist(),
                     "shift": transform.shift.tolist()},
        "contact_points": contacts.tolist(),
        "decomposition": {"contacts": decomposition.vectors.tolist(),
                          "weights": decomposition.weights.tolist(),
                          "symmetric": args.symmetric},
        "residuals": {
            "kkt": info.kkt_residual,
            "frobenius": decomposition.frobenius_residual(),
            "trace_gap": decomposition.trace_gap(),
            "barycenter": decomposition.barycenter_norm(),
        },
    }


def cmd_reviso(args) -> dict:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    constant = reverse_isoperimetric_constant(args.n, args.symmetric)
    rng = np.random.default_rng(args.seed)
    rows = []
    bodies = []
    if args.include_simplex:
        bodies.append(("regular-simplex", shapes.regular_simplex(args.n)))
    for index in range(args.count):
        bodies.append((f"random-{index}",
                       shapes.random_polytope(args.n, rng, symmetric=args.symmetric)))
    for label, body in bodies:
        image, _ = john_position(body)
        vertices = vrep_from_hrep(image)
        quotient = isoperimetric_quotient(vertices)
        volume = polytope_volume(vertices)
        rows.append({"body": label, "facets": body.num_facets,
                     "volume": volume, "quotient": quotient})
    worst = max(row["quotient"] for row in rows)
    return {
        "config": {"command": "reviso", "n": args.n, "count": args.count,
                   "seed": args.seed, "symmetric": args.symmetric,
                   "include_simplex": args.include_simplex,
                   "relative_tolerance": _REL_TOL},
        "bodies": rows,
        "max_quotient": worst,
        "constant": constant,
        "passed": worst <= constant * (1.0 + _REL_TOL),
    }


def cmd_lp(args) -> dict:
    with open(args.input, "r", encoding="utf-8") as fh:
        spec = SubspaceSpec.from_dict(json.load(fh))
    lewis, estimate = _lewis_volume_ratio(spec, McParams(args.samples, args.seed))
    reference = lp_ball_volume_ratio(spec.n, spec.p)
    report = {
        "config": {"command": "lp", "input": args.input, "n": spec.n,
                   "m": spec.m, "p": spec.p, "seed": args.seed,
                   "samples": args.samples},
        "lewis_residual": lewis.residual,
        "volume_ratio": estimate.to_dict(),
        "reference_vr": reference,
        "passed": estimate.at_most(reference),
    }
    if spec.p == 1.0:
        # reference_vr is then vr(l_1^n), the exact L_1 bound itself
        report["l1_bound"] = {"limit": L1_VR_LIMIT}
    return report


def _parse_densities(arg: str | None, count: int) -> list:
    if arg is None:
        return [Density1D.gaussian(1.0)] * count
    try:
        if arg.strip().startswith("["):
            data = json.loads(arg)
        else:
            with open(arg, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise VolisoError(f"cannot parse densities: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"densities must be a JSON list, not {type(data).__name__}")
    return [Density1D.from_dict(item) for item in data]


def cmd_bl(args) -> dict:
    with open(args.input, "r", encoding="utf-8") as fh:
        system = BLSystem.from_dict(json.load(fh))
    densities = _parse_densities(args.densities, system.size)
    estimate = bl_ratio(system, densities, McParams(args.samples, args.seed))
    return {
        "config": {"command": "bl", "input": args.input, "seed": args.seed,
                   "samples": args.samples,
                   "densities": [f.to_dict() for f in densities]},
        "decomposition": {"frobenius_residual": system.frobenius_residual(),
                          "trace_gap": system.trace_gap(),
                          "barycenter_norm": system.barycenter_norm()},
        "ratio": estimate.to_dict(),
        "bound": 1.0,
        "passed": estimate.at_most(1.0),
    }


def cmd_petty(args) -> dict:
    body = read_polytope(args.input)
    vertices = body if not isinstance(body, HPolytope) else vrep_from_hrep(body)
    n = vertices.dim
    petty = petty_functional(vertices, McParams(args.samples, args.seed))
    # ellipsoids minimize the shadow functional; its ball value is
    # v_{n-1} * v_n^{-(n-1)/n}
    ball_value = unit_ball_volume(n - 1) * unit_ball_volume(n) ** (-(n - 1.0) / n)
    return {
        "config": {"command": "petty", "input": args.input,
                   "seed": args.seed, "samples": args.samples},
        "petty": petty.to_dict(),
        "petty_ball_minimum": ball_value,
        "passed": petty.at_least(ball_value),
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed=True, samples=True):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if samples:
        sub.add_argument("--samples", type=int, default=_SAMPLES)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it as it
    was.  It holds no subcommand function: ``main`` looks ``cmd_<command>``
    up by name at each call, so a function rebound on this module is the
    one that runs."""
    parser = argparse.ArgumentParser(
        prog="voliso",
        description="John ellipsoids, volume ratios, and reverse "
                    "isoperimetric checks for convex bodies")
    subs = parser.add_subparsers(dest="command", required=True)

    john = subs.add_parser("john", help="maximal ellipsoid, John position, "
                                        "contacts, decomposition")
    john.add_argument("--input", required=True, help="polytope file")
    john.add_argument("--symmetric", action="store_true",
                      help="treat the body as origin-symmetric")
    _add_common(john, seed=False, samples=False)

    reviso = subs.add_parser("reviso", help="isoperimetric quotients of "
                                            "random John-positioned bodies")
    reviso.add_argument("--n", type=int, required=True,
                        choices=range(2, MAX_EXACT_DIM + 1))
    reviso.add_argument("--count", type=int, required=True)
    family = reviso.add_mutually_exclusive_group()
    family.add_argument("--symmetric", action="store_true")
    family.add_argument("--include-simplex", action="store_true",
                        help="inject the extremal regular simplex as body 0 "
                             "(not symmetric, so not with --symmetric)")
    _add_common(reviso, samples=False)

    lp = subs.add_parser("lp", help="volume ratio of a subspace of l_p^m")
    lp.add_argument("--input", required=True, help="subspace file")
    _add_common(lp)

    bl = subs.add_parser("bl", help="Brascamp-Lieb ratio of a system file")
    bl.add_argument("--input", required=True, help="system file")
    bl.add_argument("--densities", default=None,
                    help="JSON list (inline or path) of density descriptors; "
                         "default: standard Gaussians")
    _add_common(bl)

    petty = subs.add_parser("petty", help="Petty's shadow functional of a "
                                          "polytope against its ellipsoid "
                                          "minimum")
    petty.add_argument("--input", required=True, help="polytope file")
    _add_common(petty)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = globals()[f"cmd_{args.command}"](args)
        _emit(report, args.format, args.out)
    except (VolisoError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    return PASS if report.get("passed", True) else BOUND_VIOLATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Command-line front end: bound-sandwich reports, set estimates, plots.

Subcommands: ball, sandwich, set eac, set sep, set bound, plot.  All JSON
output is deterministic (fixed key order, 12 significant digits,
round-half-even) so that reports double as reproducible certificates.

Exit codes: 0 success, 1 sandwich consistency failure (implementation
bug by design), 2 unparseable input or exterior points, 3 grid-solver
dimension refusal of `set` (the sandwich lists its grid bounds as
inapplicable for d > 3 instead), 4 grid step refused because its lattice
would exceed `geometry.LATTICE_BUDGET` candidates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import entropy, exact, geometry, separation, svg

CONSISTENCY_TOL = 1e-9


def _fmt(v):
    """Round to 12 significant digits (round-half-even); inf becomes None."""
    if v is None or not math.isfinite(v):
        return None
    return float(f"{v:.12g}")


def _emit(report: dict, out=None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.asarray([float(t) for t in text.split(",")], dtype=float)
    except ValueError as e:
        raise ValueError(f"cannot parse point {text!r}: {e}") from None


def _parse_pair(text: str) -> tuple[np.ndarray, np.ndarray]:
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError('pair must look like "x1,y1;x2,y2"')
    return _parse_point(parts[0]), _parse_point(parts[1])


# ---------------------------------------------------------------------------
# subcommands


def cmd_ball(args) -> int:
    value = exact.ball_harnack_from_center(args.dim, args.radius, args.rho)
    sys.stdout.write(f"{value:.12g}\n")
    return 0


def _grid_step(args, domain) -> float:
    """--grid, or by default a thirtieth of the domain's bounding diameter."""
    return domain.bounding_diameter() / 30.0 if args.grid is None else args.grid


def cmd_sandwich(args) -> int:
    domain = geometry.load_domain(args.domain)
    x, y = _parse_pair(args.pair)
    q = separation.pair_separation(domain, x, y)  # refuses points not interior to the domain
    grid = _grid_step(args, domain)
    hops = args.hops
    if hops < 1:  # refused in any d, also where the grid bounds are inapplicable
        raise ValueError("hops must be >= 1")

    uppers: dict[str, float] = {}
    inapplicable: dict[str, str] = {}

    # pair bound, both forms
    if q < 1.0:
        uppers["pair_stated"], uppers["pair_proof_sharp"] = separation.pair_bound_from_q(
            q, domain.dim
        )
    else:
        inapplicable["pair_stated"] = f"pair separation {q:.12g} >= 1"
        inapplicable["pair_proof_sharp"] = f"pair separation {q:.12g} >= 1"

    # entropy bound for the two-point set
    eac = entropy.eac_hull_bound(domain, np.vstack([x, y]))
    if math.isfinite(eac):
        uppers["eac_sharp"], uppers["eac_rounded"] = entropy.eac_harnack_bound(eac, domain.dim)
    else:
        inapplicable["eac_sharp"] = "segmental hull not certified inside the domain"

    # chain bound through a minimax separation witness
    try:
        lattice = geometry.Lattice(domain, grid)
    except geometry.GridDimensionError:
        for name in ("set_hop", "chain_stated", "chain_proof_sharp"):
            inapplicable[name] = f"grid solver refuses d={domain.dim} > 3"
    else:
        result = separation.set_separation(lattice, x, y, hops)
        witness = result.per_target[0][1]
        if result.value < 1.0 and witness is not None:
            uppers["set_hop"] = separation.set_harnack_bound(result.value, hops, domain.dim)
            uppers["chain_stated"], uppers["chain_proof_sharp"] = separation.chain_bound(
                domain, witness
            )
        else:
            inapplicable["set_hop"] = (
                f"set separation {result.value:.12g} >= 1 at hops={hops}; "
                "try more hops or a finer grid"
            )

    for name in [k for k, v in uppers.items() if not math.isfinite(v)]:
        del uppers[name]
        inapplicable[name] = "bound overflows the float range"

    lower = exact.poisson_witness_lower_bound(domain, x, y)
    exact_value = None
    if isinstance(domain, geometry.Ball):
        exact_value = exact.ball_harnack_two_points(x, y, domain.center, domain.radius)

    min_upper = min(uppers.values(), default=math.inf)
    consistent = lower.value <= min_upper + CONSISTENCY_TOL
    if exact_value is not None:
        consistent &= lower.value - CONSISTENCY_TOL <= exact_value <= min_upper + CONSISTENCY_TOL

    report = {
        "domain_id": os.path.basename(args.domain),
        "query": {"type": "pair", "x": x.tolist(), "y": y.tolist()},
        "parameters": {
            "hops": hops,
            "grid_step": _fmt(grid),
        },
        "lower": {
            "method": lower.method,
            "value": _fmt(lower.value),
            "witness": lower.witness,
        },
        "uppers": {k: _fmt(v) for k, v in sorted(uppers.items())},
        "inapplicable": dict(sorted(inapplicable.items())),
        "pair_separation": _fmt(q),
        "exact": _fmt(exact_value),
        "verdict": "consistent" if consistent else "inconsistent",
    }
    _emit(report, args.out)
    return 0 if consistent else 1


def _eac_payload(lattice, pts):
    est = entropy.eac_estimate(lattice, pts)
    hull = entropy.eac_hull_bound(lattice.domain, pts)
    payload = {
        "value": _fmt(est.value),
        "hull_bound": _fmt(hull),
        "grid_step": _fmt(est.grid_step),
        "clearance_levels": [_fmt(r) for r in est.clearance_levels],
        "per_pair": [
            {
                "pair": list(k),
                "ratio": _fmt(rec.ratio),
                "clearance": _fmt(rec.clearance),
                "polyline": np.asarray(rec.polyline).tolist(),
            }
            for k, rec in sorted(est.per_pair.items())
        ],
    }
    return est, payload


def cmd_set(args) -> int:
    domain = geometry.load_domain(args.domain)
    pts = geometry.load_point_set(args.set, domain)
    if args.what != "eac":
        if args.start is None:
            raise ValueError(f"'set {args.what}' requires --start")
        start = _parse_point(args.start)
    lattice = geometry.Lattice(domain, _grid_step(args, domain))
    report = {
        "domain_id": os.path.basename(args.domain),
        "set_id": os.path.basename(args.set),
        "subcommand": args.what,
    }

    if args.what in ("eac", "bound"):
        est, payload = _eac_payload(lattice, pts)
        report["eac"] = payload
        report["eac_harnack_bound"] = None
        if math.isfinite(est.value):
            sharp, rounded = entropy.eac_harnack_bound(est.value, domain.dim)
            if math.isfinite(sharp) and math.isfinite(rounded):
                report["eac_harnack_bound"] = {
                    "sharp": _fmt(sharp),
                    "rounded": _fmt(rounded),
                }

    if args.what in ("sep", "bound"):
        result = separation.set_separation(lattice, start, pts, args.hops)
        sep_payload = {
            "value": _fmt(result.value),
            "hops": result.hops,
            "grid_step": _fmt(result.grid_step),
            "start": start.tolist(),
            "per_target": [
                {
                    "target": t,
                    "value": _fmt(v),
                    "reachable": poly is not None,
                    "polyline": None if poly is None else np.asarray(poly).tolist(),
                }
                for t, (v, poly) in sorted(result.per_target.items())
            ],
        }
        report["sep"] = sep_payload
        if result.value < 1.0:
            report["sep_harnack_bound"] = _fmt(
                separation.set_harnack_bound(result.value, args.hops, domain.dim)
            )
        else:
            report["sep_harnack_bound"] = None

    _emit(report, args.out)
    return 0


def _load_artifact(path, domain):
    """(point sets, polylines, ball chains) of a point-set file, a ball-chain
    file or a `set` report, whose eac and sep witnesses are both drawn."""

    def parse(data):
        point_sets, polylines, chains = [], [], []
        if "points" in data:
            point_sets.append(geometry.points_array(data["points"], domain))
        elif "centers" in data:
            centers = geometry.points_array(data["centers"], domain)
            chains.append((centers, float(data["radius"])))
        elif "eac" in data or "sep" in data:
            eac, sep = data.get("eac") or {}, data.get("sep") or {}
            for rec in eac.get("per_pair", []) + sep.get("per_target", []):
                if rec["polyline"] is not None:  # None: an unreachable target
                    polylines.append(geometry.points_array(rec["polyline"], domain))
        else:
            raise ValueError(f"unrecognized artifact file: {path}")
        return point_sets, polylines, chains

    return geometry._load(path, "artifact", parse)


def cmd_plot(args) -> int:
    domain = geometry.load_domain(args.domain)
    if domain.dim != 2:
        raise ValueError("plotting is 2-D only")
    point_sets, polylines, chains = [], [], []
    for path in args.artifacts:
        ps, pl, ch = _load_artifact(path, domain)
        point_sets.extend(ps)
        polylines.extend(pl)
        chains.extend(ch)
    doc = svg.render_svg(domain, point_sets, polylines, chains)
    with open(args.out, "w") as f:
        f.write(doc)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harnack",
        description="Certified bounds on the Harnack distance in bounded domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("ball", help="exact Harnack distance from a ball center")
    p_ball.add_argument("--dim", type=int, required=True)
    p_ball.add_argument("--radius", type=float, required=True)
    p_ball.add_argument("--rho", type=float, required=True)
    p_ball.set_defaults(func=cmd_ball)

    p_sand = sub.add_parser("sandwich", help="combined lower/upper bound report for a pair")
    p_sand.add_argument("--domain", required=True)
    p_sand.add_argument("--pair", required=True, help='"x1,y1;x2,y2"')
    p_sand.add_argument("--hops", type=int, default=2)
    p_sand.add_argument("--grid", type=float, default=None)
    p_sand.add_argument("--out", default=None)
    p_sand.set_defaults(func=cmd_sandwich)

    p_set = sub.add_parser("set", help="entropy / separation estimates for a point set")
    p_set.add_argument("what", choices=["eac", "sep", "bound"])
    p_set.add_argument("--domain", required=True)
    p_set.add_argument("--set", required=True)
    p_set.add_argument("--start", default=None, help='"x,y[,z]" (sep/bound)')
    p_set.add_argument("--hops", type=int, default=2)
    p_set.add_argument("--grid", type=float, default=None)
    p_set.add_argument("--out", default=None)
    p_set.set_defaults(func=cmd_set)

    p_plot = sub.add_parser("plot", help="render domain and artifacts to SVG")
    p_plot.add_argument("--domain", required=True)
    p_plot.add_argument("artifacts", nargs="*")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes longer than
    parsing, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except geometry.GridDimensionError as e:
        sys.stderr.write(f"error: {e}\n(hull bounds remain available for d > 3)\n")
        return 3
    except geometry.LatticeBudgetError as e:
        sys.stderr.write(f"error: {e}\n(use a coarser --grid)\n")
        return 4
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for every command of a round that wrote its output.

Each check compares a report with the benchmark's own references
(``reference.py``) or with a property that any correct report must have;
none compares with stored output.  A check returns a list of error
strings, empty when the output passes, and a summary of the figures the
end-to-end metrics are built from.  A report that states it has no result
raises ``NoResult``: the command failed, but its output is not wrong.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

REL = 1e-9  # relative tolerance; reports round to 12 significant digits
POINT_TOL = 1e-12


def _close(got, want, rel=REL) -> bool:
    return got is not None and abs(got - want) <= rel * max(abs(want), 1e-300)


class NoResult(Exception):
    """The report carries no estimate where the command should give one."""


def _same_point(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= POINT_TOL))


def _finite_min(values):
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return min(finite) if finite else None


def check_sandwich(op, report) -> tuple[list, dict]:
    dom, d = op.domain, op.domain["dim"]
    x, y = op.info["x"], op.info["y"]
    errs = []
    if report["verdict"] != "consistent":
        errs.append(f"verdict {report['verdict']}")
    lower = report["lower"]["value"]
    uppers = report["uppers"]
    min_upper = _finite_min(uppers.values())
    if not lower >= 1.0:
        errs.append(f"lower {lower} < 1")
    for name, v in uppers.items():
        if v is not None and lower > v * (1 + REL):
            errs.append(f"lower {lower} above upper {name}={v}")

    cx, cy = ref.clearance(dom, [x, y])
    q = float(np.linalg.norm(x - y)) / (cx + cy)
    if not _close(report["pair_separation"], q):
        errs.append(f"pair_separation {report['pair_separation']} != reference {q}")
    if uppers.get("pair_stated") is not None:
        want = 2.0 ** (2 * d) / (1.0 - q) ** (2 * (d - 1))
        if not _close(uppers["pair_stated"], want):
            errs.append(f"pair_stated {uppers['pair_stated']} != {want}")

    s = dom["shape"]
    if s["type"] == "ball":
        exact = (ref.disk_exact if d == 2 else ref.ball_exact)(x, y, s["center"], s["radius"])
        if lower > exact * (1 + REL):
            errs.append(f"lower {lower} above reference exact {exact}")
        if min_upper is not None and exact > min_upper * (1 + REL):
            errs.append(f"reference exact {exact} above upper {min_upper}")
        if (d == 2 or report["exact"] is not None) and not _close(report["exact"], exact):
            errs.append(f"exact {report['exact']} != reference {exact}")

    errs += _check_witness(dom, x, y, report["lower"])
    summary = {"sep": report["pair_separation"]}
    if min_upper is not None:
        summary["gap_ln"] = math.log(min_upper / lower)
    return errs, summary


def _check_witness(dom, x, y, lower) -> list:
    """Re-evaluate the lower bound from its witness ball: a boundary point
    `zeta` of the ball gives a Poisson-kernel ratio, a ball centred on the
    pair gives the closed form from the centre."""
    w, value = lower["witness"], lower["value"]
    c, radius = np.asarray(w["center"], dtype=float), float(w["radius"])
    errs = []
    if radius < ref.enclosing_radius(dom, c) * (1 - REL):
        errs.append(f"witness ball of radius {radius} does not enclose the domain")
    if w.get("zeta") is not None:
        zeta = np.asarray(w["zeta"], dtype=float)
        if not _close(float(np.linalg.norm(zeta - c)), radius):
            errs.append("Poisson witness point is not on its ball's sphere")
        got = math.exp(abs(float(ref.poisson_log_ratio(x, y, zeta, c, radius)[0])))
    elif "rho" in w:
        rho = float(np.linalg.norm(x - y))
        if not (_same_point(c, x) or _same_point(c, y)) or not _close(w["rho"], rho):
            errs.append("enclosing-ball witness is not centred on the pair")
        got = ref.ball_from_center(dom["dim"], radius, rho)
    else:
        return errs + [f"{lower['method']} witness has neither a boundary point nor a radius"]
    if got < value * (1 - REL):
        errs.append(f"witness re-evaluates to {got} < reported lower {value}")
    return errs


def _certified(dom, poly, clear, grid) -> float:
    """Reference clearance of a polyline, refined until it certifies the
    reported clearance or the spacing is far below the grid step."""
    got = -math.inf
    for spacing in (grid / 32, grid / 512, grid / 8192):
        got = ref.polyline_clearance(dom, poly, spacing)
        if got >= clear * (1 - REL):
            break
    return got


def _check_eac(op, report) -> tuple[list, dict]:
    dom, d = op.domain, op.domain["dim"]
    pts = op.info["points"]
    eac = report["eac"]
    grid = eac["grid_step"]
    errs = []
    m = pts.shape[0]
    if len(eac["per_pair"]) != m * (m - 1) // 2:
        errs.append(f"{len(eac['per_pair'])} pair records for {m} points")
    if eac["value"] is None:
        missing = sum(rec["ratio"] is None for rec in eac["per_pair"])
        raise NoResult(f"no certified witness for {missing} pairs, so the entropy is null")
    ratios = []
    for rec in eac["per_pair"]:
        i, j = rec["pair"]
        x, y = pts[i], pts[j]
        ratio, clear = rec["ratio"], rec["clearance"]
        if ratio is None:
            errs.append(f"pair {i},{j} has no certified witness")
            continue
        poly = np.asarray(rec["polyline"], dtype=float)
        if not (_same_point(poly[0], x) and _same_point(poly[-1], y)):
            errs.append(f"pair {i},{j}: polyline does not run from x to y")
        cert = _certified(dom, poly, clear, grid)
        if cert < clear * (1 - REL):
            errs.append(f"pair {i},{j}: reference clearance {cert} below reported {clear}")
        length = float(np.linalg.norm(np.diff(poly, axis=0), axis=1).sum())
        if length / clear > ratio * (1 + REL):
            errs.append(f"pair {i},{j}: length/clearance {length / clear} above ratio {ratio}")
        floor = float(np.linalg.norm(x - y)) / float(ref.clearance(dom, [x, y]).min())
        if ratio < floor * (1 - REL):
            errs.append(f"pair {i},{j}: ratio {ratio} below |x-y|/min clearance {floor}")
        ratios.append(ratio)
    value = eac["value"]
    if ratios and not _close(value, max(ratios)):
        errs.append(f"eac value {value} is not the largest ratio {max(ratios)}")
    uppers = []
    bound = report.get("eac_harnack_bound")
    if value is None or bound is None:
        errs.append("no finite entropy estimate")
    else:
        sharp = (3.0 * 2.0 ** (d - 2)) ** (2.0 * value + 1.0)
        rounded = 2.0 ** (2.0 * d * (value + 1.0))
        if not (_close(bound["sharp"], sharp) and _close(bound["rounded"], rounded)):
            errs.append(f"eac_harnack_bound {bound} != ({sharp}, {rounded})")
        uppers = [bound["sharp"], bound["rounded"]]
    return errs, {"eac": value, "uppers": uppers}


def _check_sep(op, report) -> tuple[list, dict]:
    dom, d = op.domain, op.domain["dim"]
    pts, start, hops = op.info["points"], op.info["start"], op.info["hops"]
    sep = report["sep"]
    errs = []
    inradius = ref.inradius_upper(dom)
    values = []
    for rec in sep["per_target"]:
        t = pts[rec["target"]]
        if not rec["reachable"]:
            errs.append(f"target {rec['target']} unreachable")
            continue
        poly = np.asarray(rec["polyline"], dtype=float)
        if poly.shape[0] != hops + 1 or not (_same_point(poly[0], start) and _same_point(poly[-1], t)):
            errs.append(f"target {rec['target']}: polyline is not a {hops}-hop chain from start")
            continue
        c = ref.clearance(dom, poly)
        links = np.linalg.norm(np.diff(poly, axis=0), axis=1) / (c[:-1] + c[1:])
        if not _close(rec["value"], float(links.max())):
            errs.append(f"target {rec['target']}: value {rec['value']} != largest link {links.max()}")
        floor = float(np.linalg.norm(start - t)) / (2 * hops * inradius)
        if rec["value"] < floor * (1 - REL):
            errs.append(f"target {rec['target']}: value {rec['value']} below {floor}")
        values.append(rec["value"])
    value = sep["value"]
    if values and not _close(value, max(values)):
        errs.append(f"sep value {value} is not the largest target value {max(values)}")
    uppers = []
    if value is None or report["sep_harnack_bound"] is None:
        errs.append("no finite separation bound")
    else:
        want = 2.0 ** (2 * d * hops) / (1.0 - value) ** ((d - 1) * hops)
        if not _close(report["sep_harnack_bound"], want):
            errs.append(f"sep_harnack_bound {report['sep_harnack_bound']} != {want}")
        uppers = [report["sep_harnack_bound"]]
    return errs, {"sep": value, "uppers": uppers}


def check_set(op, report) -> tuple[list, dict]:
    errs, summary, uppers = [], {}, []
    if op.kind in ("eac", "bound"):
        e, s = _check_eac(op, report)
        errs += e
        summary["eac"] = s["eac"]
        uppers += s["uppers"]
    if op.kind in ("sep", "bound"):
        e, s = _check_sep(op, report)
        errs += e
        summary["sep"] = s["sep"]
        uppers += s["uppers"]
    best = _finite_min(uppers)
    if best is not None:
        summary["gap_ln"] = math.log(best)  # a set report's lower bound is 1
    return errs, summary


def check_plot(op, text, round_dir) -> tuple[list, dict]:
    with open(os.path.join(round_dir, os.path.basename(op.info["report"]))) as f:
        report = json.load(f)
    want = sorted(len(rec["polyline"]) for rec in report["eac"]["per_pair"] if rec["polyline"])
    s = op.domain["shape"]
    if s["type"] == "polygon":
        want = sorted(want + [len(s["vertices"])])
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return [f"SVG does not parse: {e}"], {}
    got = sorted(
        sum(tok in ("M", "L") for tok in el.get("d", "").split())
        for el in root.iter("{http://www.w3.org/2000/svg}path")
    )
    if got != want:
        return [f"SVG paths with {got} vertices, expected {want}"], {}
    return [], {}


def check(op, round_dir: str) -> tuple[list, dict]:
    """Check the output of op that its round moved into round_dir."""
    path = os.path.join(round_dir, os.path.basename(op.out))
    if not os.path.exists(path):
        return ["the command wrote no output"], {}
    with open(path) as f:
        output = f.read()
    if op.kind == "plot":
        return check_plot(op, output, round_dir)
    report = json.loads(output)
    if op.kind == "sandwich":
        return check_sandwich(op, report)
    return check_set(op, report)

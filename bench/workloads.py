"""Seeded inputs and command lists of the three benchmark workloads.

``build(name, seed, workdir)`` writes the domain and point-set files into
``workdir`` and returns the workload's round: the list of CLI commands it
runs, in order, with what the output checks need to know about each.  The
same seed gives the same files and commands.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

DOMAINS = {
    "disk": {"dim": 2, "shape": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}},
    "lpoly": {
        "dim": 2,
        "shape": {
            "type": "polygon",
            "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]],
        },
    },
    "union3": {
        "dim": 2,
        "shape": {
            "type": "union_of_balls",
            "balls": [
                {"center": [-0.8, 0.0], "radius": 0.5},
                {"center": [0.0, 0.2], "radius": 0.5},
                {"center": [0.8, 0.0], "radius": 0.5},
            ],
        },
    },
    "ball3d": {"dim": 3, "shape": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}},
}

# Union pairs whose segmental-hull entropy is above 255, where the float
# powers in entropy.eac_harnack_bound overflow.  They do not depend on the
# seed, so every round fails on exactly these commands.
OVERFLOW_PAIRS = [
    ([-0.118, 0.399], [1.098, 0.329]),
    ([0.118, 0.399], [-1.098, 0.329]),
]

# pair-sandwich: (domain, number of seeded pairs, smallest point clearance, --grid)
SANDWICH_MIX = [("disk", 60, 0.05, None), ("lpoly", 50, 0.05, None), ("union3", 48, 0.03, None),
                ("ball3d", 40, 0.05, 0.25)]
# ball pairs of the union, in turn: same ball, neighbours, and the two ends
UNION_BALL_PAIRS = [(0, 0), (0, 1), (1, 2), (0, 2), (1, 1), (2, 1), (2, 2), (2, 0)]
MAX_JITTER_DRAWS = 100

# Inputs are a fixed design moved by a seeded jitter of at most JITTER per
# coordinate.  A set's entropy and separation are maxima over its pairs and
# targets, so fully random sets would make them swing from seed to seed;
# the jitter keeps each seed's inputs distinct while the figures stay steady.
# The `set bound` set is the design itself: its separation on the coarse
# 3-D lattice jumps under any jitter, and it is its workload's only one.
DESIGN_SEED = 20210930
JITTER = 0.01

# set-entropy: (domain, points, smallest clearance), all at --grid 0.05
ENTROPY_SETS = [("disk", 12, 0.1), ("lpoly", 12, 0.1), ("union3", 8, 0.1)]
ENTROPY_GRID = 0.05
BOUND_SET = ("ball3d", 6, 0.1, [0.0, 0.0, 0.0], 2, 0.125)  # domain, n, floor, start, hops, grid

# set-separation: (domain, targets, smallest clearance, start, hops, grid)
SEPARATION_SETS = [
    ("disk", 4, 0.1, [0.0, 0.0], 3, 0.025),
    ("lpoly", 4, 0.1, [-0.5, -0.5], 3, 0.03),
    ("ball3d", 4, 0.1, [0.0, 0.0, 0.0], 2, 0.1),
]

WORKLOADS = ("pair-sandwich", "set-entropy", "set-separation")


@dataclass
class Op:
    """One CLI command of a round and what its checks need."""

    kind: str  # "sandwich" | "eac" | "bound" | "sep" | "plot"
    argv: list
    out: str
    domain_name: str
    info: dict = field(default_factory=dict)

    @property
    def domain(self) -> dict:
        return DOMAINS[self.domain_name]


def _fmt_point(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _draw_in(rng, domain: dict, floor: float, n: int, lo=None, hi=None) -> np.ndarray:
    """n points uniform in a box (default: the domain's) with clearance >= floor."""
    if lo is None:
        lo, hi = ref.bounding_box(domain)
    out = []
    while len(out) < n:
        cand = rng.uniform(lo, hi, size=(4 * n, len(lo)))
        out.extend(cand[ref.clearance(domain, cand) >= floor])
    return np.round(np.asarray(out[:n]), 6)


def overflow_entropy(dim: int) -> float:
    """Entropy at which 2.0 ** (2d(eac + 1)) in entropy.eac_harnack_bound
    overflows a float; its other power overflows later."""
    return 1024.0 / (2 * dim) - 1.0


def may_overflow(domain: dict, x, y) -> bool:
    """True when the library's segmental-hull entropy of the pair reaches
    overflow_entropy, so that its sandwich fails.

    This follows the library's certificate: [x, y] is cut into a power of
    two of pieces no longer than 1e-3 times the bounding diameter, and the
    least clearance at their ends, minus half a piece, is the certified
    clearance; the entropy is |x - y| over it, and infinite (no failure)
    when it is 0.  The clearances here are the reference's, so the test
    keeps a margin of 1e-6 for rounding.
    """
    lo, hi = ref.bounding_box(domain)
    resolution = 1e-3 * float(np.linalg.norm(hi - lo))
    length = float(np.linalg.norm(np.subtract(y, x)))
    n = 1 << max(0, math.ceil(math.log2(length / resolution)))
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    certified = float(ref.clearance(domain, x + t * np.subtract(y, x)).min()) - length / n / 2
    return certified > -1e-6 and length >= certified * (overflow_entropy(domain["dim"]) - 1e-6)


def _jitter(rng, pts: np.ndarray) -> np.ndarray:
    return np.round(pts + rng.uniform(-JITTER, JITTER, size=pts.shape), 6)


def _design_points(design, domain: dict, floor: float, n: int, lo=None, hi=None):
    """Design points, kept far enough inside that any jitter leaves them
    at a clearance of at least floor (the clearance is 1-Lipschitz)."""
    return _draw_in(design, domain, floor + JITTER * math.sqrt(domain["dim"]), n, lo, hi)


def _pairs(design, rng, name: str, count: int, floor: float, redrawn: list) -> list:
    """count seeded pairs; a jitter that puts a pair where the overflow can
    occur is drawn again, and each such draw is appended to redrawn."""
    domain = DOMAINS[name]
    pairs = []
    while len(pairs) < count:
        if name == "union3":
            i, j = UNION_BALL_PAIRS[len(pairs) % len(UNION_BALL_PAIRS)]
            balls = domain["shape"]["balls"]
            x = _design_points(design, domain, floor, 1, *_ball_box(balls[i]))[0]
            y = _design_points(design, domain, floor, 1, *_ball_box(balls[j]))[0]
        else:
            x, y = _design_points(design, domain, floor, 2)
        if np.array_equal(x, y):
            continue
        for _ in range(MAX_JITTER_DRAWS):
            jx, jy = _jitter(rng, np.vstack([x, y]))
            if not may_overflow(domain, jx, jy):
                pairs.append((jx, jy))
                break
            redrawn.append((name, jx, jy))
    return pairs


def _ball_box(ball: dict):
    c = np.asarray(ball["center"], dtype=float)
    return c - ball["radius"], c + ball["radius"]


def _write(path: str, data) -> str:
    with open(path, "w") as f:
        json.dump(data, f)
    return path


def _domain_files(workdir: str) -> dict:
    return {
        name: _write(os.path.join(workdir, f"{name}.json"), d) for name, d in DOMAINS.items()
    }


def _pair_sandwich(design, rng, workdir: str, files: dict, redrawn: list) -> list:
    ops = []
    for name, count, floor, grid in SANDWICH_MIX:
        pairs = _pairs(design, rng, name, count, floor, redrawn)
        if name == "union3":
            pairs += [(np.asarray(x), np.asarray(y)) for x, y in OVERFLOW_PAIRS]
        for x, y in pairs:
            out = os.path.join(workdir, f"out{len(ops)}.json")
            argv = ["sandwich", "--domain", files[name], f"--pair={_fmt_point(x)};{_fmt_point(y)}",
                    "--out", out]
            if grid is not None:
                argv += ["--grid", repr(grid)]
            ops.append(Op("sandwich", argv, out, name, {"x": x, "y": y}))
    return ops


def _set_points(design, rng, name: str, n: int, floor: float) -> np.ndarray:
    points = _design_points(design, DOMAINS[name], floor, n)
    return points if rng is None else _jitter(rng, points)


def _set_entropy(design, rng, workdir: str, files: dict) -> list:
    ops = []
    for name, n, floor in ENTROPY_SETS:
        pts = _set_points(design, rng, name, n, floor)
        set_path = _write(os.path.join(workdir, f"set_{name}.json"), {"points": pts.tolist()})
        report = os.path.join(workdir, f"eac_{name}.json")
        ops.append(Op("eac", ["set", "eac", "--domain", files[name], "--set", set_path,
                              "--grid", repr(ENTROPY_GRID), "--out", report],
                      report, name, {"points": pts}))
        picture = os.path.join(workdir, f"eac_{name}.svg")
        ops.append(Op("plot", ["plot", "--domain", files[name], report, "--out", picture],
                      picture, name, {"report": report}))
    name, n, floor, start, hops, grid = BOUND_SET
    ops.append(_set_op("bound", design, None, workdir, files, name, n, floor, start, hops, grid))
    return ops


def _set_op(what, design, rng, workdir, files, name, n, floor, start, hops, grid) -> Op:
    pts = _set_points(design, rng, name, n, floor)
    set_path = _write(os.path.join(workdir, f"{what}_set_{name}.json"), {"points": pts.tolist()})
    out = os.path.join(workdir, f"{what}_{name}.json")
    argv = ["set", what, "--domain", files[name], "--set", set_path, f"--start={_fmt_point(start)}",
            "--hops", str(hops), "--grid", repr(grid), "--out", out]
    return Op(what, argv, out, name, {"points": pts, "start": np.asarray(start, dtype=float),
                                      "hops": hops})


def _set_separation(design, rng, workdir: str, files: dict) -> list:
    return [_set_op("sep", design, rng, workdir, files, *spec) for spec in SEPARATION_SETS]


def build(name: str, seed: int, workdir: str, redrawn: list | None = None) -> list:
    """Write the workload's input files into workdir and return its round.

    The sandwich pairs whose jitter was drawn again, because the overflow
    could occur there, are appended to redrawn."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    design = np.random.default_rng(DESIGN_SEED)
    rng = np.random.default_rng(seed)
    files = _domain_files(workdir)
    if name == "pair-sandwich":
        return _pair_sandwich(design, rng, workdir, files, [] if redrawn is None else redrawn)
    make = {"set-entropy": _set_entropy, "set-separation": _set_separation}[name]
    return make(design, rng, workdir, files)

"""Spans around the library's public functions, recorded from outside it.

``Tracer.install()`` rebinds each public function of the harnack modules,
wherever a harnack module binds it, to a wrapper that records a span
(name, start, end, parent) and a count where one is named below;
``uninstall()`` puts the originals back.  The ``clearance`` method of each
shape class is wrapped the same way.  Spans stay in memory until the run
writes them out.  A function that is not listed here is not wrapped, so
its time is self time of its caller.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

# per-layer time metric -> spans whose self time it sums
TIME_METRICS = {
    "cli.self_s": ["cli.main"],
    "geometry.load_s": ["geometry.load_domain", "geometry.load_point_set",
                        "geometry.dump_domain", "geometry.dump_point_set"],
    "geometry.lattice_s": ["geometry.lattice_points"],
    "geometry.clearance_s": ["geometry.clearance", "geometry.dist_to_complement",
                             "geometry.contains"],
    "geometry.segment_cert_s": ["geometry.certified_segment_clearance",
                                "geometry.segment_samples"],
    "geometry.hull_s": ["geometry.hull_clearance", "geometry.convex_hull_2d",
                        "geometry.diameter", "geometry.enclosing_ball"],
    "exact.enclosing_s": ["exact.enclosing_ball_lower_bound", "exact.ball_harnack_from_center"],
    "exact.poisson_s": ["exact.poisson_witness_lower_bound"],
    "exact.disk_s": ["exact.disk_harnack_two_points"],
    "entropy.estimate_s": ["entropy.eac_estimate", "entropy.build_ball_chain"],
    "entropy.dijkstra_s": ["entropy.dijkstra"],
    "entropy.hull_bound_s": ["entropy.eac_hull_bound", "entropy.eac_harnack_bound"],
    "separation.solve_s": ["separation.set_separation", "separation.pair_separation",
                           "separation.pair_bound", "separation.sequence_separation",
                           "separation.set_harnack_bound", "separation.chain_bound",
                           "separation.verify_between_conditions"],
    "svg.render_s": ["svg.render_svg"],
}
SHAPES = ("Ball", "Box", "Polygon2D", "UnionOfBalls")

COUNT_METRICS = {
    # metric -> (span name, how a span counts: "calls", or the key of its info)
    "geometry.lattice_calls": ("geometry.lattice_points", "calls"),
    "geometry.lattice_nodes": ("geometry.lattice_points", "nodes"),
    "geometry.clearance_calls": ("geometry.clearance", "calls"),
    "geometry.clearance_points": ("geometry.clearance", "points"),
    "geometry.segment_cert_calls": ("geometry.certified_segment_clearance", "calls"),
    "entropy.pairs": ("entropy.eac_estimate", "pairs"),
    "entropy.levels_swept": ("entropy.eac_estimate", "levels_swept"),
    "entropy.dijkstra_calls": ("entropy.dijkstra", "calls"),
    "separation.solves": ("separation.set_separation", "calls"),
    "svg.bytes": ("svg.render_svg", "bytes"),
}


def _points_info(args, result):
    pts = args[1]
    return {"points": 1 if getattr(pts, "ndim", 2) == 1 else len(pts)}


def _eac_info(args, result):
    m = result.points.shape[0]
    pairs = m * (m - 1) // 2
    return {"pairs": pairs, "levels_swept": pairs * len(result.clearance_levels)}


INFO = {
    "geometry.clearance": _points_info,
    "geometry.lattice_points": lambda args, result: {"nodes": int(result.shape[0])},
    "entropy.eac_estimate": _eac_info,
    "svg.render_svg": lambda args, result: {"bytes": len(result.encode())},
}


class Tracer:
    def __init__(self):
        from harnack import cli, entropy, exact, geometry, separation, svg

        self.modules = {"cli": cli, "geometry": geometry, "exact": exact, "entropy": entropy,
                        "separation": separation, "svg": svg}
        self.spans = []  # (name, start, end, parent index, round, info)
        self.stack = []
        self.round = 0
        self.alloc = False  # run tracemalloc inside set_separation
        self.patches = []
        self.wrappers = {}  # id(original) -> (original, wrapper)
        for names in TIME_METRICS.values():
            for name in names:
                layer, attr = name.split(".")
                fn = getattr(self.modules[layer], attr, None)
                if callable(fn):
                    self.wrappers[id(fn)] = (fn, self._wrap(fn, name))
        self.method_wrappers = [
            (cls, cls.__dict__["clearance"], self._wrap(cls.__dict__["clearance"], "geometry.clearance"))
            for cls in (getattr(geometry, n, None) for n in SHAPES)
            if cls is not None and "clearance" in cls.__dict__
        ]

    def _wrap(self, fn, name):
        info_of = INFO.get(name)
        solver = name == "separation.set_separation"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            info = None
            peak = solver and tracer.alloc
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(args, result)
                return result
            finally:
                end = time.perf_counter()
                if peak:
                    info = {"alloc_peak": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.round, info)

        return wrapper

    def install(self, round_index: int, alloc: bool = False) -> None:
        """Wrap the functions; with alloc, each set_separation call also
        records its tracemalloc peak, which slows it and its children."""
        self.round = round_index
        self.alloc = alloc
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                hit = self.wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self.patches.append((module, attr, obj))
        for cls, fn, wrapper in self.method_wrappers:
            setattr(cls, "clearance", wrapper)
            self.patches.append((cls, "clearance", fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self.patches):
            setattr(owner, attr, obj)
        self.patches = []

    def round_metrics(self, round_index: int) -> dict:
        """Per-layer metrics of one traced round."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time, calls, info = {}, {}, {}
        for i, (name, start, end, _, rnd, extra) in enumerate(self.spans):
            if rnd != round_index:
                continue
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
            calls[name] = calls.get(name, 0) + 1
            for key, v in (extra or {}).items():
                info.setdefault(name, {}).setdefault(key, []).append(v)
        out = {m: sum(self_time.get(n, 0.0) for n in names) for m, names in TIME_METRICS.items()}
        for metric, (name, key) in COUNT_METRICS.items():
            out[metric] = calls.get(name, 0) if key == "calls" else sum(info.get(name, {}).get(key, []))
        return out

    def alloc_peak_mb(self, round_index: int) -> float:
        """Largest tracemalloc peak of one set_separation call in a round
        traced with alloc."""
        peaks = [
            extra["alloc_peak"]
            for name, _, _, _, rnd, extra in self.spans
            if rnd == round_index and name == "separation.set_separation"
        ]
        return max(peaks, default=0) / 2**20

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "round", "info"], "spans": self.spans},
                f,
            )


def unit(metric: str) -> str:
    if metric in TIME_METRICS or metric == "trace.overhead_s":
        return "s"
    return {"svg.bytes": "bytes", "separation.alloc_peak_mb": "MB", "entropy.eac_sum": "1"}.get(
        metric, "count"
    )


def median_metrics(rounds: list) -> dict:
    return {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}

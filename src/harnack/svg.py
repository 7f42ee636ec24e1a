"""Deterministic SVG 1.1 rendering of 2-D domains, point sets, witness
polylines and ball chains.  Output is byte-for-byte reproducible: plain
string assembly with fixed 6-decimal coordinate formatting."""

from __future__ import annotations

import numpy as np

from .geometry import Ball, Box, Domain, Polygon2D, UnionOfBalls

__all__ = ["render_svg"]

WIDTH = 600.0
MARGIN = 20.0

DOMAIN_STYLE = 'fill="#eef3fa" stroke="#2a4d7f" stroke-width="1.5"'
POINT_STYLE = 'fill="#c0392b"'
POLYLINE_STYLE = 'fill="none" stroke="#1d8348" stroke-width="1.2"'
CHAIN_STYLE = 'fill="none" stroke="#b9770e" stroke-width="0.8"'


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class _Mapper:
    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        self.scale = (WIDTH - 2 * MARGIN) / span
        self.lo = lo
        self.height = 2 * MARGIN + (hi[1] - lo[1]) * self.scale
        self.width = 2 * MARGIN + (hi[0] - lo[0]) * self.scale

    def xy(self, p) -> tuple[str, str]:
        x = MARGIN + (p[0] - self.lo[0]) * self.scale
        y = self.height - MARGIN - (p[1] - self.lo[1]) * self.scale
        return _fmt(x), _fmt(y)

    def r(self, radius: float) -> str:
        return _fmt(radius * self.scale)


def _domain_elements(domain: Domain, m: _Mapper) -> list[str]:
    if isinstance(domain, Ball):
        cx, cy = m.xy(domain.center)
        return [f'<circle cx="{cx}" cy="{cy}" r="{m.r(domain.radius)}" {DOMAIN_STYLE}/>']
    if isinstance(domain, Box):
        x0, y1 = m.xy(domain.lo)
        x1, y0 = m.xy(domain.hi)
        w = _fmt(float(x1) - float(x0))
        h = _fmt(float(y1) - float(y0))
        return [f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" {DOMAIN_STYLE}/>']
    if isinstance(domain, Polygon2D):
        pts = " ".join("L %s %s" % m.xy(v) for v in domain.vertices[1:])
        x0, y0 = m.xy(domain.vertices[0])
        return [f'<path d="M {x0} {y0} {pts} Z" {DOMAIN_STYLE}/>']
    if isinstance(domain, UnionOfBalls):
        out = []
        for c, r in zip(domain.centers, domain.radii):
            cx, cy = m.xy(c)
            out.append(f'<circle cx="{cx}" cy="{cy}" r="{m.r(float(r))}" {DOMAIN_STYLE}/>')
        return out
    raise ValueError(f"cannot render domain type {type(domain).__name__}")


def render_svg(
    domain: Domain,
    point_sets: list | None = None,
    polylines: list | None = None,
    chains: list | None = None,
) -> str:
    """Render a 2-D scene to a standalone SVG document string.

    chains are (centers, radius) pairs; polylines and point sets are (n, 2)
    coordinate arrays.
    """
    if domain.dim != 2:
        raise ValueError("plotting is 2-D only")
    lo, hi = domain.bounding_box()
    m = _Mapper(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(m.width)}" height="{_fmt(m.height)}" '
        f'viewBox="0 0 {_fmt(m.width)} {_fmt(m.height)}">',
    ]
    parts.extend(_domain_elements(domain, m))
    for centers, radius in chains or []:
        for c in np.asarray(centers, dtype=float):
            cx, cy = m.xy(c)
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{m.r(float(radius))}" {CHAIN_STYLE}/>'
            )
    for poly in polylines or []:
        poly = np.asarray(poly, dtype=float)
        x0, y0 = m.xy(poly[0])
        rest = " ".join("L %s %s" % m.xy(p) for p in poly[1:])
        parts.append(f'<path d="M {x0} {y0} {rest}" {POLYLINE_STYLE}/>')
    for pts in point_sets or []:
        for p in np.asarray(pts, dtype=float):
            cx, cy = m.xy(p)
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3.000000" {POINT_STYLE}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

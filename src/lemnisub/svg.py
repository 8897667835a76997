"""Minimal deterministic SVG emission for region/curve figures.

A hand-rolled writer keeps the output byte-identical for a fixed input:
no timestamps, no generated ids, fixed float formatting.  The viewport
is a fixed 800x800 canvas with axes, tick labels and a legend.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

SIZE = 800
MARGIN = 60

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class Figure:
    def __init__(self, title: str):
        self.title = title
        self.curves = []   # (label, points complex ndarray)

    def add_curve(self, label: str, points: np.ndarray):
        """An open polyline through the finite points."""
        pts = np.asarray(points, dtype=complex)
        pts = pts[np.isfinite(pts.real) & np.isfinite(pts.imag)]
        self.curves.append((label, pts))

    def _bounds(self):
        xs = np.concatenate([c[1].real for c in self.curves])
        ys = np.concatenate([c[1].imag for c in self.curves])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = 0.08 * span
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        half = 0.5 * span + pad
        return cx - half, cx + half, cy - half, cy + half

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        inner = SIZE - 2 * MARGIN

        def px(x: float) -> float:
            return MARGIN + (x - x0) / (x1 - x0) * inner

        def py(y: float) -> float:
            return SIZE - MARGIN - (y - y0) / (y1 - y0) * inner

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
            f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
            f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
            f'<text x="{SIZE // 2}" y="30" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{escape(self.title)}</text>',
        ]
        # axes through the origin when visible, else along the frame
        ax_y = py(0.0) if y0 < 0.0 < y1 else SIZE - MARGIN
        ax_x = px(0.0) if x0 < 0.0 < x1 else MARGIN
        parts.append(f'<line x1="{MARGIN}" y1="{_fmt(ax_y)}" x2="{SIZE - MARGIN}" '
                     f'y2="{_fmt(ax_y)}" stroke="#888" stroke-width="1"/>')
        parts.append(f'<line x1="{_fmt(ax_x)}" y1="{MARGIN}" x2="{_fmt(ax_x)}" '
                     f'y2="{SIZE - MARGIN}" stroke="#888" stroke-width="1"/>')
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x0 + frac * (x1 - x0)
            yv = y0 + frac * (y1 - y0)
            parts.append(f'<text x="{_fmt(px(xv))}" y="{SIZE - MARGIN + 20}" '
                         f'text-anchor="middle" font-family="monospace" '
                         f'font-size="11">{xv:.3g}</text>')
            parts.append(f'<text x="{MARGIN - 8}" y="{_fmt(py(yv) + 4)}" '
                         f'text-anchor="end" font-family="monospace" '
                         f'font-size="11">{yv:.3g}</text>')

        for i, (label, pts) in enumerate(self.curves):
            color = _COLORS[i % len(_COLORS)]
            coords = " ".join(f"{_fmt(px(p.real))},{_fmt(py(p.imag))}" for p in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            ly = MARGIN + 18 * (i + 1)
            parts.append(f'<line x1="{SIZE - MARGIN - 150}" y1="{ly}" '
                         f'x2="{SIZE - MARGIN - 120}" y2="{ly}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{SIZE - MARGIN - 112}" y="{ly + 4}" '
                         f'font-family="monospace" font-size="12">{escape(label)}</text>')

        parts.append("</svg>\n")
        return "\n".join(parts)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())

"""Deterministic SVG pictures of spaces, loops, and disk cellulations.

All geometry stays rational until the final f-string formatting, so a
given scene always renders to byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .grid import DefiningSequence, PolyLoop, corridors as _corridors
from .homotopy import LevelHomotopy

_LEVEL_FILLS = ("#2b2b2b", "#5a5a5a", "#8a8a8a", "#b4b4b4", "#d0d0d0", "#e2e2e2")


def _fmt(x: Fraction) -> str:
    return f"{float(x):.6f}"


def render_space(
    seq: DefiningSequence,
    loop: Optional[PolyLoop] = None,
    corridor_level: Optional[int] = None,
    size: int = 600,
) -> str:
    """The unit square with removed squares, optional corridors and loop."""
    s = size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 1 1">',
        '<rect x="0" y="0" width="1" height="1" fill="#f7f3e9" '
        'stroke="#333333" stroke-width="0.004"/>',
        # flip so the y axis points up
        '<g transform="translate(0,1) scale(1,-1)">',
    ]
    for q in seq.holes_up_to(seq.depth):
        (x0, x1), (y0, y1) = q.x_interval, q.y_interval
        fill = _LEVEL_FILLS[(q.level - 1) % len(_LEVEL_FILLS)]
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{fill}"/>'
        )
    if corridor_level is not None:
        for c in _corridors(seq, corridor_level):
            x0, x1, y0, y1 = c.rect
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(y1 - y0)}" fill="none" '
                f'stroke="{"#c03030" if c.orientation == "H" else "#3030c0"}" '
                'stroke-width="0.0025" stroke-dasharray="0.01,0.006"/>'
            )
    if loop is not None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in loop.vertices)
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#1a7a1a" '
            'stroke-width="0.005"/>'
        )
        for x, y in loop.vertices:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.006" fill="#1a7a1a"/>'
            )
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


_BAND_FILLS = {0: "#f7f3e9", 1: "#cfe3f5", 2: "#f5d3cf"}


def render_disk(h: LevelHomotopy, size: int = 600) -> str:
    """The cut disk: polygon, chords, faces shaded by band count."""
    s = size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="-1.1 -1.1 2.2 2.2">',
        '<g transform="scale(1,-1)">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#999999" '
        'stroke-width="0.008"/>',
    ]
    cell = h.cellulation
    for face, fill in zip(cell.faces, h.fills):
        pts = " ".join(
            f"{_fmt(cell.nodes[j].point[0])},{_fmt(cell.nodes[j].point[1])}"
            for j in face.nodes
        )
        parts.append(
            f'<polygon points="{pts}" fill="{_BAND_FILLS[len(face.bands)]}" '
            'stroke="#444444" stroke-width="0.004"/>'
        )
    for ch in cell.chords:
        a, b = cell.nodes[ch.a].point, cell.nodes[ch.b].point
        parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(b[1])}" stroke="#b03030" stroke-width="0.006"/>'
        )
    for j, node in enumerate(cell.nodes):
        r = "0.015" if node.param is not None else "0.010"
        color = "#20508a" if node.param is not None else "#b03030"
        parts.append(
            f'<circle cx="{_fmt(node.point[0])}" cy="{_fmt(node.point[1])}" '
            f'r="{r}" fill="{color}"/>'
        )
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"

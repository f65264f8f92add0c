"""Static SVG plot emitters: grouped bar charts for feature counts and
latency, and a top-down scene rendering (lane edges, occupancy, boxes,
signal, target and plan path).

The scene SVG keeps raw world coordinates in the geometry elements and lets
a single group transform handle display scaling, so plotted points can be
cross-checked numerically against pipeline outputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .double_edge import PlannedPath
from .geometry import polyline_cumlen
from .scene_synth import Scene

__all__ = ["bar_chart_svg", "scene_svg"]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


def bar_chart_svg(title: str, groups: Sequence[tuple[str, Sequence[tuple[str, float]]]],
                  unit: str = "") -> str:
    """Grouped vertical bar chart; one group per entry, labeled bars inside."""
    series = [name for name, _ in groups[0][1]] if groups else []
    vmax = max((v for _, bars in groups for _, v in bars), default=1.0)
    vmax = vmax if vmax > 0 else 1.0
    bar_w, gap, group_gap = 22, 4, 28
    plot_h = 220
    group_w = len(series) * (bar_w + gap) + group_gap
    width = max(360, 70 + group_w * len(groups))
    height = plot_h + 90
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{_esc(title)}</text>',
        f'<line x1="50" y1="{plot_h + 40}" x2="{width - 10}" y2="{plot_h + 40}" '
        f'stroke="#333"/>',
    ]
    for gi, (label, bars) in enumerate(groups):
        x0 = 60 + gi * group_w
        for bi, (name, value) in enumerate(bars):
            h = value / vmax * plot_h
            x = x0 + bi * (bar_w + gap)
            y = plot_h + 40 - h
            color = _PALETTE[bi % len(_PALETTE)]
            parts.append(
                f'<rect class="bar" data-group="{_esc(label)}" data-series="{_esc(name)}" '
                f'x="{x:.2f}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w / 2:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
                f'font-size="9" font-family="sans-serif">{value:g}</text>'
            )
        parts.append(
            f'<text x="{x0 + (len(bars) * (bar_w + gap)) / 2:.2f}" y="{plot_h + 56}" '
            f'text-anchor="middle" font-size="10" font-family="sans-serif">{_esc(label)}</text>'
        )
    for bi, name in enumerate(series):
        color = _PALETTE[bi % len(_PALETTE)]
        x = 60 + bi * 130
        y = plot_h + 76
        parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 14}" y="{y}" font-size="10" font-family="sans-serif">'
            f'{_esc(name)}{_esc(" " + unit if unit else "")}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _points_attr(xy: np.ndarray) -> str:
    return " ".join(f"{float(p[0])!r},{float(p[1])!r}" for p in xy)


def _box_polygon(box, fill: str) -> str:
    pts = _points_attr(box.footprint_corners())
    return f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.6" stroke="#333" stroke-width="0.1"/>'


def scene_svg(scene: Scene, path: PlannedPath | None = None) -> str:
    """Top-down rendering in world coordinates (x right, y up)."""
    gt = scene.ground_truth
    pts = gt.points.reshape(-1, 3)
    pad = 8.0
    x0, x1 = float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)
    y0, y1 = float(pts[:, 1].min() - pad), float(pts[:, 1].max() + pad)
    scale = 6.0
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="#fafafa"/>',
        # y up in world coords: flip and shift into the viewport
        f'<g transform="scale({scale},-{scale}) translate({-x0},{-y1})" '
        'stroke-linecap="round">',
    ]
    n_p = gt.n_p
    half = n_p // 2
    for i in range(gt.n_d):
        for sl in (slice(0, half), slice(half, n_p)):
            body.append(
                f'<polyline class="edge" points="{_points_attr(gt.points[i, sl, :2])}" '
                'fill="none" stroke="#888" stroke-width="0.15"/>'
            )
        for p in gt.points[i][gt.occ[i] == 1]:
            body.append(
                f'<circle class="occ" cx="{float(p[0])!r}" cy="{float(p[1])!r}" r="0.5" '
                'fill="#ee8833"/>'
            )
    for box in scene.clutter:
        body.append(_box_polygon(box, "#bbbbbb"))
    for box in scene.agents:
        body.append(_box_polygon(box, "#cc3333"))
    if scene.signal_line_s is not None:
        # the stop line, at its arc length along the route
        route = scene.route_polyline
        cum = polyline_cumlen(route)
        sx, sy = (float(np.interp(scene.signal_line_s, cum, route[:, k])) for k in (0, 1))
        body.append(
            f'<circle class="signal" cx="{sx!r}" cy="{sy!r}" r="1.2" fill="none" '
            f'stroke="{"#22aa22" if scene.signal_state == "green" else "#cc2222"}" '
            'stroke-width="0.3"/>'
        )
    tgt = scene.route_target
    body.append(
        f'<circle class="target" cx="{float(tgt[0])!r}" cy="{float(tgt[1])!r}" r="1.0" '
        'fill="none" stroke="#2255cc" stroke-width="0.3"/>'
    )
    if path is not None and len(path.waypoints):
        wp = np.array([[w[0], w[1]] for w in path.waypoints])
        body.append(
            f'<polyline id="plan-path" points="{_points_attr(wp)}" fill="none" '
            'stroke="#ddaa00" stroke-width="0.4"/>'
        )
    body.append("</g>")
    body.append("</svg>")
    return "\n".join(body)

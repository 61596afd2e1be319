"""Minimal SVG line-chart writer for batch artifacts (no plotting deps)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# every chart's size in pixels
WIDTH, HEIGHT = 800, 300


def write_line_chart(path: str | Path, series: dict[str, np.ndarray], title: str = "") -> None:
    """Render named 1-D series as polylines with a shared y-scale."""
    margin = 45
    plot_w, plot_h = WIDTH - 2 * margin, HEIGHT - 2 * margin
    arrays = {k: np.asarray(v, dtype=float) for k, v in series.items() if len(v) > 0}
    if not arrays:
        raise ValueError("nothing to plot")
    y_min = min(float(a.min()) for a in arrays.values())
    y_max = max(float(a.max()) for a in arrays.values())
    if y_max == y_min:
        y_max = y_min + 1.0
    x_max = max(len(a) for a in arrays.values()) - 1 or 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#999"/>',
        f'<text x="6" y="{margin + 4}" font-family="sans-serif" font-size="10">{y_max:.4g}</text>',
        f'<text x="6" y="{margin + plot_h}" font-family="sans-serif" font-size="10">{y_min:.4g}</text>',
    ]
    for i, (name, values) in enumerate(arrays.items()):
        color = PALETTE[i % len(PALETTE)]
        points = []
        for j, v in enumerate(values):
            x = margin + plot_w * (j / x_max if x_max else 0.0)
            y = margin + plot_h * (1.0 - (v - y_min) / (y_max - y_min))
            points.append(f"{x:.2f},{y:.2f}")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{" ".join(points)}"/>'
        )
        parts.append(
            f'<text x="{WIDTH - margin + 4}" y="{margin + 14 * i + 10}" '
            f'font-family="sans-serif" font-size="10" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")

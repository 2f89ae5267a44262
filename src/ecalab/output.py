"""Deterministic CSV and SVG emission shared by the CLI subcommands.

Floating-point values are serialized with 17 significant digits so a
write/parse round trip is bit exact; output bytes depend only on the input
values (LF line endings, no timestamps), which keeps experiment artifacts
diffable.
"""

from __future__ import annotations

import math

import numpy as np


def format_value(value) -> str:
    """Round-trip-exact scalar formatting for CSV cells."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(value)


CSV_BLOCK_ROWS = 4096


def emit_csv(header: list, rows, path):
    """Write a rectangular table; header first, LF endings, deterministic.

    A 2-D float array ``rows`` is written in blocks of ``CSV_BLOCK_ROWS`` rows,
    one ``"%.17g"`` template each, in the bytes of :func:`format_value`."""
    header = [str(h) for h in header]
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != len(header):
            raise ValueError(f"table shape {rows.shape} does not match header width {len(header)}")
        row = ",".join(["%.17g"] * len(header))
        for lo in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[lo : lo + CSV_BLOCK_ROWS].astype(float)
            lines.append("\n".join([row] * block.shape[0]) % tuple(block.ravel().tolist()))
    else:
        for row in rows:
            cells = [format_value(v) for v in row]
            if len(cells) != len(header):
                raise ValueError(
                    f"row width {len(cells)} does not match header width {len(header)}"
                )
            lines.append(",".join(cells))
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(data)


def parse_csv(path):
    """Read back an emitted table: (header, rows of floats-where-possible)."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        return [lo]
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def emit_svg_curves(
    series: list,
    path,
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
    title: str = "",
    width: int = 720,
    height: int = 480,
):
    """Standalone SVG line chart.

    ``series`` is a list of dicts with keys ``label``, ``x``, ``y`` and
    optionally ``style`` ("line" or "points") and ``color``.  With
    ``log_y`` the vertical axis is base-10 logarithmic (positive values
    required).
    """
    if not series:
        raise ValueError("need at least one series")
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    margin = 64
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def transform_y(vals):
        vals = np.asarray(vals, dtype=float)
        if log_y:
            if np.any(vals <= 0):
                raise ValueError("log_y requires positive values")
            return np.log10(vals)
        return vals

    all_x = np.concatenate([np.asarray(s["x"], dtype=float) for s in series])
    all_y = np.concatenate([transform_y(s["y"]) for s in series])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{px(tx):.2f}" y="{height - margin + 18:.2f}" text-anchor="middle" '
            f'font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        label = f"1e{ty:.3g}" if log_y else f"{ty:.4g}"
        parts.append(
            f'<text x="{margin - 6:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 16:.1f}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>'
    )
    for i, s in enumerate(series):
        color = s.get("color", palette[i % len(palette)])
        xs = np.asarray(s["x"], dtype=float)
        ys = transform_y(s["y"])
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if s.get("style", "line") == "points":
            for x, y in zip(xs, ys):
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" fill="{color}"/>'
                )
        else:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = margin + 16 + 16 * i
        parts.append(
            f'<rect x="{width - margin - 150:.1f}" y="{ly - 9}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 132:.1f}" y="{ly + 1}" font-size="11">'
            f'{s["label"]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_svg_heatmap(
    tau_grid, omega_grid, values, path, width: int = 720, height: int = 540
):
    """Grayscale heatmap of a sampled surface (NaN cells rendered empty)."""
    values = np.asarray(values, dtype=float)
    margin = 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    finite = values[np.isfinite(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if hi == lo:
        hi = lo + 1.0
    n_tau, n_omega = values.shape
    cw = plot_w / n_tau
    ch = plot_h / n_omega
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    # finite cells in row-major order, one (x, y, level x3) row each, written
    # in blocks of CSV_BLOCK_ROWS through one template
    i, j = np.nonzero(np.isfinite(values))
    level = np.rint(255 * (1.0 - (values[i, j] - lo) / (hi - lo)))
    cells = np.column_stack([margin + i * cw, height - margin - (j + 1) * ch, level, level, level])
    rect = (
        f'<rect x="%.2f" y="%.2f" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
        'fill="rgb(%d,%d,%d)"/>'
    )
    for start in range(0, cells.shape[0], CSV_BLOCK_ROWS):
        block = cells[start : start + CSV_BLOCK_ROWS]
        parts.append("\n".join([rect] * block.shape[0]) % tuple(block.ravel().tolist()))
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" '
        f'font-size="12">delay (s): {tau_grid[0]:.4g} .. {tau_grid[-1]:.4g}</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">doppler (rad/s): '
        f"{omega_grid[0]:.4g} .. {omega_grid[-1]:.4g}</text>"
    )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")

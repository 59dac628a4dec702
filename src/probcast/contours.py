"""Marching-squares isolines on probability fields, periodic in longitude.

Strict-crossing rule: a cell edge carries a vertex only when one endpoint is
strictly above the level and the other is not, so plateaus sitting exactly
at the level emit nothing. Saddle cells are disambiguated by the cell-center
average. Vertices land on grid edges by linear interpolation, so
re-interpolating the field at any emitted vertex recovers the level exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .verification import ThresholdMap


@dataclass
class ContourLine:
    level: float
    vertices: np.ndarray  # (n, 2) rows of (lat_deg, lon_deg)
    closed: bool


def _edge_vertex(edge, t, grid: GridSpec):
    kind, j, k = edge
    lats = grid.latitudes_deg
    lons = grid.longitudes_deg
    if kind == "v":  # between (j,k) and (j+1,k)
        return (lats[j] + t * (lats[j + 1] - lats[j]), lons[k])
    # horizontal: between (j,k) and (j,(k+1)%W), possibly wrapping
    if k + 1 < lons.size:
        return (lats[j], lons[k] + t * (lons[k + 1] - lons[k]))
    wrap_step = 360.0 - (lons[-1] - lons[0])
    return (lats[j], (lons[-1] + t * wrap_step) % 360.0)


def probability_contours(tm: ThresholdMap, grid: GridSpec,
                         levels=(0.10, 0.50, 0.90)) -> dict:
    """Extract isolines per level; returns {level: [ContourLine, ...]}."""
    field = np.asarray(tm.probabilities, dtype=np.float64)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    out = {}
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"contour level {level} outside (0, 1)")
        out[level] = _extract_level(field, float(level), grid)
    return out


def _extract_level(field: np.ndarray, level: float, grid: GridSpec) -> list:
    H, W = field.shape
    above = field > level

    verts = {}  # edge id -> (lat, lon)

    def vertex(edge):
        if edge in verts:
            return verts[edge]
        kind, j, k = edge
        if kind == "v":
            v1, v2 = field[j, k], field[j + 1, k]
        else:
            v1, v2 = field[j, k], field[j, (k + 1) % W]
        t = (level - v1) / (v2 - v1)
        verts[edge] = _edge_vertex(edge, t, grid)
        return verts[edge]

    segments = []
    for j in range(H - 1):
        for k in range(W):
            k1 = (k + 1) % W
            a00 = bool(above[j, k])
            a01 = bool(above[j, k1])
            a10 = bool(above[j + 1, k])
            a11 = bool(above[j + 1, k1])
            n_above = a00 + a01 + a10 + a11
            if n_above in (0, 4):
                continue
            top = ("h", j, k)
            bottom = ("h", j + 1, k)
            left = ("v", j, k)
            right = ("v", j, k1)
            if n_above in (1, 3):
                # single separated corner (or its complement)
                corner = (a00, a01, a11, a10) if n_above == 1 else \
                         (not a00, not a01, not a11, not a10)
                if corner[0]:
                    segments.append((top, left))
                elif corner[1]:
                    segments.append((top, right))
                elif corner[2]:
                    segments.append((right, bottom))
                else:
                    segments.append((bottom, left))
            elif (a00 == a01) and (a10 == a11):
                segments.append((left, right))   # horizontal band boundary
            elif (a00 == a10) and (a01 == a11):
                segments.append((top, bottom))   # vertical band boundary
            else:
                # saddle: both diagonals mixed; split by the center value
                center = 0.25 * (field[j, k] + field[j, k1]
                                 + field[j + 1, k] + field[j + 1, k1])
                if (center > level) == a00:
                    segments.append((top, right))
                    segments.append((bottom, left))
                else:
                    segments.append((top, left))
                    segments.append((right, bottom))

    return _chain_segments(segments, vertex, level)


def _chain_segments(segments, vertex, level) -> list:
    adjacency = {}
    for idx, (e1, e2) in enumerate(segments):
        adjacency.setdefault(e1, []).append(idx)
        adjacency.setdefault(e2, []).append(idx)

    used = [False] * len(segments)

    def walk(start_edge):
        path = [start_edge]
        current = start_edge
        while True:
            seg_idx = next((i for i in adjacency[current] if not used[i]), None)
            if seg_idx is None:
                break
            used[seg_idx] = True
            e1, e2 = segments[seg_idx]
            current = e2 if e1 == current else e1
            path.append(current)
            if current == start_edge:
                break
        return path

    lines = []
    # open paths first (their endpoints touch exactly one segment)
    for edge, segs in adjacency.items():
        if len(segs) == 1 and not used[segs[0]]:
            path = walk(edge)
            lines.append(_to_line(path, vertex, level, closed=False))
    for idx in range(len(segments)):
        if not used[idx]:
            path = walk(segments[idx][0])
            closed = len(path) > 1 and path[0] == path[-1]
            lines.append(_to_line(path, vertex, level, closed=closed))
    return lines


def _to_line(path, vertex, level, closed: bool) -> ContourLine:
    if closed and len(path) > 1 and path[0] == path[-1]:
        path = path[:-1]
    pts = np.array([vertex(e) for e in path], dtype=np.float64)
    return ContourLine(level, pts, closed)


def contours_to_csv(contours: dict) -> str:
    """Rows of (level, polyline id, vertex index, lat, lon)."""
    lines = ["level,polyline,vertex,lat,lon"]
    for level in sorted(contours):
        for pid, line in enumerate(contours[level]):
            for vid, (lat, lon) in enumerate(line.vertices):
                lines.append(f"{level:g},{pid},{vid},{lat:.12g},{lon:.12g}")
    return "\n".join(lines) + "\n"


def contours_to_svg(contours: dict, grid: GridSpec) -> str:
    """Minimal equirectangular SVG overlay of the contour polylines."""
    width, height = 720, 360  # two pixels per degree
    palette = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']

    def to_xy(lat, lon):
        x = (lon % 360.0) / 360.0 * width
        y = (90.0 - lat) / 180.0 * height
        return x, y

    for ci, level in enumerate(sorted(contours)):
        color = palette[ci % len(palette)]
        for line in contours[level]:
            pts = [to_xy(lat, lon) for lat, lon in line.vertices]
            # break strokes that jump across the longitude seam
            runs, run = [], [pts[0]]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if abs(x1 - x0) > width / 2:
                    runs.append(run)
                    run = [(x1, y1)]
                else:
                    run.append((x1, y1))
            runs.append(run)
            for run in runs:
                if len(run) < 2:
                    continue
                d = " ".join(f"{x:.2f},{y:.2f}" for x, y in run)
                parts.append(f'<polyline points="{d}" fill="none" '
                             f'stroke="{color}" stroke-width="1"/>')
        parts.append(f'<text x="8" y="{16 * (ci + 1)}" fill="{color}" '
                     f'font-size="12">level {level:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

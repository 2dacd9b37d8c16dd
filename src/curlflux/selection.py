"""Maximal functions over collar parameters and good-manifold scans.

The maximal value at a collar parameter is the supremum over a geometric
half-width grid of layer mass divided by half-width; the grid supremum is a
lower bound of the true maximal function, which keeps the weak-(1,1) check
one-sided valid. Concentration on a single layer is flagged as infinite.

A transversal scan reads its measure through one slide (`SlideMeasure`)
and evaluates all its windows, one per (t, half-width) and the collar's, in
one `measure_slab_mass` call. The Lebesgue part is integrated over the
windows' slabs by one `geometry.slab_integral` call: eight Gauss layers per
window, which the one layered core, `geometry._band_lines`, evaluates in
blocks of whole layers. Each line part is solved for every window at once,
its windows' rules evaluated together in blocks. Each sheet part's slide
depths and |density| at its nodes are computed once per scan; each window
masks and sums them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import CurlMeasure, LinePart
from .geometry import (
    POSITION_TOL,
    GeometryError,
    PatchSlide,
    SurfacePatch,
    TransversalCollar,
    _node_values,
    _norm,
    slab_integral,
)
from .quadrature import gauss_legendre

DEFAULT_EPS_GRID = tuple(2.0 ** (-k) for k in range(2, 13))

# band (lo, hi) about the parameter t at half-width eps, per maximal variant
_WINDOWS = {"two_sided": lambda t, eps: (t - eps, t + eps),
            "plus": lambda t, eps: (t, t + eps),
            "minus": lambda t, eps: (t - eps, t)}


def _window(variant: str):
    if variant not in _WINDOWS:
        raise ValueError(f"unknown maximal variant {variant!r}; "
                         f"expected one of {', '.join(_WINDOWS)}")
    return _WINDOWS[variant]


def _window_sup(window, t: float, mass) -> float:
    """Max over the eps grid of mass(lo, hi) / eps on the windows (lo, hi) =
    window(t, eps), starting from 0."""
    best = 0.0
    for eps in DEFAULT_EPS_GRID:
        best = max(best, mass(*window(t, eps)) / eps)
    return best


@dataclass(frozen=True)
class MaximalScan:
    t_grid: tuple[float, ...]
    values: tuple[float, ...]  # may contain inf
    collar_mass: float  # |mu| of the full collar image, for the weak-(1,1) bound


@dataclass(frozen=True)
class SlideMeasure:
    """A curl measure seen through one slide, as a scan reads it.

    `sheets` holds, per sheet part, its node weights, the slide depth of its
    nodes and |density| there: none depends on the window, so they are
    computed once, on first read. Every slide has a depth coordinate, so
    every face places sheet and line parts.
    """

    mu: CurlMeasure
    slide: PatchSlide

    @cached_property
    def sheets(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        return tuple((sp.patch.weights, self.slide.slab_coordinate(sp.patch.nodes),
                      _norm(np.atleast_2d(sp.density(sp.patch.nodes))))
                     for sp in self.mu.sheet_parts)


def _line_slab_mass(lp: LinePart, slide: PatchSlide, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Mass of a straight line measure inside each slab lo < depth < hi.

    The depth must be affine along the segment, as it is for planar slides;
    every slab is then solved for exactly. A depth whose value at the
    segment's midpoint is not the mean of its end values is refused. The
    windows' 64-node rules are evaluated together, as one node set of
    segment parameters in the blocks `integrate` takes.
    """
    def depth(s):
        return slide.slab_coordinate(lp.positions(np.array([s])))[0]

    a, b = depth(lp.lo), depth(lp.hi)
    if abs(depth(0.5 * (lp.lo + lp.hi)) - 0.5 * (a + b)) > POSITION_TOL:
        raise GeometryError("line-part slab mass needs a depth affine along the "
                            "segment; this slide is curved")
    dens_mag = np.linalg.norm(np.atleast_2d(lp.density(lp.positions(np.array([0.0]))))[0])
    if abs(b - a) < 1e-14:
        # segment parallel to the layers: zero unless it sits inside the slab,
        # in which case the mass concentrates and is handled by the caller
        return np.where((lo < a) & (a < hi), float(dens_mag * (lp.hi - lp.lo)), 0.0)
    # affine depth: invert exactly
    s_lo = lp.lo + (lo - a) * (lp.hi - lp.lo) / (b - a)
    s_hi = lp.lo + (hi - a) * (lp.hi - lp.lo) / (b - a)
    s0 = np.maximum(np.minimum(s_lo, s_hi), lp.lo)
    s1 = np.minimum(np.maximum(s_lo, s_hi), lp.hi)
    out = np.zeros(len(lo))
    hit = np.flatnonzero(s1 > s0)
    # each window's gauss_legendre(64, s0, s1), formed as that rule forms it
    ref = gauss_legendre(64, -1.0, 1.0)
    mid, half = 0.5 * (s0[hit] + s1[hit]), 0.5 * (s1[hit] - s0[hit])
    nodes = mid[:, None] + half[:, None] * ref.nodes
    weights = half[:, None] * ref.weights
    mags = _node_values(nodes.ravel(),
                        lambda s: _norm(np.atleast_2d(lp.density(lp.positions(s)))))
    out[hit] = np.sum(weights * mags.reshape(weights.shape), axis=1)
    return out


def _sheet_mass(sheet, inside) -> float:
    """Mass of a sheet part (an entry of `SlideMeasure.sheets`) on the nodes
    whose slide depth satisfies `inside`."""
    weights, depth, dens = sheet
    return float(np.sum(weights * inside(depth) * dens))


def _sheet_layer_mass(sheet, t: float) -> float:
    """Mass carried by the single layer at depth t (concentration detector)."""
    return _sheet_mass(sheet, lambda depth: np.abs(depth - t) <= POSITION_TOL)


def _lebesgue_slab_mass(density, slide: PatchSlide, lo, hi) -> np.ndarray:
    """|density| integrated over each slab (lo, hi), floats or arrays of
    window ends, clipped to the slide's depths [0, depth_range]: one
    `slab_integral` call over every slab left open."""
    lo = np.maximum(np.atleast_1d(lo), 0.0)
    hi = np.minimum(np.atleast_1d(hi), slide.depth_range)
    out = np.zeros(len(lo))
    open_ = hi > lo
    if open_.any():
        out[open_] = slab_integral(slide, lo[open_], hi[open_],
                                   lambda pts, s: _norm(np.atleast_2d(density(pts))))[0]
    return out


def measure_slab_mass(m: SlideMeasure, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|mu| of each slab lo < depth < hi along the slide, for arrays of window
    ends; per window the Lebesgue, sheet and line parts are added in turn."""
    total = np.zeros(len(lo))
    if m.mu.lebesgue_density is not None:
        total += _lebesgue_slab_mass(m.mu.lebesgue_density, m.slide, lo, hi)
    for sheet in m.sheets:
        total += [_sheet_mass(sheet, lambda depth: (depth > a) & (depth < b))
                  for a, b in zip(lo, hi)]
    for lp in m.mu.line_parts:
        total += _line_slab_mass(lp, m.slide, lo, hi)
    return total


def single_layer_mass(m: SlideMeasure, t: float) -> float:
    return sum(_sheet_layer_mass(sheet, t) for sheet in m.sheets)


def maximal_transversal(mu: CurlMeasure, patch: SurfacePatch,
                        collar: TransversalCollar, t_grid: Sequence[float],
                        variant: str = "two_sided") -> MaximalScan:
    """Layer-mass maximal function along the transversal slides of a surface.

    The scan reads the measure over the whole region face the surface lies
    on, so a surface whose area or centre is not the face's is refused.
    """
    window = _window(variant)
    slide = collar.slide_for(patch)
    face = slide.patch
    area, face_area = np.sum(patch.weights), np.sum(face.weights)
    if (abs(area - face_area) > 1e-9 * face_area
            or np.linalg.norm(patch.origin - face.origin) > POSITION_TOL):
        raise GeometryError(
            f"maximal scans the whole region face it lies on (area {face_area:.6g}, centre "
            f"{np.round(face.origin, 6).tolist()}), not a surface of area {area:.6g} "
            f"centred at {np.round(patch.origin, 6).tolist()}")
    m = SlideMeasure(mu, slide)
    concentrated = [single_layer_mass(m, t) > 0.0 for t in t_grid]
    # every window the sups read, then the collar's, in one batch
    windows = [window(t, eps) for t, c in zip(t_grid, concentrated) if not c
               for eps in DEFAULT_EPS_GRID]
    windows.append((-0.75, min(0.75, slide.depth_range)))
    mass = dict(zip(windows, measure_slab_mass(m, *np.transpose(windows)).tolist()))
    vals = [np.inf if c else _window_sup(window, t, lambda lo, hi: mass[lo, hi])
            for t, c in zip(t_grid, concentrated)]
    collar_mass = mass[windows[-1]]
    for sheet in m.sheets:
        # concentrated layers inside the collar contribute their full mass
        layer_t = float(np.median(sheet[1]))  # the sheet's median depth
        if -0.75 < layer_t < 0.75:
            collar_mass += _sheet_layer_mass(sheet, layer_t)
    return MaximalScan(tuple(t_grid), tuple(vals), collar_mass)


@dataclass(frozen=True)
class GoodSetReport:
    good_t: tuple[float, ...]  # the scan's t whose value is finite and at most lambda
    complement_measure: float
    weak_bound: float  # 10 |mu|(collar) / lambda

    @property
    def holds(self) -> bool:
        return self.complement_measure <= self.weak_bound + 1e-12


def good_set_scan(scan: MaximalScan, lam: float) -> GoodSetReport:
    """Threshold scan with the empirical weak-(1,1) bound at constant 10."""
    t = np.asarray(scan.t_grid)
    v = np.asarray(scan.values)
    if len(t) > 1:
        cell = float(np.median(np.diff(np.sort(t))))
    else:
        cell = 1.0
    bad = ~((v <= lam) & np.isfinite(v))
    good = tuple(float(x) for x in t[~bad])
    return GoodSetReport(good, float(np.sum(bad) * cell),
                         10.0 * scan.collar_mass / lam)

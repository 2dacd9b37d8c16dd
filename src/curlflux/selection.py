"""Maximal functions over collar parameters and good-manifold scans.

The maximal value at a collar parameter is the supremum over a geometric
half-width grid of layer mass divided by half-width; the grid supremum is a
lower bound of the true maximal function, which keeps the weak-(1,1) check
one-sided valid. Concentration on a single layer is flagged as infinite.

A transversal scan reads its measure through one slide (`SlideMeasure`).
Each sheet part's slide depths and |density| at its nodes are computed once
per scan; each window then only masks and sums them. A Lebesgue density is
evaluated on a window's eight Gauss layers in one call. Line parts are
solved per window on their own rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import CurlMeasure, LinePart
from .geometry import (
    POSITION_TOL,
    BoundaryManifold,
    GeometryError,
    PatchSlide,
    TangentialCollar,
    TransversalCollar,
    band_mass,
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


@dataclass(frozen=True)
class MaximalScan:
    t_grid: tuple[float, ...]
    values: tuple[float, ...]  # may contain inf
    variant: str  # "transversal"/"tangential" x "two_sided"/"plus"/"minus"
    epsilon_grid: tuple[float, ...]
    collar_mass: float  # |mu| of the full collar image, for the weak-(1,1) bound


@dataclass(frozen=True)
class SlideMeasure:
    """A curl measure seen through one slide, as a scan reads it.

    `sheets` holds, per sheet part, its node weights, the slide depth of its
    nodes and |density| there: none depends on the window, so they are
    computed once, on first read. A slide that cannot place points in depth
    refuses a measure with sheet parts.
    """

    mu: CurlMeasure
    slide: PatchSlide

    @cached_property
    def sheets(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        if self.mu.sheet_parts and self.slide.slab_coordinate is None:
            raise GeometryError("sheet-part slab mass needs the slide's depth coordinate")
        return tuple((sp.patch.weights, self.slide.slab_coordinate(sp.patch.nodes),
                      np.linalg.norm(np.atleast_2d(sp.density(sp.patch.nodes)), axis=1))
                     for sp in self.mu.sheet_parts)


def _line_slab_mass(lp: LinePart, slide: PatchSlide, lo: float, hi: float) -> float:
    """Mass of a straight line measure inside the slab lo < depth < hi.

    The depth must be affine along the segment, as it is for planar slides;
    the slab is then solved for exactly. A slide without a depth coordinate,
    or a depth whose value at the segment's midpoint is not the mean of its
    end values, is refused.
    """
    if slide.slab_coordinate is None:
        raise GeometryError("line-part slab mass needs the slide's depth coordinate")

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
        return float(dens_mag * (lp.hi - lp.lo)) if lo < a < hi else 0.0
    # affine depth: invert exactly
    s_of = lambda depth: lp.lo + (depth - a) * (lp.hi - lp.lo) / (b - a)
    s0, s1 = sorted((s_of(lo), s_of(hi)))
    s0, s1 = max(s0, lp.lo), min(s1, lp.hi)
    if s1 <= s0:
        return 0.0
    rule = gauss_legendre(64, s0, s1)
    dens = np.atleast_2d(lp.density(lp.positions(rule.nodes)))
    return float(np.sum(rule.weights * np.linalg.norm(dens, axis=1)))


def _sheet_mass(sheet, inside) -> float:
    """Mass of a sheet part (an entry of `SlideMeasure.sheets`) on the nodes
    whose slide depth satisfies `inside`."""
    weights, depth, dens = sheet
    return float(np.sum(weights * inside(depth) * dens))


def _sheet_layer_mass(sheet, t: float) -> float:
    """Mass carried by the single layer at depth t (concentration detector)."""
    return _sheet_mass(sheet, lambda depth: np.abs(depth - t) < 1e-10)


def _lebesgue_slab_mass(density, slide: PatchSlide, lo: float, hi: float) -> float:
    lo = max(lo, 0.0)
    hi = min(hi, slide.depth_range)
    if hi <= lo:
        return 0.0
    s_rule = gauss_legendre(8, lo, hi)
    # the window's eight layers in one shift and one density call
    pts = slide.shift_point(slide.patch.nodes, s_rule.nodes[:, None, None])
    sq = np.atleast_2d(density(pts.reshape(-1, 3))) ** 2
    # |d| summed in np.linalg.norm's order; einsum's differs in the last bit
    mags = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2]).reshape(len(s_rule.nodes), -1)
    layers = np.sum(slide.patch.weights * mags, axis=1)
    total = 0.0
    for s, w, layer in zip(s_rule.nodes, s_rule.weights, layers):
        total += w * slide.area_scale(s) * float(layer)
    return total


def measure_slab_mass(m: SlideMeasure, lo: float, hi: float) -> float:
    total = 0.0
    if m.mu.lebesgue_density is not None:
        total += _lebesgue_slab_mass(m.mu.lebesgue_density, m.slide, lo, hi)
    for sheet in m.sheets:
        total += _sheet_mass(sheet, lambda depth: (depth > lo) & (depth < hi))
    for lp in m.mu.line_parts:
        total += _line_slab_mass(lp, m.slide, lo, hi)
    return total


def single_layer_mass(m: SlideMeasure, t: float) -> float:
    return sum(_sheet_layer_mass(sheet, t) for sheet in m.sheets)


def maximal_transversal(mu: CurlMeasure, manifold: BoundaryManifold,
                        collar: TransversalCollar, t_grid: Sequence[float],
                        variant: str = "two_sided") -> MaximalScan:
    """Layer-mass maximal function along the transversal slides of a manifold."""
    window = _window(variant)
    slide = collar.slide_for(manifold.patch)
    m = SlideMeasure(mu, slide)
    vals = []
    for t in t_grid:
        if single_layer_mass(m, t) > 0.0:
            vals.append(np.inf)
            continue
        best = 0.0
        for eps in DEFAULT_EPS_GRID:
            lo, hi = window(t, eps)
            best = max(best, measure_slab_mass(m, lo, hi) / eps)
        vals.append(best)
    collar_mass = measure_slab_mass(m, -0.75, min(0.75, slide.depth_range))
    for sheet in m.sheets:
        # concentrated layers inside the collar contribute their full mass
        layer_t = float(np.median(sheet[1]))  # the sheet's median depth
        if -0.75 < layer_t < 0.75:
            collar_mass += _sheet_layer_mass(sheet, layer_t)
    return MaximalScan(tuple(t_grid), tuple(vals), f"transversal_{variant}",
                       DEFAULT_EPS_GRID, collar_mass)


def maximal_tangential(surface_density, manifold: BoundaryManifold,
                       collar: TangentialCollar, t_grid: Sequence[float],
                       variant: str = "two_sided",
                       breaks: Sequence[float] = ()) -> MaximalScan:
    """Layer-mass maximal function of an integrable surface density over the
    tangential collar bands of the boundary curve."""
    window = _window(variant)

    def mag(pts):
        return np.linalg.norm(np.atleast_2d(surface_density(pts)), axis=1)

    vals = []
    for t in t_grid:
        best = 0.0
        for eps in DEFAULT_EPS_GRID:
            lo, hi = window(t, eps)
            m = band_mass(collar, lo, hi, mag, breaks=breaks)
            best = max(best, m / eps)
        vals.append(best)
    collar_mass = band_mass(collar, 0.0, min(0.75, collar.s_max), mag, breaks=breaks)
    return MaximalScan(tuple(t_grid), tuple(vals), f"tangential_{variant}",
                       DEFAULT_EPS_GRID, collar_mass)


@dataclass(frozen=True)
class GoodSetReport:
    lam: float
    good_t: tuple[float, ...]
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
    return GoodSetReport(lam, good, float(np.sum(bad) * cell),
                         10.0 * scan.collar_mass / lam)

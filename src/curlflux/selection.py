"""Maximal functions over collar parameters and good-manifold scans.

The maximal value at a collar parameter t is the supremum over a geometric
half-width grid of the mass of the two-sided window (t - eps, t + eps)
divided by eps; the grid supremum is a lower bound of the true maximal
function, which keeps the weak-(1,1) check one-sided valid. Concentration on
a single layer is flagged as infinite.

A transversal scan reads its measure through one slide (`SlideMeasure`)
and evaluates all its windows, one per (t, half-width) and the collar's, in
one `measure_slab_mass` call. The Lebesgue part comes from one depth profile
per scan: the face mass q(s) of the patch slid to depth s, sampled at 16
Gauss-Legendre depths per panel of [0, D], D the deepest window end, through
the one layered core, `geometry._band_lines`, in blocks of whole layers, and
held as each panel's Legendre interpolant; a panel whose tail is above
rounding level is bisected. Each window integrates area_scale times that
interpolant over the panels it overlaps. The layer at t is concentrated, and
its value infinite, when a sheet node or a line part parallel to the layers
lies within `geometry.POSITION_TOL` of it. Each line part is solved for
every window at once, its windows' rules evaluated together in blocks. Each
sheet part's slide depths and |density| at its nodes are computed once per
scan; each window masks and sums them. Non-finite densities are refused
(`GeometryError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .fields import CurlMeasure, LinePart
from .geometry import (
    POSITION_TOL,
    GeometryError,
    PatchSlide,
    SurfacePatch,
    TransversalCollar,
    _band_lines,
    _finite,
    _node_values,
    _norm,
    _slid_layers,
)
from .quadrature import gauss_legendre

DEFAULT_EPS_GRID = tuple(2.0 ** (-k) for k in range(2, 13))

# the Lebesgue depth profile: Gauss-Legendre depths per panel, the bound on a
# panel's last two Legendre coefficients relative to the profile's largest
# value, and the narrowest panel a bisection may leave
PROFILE_ORDER = 16
PROFILE_TAIL = 1e-14
PROFILE_FLOOR = POSITION_TOL


def _window_sup(t: float, mass: dict) -> float:
    """Max over the eps grid of mass[t - eps, t + eps] / eps, starting from 0."""
    best = 0.0
    for eps in DEFAULT_EPS_GRID:
        best = max(best, mass[t - eps, t + eps] / eps)
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
    nodes and |density| there, and `line_depths`, per line part, the depths
    of its ends: none depends on the window, so they are computed once, on
    first read. Every slide has a depth coordinate, so every face places
    sheet and line parts.
    """

    mu: CurlMeasure
    slide: PatchSlide

    @cached_property
    def sheets(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        return tuple((sp.patch.weights, self.slide.slab_coordinate(sp.patch.nodes),
                      _finite(_norm(np.atleast_2d(sp.density(sp.patch.nodes)))))
                     for sp in self.mu.sheet_parts)

    @cached_property
    def line_depths(self) -> tuple[tuple[float, float], ...]:
        return tuple(_line_depths(lp, self.slide) for lp in self.mu.line_parts)


def _line_depths(lp: LinePart, slide: PatchSlide) -> tuple[float, float]:
    """The slide depths of a line part's ends. The depth must be affine along
    the segment, as it is for planar slides; a depth whose value at the
    segment's midpoint is not the mean of its end values is refused."""
    def depth(s):
        return slide.slab_coordinate(lp.positions(np.array([s])))[0]

    a, b = depth(lp.lo), depth(lp.hi)
    if abs(depth(0.5 * (lp.lo + lp.hi)) - 0.5 * (a + b)) > POSITION_TOL:
        raise GeometryError("line-part slab mass needs a depth affine along the "
                            "segment; this slide is curved")
    return a, b


def _line_mass(lp: LinePart, s0, s1) -> np.ndarray:
    """|density| integrated along the segment over each parameter range
    (s0, s1), floats or arrays, on its own `gauss_legendre(64, s0, s1)`,
    formed as that rule forms it; the ranges' rules are evaluated together,
    as one node set of segment parameters in the blocks `integrate` takes."""
    s0, s1 = np.atleast_1d(s0, s1)
    ref = gauss_legendre(64, -1.0, 1.0)
    mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    nodes = mid[:, None] + half[:, None] * ref.nodes
    weights = half[:, None] * ref.weights
    mags = _node_values(nodes.ravel(),
                        lambda s: _norm(np.atleast_2d(lp.density(lp.positions(s)))))
    return np.sum(weights * mags.reshape(weights.shape), axis=1)


def _line_slab_mass(lp: LinePart, depths: tuple[float, float], lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Mass of a straight line measure inside each slab lo < depth < hi,
    given the depths of its ends (`_line_depths`).

    The depth is affine along the segment, so every slab is solved for
    exactly. A segment parallel to the layers lies in one of them: its whole
    mass, on its 64-node rule, is in every slab that contains its depth.
    """
    a, b = depths
    out = np.zeros(len(lo))
    if abs(b - a) < 1e-14:
        inside = (lo < a) & (a < hi)
        if inside.any():
            out[inside] = _line_mass(lp, lp.lo, lp.hi)[0]
        return out
    # affine depth: invert exactly
    s_lo = lp.lo + (lo - a) * (lp.hi - lp.lo) / (b - a)
    s_hi = lp.lo + (hi - a) * (lp.hi - lp.lo) / (b - a)
    s0 = np.maximum(np.minimum(s_lo, s_hi), lp.lo)
    s1 = np.minimum(np.maximum(s_lo, s_hi), lp.hi)
    hit = np.flatnonzero(s1 > s0)
    out[hit] = _line_mass(lp, s0[hit], s1[hit])
    return out


def _line_layer_mass(lp: LinePart, depths: tuple[float, float], t: float) -> float:
    """Mass of a line part lying in the single layer at depth t: a segment
    parallel to the layers whose depth is within `POSITION_TOL` of t."""
    a, b = depths
    if abs(b - a) < 1e-14 and abs(a - t) <= POSITION_TOL:
        return float(_line_mass(lp, lp.lo, lp.hi)[0])
    return 0.0


def _sheet_mass(sheet, inside) -> float:
    """Mass of a sheet part (an entry of `SlideMeasure.sheets`) on the nodes
    whose slide depth satisfies `inside`."""
    weights, depth, dens = sheet
    return float(np.sum(weights * inside(depth) * dens))


def _sheet_layer_mass(sheet, t: float) -> float:
    """Mass carried by the single layer at depth t (concentration detector)."""
    return _sheet_mass(sheet, lambda depth: np.abs(depth - t) <= POSITION_TOL)


@lru_cache(maxsize=None)
def _legendre_transform() -> np.ndarray:
    """The (PROFILE_ORDER, PROFILE_ORDER) map from values at the reference
    Gauss-Legendre nodes to the Legendre coefficients of their interpolant:
    c_k = (2k + 1)/2 sum_i w_i P_k(x_i) f_i, exact since the rule integrates
    P_k times the interpolant exactly. Built once; the cached array is
    read-only."""
    ref = gauss_legendre(PROFILE_ORDER, -1.0, 1.0)
    k = np.arange(PROFILE_ORDER)
    vander = np.polynomial.legendre.legvander(ref.nodes, PROFILE_ORDER - 1)
    transform = (k[:, None] + 0.5) * vander.T * ref.weights
    transform.flags.writeable = False
    return transform


def _face_masses(density, slide: PatchSlide, panels) -> np.ndarray:
    """q at each panel's PROFILE_ORDER Gauss-Legendre depths, (p, PROFILE_ORDER):
    one `_band_lines` call over the slid copies of the patch; raises on
    non-finite values."""
    _, _, lines = _band_lines(_slid_layers(slide), PROFILE_ORDER, panels,
                              lambda pts, s: _norm(np.atleast_2d(density(pts))))
    return _finite(lines[0]).reshape(len(panels), PROFILE_ORDER)


def _depth_profile(density, slide: PatchSlide, depth: float):
    """The face mass q(s), the integral of |density| over the slide's patch
    slid to depth s, with the patch's own weights, on [0, depth]: the panels
    (p, 2) in depth order and the Legendre coefficients (p, PROFILE_ORDER) of
    q's interpolant on each.

    Each round evaluates the panels still open at their PROFILE_ORDER
    Gauss-Legendre depths in one `_band_lines` call, in blocks of whole
    layers. c_0 is the panel mean, and the higher coefficients transform the
    values less that mean, so their rounding follows q's variation over the
    panel, not its size: a constant q gives c_0 alone. A panel passes when
    its last two coefficients sum to at most PROFILE_TAIL times the largest
    |q| seen; else it is bisected. Two adjacent passed panels whose
    interpolants differ at their common edge by more than PROFILE_ORDER
    such tails (a jump between a panel's outermost depth and its edge, where
    no node sees it) are both bisected. A panel that would be bisected below
    PROFILE_FLOOR wide is refused: |density| jumps or kinks at a depth no
    panel edge meets.
    """
    transform = _legendre_transform()
    signs = (-1.0) ** np.arange(PROFILE_ORDER)
    todo, done, scale = [(0.0, depth)], {}, 0.0
    while todo:
        values = _face_masses(density, slide, todo)
        scale = max(scale, float(np.max(values)))
        mean = values @ transform[0]
        c = (values - mean[:, None]) @ transform.T
        c[:, 0] = mean
        split = {p for p, ci in zip(todo, c)
                 if abs(ci[-2]) + abs(ci[-1]) > PROFILE_TAIL * scale}
        done.update((p, ci) for p, ci in zip(todo, c) if p not in split)
        panels = sorted(done)
        for left, right in zip(panels, panels[1:]):
            if (left[1] == right[0] and abs(np.sum(done[left]) - done[right] @ signs)
                    > PROFILE_ORDER * PROFILE_TAIL * scale):
                split |= {left, right}
        todo = []
        for lo, hi in sorted(split):
            done.pop((lo, hi), None)
            if hi - lo < 2.0 * PROFILE_FLOOR:
                raise GeometryError(
                    f"the Lebesgue layer mass does not resolve on depths [{lo:.12g}, "
                    f"{hi:.12g}]: |density| jumps or kinks at a depth no panel edge meets")
            mid = 0.5 * (lo + hi)
            todo += [(lo, mid), (mid, hi)]
    panels = sorted(done)
    return np.asarray(panels), np.asarray([done[p] for p in panels])


def _lebesgue_slab_mass(density, slide: PatchSlide, lo, hi) -> np.ndarray:
    """|density| integrated over each slab (lo, hi), floats or arrays of
    window ends, clipped to the slide's depths [0, depth_range].

    The slab mass is the integral of the layer mass L(s) = area_scale(s) q(s),
    with q the face mass of `_depth_profile`, built once on [0, D], D the
    deepest end of a slab left open. A slab's mass is the sum, over the
    panels it overlaps, of L integrated by a PROFILE_ORDER-node Gauss rule
    mapped onto the overlap: q's interpolant read there, times area_scale
    there. Every slide's area_scale is a polynomial of degree at most 2, so
    the rule is exact for L, and L keeps its relative accuracy where
    area_scale vanishes (at a sphere's centre). No antiderivatives are
    subtracted, so narrow slabs do not cancel."""
    lo = np.maximum(np.atleast_1d(lo), 0.0)
    hi = np.minimum(np.atleast_1d(hi), slide.depth_range)
    open_ = hi > lo
    if not open_.any():
        return np.zeros(len(lo))
    panels, coefs = _depth_profile(density, slide, float(np.max(hi[open_])))
    a = np.maximum(lo[:, None], panels[:, 0])
    b = np.minimum(hi[:, None], panels[:, 1])
    window, panel = np.nonzero(b > a)  # each window's panels in depth order
    a, b = a[window, panel], b[window, panel]
    ref = gauss_legendre(PROFILE_ORDER, -1.0, 1.0)
    s = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * ref.nodes
    p0, p1 = panels[panel, 0][:, None], panels[panel, 1][:, None]
    u = (2.0 * s - (p0 + p1)) / (p1 - p0)  # the nodes in their panels' coordinates
    q = np.polynomial.legendre.legval(u.T, coefs[panel].T, tensor=False)
    pieces = 0.5 * (b - a) * np.sum(ref.weights[:, None] * slide.area_scale(s.T) * q, axis=0)
    return np.bincount(window, weights=pieces, minlength=len(lo))


def measure_slab_mass(m: SlideMeasure, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|mu| of each slab lo < depth < hi along the slide, for arrays of window
    ends; per window the Lebesgue, sheet and line parts are added in turn."""
    total = np.zeros(len(lo))
    if m.mu.lebesgue_density is not None:
        total += _lebesgue_slab_mass(m.mu.lebesgue_density, m.slide, lo, hi)
    for sheet in m.sheets:
        total += [_sheet_mass(sheet, lambda depth: (depth > a) & (depth < b))
                  for a, b in zip(lo, hi)]
    for lp, depths in zip(m.mu.line_parts, m.line_depths):
        total += _line_slab_mass(lp, depths, lo, hi)
    return total


def single_layer_mass(m: SlideMeasure, t: float) -> float:
    """|mu| carried by the single layer at depth t: the sheet nodes and the
    line parts whose depth is within `POSITION_TOL` of t."""
    return (sum(_sheet_layer_mass(sheet, t) for sheet in m.sheets)
            + sum(_line_layer_mass(lp, depths, t)
                  for lp, depths in zip(m.mu.line_parts, m.line_depths)))


def maximal_transversal(mu: CurlMeasure, patch: SurfacePatch,
                        collar: TransversalCollar, t_grid: Sequence[float]) -> MaximalScan:
    """Two-sided layer-mass maximal function along the transversal slides of
    a surface: at each t the windows are (t - eps, t + eps).

    The scan reads the measure over the whole region face the surface lies
    on, so a surface whose area or centre is not the face's is refused.
    """
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
    windows = [(t - eps, t + eps) for t, c in zip(t_grid, concentrated) if not c
               for eps in DEFAULT_EPS_GRID]
    windows.append((-0.75, min(0.75, slide.depth_range)))
    mass = dict(zip(windows, measure_slab_mass(m, *np.transpose(windows)).tolist()))
    vals = [np.inf if c else _window_sup(t, mass) for t, c in zip(t_grid, concentrated)]
    return MaximalScan(tuple(t_grid), tuple(vals), mass[windows[-1]])


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

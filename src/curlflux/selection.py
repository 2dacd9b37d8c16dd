"""Maximal functions over collar parameters and good-manifold scans.

Along one slide a scan reads nu = depth_#|mu|, the image of |mu| under the
slide's depth, on [0, depth_range] (`SlideMeasure`). The maximal value at t
is the supremum over a geometric half-width grid of nu(t - eps, t + eps) /
eps; the grid supremum is a lower bound of the true maximal function, which
keeps the weak-(1,1) check one-sided valid. An atom within
`geometry.POSITION_TOL` of t is a concentration, and its value is infinite.

nu has three parts: its atoms, the sheet parts and the line parts that lie
in one layer; its Lebesgue part, one depth profile per scan (the face mass
of the patch slid to each depth, on Legendre panels, `_depth_profile`); and
the line parts that cross the layers, each solved exactly for every window.
A scan evaluates all its windows, one per (t, half-width) and the collar's,
in one `measure_slab_mass` call. A sheet part that crosses the layers, and a
non-finite density, are refused (`GeometryError`).
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

# the empirical constant C of the weak-(1,1) bound C |mu|(collar) / lambda
WEAK11_CONSTANT = 10.0


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
    collar_mass: float  # nu of the collar's depths (0, 0.75), for the weak-(1,1) bound


@dataclass(frozen=True)
class SlideMeasure:
    """nu = depth_#|mu| on the slide's depths [0, depth_range]. `parts`,
    built on first read, holds its atoms, (depth, mass) in part order, and
    its line parts that cross the layers, each with its monotone depth
    pieces (`_line_pieces`); `_lebesgue_slab_mass` reads the Lebesgue part.
    A sheet part whose node depths lie within `POSITION_TOL` of one another
    is an atom of mass sum(weights * |density|), and any other is refused; a
    line part in one layer is an atom of its whole mass. Atoms outside [0,
    depth_range] are dropped."""

    mu: CurlMeasure
    slide: PatchSlide

    @cached_property
    def parts(self) -> tuple[tuple[tuple[float, float], ...], tuple]:
        atoms, crossings = [], []
        for sp in self.mu.sheet_parts:
            depth = self.slide.slab_coordinate(sp.patch.nodes)
            if np.ptp(depth) > POSITION_TOL:
                raise GeometryError("a sheet part crossing the slide's layers has no slab mass "
                                    "here: only a sheet that lies in one layer is read")
            dens = _finite(_norm(np.atleast_2d(sp.density(sp.patch.nodes))))
            atoms.append((0.5 * float(np.min(depth) + np.max(depth)),
                          float(np.sum(sp.patch.weights * dens))))
        for lp in self.mu.line_parts:
            pieces = _line_pieces(lp, self.slide)
            if isinstance(pieces, float):
                atoms.append((pieces, float(_line_mass(lp, lp.lo, lp.hi)[0])))
            else:
                crossings.append((lp, pieces))
        return tuple(a for a in atoms if 0.0 <= a[0] <= self.slide.depth_range), tuple(crossings)


def _line_pieces(lp: LinePart, slide: PatchSlide):
    """A line part's depth along its segment, from `slab_coordinate` at its
    ends, its midpoint and its quarter point: the depth of the layer it lies
    in, when those are within `POSITION_TOL` of one another, else its
    monotone pieces (s0, s1, invert), invert mapping depths to parameters.

    Under a planar slide the depth is affine in s: one piece. Under a sphere
    or a cylinder side of radius R = depth_range, (R - depth)^2 = q* + c ((s
    - s*) / h)^2, h the half length, is fitted at the ends and the midpoint;
    the segment splits at its closest approach s*, and each side inverts as
    s = s* -+ h sqrt(((R - depth)^2 - q*) / c), with q* read from
    `slab_coordinate` at s* so that the inversion does not cancel. A depth
    off its model at the quarter point is refused."""
    mid, h = 0.5 * (lp.lo + lp.hi), 0.5 * (lp.hi - lp.lo)
    depths = slide.slab_coordinate(lp.positions(np.array([lp.lo, lp.hi, mid, mid - 0.5 * h])))
    if np.ptp(depths) <= POSITION_TOL:
        return 0.5 * float(np.min(depths) + np.max(depths))
    d0, d1, dm, dq = depths
    r = slide.depth_range
    if np.isinf(r):
        model = 0.75 * d0 + 0.25 * d1
        pieces = ((lp.lo, lp.hi, lambda d: lp.lo + (d - d0) * (lp.hi - lp.lo) / (d1 - d0)),)
    else:
        g0, g1, gm = (r - d0) ** 2, (r - d1) ** 2, (r - dm) ** 2
        c = 0.5 * (g0 + g1) - gm
        u = 0.25 * (g0 - g1) / c  # the closest approach, in units of h about mid
        s_star = mid + h * u
        q_star = (r - slide.slab_coordinate(lp.positions(np.array([s_star])))[0]) ** 2
        model = r - np.sqrt(q_star + c * (0.5 + u) ** 2)

        def offset(d):  # |s - s*| where the depth is d
            return h * np.sqrt(np.maximum(((r - d) ** 2 - q_star) / c, 0.0))

        # a closest approach beyond an end leaves one piece empty, and it reads 0
        pieces = ((lp.lo, min(s_star, lp.hi), lambda d: s_star - offset(d)),
                  (max(s_star, lp.lo), lp.hi, lambda d: s_star + offset(d)))
    if not abs(model - dq) <= POSITION_TOL:  # NaN too
        raise GeometryError("a line part's depth along its segment is neither affine nor a "
                            "distance to a centre or an axis; its slab mass is not solved")
    return pieces


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


def _line_slab_mass(lp: LinePart, pieces, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mass of a line part crossing the layers inside each slab lo < depth <
    hi, given its monotone depth pieces (`_line_pieces`): each piece inverts
    the slab's ends in closed form, and the parameter ranges of every slab and
    piece are integrated in one `_line_mass` call."""
    ranges = []
    for p0, p1, invert in pieces:
        s_lo, s_hi = invert(lo), invert(hi)
        ranges.append((np.maximum(np.minimum(s_lo, s_hi), p0),
                       np.minimum(np.maximum(s_lo, s_hi), p1)))
    s0, s1 = np.concatenate(ranges, axis=1)
    hit = np.flatnonzero(s1 > s0)
    out = np.zeros(len(s0))
    out[hit] = _line_mass(lp, s0[hit], s1[hit])
    return out.reshape(len(pieces), len(lo)).sum(axis=0)


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
    window ends within the slide's depths [0, depth_range].

    The slab mass is the integral of the layer mass L(s) = area_scale(s) q(s),
    with q the face mass of `_depth_profile`, built once on [0, D], D the
    deepest end of a slab left open. A slab's mass is the sum, over the
    panels it overlaps, of L integrated by a PROFILE_ORDER-node Gauss rule
    mapped onto the overlap: q's interpolant read there, times area_scale
    there. Every slide's area_scale is a polynomial of degree at most 2, so
    the rule is exact for L, and L keeps its relative accuracy where
    area_scale vanishes (at a sphere's centre). No antiderivatives are
    subtracted, so narrow slabs do not cancel."""
    lo, hi = np.atleast_1d(lo, hi)
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
    """nu of each slab lo < depth < hi, for arrays of window ends, clipped to
    [0, depth_range]: the Lebesgue part, the atoms strictly inside and the
    crossing line parts, added in that order."""
    lo = np.maximum(np.atleast_1d(lo), 0.0)
    hi = np.minimum(np.atleast_1d(hi), m.slide.depth_range)
    atoms, crossings = m.parts
    total = np.zeros(len(lo))
    if m.mu.lebesgue_density is not None:
        total += _lebesgue_slab_mass(m.mu.lebesgue_density, m.slide, lo, hi)
    for depth, mass in atoms:
        total += np.where((lo < depth) & (depth < hi), mass, 0.0)
    for lp, pieces in crossings:
        total += _line_slab_mass(lp, pieces, lo, hi)
    return total


def single_layer_mass(m: SlideMeasure, t: float) -> float:
    """nu of the single layer at depth t: its atoms within `POSITION_TOL` of t."""
    return sum((mass for depth, mass in m.parts[0] if abs(depth - t) <= POSITION_TOL), 0.0)


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
    windows.append((0.0, 0.75))  # the collar's depths up to 0.75
    mass = dict(zip(windows, measure_slab_mass(m, *np.transpose(windows)).tolist()))
    vals = [np.inf if c else _window_sup(t, mass) for t, c in zip(t_grid, concentrated)]
    return MaximalScan(tuple(t_grid), tuple(vals), mass[windows[-1]])


@dataclass(frozen=True)
class GoodSetReport:
    good_t: tuple[float, ...]  # the scan's t whose value is finite and at most lambda
    complement_measure: float
    weak_bound: float  # WEAK11_CONSTANT |mu|(collar) / lambda

    @property
    def holds(self) -> bool:
        return self.complement_measure <= self.weak_bound + 1e-12


def good_set_scan(scan: MaximalScan, lam: float) -> GoodSetReport:
    """Threshold scan with the empirical weak-(1,1) bound at WEAK11_CONSTANT."""
    t = np.asarray(scan.t_grid)
    v = np.asarray(scan.values)
    if len(t) > 1:
        cell = float(np.median(np.diff(np.sort(t))))
    else:
        cell = 1.0
    bad = ~((v <= lam) & np.isfinite(v))
    good = tuple(float(x) for x in t[~bad])
    return GoodSetReport(good, float(np.sum(bad) * cell),
                         WEAK11_CONSTANT * scan.collar_mass / lam)

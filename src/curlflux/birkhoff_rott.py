"""Desingularized vortex-sheet evolution.

Markers X(xi1, xi2) carry a tangential strength density (the tangential
velocity jump across the sheet) and advect under the regularized self-induced
velocity

    u(x) = -(1/4pi) sum_j gamma_j x (x - X_j) / (|x - X_j|^2 + delta^2)^{3/2} w_j,

a Krasny-style smoothing of the principal-value sheet integral; the self term
vanishes identically because the displacement is zero.

Doubly periodic sheets sum image copies inside the 3x3 block around each
target, with displacements folded to the target-centered cell and image
weights from the even hat partition of unity (weight 1 - |d|/L per
coordinate). The window is symmetric under negation, so the induced velocity
of a uniform flat sheet cancels to rounding noise, and exact half-cell ties
get half weights instead of a discontinuous fold. The neglected lattice tail
is reported as a truncation-error estimate in the diagnostics.

Strength is a material invariant: it is carried with the markers and
re-projected onto the discrete tangent plane each step. The O(N^2) kernel is
plain numpy: it walks the targets in chunks of a few dozen rows and builds
only per-coordinate (rows, sources) pair arrays: folded displacements, the
partner images and their hat weights, and the image-summed kernel moments kx,
ky and kz = dz sum(k). The strength gamma w then enters once, as three
mat-vecs for the cross product. Free space is the same loop with one image of
weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

HAVE_NUMBA = False  # read only by perfbench/worker.py for its environment record


class SheetError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _velocity_numpy(targets, sources, gamma, w, delta2, periods=None):
    gw = gamma * w[:, None]
    out = np.empty((targets.shape[0], 3))
    for lo in range(0, targets.shape[0], 32):
        t = targets[lo:lo + 32]
        dx0, dy0, dz = (t[:, k, None] - sources[None, :, k] for k in range(3))
        if periods is None:
            xs, ys = ((dx0, 1.0),), ((dy0, 1.0),)
        else:
            # folded displacement and hat-weighted partner image per coordinate
            lx, ly = periods
            dx0 -= lx * np.floor(dx0 / lx + 0.5)
            dy0 -= ly * np.floor(dy0 / ly + 0.5)
            ux, uy = np.abs(dx0) / lx, np.abs(dy0) / ly
            xs = ((dx0, 1.0 - ux), (np.where(dx0 > 0.0, dx0 - lx, dx0 + lx), ux))
            ys = ((dy0, 1.0 - uy), (np.where(dy0 > 0.0, dy0 - ly, dy0 + ly), uy))
        dz2 = dz * dz + delta2
        kx = ky = kk = 0.0
        for cx, hx in xs:
            sx = cx * cx + dz2
            for cy, hy in ys:
                s = sx + cy * cy
                k = hx * hy / (s * np.sqrt(s))
                kx = kx + k * cx
                ky = ky + k * cy
                kk = kk + k
        kz = dz * kk
        # (gamma w) x (kx, ky, kz), summed over sources as three mat-vecs
        o = out[lo:lo + 32]
        o[:, 0] = kz @ gw[:, 1] - ky @ gw[:, 2]
        o[:, 1] = kx @ gw[:, 2] - kz @ gw[:, 0]
        o[:, 2] = ky @ gw[:, 0] - kx @ gw[:, 1]
    return out * (-1.0 / (4.0 * np.pi))


# ---------------------------------------------------------------------------
# sheet state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SheetState:
    """Marker grid with strength density, quadrature weights, and smoothing."""

    markers: np.ndarray  # (n1, n2, 3)
    strength: np.ndarray  # (n1, n2, 3), tangential
    weights: np.ndarray  # (n1, n2) per-marker surface weights
    desing: float  # smoothing length, > 0
    periods: Optional[tuple[float, float]] = None  # (Lx, Ly) for doubly periodic sheets
    time: float = 0.0

    def __post_init__(self):
        if self.desing <= 0.0:
            raise SheetError("desingularization length must be positive")

    @property
    def n_markers(self) -> int:
        return self.markers.shape[0] * self.markers.shape[1]

    def flat(self):
        n = self.n_markers
        return (self.markers.reshape(n, 3), self.strength.reshape(n, 3),
                self.weights.reshape(n))

    def truncation_error_estimate(self) -> float:
        """Crude bound on the neglected periodic-image tail of the kernel sum."""
        if self.periods is None:
            return 0.0
        _, g, w = self.flat()
        lmin = min(self.periods)
        strength = float(np.sum(w * np.linalg.norm(g, axis=1)))
        return strength / (4.0 * np.pi * lmin ** 2)

    def tangent_basis(self):
        """Central-difference tangent vectors along the two grid directions."""
        X = self.markers
        if self.periods is not None:
            du = (np.roll(X, -1, axis=0) - np.roll(X, 1, axis=0))
            dv = (np.roll(X, -1, axis=1) - np.roll(X, 1, axis=1))
            # unwrap periodic jumps
            lx, ly = self.periods
            du[..., 0] = (du[..., 0] + 1.5 * lx) % lx - 0.5 * lx
            dv[..., 1] = (dv[..., 1] + 1.5 * ly) % ly - 0.5 * ly
        else:
            du = np.gradient(X, axis=0)
            dv = np.gradient(X, axis=1)
        return du, dv

    def normals(self) -> np.ndarray:
        du, dv = self.tangent_basis()
        n = np.cross(du, dv)
        mag = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / np.where(mag == 0.0, 1.0, mag)


def flat_periodic_sheet(n1: int, n2: int, gamma=(1.0, 0.0, 0.0),
                        desing: Optional[float] = None,
                        bump_amplitude: float = 0.0) -> SheetState:
    """Uniform flat sheet z = 0 on the unit periodic cell, optionally perturbed
    by a smooth bump; the smoothing length defaults to twice the coarser
    marker spacing."""
    u = (np.arange(n1) + 0.5) * (1.0 / n1)
    v = (np.arange(n2) + 0.5) * (1.0 / n2)
    U, V = np.meshgrid(u, v, indexing="ij")
    Z = np.zeros_like(U)
    if bump_amplitude:
        Z = Z + bump_amplitude * np.sin(2 * np.pi * U) * np.sin(2 * np.pi * V)
    markers = np.stack([U, V, Z], axis=-1)
    g = np.broadcast_to(np.asarray(gamma, dtype=float), markers.shape).copy()
    w = np.full((n1, n2), (1.0 / n1) * (1.0 / n2))
    if desing is None:
        desing = 2.0 * max(1.0 / n1, 1.0 / n2)
    return SheetState(markers, g, w, desing, periods=(1.0, 1.0))


def br_velocity(sheet: SheetState, points: np.ndarray) -> np.ndarray:
    """Desingularized self-induced velocity at arbitrary points.

    Marker self-terms vanish identically (zero displacement in the cross
    product); no exclusion branch is needed.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    src, g, w = sheet.flat()
    return _velocity_numpy(pts, src, g, w, sheet.desing ** 2, periods=sheet.periods)


def _marker_velocities(sheet: SheetState, markers: np.ndarray) -> np.ndarray:
    probe = replace(sheet, markers=markers)
    n = sheet.n_markers
    return br_velocity(probe, markers.reshape(n, 3)).reshape(markers.shape)


def retangentialize(strength: np.ndarray, normals: np.ndarray) -> np.ndarray:
    return strength - np.sum(strength * normals, axis=-1, keepdims=True) * normals


def step(sheet: SheetState, dt: float) -> SheetState:
    """One RK4 advection step; strengths ride with the markers and are
    re-projected onto the discrete tangent plane afterwards."""
    if dt <= 0.0:
        raise SheetError("time step must be positive")

    X = sheet.markers
    k1 = _marker_velocities(sheet, X)
    k2 = _marker_velocities(sheet, X + 0.5 * dt * k1)
    k3 = _marker_velocities(sheet, X + 0.5 * dt * k2)
    k4 = _marker_velocities(sheet, X + dt * k3)
    new_markers = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    moved = replace(sheet, markers=new_markers, time=sheet.time + dt)
    new_strength = retangentialize(sheet.strength, moved.normals())
    out = replace(moved, strength=new_strength)
    _flag_collisions(out, 0.1)
    return out


def _flag_collisions(sheet: SheetState, factor: float):
    # nearest grid neighbors only; full pairwise checks are the caller's business
    dmin = np.inf
    for axis in (0, 1):
        if sheet.markers.shape[axis] > 1:
            d = np.linalg.norm(np.diff(sheet.markers, axis=axis), axis=-1)
            dmin = min(dmin, d.min())
    if dmin < factor * sheet.desing:
        raise SheetError(f"marker collision: spacing {dmin:.3e} below "
                         f"{factor:g} x desingularization length")


def diagnostics(sheet: SheetState) -> dict:
    """Circulation vector, sheet area, curvature proxy, and truncation estimate."""
    if sheet.n_markers == 0:
        return {"circulation": np.zeros(3), "area": 0.0, "max_curvature": 0.0,
                "truncation_error": 0.0}
    x, g, w = sheet.flat()
    circulation = np.tensordot(w, g, axes=(0, 0))
    area = float(np.sum(sheet.weights))
    lap = (np.roll(sheet.markers, 1, 0) + np.roll(sheet.markers, -1, 0)
           + np.roll(sheet.markers, 1, 1) + np.roll(sheet.markers, -1, 1)
           - 4.0 * sheet.markers)
    h2 = sheet.weights.mean()
    max_curv = float(np.linalg.norm(lap, axis=-1).max() / max(h2, 1e-300))
    return {"circulation": circulation, "area": area, "max_curvature": max_curv,
            "truncation_error": sheet.truncation_error_estimate()}


def two_body_velocity(gamma_j, x_j, w_j, x, delta: float) -> np.ndarray:
    """Single-term kernel evaluation, for hand-checking the pairwise sum."""
    d = np.asarray(x, float) - np.asarray(x_j, float)
    s = float(d @ d) + delta * delta
    return -np.cross(np.asarray(gamma_j, float), d) * (w_j / (4.0 * np.pi * s ** 1.5))

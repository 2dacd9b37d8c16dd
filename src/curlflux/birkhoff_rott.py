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
get half weights instead of a discontinuous fold. The lattice beyond the
window is neglected.

Strength is a material invariant: it is carried with the markers and
re-projected onto the discrete tangent plane each step.

The O(N^2) kernel is plain numpy. It walks the targets in strips of 32 rows.
One helper, `_moments`, writes a strip's (rows, sources) pair arrays into
twelve preallocated rows with ufunc `out=`: the folded displacements, the
partner images and their hat weights, and the image-summed kernel moments
kx, ky and kz = dz sum(k). The strength gamma w then enters once, as six
mat-vecs for the cross product. Free space is the same helper with one
image of weight 1.

On the sheet's own markers the moments are odd in (i, j): the displacement
is odd, and the fold and the hat weights are even. Strip [lo, hi) then
computes only the columns [lo, N). It adds them to its own rows, and
subtracts the transposed off-diagonal block from rows [hi, N). That halves
the pair work; the result differs from the full sum only in rounding order.
Any other point set takes the full sum, in the same floating-point order as
the plain expressions.
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

def _moments(buf, targets, sources, delta2, periods):
    """Image-summed kernel moments kx, ky and kz = dz sum(k) of every
    (target, source) pair, as (targets, sources) views into the twelve rows
    of buf; each row needs len(targets) * len(sources) entries. Every
    intermediate is written with a ufunc `out=`, in the same floating-point
    order as the plain expression would take."""
    shape = (len(targets), len(sources))
    dx, dy, dz, ux, uy, py, sx, p, q, kx, ky, kk = (row[:shape[0] * shape[1]].reshape(shape)
                                                    for row in buf)
    for c, d in enumerate((dx, dy, dz)):
        np.subtract(targets[:, c, None], sources[None, :, c], out=d)
    if periods is None:
        images = ((False, False),)
    else:
        lx, ly = periods
        for d, u, period in ((dx, ux, lx), (dy, uy, ly)):
            # fold into the target-centered cell; u = |d| / L is the hat
            # weight of the partner image d - L sign(d), 1 - u that of d
            np.divide(d, period, out=p)
            p += 0.5
            np.floor(p, out=p)
            p *= period
            d -= p
            np.abs(d, out=u)
            u /= period
        # at d = 0 the partner sits at -L instead of +L, with hat weight 0
        np.copysign(ly, dy, out=py)
        np.subtract(dy, py, out=py)
        images = ((False, False), (False, True), (True, False), (True, True))
    for n, (x_partner, y_partner) in enumerate(images):
        cy = py if y_partner else dy
        if not y_partner:
            if x_partner:
                # the cell image's terms are summed: dx becomes its partner
                np.copysign(lx, dx, out=p)
                dx -= p
            # sx = dx^2 + dz^2 + delta^2, rebuilt per x image to spare a row for dz^2
            np.multiply(dz, dz, out=sx)
            sx += delta2
            np.multiply(dx, dx, out=p)
            sx += p
        np.multiply(cy, cy, out=p)
        p += sx
        np.sqrt(p, out=q)
        p *= q
        # k = hx hy / s^(3/2), the first image's straight into the sum kk
        k = kk if n == 0 else q
        if periods is None:
            np.divide(1.0, p, out=k)
        else:
            # the first image needs both complements: 1 - ux in kk, 1 - uy in q
            hx = ux if x_partner else np.subtract(1.0, ux, out=k)
            hy = uy if y_partner else np.subtract(1.0, uy, out=q if n == 0 else k)
            np.multiply(hx, hy, out=k)
            k /= p
        if n == 0:
            np.multiply(k, dx, out=kx)
            np.multiply(k, cy, out=ky)
        else:
            np.multiply(k, dx, out=p)
            kx += p
            np.multiply(k, cy, out=p)
            ky += p
            kk += k
    kk *= dz
    return kx, ky, kk


def _cross_sum(kx, ky, kz, gw):
    # (gamma w) x (kx, ky, kz), summed over sources as six mat-vecs
    return np.column_stack((kz @ gw[:, 1] - ky @ gw[:, 2], kx @ gw[:, 2] - kz @ gw[:, 0],
                            ky @ gw[:, 0] - kx @ gw[:, 1]))


def _probe_velocity(targets, sources, gw, delta2, periods):
    buf = np.empty((12, 32 * len(sources)))
    out = np.empty((len(targets), 3))
    for lo in range(0, len(targets), 32):
        out[lo:lo + 32] = _cross_sum(*_moments(buf, targets[lo:lo + 32], sources, delta2,
                                               periods), gw)
    return out * (-1.0 / (4.0 * np.pi))


def _self_velocity(markers, gw, delta2, periods):
    # the moments are odd in (i, j): strip [lo, hi) sums columns [lo, n)
    # into its own rows and hands the transposed part, negated, to rows [hi, n)
    n = len(markers)
    buf = np.empty((12, 32 * n))
    out = np.zeros((n, 3))
    for lo in range(0, n, 32):
        hi = min(lo + 32, n)
        kx, ky, kz = _moments(buf, markers[lo:hi], markers[lo:], delta2, periods)
        out[lo:hi] += _cross_sum(kx, ky, kz, gw[lo:])
        m = hi - lo
        out[hi:] -= _cross_sum(kx[:, m:].T, ky[:, m:].T, kz[:, m:].T, gw[lo:hi])
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
        if not 0.0 < self.desing < np.inf:
            raise SheetError(f"desingularization length must be positive and finite, "
                             f"not {self.desing:g}")

    @property
    def n_markers(self) -> int:
        return self.markers.shape[0] * self.markers.shape[1]

    def flat(self):
        n = self.n_markers
        return (self.markers.reshape(n, 3), self.strength.reshape(n, 3),
                self.weights.reshape(n))

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
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (3,) or not np.all(np.isfinite(gamma)):
        raise SheetError(f"strength gamma must be three finite numbers, not {gamma.tolist()}")
    if not np.isfinite(bump_amplitude):
        raise SheetError(f"bump amplitude must be finite, not {bump_amplitude:g}")
    u = (np.arange(n1) + 0.5) * (1.0 / n1)
    v = (np.arange(n2) + 0.5) * (1.0 / n2)
    U, V = np.meshgrid(u, v, indexing="ij")
    Z = np.zeros_like(U)
    if bump_amplitude:
        Z = Z + bump_amplitude * np.sin(2 * np.pi * U) * np.sin(2 * np.pi * V)
    markers = np.stack([U, V, Z], axis=-1)
    g = np.broadcast_to(gamma, markers.shape).copy()
    w = np.full((n1, n2), (1.0 / n1) * (1.0 / n2))
    if desing is None:
        desing = 2.0 * max(1.0 / n1, 1.0 / n2)
    return SheetState(markers, g, w, desing, periods=(1.0, 1.0))


def br_velocity(sheet: SheetState, points: np.ndarray) -> np.ndarray:
    """Desingularized self-induced velocity at arbitrary points.

    Marker self-terms vanish identically (zero displacement in the cross
    product); no exclusion branch is needed. When the points are the sheet's
    own flattened markers, the kernel sums each unordered pair once.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    src, g, w = sheet.flat()
    gw = g * w[:, None]
    if pts.shape == src.shape and np.array_equal(pts, src):
        return _self_velocity(src, gw, sheet.desing ** 2, sheet.periods)
    return _probe_velocity(pts, src, gw, sheet.desing ** 2, sheet.periods)


def _marker_velocities(sheet: SheetState, markers: np.ndarray) -> np.ndarray:
    probe = replace(sheet, markers=markers)
    n = sheet.n_markers
    return br_velocity(probe, markers.reshape(n, 3)).reshape(markers.shape)


def retangentialize(strength: np.ndarray, normals: np.ndarray) -> np.ndarray:
    return strength - np.sum(strength * normals, axis=-1, keepdims=True) * normals


def step(sheet: SheetState, dt: float) -> SheetState:
    """One RK4 advection step; strengths ride with the markers and are
    re-projected onto the discrete tangent plane afterwards."""
    if not 0.0 < dt < np.inf:
        raise SheetError(f"time step must be positive and finite, not {dt:g}")

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
    """The sheet's circulation vector."""
    if sheet.n_markers == 0:
        return {"circulation": np.zeros(3)}
    _, g, w = sheet.flat()
    return {"circulation": np.tensordot(w, g, axes=(0, 0))}


def two_body_velocity(gamma_j, x_j, w_j, x, delta: float) -> np.ndarray:
    """Single-term kernel evaluation, for hand-checking the pairwise sum."""
    d = np.asarray(x, float) - np.asarray(x_j, float)
    s = float(d @ d) + delta * delta
    return -np.cross(np.asarray(gamma_j, float), d) * (w_j / (4.0 * np.pi * s ** 1.5))

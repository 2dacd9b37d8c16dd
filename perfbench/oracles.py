"""Reference values owned by the benchmark.

Closed forms are written out here from the fields' definitions rather than
taken from curlflux, so a change to the program cannot move its own oracle.
Every check returns None when the value is accepted and a one-line reason
when it is rejected. Tolerances sit below 1e-3 relative, so a value perturbed
by 1e-3 relative is always rejected.
"""

from __future__ import annotations

import functools

import numpy as np

RTOL = 1e-4  # closed-form values, relative to the value or to the data's scale
DEFECT_MAX = 1e-3  # tangentiality defect of tangential-trace pairings
BR_RTOL = 1e-5  # sheet velocity against the direct sum, relative to max |u|
RH_ATOL = 1e-10  # tangential jump mismatch of the glued constants


def close(value, exact, scale=None, rtol=RTOL):
    """None when |value - exact| <= rtol * max(|exact|, scale), else a reason."""
    value = np.asarray(value, dtype=float)
    exact = np.asarray(exact, dtype=float)
    ref = float(np.max(np.abs(exact))) if exact.size else 0.0
    if scale is not None:
        ref = max(ref, float(scale))
    if not np.all(np.isfinite(value)):
        return "non-finite value"
    err = float(np.max(np.abs(value - exact))) if value.size else 0.0
    if err <= rtol * ref:
        return None
    return f"error {err:.3e} above {rtol:g} x {ref:.3e}"


def at_most(value, bound, what):
    if np.isfinite(value) and value <= bound:
        return None
    return f"{what} {value:.6g} above {bound:.6g}"


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def rigid_rotation(x):
    x = np.atleast_2d(x)
    return np.stack([-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1)


def plane_wave(x):
    x = np.atleast_2d(x)
    return np.stack([np.zeros(len(x)), np.sin(x[:, 0]), np.zeros(len(x))], axis=1)


FIELDS = {"rigid_rotation": rigid_rotation, "plane_wave_em": plane_wave}


def alternation(u):
    """+1 / -1 on the dyadic annuli (1 - 2^-k, 1 - 2^-(k+1)), k odd / even."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.5) & (u < 1.0)
    k = np.floor(-np.log2(1.0 - u[inside]))
    out[inside] = np.where(k % 2 == 1, 1.0, -1.0)
    return out


def z_trace(field, x, center=None, radius=None):
    """F x e3 on a z-plane; annuli data is centred and scaled to the disk."""
    x = np.atleast_2d(x)
    xy = np.stack([x[:, 0], x[:, 1], np.zeros(len(x))], axis=1)
    rho2 = x[:, 0] ** 2 + x[:, 1] ** 2
    if field == "rigid_rotation":
        return xy
    if field == "line_vortex":
        return xy / (2.0 * np.pi * rho2[:, None])
    if field == "newtonian":
        r3 = np.linalg.norm(x, axis=1) ** 3
        return np.stack([-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1) / (4.0 * np.pi * r3[:, None])
    if field == "annuli":
        rel = (x - center) / radius
        rel[:, 2] = 0.0
        rho = np.linalg.norm(rel, axis=1)
        return -(alternation(rho) / np.where(rho == 0.0, 1.0, rho))[:, None] * rel
    raise ValueError(field)


def flux_expected(field, route, radius, center, t):
    """Closed-form flux through the route's disk, or None where no limit exists.

    Tangential and mass routes shrink the disk to radius R(1 - t); the
    transversal route shifts it by t along +e3 and keeps the radius.
    """
    shrink = route != "transversal"
    rho = radius * (1.0 - t) if shrink else radius
    if field == "rigid_rotation":
        return 2.0 * np.pi * rho ** 2
    if field == "line_vortex":
        return 1.0 if np.hypot(center[0], center[1]) < rho else 0.0
    if field == "newtonian":
        return 0.0
    if field == "annuli":
        # the alternation accumulates at the rim: no limit on the full disk
        if not shrink or t == 0.0:
            return None
        return -2.0 * np.pi * rho * float(alternation(np.array([1.0 - t]))[0])
    raise ValueError(field)


def flux_scale(field, route, radius, center, t, n=256):
    """Arclength integral of |F x e3| over the rim of the route's disk."""
    shrink = route != "transversal"
    rho = radius * (1.0 - t) if shrink else radius
    z = center[2] + (0.0 if shrink else t)
    a = np.arange(n) * (2.0 * np.pi / n)
    rim = np.stack([center[0] + rho * np.cos(a), center[1] + rho * np.sin(a),
                    np.full(n, z)], axis=1)
    vals = np.linalg.norm(z_trace(field, rim, center, radius), axis=1)
    return float(np.sum(vals) * 2.0 * np.pi * rho / n)


def check_flux(field, route, radius, center, t, reported):
    """`reported` is the flux value, or None when the route gave no value."""
    expected = flux_expected(field, route, radius, center, t)
    if expected is None:
        return None if reported is None else f"reported {reported:.6g} where no limit exists"
    if reported is None:
        return f"no value where the flux is {expected:.6g}"
    scale = flux_scale(field, route, radius, center, t) if expected == 0.0 else None
    return close(reported, expected, scale)


# ---------------------------------------------------------------------------
# traces and maximal functions
# ---------------------------------------------------------------------------


def check_layerwise(field, points, normals, values, converged):
    if not np.all(converged):
        return f"{int(np.sum(~np.asarray(converged)))} nodes not converged"
    exact = np.cross(FIELDS[field](points), normals)
    return close(values, exact, scale=float(np.max(np.linalg.norm(exact, axis=1))))


def check_maximal(measure, values, t_grid, face_area=None, sheet_depth=None):
    values = np.asarray(values, dtype=float)
    if measure == "line":
        return close(values, np.full(values.shape, 2.0))
    if measure == "lebesgue":
        # |curl| = 2 on every slab of half-width eps: mass 2 * area * 2 eps
        return close(values, np.full(values.shape, 4.0 * face_area))
    on_sheet = np.isclose(np.asarray(t_grid), sheet_depth, rtol=0.0, atol=1e-12)
    if not np.all(np.isinf(values[on_sheet])):
        return "sheet layer not flagged infinite"
    if not np.all(np.isfinite(values[~on_sheet])):
        return "infinite value off the sheet layer"
    return None


def check_weak_bound(complement, bound):
    return at_most(complement, bound, "bad-set measure")


def check_defect(defect):
    return at_most(defect, DEFECT_MAX, "tangentiality defect")


def bump_profile(u):
    """radial_bump profile: 1 - smoothstep((u - 1/2) / (1/2)) on [0, 1]."""
    v = np.clip((np.asarray(u, dtype=float) - 0.5) / 0.5, 0.0, 1.0)
    return 1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v)


def face_pairing(c0, r):
    """Pairing of rigid rotation with a radial bump centred on a face with
    inner normal +e3: the integral of phi * (F x e3) = phi * (x, y, 0)."""
    x, w = np.polynomial.legendre.leggauss(8)
    mass = 0.0
    for lo, hi in ((0.0, 0.5 * r), (0.5 * r, r)):
        rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        mass += 0.5 * (hi - lo) * np.sum(w * bump_profile(rho / r) * rho)
    mass *= 2.0 * np.pi
    return mass * np.array([c0[0], c0[1], 0.0]), mass


def check_pairing(value, c0, r, on_face):
    """A bump centred on a flat face pairs to the face integral; one supported
    inside the region pairs to zero. F varies by r across the support, so
    mass * r is the scale a vanishing pairing is measured against."""
    exact, mass = face_pairing(c0, r)
    return close(value, exact if on_face else np.zeros(3), scale=mass * r)


# ---------------------------------------------------------------------------
# reproduce targets
# ---------------------------------------------------------------------------


def annuli_ramp(j):
    return np.pi * (-1.0) ** (j + 1) * (2.0 / 3.0 - 0.6 * 2.0 ** (-j))


def exp_profile(u, plateau):
    v = np.clip((np.asarray(u, dtype=float) - plateau) / (1.0 - plateau), 0.0, 1.0)
    out = np.zeros_like(v)
    inside = v < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - v[inside] ** 2))
    return out


def newtonian_face_pv(c0, r, plateau, n_angular=512, panels=64, order=16):
    """Principal-value pairing of the Newtonian face trace on the unit disk
    z = 0 with a smooth bump; polar rule about the singular point, whose
    angular sum cancels the 1/rho singularity."""
    a = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = np.zeros(2)
    for lo, hi in zip(edges[:-1], edges[1:]):
        rho = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        px = rho[:, None] * np.cos(a)[None, :] - c0[0]
        py = rho[:, None] * np.sin(a)[None, :] - c0[1]
        phi = exp_profile(np.hypot(px, py) / r, plateau)
        g = np.stack([np.sum(-np.sin(a) * phi, axis=1), np.sum(np.cos(a) * phi, axis=1)])
        g *= 2.0 * np.pi / n_angular
        total += 0.5 * (hi - lo) * (g / (4.0 * np.pi * rho)) @ w
    return float(np.hypot(*total))


MAXLAIM_BUMPS = (((0.25, -0.1), 0.9, 0.3), ((0.0, 0.3), 0.8, 0.4))


@functools.cache
def _maxlaim_pv():
    return [newtonian_face_pv(c, r, p) for c, r, p in MAXLAIM_BUMPS]


def _density_expected():
    # disk frame for normal +e3: e1 = -e_y, e2 = e_x; rim points at angle a
    e1, e2, n = np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    center = np.array([0.3, 0.2, 0.7])
    out = []
    for a in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False) + 0.1:
        x0 = center + np.cos(a) * e1 + np.sin(a) * e2
        tau = np.cross(n, -(np.cos(a) * e1 + np.sin(a) * e2))
        out.append(-float(rigid_rotation(x0)[0] @ tau))
    return out


def check_reproduce(name, rows):
    """Checks the numbers in a reproduce table; verdict strings are ignored."""
    num = {str(r[0]): r for r in rows}
    if name == "explicitcompute":
        got = [float(num[f"I({j})"][1]) for j in range(1, 11)]
        exact = [annuli_ramp(j) for j in range(1, 11)]
        tail = exact[4:]
        return (close(got, exact)
                or close(float(num["tOsc"][1]), max(tail) - min(tail)))
    if name == "distclaim":
        return close([float(r[1]) for r in rows], np.ones(len(rows)))
    if name == "maxlaim":
        got = [float(num[f"pv_vs_pairing[{i}]"][1]) for i in range(len(MAXLAIM_BUMPS))]
        return close(got, _maxlaim_pv())
    if name == "gluing":
        return (close(float(num["total_variation"][1]), np.pi)
                or at_most(abs(float(num["rh_tangential"][1])), RH_ATOL, "tangential jump"))
    if name == "density":
        got = [float(num[f"density[{i}]"][1]) for i in range(8)]
        return close(got, _density_expected())
    if name == "weak11":
        for r in rows:
            why = check_weak_bound(float(r[2]), float(r[3]))
            if why:
                return f"{r[0]} lambda={r[1]}: {why}"
        return None
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Birkhoff-Rott direct sum
# ---------------------------------------------------------------------------


def br_direct(markers, strength, weights, desing, periods, targets):
    """Regularized velocity of a doubly periodic sheet, one target at a time.

    Each displacement is folded into the target's cell, and the partner
    images are added with hat weights (1 - |d|/L) per coordinate.
    """
    src = markers.reshape(-1, 3)
    g = strength.reshape(-1, 3)
    w = weights.reshape(-1)
    lx, ly = periods
    out = np.zeros((len(targets), 3))
    for i, x in enumerate(np.atleast_2d(targets)):
        d = x - src
        d[:, 0] -= lx * np.floor(d[:, 0] / lx + 0.5)
        d[:, 1] -= ly * np.floor(d[:, 1] / ly + 0.5)
        ux, uy = np.abs(d[:, 0]) / lx, np.abs(d[:, 1]) / ly
        px = np.where(d[:, 0] > 0.0, d[:, 0] - lx, d[:, 0] + lx)
        py = np.where(d[:, 1] > 0.0, d[:, 1] - ly, d[:, 1] + ly)
        for cx, cy, hat in ((d[:, 0], d[:, 1], (1 - ux) * (1 - uy)), (d[:, 0], py, (1 - ux) * uy),
                            (px, d[:, 1], ux * (1 - uy)), (px, py, ux * uy)):
            dd = np.stack([cx, cy, d[:, 2]], axis=1)
            s = np.sum(dd * dd, axis=1) + desing * desing
            k = hat * w / (s * np.sqrt(s))
            out[i] -= np.sum(np.cross(g, dd) * k[:, None], axis=0) / (4.0 * np.pi)
    return out


def check_velocity(got, ref):
    scale = float(np.max(np.linalg.norm(ref, axis=1)))
    return close(got, ref, scale=scale, rtol=BR_RTOL)

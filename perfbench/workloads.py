"""The four seeded workloads: inputs, the program calls of each op, and checks.

A workload draws one pass of ops from (seed, pass index) and nothing else.
Each op is a closed-loop call sequence from plain numbers to a result, so
objects the program builds (regions, collars, fields) are built inside the
op and counted there. Curlflux functions are always reached through their
module attribute, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field, replace

import numpy as np

from curlflux import birkhoff_rott, cli, fields, geometry, selection, stokes, testfns, traces

from . import oracles


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict = field(default_factory=dict)
    slot: int = 0  # position in the pass before shuffling: the same op role every pass


class Refused:
    """A route declined to report a value."""

    def __init__(self, reason: str):
        self.reason = reason


def digest(numbers) -> str:
    """sha256 prefix of the numbers formatted as the CLI formats floats."""
    text = ",".join(cli.FLOAT_FMT % float(v) for v in np.ravel(np.asarray(numbers, dtype=float)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _shuffled(rng, ops):
    return [replace(ops[i], slot=i) for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# reproduce: the paper's own numbers through cli.run
# ---------------------------------------------------------------------------


class Reproduce:

    def ops(self, seed, pass_index):
        order = _rng(seed, pass_index).permutation(len(cli.REPRODUCE_NAMES))
        return [Op("reproduce", {"name": cli.REPRODUCE_NAMES[i]}, slot=int(i)) for i in order]

    def run(self, op, span):
        table = cli.run(cli.RunConfig("reproduce", {"name": op.params["name"]}))
        buf = io.StringIO()
        with span("cli.emit"):
            table.emit("csv", buf)
        return table, buf.getvalue()

    def check(self, op, out):
        return oracles.check_reproduce(op.params["name"], out[0].rows)

    def digest(self, out):
        return hashlib.sha256(out[1].encode()).hexdigest()[:16]

    def rows(self, out):
        return len(out[0].rows)


# ---------------------------------------------------------------------------
# flux_sweep: route solves on z-normal disks of many sizes
# ---------------------------------------------------------------------------

ROUTES = ("tangential", "mass", "transversal")
FLUX_FIELDS = ("rigid_rotation", "line_vortex", "annuli", "newtonian")
T_VALUES = (0.0, 0.1, 0.2, 0.3)
RADIUS_RANGE = (0.1, 3.0)


class FluxSweep:

    def ops(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        ops = []
        # every route x field x t once per pass, so passes have one cost profile
        for route in ROUTES:
            for name in FLUX_FIELDS:
                for t in T_VALUES:
                    radius = float(np.exp(rng.uniform(*np.log(RADIUS_RANGE))))
                    if name == "line_vortex":
                        # axis well inside the ramp bands or well outside the disk
                        lo, hi = (0.0, 0.3) if rng.random() < 0.5 else (1.3, 2.0)
                    else:
                        lo, hi = 0.0, 2.0
                    off = radius * rng.uniform(lo, hi)
                    ang = rng.uniform(0.0, 2.0 * np.pi)
                    z = rng.choice((-1.0, 1.0)) * radius * rng.uniform(0.3, 1.5)
                    center = (off * np.cos(ang), off * np.sin(ang), float(z))
                    ops.append(Op("flux", {"route": route, "field": name, "t": t,
                                           "radius": radius, "center": center}))
        return _shuffled(rng, ops)

    def run(self, op, span):
        p = op.params
        entry = fields.catalog(p["field"])
        radius, center, t = p["radius"], np.asarray(p["center"]), p["t"]
        trace, breaks = entry.trace_z_plane, ()
        if p["field"] == "annuli":
            # the alternation pattern scaled to the disk, accumulating at its rim
            base = entry.trace_z_plane
            trace = lambda x: base((np.atleast_2d(x) - center) / radius)  # noqa: E731
            breaks = tuple(radius * r for r in entry.trace_breaks_radii)
        man = geometry.disk_manifold(center, radius)
        if p["route"] == "transversal":
            region = geometry.cylinder_region(center=(center[0], center[1], 0.0), radius=radius,
                                              z0=center[2], z1=center[2] + radius)
            tcol = geometry.build_transversal_collar(region)
            sing = []
            if p["field"] == "line_vortex" and np.hypot(center[0], center[1]) < radius:
                sing = [(0.0, 0.0, center[2] + t)]
            return stokes.stokes_transversal(trace, man, tcol, t, singular_points=sing)["flux"]
        col = geometry.build_tangential_collar(man)
        if p["route"] == "tangential":
            res = stokes.stokes_tangential(trace, man, col, t, breaks_radii=breaks)
            return res.extrapolated if res.converged else Refused(f"t_osc={res.t_osc:.3g}")
        try:
            return stokes.boundary_pairing_mass(trace, man, col, t, breaks_radii=breaks)[1]
        except stokes.StokesRefusal as exc:
            return Refused(str(exc))

    def check(self, op, out):
        p = op.params
        value = None if isinstance(out, Refused) else float(out)
        return oracles.check_flux(p["field"], p["route"], p["radius"], p["center"], p["t"], value)

    def digest(self, out):
        return digest([np.nan] if isinstance(out, Refused) else [out])


# ---------------------------------------------------------------------------
# trace_scan: traces, maximal scans and pairings on three region shapes
# ---------------------------------------------------------------------------

REGIONS = ("cylinder", "half_ball", "ball")
LAYER_FIELDS = ("rigid_rotation", "plane_wave_em")
MEASURES = ("line", "lebesgue", "sheet")
SCAN_T = tuple(np.linspace(0.05, 0.45, 9))
LAYER_T = tuple(2.0 ** -k for k in range(2, 10))
DEFECT_EPS = tuple(2.0 ** -k for k in range(3, 9))


def _region(kind, center, radius, order=geometry.DEFAULT_ORDER,
            n_angular=geometry.DEFAULT_ANGULAR):
    if kind == "cylinder":
        return geometry.cylinder_region(center=center, radius=radius, z0=0.0, z1=radius,
                                        order=order, n_angular=n_angular)
    if kind == "half_ball":
        return geometry.half_ball_region(center=center, radius=radius, order=order,
                                         n_angular=n_angular)
    return geometry.ball_region(center=center, radius=radius, order=order, n_angular=n_angular)


def _face(kind, center, radius):
    """The region's flat face (inner normal +e3), or its sphere for a ball."""
    if kind == "ball":
        return geometry.closed_sphere_manifold(center, radius)
    return geometry.disk_manifold(center, radius)


class TraceScan:

    def ops(self, seed, pass_index):
        rng = _rng(seed, pass_index)

        def place():
            return (tuple(float(v) for v in rng.uniform(-0.3, 0.3, 3)),
                    float(rng.uniform(0.6, 1.2)))

        ops = []
        for _ in range(2):
            center, radius = place()
            ops.append(Op("defect", {"center": center, "radius": radius,
                                     "data_seed": int(rng.integers(1 << 30))}))
        for kind in REGIONS:
            for name in LAYER_FIELDS:
                center, radius = place()
                ops.append(Op("layerwise", {"region": kind, "field": name,
                                            "center": center, "radius": radius}))
        for kind in REGIONS[:2]:
            for measure in MEASURES:
                center, radius = place()
                ops.append(Op("maximal", {"region": kind, "measure": measure,
                                          "center": center, "radius": radius,
                                          "lam": 2.0 ** int(rng.integers(-4, 5)),
                                          "sheet_t": float(rng.choice(SCAN_T))}))
        # 30 cheap pairings among 43 ops put the median op well inside the
        # pairing block instead of on the edge between two kinds of op
        placements = [(k, True) for k in REGIONS[:2] for _ in range(6)]
        placements += [(k, False) for k in REGIONS for _ in range(6)]
        for kind, on_face in placements:
            center, radius = place()
            r = radius * rng.uniform(0.15, 0.35)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            off = rng.uniform(0.0, radius - 1.5 * r) if on_face else rng.uniform(0.0, 0.3 * r)
            depth = 0.0 if on_face else (0.5 * radius if kind != "ball" else 0.0)
            bump = (center[0] + off * np.cos(ang), center[1] + off * np.sin(ang),
                    center[2] + depth)
            ops.append(Op("pairing", {"region": kind, "center": center, "radius": radius,
                                      "bump": bump, "r": r, "on_face": on_face}))
        return _shuffled(rng, ops)

    def run(self, op, span):
        p = op.params
        kind = op.kind
        if kind == "defect":
            # the normal search scales with the node count squared; at this
            # order two defects take about half of the pass
            region = _region("ball", p["center"], p["radius"], order=16, n_angular=32)
            tcol = geometry.build_transversal_collar(region)
            data = testfns.random_trig_vector(p["data_seed"], n_modes=2, kmax=1.0)
            fld = fields.catalog("rigid_rotation").vector_field
            return traces.tangentiality_defect(fld, region, tcol, data.value, DEFECT_EPS)
        region = _region(p["region"], p["center"], p["radius"])
        if kind == "pairing":
            entry = fields.catalog("rigid_rotation")
            bump = testfns.radial_bump(p["bump"], p["r"])
            return traces.trace_pairing(entry.curl, entry.vector_field, region, bump)
        tcol = geometry.build_transversal_collar(region)
        man = _face(p["region"], p["center"], p["radius"])
        if kind == "layerwise":
            fld = fields.catalog(p["field"]).vector_field
            return traces.estimate_trace_layerwise(fld, man, tcol, LAYER_T)
        if p["measure"] == "line":
            mu = fields.catalog("line_vortex").curl
        elif p["measure"] == "lebesgue":
            mu = fields.catalog("rigid_rotation").curl
        else:
            c = p["center"]
            sheet = fields.SheetPart(
                geometry.disk_patch((c[0], c[1], c[2] + p["sheet_t"]), p["radius"]),
                lambda x: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                          (np.atleast_2d(x).shape[0], 3)).copy())
            mu = fields.CurlMeasure(sheet_parts=(sheet,))
        scan = selection.maximal_transversal(mu, man, tcol, SCAN_T)
        return scan, selection.good_set_scan(scan, p["lam"])

    def check(self, op, out):
        p = op.params
        if op.kind == "defect":
            return oracles.check_defect(out)
        if op.kind == "pairing":
            return oracles.check_pairing(out, p["bump"], p["r"], p["on_face"])
        if op.kind == "layerwise":
            c = np.asarray(p["center"])
            if p["region"] == "ball":
                normals = -(out.points - c) / np.linalg.norm(out.points - c, axis=1)[:, None]
            else:
                normals = np.tile([0.0, 0.0, 1.0], (len(out.points), 1))
            return oracles.check_layerwise(p["field"], out.points, normals, out.values,
                                           out.converged)
        scan, report = out
        why = oracles.check_maximal(p["measure"], scan.values, SCAN_T,
                                    face_area=np.pi * p["radius"] ** 2,
                                    sheet_depth=p["sheet_t"])
        return why or oracles.check_weak_bound(report.complement_measure, report.weak_bound)

    def digest(self, out):
        if isinstance(out, tuple):
            scan, report = out
            return digest(list(scan.values) + [scan.collar_mass, report.complement_measure])
        if isinstance(out, traces.TangentialTrace):
            return digest(out.values)
        return digest(out)


# ---------------------------------------------------------------------------
# sheet: RK4 steps of bumped periodic vortex sheets
# ---------------------------------------------------------------------------

# markers per side, steps; the median step is a 24^2 one, mid-block
SHEET_PLAN = ((16, 2), (24, 4), (32, 1))
SHEET_DT = 0.01
N_PROBES = 6


class Sheet:

    def ops(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        ops = []
        for n, steps in SHEET_PLAN:
            ang = rng.uniform(0.0, 2.0 * np.pi)
            mag = rng.uniform(0.5, 2.0)
            params = {"n": n, "gamma": (mag * np.cos(ang), mag * np.sin(ang), 0.0),
                      "amplitude": float(rng.uniform(0.01, 0.05)),
                      "probes": tuple(int(i) for i in rng.choice(n * n, N_PROBES,
                                                                   replace=False))}
            ops += [Op("step", dict(params, step=k)) for k in range(steps)]
        return [replace(op, slot=i) for i, op in enumerate(ops)]

    def __init__(self):
        self._state = None  # the steps of one sheet are consecutive ops

    def run(self, op, span):
        p = op.params
        if p["step"] == 0:
            self._state = birkhoff_rott.flat_periodic_sheet(
                p["n"], p["n"], gamma=p["gamma"], bump_amplitude=p["amplitude"])
        before = self._state
        self._state = birkhoff_rott.step(before, SHEET_DT)
        return before, self._state

    def check(self, op, out):
        _, after = out
        if not np.all(np.isfinite(after.markers)):
            return "non-finite markers"
        probes = after.markers.reshape(-1, 3)[list(op.params["probes"])]
        ref = oracles.br_direct(after.markers, after.strength, after.weights, after.desing,
                                after.periods, probes)
        return oracles.check_velocity(birkhoff_rott.br_velocity(after, probes), ref)

    def digest(self, out):
        return digest(out[1].markers)

    @staticmethod
    def circulation_drift(out):
        before, after = out
        c0 = np.linalg.norm(birkhoff_rott.diagnostics(before)["circulation"])
        c1 = np.linalg.norm(birkhoff_rott.diagnostics(after)["circulation"])
        return abs(c1 - c0) / c0


WORKLOADS = {"reproduce": Reproduce, "flux_sweep": FluxSweep, "trace_scan": TraceScan,
             "sheet": Sheet}

"""Command-line driver: configuration ingestion, dispatch, result emission.

Subcommands: trace, stokes, maximal, br, validate, reproduce; the
table COMMANDS names each one's keys once, as its flags and its --config keys.
Output is CSV with a '#'-prefixed metadata header, or the same table as JSON.
Runs are deterministic for a fixed configuration: quadrature orders and all
seeds are pinned, so repeated runs emit byte-identical files.

Exit codes: 0 pass; 1 a failed check or a closed output pipe; 2 bad input or
config; 3 a route's refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import birkhoff_rott as br
from . import fields as flds
from . import geometry as geo
from . import selection, stokes, traces
from .sequences import GAP_TOL
from .testfns import smooth_bump

FLOAT_FMT = "%.12g"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        params = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        if getattr(args, "config", None):
            try:
                with open(args.config) as fh:
                    overrides = json.load(fh)
            except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            if not isinstance(overrides, dict):
                raise ConfigError(f"config {args.config} must hold a JSON object, "
                                  f"not {type(overrides).__name__}")
            unknown = sorted(set(overrides) - {*COMMANDS[args.command][1], "emit", "out"})
            if unknown:
                raise ConfigError(f"{args.command} reads no {', '.join(unknown)}")
            params.update(overrides)
        return cls(args.command, params)


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> Optional[bool]:
        """Whether no row's status reads FAIL; None for a table without a
        status column."""
        if "status" not in self.columns:
            return None
        status = self.columns.index("status")
        return all(row[status] != "FAIL" for row in self.rows)

    def emit(self, fmt: str = "csv", out=None) -> None:
        out = out or sys.stdout
        if fmt == "json":
            payload = {"metadata": self.metadata, "columns": self.columns,
                       "rows": [[_jsonify(v) for v in r] for r in self.rows]}
            if self.passed is not None:
                payload["passed"] = self.passed
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        for k in sorted(self.metadata):
            out.write(f"# {k}: {self.metadata[k]}\n")
        if self.passed is not None:
            out.write(f"# passed: {self.passed}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return FLOAT_FMT % v
    if isinstance(v, (np.floating,)):
        return FLOAT_FMT % float(v)
    return str(v)


def _jsonify(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def _number(text, name: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, not {text!r}") from None


def _param(p: dict, key: str, default, kind: type):
    """The number under `key` (flag or --config value), else `default`, as a
    float or an int (`kind`); a boolean, a non-number or, for an int, a
    non-integral value is refused."""
    value = p.get(key, default)
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    number = _number(value, key)
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return int(number)


def _parse_spec(spec, keys: dict) -> tuple[str, dict]:
    """(shape, parameters) of 'shape:key=number,...' or of a JSON-style dict
    with a 'shape' key; `keys` maps each shape to the keys it reads, and any
    other shape or key is refused."""
    if not isinstance(spec, str):
        shape, kv = spec.get("shape"), {k: v for k, v in spec.items() if k != "shape"}
    else:
        shape, _, rest = spec.partition(":")
        kv = {}
        for item in filter(None, rest.split(",")):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"{spec!r}: {item!r} must read key=value")
            kv[key] = _number(value, f"{spec!r}: {key}")
    if shape not in keys:
        raise ConfigError(f"unknown shape {shape!r}; choose one of {', '.join(keys)}")
    unknown = sorted(set(kv) - set(keys[shape]))
    if unknown:
        raise ConfigError(f"{shape} reads only {', '.join(keys[shape])}, "
                          f"not {', '.join(unknown)}")
    return shape, kv


SURFACE_KEYS = {"disk": ("r", "center", "x", "y", "z", "normal", "order"),
                **dict.fromkeys(("cap", "spherical_cap"), ("r", "center", "colatitude")),
                "sphere": ("r", "center")}
REGION_KEYS = {**dict.fromkeys(("ball", "half_ball", "half-ball"), ("r", "center", "order")),
               "cylinder": ("r", "center", "z0", "z1", "order"),
               "box": ("center", "half_widths", "order")}


def _finite(kv: dict, key: str, default: float) -> float:
    value = _param(kv, key, default, float)
    if not np.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, not {value:g}")
    return value


def _positive(kv: dict, key: str, default: float) -> float:
    value = _finite(kv, key, default)
    if not value > 0.0:
        raise ConfigError(f"{key} must be a finite positive number, not {value:g}")
    return value


def _vector(kv: dict, key: str, default) -> np.ndarray:
    """The three finite numbers under `key` (a JSON spec's list), else `default`."""
    value = kv.get(key, default)
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = np.zeros(0)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        # a string spec gives one number per key
        hint = "; use a JSON spec (or x=,y=,z= for a disk's center)" if v.ndim == 0 else ""
        raise ConfigError(f"{key} must be three finite numbers, not {value!r}{hint}")
    return v


def _order(kv: dict, default: int) -> int:
    order = _param(kv, "order", default, int)
    if order < 1:
        raise ConfigError(f"order must be at least 1, not {order}")
    return order


def parse_surface(spec) -> geo.SurfacePatch:
    """Surface spec: 'disk:r=0.5,z=0.5' or a JSON-style dict."""
    shape, kv = _parse_spec(spec, SURFACE_KEYS)
    r = _positive(kv, "r", 1.0)
    if shape == "disk":
        center = _vector(kv, "center", [_finite(kv, key, 0.0) for key in "xyz"])
        normal = _vector(kv, "normal", (0.0, 0.0, 1.0))
        if not normal.any():
            raise ConfigError("normal must not be the zero vector")
        return geo.disk_patch(center, r, normal, order=_order(kv, geo.DEFAULT_ORDER))
    center = _vector(kv, "center", (0.0, 0.0, 0.0))
    if shape == "sphere":
        return geo.sphere_patch(center, r)
    colatitude = _param(kv, "colatitude", np.pi / 2, float)
    if not 0.0 < colatitude < np.pi:
        raise ConfigError(f"colatitude must lie in (0, pi), not {colatitude:g}")
    return geo.spherical_cap_patch(center, r, colatitude)


def parse_region(spec) -> geo.SolidRegion:
    """Region spec: 'cylinder:r=1,z0=0,z1=1' or a JSON-style dict."""
    shape, kv = _parse_spec(spec, REGION_KEYS)
    order = _order(kv, geo.BOX_ORDER if shape == "box" else geo.DEFAULT_ORDER)
    center = _vector(kv, "center", (0.0, 0.0, 0.0))
    if shape == "box":
        h = _vector(kv, "half_widths", (1.0, 1.0, 1.0))
        if not np.all(h > 0.0):
            raise ConfigError(f"half_widths must be positive, not {kv['half_widths']!r}")
        return geo.box_region(center, h, order=order)
    r = _positive(kv, "r", 1.0)
    if shape == "ball":
        return geo.ball_region(center, r, order=order)
    if shape in ("half_ball", "half-ball"):
        return geo.half_ball_region(center, r, order=order)
    z0, z1 = _finite(kv, "z0", 0.0), _finite(kv, "z1", 1.0)
    if not z1 > z0:
        raise ConfigError(f"z1 must exceed z0, not {z0:g} and {z1:g}")
    return geo.cylinder_region(center, r, z0, z1, order=order)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> ResultTable:
    if config.command not in COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    _, keys, handler = COMMANDS[config.command]
    if "field" in keys and "field" not in config.params:
        raise ConfigError(f"{config.command} needs a field, from --field or --config")
    table = handler(config.params)
    table.metadata.setdefault("tool", f"curlflux {__version__}")
    table.metadata.setdefault("command", config.command)
    return table


def cmd_trace(p: dict) -> ResultTable:
    entry = flds.catalog(p["field"])
    region = parse_region(p.get("region", "cylinder"))
    # flat disk faces and closed spheres, each sampled on the region's own rule
    faces = [patch for patch in region.boundary if patch.name in ("disk", "sphere")]
    if not faces:
        raise ConfigError(f"trace samples flat disk faces and closed spheres; region "
                          f"{region.name!r} has neither")
    tcol = geo.build_transversal_collar(region)
    t_grid = _parse_grid(p.get("t_grid", "2^-2..2^-9"))
    side = p.get("side", "interior")
    if side not in ("interior", "exterior"):
        raise ConfigError(f"side must be interior or exterior, not {side!r}")
    rows = []
    for patch in faces:
        tt = traces.estimate_trace_layerwise(entry.vector_field, patch, tcol, t_grid, side)
        for x, v, c, r in zip(tt.points, tt.values, tt.converged,
                              tt.tangentiality_residual):
            rows.append([patch.name, x[0], x[1], x[2], v[0], v[1], v[2], bool(c), r])
    return ResultTable(
        ["patch", "x", "y", "z", "trace_x", "trace_y", "trace_z", "converged", "residual"],
        rows, metadata={"field": p["field"], "side": side,
                        "t_grid": ",".join(FLOAT_FMT % t for t in t_grid)})


def _parse_grid(spec) -> tuple:
    """A grid of finite numbers: 2^-a..2^-b with a <= b, or a list."""
    text = str(spec)
    try:
        if isinstance(spec, (list, tuple)):
            grid = tuple(float(v) for v in spec)
        elif ".." in text and text.startswith("2^-"):
            lo, hi = text.replace("2^-", "").split("..")
            grid = tuple(2.0 ** (-k) for k in range(int(lo), int(hi) + 1))
        else:
            grid = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"t_grid must read 2^-a..2^-b or a list of numbers, "
                          f"not {spec!r}") from None
    if not grid:
        raise ConfigError(f"t_grid {spec!r} is empty; 2^-a..2^-b needs a <= b")
    if not all(np.isfinite(grid)):
        raise ConfigError(f"t_grid must hold finite numbers, not {spec!r}")
    return grid


def _j_range(p: dict, start: int, default_max: int) -> range:
    """Ramp exponents start ... delta_max_j; an empty range has no verdict."""
    jmax = _param(p, "delta_max_j", default_max, int)
    if jmax < start:
        raise ConfigError(f"delta_max_j must be at least {start}, not {jmax}")
    return range(start, jmax + 1)


def cmd_stokes(p: dict) -> ResultTable:
    entry = flds.catalog(p["field"])
    patch = parse_surface(p.get("surface", "disk:r=1"))  # a disk, a cap or a closed sphere
    route = p.get("route", "tangential")
    if route not in ("tangential", "mass", "transversal"):
        raise ConfigError(f"route must be tangential, mass or transversal, not {route!r}")
    if route != "tangential" and "delta_max_j" in p:
        raise ConfigError(f"delta_max_j applies to the tangential route only, not {route}")
    if route != "transversal" and "region" in p:
        raise ConfigError(f"region applies to the transversal route only, not {route}")
    t = _param(p, "t", 0.0, float)
    trace = flds.surface_trace(entry.vector_field, patch)  # F x nu, nu read from the patch
    meta = {"field": p["field"], "route": route, "t": t}
    if route == "transversal":
        region = parse_region(p.get("region", "cylinder"))
        tcol = geo.build_transversal_collar(region)
        # the trace's divergence has an atom where a line part of the curl crosses
        atoms = flds.line_crossings(entry.curl or flds.ZERO_MEASURE,
                                    geo.shift_transversal(patch, tcol, t))
        out = stokes.stokes_transversal(trace, patch, tcol, t, singular_points=atoms)
        return ResultTable(["t", "flux", "div_mass"], [[t, out["flux"], out["div_mass"]]], meta)
    if entry.trace_breaks_radii and not (patch.name == "disk" and not patch.origin[:2].any()
                                         and np.array_equal(abs(patch.frame[2]), (0, 0, 1))):
        # the band rules split at the jump radii, circles about the z axis; they
        # are layers only of a disk about that axis, and cross any other's layers
        raise stokes.StokesRefusal(
            f"{p['field']} jumps on circles about the z axis, so the tangential and mass "
            "routes take it only on a disk centred on that axis with normal +-e3")
    col = geo.build_tangential_collar(patch)
    if route == "tangential":
        res = stokes.stokes_tangential(trace, patch, col, t, j_range=_j_range(p, 2, 12),
                                       breaks_radii=entry.trace_breaks_radii)
        columns, rows = ["delta", "ramp_integral"], [[d, v] for d, v in
                                                     zip(res.deltas, res.delta_values)]
        meta.update(t_osc=FLOAT_FMT % res.t_osc,
                    flux=FLOAT_FMT % res.extrapolated if res.converged else "n/a")
    else:
        pairing, mass, res = stokes.boundary_pairing_mass(
            trace, patch, col, t, breaks_radii=entry.trace_breaks_radii)
        columns, rows = ["t", "flux_mass", "pairing", "t_osc"], [[t, mass, pairing, res.t_osc]]
    # the verdict's evidence: the Richardson gap and the tolerance GAP_TOL * scale
    meta.update(gap=FLOAT_FMT % res.gap, scale=FLOAT_FMT % res.scale,
                tolerance=FLOAT_FMT % (GAP_TOL * res.scale), verdict=res.verdict)
    return ResultTable(columns, rows, meta)


def cmd_maximal(p: dict) -> ResultTable:
    entry = flds.catalog(p["field"])
    region = parse_region(p.get("region", "cylinder"))
    patch = parse_surface(p.get("surface", "disk:r=1"))
    tcol = geo.build_transversal_collar(region)
    t_grid = _parse_grid(p.get("t_grid", tuple(np.linspace(0.05, 0.45, 9))))
    lam = _param(p, "lam", 4.0, float)
    if not lam > 0.0:
        raise ConfigError(f"lam must be positive, not {lam:g}")
    if entry.curl is None:
        raise ConfigError("field carries no curl measure")
    scan = selection.maximal_transversal(entry.curl, patch, tcol, t_grid)
    report = selection.good_set_scan(scan, lam)
    good = set(report.good_t)
    rows = [[t, v, "yes" if t in good else "no"] for t, v in zip(scan.t_grid, scan.values)]
    return ResultTable(["t", "maximal", "good"], rows,
                       metadata={"field": p["field"], "lambda": lam,
                                 "collar_mass": FLOAT_FMT % scan.collar_mass,
                                 "weak_bound_holds": report.holds})


def cmd_br(p: dict) -> ResultTable:
    grid = p.get("grid", "16x16")
    try:
        n1, n2 = (int(v) for v in str(grid).lower().split("x"))
    except ValueError:
        raise ConfigError(f"grid must read N1xN2, not {grid!r}") from None
    if min(n1, n2) < 1:
        raise ConfigError(f"grid {grid!r} has no markers")
    gamma = p.get("gamma", "1,0,0")
    if isinstance(gamma, str):
        gamma = tuple(_number(v, "gamma") for v in gamma.split(","))
    dt = _param(p, "dt", 0.01, float)
    steps = _param(p, "steps", 10, int)
    dump_every = _param(p, "dump_every", max(1, steps // 4), int)
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, not {steps}")
    if dump_every < 1:
        raise ConfigError(f"dump_every must be at least 1, not {dump_every}")
    desing = p.get("delta_br")
    amp = _param(p, "amplitude", 0.0, float)
    sheet = br.flat_periodic_sheet(n1, n2, gamma=gamma,
                                   desing=None if desing is None else _number(desing, "delta_br"),
                                   bump_amplitude=amp)
    rows = []
    def dump(step_idx, s):
        x = s.markers.reshape(-1, 3)
        for i, xi in enumerate(x):
            rows.append([step_idx, FLOAT_FMT % s.time, i, xi[0], xi[1], xi[2]])
    dump(0, sheet)
    s = sheet
    for k in range(1, steps + 1):
        s = br.step(s, dt)
        if k % dump_every == 0 or k == steps:
            dump(k, s)
    d = br.diagnostics(s)
    return ResultTable(["step", "time", "marker", "x", "y", "z"], rows,
                       metadata={"grid": f"{n1}x{n2}", "dt": dt, "steps": steps,
                                 "desing": FLOAT_FMT % s.desing,
                                 "circulation": " ".join(FLOAT_FMT % c
                                                         for c in d["circulation"])})


def cmd_validate(p: dict) -> ResultTable:
    entry = flds.catalog(p["field"])
    region = parse_region(p.get("region", "half_ball"))
    tol = _param(p, "tol", 1e-8, float)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tol must be a finite non-negative number, not {tol:g}")
    phi = smooth_bump(region.center + np.array([0.1, 0.0, 0.2]), 2.5)
    from .testfns import random_trig_vector
    other = random_trig_vector(11, n_modes=2, kmax=1.0)
    res = stokes.smooth_validators(entry.vector_field, region, phi, other)
    rows = [[k, v, "pass" if v <= tol else "FAIL"] for k, v in sorted(res.items())]
    return ResultTable(["identity", "residual", "status"], rows,
                       metadata={"field": p["field"], "tolerance": tol})


def _annuli_ramp_closed_form(j: int) -> float:
    """The annuli's ramp integral at width 2^-j and t = 0:
    pi (-1)^(j+1) (2/3 - 0.6 2^-j)."""
    return np.pi * (-1.0) ** (j + 1) * (2.0 / 3.0 - 0.6 * 2.0 ** (-j))


# ---------------------------------------------------------------------------
# paper-value reproductions
# ---------------------------------------------------------------------------


def cmd_reproduce(p: dict) -> ResultTable:
    """The reproduction `name`."""
    name = p.get("name")
    if name not in REPRODUCTIONS:
        raise ConfigError(f"unknown reproduction {name!r}; choose one of {REPRODUCE_NAMES}")
    table = REPRODUCTIONS[name]()
    table.metadata["name"] = name
    return table


def _repro_explicitcompute() -> ResultTable:
    entry = flds.catalog("annuli")
    disk = geo.disk_patch((0, 0, 0), 1.0)
    col = geo.build_tangential_collar(disk)
    trace = flds.surface_trace(entry.vector_field, disk)
    res = stokes.stokes_tangential(trace, disk, col, 0.0, j_range=range(1, 11),
                                   breaks_radii=entry.trace_breaks_radii)
    rows = []
    for j, v in enumerate(res.delta_values, start=1):
        closed = _annuli_ramp_closed_form(j)
        err = abs(v - closed)
        rows.append([f"I({j})", v, closed, err, "pass" if err <= 1e-12 else "FAIL"])
    rows.append(["tOsc", res.t_osc, 4.0 * np.pi / 3.0, "",
                 "pass" if res.t_osc >= 4.0 * np.pi / 3.0 - 0.1 else "FAIL"])
    rows.append(["verdict", res.verdict, "NON-CONVERGENT", "",
                 "pass" if not res.converged else "FAIL"])
    res03 = stokes.stokes_tangential(trace, disk, col, 0.3,
                                     breaks_radii=entry.trace_breaks_radii)
    rows.append(["t=0.3", res03.verdict, "CONVERGED", "",
                 "pass" if res03.converged else "FAIL"])
    return ResultTable(["quantity", "computed", "expected", "error", "status"], rows)


def _repro_distclaim() -> ResultTable:
    entry = flds.catalog("line_vortex")
    region = geo.cylinder_region(order=20, n_angular=64)
    tcol = geo.build_transversal_collar(region)
    disk = geo.disk_patch((0, 0, 0), 1.0)
    trace = flds.surface_trace(entry.vector_field, disk)
    rows = []
    for t in (0.15, 0.3, 0.45):
        atoms = flds.line_crossings(entry.curl, geo.shift_transversal(disk, tcol, t))
        out = stokes.stokes_transversal(trace, disk, tcol, t, singular_points=atoms)
        err = abs(out["flux"] - 1.0)
        rows.append([f"flux(height={t:g})", out["flux"], 1.0, err,
                     "pass" if err <= 1e-3 else "FAIL"])
    return ResultTable(["quantity", "computed", "expected", "error", "status"], rows)


def _repro_maxlaim() -> ResultTable:
    entry = flds.catalog("newtonian")
    region = geo.half_ball_region(order=32, n_angular=96)
    face = flds.surface_trace(entry.vector_field, region.boundary[0])
    rows = []
    eps = 1e-3
    tests = [smooth_bump((0.25, -0.1, 0.0), 0.9, plateau=0.3),
             smooth_bump((0.0, 0.3, 0.0), 0.8, plateau=0.4)]
    for i, phi in enumerate(tests):
        pairing = traces.trace_pairing(entry.curl, entry.vector_field, region, phi)
        pv = traces.pv_face_pairing(face, (0, 0, 0), 1.0, phi, eps)
        err = float(np.linalg.norm(pairing - pv))
        rows.append([f"pv_vs_pairing[{i}]", float(np.linalg.norm(pairing)),
                     float(np.linalg.norm(pv)), err, "pass" if err <= 1e-3 else "FAIL"])
    return ResultTable(["quantity", "computed", "oracle", "error", "status"],
                       rows, metadata={"epsilon": eps})


def _repro_gluing() -> ResultTable:
    interface = geo.disk_patch((0, 0, 0), 1.0)
    pw, mu = flds.make_vortex_sheet(flds.constant_field((1.0, 0.0, 0.0)),
                                    flds.constant_field((0.0, 0.0, 0.0)), interface)
    region = geo.ball_region(radius=1.0, order=20)
    tv = flds.gluing_total_variation(pw, region)
    err = abs(tv - np.pi)
    res_n, res_t = stokes.rankine_hugoniot_check(pw)
    rows = [["total_variation", tv, np.pi, err, "pass" if err <= 1e-6 else "FAIL"],
            ["rh_normal", res_n, "", "", "report"],
            ["rh_tangential", res_t, 0.0, res_t, "pass" if res_t <= 1e-10 else "FAIL"]]
    return ResultTable(["quantity", "computed", "expected", "error", "status"], rows)


def _repro_density() -> ResultTable:
    entry = flds.catalog("rigid_rotation")
    center = np.array([0.3, 0.2, 0.7])
    radius = 1.0
    disk = geo.disk_patch(center, radius, n_angular=512)
    e1, e2, n = disk.frame
    col = geo.build_tangential_collar(disk)
    trace = flds.surface_trace(entry.vector_field, disk)
    r_grid = [2.0 ** (-k) for k in range(3, 9)]
    rows = []
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False) + 0.1
    for i, a in enumerate(angles):
        ring = np.cos(a) * e1 + np.sin(a) * e2
        x0 = center + radius * ring
        tau = np.cross(n, -ring)
        expected = -float(entry.vector_field.eval(x0[None, :])[0] @ tau)
        dens = stokes.stokes_density(trace, disk, col, 0.0, x0, r_grid)
        err = abs(dens - expected)
        rows.append([f"density[{i}]", dens, expected, err,
                     "pass" if err <= 1e-2 else "FAIL"])
    return ResultTable(["quantity", "computed", "expected", "error", "status"], rows)


def _repro_weak11() -> ResultTable:
    region = geo.cylinder_region(order=16, n_angular=48)
    tcol = geo.build_transversal_collar(region)
    disk = geo.disk_patch((0, 0, 0), 1.0)
    t_grid = np.linspace(0.02, 0.48, 24)
    lams = [2.0 ** k for k in range(-4, 5)]
    rows = []
    cases = {"line_vortex": flds.catalog("line_vortex").curl,
             "rigid_rotation": flds.catalog("rigid_rotation").curl,
             "newtonian": flds.catalog("newtonian").curl}
    sheet = flds.SheetPart(geo.disk_patch((0, 0, 0.25), 1.0),
                           lambda pts: np.broadcast_to(np.array([0.0, 1.0, 0.0]),
                                                       (np.atleast_2d(pts).shape[0], 3)).copy())
    cases["concentrated_sheet"] = flds.CurlMeasure(sheet_parts=(sheet,))
    for label, mu in cases.items():
        scan = selection.maximal_transversal(mu, disk, tcol, t_grid)
        for lam in lams:
            rep = selection.good_set_scan(scan, lam)
            rows.append([label, lam, rep.complement_measure, rep.weak_bound,
                         "pass" if rep.holds else "FAIL"])
    return ResultTable(["measure", "lambda", "bad_set_measure", "weak_bound", "status"],
                       rows, metadata={"constant": selection.WEAK11_CONSTANT})


# the order is each reproduction's benchmark slot
REPRODUCTIONS = {"maxlaim": _repro_maxlaim, "distclaim": _repro_distclaim,
                 "explicitcompute": _repro_explicitcompute, "gluing": _repro_gluing,
                 "density": _repro_density, "weak11": _repro_weak11}
REPRODUCE_NAMES = tuple(REPRODUCTIONS)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# each command's summary, the keys it reads and its handler: each key is a flag
# (t_grid is --t-grid), reproduce's one key its positional, and a --config file
# may set these keys, emit and out, nothing else; `run` refuses a command that
# reads a field and is given none
COMMANDS = {
    "trace": ("layerwise boundary trace samples", ("field", "region", "side", "t_grid"),
              cmd_trace),
    "stokes": ("Stokes functional routes: the flux of the curl through a disk, cap or closed "
               "sphere, from the face trace F x nu",
               ("field", "surface", "region", "route", "t", "delta_max_j"), cmd_stokes),
    "maximal": ("maximal-function scan", ("field", "region", "surface", "t_grid", "lam"),
                cmd_maximal),
    "br": ("vortex-sheet evolution",
           ("grid", "gamma", "delta_br", "dt", "steps", "dump_every", "amplitude"), cmd_br),
    "validate": ("smooth-field integral identities", ("field", "region", "tol"), cmd_validate),
    "reproduce": ("closed-form value reproductions", ("name",), cmd_reproduce),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curlflux",
                                 description="Vorticity-flux and vortex-sheet toolkit",
                                 epilog="Exit codes: 0 pass; 1 a failed check or a closed "
                                        "output pipe; 2 bad input or config; 3 a route's "
                                        "refusal.")
    ap.add_argument("--version", action="version", version=f"curlflux {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, keys, _) in COMMANDS.items():
        # flags left out stay out of the namespace: each cmd_* holds the defaults
        # and checks every value, from a flag or from --config
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file overriding flags")
        sp.add_argument("--emit")
        sp.add_argument("--out", help="output path (default stdout)")
        for key in keys:
            if name == "reproduce":
                sp.add_argument(key, choices=REPRODUCE_NAMES)
            else:
                sp.add_argument("--" + key.replace("_", "-"), dest=key)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        fmt, out_path = config.params.get("emit", "csv"), config.params.get("out")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"emit must be csv or json, not {fmt!r}")
        if not isinstance(out_path, (str, type(None))):  # open() takes an int as a descriptor
            raise ConfigError(f"out must be a path, not {out_path!r}")
        table = run(config)
    except (ConfigError, flds.FieldError, geo.GeometryError, br.SheetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except stokes.StokesRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    if out_path:
        try:
            with open(out_path, "w") as fh:
                table.emit(fmt, fh)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            table.emit(fmt)
            sys.stdout.flush()
        except BrokenPipeError:
            # reader gone: point stdout at devnull so the exit flush cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if table.passed is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

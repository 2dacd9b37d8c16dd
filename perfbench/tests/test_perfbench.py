"""Tests of the benchmark's oracles and tracer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

from curlflux import birkhoff_rott, fields, geometry, stokes
from perfbench import oracles, worker
from perfbench.tracer import Tracer
from perfbench.workloads import Op

BUMP = 1.0 + 1e-3  # the perturbation every oracle must reject


def test_flux_oracle_rejects_perturbed_values():
    center = (0.2, -0.1, 0.5)
    for route, t in (("tangential", 0.2), ("transversal", 0.3)):
        exact = oracles.flux_expected("rigid_rotation", route, 1.3, center, t)
        assert oracles.check_flux("rigid_rotation", route, 1.3, center, t, exact) is None
        assert oracles.check_flux("rigid_rotation", route, 1.3, center, t, exact * BUMP)
        assert oracles.check_flux("rigid_rotation", route, 1.3, center, t, None)
    assert oracles.check_flux("line_vortex", "mass", 0.5, center, 0.1, 1.0) is None
    assert oracles.check_flux("line_vortex", "mass", 0.5, center, 0.1, BUMP)


def test_annuli_oracle_needs_the_verdict_and_the_value():
    center = (1.0, 2.0, -0.3)
    # no limit at t = 0 and on the transversal route: any reported value fails
    assert oracles.check_flux("annuli", "tangential", 0.7, center, 0.0, None) is None
    assert oracles.check_flux("annuli", "tangential", 0.7, center, 0.0, 1.0)
    assert oracles.check_flux("annuli", "transversal", 0.7, center, 0.2, 1.0)
    exact = oracles.flux_expected("annuli", "mass", 0.7, center, 0.2)
    assert exact == pytest.approx(2.0 * np.pi * 0.7 * 0.8)
    assert oracles.check_flux("annuli", "mass", 0.7, center, 0.2, exact) is None
    assert oracles.check_flux("annuli", "mass", 0.7, center, 0.2, exact * BUMP)
    assert oracles.check_flux("annuli", "mass", 0.7, center, 0.2, None)


def test_trace_and_scan_oracles_reject_perturbed_values():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    nu = np.tile([0.0, 0.0, 1.0], (50, 1))
    exact = np.cross(oracles.rigid_rotation(pts), nu)
    ok = np.ones(50, bool)
    assert oracles.check_layerwise("rigid_rotation", pts, nu, exact, ok) is None
    assert oracles.check_layerwise("rigid_rotation", pts, nu, exact * BUMP, ok)
    assert oracles.check_layerwise("rigid_rotation", pts, nu, exact, ~ok)

    t_grid = (0.1, 0.2, 0.3)
    assert oracles.check_maximal("line", [2.0] * 3, t_grid) is None
    assert oracles.check_maximal("line", [2.0, 2.0 * BUMP, 2.0], t_grid)
    area = np.pi * 0.8 ** 2
    assert oracles.check_maximal("lebesgue", [4.0 * area] * 3, t_grid, face_area=area) is None
    assert oracles.check_maximal("lebesgue", [4.0 * area * BUMP] * 3, t_grid, face_area=area)
    assert oracles.check_maximal("sheet", [5.0, np.inf, 5.0], t_grid, sheet_depth=0.2) is None
    assert oracles.check_maximal("sheet", [5.0, 5.0, 5.0], t_grid, sheet_depth=0.2)

    assert oracles.check_weak_bound(1.5, 1.5) is None
    assert oracles.check_weak_bound(1.5 * BUMP, 1.5)
    assert oracles.check_defect(oracles.DEFECT_MAX) is None
    assert oracles.check_defect(oracles.DEFECT_MAX * BUMP)

    c0, r = (0.5, 0.2, 0.0), 0.2
    exact, _ = oracles.face_pairing(c0, r)
    assert oracles.check_pairing(exact, c0, r, on_face=True) is None
    assert oracles.check_pairing(exact * BUMP, c0, r, on_face=True)
    assert oracles.check_pairing(np.zeros(3), c0, r, on_face=False) is None
    assert oracles.check_pairing(exact * 1e-3, c0, r, on_face=False)


def test_face_pairing_mass_is_the_bump_integral():
    # 2 pi * int_0^r phi(rho) rho drho = 4 pi r^2 / 7 for the quintic profile
    _, mass = oracles.face_pairing((0.0, 0.0, 0.0), 0.3)
    assert mass == pytest.approx(4.0 * np.pi * 0.09 / 7.0, rel=1e-14)


def _reproduce_rows():
    j = range(1, 11)
    closed = [oracles.annuli_ramp(k) for k in j]
    tail = closed[4:]
    return {
        "explicitcompute": [[f"I({k})", v] for k, v in zip(j, closed)]
        + [["tOsc", max(tail) - min(tail)]],
        "distclaim": [["flux(height=0.15)", 1.0], ["flux(height=0.3)", 1.0]],
        "gluing": [["total_variation", np.pi], ["rh_normal", 0.0], ["rh_tangential", 0.0]],
        "density": [[f"density[{i}]", v] for i, v in enumerate(oracles._density_expected())],
        "maxlaim": [[f"pv_vs_pairing[{i}]", oracles.newtonian_face_pv(c, r, p)]
                    for i, (c, r, p) in enumerate(oracles.MAXLAIM_BUMPS)],
        "weak11": [["line_vortex", 1.0, 0.48, 15.0], ["newtonian", 1.0, 0.0, 0.0]],
    }


def test_reproduce_oracles_reject_perturbed_values():
    for name, rows in _reproduce_rows().items():
        assert oracles.check_reproduce(name, rows) is None, name
        bad = [list(r) for r in rows]
        col = 2 if name == "weak11" else 1
        bad[-1][col] = bad[-1][col] * BUMP if bad[-1][col] else 1e-3
        if name == "weak11":
            bad[-1][3] = bad[-1][2] / BUMP
        assert oracles.check_reproduce(name, bad), name


def test_newtonian_pv_matches_the_seed_reproduction():
    # the maxlaim target agrees with both routes of the program to ~1e-6
    got = [oracles.newtonian_face_pv(c, r, p) for c, r, p in oracles.MAXLAIM_BUMPS]
    assert got == pytest.approx([0.119549010903, 0.14427421049], rel=1e-5)


def test_direct_sum_matches_the_sheet_kernel():
    sheet = birkhoff_rott.flat_periodic_sheet(8, 8, gamma=(1.0, 0.4, 0.0), bump_amplitude=0.05)
    sheet = birkhoff_rott.step(sheet, 0.01)
    probes = sheet.markers.reshape(-1, 3)[[0, 9, 30, 63]]
    ref = oracles.br_direct(sheet.markers, sheet.strength, sheet.weights, sheet.desing,
                            sheet.periods, probes)
    got = birkhoff_rott.br_velocity(sheet, probes)
    assert oracles.check_velocity(got, ref) is None
    assert oracles.check_velocity(got * BUMP, ref)


def test_span_self_times_on_nested_fixture():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.active = True
    with tracer.span("a.root"):            # 0 .. 10
        with tracer.span("b.child"):       # 1 .. 4
            with tracer.span("c.leaf"):    # 2 .. 3
                pass
        with tracer.span("b.child"):       # 5 .. 9
            pass
    assert list(tracer.span_parent) == [-1, 0, 1, 0]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summary()
    assert summary["b.child"] == {"calls": 2, "incl_s": 7.0, "self_s": 6.0}
    assert summary["a.root"]["self_s"] == 3.0


def test_rebinding_tracer_counts_ramp_integrals_through_stokes_binding():
    original = stokes.ramp_integral
    assert original is geometry.ramp_integral
    tracer = Tracer()
    tracer.install()
    try:
        assert stokes.ramp_integral is geometry.ramp_integral is not original
        entry = fields.catalog("rigid_rotation")
        man = geometry.disk_manifold((0.0, 0.0, 0.0), 1.0)
        col = geometry.build_tangential_collar(man)
        res = stokes.stokes_tangential(entry.trace_z_plane, man, col, 0.0)
    finally:
        tracer.uninstall()
    assert res.converged
    summary = tracer.summary()
    assert summary["geometry.ramp_integral"]["calls"] == 11
    assert summary["stokes.stokes_tangential"]["calls"] == 1
    assert summary["geometry.TangentialCollar.layer"]["calls"] > 0
    assert tracer.judged == 1 and tracer.converged == 1
    assert stokes.ramp_integral is original


class _Constant:
    """A workload of two trivial ops, for checking the metric plumbing."""

    def ops(self, seed, pass_index):
        return [Op("const", slot=0), Op("const", slot=1)]

    def run(self, op, span):
        return 1.0

    def check(self, op, out):
        return None

    def digest(self, out):
        return "-"


def test_emitted_metrics_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    plain = worker.PassRunner(_Constant(), 0, calibration=worker.Calibration())
    assert plain.run_for(0.0) == worker.MIN_PASSES
    gated, report = worker.end_to_end(plain)
    units = {k: u for k, (_, u) in gated.items()}
    units["setup_s"] = "s"
    assert units == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert report["op_slots"] == 2 and report["ops_run"] == 2 * worker.MIN_PASSES

    tracer = Tracer()
    traced = worker.PassRunner(_Constant(), 0, tracer)
    tracer.active = True
    for index in range(worker.MIN_PASSES):
        traced.run_pass(index)
    tracer.active = False
    layers = worker.per_layer(tracer, traced, plain)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"]
                                                     for m in bench["per_layer"]}
    assert tracer.summary()["bench.const"]["calls"] == 2 * worker.MIN_PASSES

import ast
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from curlflux import cli
from curlflux.sequences import GAP_TOL

GOLDEN = Path(__file__).parent / "golden"


def _csv(command: str, params: dict) -> tuple[cli.ResultTable, str]:
    table = cli.run(cli.RunConfig(command, params))
    buf = io.StringIO()
    table.emit("csv", buf)
    return table, buf.getvalue()


@pytest.mark.parametrize("name", cli.REPRODUCE_NAMES)
def test_reproduce_matches_golden_csv(name):
    # the reproductions are deterministic, so their CSVs are compared byte for byte
    _, text = _csv("reproduce", {"name": name})
    assert text == (GOLDEN / f"{name}.csv").read_text()


def test_stokes_transversal_reports_no_verdict():
    # the transversal route evaluates one Gauss-Green functional and judges no sequence
    table, text = _csv("stokes", {"field": "rigid_rotation", "route": "transversal"})
    assert "verdict" not in table.metadata
    assert "verdict" not in text
    assert table.columns == ["t", "flux", "div_mass"]
    assert len(table.rows) == 1


@pytest.mark.parametrize("surface, flux", [("disk:x=3,r=0.5", 0.0), ("disk:x=0.2,r=0.5", 1.0),
                                           ("disk:z=1", 1.0)])
def test_stokes_transversal_gives_the_line_vortex_an_atom_only_where_its_axis_crosses(
        surface, flux):
    # the axis (the z axis) misses a disk centred at x = 3, so no circulation
    # passes it; on the disks it crosses, bottom or top face, the atom carries 1
    table, _ = _csv("stokes", {"field": "line_vortex", "route": "transversal",
                               "region": "cylinder:r=5", "surface": surface, "t": 0.25})
    assert table.rows[0][1] == pytest.approx(flux, abs=1e-3)


def test_br_dumps_every_step_of_a_short_run():
    table, text = _csv("br", {"grid": "8x8", "steps": 2})
    assert table.columns == ["step", "time", "marker", "x", "y", "z"]
    assert len(table.rows) == 3 * 64
    assert [r[0] for r in table.rows[::64]] == [0, 1, 2]
    circulation = [float(c) for c in table.metadata["circulation"].split()]
    assert len(circulation) == 3 and all(math.isfinite(c) for c in circulation)
    assert text.splitlines()[-1].startswith("2,")


@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_stokes_reports_the_gap_its_scale_and_tolerance(route):
    table, _ = _csv("stokes", {"field": "rigid_rotation", "route": route})
    meta = table.metadata
    assert meta["verdict"] == "CONVERGED"
    gap, scale, tol = (float(meta[k]) for k in ("gap", "scale", "tolerance"))
    assert abs(gap) <= tol == pytest.approx(GAP_TOL * scale, rel=1e-11)
    assert scale == pytest.approx(2.0 * np.pi, rel=1e-3)


@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_a_closed_sphere_has_flux_0_not_minus_0(route):
    # a closed sphere's collar is empty, so every ramp integral and the limit are +0.0
    table, text = _csv("stokes", {"field": "rigid_rotation", "surface": "sphere", "route": route})
    assert "-0" not in text
    if route == "tangential":
        assert table.metadata["flux"] == "0"
    else:
        assert table.columns[1:3] == ["flux_mass", "pairing"]
        assert text.splitlines()[-1].split(",")[1:3] == ["0", "0"]


@pytest.mark.parametrize("jmax, verdict", [(5, "NON-CONVERGENT"), (6, "CONVERGED")])
def test_stokes_needs_five_ramp_widths_for_a_verdict(jmax, verdict):
    # widths 2^-2 ... 2^-jmax: the Richardson gap needs five of them
    table, _ = _csv("stokes", {"field": "rigid_rotation", "delta_max_j": jmax})
    assert table.metadata["verdict"] == verdict
    assert table.metadata["flux"] == ("n/a" if jmax == 5 else "6.28318530718")


@pytest.mark.parametrize("spec", ["disk:r=0.5", {"shape": "disk", "r": 0.5},
                                  "cap:r=0.5", {"shape": "spherical_cap", "r": 0.5},
                                  "sphere:r=0.5"])
def test_r_is_the_surface_radius_key(spec):
    assert cli.parse_surface(spec).scale == 0.5


@pytest.mark.parametrize("spec", ["ball:r=0.5", "half_ball:r=0.5", {"shape": "ball", "r": 0.5},
                                  "cylinder:r=0.5"])
def test_r_is_the_region_radius_key(spec):
    region = cli.parse_region(spec)
    assert region.radius == 0.5


def _main_output(argv, tmp_path) -> bytes:
    out = tmp_path / "out.csv"
    assert cli.main([*_with_config(argv, tmp_path), "--out", str(out)]) == 0
    return out.read_bytes()


def _with_config(argv, tmp_path):
    # a dict in argv is the content of a --config file
    config = tmp_path / "config.json"
    for a in argv:
        if isinstance(a, dict):
            config.write_text(json.dumps(a))
    return [str(config) if isinstance(a, dict) else a for a in argv]


@pytest.mark.parametrize("argv, sha256", [
    (["trace", "--field", "plane_wave_em", "--region", "ball"],
     "379bf9ca9fd21d201b0e2fe01614f1dcd1ebd37d0383097dcbb444348e0c7db8"),
    (["trace", "--field", "rigid_rotation", "--region", "half_ball", "--side", "exterior"],
     "c54e2632b9c9467a83f4c2c1da14df3bb024d6f8578e7113905aa514981f3753"),
])
def test_trace_csv_matches_golden_digest(argv, sha256, tmp_path):
    # the layerwise trace CSVs run to 180-250 kB, so their sha256 is the golden record
    text = _main_output(argv, tmp_path)
    assert text.count(b"\n") == 6 + 2304
    assert hashlib.sha256(text).hexdigest() == sha256


@pytest.mark.parametrize("name, argv", [
    ("stokes_tangential", ["stokes", "--field", "plane_wave_em", "--surface", "disk:r=0.5,x=0.2",
                           "--t", "0.1"]),
    ("stokes_mass", ["stokes", "--field", "plane_wave_em", "--surface", "disk:r=0.5,x=0.2",
                     "--t", "0.1", "--route", "mass"]),
    # the line vortex crosses the shifted disk, so its divergence has an atom
    ("stokes_transversal", ["stokes", "--field", "line_vortex", "--surface", "disk:r=0.5,x=0.2",
                            "--t", "0.1", "--route", "transversal", "--region", "cylinder:r=5"]),
    ("maximal_sphere", ["maximal", "--field", "plane_wave_em", "--region", "ball",
                        "--surface", "sphere"]),
    ("maximal_line", ["maximal", "--field", "line_vortex"]),
    # a cap's collar on both boundary routes, and a closed sphere's, which has no bands
    ("stokes_cap_tangential", ["stokes", "--field", "rigid_rotation", "--surface",
                               "cap:colatitude=1.1", "--t", "0.1"]),
    ("stokes_cap_mass", ["stokes", "--field", "rigid_rotation", "--surface",
                         "cap:colatitude=1.1", "--t", "0.1", "--route", "mass"]),
    ("stokes_sphere", ["stokes", "--field", "plane_wave_em", "--surface", "sphere"]),
    # the axis crosses every slid sphere twice: 4 at every t
    ("maximal_ball_line", ["maximal", "--field", "line_vortex", "--region", "ball",
                           "--surface", "sphere"]),
])
def test_stokes_and_maximal_match_golden_csv(name, argv, tmp_path):
    assert _main_output(argv, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def test_validate_rigid_rotation_passes_on_its_defaults(tmp_path):
    # the default bump's plateau covers the half ball, so the Gauss rule
    # never meets its transition shell
    table, _ = _csv("validate", {"field": "rigid_rotation"})
    assert table.passed
    assert [r[0] for r in table.rows] == ["D1", "D2", "D3"]
    assert all(r[1] <= table.metadata["tolerance"] and r[2] == "pass" for r in table.rows)
    assert cli.main(["validate", "--field", "rigid_rotation", "--out",
                     str(tmp_path / "out.csv")]) == 0


def test_trace_pairs_each_cylinder_face_with_its_own_slide():
    # the default region is the cylinder, whose two flat faces share a name;
    # every face row of rigid rotation must read F x nu with the inner normal
    table = cli.run(cli.RunConfig("trace", {"field": "rigid_rotation"}))
    rows = np.array([r[1:7] for r in table.rows if r[0] == "disk"], dtype=float)
    x, trace = rows[:, :3], rows[:, 3:]
    nu = np.where(x[:, 2:] > 0.5, -1.0, 1.0) * np.array([0.0, 0.0, 1.0])
    field = np.stack([-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1)
    assert np.any(nu[:, 2] < 0.0)
    np.testing.assert_allclose(trace, np.cross(field, nu), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("spec, face", [("half_ball:order=8", "disk"), ("ball:order=8", "sphere")])
def test_trace_samples_each_face_on_the_region_rule(spec, face):
    # an order-8 region has 8 x 96 nodes on its face, not the default 24 x 96
    table = cli.run(cli.RunConfig("trace", {"field": "rigid_rotation", "region": spec}))
    assert len(table.rows) == 8 * 96
    assert {r[0] for r in table.rows} == {face}


@pytest.mark.parametrize("spec, order", [("box", 16), ("box:order=24", 24)])
def test_a_box_builds_the_rules_of_its_order(spec, order):
    # a box given no order keeps box_region's own 16; any other is honoured
    region = cli.parse_region(spec)
    assert [len(rule.nodes) for rule in region.volume_rules] == [order] * 3
    assert {face.weights.size for face in region.boundary} == {order * order}


@pytest.mark.parametrize("argv, params", [
    (["trace", "--field", "rigid_rotation", "--region", "half_ball:order=8"],
     {"field": "rigid_rotation", "region": "half_ball:order=8"}),
    (["stokes", "--field", "rigid_rotation"], {"field": "rigid_rotation"}),
    # a --config key reaches the command as its flag does
    (["stokes", "--field", "rigid_rotation", "--t", "0.3", "--route", "mass"],
     {"field": "rigid_rotation", "t": 0.3, "route": "mass"}),
    (["stokes", "--field", "rigid_rotation", "--config", {"t": 0.3, "route": "mass"}],
     {"field": "rigid_rotation", "t": 0.3, "route": "mass"}),
    (["maximal", "--field", "line_vortex"], {"field": "line_vortex"}),
    (["br", "--grid", "8x8", "--steps", "8"], {"grid": "8x8", "steps": 8}),
    (["validate", "--field", "rigid_rotation"], {"field": "rigid_rotation"}),
    (["maximal", "--field", "line_vortex", "--region", "ball", "--surface", "sphere"],
     {"field": "line_vortex", "region": "ball", "surface": "sphere"}),
    (["reproduce", "gluing"], {"name": "gluing"}),
    # a field set only in --config reads as the flag
    (["stokes", "--config", {"field": "rigid_rotation"}], {"field": "rigid_rotation"}),
])
def test_main_and_run_fill_in_the_same_defaults(argv, params, tmp_path):
    assert _main_output(argv, tmp_path).decode() == _csv(argv[0], params)[1]


def test_br_with_zero_steps_dumps_the_initial_sheet(tmp_path):
    text = _main_output(["br", "--grid", "8x8", "--steps", "0"], tmp_path).decode()
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    assert len(rows) == 64 and all(r.startswith("0,") for r in rows)


def test_validate_honours_a_zero_tolerance(tmp_path):
    out = tmp_path / "out.csv"
    argv = ["validate", "--field", "rigid_rotation", "--tol", "0", "--out", str(out)]
    assert cli.main(argv) == 1
    assert "# tolerance: 0.0\n" in out.read_text()


@pytest.mark.parametrize("argv", [
    ["maximal", "--field", "line_vortex", "--lam", "0"],
    ["stokes", "--field", "rigid_rotation", "--route", "transversal", "--region", "ball",
     "--surface", "sphere", "--t", "0.1"],
    ["br", "--grid", "4x4", "--dump-every", "0"],
    ["br", "--grid", "4x4", "--steps", "1", "--dt", "0"],
    ["br", "--grid", "4x4", "--steps", "1", "--dt", "-1"],
    ["stokes", "--field", "rigid_rotation", "--route", "transversal", "--t", "0.6"],
    ["stokes", "--field", "rigid_rotation", "--delta-max-j", "1"],
    # options the chosen route does not read
    ["stokes", "--field", "rigid_rotation", "--route", "mass", "--delta-max-j", "3"],
    ["stokes", "--field", "rigid_rotation", "--route", "transversal", "--delta-max-j", "3"],
    ["stokes", "--field", "rigid_rotation", "--region", "ball"],
    # malformed numbers in specs and lists
    ["br", "--gamma", "x"],
    ["maximal", "--field", "line_vortex", "--t-grid", "abc"],
    ["stokes", "--field", "rigid_rotation", "--surface", "disk:r=x"],
    ["stokes", "--field", "rigid_rotation", "--surface", "disk:r"],
    ["trace", "--field", "rigid_rotation", "--region", "ball:order=x"],
    ["br", "--grid", "4x4", "--steps", "1", "--delta-br", "x"],
    # keys the shape does not read, and shapes that do not exist
    ["stokes", "--field", "rigid_rotation", "--surface", "disk:rr=0.5"],
    ["stokes", "--field", "rigid_rotation", "--surface", "cap:radius=0.5"],
    ["stokes", "--field", "rigid_rotation", "--surface", "torus:r=1"],
    ["trace", "--field", "rigid_rotation", "--region", "ball:radius=0.5"],
    ["trace", "--field", "rigid_rotation", "--region", "box:r=0.5"],
    # sheet values that would end in a traceback or in non-finite markers
    ["br", "--grid", "4x4", "--steps", "1", "--gamma", "1,0"],
    ["br", "--grid", "4x4", "--steps", "1", "--dt", "nan"],
    ["br", "--grid", "4x4", "--steps", "1", "--dt", "inf"],
    ["br", "--grid", "4x4", "--steps", "1", "--delta-br", "nan"],
    ["br", "--grid", "4x4", "--steps", "1", "--amplitude", "nan"],
    ["br", "--grid", "4x4", "--steps", "1", "--gamma", "nan,0,0"],
    # grids with non-finite values or no values at all
    ["maximal", "--field", "rigid_rotation", "--t-grid", "nan"],
    ["trace", "--field", "rigid_rotation", "--t-grid", "inf"],
    ["trace", "--field", "rigid_rotation", "--t-grid", "2^-5..2^-2"],
    # a field the catalog does not hold
    ["stokes", "--field", "oscillating_gradient"],
    # tolerances no residual can be judged against
    ["validate", "--field", "rigid_rotation", "--tol", "nan"],
    ["validate", "--field", "rigid_rotation", "--tol", "-1"],
    # --config values outside the choices the flags accept (a dict is the file's content)
    ["trace", "--field", "rigid_rotation", "--config", {"side": "inner"}],
    ["trace", "--field", "rigid_rotation", "--config", {"emit": "xml"}],
    # an output path that is no path (open() would take 2 as stderr's descriptor)
    ["stokes", "--field", "rigid_rotation", "--config", {"out": 2}],
    # --config numbers that skip the flags' type conversion
    ["stokes", "--field", "rigid_rotation", "--config", {"t": "abc"}],
    ["br", "--grid", "4x4", "--config", {"steps": 1.5}],
    ["br", "--grid", "4x4", "--steps", "1", "--config", {"dump_every": True}],
    ["maximal", "--field", "line_vortex", "--config", {"lam": [1.0]}],
    # --config keys the command does not read, misspelt or no key at all
    ["stokes", "--field", "rigid_rotation", "--config", {"tt": 0.3, "rout": "mass"}],
    ["stokes", "--field", "rigid_rotation", "--config", {"config": "x"}],
    # flag values each command checks as it checks --config values
    ["stokes", "--field", "rigid_rotation", "--route", "sideways"],
    ["trace", "--field", "rigid_rotation", "--side", "inner"],
    ["stokes", "--field", "rigid_rotation", "--emit", "xml"],
    ["stokes", "--field", "rigid_rotation", "--t", "abc"],
    ["br", "--grid", "4x4", "--steps", "1.5"],
    # a region with no face the trace command samples
    ["trace", "--field", "rigid_rotation", "--region", "box"],
    # surfaces smaller than the region face that a maximal scan reads whole, or off its centre
    ["maximal", "--field", "rigid_rotation", "--surface", "disk:r=0.5"],
    ["maximal", "--field", "rigid_rotation", "--region", "ball", "--surface", "cap:r=1"],
    ["maximal", "--field", "rigid_rotation", "--surface", "disk:x=0.3", "--t-grid", "0.1"],
])
def test_refused_values_exit_2_with_an_error_line(argv, tmp_path, capsys):
    _assert_refused(argv, tmp_path, capsys)


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "malformed", "list"])
def test_an_unreadable_config_exits_2_with_an_error_line(content, tmp_path, capsys):
    # a file that is not there, not JSON, or JSON that is no object
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    err = _assert_refused(["stokes", "--field", "rigid_rotation", "--config", str(config)],
                          tmp_path, capsys)
    assert str(config) in err


def test_an_unwritable_out_path_exits_2_with_an_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["reproduce", "gluing", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_the_transversal_route_refuses_a_sphere_for_its_own_reason(tmp_path, capsys):
    # rigid rotation has no line part, so no line crossing is sought on the
    # sphere, and the refusal is the one of the surface divergence
    err = _assert_refused(["stokes", "--field", "rigid_rotation", "--route", "transversal",
                           "--region", "ball", "--surface", "sphere", "--t", "0.1"],
                          tmp_path, capsys)
    assert "surface divergence implemented for flat disks only" in err
    assert "line crossings" not in err


def test_maximal_names_the_centre_of_a_disk_off_the_face(tmp_path, capsys):
    # the unit disk at x = 0.3 has the bottom face's area but leaves the unit cylinder
    err = _assert_refused(["maximal", "--field", "rigid_rotation", "--surface", "disk:x=0.3"],
                          tmp_path, capsys)
    assert "centre [0.0, 0.0, 0.0]" in err and "centred at [0.3, 0.0, 0.0]" in err


@pytest.mark.parametrize("argv, named", [
    # unchecked, these misspelt keys ran the tangential route at t = 0 and exited 0
    (["stokes", "--field", "rigid_rotation", "--config", {"tt": 0.3, "rout": "mass"}],
     ["stokes reads no rout, tt"]),
    (["stokes", "--field", "rigid_rotation", "--route", "sideways"],
     ["tangential", "mass", "transversal"]),
    # one check and one message for every band and every collar
    (["stokes", "--field", "rigid_rotation", "--route", "mass", "--t", "0.9"],
     ["ramp band outside collar range"]),
    (["stokes", "--field", "rigid_rotation", "--surface", "sphere", "--t", "-0.1"],
     ["ramp band outside collar range"]),
])
def test_a_refusal_names_the_unread_keys_or_the_choices(argv, named, tmp_path, capsys):
    err = _assert_refused(argv, tmp_path, capsys)
    assert all(word in err for word in named), err


@pytest.mark.parametrize("command", [name for name, (_, keys, _) in cli.COMMANDS.items()
                                     if "field" in keys])
def test_a_command_that_reads_a_field_refuses_to_run_without_one(command, tmp_path, capsys):
    # through main and through run alike, with the command's name
    assert f"{command} needs a field" in _assert_refused([command], tmp_path, capsys)
    with pytest.raises(cli.ConfigError, match=f"^{command} needs a field"):
        cli.run(cli.RunConfig(command, {}))


def _assert_refused(argv, tmp_path, capsys):
    # `cli.main` exits 2 with an error line; a dict in argv is a --config file
    assert cli.main([*_with_config(argv, tmp_path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("spec", [
    # radii must be finite and positive
    "disk:r=0", "disk:r=nan", "disk:r=-1", "sphere:r=inf", "cap:r=0",
    "ball:r=-1", "half_ball:r=0", "cylinder:r=nan",
    # orders must be integers of at least 1
    "disk:order=0", "disk:order=2.5", "ball:order=0", "ball:order=2.5",
    # a cylinder needs z1 > z0, a cap a colatitude in (0, pi)
    "cylinder:z0=1,z1=0", "cylinder:z0=0.5,z1=0.5", "cylinder:z1=inf",
    "cap:colatitude=0", "cap:colatitude=4", "cap:colatitude=nan",
    # a box needs three finite positive half-widths
    {"shape": "box", "half_widths": [1.0, 0.0, 1.0]}, {"shape": "box", "half_widths": [1.0, 1.0]},
    # coordinates must be finite, and a string spec cannot hold a vector
    "disk:x=nan", "disk:z=inf", "disk:normal=0", "disk:center=1", "ball:center=1",
    {"shape": "disk", "center": [0, "a", 0]}, {"shape": "disk", "center": [0.0, float("nan"), 0.0]},
    {"shape": "ball", "center": [0.0, 1.0]},
    # a normal must be three finite numbers, not all zero
    {"shape": "disk", "normal": [0, 0, 0]}, {"shape": "disk", "normal": [0.0, 0.0, float("inf")]},
], ids=str)
def test_shape_specs_refuse_numbers_out_of_range(spec, tmp_path, capsys):
    # `maximal` refuses these in the spec checks, before it reads a face;
    # a dict spec goes in by --config
    shape = spec["shape"] if isinstance(spec, dict) else spec.partition(":")[0]
    key = "surface" if shape in cli.SURFACE_KEYS else "region"
    argv = ["maximal", "--field", "rigid_rotation"]
    argv += ["--config", {key: spec}] if isinstance(spec, dict) else [f"--{key}", spec]
    err = _assert_refused(argv, tmp_path, capsys)
    # the refusal comes from the check on one of the spec's own keys
    keys = (set(spec) - {"shape"} if isinstance(spec, dict)
            else {item.partition("=")[0] for item in spec.partition(":")[2].split(",")})
    assert any(re.search(rf"\b{k}\b", err) for k in keys), err


# rigid rotation's curl is 2 e3, so its flux is 2 pi R^2 n_z through a disk
# and -2 pi sin^2(colatitude) through a unit cap, whose normals point inward
@pytest.mark.parametrize("spec, flux", [
    ("cap:r=1", -2.0 * np.pi),
    ("cap:r=1,colatitude=1", -2.0 * np.pi * np.sin(1.0) ** 2),
    ({"shape": "disk", "normal": [1, 0, 0]}, 0.0),
    ({"shape": "disk", "normal": [0, 0, -1]}, -2.0 * np.pi),
], ids=["cap", "cap-colatitude-1", "disk-normal-e1", "disk-normal-minus-e3"])
@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_stokes_reads_the_normal_of_any_disk_or_cap(spec, flux, route):
    table, _ = _csv("stokes", {"field": "rigid_rotation", "surface": spec, "route": route})
    assert table.metadata["verdict"] == "CONVERGED"
    got = float(table.metadata["flux"]) if route == "tangential" else table.rows[0][1]
    assert got == pytest.approx(flux, abs=1e-9)


def test_stokes_gives_the_plane_wave_its_trace():
    # curl = cos(x) e3, so the unit z-disk carries 2 pi J1(1)
    table, _ = _csv("stokes", {"field": "plane_wave_em"})
    assert table.metadata["flux"] == "2.76491937477"


# the annuli jump on circles about the z axis, which cross the layers of these
# disks inside the band rules: on the two off-axis disks a split circulation
# quadrature gives -1.59107578563 and -0.90950395719, and the ramp sequence
# converges, self-consistently, to -1.57356662385 and -0.91850238048
@pytest.mark.parametrize("surface, t", [("disk:x=0.1,r=0.9", 0.45), ("disk:x=0.3,r=0.5", 0.3),
                                        ({"shape": "disk", "normal": [1, 0, 1]}, 0.3)],
                         ids=["x=0.1", "x=0.3", "tilted"])
@pytest.mark.parametrize("route", ["tangential", "mass"])
def test_stokes_refuses_the_annuli_off_the_z_axis(surface, t, route, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"surface": surface, "t": t, "route": route}))
    assert cli.main(["stokes", "--field", "annuli", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "z axis" in err


def test_stokes_takes_the_annuli_on_a_disk_about_the_z_axis():
    # a disk centred on the axis, here with normal -e3, splits its rule at the jumps:
    # the flux is -(-2 pi 0.7) with the normal reversed
    table, _ = _csv("stokes", {"field": "annuli", "t": 0.3,
                               "surface": {"shape": "disk", "z": 0.5, "normal": [0, 0, -1]}})
    assert table.metadata["verdict"] == "CONVERGED"
    assert float(table.metadata["flux"]) == pytest.approx(2.0 * np.pi * 0.7, abs=1e-8)


def _field_name_tests(tree):
    # every comparison of a field's name (p["field"] or p.get("field")) with a
    # string literal, or a tuple, list or set of them
    def reads_field(node):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            key = node.args[0] if node.args else None
        else:
            return False
        return isinstance(key, ast.Constant) and key.value == "field"

    def literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(literal(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(reads_field(n) for n in (node.left, *node.comparators))
            and any(literal(n) for n in (node.left, *node.comparators))]


def test_the_cli_branches_on_no_field_name():
    # a field enters the routes through its entry's data (vector field, curl
    # measure, jump radii), never through its name
    assert _field_name_tests(ast.parse(Path(cli.__file__).read_text())) == []


def test_the_field_name_guard_sees_each_form():
    source = ('if p["field"] == "line_vortex": pass\n'
              'if "annuli" != p.get("field"): pass\n'
              'if p["field"] in ("a", "b"): pass\n'
              'if p["route"] == "mass" or p["field"] == name: pass\n')
    assert _field_name_tests(ast.parse(source)) == [
        "p['field'] == 'line_vortex'", "'annuli' != p.get('field')", "p['field'] in ('a', 'b')"]


@pytest.mark.parametrize("params", [{"shape": "disk", "rr": 0.5}, {"shape": "cap", "radius": 0.5},
                                    {"r": 0.5}])
def test_dict_specs_refuse_unread_keys(params):
    with pytest.raises(cli.ConfigError):
        cli.parse_surface(params)


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # as `curlflux stokes ... | head -0`: the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "curlflux.cli", "stokes", "--field",
                             "rigid_rotation"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def _keys_read(fn):
    # the keys a command function reads from its params dict: d.get("k"),
    # d["k"], "k" in d, _param(d, "k", ...) and delta_max_j through
    # _j_range(d, ...); any other use of d would hide a read, so it fails here
    d = fn.args.args[0].arg
    uses = {id(n) for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == d}
    keys = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            target, key = node.comparators[0], node.left
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            target, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_param":
            target, key = node.args[:2]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_j_range":
            target, key = node.args[0], ast.Constant("delta_max_j")
        else:
            continue
        if isinstance(target, ast.Name) and target.id == d:
            assert isinstance(key, ast.Constant), ast.unparse(node)
            keys.add(key.value)
            uses.discard(id(target))
    assert not uses, f"{fn.name} reads {d} in a form the key guard does not see"
    return keys


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_each_command_reads_exactly_the_keys_of_its_table_entry(name):
    # a read key the entry lacks would be neither a flag nor a legal --config
    # key, and a declared key nothing reads would be a flag with no effect
    _, keys, handler = cli.COMMANDS[name]
    fn = ast.parse(textwrap.dedent(inspect.getsource(handler))).body[0]
    assert _keys_read(fn) == set(keys)


def test_the_key_guard_sees_each_form():
    fn = ast.parse('def cmd(p):\n    p.get("a"); p["b"]; "c" not in p\n'
                   '    _param(p, "d", 0.0, float); _j_range(p, 1, 10)\n').body[0]
    assert _keys_read(fn) == {"a", "b", "c", "d", "delta_max_j"}
    with pytest.raises(AssertionError, match="does not see"):
        _keys_read(ast.parse("def cmd(p):\n    helper(p)\n").body[0])


def test_help_prints_the_exit_codes_of_the_module_docstring(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    doc = " ".join(cli.__doc__.split())
    codes = doc[doc.index("Exit codes:"):]
    assert codes.startswith("Exit codes: 0 pass; 1 ") and codes.endswith("3 a route's refusal.")
    assert codes in " ".join(capsys.readouterr().out.split())

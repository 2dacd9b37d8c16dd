"""The benchmark tracer wraps dataclass fields by name; a renamed field would
only fail at trace time, so its name lists are checked against the classes."""

import dataclasses
import importlib
import inspect

import numpy as np

from curlflux import fields, geometry, quadrature, sequences, stokes
from perfbench.tracer import CALLABLE_FIELDS, LAYERS, NESTED_FIELDS, Tracer


def test_traced_fields_are_dataclass_fields():
    classes = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"curlflux.{layer}")
        classes.update({name: obj for name, obj in vars(mod).items()
                        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                        and obj.__module__ == mod.__name__})
    for table in (CALLABLE_FIELDS, NESTED_FIELDS):
        for kind, names in table.items():
            assert kind in classes, kind
            fields = {f.name for f in dataclasses.fields(classes[kind])}
            assert set(names) <= fields, (kind, sorted(set(names) - fields))


def test_judge_sequence_returns_a_bool_verdict():
    # the tracer wraps `sequences.judge_sequence` by name and counts
    # `bool(result.converged)`; an array verdict would only fail at trace time
    assert callable(getattr(sequences, "judge_sequence", None))
    values = [1.0 + 2.0 ** -j for j in range(8)]
    for scale in (1.0, 0.0):
        verdict = sequences.judge_sequence(values, scale)
        assert type(verdict.converged) is bool
    assert sequences.judge_sequence(values, 1.0).converged


def test_traced_cap_and_density_routes_call_the_collar_and_build_rules():
    # the benchmark traces only disk solves; a cap's tangential route and a
    # stokes_density call go through the collar's (s, rule) callables too,
    # and every rule the tracer counts must carry `.weights`
    entry = fields.catalog("rigid_rotation")
    tracer = Tracer()
    tracer.install()
    try:
        cap = geometry.spherical_cap_patch((0.0, 0.0, 0.0), 1.0, 1.1)
        res = stokes.stokes_tangential(entry.trace_z_plane, cap,
                                       geometry.build_tangential_collar(cap), 0.1)
        disk = geometry.disk_patch((0.3, 0.2, 0.7), 1.0)
        x0 = np.array([1.3, 0.2, 0.7])
        dens = stokes.stokes_density(fields.surface_trace(entry.vector_field, disk), disk,
                                     geometry.build_tangential_collar(disk), 0.0, x0,
                                     [0.25, 0.125])
    finally:
        tracer.uninstall()
    assert res.converged and dens is not None
    summary = tracer.summary()
    for field in ("grad_s", "layer"):
        assert summary[f"geometry.TangentialCollar.{field}"]["calls"] > 0
    rules = [name for name in summary if name.startswith("quadrature.")]
    assert "quadrature.gauss_legendre_segments" in rules
    for name in rules:
        fn = getattr(quadrature, name.split(".", 1)[1])
        assert inspect.signature(fn).return_annotation is quadrature.QuadratureRule, name
        assert tracer.points[name] > 0, name

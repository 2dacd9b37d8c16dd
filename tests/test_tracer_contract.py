"""The benchmark tracer wraps dataclass fields by name; a renamed field would
only fail at trace time, so its name lists are checked against the classes."""

import dataclasses
import importlib

from curlflux import sequences
from perfbench.tracer import CALLABLE_FIELDS, LAYERS, NESTED_FIELDS


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

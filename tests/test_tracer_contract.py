"""The benchmark tracer wraps dataclass fields by name; a renamed field would
only fail at trace time, so its name lists are checked against the classes."""

import dataclasses
import importlib

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

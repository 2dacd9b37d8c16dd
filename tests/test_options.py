import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "curlflux"
# the callers the option check reads: src/ and the benchmark's own code, not
# its tests; a test is no caller
CODE = (ROOT / "src", ROOT / "perfbench")
# the constructions the dataclass-field check reads: tests count here, as the
# free-space sheet (`SheetState.periods` None) is built only by a test
CALLERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests")

# defaulted parameters that no call in src/ or perfbench/ sets, kept by name
TEST_SET_OPTIONS = {
    # the finite-difference step of a test oracle, as tests/test_consumers.py's ORACLES
    "fields.numeric_curl(h)",
    # the good-manifold gate, until the transversal route computes its own maximal value
    "stokes.stokes_transversal(maximal_value)",
    # the planted sheet density, until the gluing check gives it a consumer
    "stokes.rankine_hugoniot_check(sheet_density)",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _literal(node):
    # a literal's source form, or None for a value the code computes
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def _defaulted(fn):
    # (name, positional index or None, the default's literal) of every
    # parameter with a default; `x=x` bindings freeze a closure variable and
    # are no option
    args = fn.args
    pos = args.posonlyargs + args.args
    named = list(zip(pos[len(pos) - len(args.defaults):], args.defaults))
    named += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    offset = 1 if pos and pos[0].arg in ("self", "cls") else 0
    for a, d in named:
        if isinstance(d, ast.Name) and d.id == a.arg:
            continue
        index = pos.index(a) - offset if a in pos else None
        yield a.arg, index, _literal(d)


def _options():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "main":
                for name, index, default in _defaulted(node):
                    yield f"{path.stem}.{node.name}({name})", node.name, name, index, default


def _code_files():
    for root in CODE:
        yield from (p for p in root.rglob("*.py") if "tests" not in p.relative_to(root).parts)


STARRED = "*"


def _calls():
    # name of the callee -> (positional values, keyword values, forwards
    # **kwargs), each value a literal's dump or None for a computed one; a
    # starred positional is STARRED, since its length is not known here
    calls = {}
    for path in _code_files():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            calls.setdefault(name, []).append((
                [STARRED if isinstance(a, ast.Starred) else _literal(a) for a in node.args],
                {k.arg: _literal(k.value) for k in node.keywords if k.arg},
                any(k.arg is None for k in node.keywords)))
    return calls


def _unset_options() -> list[str]:
    # the defaulted parameters that no call passes a value other than its
    # default: a computed value counts as another, a literal equal to the
    # default does not, and *args or **kwargs may pass anything
    calls = _calls()

    def sets(value, default):
        return value is None or default is None or value != default

    def passed(fn, name, index, default):
        for positional, keywords, forwards_kw in calls.get(fn, ()):
            if forwards_kw or (name in keywords and sets(keywords[name], default)):
                return True
            if index is not None and (STARRED in positional[:index + 1] or (
                    len(positional) > index and sets(positional[index], default))):
                return True
        return False

    return [label for label, *option in _options() if not passed(*option)]


def test_every_option_is_set_by_some_caller():
    # a defaulted parameter that every call in src/ and perfbench/ leaves at
    # its default holds one value for every user, so it belongs at its use
    # as a constant
    unset = _unset_options()
    # each option kept by name exists and is still one that no caller sets
    stale = sorted(TEST_SET_OPTIONS - set(unset))
    assert not stale, f"options kept by name that are gone or set by a caller: {stale}"
    unset = [label for label in unset if label not in TEST_SET_OPTIONS]
    assert not unset, f"{len(unset)} options no caller sets: {unset}"


def test_an_option_every_caller_sets_to_its_default_is_unset(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(
        "def sphere(r, inner=True, order=ORDER, u=(-1.0, 1.0)):\n    return r\n"
        "def box(h, order=16):\n    return h\n"
        "def use(o, args):\n"
        "    return (sphere(1, inner=True), sphere(2, True, o),\n"
        "            sphere(3, inner=True, u=(0.0, 1.0)), box(*args))\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "CODE", (tmp_path,))
    # every call passes `inner` its default, True, by keyword or by position;
    # `order` takes a computed value and `u` another literal, and a starred
    # positional may set `box`'s order
    assert _unset_options() == ["mod.sphere(inner)"]


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _no_init(value):
    # field(..., init=False) is no constructor parameter
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant) and not k.value.value
                    for k in value.keywords))


def _dataclass_fields():
    # class name -> [(field name, has a default)] of the constructor fields
    # of every dataclass in src/curlflux, in declaration order
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                classes[node.name] = [(s.target.id, s.value is not None) for s in node.body
                                      if isinstance(s, ast.AnnAssign)
                                      and isinstance(s.target, ast.Name) and not _no_init(s.value)]
    return classes


def _field_settings(classes):
    # (class, field) -> the values its constructions and dataclasses.replace
    # calls give it: a literal's dump, None for a computed value, "default"
    # for a construction that leaves it at its default
    settings = {(c, f): [] for c, fields in classes.items() for f, _ in fields}
    for root in CALLERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "replace":
                    for k in node.keywords:
                        for c, fields in classes.items():
                            if k.arg in dict(fields):
                                settings[c, k.arg].append(_literal(k.value))
                    continue
                if name not in classes:
                    continue
                given = {f: _literal(arg) for (f, _), arg in zip(classes[name], node.args)}
                given.update({k.arg: _literal(k.value) for k in node.keywords if k.arg})
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    # *args or **kwargs may set any field, to a computed value
                    given.update({f: None for f, _ in classes[name]})
                for f, has_default in classes[name]:
                    if f in given:
                        settings[name, f].append(given[f])
                    elif has_default:
                        settings[name, f].append("default")
    return settings


def test_every_dataclass_field_takes_more_than_one_value():
    # a field that no construction (or dataclasses.replace) in src/,
    # perfbench/ or tests/ sets, or that every one sets to the same literal,
    # holds one value, so it belongs at its use as a constant
    settings = _field_settings(_dataclass_fields())
    one_value = [f"{c}.{f}" for (c, f), values in sorted(settings.items())
                 if set(values) <= {"default"}
                 or (len(set(values)) == 1 and values[0] is not None)]
    assert not one_value, f"{len(one_value)} fields hold one value: {one_value}"

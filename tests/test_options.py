import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "curlflux"
CALLERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted(fn):
    # (name, positional index or None) of every parameter with a default;
    # `x=x` bindings freeze a closure variable and are no option
    args = fn.args
    pos = args.posonlyargs + args.args
    named = list(zip(pos[len(pos) - len(args.defaults):], args.defaults))
    named += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    offset = 1 if pos and pos[0].arg in ("self", "cls") else 0
    for a, d in named:
        if isinstance(d, ast.Name) and d.id == a.arg:
            continue
        index = pos.index(a) - offset if a in pos else None
        yield a.arg, index


def _options():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "main":
                for name, index in _defaulted(node):
                    yield f"{path.stem}.{node.name}({name})", node.name, name, index


def _calls():
    # name of the callee -> (positional count, keyword names, forwards **kwargs);
    # a starred positional counts as one, since its length is not known here
    calls = {}
    for root in CALLERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                calls.setdefault(name, []).append((
                    len(node.args), {k.arg for k in node.keywords if k.arg},
                    any(k.arg is None for k in node.keywords)))
    return calls


def test_every_option_is_set_by_some_caller():
    # a defaulted parameter that no call in src/, perfbench/ or tests/ passes
    # holds one value, so it belongs at its use as a constant
    calls = _calls()

    def passed(fn, name, index):
        return any(name in keywords or forwards_kw or (index is not None and n_pos > index)
                   for n_pos, keywords, forwards_kw in calls.get(fn, ()))

    unset = [label for label, fn, name, index in _options() if not passed(fn, name, index)]
    assert not unset, f"{len(unset)} options no caller sets: {unset}"

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "curlflux"
PERFBENCH = ROOT / "perfbench"

# public names of src/curlflux that no code outside tests/ reaches: the
# references the tests compare against and the tests' input constructors
ORACLES = {"two_body_velocity", "numeric_curl", "trace_pairing_vector"}
CONSTRUCTORS = {"trig_scalar", "gradient_field", "bump_vector"}
ALLOWED = ORACLES | CONSTRUCTORS

# The guard sees `x.name` but not the class of `x`, so a member name that two
# or more src/ classes define counts as read only for the classes named here,
# each read through that class somewhere in src/ or perfbench/ (a member of
# its own class counts). A new class that reuses a name must be added, after
# checking that its own member has a reader.
READ_THROUGH = {
    "CatalogEntry": {"curl"},
    "Curve": {"nodes", "weights"},
    "LinePart": {"density"},
    "MaximalScan": {"values"},
    "PatchSlide": {"patch"},
    "QuadratureRule": {"nodes", "weights"},
    "RadialProfile": {"center", "radius"},
    "ScalarTestFunction": {"value"},
    "SequenceVerdict": {"converged", "gap", "scale"},
    "SheetPart": {"density", "patch"},
    "SheetState": {"normals", "weights"},
    "SolidRegion": {"center", "coordinates", "frame", "name", "nodes", "radius", "weights"},
    "StokesResult": {"converged", "gap", "scale"},
    "SurfacePatch": {"coordinates", "frame", "name", "nodes", "normals", "scale", "weights"},
    "TangentialTrace": {"converged", "values"},
    "VectorTestField": {"curl", "value"},
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _code_files():
    # src/ and the benchmark's own code; the benchmark's tests consume nothing
    yield from sorted(SRC.glob("*.py"))
    yield from sorted(p for p in PERFBENCH.rglob("*.py")
                      if "tests" not in p.relative_to(PERFBENCH).parts)


def _referenced(node):
    # (name, whether read as an attribute, the callee it is copied into) for
    # every identifier or attribute a node reads; a name inside a string,
    # such as a regex that mentions it, is no reference. An attribute passed
    # as it stands to a call is copied into the name the call is made
    # through: a class, or `replace` for `dataclasses.replace`
    copies = {id(arg): getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
              for sub in ast.walk(node) if isinstance(sub, ast.Call)
              for arg in (*sub.args, *(k.value for k in sub.keywords))
              if isinstance(arg, ast.Attribute)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, False, None
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True, copies.get(id(sub))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _member_name(member):
    # the name a class member defines: a method, a dataclass field
    # (`name: type`) or an assigned attribute such as `name = cached_property(f)`
    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
        return member.target.id
    if isinstance(member, ast.Assign) and isinstance(member.targets[0], ast.Name):
        return member.targets[0].id
    return getattr(member, "name", None)


def _is_property(member):
    # `name = property(f)` or `name = cached_property(f)`; decorated ones are methods
    return (isinstance(member, ast.Assign) and isinstance(member.value, ast.Call)
            and getattr(member.value.func, "id", None) in ("property", "cached_property"))


def _alias(node):
    # the name `name = function` binds at module level, else None
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Name)):
        return node.targets[0].id
    return None


def _public_definitions():
    # (file, class name or None, definition) for every public top-level
    # function and class, every public module-level alias of a function
    # (`name = function`), and every public method of a top-level class
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        body = _parse(path).body
        functions = {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, None, node.name
            alias = _alias(node)
            if alias and not alias.startswith("_") and node.value.id in functions:
                yield path, None, alias
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        yield path, node.name, member.name


def _state_and_helpers():
    # (file, class name or None, name) for every private top-level function
    # and class, every private method, and every dataclass field and
    # assigned property of a top-level class, in every module
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and node.name.startswith("_") and not _dunder(node.name):
                yield path, None, node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                name = _member_name(member)
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if name.startswith("_") and not _dunder(name):
                        yield path, node.name, name
                elif ((isinstance(member, ast.AnnAssign) and _is_dataclass(node))
                      or _is_property(member)) and name is not None:
                    yield path, node.name, name


def _members(top):
    # a class splits into its members; its bases and decorators read as one
    if not isinstance(top, ast.ClassDef):
        yield None, top
        return
    for node in (*top.decorator_list, *top.bases, *top.keywords):
        yield None, node
    for member in top.body:
        yield _member_name(member), member


def _shared_members():
    # member name -> the classes defining it, for names two or more define
    owners = {}
    for defs in (_public_definitions, _state_and_helpers):
        for _, cls, name in defs():
            if cls is not None:
                owners.setdefault(name, set()).add(cls)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def _unconsumed(definitions=_public_definitions):
    # where each name is read, by (file, top-level statement, class member,
    # whether as an attribute); a definition's own body does not consume it,
    # nor an alias's own assignment, so a top-level definition or alias needs
    # a reader outside its statement and a member (method, field or property)
    # one outside itself, such as another member of its class. Only an
    # attribute read (`x.name`) reaches a member: a bare name of the same
    # spelling is a local variable or another definition, and a read that
    # only copies the member into a construction of its own class or into a
    # `dataclasses.replace` passes it on without using it. A member whose
    # name another class also defines is read only if READ_THROUGH names it
    shared = _shared_members()
    readers = {}
    for path in _code_files():
        for top in _parse(path).body:
            for member, node in _members(top):
                for name, attr, copied_into in _referenced(node):
                    readers.setdefault(name, set()).add(
                        (path, getattr(top, "name", None) or _alias(top), member, attr,
                         copied_into))
    out = []
    for path, cls, name in definitions():
        found = readers.get(name, set())
        if cls is None:
            found = {r for r in found if r[:2] != (path, name)}
        else:
            found = {r for r in found if r[3] and r[:3] != (path, cls, name)
                     and r[4] not in (cls, "replace")}
            if name in shared and name not in READ_THROUGH.get(cls, ()):
                found = set()
        if not found:
            out.append(name if cls is None else f"{cls}.{name}")
    return out


def test_every_public_name_has_a_consumer():
    # a public function or class that neither src/ nor perfbench/ reaches serves
    # only its own tests: delete it, move it to tests/, or give it a command
    orphans = sorted(set(_unconsumed()) - ALLOWED)
    assert not orphans, f"no consumer in src/ or perfbench/: {orphans}"


def test_the_allowlist_names_only_unconsumed_definitions():
    # a name that gains a consumer leaves the allowlist
    assert sorted(ALLOWED - set(_unconsumed())) == []


def test_every_field_property_and_private_helper_has_a_reader():
    # state that only tests read is no output: delete it
    orphans = sorted(_unconsumed(_state_and_helpers))
    assert not orphans, f"no reader in src/ or perfbench/: {orphans}"


def test_the_read_through_list_names_only_shared_members():
    # an entry whose name no longer collides, or whose class no longer
    # defines it, leaves the list
    shared = _shared_members()
    stale = sorted(f"{cls}.{name}" for cls, names in READ_THROUGH.items() for name in names
                   if cls not in shared.get(name, ()))
    assert not stale, stale


def test_a_member_name_two_classes_share_is_read_only_through_listed_classes(tmp_path,
                                                                            monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n"
                   "@dataclass\nclass Probe:\n    point: int\n    converged: bool\n"
                   "@dataclass\nclass Result:\n    point: int\n"
                   "    def near(self):\n        return 1\n"
                   "class Shell:\n    def near(self):\n        return 2\n"
                   "def use(r, p):\n"
                   "    return r.point, p.converged, r.near(), Probe, Result, Shell\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    monkeypatch.setattr(sys.modules[__name__], "READ_THROUGH",
                        {"Result": {"point", "near"}})
    # `point` and `near` are each defined by two classes and read once, by
    # name: only the listed Result members count as read. `converged`
    # belongs to Probe alone, so its read counts; nothing reads `use`
    assert _unconsumed() == ["Shell.near", "use"]
    assert _unconsumed(_state_and_helpers) == ["Probe.point"]
    monkeypatch.setattr(sys.modules[__name__], "READ_THROUGH", {})
    assert _unconsumed() == ["Result.near", "Shell.near", "use"]
    assert _unconsumed(_state_and_helpers) == ["Probe.point", "Result.point"]


def test_a_method_read_by_its_own_class_is_consumed(tmp_path, monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("class Shape:\n"
                   "    def area(self):\n        return self.area()\n"
                   "    def size(self):\n        return 1\n"
                   "    def scale(self):\n        return self.size()\n"
                   "    def volume(self):\n        return 1\n"
                   "def use(s):\n    volume = s.scale()\n    return volume\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    # `area` reads only itself, and nothing reads `Shape` or `use`; `size` is
    # read by `scale`, and `scale` by `use`; `use` binds a local `volume`,
    # which is no read of the method
    assert _unconsumed() == ["Shape", "Shape.area", "Shape.volume", "use"]


def test_an_alias_of_a_public_function_needs_a_reader(tmp_path, monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("def build(r):\n    return r\n"
                   "make = build\nunused = build\n_private = build\nLIMIT = 3\n"
                   "def use():\n    return make(LIMIT)\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    # the aliases read `build`, and `use` reads `make`; nothing reads `unused`
    # or `use`, a private alias is no public name and a constant no alias
    assert _unconsumed() == ["unused", "use"]


def test_fields_properties_and_private_helpers_need_an_attribute_read(tmp_path, monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("from dataclasses import dataclass\n"
                   "from functools import cached_property\n"
                   "def _fit(r):\n    return r.size\n"
                   "def _lonely():\n    return 1\n"
                   "@dataclass\nclass Rec:\n    size: int\n    label: str\n"
                   "    fitted = cached_property(_fit)\n"
                   "    def __post_init__(self):\n        pass\n"
                   "    def _helper(self):\n        return self._helper()\n"
                   "class Plain:\n    unread: int\n"
                   "def use(r):\n    label = 1\n    return r.fitted, label\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    # `size` is read by `_fit`, which `fitted` reads, and `use` reads
    # `fitted`; `label` is bound only as a local, `_helper` reads only itself
    # and nothing reads `_lonely`; dunders and a plain class's annotations are
    # no state
    assert _unconsumed(_state_and_helpers) == ["_lonely", "Rec.label", "Rec._helper"]


def test_a_field_copied_into_its_own_class_or_a_replace_is_not_read(tmp_path, monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("import dataclasses\n"
                   "from dataclasses import dataclass\n"
                   "@dataclass\nclass Rule:\n    nodes: int\n    order: int\n    tag: int\n"
                   "@dataclass\nclass Box:\n    size: int\n"
                   "def column(r):\n    return Rule(r.nodes, r.order, tag=r.tag)\n"
                   "def relabel(r):\n    return dataclasses.replace(r, tag=r.tag)\n"
                   "def pack(b):\n    return Rule(b.size, 0, 0)\n"
                   "def use(r):\n    return column(relabel(r)).nodes\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    # `order` and `tag` are only copied into a new Rule or a replace;
    # `nodes` is copied too but `use` reads it, and `size` is read by the
    # construction of another class
    assert _unconsumed(_state_and_helpers) == ["Rule.order", "Rule.tag"]

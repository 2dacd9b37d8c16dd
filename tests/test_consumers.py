import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "curlflux"
PERFBENCH = ROOT / "perfbench"

# public names of src/curlflux that no code outside tests/ reaches yet
AWAITING_A_COMMAND = {  # paper quantities the CLI cannot reach
    "vorticity_flux", "vorticity_flux_cm1", "gauss_green_manifold", "faraday_face_check",
    "mass_representative_independence", "maximal_tangential", "trace_pairing_vector",
    "shrink_tangential", "band_area",
}
ORACLES = {"two_body_velocity", "numeric_curl"}  # references the tests compare against
CONSTRUCTORS = {"trig_scalar", "gradient_field", "bump_vector", "windowed"}  # test inputs
ALLOWED = AWAITING_A_COMMAND | ORACLES | CONSTRUCTORS
# public methods that only tests read, by the test that needs each one
TEST_ONLY_METHODS = {
    "TangentialCollar.layer_distance":
        "test_geometry's collar oracles and test_layer_distance_and_bilip_equal_all_pairs_minimum",
    "ManifoldDivMeasure.dual_mass_estimate": "test_stokes.test_annuli_divergence_mass_grows",
    "SolidRegion.volume": "test_geometry.test_region_volumes and test_region_boundary_tiles",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _code_files():
    # src/ and the benchmark's own code; the benchmark's tests consume nothing
    yield from sorted(SRC.glob("*.py"))
    yield from sorted(p for p in PERFBENCH.rglob("*.py")
                      if "tests" not in p.relative_to(PERFBENCH).parts)


def _referenced(node):
    # names a node reads as identifiers or attributes; a name inside a string,
    # such as a regex that mentions it, is no reference
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _public_definitions():
    # (file, class name or None, definition) for every public top-level
    # function and class, and every public method of a top-level class
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, None, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        yield path, node.name, member


def _members(top):
    # a class splits into its members; its bases and decorators read as one
    if not isinstance(top, ast.ClassDef):
        yield None, top
        return
    for node in (*top.decorator_list, *top.bases, *top.keywords):
        yield None, node
    for member in top.body:
        yield getattr(member, "name", None), member


def _unconsumed():
    # where each name is read, by (file, top-level statement, class member); a
    # definition's own body does not consume it, so a top-level definition
    # needs a reader outside its statement and a method one outside itself,
    # such as another member of its class
    readers = {}
    for path in _code_files():
        for top in _parse(path).body:
            for member, node in _members(top):
                for name in _referenced(node):
                    readers.setdefault(name, set()).add(
                        (path, getattr(top, "name", None), member))
    out = []
    for path, cls, node in _public_definitions():
        found = readers.get(node.name, set())
        if cls is None:
            found = {r for r in found if r[:2] != (path, node.name)}
        else:
            found = found - {(path, cls, node.name)}
        if not found:
            out.append(node.name if cls is None else f"{cls}.{node.name}")
    return out


def test_every_public_name_has_a_consumer():
    # a public function or class that neither src/ nor perfbench/ reaches serves
    # only its own tests: delete it, move it to tests/, or give it a command
    orphans = sorted(set(_unconsumed()) - ALLOWED - set(TEST_ONLY_METHODS))
    assert not orphans, f"no consumer in src/ or perfbench/: {orphans}"


def test_the_allowlist_names_only_unconsumed_definitions():
    # a name that gains a consumer leaves the allowlist
    assert sorted((ALLOWED | set(TEST_ONLY_METHODS)) - set(_unconsumed())) == []


def test_a_method_read_by_its_own_class_is_consumed(tmp_path, monkeypatch):
    mod = tmp_path / "mod.py"
    mod.write_text("class Shape:\n"
                   "    def area(self):\n        return self.area()\n"
                   "    def size(self):\n        return 1\n"
                   "    def scale(self):\n        return self.size()\n"
                   "def use(s):\n    return s.scale()\n")
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path / "absent")
    # `area` reads only itself, and nothing reads `Shape` or `use`; `size` is
    # read by `scale`, and `scale` by `use`
    assert _unconsumed() == ["Shape", "Shape.area", "use"]

import ast
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
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def _unconsumed():
    # where each name is read, by (file, top-level statement); a definition's
    # own body does not consume it
    readers = {}
    for path in _code_files():
        for top in _parse(path).body:
            for name in _referenced(top):
                readers.setdefault(name, set()).add((path, getattr(top, "name", None)))
    return [node.name for path, node in _public_definitions()
            if not readers.get(node.name, set()) - {(path, node.name)}]


def test_every_public_name_has_a_consumer():
    # a public function or class that neither src/ nor perfbench/ reaches serves
    # only its own tests: delete it, move it to tests/, or give it a command
    orphans = sorted(set(_unconsumed()) - ALLOWED)
    assert not orphans, f"no consumer in src/ or perfbench/: {orphans}"


def test_the_allowlist_names_only_unconsumed_definitions():
    # a name that gains a consumer leaves the allowlist
    assert sorted(ALLOWED - set(_unconsumed())) == []

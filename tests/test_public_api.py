"""Every public definition in the package has a caller outside the tests.

The scan parses src/twinforge/*.py and collects each public module-level
function and class and each public method of a module-level class. Each must
be referenced somewhere in src/, scripts/ or perfbench/, outside its own
definition, by an ast.Name or an ast.Attribute of that name. An import is
not a reference, so a package export alone does not keep a name alive.

Blind spot: the match is by name alone, so a definition whose name equals a
common attribute passes whoever calls it. Archive.dump and Archive.load, for
example, would be matched by json.dump and json.load.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")

# Public definitions that stay without a caller, each for one reason.
ALLOWED = {
    "brute_force_segment": "the exact DP oracle that PELT is tested against",
    "cluster_frequency_histogram": "an acceptance criterion tests it",
    "snapshot_state": "the twin's read API for its properties and events",
    "validate_quality": "the quality report that the run metrics still to come will call",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(root: Path) -> list[tuple[str, Path, int, int]]:
    """(name, file, first line, last line) of every public definition in
    root/src/twinforge."""
    found = []
    for path in sorted((root / "src" / "twinforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _public(node.name):
                    found.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(
                        member.name
                    ):
                        found.append((member.name, path, member.lineno, member.end_lineno))
    return found


def references(root: Path) -> dict[str, list[tuple[Path, int]]]:
    """Name -> (file, line) of each ast.Name or ast.Attribute of that name
    under root's caller directories."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def uncalled(root: Path = ROOT) -> dict[str, str]:
    """Name -> "file:line" of each public definition that has no reference
    outside its own lines."""
    refs = references(root)
    return {
        name: f"{path.relative_to(root)}:{first}"
        for name, path, first, last in public_definitions(root)
        if all(
            ref_path == path and first <= line <= last for ref_path, line in refs.get(name, ())
        )
    }


def test_every_public_definition_has_a_caller():
    dead = [f"{name} ({where})" for name, where in uncalled().items() if name not in ALLOWED]
    assert not dead, "public definitions that only tests call: " + ", ".join(dead)


def test_allowed_names_are_defined_and_uncalled():
    # an entry whose definition is gone or has gained a caller is removed
    assert sorted(uncalled()) == sorted(ALLOWED)


FUNCTION = "def f(n):\n    return f(n - 1)\n"  # its own call is not a caller
METHOD = "class C:\n    def m(self):\n        pass\n"
F_DEAD = {"f": "src/twinforge/m.py:1"}
M_DEAD = {"m": "src/twinforge/m.py:2"}

# (module source, caller source, what the scan must report)
SCAN_CASES = {
    "uncalled-function": (FUNCTION, "", F_DEAD),
    "import-is-not-a-caller": (FUNCTION, "from twinforge.m import f\n", F_DEAD),
    "called-from-scripts": (FUNCTION, "from twinforge.m import f\nf(3)\n", {}),
    "uncalled-method": (METHOD, "C()\n", M_DEAD),
    "method-called-by-attribute": (METHOD, "C().m()\n", {}),
    "private-names-are-not-scanned": ("def _f():\n    pass\n", "", {}),
}


@pytest.mark.parametrize("module, caller, expected", SCAN_CASES.values(), ids=SCAN_CASES)
def test_scan_on_a_small_tree(tmp_path, module, caller, expected):
    package = tmp_path / "src" / "twinforge"
    package.mkdir(parents=True)
    (package / "m.py").write_text(module, encoding="utf-8")
    for directory in CALLER_DIRS[1:]:
        (tmp_path / directory).mkdir()
    (tmp_path / "scripts" / "use.py").write_text(caller, encoding="utf-8")
    assert uncalled(tmp_path) == expected

"""Every public definition in the package has a caller outside the tests,
and every public field of a public dataclass has a reader.

The definition scan parses src/twinforge/*.py and collects each public
module-level function and class and each public method of a module-level
class. Each must be referenced somewhere in src/, scripts/ or perfbench/,
outside its own definition, by an ast.Name or an ast.Attribute of that name.
An import is not a reference, so a package export alone does not keep a name
alive.

The field scan collects each public annotated field of each public
module-level dataclass. Each must be read somewhere in src/, scripts/ or
perfbench/ by an ast.Attribute of its name. Passing it by keyword, as a
constructor does, is no read.

The knob scan collects each parameter with a default of each public function
and method. Each must be passed at some call in src/, scripts/ or
perfbench/, outside its own definition, to a function or method of that
name: by keyword, by position, or by a **kwargs splat (a *args splat passes
every positional parameter). A parameter no caller passes has one value in
use, its default, and belongs in a module constant. A required parameter
that every caller gives the same literal, as smooth's window once was, is
outside the scan.

The import scan reads every from-import of src/twinforge/*.py, at any
depth, that names a twinforge module, relative or absolute. None may import
an underscore name: what one module needs of another is public there. A
dunder such as __version__ is no private name.

The layer scan reads the same imports, and plain imports of a twinforge
module too, as edges between modules. Each module of src/twinforge/ has a
layer in LAYERS and imports only modules of lower layers: the wire format
and the random streams serve everything, the twin, the archive, the
analytics stages and the simulator serve the sweep, and the sweep serves the
CLI. The simulator stands in for the physical layer, so the CLI alone may
import it. __init__ and __main__, the package's doors, are outside the
scan, as importers and as imported.

The thread scan reads every import of src/twinforge/*.py, at any depth.
archive is the only module that imports threading, plainly or by a
from-import: the archive serves concurrent readers while one thread appends,
and each twin has one writer, its machine's ingest loop, so the twin takes
no lock.

Blind spot: the caller, field and knob matches are by name alone, so a
definition, a field or a parameter whose name equals a common attribute
passes whoever uses that attribute. Archive.dump and Archive.load, for
example, would be matched by json.dump and json.load, and a field named mean
by numpy's .mean. A field that only dataclasses.asdict reads must be read by
attribute somewhere else too.
"""
import ast
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")

# Public definitions that stay without a caller, each for one reason.
ALLOWED = {
    "cluster_frequency_histogram": "an acceptance criterion tests it",
    "snapshot_state": "the twin's read API for its properties and events",
}

# Public dataclass fields that stay unread, each for one reason; a class name
# stands for every field of that class.
_TWIN_READ_API = "the twin's read API for its properties and events (snapshot_state)"
ALLOWED_FIELDS = {
    "KMeansModel.centroids": "the bit-exactness oracles compare fits by their centroids",
    "ArchiveEntry.seq": "the archive's read API",
    "ArchiveEntry.tags": "the archive's read API; perfbench writes tags",
    "TwinState": _TWIN_READ_API,
    "DigitalEvent.payload": _TWIN_READ_API,
}


# Defaulted parameters that no caller passes, "function.parameter" -> the
# one reason each stays.
ALLOWED_KNOBS: dict[str, str] = {}


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if (getattr(decorator, "id", None) or getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def public_fields(root: Path) -> list[tuple[str, str, Path, int]]:
    """(class, field, file, line) of every public annotated field of every
    public dataclass in root/src/twinforge."""
    found = []
    for path in sorted((root / "src" / "twinforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node):
                for member in node.body:
                    if (
                        isinstance(member, ast.AnnAssign)
                        and isinstance(member.target, ast.Name)
                        and _public(member.target.id)
                    ):
                        found.append((node.name, member.target.id, path, member.lineno))
    return found


def references(root: Path, kinds=(ast.Name, ast.Attribute)) -> dict[str, list[tuple[Path, int]]]:
    """Name -> (file, line) of each node of kinds, ast.Name or ast.Attribute,
    of that name under root's caller directories."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, kinds):
                    continue
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def defaulted_parameters(root: Path) -> list[tuple[str, str, Optional[int], Path, int, int]]:
    """(function, parameter, position or None for keyword-only, file, first
    line, last line) of each defaulted parameter of each public function and
    method in root/src/twinforge. A method's position counts from the
    argument after self, as a call by attribute passes them."""
    found = []
    for path in sorted((root / "src" / "twinforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [(node, 0) for node in tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                functions += [(member, 1) for member in node.body]  # skip self
        for node, skip in functions:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _public(node.name):
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[skip:]
            where = (path, node.lineno, node.end_lineno)
            for index in range(len(positional) - len(args.defaults), len(positional)):
                found.append((node.name, positional[index].arg, index, *where))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((node.name, arg.arg, None, *where))
    return found


def _passes(call: ast.Call, parameter: str, position: Optional[int]) -> bool:
    """Whether call gives parameter, at position if it is positional."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_knobs(root: Path = ROOT) -> dict[str, str]:
    """The "function.parameter" -> "file:line" of each defaulted parameter of
    a public function or method that no call outside its own definition
    passes."""
    calls: dict[str, list[tuple[ast.Call, Path]]] = {}
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append((node, path))
    return {
        f"{function}.{parameter}": f"{path.relative_to(root)}:{first}"
        for function, parameter, position, path, first, last in defaulted_parameters(root)
        if not any(
            _passes(call, parameter, position)
            for call, call_path in calls.get(function, ())
            if not (call_path == path and first <= call.lineno <= last)
        )
    }


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


def unread(root: Path = ROOT) -> dict[str, str]:
    """The "Class.field" -> "file:line" of each public dataclass field that
    no ast.Attribute reads."""
    reads = references(root, kinds=ast.Attribute)
    return {
        f"{cls}.{field}": f"{path.relative_to(root)}:{line}"
        for cls, field, path, line in public_fields(root)
        if field not in reads
    }


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(root: Path = ROOT) -> list[str]:
    """"importer <- module.name", in file order, of each underscore name that
    a module of root/src/twinforge imports from a twinforge module."""
    found = []
    for path in sorted((root / "src" / "twinforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                module = node.module or "twinforge"
            elif node.module == "twinforge" or node.module.startswith("twinforge."):
                module = node.module.removeprefix("twinforge.")
            else:
                continue
            found += [f"{path.stem} <- {module}.{a.name}" for a in node.names if _private(a.name)]
    return found


def test_no_module_imports_a_private_name():
    assert private_imports() == []


# Each module's layer. A module imports only modules of a lower layer.
LAYERS = {
    "errors": 0,
    "rng": 1,
    "wire": 1,
    "twin": 2,
    "archive": 2,
    "readiness": 2,
    "analytics": 2,
    "simulate": 2,
    "orchestrator": 3,
    "cli": 4,
}
ONLY_IMPORTER = {"simulate": "cli"}  # the physical layer's stand-in
DOORS = ("__init__", "__main__")


def imported_modules(tree: ast.Module, modules) -> list[str]:
    """The twinforge module, one of modules or __init__ for the package
    itself, of each import in tree, at any depth, in file order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                a.name.removeprefix("twinforge.")
                for a in node.names
                if a.name.startswith("twinforge.")
            ]
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module  # None for "from . import"
        elif node.module == "twinforge":
            module = None
        elif node.module.startswith("twinforge."):
            module = node.module.removeprefix("twinforge.")
        else:
            continue
        if module is not None:
            found.append(module)
        else:  # from the package: a module of it, or a name __init__ defines
            found += [a.name if a.name in modules else "__init__" for a in node.names]
    return found


def layer_violations(root: Path = ROOT) -> list[str]:
    """"importer -> module", in file order, of each import of a module of
    root/src/twinforge that LAYERS forbids, and "module: no layer" for a
    module that LAYERS does not place."""
    paths = sorted((root / "src" / "twinforge").glob("*.py"))
    modules = {path.stem for path in paths}
    found = []
    for path in paths:
        importer = path.stem
        if importer in DOORS:
            continue
        if importer not in LAYERS:
            found.append(f"{importer}: no layer")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module in imported_modules(tree, modules):
            if module in DOORS:
                continue
            if not (
                LAYERS.get(module, len(LAYERS)) < LAYERS[importer]
                and ONLY_IMPORTER.get(module, importer) == importer
            ):
                found.append(f"{importer} -> {module}")
    return found


def test_every_module_imports_only_lower_layers():
    assert layer_violations() == []


def modules_importing(package: str, root: Path = ROOT) -> list[str]:
    """Each module of root/src/twinforge, in file order, with an import of
    package or of one of its submodules, at any depth."""
    found = []
    for path in sorted((root / "src" / "twinforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == package or n.startswith(package + ".") for n in names):
                found.append(path.stem)
                break
    return found


def test_only_the_archive_imports_threading():
    # the archive serves concurrent readers; each twin has one writer
    assert modules_importing("threading") == ["archive"]


def test_every_public_definition_has_a_caller():
    dead = [f"{name} ({where})" for name, where in uncalled().items() if name not in ALLOWED]
    assert not dead, "public definitions that only tests call: " + ", ".join(dead)


def test_allowed_names_are_defined_and_uncalled():
    # an entry whose definition is gone or has gained a caller is removed
    assert sorted(uncalled()) == sorted(ALLOWED)


def test_every_defaulted_parameter_is_passed():
    knobs = [
        f"{name} ({where})" for name, where in unset_knobs().items() if name not in ALLOWED_KNOBS
    ]
    assert not knobs, "parameters that no caller sets, one value in use: " + ", ".join(knobs)


def test_allowed_knobs_are_defined_and_unset():
    # an entry whose parameter is gone or has gained a caller is removed
    assert sorted(unset_knobs()) == sorted(ALLOWED_KNOBS)


def allowed_fields() -> dict[str, str]:
    """Each public dataclass field that an ALLOWED_FIELDS entry names, by
    itself or by its class, as "Class.field" -> that entry."""
    allowed = {}
    for cls, field, _, _ in public_fields(ROOT):
        name = f"{cls}.{field}"
        entry = name if name in ALLOWED_FIELDS else cls
        if entry in ALLOWED_FIELDS:
            allowed[name] = entry
    return allowed


def test_every_public_field_is_read():
    allowed = allowed_fields()
    dead = [f"{name} ({where})" for name, where in unread().items() if name not in allowed]
    assert not dead, "public fields that nobody reads: " + ", ".join(dead)


def test_allowed_fields_are_defined_and_unread():
    # an entry whose fields are gone or have gained a reader is removed
    allowed = allowed_fields()
    assert sorted(unread()) == sorted(allowed)
    assert set(allowed.values()) == set(ALLOWED_FIELDS)


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


DATACLASS = "@dataclass(frozen=True)\nclass D:\n    x: int\n    _y: int = 0\n"
X_UNREAD = {"D.x": "src/twinforge/m.py:3"}

# (module source, caller source, what the field scan must report)
FIELD_SCAN_CASES = {
    "unread-field": (DATACLASS, "D(1)\n", X_UNREAD),
    "keyword-is-not-a-read": (DATACLASS, "D(x=1)\nx = 2\n", X_UNREAD),
    "read-by-attribute": (DATACLASS, "print(D(1).x)\n", {}),
    "plain-classes-are-not-scanned": ("class D:\n    x: int\n", "", {}),
}


def small_tree(root: Path, module: str, caller: str) -> Path:
    """root with src/twinforge/m.py holding module and scripts/use.py
    holding caller."""
    package = root / "src" / "twinforge"
    package.mkdir(parents=True)
    (package / "m.py").write_text(module, encoding="utf-8")
    for directory in CALLER_DIRS[1:]:
        (root / directory).mkdir()
    (root / "scripts" / "use.py").write_text(caller, encoding="utf-8")
    return root


@pytest.mark.parametrize("module, caller, expected", SCAN_CASES.values(), ids=SCAN_CASES)
def test_scan_on_a_small_tree(tmp_path, module, caller, expected):
    assert uncalled(small_tree(tmp_path, module, caller)) == expected


@pytest.mark.parametrize(
    "module, caller, expected", FIELD_SCAN_CASES.values(), ids=FIELD_SCAN_CASES
)
def test_field_scan_on_a_small_tree(tmp_path, module, caller, expected):
    assert unread(small_tree(tmp_path, module, caller)) == expected


KNOB = "def f(x, knob=1):\n    return f(x, knob)\n"  # its own call is not a caller
KNOB_UNSET = {"f.knob": "src/twinforge/m.py:1"}
METHOD_KNOB = "class C:\n    def m(self, knob=1):\n        pass\n"

# (module source, caller source, what the knob scan must report)
KNOB_SCAN_CASES = {
    "unset-knob": (KNOB, "f(1)\n", KNOB_UNSET),
    "passed-by-position": (KNOB, "f(1, 2)\n", {}),
    "passed-by-keyword": (KNOB, "f(1, knob=2)\n", {}),
    "passed-by-kwargs-splat": (KNOB, "f(1, **options)\n", {}),
    "method-position-skips-self": (METHOD_KNOB, "C().m(2)\n", {}),
    "required-parameters-are-not-scanned": ("def f(x, n):\n    pass\n", "f(1, 5)\n", {}),
}


@pytest.mark.parametrize("module, caller, expected", KNOB_SCAN_CASES.values(), ids=KNOB_SCAN_CASES)
def test_knob_scan_on_a_small_tree(tmp_path, module, caller, expected):
    assert unset_knobs(small_tree(tmp_path, module, caller)) == expected


def test_knob_passed_only_from_tests_is_unset(tmp_path):
    root = small_tree(tmp_path, KNOB, "f(1)\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_m.py").write_text("f(1, 2)\nf(1, knob=2)\n", encoding="utf-8")
    assert unset_knobs(root) == KNOB_UNSET


# (module source, what the import scan must report)
IMPORT_SCAN_CASES = {
    "relative": ("from .analytics import _f, g\n", ["m <- analytics._f"]),
    "absolute": ("from twinforge.analytics import _f\n", ["m <- analytics._f"]),
    "from-the-package": ("from . import _f\n", ["m <- twinforge._f"]),
    "inside-a-function": ("def g():\n    from .rng import _f\n", ["m <- rng._f"]),
    "renamed": ("from .rng import _f as f\n", ["m <- rng._f"]),
    "public-names": ("from .analytics import f\nfrom . import rng\n", []),
    "a-dunder-is-not-private": ("from . import __version__\n", []),
    "other-packages-are-not-scanned": (
        "from collections.abc import Sequence as _S\nfrom numpy import _f\n", []
    ),
}


@pytest.mark.parametrize("module, expected", IMPORT_SCAN_CASES.values(), ids=IMPORT_SCAN_CASES)
def test_import_scan_on_a_small_tree(tmp_path, module, expected):
    assert private_imports(small_tree(tmp_path, module, "")) == expected


def layered_tree(root: Path, sources: dict[str, str]) -> Path:
    """root with src/twinforge/<name>.py holding each of sources."""
    package = root / "src" / "twinforge"
    package.mkdir(parents=True)
    for name, source in sources.items():
        (package / f"{name}.py").write_text(source, encoding="utf-8")
    return root


# (modules and their sources, what the layer scan must report)
LAYER_SCAN_CASES = {
    "lower-layer": ({"twin": "from .wire import Channel\n", "wire": ""}, []),
    "same-layer": ({"simulate": "from .twin import TwinInstance\n"}, ["simulate -> twin"]),
    "higher-layer": ({"wire": "from twinforge.twin import TwinInstance\n"}, ["wire -> twin"]),
    "only-cli-imports-simulate": (
        {"orchestrator": "from twinforge.simulate import check_seed\n"},
        ["orchestrator -> simulate"],
    ),
    "cli-imports-simulate": ({"cli": "from .simulate import ScenarioSpec\n"}, []),
    "module-from-the-package": (
        {"analytics": "from . import rng\n", "twin": "from . import cli\n", "rng": "", "cli": ""},
        ["twin -> cli"],
    ),
    "plain-import": ({"archive": "import twinforge.orchestrator\n"}, ["archive -> orchestrator"]),
    "inside-a-function": ({"rng": "def f():\n    from .wire import g\n"}, ["rng -> wire"]),
    "the-package-is-exempt": (
        {"cli": "from . import __version__\n", "__init__": "from .cli import main\n"}, []
    ),
    "unplaced-module": ({"m": "from .errors import NoData\n"}, ["m: no layer"]),
    "other-packages-are-not-scanned": ({"errors": "import numpy\nfrom json import dumps\n"}, []),
}


@pytest.mark.parametrize("sources, expected", LAYER_SCAN_CASES.values(), ids=LAYER_SCAN_CASES)
def test_layer_scan_on_a_small_tree(tmp_path, sources, expected):
    assert layer_violations(layered_tree(tmp_path, sources)) == expected


# (module source, whether the thread scan must report it)
THREAD_SCAN_CASES = {
    "plain": ("import threading\n", True),
    "renamed": ("import threading as th\n", True),
    "from-import": ("from threading import RLock\n", True),
    "inside-a-function": ("def f():\n    import threading\n", True),
    "among-others": ("import os, threading\n", True),
    "other-module": ("import multithreading\nfrom .threading import x\n", False),
}


@pytest.mark.parametrize("source, reported", THREAD_SCAN_CASES.values(), ids=THREAD_SCAN_CASES)
def test_thread_scan_on_a_small_tree(tmp_path, source, reported):
    root = layered_tree(tmp_path, {"m": source})
    assert modules_importing("threading", root) == (["m"] if reported else [])

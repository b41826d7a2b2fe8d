"""numpy is the runtime's one dependency: importing every twinforge module
in a clean interpreter loads no third-party module but numpy."""
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import twinforge

_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in json.loads(sys.argv[1]):
    importlib.import_module(name)
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_one_runtime_dependency():
    modules = [
        f"twinforge.{m.name}"
        for m in pkgutil.iter_modules(twinforge.__path__)
        if m.name != "__main__"
    ]
    assert "twinforge.cli" in modules and "twinforge.archive" in modules
    # -I ignores PYTHONPATH, so the package's parent goes on sys.path by hand;
    # site .pth files may preload modules, hence the difference of sys.modules
    src = str(Path(twinforge.__path__[0]).parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n" + _PROBE
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, json.dumps(modules)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert set(json.loads(out)) == {"numpy", "twinforge"}

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_imports_are_declared_dependencies():
    # Every third-party module the package imports, eagerly or inside a
    # function, must be installed by `pip install .` alone.
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in pyproject["project"]["dependencies"]
    }
    imported = set()
    for path in (ROOT / "src" / "qkalman").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"qkalman"}
    assert third_party, "no third-party imports found; the scan is broken"
    assert third_party <= declared, sorted(third_party - declared)


def test_package_import_leaves_mpmath_unloaded():
    # mpmath serves only the 60-digit acceptance row, which imports it on
    # use; loading it with the package would add to every command's start-up
    # time and memory.
    code = "import sys, qkalman, qkalman.cli; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "importing qkalman loaded mpmath"


def test_package_import_leaves_scipy_unloaded():
    # scipy serves only the tests (oracles and a minimizer); the steady
    # solve is closed form, so no command needs it.
    code = "import sys, qkalman, qkalman.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "importing qkalman loaded scipy"

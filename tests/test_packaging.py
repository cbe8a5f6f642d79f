import ast
import re
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

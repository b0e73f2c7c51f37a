import ast
import sys
from pathlib import Path

import latbal

# numpy is the only declared runtime dependency (pyproject.toml); anything
# else installed where the tests run would import fine here and fail for users
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "latbal"}


def test_package_imports_only_stdlib_and_numpy():
    imported = {}
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside latbal
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in imported
    stray = {top: where for top, where in imported.items() if top not in ALLOWED}
    assert not stray, f"undeclared dependencies (module: first importing file): {stray}"

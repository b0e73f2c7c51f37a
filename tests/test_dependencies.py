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


def test_only_dataio_writes_files_or_imports_in_a_function():
    # dataio owns the on-disk formats (the JSON artifact layout and the CSV
    # dialect included), so it alone opens a file, for reading or writing, or
    # imports csv; and an import inside a function hides a module's
    # dependencies from its header
    found = []
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        if path.name == "dataio.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.lineno, "import in a function")
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                found.append((path.name, node.lineno, "import csv"))
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                found.append((path.name, node.lineno, "json.dumps(indent=)"))
            if (getattr(node.func, "id", None) == "open"
                    or getattr(node.func, "attr", None) in ("open", "fdopen")):
                found.append((path.name, node.lineno, "open"))
    assert found == []


def test_every_text_mode_open_names_its_encoding():
    # without encoding= a text file is decoded in the locale's encoding, which
    # differs between machines; every text file latbal reads or writes is UTF-8
    found = []
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "open"
                    or getattr(node.func, "attr", None) == "fdopen")):
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            binary = any(isinstance(m, ast.Constant) and "b" in m.value for m in modes)
            if not binary and not any(kw.arg == "encoding" for kw in node.keywords):
                found.append((path.name, node.lineno))
    assert found == []

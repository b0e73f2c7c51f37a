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


def test_only_core_checks_the_type_of_a_scalar():
    # core.check_integer and core.check_number are the one check per kind of
    # scalar argument; a module that tests for bool, imports numbers or
    # compares a type(...) would hold a second one, which drifts from them
    found = []
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                found.append((path.name, node.lineno, "import numbers"))
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(n, "id", None) == "bool" for a in node.args[1:]
                            for n in ast.walk(a))):
                found.append((path.name, node.lineno, "isinstance(..., bool)"))
            # type(x) is int, type(x) in (int, float), type(x) != bool, ...
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type"
                    for n in (node.left, *node.comparators)):
                found.append((path.name, node.lineno, "type(...) compared"))
    assert found == []


def test_every_draw_comes_from_rng():
    # rng's SplitMix64 streams are the one source of random draws, so a seed
    # pins every result; random, secrets or numpy.random would draw outside
    # them (dataio's temp-file names come from os.urandom, and are no draws)
    banned = ("random", "secrets", "numpy.random")
    found = []
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                    and getattr(node.value, "id", None) in ("np", "numpy")):
                names = ["numpy.random"]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []


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


def test_only_dataio_makes_a_write_durable():
    # dataio._atomic_write is the one durable write: it starts each large
    # chunk's writeback early (through ctypes), fsyncs, renames and fsyncs
    # the directory; a second path would miss part of that
    watched = {"ctypes", "os.fsync", "os.fdatasync", "os.replace", "os.rename"}
    found = []
    for path in sorted(Path(latbal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"os.{alias.name}" for alias in node.names
                                         if node.module == "os"]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
                names = [f"os.{node.attr}"]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names if name in watched]
    assert any(where == "dataio.py" for where, *_ in found)  # the check sees the one path
    assert [use for use in found if use[0] != "dataio.py"] == []


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


def test_every_source_and_test_file_ends_in_one_newline():
    # wc -l counts newlines, so a missing final newline drops a line from it
    root = Path(__file__).resolve().parent.parent
    found = []
    for top in ("src", "tests"):
        for path in sorted((root / top).rglob("*.py")):
            data = path.read_bytes()
            if not data.endswith(b"\n") or data.endswith(b"\n\n"):
                found.append(str(path.relative_to(root)))
    assert found == []


def test_every_public_function_has_a_caller_outside_the_tests():
    # the package holds what the pipeline and the benchmark use; a function
    # only tests call belongs in tests/, as tests/rng_reference.py holds rng's
    # reference forms.  A use is an AST name or attribute outside the
    # function's own body, or an import into a module other than __init__
    # (which re-exports the API): evaluation imports two functions only so
    # that perfbench/tracing.py can wrap them there by name.  Text, such as
    # an __all__ entry or that wrapper's name string, is not a use
    root = Path(__file__).resolve().parent.parent
    package = Path(latbal.__file__).parent
    public, used = {}, set()
    for path in sorted(package.glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if path.parent == package and isinstance(top, ast.FunctionDef):
                own = top.name
                if not own.startswith("_"):
                    public[own] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != own)
    assert "normals" in public
    assert {name: where for name, where in public.items() if name not in used} == {}

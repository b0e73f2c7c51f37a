"""The benchmark wraps latbal functions by name; each name must be where it looks.

perfbench/tracing.py rebinds every (owner, attribute) in TRACE_POINTS through
``owner.__dict__[attribute]``, and perfbench/workloads.py captures return
values of named ``latbal.evaluation`` calls the same way.  A name moved or
dropped in src/ makes a traced or checked benchmark run fail with KeyError,
so these tests catch it first.  perfbench/ is only read here.  Attributes
the benchmark reads from a dataset must still answer too.
"""

import ast
import importlib.util
from pathlib import Path

import latbal as lb
import latbal.evaluation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_is_bound_on_its_owner():
    tracing = _load("tracing")
    assert tracing.TRACE_POINTS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.TRACE_POINTS if attr not in owner.__dict__]
    assert missing == []


def test_every_captured_name_is_bound_in_evaluation():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    captured = {arg.value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Capture"
                for arg in node.args if isinstance(arg, ast.Constant)}
    assert {"fit_directions", "rescore"} <= captured
    assert sorted(captured - set(latbal.evaluation.__dict__)) == []


def test_dataset_attributes_read_by_the_workloads_still_answer(tmp_path):
    # workloads.py compares edited.confidences with demo.confidences; datasets
    # no longer carry confidences, so the class attribute must read None on
    # both (np.array_equal(None, None) holds).  Once the read is gone, so is
    # the need for the attribute.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    if "confidences" not in read:
        return
    schema = lb.AttributeSchema(("a",))
    lb.write_dataset(lb.LatentDataset(codes=[[0.0]], labels=[[1]], schema=schema),
                     str(tmp_path / "d"))
    assert lb.read_dataset(str(tmp_path / "d")).confidences is None

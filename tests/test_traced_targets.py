"""The benchmark's traced run wraps fecount functions by name; each must exist."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def traced_targets():
    """The ``TARGETS`` list of ``perfbench/spans.py``, read without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert ("weyl", "coxeter_element") in targets
    assert ("counting", "CountCache.get_affine") in targets
    missing = []
    for module_name, attr in targets:
        obj = importlib.import_module(f"fecount.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced names missing from fecount: {missing}"

"""The benchmark reaches fecount by name; every name it uses must exist."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def attribute_chains(path, roots=("fc", "fecount")):
    """The attribute chains ``root.a.b`` in ``path`` that start at one of ``roots``."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add(tuple(reversed(parts)))
    return chains


def test_every_package_name_the_benchmark_reads_resolves():
    import fecount
    import fecount.cli  # noqa: F401  (the session workload imports it)

    chains = set().union(*(attribute_chains(PERFBENCH / f) for f in ("worker.py", "selftest.py")))
    assert ("OrbifoldTriple", "of") in chains and ("CountCache", "get_affine") in chains
    missing = set()
    for chain in chains:
        obj = fecount
        for i, part in enumerate(chain):
            if not hasattr(obj, part):
                missing.add(".".join(chain[: i + 1]))
                break
            obj = getattr(obj, part)
    assert not missing, f"names the benchmark reads are missing from fecount: {sorted(missing)}"

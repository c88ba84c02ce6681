"""Every public module-level function and class of shiftlab has a caller outside the tests.

A use is a name or attribute in the AST of src/shiftlab (outside the
definition itself), of perfbench/*.py or of tests/test_acceptance.py;
imports and string mentions do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shiftlab"


def used_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    in_src = sum((used_names(tree) for tree in modules.values()), Counter())
    callers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    elsewhere = set().union(*(used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in callers))
    unreached = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and in_src[node.name] == used_names(node)[node.name] and node.name not in elsewhere
    ]
    assert unreached == []

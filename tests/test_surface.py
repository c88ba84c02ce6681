"""Every public definition of shiftlab has a user outside the tests.

A module-level function, class or assigned constant is used when its name
or an attribute of that name appears in the AST of src/shiftlab (outside
the definition itself), of perfbench/*.py or of tests/test_acceptance.py;
imports and string mentions do not count. A public member of a public
class (a dataclass field, property, method or self.<name> set in
__init__) is used when an attribute read x.<name> appears in those files,
its own class included. ExperimentReport is exempt: to_json_bytes writes
every field through vars(self). The member check goes by name, so a
member that shares its name with a read member elsewhere escapes it.

The project runs no linter, so test_every_import_is_read catches the
import that a refactor orphans, in src/shiftlab and in tests/: a name bound
by a module-level import must be read in its module (from __future__ is
exempt).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shiftlab"
SERIALIZED_WHOLE = {"ExperimentReport"}


def used_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def attribute_reads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def members(cls: ast.ClassDef):
    """Names of the fields, properties and methods of cls, and of the self attributes its __init__ sets."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.FunctionDef):
            yield node.name
            if node.name == "__init__":
                yield from (
                    target.attr for target in ast.walk(node)
                    if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name) and target.value.id == "self"
                )


def parse_all():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(p.read_text(encoding="utf-8"))
               for p in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]]
    return modules, callers


def unused(names_of):
    """module.name for each public name that names_of(statement) defines in a module body and nothing uses."""
    modules, callers = parse_all()
    in_src = sum((used_names(tree) for tree in modules.values()), Counter())
    elsewhere = set().union(*(used_names(tree) for tree in callers))
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        for node in tree.body
        for name in names_of(node)
        if not name.startswith("_") and in_src[name] == used_names(node)[name] and name not in elsewhere
    ]


def test_every_public_definition_has_a_caller():
    assert unused(lambda node: [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []) == []


def test_every_public_constant_has_a_reader():
    def assigned(node):
        if isinstance(node, ast.Assign):
            return [target.id for target in node.targets if isinstance(target, ast.Name)]
        return [node.target.id] if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) else []

    assert unused(assigned) == []


def test_every_public_member_has_a_reader():
    modules, callers = parse_all()
    reads = set().union(*(attribute_reads(tree) for tree in [*modules.values(), *callers]))
    unread = [
        f"{module}.{node.name}.{name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and node.name not in SERIALIZED_WHOLE
        for name in members(node)
        if not name.startswith("_") and name not in reads
    ]
    assert unread == []


def test_every_import_is_read():
    unread = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [
            f"{path.stem}.{name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [alias.asname or alias.name.split(".")[0]]
            if name not in loads
        ]
    assert unread == []

"""One immutability idiom across the value classes, and a guard that keeps it.

Each value class is frozen: assigning to any of its fields, derived ones
included, raises AttributeError; two constructions from the same input
compare equal and a different input compares unequal; hashability is part of
each class's contract (a flag, a snake and a path word are hashable, the
dict-holding classes are not).  Five source guards ride along: no class
overrides __setattr__, no module keeps an import it does not use, every
module-level private name is read somewhere in the package, the n!
cofactor routines linalg.det and linalg.adjugate stay test references that
no other module uses, and a table kept for the life of the process is a
``functools.cache``d function, not a global filled in by hand: no function
declares ``global``, and no module-level name is bound to None or {}.
"""

import ast
from fractions import Fraction as Q
from pathlib import Path

import pytest

from teichkit.flags import Flag, LineConfig
from teichkit.snakes import FGAssignment, Snake, boundary_snake_12, boundary_snake_31
from teichkit.surface import TrianglePathWord, TriangulatedSurface, t_token

SRC = Path(__file__).resolve().parent.parent / "src" / "teichkit"


def _surface(pin):
    asg = FGAssignment.constant(2, Q(pin))
    return TriangulatedSurface({"t": asg}, [(("t", "12"), ("t", "23"))])


# (make(variant), fields, hashable); make(0) twice gives equal objects,
# make(1) a different one
CASES = {
    "Flag": (lambda v: Flag([(1, v), (0, 1)]), ("rows",), True),
    "LineConfig": (
        lambda v: LineConfig(2, {(1, 0, 0): (Q(1), Q(v))}, {}),
        ("n", "lines", "planes"),
        False,
    ),
    "Snake": (
        lambda v: boundary_snake_31(3) if v else Snake(boundary_snake_12(3).tiles),
        ("tiles", "n", "axis"),
        True,
    ),
    "FGAssignment": (
        lambda v: FGAssignment.constant(2, Q(v + 1)), ("n", "values"), False
    ),
    "TriangulatedSurface": (
        lambda v: _surface(v + 1), ("n", "triangles", "gluings", "_partner"), False
    ),
    "TrianglePathWord": (
        lambda v: TrianglePathWord(["S", t_token("t", 1 + v)]), ("tokens", "sign"), True
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_is_frozen_and_compares_by_value(name):
    make, fields, hashable = CASES[name]
    a, b, other = make(0), make(0), make(1)
    for attr in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == b and a is not b
    assert a != other
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_no_class_overrides_setattr():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__setattr__":
                        offenders.append(f"{path.name}:{item.lineno} {node.name}")
    assert not offenders, f"freeze with @dataclass(frozen=True) instead: {offenders}"


def test_no_unused_imports():
    # an import line marked noqa (the package's re-exports) is exempt
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "noqa" not in lines[node.lineno - 1]
        ]
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    assert not dead, f"private names nothing reads: {dead}"


def test_process_tables_are_cached_functions():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        offenders += [
            f"{path.name}:{node.lineno} global {', '.join(node.names)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            empty = isinstance(value, ast.Dict) and not value.keys
            if empty or isinstance(value, ast.Constant) and value.value is None:
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not offenders, f"keep a process table with @functools.cache: {offenders}"


def test_cofactor_routines_serve_tests_only():
    cofactor = {"det", "adjugate"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & cofactor
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} & cofactor if node.value.id == "linalg" else set()
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert not offenders, f"cofactor expansions outside linalg: {offenders}"

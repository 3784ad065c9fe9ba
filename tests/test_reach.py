"""Library code is reached from outside ``tests/``: every function in
``src/wvgcontrol`` has a caller in the library or the benchmark."""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import wvgcontrol

ROOT = Path(__file__).resolve().parents[1]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def _unreached(sources: dict[str, str], bench: dict[str, str], exported: set[str]) -> list[str]:
    """``module.Class.method`` (dunders exempt) and ``module.function``
    (module level, not in ``exported``) for each one that no ``Name`` id or
    ``Attribute`` attr of ``sources`` names outside its own definition, and
    no name, attr or string constant of ``bench`` names at all."""
    defined = []  # (module, qualified name, definition)
    named = defaultdict(list)  # name -> the source nodes that name it
    for module, text in sources.items():
        tree = ast.parse(text, module)
        for node in tree.body:
            if isinstance(node, _FUNCTIONS) and node.name not in exported:
                defined.append((module, node.name, node))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{method.name}", method)
                    for method in node.body
                    if isinstance(method, _FUNCTIONS)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                named[node.attr].append(node)
    benched = set()
    for module, text in bench.items():
        for node in ast.walk(ast.parse(text, module)):
            if isinstance(node, ast.Name):
                benched.add(node.id)
            elif isinstance(node, ast.Attribute):
                benched.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                benched.add(node.value)
    unreached = []
    for module, name, definition in defined:
        own = set(map(id, ast.walk(definition)))
        if definition.name not in benched and all(
            id(node) in own for node in named[definition.name]
        ):
            unreached.append(f"{module}.{name}")
    return unreached


def test_every_function_is_reached_outside_the_tests():
    sources = _sources(ROOT / "src" / "wvgcontrol")
    assert sources
    unreached = _unreached(sources, _sources(ROOT / "perfbench"), set(wvgcontrol.__all__))
    assert not unreached, (
        f"only tests call {', '.join(unreached)}: "
        "call each from src/ or perfbench/, or move it into tests/"
    )


def test_the_scan_finds_an_unreached_function():
    source = (
        "def used():\n"
        "    return 1\n"
        "def exported():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        used()\n"
        "    def again(self):\n"
        "        return self.again\n"
        "    def benched(self):\n"
        "        pass\n"
        "    def called(self):\n"
        "        pass\n"
        "C().called()\n"
    )
    bench = {"b": "'benched'\n"}
    assert _unreached({"m": source}, bench, {"exported"}) == ["m.recursive", "m.C.again"]

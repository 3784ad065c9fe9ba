"""The one integer rule, ``require_int``, and the modules that lean on it;
the one judge of a goal, ``ControlInstance``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import wvgcontrol
from wvgcontrol import BandStructureError, InputError
from wvgcontrol.errors import require_int

SOURCES = sorted(Path(wvgcontrol.__file__).parent.glob("*.py"))


def _bool_tests(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that test a scalar for ``bool``, by
    ``isinstance(x, bool)`` (``bool`` alone or in a tuple) or
    ``type(x) is bool`` / ``is not bool``, outside ``require_int``."""
    found: list[int] = []

    def names_bool(node: ast.AST) -> bool:
        if isinstance(node, ast.Tuple):
            return any(map(names_bool, node.elts))
        return isinstance(node, ast.Name) and node.id == "bool"

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "require_int":
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and names_bool(node.args[1])
        ):
            found.append(node.lineno)
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(map(names_bool, node.comparators))
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_only_require_int_tests_for_bool():
    assert SOURCES
    stray = {
        path.name: lines
        for path in SOURCES
        if (lines := _bool_tests(ast.parse(path.read_text(), str(path))))
    }
    assert stray == {}, "test for an int through errors.require_int"


def test_the_scan_finds_a_hand_written_check():
    source = (
        "def f(x):\n"
        "    if not isinstance(x, int) or isinstance(x, bool):\n"
        "        raise ValueError\n"
        "    return type(x) is bool or isinstance(x, (bool, str))\n"
        "def require_int(x):\n"
        "    return isinstance(x, bool)\n"
    )
    assert _bool_tests(ast.parse(source)) == [2, 4, 4]


def _goal_calls(tree: ast.AST) -> list[int]:
    """Lines of ``tree`` that call ``Goal(...)`` outside
    ``ControlInstance.__post_init__``, the one judge of a goal."""
    found: list[int] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
            if scope[-2:] == ("ControlInstance", "__post_init__"):
                return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Goal":
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_instance_constructor_judges_a_goal():
    stray = {
        path.name: lines
        for path in SOURCES
        if (lines := _goal_calls(ast.parse(path.read_text(), str(path))))
    }
    assert stray == {}, "pass the goal on to ControlInstance, which converts it"


def test_the_goal_scan_finds_a_stray_call():
    source = (
        "class ControlInstance:\n"
        "    def __post_init__(self):\n"
        "        self.goal = Goal(self.goal)\n"
        "    def delete(self):\n"
        "        return Goal('DECREASE')\n"
        "def __post_init__(goal):\n"
        "    return Goal(goal), Goal.DECREASE\n"
    )
    assert _goal_calls(ast.parse(source)) == [5, 7]


@pytest.mark.parametrize("value", [0, -3, 2**200])
def test_an_int_passes_through(value):
    assert require_int(value, "unused") is value


@pytest.mark.parametrize(
    "value, error, message",
    [
        (True, InputError, "n must be an integer, got True"),
        (False, InputError, "n must be an integer, got False"),
        (1.0, InputError, "n must be an integer, got 1.0"),
        ("1", InputError, "n must be an integer, got '1'"),
        (None, BandStructureError, "n must be an integer, got None"),
    ],
    ids=["true", "false", "integral-float", "digit-string", "none-as-band-error"],
)
def test_anything_else_is_refused_by_value(value, error, message):
    with pytest.raises(error) as caught:
        require_int(value, "n must be an integer", error)
    assert type(caught.value) is error
    assert str(caught.value) == message

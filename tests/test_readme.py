"""README examples run and print what their comments say."""

from __future__ import annotations

from pathlib import Path

from wvgcontrol import ExactIndex

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == ["8/2^5", "YES delete 1 x weight 3", "36", "16"]
    # the gadget's 36/2^40, and after deleting the witness a smaller index
    before, after = namespace["gadget"].game, namespace["smaller"].game
    assert before.num_players == 41
    assert ExactIndex(16, after.num_players - 1) < ExactIndex(36, 40)

"""Bit-exact document round-trips for games and instances."""

from __future__ import annotations

import json
import re

import pytest

from wvgcontrol import (
    CnfFormula,
    FileFormatError,
    Game,
    build_decrease,
    build_maintain,
    dump_game,
    dump_instance,
    load_game,
    load_instance,
    pivot_count_layered,
    witness_deletion,
)
from wvgcontrol.serialize import load_document

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")

OR2 = CnfFormula(2, (frozenset({1, 2}),))


class TestGameDocuments:
    def test_roundtrip_small(self, example1):
        assert load_game(dump_game(example1)) == example1

    def test_roundtrip_huge_weights(self):
        game = Game((10**60 + 7, 3, 10**45), 10**60)
        assert load_game(dump_game(game)) == game

    def test_decimal_strings_only(self):
        text = dump_game(Game((10**40, 5), 10**39))
        document = json.loads(text)
        for value in document["weights"] + [document["quota"]]:
            assert isinstance(value, str)
            assert re.fullmatch(r"\d+", value)

    def test_numeric_weights_rejected(self):
        with pytest.raises(FileFormatError, match="decimal string"):
            load_game('{"weights": [1, 2], "quota": "3"}')

    def test_missing_fields(self):
        with pytest.raises(FileFormatError):
            load_game('{"weights": ["1"]}')

    def test_invalid_json(self):
        with pytest.raises(FileFormatError, match="JSON"):
            load_game("not json")


class TestLoadDocument:
    def test_game_or_instance_by_fields(self, example1):
        assert load_document(dump_game(example1)) == example1
        instance = build_decrease(OR2, 1, strict=False)
        loaded = load_document(dump_instance(instance))
        assert dump_instance(loaded) == dump_instance(instance)


class TestInstanceDocuments:
    def test_roundtrip_preserves_everything(self):
        instance = build_decrease(OR2, 1, strict=False)
        loaded = load_instance(dump_instance(instance))
        assert loaded.game == instance.game
        assert loaded.distinguished == instance.distinguished
        assert loaded.budget == instance.budget
        assert loaded.goal == instance.goal
        assert loaded.groups == instance.groups
        assert loaded.a_players == instance.a_players
        assert loaded.b_players == instance.b_players
        assert loaded.bands.heavy == instance.bands.heavy
        assert [b.name for b in loaded.bands.blocks] == [
            b.name for b in instance.bands.blocks
        ]
        assert pivot_count_layered(loaded.bands) == pivot_count_layered(instance.bands)

    def test_witness_deletion_after_reload(self):
        instance = load_instance(dump_instance(build_decrease(OR2, 1, strict=False)))
        deletion = witness_deletion(instance, (1,))
        assert deletion == frozenset({instance.b_players[0]})

    def test_maintain_roundtrip(self):
        instance = build_maintain(OR2, 1, 3, strict=False)
        loaded = load_instance(dump_instance(instance))
        assert pivot_count_layered(loaded.bands) == pivot_count_layered(instance.bands)
        assert loaded.meta["ell"] == 3

    def test_bad_goal(self):
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        document["goal"] = "SHRINK"
        with pytest.raises(FileFormatError, match="goal"):
            load_instance(json.dumps(document))

    def test_bad_block_kind(self):
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        document["bands"]["blocks"][0]["kind"] = "MYSTERY"
        with pytest.raises(FileFormatError, match="kind"):
            load_instance(json.dumps(document))

    def test_plain_instance_roundtrip(self, example1):
        from wvgcontrol import ControlInstance, Goal

        instance = ControlInstance(
            game=example1, distinguished=1, budget=2, goal=Goal.MAINTAIN
        )
        loaded = load_instance(dump_instance(instance))
        assert loaded.game == example1
        assert loaded.groups is None and loaded.bands is None
        assert loaded.goal is Goal.MAINTAIN and loaded.budget == 2

    def test_tampered_band_membership_is_caught(self):
        # dropping a block's member breaks the cover invariant on load
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        document["bands"]["blocks"][-1]["members"] = []
        with pytest.raises(Exception, match="cover"):
            load_instance(json.dumps(document))

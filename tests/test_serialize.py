"""Bit-exact document round-trips for games and instances."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    BandStructureError,
    BandSystem,
    BlockKind,
    CnfFormula,
    ControlInstance,
    FileFormatError,
    Game,
    Goal,
    InvalidCoalitionError,
    LightBlock,
    build_decrease,
    build_maintain,
    build_nonincrease,
    dump_game,
    dump_instance,
    exactify,
    load_game,
    load_instance,
    pivot_count_layered,
    witness_deletion,
)
from wvgcontrol.serialize import _game_fields, _indented, _instance_fields, load_document

from conftest import bottom_up_band_claims

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")

OR2 = CnfFormula(2, (frozenset({1, 2}),))
WIDE5 = CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),))


# (array, bad entry, the message naming it); "n" stands for the player count
MALFORMED_ENTRIES = [
    *(
        ("weights", entry, f"weight must be a decimal string, got {entry!r}")
        for entry in ["\u0663", "1,2", "+1", " 1", "1 ", "", "-", True, 1.5, None]
    ),
    ("members", True, "block 'members' must be an array of integers"),
    ("members", 1.0, "block 'members' must be an array of integers"),
    ("members", -1, "player -1 out of range for a {n}-player game"),
    ("members", "n", "player {n} out of range for a {n}-player game"),
    ("groups", 5, "'groups' must be an array of strings"),
]


class TestGameDocuments:
    def test_roundtrip_small(self, example1):
        assert load_game(dump_game(example1)) == example1

    def test_roundtrip_huge_weights(self):
        game = Game((10**60 + 7, 3, 10**45), 10**60)
        assert load_game(dump_game(game)) == game

    def test_roundtrip_past_the_int_str_digit_limit(self):
        game = Game((10**5000 + 7, 3, 7**6000), 10**5000)
        assert load_game(dump_game(game)) == game

    def test_overlong_json_number_is_a_format_error(self):
        with pytest.raises(FileFormatError, match="JSON number"):
            load_game('{"weights": ["1"], "quota": "1", "extra": 1' + "0" * 5000 + "}")

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

    def test_deeply_nested_json_is_a_format_error(self):
        with pytest.raises(FileFormatError, match="nested too deeply"):
            load_game("[" * 100_000)


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

    def test_labels_and_carriers_given_as_lists_become_tuples(self):
        game = Game((1, 2, 2), 3)
        listed = ControlInstance(
            game, 0, 1, Goal.DECREASE, groups=["p", "A", "B"], a_players=[1], b_players=[2]
        )
        tupled = ControlInstance(
            game, 0, 1, Goal.DECREASE, groups=("p", "A", "B"), a_players=(1,), b_players=(2,)
        )
        assert (listed.groups, listed.a_players, listed.b_players) == (("p", "A", "B"), (1,), (2,))
        assert listed == tupled == load_instance(dump_instance(listed))

    def test_an_instance_hashes_by_its_fields_but_meta(self):
        instance = build_decrease(OR2, 1, strict=False)
        loaded = load_instance(dump_instance(instance))
        assert hash(loaded) == hash(instance)
        assert len({instance, loaded, instance.delete({3})}) == 2

    def test_roundtrip_past_the_int_str_digit_limit(self):
        game = Game((7**6000, 10**5000 + 1, 1), 10**5000)
        instance = ControlInstance(game, 2, 1, Goal.NONINCREASE, groups=("A", "B", "p"))
        assert load_instance(dump_instance(instance)) == instance

    def test_band_error_names_weights_past_the_int_str_digit_limit(self):
        heavy = "1" + "0" * 5000
        document = {
            "weights": [heavy, heavy, "1", "1"],
            "quota": "3" + "0" * 5000,
            "distinguished": 2,
            "budget": 1,
            "goal": "DECREASE",
            "bands": {
                "heavy": [0, 1],
                "blocks": [
                    {"name": "L", "kind": "ENUMERABLE", "members": [3], "granularity": "1"}
                ],
            },
        }
        message = f"together \\({heavy} \\+ {heavy} < {document['quota']}\\)"
        with pytest.raises(BandStructureError, match=message):
            load_instance(json.dumps(document))

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

    @pytest.mark.parametrize("name", [5, [5], None, True])
    def test_block_name_must_be_a_string(self, name):
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        document["bands"]["blocks"][0]["name"] = name
        with pytest.raises(FileFormatError, match="block 'name'"):
            load_instance(json.dumps(document))

    def test_missing_block_name_defaults_to_the_kind(self):
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        del document["bands"]["blocks"][0]["name"]
        kind = document["bands"]["blocks"][0]["kind"]
        assert load_instance(json.dumps(document)).bands.blocks[0].name == kind

    def test_carriers_must_name_players(self, example1):
        document = json.loads(
            dump_instance(ControlInstance(example1, 1, 1, Goal.DECREASE))
        )
        document["a_players"], document["b_players"] = [999], [998]
        with pytest.raises(InvalidCoalitionError, match="player 999 out of range"):
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

    def test_a_repeated_heavy_player_is_refused(self):
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        heavy = document["bands"]["heavy"]
        heavy.append(heavy[0])
        with pytest.raises(FileFormatError) as error:
            load_instance(json.dumps(document))
        assert str(error.value) == f"'bands.heavy' lists player {heavy[0]} twice"

    @pytest.mark.parametrize(
        "field, entry, message",
        [pytest.param(*case, id=f"{case[0]}={case[1]!r}") for case in MALFORMED_ENTRIES],
    )
    def test_a_malformed_entry_is_named(self, field, entry, message):
        # alone, the bulk check must refuse it; before a later bad entry,
        # the walk that follows a failed bulk check must name it first
        instance = build_decrease(OR2, 1, strict=False)
        n = instance.game.num_players
        expected = InvalidCoalitionError if "out of range" in message else FileFormatError
        for later in (None, n + 7 if field == "members" else "x"):
            document = json.loads(dump_instance(instance))
            if field == "members":
                array = max((block["members"] for block in document["bands"]["blocks"]), key=len)
            else:
                array = document[field]
            array[1] = n if entry == "n" else entry
            if later is not None:
                array[-1] = later
            with pytest.raises(expected) as error:
                load_instance(json.dumps(document))
            assert type(error.value) is expected
            assert str(error.value) == message.format(n=n)

    def test_tampered_band_membership_is_caught(self):
        # dropping a block's member breaks the cover invariant on load
        instance = build_decrease(OR2, 1, strict=False)
        document = json.loads(dump_instance(instance))
        document["bands"]["blocks"][-1]["members"] = []
        with pytest.raises(Exception, match="cover"):
            load_instance(json.dumps(document))


@st.composite
def relaxed_gadgets(draw):
    """A relaxed decrease, nonincrease or maintain gadget of a random CNF
    formula over two or three variables, sometimes after a deletion, so
    that emptied blocks and deleted carriers (``None``) occur too."""
    n = draw(st.integers(2, 3))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.frozensets(literal, min_size=1, max_size=n).filter(
        lambda c: not any(-lit in c for lit in c)
    )
    clauses = st.lists(clause, min_size=1, max_size=3).filter(
        lambda cs: {abs(lit) for c in cs for lit in c} == set(range(1, n + 1))
    )
    formula = CnfFormula(n, tuple(draw(clauses)))
    k = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["decrease", "nonincrease", "maintain"]))
    if kind == "decrease":
        instance = build_decrease(formula, k, strict=False)
    elif kind == "nonincrease":
        instance = build_nonincrease(formula, k, strict=False)
    else:
        instance = build_maintain(formula, k, draw(st.integers(1, 6)), strict=False)
    others = [p for p in range(instance.game.num_players) if p != instance.distinguished]
    return instance.delete(draw(st.frozensets(st.sampled_from(others), max_size=4)))


def _json_indented(instance: ControlInstance) -> str:
    """The instance document as ``json.dumps(..., indent=2)`` writes it."""
    return json.dumps(_instance_fields(instance), indent=2) + "\n"


class TestDumpIsJsonIndented:
    """The dump writes what ``json.dumps(..., indent=2)`` writes, byte for byte."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_decrease(OR2, 1, strict=False),
            lambda: build_nonincrease(OR2, 1, strict=False),
            lambda: build_maintain(OR2, 1, 3, strict=False),
            lambda: build_decrease(WIDE5, 4),
            lambda: build_nonincrease(WIDE5, 4),
            lambda: build_maintain(*exactify(WIDE5, 4, 1)),
        ],
        ids=[
            "relaxed-decrease", "relaxed-nonincrease", "relaxed-maintain",
            "strict-decrease", "strict-nonincrease", "strict-maintain",
        ],
    )
    @pytest.mark.parametrize("carriers", ["kept", "one-deleted", "none"])
    def test_gadgets(self, build, carriers):
        instance = build()
        assert instance.a_players
        if carriers == "one-deleted":
            instance = instance.delete({instance.a_players[0]})
            assert None in instance.a_players
        elif carriers == "none":
            instance = replace(instance, a_players=(), b_players=())
        text = dump_instance(instance)
        assert text == _json_indented(instance)
        assert ("a_players" in json.loads(text)) == (carriers != "none")
        assert dump_game(instance.game) == json.dumps(_game_fields(instance.game), indent=2) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(instance=relaxed_gadgets())
    def test_relaxed_gadgets_after_deletions(self, instance):
        assert dump_instance(instance) == _json_indented(instance)

    def test_empty_lists_and_a_nested_non_ascii_meta(self):
        meta = {
            "name": "gadget \u00e9\u00e8 \u2603 \U0001f600",
            "nested": {"list": [1, "two", None, True, 2.5, [], {}], "empty": {}, "t": (1, 2)},
            "rows": [[], [[1], ["\u00fc"]], {"k": []}],
            "numbers": {1: "int key", "x": -3},
            "flag": False,
        }
        empty_blocks = LightBlock("empty", BlockKind.UNIFORM_CHAIN_LEVEL, (), (), 1)
        game = Game((1, 3, 3), 4)
        bands = BandSystem(game, 0, frozenset({1, 2}), (empty_blocks,))
        instance = ControlInstance(game, 0, 1, Goal.DECREASE, groups=("p", "H", "H"),
                                   bands=bands, meta=meta)
        text = dump_instance(instance)
        assert text == _json_indented(instance)
        assert '"members": []' in text
        for value in ([], {}, meta, [meta], [[], [[]]], "\u2603", None, ["\u2603", None, 7]):
            assert _indented(value) == json.dumps(value, indent=2)


class TestGeneratedRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(instance=relaxed_gadgets())
    def test_load_inverts_dump_on_relaxed_gadgets(self, instance):
        loaded = load_instance(dump_instance(instance))
        assert loaded.bands == instance.bands
        assert [(b.max_sum, b.min_gap) for b in loaded.bands.blocks] == [
            (b.max_sum, b.min_gap) for b in instance.bands.blocks
        ]
        assert loaded.groups == instance.groups
        assert (loaded.a_players, loaded.b_players) == (instance.a_players, instance.b_players)
        assert loaded == instance

    @settings(max_examples=40, deadline=None)
    @given(claim=bottom_up_band_claims())
    def test_load_inverts_dump_on_bottom_up_band_systems(self, claim):
        # including systems that only the exact band rules accept
        bands = claim.build()
        instance = ControlInstance(claim.game, claim.distinguished, 1, Goal.DECREASE, bands=bands)
        loaded = load_instance(dump_instance(instance))
        assert loaded == instance
        assert [(b.max_sum, b.min_gap) for b in loaded.bands.blocks] == [
            (b.max_sum, b.min_gap) for b in instance.bands.blocks
        ]

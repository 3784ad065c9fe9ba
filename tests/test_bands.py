"""Band systems: no-carry validation, unique decomposition, factorised counts."""

from __future__ import annotations

import functools
import gc
import itertools
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase, assume, event, find, given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    BandStructureError,
    BandSystem,
    BlockKind,
    BudgetExceededError,
    CnfFormula,
    ControlInstance,
    DeletionCounter,
    ExactIndex,
    Game,
    Goal,
    InputError,
    InvalidCoalitionError,
    LightBlock,
    build_decrease,
    build_maintain,
    build_nonincrease,
    count_block,
    count_sat,
    delete_players,
    expected_index,
    pivot_count_layered,
)
from wvgcontrol import bands as bands_module
from wvgcontrol.bands import count_light_subsets
from wvgcontrol.control import _CandidateSpace, solve_control
from wvgcontrol.engines import count_subsets_mitm, pivot_count_enum, pivot_count_mitm
from wvgcontrol.gadgets import build_prereduction
from wvgcontrol.verify import NO_INSTANCES, random_formula

from conftest import (
    BAND_RULES,
    BandClaim,
    block_named,
    bottom_up_band_claims,
    candidate,
    counter_terms,
    decompose_target,
    group_members,
    heavy_pivot_term,
    random_band_claims,
)


def uniform(name: str, members, weight: int) -> LightBlock:
    return LightBlock(
        name, BlockKind.UNIFORM_CHAIN_LEVEL, tuple(members), tuple([weight] * len(members)), weight
    )


def banded_toy() -> BandSystem:
    """Distinguished player 0 (weight 1), heavies 1-2, three uniform bands.

    Weights: heavy 286 and 287; band A = two players of 100, band B = three
    players of 10, band C = four players of 1.  Quota 400.
    """
    weights = (1, 286, 287, 100, 100, 10, 10, 10, 1, 1, 1, 1)
    game = Game(weights, 400)
    blocks = (
        uniform("hundreds", (3, 4), 100),
        uniform("tens", (5, 6, 7), 10),
        uniform("ones", (8, 9, 10, 11), 1),
    )
    return BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=blocks)


class TestLightBlockValidation:
    def test_uniform_weight_mismatch(self):
        with pytest.raises(BandStructureError):
            LightBlock("u", BlockKind.UNIFORM_CHAIN_LEVEL, (0, 1), (5, 6), 5)

    def test_granularity_must_divide(self):
        with pytest.raises(BandStructureError):
            LightBlock("e", BlockKind.ENUMERABLE, (0, 1), (10, 15), 10)

    def test_superincreasing_must_dominate_prefix(self):
        with pytest.raises(BandStructureError):
            LightBlock("s", BlockKind.SUPERINCREASING, (0, 1, 2), (3, 6, 9), 3)

    def test_superincreasing_accepts_doubling(self):
        block = LightBlock("s", BlockKind.SUPERINCREASING, (0, 1, 2), (3, 6, 12), 3)
        assert block.max_sum == 21
        assert block.min_gap == 3

    def test_a_kind_given_by_name_is_the_kind(self):
        block = LightBlock("U", "UNIFORM_CHAIN_LEVEL", (1, 2), (2, 2), 2)
        assert block.kind is BlockKind.UNIFORM_CHAIN_LEVEL
        with pytest.raises(BandStructureError, match="uniform block U"):
            LightBlock("U", "UNIFORM_CHAIN_LEVEL", (1, 2), (2, 3), 1)

    def test_members_and_weights_become_tuples(self):
        block = LightBlock("s", BlockKind.SUPERINCREASING, [0, 1], [3, 6], 3)
        assert (block.members, block.weights) == ((0, 1), (3, 6))
        assert block == LightBlock("s", BlockKind.SUPERINCREASING, (0, 1), (3, 6), 3)


class TestBandSystemValidation:
    def test_toy_system_is_valid(self):
        banded_toy()

    def test_no_carry_violation_names_blocks(self):
        weights = (1, 286, 287, 10, 10, 10, 10, 10, 1, 1, 1, 1)
        game = Game(weights, 400)
        blocks = (
            uniform("tens", (3, 4, 5, 6, 7), 10),
            uniform("ones", (8, 9, 10, 11), 1),
        )
        # fine: ones sum to 4 < 10; now overload the low band
        weights_bad = (1, 286, 287, 10, 10, 10, 10, 10) + (1,) * 11
        game_bad = Game(weights_bad, 400)
        blocks_bad = (
            uniform("tens", tuple(range(3, 8)), 10),
            uniform("ones", tuple(range(8, 19)), 1),
        )
        BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=blocks)
        with pytest.raises(BandStructureError, match="tens"):
            BandSystem(
                game=game_bad, distinguished=0, heavy=frozenset({1, 2}), blocks=blocks_bad
            )

    def test_heavy_and_blocks_given_as_lists_are_normalised(self):
        toy = banded_toy()
        blocks = [
            LightBlock(b.name, b.kind.value, list(b.members), list(b.weights), b.granularity)
            for b in toy.blocks
        ]
        bands = BandSystem(toy.game, 0, [1, 2], blocks)
        assert bands == toy
        assert hash(bands) == hash(toy)
        assert type(bands.heavy) is frozenset and type(bands.blocks) is tuple

    def test_a_heavy_player_given_twice_is_refused(self):
        # the frozenset would drop the repeat: the constructor checks the list
        toy = banded_toy()
        with pytest.raises(BandStructureError) as caught:
            BandSystem(toy.game, 0, [1, 2, 1], list(toy.blocks))
        assert str(caught.value) == "player 1 appears twice in the band system"

    def test_a_layered_search_runs_on_heavy_players_given_as_a_list(self):
        toy = banded_toy()
        reports = [
            solve_control(ControlInstance(toy.game, 0, 2, Goal.DECREASE, bands=bands), engine)
            for bands, engine in [
                (BandSystem(toy.game, 0, [1, 2], toy.blocks), "layered"),
                (toy, "enum"),
            ]
        ]
        found = [
            (r.verdict, r.candidates_evaluated, r.min_index_seen, r.max_index_seen)
            for r in reports
        ]
        assert found[0] == found[1]

    def test_partition_must_cover(self):
        game = Game((1, 286, 287, 100), 400)
        with pytest.raises(BandStructureError, match="cover"):
            BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=())

    @pytest.mark.parametrize(
        "ones, weight_of_4, message",
        [
            ((8, 9, 10, 10), 100, "player 10 appears twice in the band system"),
            ((8, 9, 10, -1), 100, "player -1 out of range for a 12-player game"),
            ((8, 9, 10, 11), 200, "block hundreds: stored weight of player 4 disagrees with the game"),
            ((8, 9, 10, True), 100, "player must be an integer, got True"),
            ((8, 9, 10, 11.0), 100, "player must be an integer, got 11.0"),
        ],
    )
    def test_a_fault_that_keeps_the_player_count_is_named(self, ones, weight_of_4, message):
        # twelve entries for twelve players: only the bulk check's set size,
        # range check and weight comparison tell these from a partition
        toy = banded_toy()
        weights = list(toy.game.weights)
        weights[4] = weight_of_4
        blocks = (*toy.blocks[:2], uniform("ones", ones, 1))
        with pytest.raises((BandStructureError, InvalidCoalitionError)) as error:
            BandSystem(Game(tuple(weights), 400), 0, toy.heavy, blocks)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "distinguished, heavy, error, message",
        [
            (0, [True, 2], InvalidCoalitionError, "player must be an integer, got True"),
            (0, [1.0, 2], InvalidCoalitionError, "player must be an integer, got 1.0"),
            (True, [1, 2], InputError, "distinguished must be an integer, got True"),
        ],
        ids=["bool-heavy", "float-heavy", "bool-distinguished"],
    )
    def test_a_bool_or_float_index_is_refused(self, distinguished, heavy, error, message):
        toy = banded_toy()
        with pytest.raises(error) as caught:
            BandSystem(toy.game, distinguished, heavy, toy.blocks)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_heavy_pair_must_exceed_quota(self):
        game = Game((1, 150, 150), 400)
        with pytest.raises(BandStructureError, match="fit under the quota"):
            BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=())

    def test_light_players_must_stay_below_pivot_interval(self):
        game = Game((1, 500, 500, 200, 200), 400)
        with pytest.raises(BandStructureError, match="light players alone"):
            BandSystem(
                game=game,
                distinguished=0,
                heavy=frozenset({1, 2}),
                blocks=(uniform("b", (3, 4), 200),),
            )


class TestCountBlock:
    def test_uniform_binomial(self):
        block = uniform("level", range(5), 45)
        assert count_block(block, 90) == math.comb(5, 2) == 10
        assert count_block(block, 0) == 1
        assert count_block(block, 225) == 1

    def test_uniform_rejects_non_multiple(self):
        block = uniform("level", range(5), 45)
        with pytest.raises(BandStructureError):
            count_block(block, 44)

    def test_superincreasing_unique_or_zero(self):
        z = (3, 6, 12, 24)
        block = LightBlock("z*", BlockKind.SUPERINCREASING, (0, 1, 2, 3), z, 3)
        assert count_block(block, 6) == 1
        assert count_block(block, 4) == 0  # z1 + 1 is not a subset sum
        assert count_block(block, 3 + 12) == 1
        assert count_block(block, 0) == 1

    def test_target_out_of_range(self):
        block = uniform("level", range(3), 7)
        with pytest.raises(BandStructureError):
            count_block(block, 28)

    def test_enumerable_matches_brute_force(self):
        weights = (10, 20, 20, 30, 50)
        block = LightBlock("e", BlockKind.ENUMERABLE, tuple(range(5)), weights, 10)
        for target in range(0, 140, 10):
            expected = sum(
                1
                for mask in range(32)
                if sum(w for b, w in enumerate(weights) if (mask >> b) & 1) == target
            )
            assert count_block(block, target) == expected


@st.composite
def greedy_blocks(draw) -> LightBlock:
    """A superincreasing block of 1-8 members, each weight above the sum of
    the smaller ones, all multiples of a drawn granularity; or an empty
    block of any kind, which the split also takes greedily."""
    granularity = draw(st.sampled_from((1, 2, 3, 10)))
    if draw(st.booleans()):
        return LightBlock("empty", draw(st.sampled_from(BlockKind)), (), (), granularity)
    weights, below = [], 0
    for slack in draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)):
        weights.append(granularity * (below + slack))
        below += below + slack
    members = tuple(range(len(weights)))
    return LightBlock("z", BlockKind.SUPERINCREASING, members, tuple(weights), granularity)


class TestGreedyBlocks:
    """Superincreasing and empty blocks against brute force and against a
    greedy split of one remainder at a time."""

    @settings(max_examples=200, deadline=None)
    @given(block=greedy_blocks())
    def test_count_block_matches_brute_force(self, block):
        sums = Counter(
            sum(subset)
            for size in range(len(block.weights) + 1)
            for subset in itertools.combinations(block.weights, size)
        )
        for value in {v + d for v in sums for d in (-1, 0, 1)}:
            if 0 <= value <= block.max_sum:
                assert count_block(block, value) == sums[value]
            else:
                with pytest.raises(BandStructureError, match="outside"):
                    count_block(block, value)
        with pytest.raises(BandStructureError, match="outside"):
            count_block(block, block.max_sum + block.granularity)

    @settings(max_examples=200, deadline=None)
    @given(block=greedy_blocks(), data=st.data())
    def test_split_matches_a_greedy_per_row(self, block, data):
        rows = data.draw(st.lists(st.integers(0, 2 * block.max_sum + 3), max_size=20))
        expected = []
        for row in rows:
            share = 0
            for w in sorted(block.weights, reverse=True):
                if row - share >= w:
                    share += w
            expected.append(share)
        shares, below = bands_module._split(block, rows)
        assert shares == expected
        assert below == [row - share for row, share in zip(rows, expected)]


class TestDecompose:
    def test_zero_residual(self):
        bands = banded_toy()
        assert decompose_target(bands, 0).targets == (0, 0, 0)

    def test_full_light_weight(self):
        bands = banded_toy()
        assert decompose_target(bands, 234).targets == (200, 30, 4)

    def test_unreachable_returns_none(self):
        bands = banded_toy()
        assert decompose_target(bands, 235) is None  # above the light total
        assert decompose_target(bands, 132) == decompose_target(bands, 132)
        assert decompose_target(bands, 132).targets == (100, 30, 2)
        assert decompose_target(bands, 45) is None  # needs four tens

    def test_uniqueness_against_enumeration(self):
        bands = banded_toy()
        light = [(p, bands.game.weights[p]) for b in bands.blocks for p in b.members]
        for residual in range(0, 235):
            expected = sum(
                1
                for mask in range(1 << len(light))
                if sum(w for b, (_, w) in enumerate(light) if (mask >> b) & 1)
                == residual
            )
            assert count_light_subsets(bands, residual) == expected


class TestLayeredCount:
    def test_matches_enum_and_mitm_on_toy(self):
        bands = banded_toy()
        layered = pivot_count_layered(bands)
        # heavy 287 leaves 112 = 100 + 10 + 2 -> 2*3*C(4,2); heavy 286 leaves
        # 113 = 100 + 10 + 3 -> 2*3*C(4,3)
        assert layered == 2 * 3 * 6 + 2 * 3 * 4
        assert layered == pivot_count_enum(bands.game, 0)
        assert layered == pivot_count_mitm(bands.game, 0)

    @pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
    @pytest.mark.parametrize(
        "kind, which",
        [pytest.param("toy", None, id="toy")]
        + [
            pytest.param(kind, which, id=f"{kind}-{which}")
            for kind in ("decrease", "nonincrease", "maintain")
            for which in (0, 1)
        ],
    )
    def test_heavy_terms_sum(self, kind, which):
        # the plain walk sum against the deletion counter's terms
        bands = banded_toy() if kind == "toy" else _gadget(kind, which).bands
        assert pivot_count_layered(bands) == sum(
            heavy_pivot_term(bands, h) for h in sorted(bands.heavy)
        )

    def test_deletion_closure(self):
        bands = banded_toy()
        rng = random.Random(5)
        for _ in range(20):
            victims = {
                p
                for p in range(1, bands.game.num_players)
                if rng.random() < 0.25
            }
            smaller, remap = delete_players(bands.game, victims)
            shrunk = bands.restrict(victims)
            assert pivot_count_layered(shrunk) == pivot_count_enum(smaller, remap[0])

    def test_interval_wider_than_one(self):
        # distinguished weight 3: pivotal coalitions sum to 397..399
        weights = (3, 286, 287, 100, 100, 10, 10, 10, 1, 1, 1, 1)
        game = Game(weights, 400)
        blocks = (
            uniform("hundreds", (3, 4), 100),
            uniform("tens", (5, 6, 7), 10),
            uniform("ones", (8, 9, 10, 11), 1),
        )
        bands = BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=blocks)
        assert pivot_count_layered(bands) == pivot_count_enum(game, 0)


def oversized_block_system() -> BandSystem:
    """Heavy 962 leaves residual 37 = 32 + 5: no subset of block ``hi``
    (64, 64) makes 32, so block ``lo`` (31 ones, over the enumerable
    limit) is never counted.  Quota 1000, distinguished weight 1."""
    game = Game((1, 962, 64, 64) + (1,) * 31, 1000)
    blocks = (
        LightBlock("hi", BlockKind.ENUMERABLE, (2, 3), (64, 64), 32),
        LightBlock("lo", BlockKind.ENUMERABLE, tuple(range(4, 35)), (1,) * 31, 1),
    )
    return BandSystem(game=game, distinguished=0, heavy=frozenset({1}), blocks=blocks)


class TestOneTermWalk:
    """The full count, the per-heavy terms and the deletion counter share
    one walk, so they share its guards and its early stop."""

    def test_every_user_applies_the_interval_width_guard(self):
        game = Game((4097, 6000, 6000, 1, 2), 10000)
        block = LightBlock("lo", BlockKind.ENUMERABLE, (3, 4), (1, 2), 1)
        bands = BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=(block,))
        for count in (
            lambda: heavy_pivot_term(bands, 1),
            lambda: pivot_count_layered(bands),
            lambda: DeletionCounter(bands),
        ):
            with pytest.raises(BudgetExceededError, match="limit 4096"):
                count()

    def test_a_zero_block_count_stops_before_an_oversized_block(self):
        bands = oversized_block_system()
        assert pivot_count_layered(bands) == DeletionCounter(bands).count(()) == 0
        assert heavy_pivot_term(bands, 1) == count_light_subsets(bands, 37) == 0
        assert pivot_count_mitm(bands.game, 0) == 0

    def test_layered_search_past_an_oversized_block_is_exhaustive(self):
        bands = oversized_block_system()
        instance = ControlInstance(bands.game, 0, 1, Goal.DECREASE, bands=bands)
        report = solve_control(instance, engine="layered")
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == 4


def _exhaustive_candidates(instance):
    """Every candidate deletion an exhaustive search over ``instance`` scores."""
    space = _CandidateSpace.of(instance)
    return [
        candidate(space, rank, size, size).players
        for size in range(space.max_size + 1)
        for rank in range(space.count(size, size))
    ]


def _gadget(kind: str, which: int):
    formula, k = NO_INSTANCES[which]
    if kind == "decrease":
        return build_decrease(formula, k, strict=False)
    if kind == "nonincrease":
        return build_nonincrease(formula, k, strict=False)
    return build_maintain(formula, k, 1, strict=False)


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestDeletionCounter:
    """The delta count after a deletion against a from-scratch count."""

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("kind", ["decrease", "nonincrease", "maintain"])
    def test_every_exhaustive_candidate(self, kind, which):
        instance = _gadget(kind, which)
        counter = DeletionCounter(instance.bands)
        candidates = _exhaustive_candidates(instance)
        assert len(candidates) > 1
        for players in candidates:
            expected = pivot_count_layered(instance.delete(players).bands)
            assert counter.count(players) == expected, sorted(players)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["decrease", "nonincrease", "maintain"]))
    def test_arbitrary_player_sets(self, data, kind):
        # any players, not only class representatives; heavy and Z* members
        # are drawn often enough to be deleted alongside light ones
        instance = _gadget(kind, 1)
        deletable = [p for p in range(instance.game.num_players) if p != instance.distinguished]
        player = st.one_of(
            st.sampled_from(sorted(instance.bands.heavy)),
            st.sampled_from(group_members(instance, "Z*")),
            st.sampled_from(deletable),
        )
        players = data.draw(st.frozensets(player, max_size=instance.budget + 1))
        counter = DeletionCounter(instance.bands)
        expected = pivot_count_layered(instance.delete(players).bands)
        assert counter.count(players) == expected

    def test_every_deletion_of_up_to_two_against_mitm(self):
        instance = build_nonincrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
        counter = DeletionCounter(instance.bands)
        deletable = [p for p in range(instance.game.num_players) if p != instance.distinguished]
        for size in range(3):
            for players in itertools.combinations(deletable, size):
                variant = instance.delete(players)
                assert counter.count(players) == pivot_count_mitm(
                    variant.game, variant.distinguished
                ), players

    @pytest.mark.parametrize("distinguished_weight", [1, 3])
    def test_every_small_deletion_on_toys_against_enum(self, distinguished_weight):
        base = banded_toy()
        game = Game((distinguished_weight, *base.game.weights[1:]), base.game.quota)
        bands = BandSystem(game, 0, base.heavy, base.blocks)
        counter = DeletionCounter(bands)
        for size in range(4):
            for players in itertools.combinations(range(1, game.num_players), size):
                smaller, remap = delete_players(game, players)
                assert counter.count(players) == pivot_count_enum(smaller, remap[0]), players

    def test_no_deletion_is_the_layered_count(self):
        instance = _gadget("decrease", 1)
        assert DeletionCounter(instance.bands).count(()) == pivot_count_layered(instance.bands)

    def test_an_exhaustive_search_checks_no_player_one_by_one(self):
        # the search's own light sets pass one subset test against the
        # block members, so no candidate goes through ``Game.check_player``
        instance = _gadget("decrease", 1)
        check, checked = Game.check_player, []

        def counting(game, player):
            checked.append(player)
            return check(game, player)

        with mock.patch.object(Game, "check_player", counting):
            report = solve_control(instance, engine="layered")
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == 4764
        assert len(checked) == 0

    @pytest.mark.parametrize(
        "method, refusal",
        [
            ("count", "cannot delete the distinguished player"),
            ("heavy_terms", "heavy terms follow a deletion of light players only"),
        ],
    )
    def test_refusals_name_the_first_fault(self, method, refusal):
        # a player out of range is named before the distinguished player is
        # refused; each error is the one ``Game.coalition`` or the method raises
        instance = _gadget("decrease", 1)
        n, distinguished = instance.game.num_players, instance.distinguished
        heavy, game = min(instance.bands.heavy), f"a {n}-player game"
        score = getattr(DeletionCounter(instance.bands), method)
        cases = [
            ({n, distinguished}, InvalidCoalitionError, f"player {n} out of range for {game}"),
            ({-1}, InvalidCoalitionError, f"player -1 out of range for {game}"),
            ({distinguished, heavy}, InputError, refusal),
        ]
        if method == "heavy_terms":
            cases.append(({heavy}, InputError, refusal))
        for players, error, message in cases:
            with pytest.raises(error) as raised:
                score(players)
            assert type(raised.value) is error
            assert str(raised.value) == message, players

    def test_an_empty_pivotal_window_walks_one_empty_pass(self):
        # the CI's exact band system with the distinguished player's weight
        # set to 0: still a band system, with no pivotal coalition weight
        block = LightBlock("Z", BlockKind.SUPERINCREASING, (3, 4), (4, 8), 2)
        game = Game((0, 25, 15, 4, 8, 1, 1, 1), 40)
        bands = BandSystem(game, 0, frozenset({1, 2}), (block, uniform("ones", (5, 6, 7), 1)))
        assert [*bands_module._window_passes(bands)] == [([], [], {}, [{}, {}])]
        assert pivot_count_layered(bands) == 0
        counter = DeletionCounter(bands)
        assert counter.count({1, 5}) == 0
        assert counter.heavy_terms({5}) == {}
        assert counter_terms(bands) == []

    def test_rejects_the_distinguished_player_and_strangers(self):
        bands = banded_toy()
        counter = DeletionCounter(bands)
        with pytest.raises(InputError, match="distinguished"):
            counter.count({0})
        with pytest.raises(InvalidCoalitionError):
            counter.count({bands.game.num_players})


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestDeletionCounterMemos:
    """One counter scores many deletions, as one search does; its memos of
    light-deletion totals and touched-block recounts give the counts of a
    fresh full count, also when every insertion evicts."""

    @pytest.mark.parametrize("bound", [None, 1])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["decrease", "nonincrease", "maintain"]))
    def test_one_counter_across_many_deletions(self, bound, data, kind):
        instance = _gadget(kind, 1)
        bands = instance.bands
        light = [
            p
            for p in range(instance.game.num_players)
            if p != instance.distinguished and p not in bands.heavy
        ]
        # a few light sets, each drawn again and again with heavy and Z*
        # players added, the players of each deletion in shuffled order
        light_sets = data.draw(
            st.lists(
                st.frozensets(st.sampled_from(light), max_size=instance.budget),
                min_size=1,
                max_size=5,
            )
        )
        extra = st.one_of(
            st.sampled_from(sorted(bands.heavy)), st.sampled_from(group_members(instance, "Z*"))
        )
        draws = data.draw(
            st.lists(
                st.tuples(st.sampled_from(light_sets), st.frozensets(extra, max_size=2)),
                min_size=2,
                max_size=20,
            )
        )
        limit = bands_module._DELETION_MEMO_SIZE if bound is None else bound
        with mock.patch.object(bands_module, "_DELETION_MEMO_SIZE", limit):
            counter = DeletionCounter(bands)
            for light_set, more in draws:
                players = data.draw(st.permutations(sorted(light_set | more)))
                expected = pivot_count_layered(instance.delete(players).bands)
                assert counter.count(players) == expected, sorted(players)
                assert len(counter._totals) <= limit
                assert len(counter._recounts) <= limit

    @pytest.mark.parametrize("bound", [1, 4])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), claims=st.sampled_from([bottom_up_band_claims, random_band_claims]))
    def test_terms_and_counts_read_one_record_on_band_claims(self, bound, data, claims):
        # heavy_terms(L) and count(L | H) interleaved on one counter whose
        # memos evict, each against a fresh counter and the unmemoised
        # reference on the system after the deletion
        try:
            bands = data.draw(claims()).build()
        except BandStructureError:
            return

        def subsets(players):
            return st.frozensets(st.sampled_from(players)) if players else st.just(frozenset())

        light = sorted(member for block in bands.blocks for member in block.members)
        light_sets = data.draw(st.lists(subsets(light), min_size=1, max_size=6))
        steps = data.draw(
            st.lists(
                st.tuples(st.sampled_from(light_sets), st.none() | subsets(sorted(bands.heavy))),
                min_size=2,
                max_size=12,
            )
        )
        with mock.patch.object(bands_module, "_DELETION_MEMO_SIZE", bound):
            counter = DeletionCounter(bands)
            for deleted, heavies in steps:
                if heavies is None:
                    terms = counter.heavy_terms(deleted)
                    assert terms == DeletionCounter(bands).heavy_terms(deleted)
                    assert terms == _reference_terms(bands, deleted)
                else:
                    count = counter.count(deleted | heavies)
                    assert count == DeletionCounter(bands).count(deleted | heavies)
                    assert count == sum(_reference_terms(bands, deleted | heavies).values())
                assert len(counter._totals) <= bound
                assert len(counter._recounts) <= bound

    def test_an_exhaustive_search_builds_one_record_per_light_set(self):
        instance = _gadget("decrease", 1)
        record, count = DeletionCounter._record, DeletionCounter.count
        built, light_sets = [], []

        def recording(counter, light):
            built.append(light)
            return record(counter, light)

        def counting(counter, players):
            light_sets.append(frozenset(players) - counter.bands.heavy)
            return count(counter, players)

        with mock.patch.object(DeletionCounter, "_record", recording), mock.patch.object(
            DeletionCounter, "count", counting
        ):
            report = solve_control(instance, engine="layered")
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == len(light_sets) == 4764
        assert len(built) == len(set(built)) == 912
        assert set(built) == set(light_sets)


def _per_term_sum(terms, touched: list[tuple[int, dict[int, int]]]) -> int:
    """The per-term sum ``DeletionCounter`` read ``T(L)`` from before its
    grouped term table: each term's product with the count of each touched
    block replaced by the survivors' count of its target."""
    total = 0
    for targets, counts, product in terms:
        for index, recounted in touched:
            product = product // counts[index] * recounted[targets[index]]
        total += product
    return total


class _PerTermCounter:
    """``count`` and ``heavy_terms`` by ``_per_term_sum`` over the walk's
    terms, each touched block recounted from its survivors (and remembered
    by its deleted members, with no bound)."""

    def __init__(self, bands: BandSystem) -> None:
        self.bands = bands
        self.terms_of: dict[int, list[tuple]] = {}
        for heavy, *term in counter_terms(bands):
            self.terms_of.setdefault(heavy, []).append(tuple(term))
        self.recounts: dict[tuple[int, frozenset[int]], dict[int, int]] = {}

    def _touched(self, light: frozenset[int]) -> list[tuple[int, dict[int, int]]]:
        touched = []
        for index, block in enumerate(self.bands.blocks):
            gone = light.intersection(block.members)
            if not gone:
                continue
            key = (index, frozenset(gone))
            if key not in self.recounts:
                kept = block.restrict({m: m for m in block.members if m not in gone})
                targets = {t[index] for terms in self.terms_of.values() for t, _, _ in terms}
                self.recounts[key] = {
                    t: count_block(kept, t) if t <= kept.max_sum else 0 for t in targets
                }
            touched.append((index, self.recounts[key]))
        return touched

    def count(self, players) -> int:
        deleted = frozenset(players)
        touched = self._touched(deleted - self.bands.heavy)
        every = [term for terms in self.terms_of.values() for term in terms]
        return _per_term_sum(every, touched) - sum(
            _per_term_sum(self.terms_of.get(heavy, ()), touched)
            for heavy in deleted & self.bands.heavy
        )

    def heavy_terms(self, light) -> dict[int, int]:
        touched = self._touched(frozenset(light))
        terms_of = self.terms_of.items()
        return {heavy: term for heavy, own in terms_of if (term := _per_term_sum(own, touched))}


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestGroupedTermTable:
    """``count`` and ``heavy_terms``, with ``T(L)`` read off the grouped
    term tables, against the per-term sum, on counters whose memos evict."""

    @pytest.mark.parametrize("bound", [1, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), claims=st.sampled_from([bottom_up_band_claims, random_band_claims]))
    def test_band_claims(self, bound, data, claims):
        try:
            bands = data.draw(claims()).build()
        except BandStructureError:
            return
        # a pivotal window of several values gives a heavy several terms
        assume(bands.game.weights[bands.distinguished] > 1)
        reference = _PerTermCounter(bands)
        event(f"most terms of one heavy: {max(map(len, reference.terms_of.values()), default=0)}")

        def subsets(players):
            return st.frozensets(st.sampled_from(players)) if players else st.just(frozenset())

        light = sorted(member for block in bands.blocks for member in block.members)
        light_sets = data.draw(st.lists(subsets(light), min_size=1, max_size=6))
        steps = data.draw(
            st.lists(
                st.tuples(st.sampled_from(light_sets), subsets(sorted(bands.heavy))),
                min_size=2,
                max_size=12,
            )
        )
        with mock.patch.object(bands_module, "_DELETION_MEMO_SIZE", bound):
            counter = DeletionCounter(bands)
            for deleted, heavies in steps:
                assert counter.count(deleted | heavies) == reference.count(deleted | heavies)
                assert counter.heavy_terms(deleted) == reference.heavy_terms(deleted)
                assert len(counter._tables) <= bound

    @pytest.mark.parametrize("bound", [1, 4])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("kind", ["decrease", "nonincrease", "maintain"])
    def test_every_exhaustive_candidate(self, kind, which, bound):
        instance = _gadget(kind, which)
        reference = _PerTermCounter(instance.bands)
        seen = set()
        with mock.patch.object(bands_module, "_DELETION_MEMO_SIZE", bound):
            counter = DeletionCounter(instance.bands)
            for players in _exhaustive_candidates(instance):
                assert counter.count(players) == reference.count(players), sorted(players)
                light = players - instance.bands.heavy
                if light not in seen:
                    seen.add(light)
                    assert counter.heavy_terms(light) == reference.heavy_terms(light)
                assert len(counter._tables) <= bound
        assert len(seen) > 1


@functools.cache
def _terms_instance(name: str) -> ControlInstance:
    """A relaxed gadget of ``NO_INSTANCES[1]``, or the 318-player strict
    decrease gadget."""
    if name == "strict-decrease":
        return build_decrease(CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),)), 4)
    return _gadget(name, 1)


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestHeavyTerms:
    """Each heavy player's term after a light deletion against a fresh walk
    over the game with those players deleted."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(["decrease", "nonincrease", "maintain", "strict-decrease"]),
    )
    def test_terms_after_a_light_deletion(self, data, name):
        instance = _terms_instance(name)
        bands = instance.bands
        light = [
            p
            for p in range(instance.game.num_players)
            if p != instance.distinguished and p not in bands.heavy
        ]
        deleted = data.draw(st.frozensets(st.sampled_from(light), max_size=instance.budget))
        counter = DeletionCounter(bands)
        terms = counter.heavy_terms(deleted)

        smaller = instance.delete(deleted).bands
        original = {new: old for old, new in delete_players(instance.game, deleted)[1].items()}
        expected = dict.fromkeys(bands.heavy, 0)
        for heavy, _, _, product in counter_terms(smaller):
            expected[original[heavy]] += product
        assert all(terms.values())
        assert {h: terms.get(h, 0) for h in bands.heavy} == expected
        assert sum(terms.values()) == counter.count(deleted)
        assert counter.heavy_terms(deleted) == terms  # from the recount memo

        heavy = data.draw(st.sampled_from(sorted(bands.heavy)))
        with pytest.raises(InvalidCoalitionError):
            counter.heavy_terms(deleted | {instance.game.num_players})
        for player in (instance.distinguished, heavy):
            with pytest.raises(InputError, match="light players only"):
                counter.heavy_terms(deleted | {player})

    @pytest.mark.parametrize("name", ["decrease", "nonincrease", "maintain", "strict-decrease"])
    def test_count_and_terms_of_a_light_set_read_one_record(self, name):
        # T(L) and every t_h(L) come from one memoised record of L, and
        # both agree with a fresh layered count of the game after L
        instance = _terms_instance(name)
        bands = instance.bands
        light = sorted(member for block in bands.blocks for member in block.members)
        rng = random.Random(19)
        draws = dict.fromkeys(
            frozenset(rng.sample(light, rng.randint(0, instance.budget))) for _ in range(12)
        )
        counter, built = DeletionCounter(bands), []
        record = DeletionCounter._record

        def recording(counter, light):
            built.append(light)
            return record(counter, light)

        with mock.patch.object(DeletionCounter, "_record", recording):
            for deleted in draws:
                before = len(built)
                total = counter.count(deleted)
                terms = counter.heavy_terms(deleted)
                assert len(built) == before + 1, sorted(deleted)
                fresh = pivot_count_layered(instance.delete(deleted).bands)
                assert total == fresh == sum(terms.values()), sorted(deleted)
        assert len(draws) > 1


def _unmemoised_terms(bands: BandSystem) -> tuple[list[tuple], set[tuple[int, int]]]:
    """The walk's terms with every residual split and every block counted
    afresh: ``decompose_target``, then ``count_block`` from the most
    significant block down to the first zero; and each (block index,
    target) that counts."""
    game = bands.game
    w_p = game.weights[bands.distinguished]
    terms, counted = [], set()
    for coalition_weight in range(game.quota - w_p, game.quota):
        for heavy in sorted(bands.heavy):
            residual = coalition_weight - game.weights[heavy]
            decomposition = decompose_target(bands, residual) if residual >= 0 else None
            if decomposition is None:
                continue
            counts = []
            for index, (block, target) in enumerate(zip(bands.blocks, decomposition.targets)):
                counted.add((index, target))
                counts.append(count_block(block, target))
                if not counts[-1]:
                    break
            if all(counts):
                terms.append((heavy, decomposition.targets, tuple(counts), math.prod(counts)))
    return terms, counted


def _reference_terms(bands: BandSystem, deleted: frozenset[int]) -> dict[int, int]:
    """Each heavy player's nonzero term after deleting ``deleted``, by the
    unmemoised reference on the restricted system, keyed by original index."""
    original = {new: old for old, new in delete_players(bands.game, deleted)[1].items()}
    terms: Counter = Counter()
    for heavy, _, _, product in _unmemoised_terms(bands.restrict(deleted))[0]:
        terms[original[heavy]] += product
    return dict(terms)


def _walk_counting(bands: BandSystem) -> tuple[list[tuple], list[tuple[int, int]]]:
    """The walk's terms, and each (block index, target) it hands to
    ``count_block``, in order."""
    index_of = {id(block): index for index, block in enumerate(bands.blocks)}
    counted = []

    def counting(block, target):
        counted.append((index_of[id(block)], target))
        return count_block(block, target)

    with mock.patch.object(bands_module, "count_block", counting):
        terms = counter_terms(bands)
    return terms, counted


def _assert_walk_matches_reference(bands: BandSystem) -> list[tuple]:
    """The walk's terms are the unmemoised reference's; it counts each
    (block index, target) once, and only ones the reference counts, so it
    refuses no count the reference makes.  Returns the terms."""
    terms, counted = _walk_counting(bands)
    expected, reference_counted = _unmemoised_terms(bands)
    assert terms == expected
    assert len(counted) == len(set(counted))
    assert set(counted) <= reference_counted
    return terms


def zero_top_toy() -> BandSystem:
    """Distinguished player 0 (weight 1) and quota 50; heavies 1-3 leave
    residuals 11, 21 and 12 for the top block {20, 20} (granularity 10)
    over the uniform block {1, 1}.  Residuals 11 and 12 take the share 10
    of the top block, which no subset hits, so their remainders 1 and 2
    need not be counted; residual 21 reaches remainder 1 again after the
    share 20, and its term is the only one (4 coalitions)."""
    top = LightBlock("top", BlockKind.ENUMERABLE, (4, 5), (20, 20), 10)
    game = Game((1, 38, 28, 37, 20, 20, 1, 1), 50)
    return BandSystem(game, 0, frozenset({1, 2, 3}), (top, uniform("ones", (6, 7), 1)))


def _walked(name: str) -> BandSystem:
    """A toy, the 318-player strict decrease gadget, or ``kind-which``,
    a relaxed gadget of ``NO_INSTANCES[which]``."""
    if name == "toy":
        return banded_toy()
    if name == "zero-top":
        return zero_top_toy()
    if name == "strict-decrease":
        bands = build_decrease(CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),)), 4).bands
        assert bands.game.num_players == 318
        return bands
    kind, which = name.split("-")
    return _gadget(kind, int(which)).bands


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestMemoisedWalk:
    """One walk splits each remainder and counts each block target once;
    its terms are those of a split and a count per heavy player."""

    @pytest.mark.parametrize(
        "name",
        [
            *(f"{kind}-{which}" for kind in ("decrease", "nonincrease", "maintain") for which in (0, 1)),
            "strict-decrease",
            "toy",
            "zero-top",
        ],
    )
    def test_terms_match_an_unmemoised_reference(self, name):
        assert _assert_walk_matches_reference(_walked(name))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), claims=st.sampled_from([bottom_up_band_claims, random_band_claims]))
    def test_terms_match_an_unmemoised_reference_on_band_claims(self, data, claims):
        try:
            bands = data.draw(claims()).build()
        except BandStructureError:
            return
        _assert_walk_matches_reference(bands)

    @pytest.mark.parametrize("name", ["maintain-1", "strict-decrease"])
    def test_each_block_target_is_counted_once_per_count(self, name):
        bands = _walked(name)
        terms, counted = _walk_counting(bands)
        assert sum(term[-1] for term in terms) == pivot_count_layered(bands) > 0
        assert len(counted) == len(set(counted)) > 0
        assert len(counted) < len(bands.heavy) * len(bands.blocks)

    def test_the_walk_leaves_no_reference_cycle(self):
        # the two memos die with the walk's frame; a self-referencing
        # helper would keep them until the next cyclic collection
        bands = _gadget("decrease", 1).bands
        gc.collect()
        gc.disable()
        try:
            pivot_count_layered(bands)
            DeletionCounter(bands)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _widened(bands: BandSystem, w_p: int, lower_quota_by: int = 0) -> BandSystem:
    """``bands`` with the distinguished player's weight set to ``w_p`` and
    the quota lowered by ``lower_quota_by``."""
    weights = list(bands.game.weights)
    weights[bands.distinguished] = w_p
    game = Game(tuple(weights), bands.game.quota - lower_quota_by)
    return BandSystem(game, bands.distinguished, bands.heavy, bands.blocks)


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestWideWindows:
    """A pivotal window of ``w`` values on the 318-player strict decrease
    gadget against ``w`` windows of one value: the count at distinguished
    weight ``w`` is the sum, over ``j < w``, of the counts at weight 1 and
    quota ``q - j``.  Each of those is a band system too: heavy pairs
    still reach the quota, and the light players stay below ``q - w``."""

    # 500 rows hold two coalition weights of the 245 heavy players, so a
    # residual of one pass recurs in later ones
    PASSES = pytest.mark.parametrize(
        "pass_rows", [bands_module._PASS_ROWS, 500], ids=["one-pass", "two-weights-a-pass"]
    )

    @PASSES
    @pytest.mark.parametrize("w", [2, 7, 64])
    def test_a_window_is_the_sum_of_one_value_windows(self, w, pass_rows):
        strict = _walked("strict-decrease")
        expected = sum(pivot_count_layered(_widened(strict, 1, j)) for j in range(w))
        wide = _widened(strict, w)
        with mock.patch.object(bands_module, "_PASS_ROWS", pass_rows):
            assert pivot_count_layered(wide) == expected > 0
            terms = counter_terms(wide)
        assert sum(term[-1] for term in terms) == expected

    @PASSES
    def test_each_block_target_is_counted_once_over_the_window(self, pass_rows):
        bands = _widened(_walked("strict-decrease"), 7)
        with mock.patch.object(bands_module, "_PASS_ROWS", pass_rows):
            terms, counted = _walk_counting(bands)
        expected, reference_counted = _unmemoised_terms(bands)
        assert terms == expected
        assert len(counted) == len(set(counted)) > 0
        assert set(counted) == reference_counted


def _rebuilt(bands: BandSystem, surviving: dict[int, int], game: Game) -> BandSystem:
    """The restricted system built by the validating constructor from the
    same survivors."""
    blocks = []
    for block in bands.blocks:
        kept = [(surviving[m], w) for m, w in zip(block.members, block.weights) if m in surviving]
        blocks.append(
            LightBlock(
                block.name,
                block.kind,
                tuple(m for m, _ in kept),
                tuple(w for _, w in kept),
                block.granularity,
            )
        )
    return BandSystem(
        game,
        surviving[bands.distinguished],
        frozenset(surviving[h] for h in bands.heavy if h in surviving),
        tuple(blocks),
    )


def _block_fields(block: LightBlock) -> tuple:
    return (
        block.name,
        block.kind,
        block.members,
        block.weights,
        block.granularity,
        block.max_sum,
        block.min_gap,
    )


def _assert_restrict_matches_rebuild(bands: BandSystem, players) -> None:
    smaller, surviving = delete_players(bands.game, players)
    derived = bands.restrict(players)
    rebuilt = _rebuilt(bands, surviving, smaller)
    assert derived.game == rebuilt.game
    assert derived.distinguished == rebuilt.distinguished
    assert derived.heavy == rebuilt.heavy
    assert list(map(_block_fields, derived.blocks)) == list(map(_block_fields, rebuilt.blocks))


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestDerivedRestrict:
    """``BandSystem.restrict`` applies the deletion through
    ``delete_players`` and builds the smaller system with the validating
    constructor; a rebuild from the survivors' own fields is its oracle."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_every_exhaustive_candidate_of_the_decrease_gadgets(self, which):
        instance = _gadget("decrease", which)
        for players in _exhaustive_candidates(instance):
            _assert_restrict_matches_rebuild(instance.bands, players)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["decrease", "nonincrease", "maintain"]))
    def test_generated_deletions(self, data, kind):
        # single players of any kind, plus whole provenance groups, so that
        # blocks are emptied and heavy groups vanish as well
        instance = _gadget(kind, 1)
        deletable = [p for p in range(instance.game.num_players) if p != instance.distinguished]
        player = st.one_of(
            st.sampled_from(sorted(instance.bands.heavy)),
            st.sampled_from(group_members(instance, "Z*")),
            st.sampled_from(deletable),
        )
        players = set(data.draw(st.frozensets(player, max_size=12)))
        labels = sorted(set(instance.groups) - {"player-1"})
        for label in data.draw(st.frozensets(st.sampled_from(labels), max_size=3)):
            players.update(group_members(instance, label))
        _assert_restrict_matches_rebuild(instance.bands, players)

    def test_toy_deletions_that_empty_blocks(self):
        bands = banded_toy()
        for players in ({3, 4}, {1, 5, 6, 7}, {2, 3, 4, 8, 9, 10, 11}, set(range(1, 12))):
            _assert_restrict_matches_rebuild(bands, players)

    @pytest.mark.parametrize(
        "victims, error, message",
        [
            ({0, 5}, BandStructureError, "cannot delete the distinguished player"),
            ({5, 12}, InvalidCoalitionError, "player 12 out of range for a 12-player game"),
            (range(12), InputError, "cannot delete every player"),
        ],
        ids=["distinguished", "out-of-range", "everyone"],
    )
    def test_refuses_a_victim_set(self, victims, error, message):
        with pytest.raises(error) as caught:
            banded_toy().restrict(victims)
        assert type(caught.value) is error
        assert str(caught.value) == message


def _count_after(game: Game, player: int, deleted) -> int:
    """The player's pivot count after deleting ``deleted``, by enumeration,
    checked against meet-in-the-middle."""
    smaller, remap = delete_players(game, deleted)
    count = pivot_count_enum(smaller, remap[player])
    assert pivot_count_mitm(smaller, remap[player]) == count
    return count


# A few deletions, each a mask of players and a mask of blocks deleted whole.
_DELETION_MASKS = st.lists(
    st.tuples(st.integers(0, (1 << 12) - 1), st.integers(0, 7)), min_size=1, max_size=3
)


def _deleted(claim: BandClaim, players: int, blocks: int) -> frozenset[int]:
    """The players and the members of the blocks in the two masks, less the
    distinguished player."""
    deleted = {p for p in range(claim.game.num_players) if players >> p & 1}
    for index, (_, _, members, _) in enumerate(claim.blocks):
        if blocks >> index & 1:
            deleted.update(members)
    return frozenset(deleted - {claim.distinguished})


def _assert_refused_or_exact(claim: BandClaim, masks) -> None:
    """Either the constructor refuses the claim, or every count of the
    system is exact: the light subsets of each subset sum and one above it
    against enumerating them, and against enum and mitm the full count and,
    after each deletion of ``masks``, the ``DeletionCounter`` count, the
    restricted system's count and each heavy player's term after the
    deletion's light players."""
    try:
        bands = claim.build()
    except BandStructureError:
        return
    game, player, heavy = claim.game, claim.distinguished, claim.heavy
    weights = [w for block in bands.blocks for w in block.weights]
    sums = Counter(
        sum(subset)
        for size in range(len(weights) + 1)
        for subset in itertools.combinations(weights, size)
    )
    for value in {*sums, *(s + 1 for s in sums)}:
        assert count_light_subsets(bands, value) == sums[value], value
    assert pivot_count_layered(bands) == _count_after(game, player, ())
    counter = DeletionCounter(bands)
    for mask in masks:
        players = _deleted(claim, *mask)
        count = _count_after(game, player, players)
        assert counter.count(players) == count
        assert pivot_count_layered(bands.restrict(players)) == count
        light = players - heavy
        terms = counter.heavy_terms(light)
        # a pivotal coalition holds one heavy player: t_h(L) = eta(L) - eta(L + h)
        total = _count_after(game, player, light)
        assert {h: terms.get(h, 0) for h in heavy} == {
            h: total - _count_after(game, player, light | {h}) for h in heavy
        }


class TestRandomBandSystems:
    """The band rules on systems nobody designed: the constructor refuses a
    claim, or every layered count of the system is exact."""

    @pytest.mark.parametrize("broken", [None, *BAND_RULES])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), masks=_DELETION_MASKS)
    def test_bottom_up_systems_are_refused_or_exact(self, broken, data, masks):
        _assert_refused_or_exact(data.draw(bottom_up_band_claims(broken)), masks)

    @settings(max_examples=60, deadline=None)
    @given(claim=random_band_claims(), masks=_DELETION_MASKS)
    def test_random_claims_are_refused_or_exact(self, claim, masks):
        _assert_refused_or_exact(claim, masks)


def _pivotal_at_both_ends(bands: BandSystem) -> bool:
    """A window at least two wide, with a heavy term at either end."""
    game = bands.game
    w_p = game.weights[bands.distinguished]
    heavy = [game.weights[h] for h in bands.heavy]
    return w_p > 1 and all(
        any(count_light_subsets(bands, end - w) for w in heavy if end >= w)
        for end in (game.quota - w_p, game.quota - 1)
    )


def _boundaries(claim: BandClaim) -> set[str]:
    """The band-rule boundaries a claim sits at."""
    try:
        blocks = claim.light_blocks()
    except BandStructureError:
        return set()
    try:
        bands = claim.build()
    except BandStructureError:
        bands = None
    found, below = set(), 0
    for block in reversed(blocks):
        if not block.weights and below >= block.granularity:
            found.add("an empty block over a heavier band")
        elif below and below == block.min_gap:
            found.add("blocks below weigh exactly the gap")
        elif below and below == block.min_gap - 1:
            found.add("blocks below weigh one less than the gap")
        superincreasing = block.kind is BlockKind.SUPERINCREASING
        if superincreasing and block.weights and below >= block.granularity:
            found.add("a superincreasing gap above the granularity")
        below += block.max_sum
    lightest = sorted(claim.game.weights[h] for h in claim.heavy)[:2]
    if len(lightest) == 2 and claim.game.quota - sum(lightest) in (0, 1):
        found.add(f"a heavy pair {claim.game.quota - sum(lightest)} short of the quota")
    if bands is not None:
        if _pivotal_at_both_ends(bands):
            found.add("residuals at both ends of the window")
        if any(
            target == block.max_sum > 0 and block.kind is not BlockKind.SUPERINCREASING
            for _, targets, _, _ in counter_terms(bands)
            for block, target in zip(bands.blocks, targets)
        ):
            found.add("a full uniform or enumerable share")
    verdict = "refused" if bands is None else "accepted"
    return {f"{verdict}: {label}" for label in found}


class TestBottomUpClaimsReachTheBoundaries:
    """The bottom-up strategy reaches each rule's boundary from inside, and
    one unit past it where the rule then refuses."""

    @pytest.mark.parametrize(
        "broken, boundary",
        [
            (None, "accepted: blocks below weigh one less than the gap"),
            ("gap", "refused: blocks below weigh exactly the gap"),
            (None, "accepted: a superincreasing gap above the granularity"),
            (None, "accepted: an empty block over a heavier band"),
            (None, "accepted: a heavy pair 0 short of the quota"),
            ("pair", "refused: a heavy pair 1 short of the quota"),
            (None, "accepted: residuals at both ends of the window"),
            (None, "accepted: a full uniform or enumerable share"),
        ],
    )
    def test_reaches(self, broken, boundary):
        find(
            bottom_up_band_claims(broken),
            lambda claim: boundary in _boundaries(claim),
            settings=settings(
                max_examples=1000, database=None, derandomize=True, phases=[Phase.generate]
            ),
        )


@st.composite
def column_blocks(draw) -> LightBlock:
    """An enumerable block of 1-9 members whose weights sit in random
    decimal columns of 1-3 digits, with empty positions between some.
    Members touch one column or several; a column may get a last member
    that brings its total to exactly one below the next column's place or
    exactly to it, so some columns carry."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts, position = [], 0
    for width in widths:
        position += draw(st.integers(0, 2))
        starts.append(position)
        position += width
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        columns = draw(st.sets(st.integers(0, len(widths) - 1), min_size=1, max_size=3))
        parts.append({c: draw(st.integers(1, 10 ** widths[c] - 1)) for c in columns})
    for column, width in enumerate(widths):
        edge = 10**width - 1 + draw(st.integers(0, 1))
        total = sum(own.get(column, 0) for own in parts)
        if draw(st.booleans()) and total < edge:
            parts.append({column: edge - total})
    granularity = draw(st.sampled_from((1, 1, 7, 10, 1000)))
    weights = tuple(
        granularity * sum(part * 10 ** starts[c] for c, part in own.items()) for own in parts
    )
    members = tuple(range(len(weights)))
    return LightBlock("cols", BlockKind.ENUMERABLE, members, weights, granularity)


def _assert_block_count(block: LightBlock, rng: random.Random) -> None:
    """``count_block`` against enumerating the block's subsets: every subset
    sum (at most 40 of them, drawn by ``rng``), one granularity above each,
    and multiples of the granularity no subset reaches.  A target off the
    granularity's grid or outside ``[0, max_sum]`` must be refused."""
    weights, granularity = block.weights, block.granularity
    sums = Counter(
        sum(subset)
        for size in range(len(weights) + 1)
        for subset in itertools.combinations(weights, size)
    )
    on_grid = rng.sample(sorted(sums), min(len(sums), 40))
    top = 2 * block.max_sum // granularity + 2
    unreached = [granularity * rng.randint(0, top) for _ in range(10)]
    for target in {*on_grid, *(s + granularity for s in on_grid), *unreached}:
        if target > block.max_sum:
            with pytest.raises(BandStructureError, match="outside"):
                count_block(block, target)
        else:
            assert count_block(block, target) == sums[target], target
    with pytest.raises(BandStructureError, match="outside"):
        count_block(block, -granularity)
    if granularity > 1 and block.max_sum:
        with pytest.raises(BandStructureError, match="not a multiple of the granularity"):
            count_block(block, block.max_sum - 1)


def _compile_batch(rng: random.Random):
    """Strict gadgets of every kind for n = 5..7 and 1-4 random clauses."""
    for n in (5, 6, 7):
        for m in (1, 2, 3, 4):
            for build in (build_decrease, build_nonincrease, build_maintain):
                formula, k = random_formula(rng, n, m), rng.randint(4, n - 1)
                if build is build_maintain:
                    yield build(formula, k, 3 * rng.randint(1, 1 << (n - k)))
                else:
                    yield build(formula, k)


@st.composite
def enumerable_blocks(draw) -> LightBlock:
    """An enumerable block of 0-12 members: small weights that repeat and
    collide, or wide ones, all multiples of a drawn granularity."""
    granularity = draw(st.sampled_from((1, 1, 3, 10)))
    largest = draw(st.one_of(st.integers(1, 12), st.integers(1, 1 << 40)))
    weights = tuple(
        granularity * w for w in draw(st.lists(st.integers(1, largest), max_size=12))
    )
    members = tuple(range(len(weights)))
    return LightBlock("any", BlockKind.ENUMERABLE, members, weights, granularity)


@pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")
class TestPrunedBlockCount:
    """Enumerable blocks are counted by one pruned pass, and by
    meet-in-the-middle when the pass passes its state cap."""

    @settings(max_examples=150, deadline=None)
    @given(
        block=column_blocks(),
        keep=st.integers(0, (1 << 12) - 1),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_brute_force_on_random_column_blocks(self, block, keep, rng):
        _assert_block_count(block, rng)
        surviving = {m: m for m in block.members if keep >> m & 1}
        _assert_block_count(block.restrict(surviving), rng)

    @pytest.mark.parametrize("cap", [0, 1, 8])
    @settings(max_examples=100, deadline=None)
    @given(block=enumerable_blocks(), data=st.data())
    def test_pass_and_fallback_match_brute_force_under_a_small_cap(self, cap, block, data):
        units = data.draw(st.integers(0, block.max_sum // block.granularity))
        target = units * block.granularity
        expected = sum(
            sum(subset) == target
            for size in range(len(block.weights) + 1)
            for subset in itertools.combinations(block.weights, size)
        )
        with mock.patch.object(bands_module, "_MAX_PRUNED_STATES", cap):
            pruned = bands_module._pruned_count(block.weights, target)
            assert count_block(block, target) == expected
        assert pruned in (None, expected)
        if cap == 0 and block.weights:
            assert pruned is None  # so the count above came from the fallback

    def test_matches_mitm_on_every_walk_target_of_a_compile_batch(self, monkeypatch):
        recorded, checked = [], Counter()
        original = bands_module.count_block

        def recording(block, target):
            recorded.append((block, target))
            return original(block, target)

        monkeypatch.setattr(bands_module, "count_block", recording)
        for instance in _compile_batch(random.Random(3)):
            recorded.clear()
            pivot_count_layered(instance.bands)
            for block, target in recorded:
                if block.name not in ("E", "ABC") or len(block.members) > 30:
                    continue
                # the pass finishes every gadget target, with no fallback
                pruned = bands_module._pruned_count(block.weights, target)
                assert pruned == count_subsets_mitm(block.weights, target, target)
                checked[block.name, len(block.members) > 20] += 1
        # both blocks, small ones and ones past 20 members
        assert set(checked) == {("E", False), ("E", True), ("ABC", False), ("ABC", True)}

    def test_a_300_clause_e_block_counts_the_models(self):
        # clauses true under x1..x6 = 1, 0, 1, 1, 0, 0 keep the formula satisfiable
        rng, planted, clauses = random.Random(7), {1, -2, 3, 4, -5, -6}, []
        while len(clauses) < 300:
            clause = frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), 3))
            if clause & planted:
                clauses.append(clause)
        formula = CnfFormula(6, tuple(clauses))
        instance = build_decrease(formula, 4)
        e_block = block_named(instance.bands, "E")
        pre = build_prereduction(formula, 4, t_floor=10 ** instance.meta["t"] - 1)
        assert e_block.weights == pre.scaled_weights and len(e_block.members) == 912
        gc.collect()
        gc.disable()
        try:
            assert count_block(e_block, pre.q_double_prime) == count_sat(formula) > 0
            assert gc.collect() == 0  # the pass leaves no reference cycle
        finally:
            gc.enable()
        assert ExactIndex(pivot_count_layered(instance.bands), instance.game.num_players - 1) == (
            expected_index(Goal.DECREASE, 4, 6, count_sat(formula), instance.game.num_players)
        )

    def test_a_block_the_pass_cannot_finish_is_refused_past_thirty_members(self):
        rng = random.Random(5)
        weights = tuple(rng.randrange(1 << 59, 1 << 60) for _ in range(31))
        target = sum(w for w in weights[:25] if rng.random() < 0.5)  # mid-range
        block = LightBlock("wide", BlockKind.ENUMERABLE, tuple(range(31)), weights, 1)
        refusal = r"31 members \(limit 30\) and its pruned count visits more than 262144 states"
        with pytest.raises(BudgetExceededError, match=refusal):
            count_block(block, target)
        smaller = block.restrict({m: m for m in range(25)})  # within the mitm limit
        assert bands_module._pruned_count(smaller.weights, target) is None
        expected = count_subsets_mitm(smaller.weights, target, target)
        assert count_block(smaller, target) == expected > 0

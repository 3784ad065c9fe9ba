"""Game primitives: characteristic function, pivotality, surgery, exact indices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wvgcontrol import (
    ExactIndex,
    Game,
    InputError,
    InvalidCoalitionError,
    characteristic,
    delete_players,
    is_pivotal,
    weight_class_partition,
)

from conftest import random_game


class TestCharacteristic:
    def test_winning_coalition(self, example1):
        # both weight-3 players (indices 4, 5) plus a weight-2 player
        assert characteristic(example1, {4, 5, 1}) == 1

    def test_empty_coalition_loses(self, example1):
        assert characteristic(example1, set()) == 0

    def test_weight_seven_loses(self, example1):
        # weights 3 + 3 + 1 = 7 < 8
        assert characteristic(example1, {4, 5, 0}) == 0

    def test_out_of_range_member(self, example1):
        with pytest.raises(InvalidCoalitionError):
            characteristic(example1, {6})

    def test_monotone_on_random_nested_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            game = random_game(rng, max_players=10)
            players = list(range(game.num_players))
            small = {p for p in players if rng.random() < 0.4}
            large = small | {p for p in players if rng.random() < 0.4}
            assert characteristic(game, small) <= characteristic(game, large)


class TestIsPivotal:
    def test_weight2_pivotal_for_both_threes(self, example1):
        assert is_pivotal(example1, 1, {4, 5})

    def test_zero_weight_never_pivotal(self):
        game = Game((0, 5, 5), 6)
        for coalition in (set(), {1}, {2}, {1, 2}):
            assert not is_pivotal(game, 0, coalition)

    def test_not_pivotal_for_already_winning(self, example1):
        # 3 + 3 + 1 + 2 = 9 >= 8 already wins
        assert not is_pivotal(example1, 1, {4, 5, 0, 2})

    def test_member_rejected(self, example1):
        with pytest.raises(InvalidCoalitionError):
            is_pivotal(example1, 4, {4, 5})

    def test_interval_formulation_agrees(self, example1):
        # pivotality == the interval test quota - w_i <= w_T <= quota - 1
        rng = random.Random(7)
        for _ in range(100):
            game = random_game(rng, max_players=8)
            player = rng.randrange(game.num_players)
            coalition = {
                p for p in range(game.num_players) if p != player and rng.random() < 0.5
            }
            total = sum(game.weights[p] for p in coalition)
            expected = game.quota - game.weights[player] <= total <= game.quota - 1
            assert is_pivotal(game, player, coalition) == expected


class TestDeletePlayers:
    def test_delete_weight3(self, example1):
        game, remap = delete_players(example1, {5})
        assert game == Game((1, 2, 2, 2, 3), 8)
        assert remap == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_delete_nothing_is_identity(self, example1):
        game, remap = delete_players(example1, set())
        assert game == example1
        assert remap == {p: p for p in range(6)}

    def test_delete_weight2(self, example1):
        game, remap = delete_players(example1, {1})
        assert game == Game((1, 2, 2, 3, 3), 8)
        assert remap == {0: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_deletion_commutes_with_union(self):
        rng = random.Random(3)
        for _ in range(100):
            game = random_game(rng, max_players=10)
            players = set(range(game.num_players))
            first = {p for p in players if rng.random() < 0.3}
            second = {p for p in players - first if rng.random() < 0.3}
            if len(first | second) == game.num_players:
                continue
            one_step, remap_union = delete_players(game, first | second)
            mid, remap1 = delete_players(game, first)
            two_step, remap2 = delete_players(mid, {remap1[p] for p in second})
            assert one_step == two_step
            for survivor in players - first - second:
                assert remap_union[survivor] == remap2[remap1[survivor]]

    def test_cannot_delete_everyone(self):
        with pytest.raises(InputError):
            delete_players(Game((1,), 1), {0})


class TestWeightClassPartition:
    def test_example1_classes(self, example1):
        partition = weight_class_partition(example1)
        assert partition.classes == ((3, (4, 5)), (2, (1, 2, 3)), (1, (0,)))
        assert partition.as_dict() == {3: (4, 5), 2: (1, 2, 3), 1: (0,)}

    def test_all_distinct(self):
        partition = weight_class_partition(Game((5, 3, 1), 4))
        assert all(len(members) == 1 for _, members in partition.classes)

    def test_all_equal(self):
        partition = weight_class_partition(Game((2, 2, 2, 2), 4))
        assert partition.classes == ((2, (0, 1, 2, 3)),)

    def test_members_of_missing_weight(self, example1):
        assert weight_class_partition(example1).members_of(4) == ()


class TestGameValidation:
    def test_negative_weight(self):
        with pytest.raises(InputError):
            Game((1, -2), 3)

    def test_zero_quota(self):
        with pytest.raises(InputError):
            Game((1, 2), 0)

    def test_no_players(self):
        with pytest.raises(InputError):
            Game((), 1)

    @pytest.mark.parametrize(
        "weights, quota",
        [((True, 2), 3), ((1, False), 3), ((1, 2), True)],
        ids=["true-weight", "false-weight", "true-quota"],
    )
    def test_bool_weights_and_quota_rejected(self, weights, quota):
        with pytest.raises(InputError, match="integer"):
            Game(weights, quota)


@pytest.mark.parametrize(
    "value, text",
    [
        (Game((10**5000, 1), 2), "(1" + "0" * 5000 + ", 1; 2)"),
        (Game((1, 2), 10**5000), "(1, 2; 1" + "0" * 5000 + ")"),
        (ExactIndex(10**5000, 3), "1" + "0" * 5000 + "/2^3"),
    ],
    ids=["game-weight", "game-quota", "index-count"],
)
def test_str_past_the_int_str_digit_limit(value, text):
    assert str(value) == text


class TestExactIndex:
    def test_equality_across_representations(self):
        assert ExactIndex(8, 5) == ExactIndex(1, 2)
        assert ExactIndex(8, 5) == ExactIndex(4, 4)
        assert hash(ExactIndex(8, 5)) == hash(ExactIndex(1, 2))

    def test_ordering_matches_fractions(self):
        rng = random.Random(19)
        for _ in range(500):
            a = ExactIndex(rng.randrange(0, 1 << 20), rng.randrange(0, 40))
            b = ExactIndex(rng.randrange(0, 1 << 20), rng.randrange(0, 40))
            assert (a < b) == (a.as_fraction() < b.as_fraction())
            assert (a <= b) == (a.as_fraction() <= b.as_fraction())
            assert (a == b) == (a.as_fraction() == b.as_fraction())
            assert (a > b) == (a.as_fraction() > b.as_fraction())

    @given(
        st.integers(0, 1 << 80), st.integers(0, 120),
        st.integers(0, 1 << 80), st.integers(0, 120),
    )
    def test_ordering_matches_fractions_property(self, count_a, exp_a, count_b, exp_b):
        a, b = ExactIndex(count_a, exp_a), ExactIndex(count_b, exp_b)
        x, y = a.as_fraction(), b.as_fraction()
        assert (a < b, a <= b, a == b, a >= b, a > b) == (x < y, x <= y, x == y, x >= y, x > y)
        if a == b:
            assert hash(a) == hash(b)

    def test_total_order_is_consistent(self):
        values = [ExactIndex(3, 4), ExactIndex(8, 5), ExactIndex(0, 0), ExactIndex(7, 3)]
        by_cross_mult = sorted(values)
        by_fraction = sorted(values, key=ExactIndex.as_fraction)
        assert [v.as_fraction() for v in by_cross_mult] == [
            v.as_fraction() for v in by_fraction
        ]

    def test_huge_exponent_stays_exact(self):
        tiny = ExactIndex(11904, 317)
        tinier = ExactIndex(11903, 317)
        assert tinier < tiny
        assert tiny == ExactIndex(11904 * 2**100, 417)

    def test_str_and_decimal(self):
        value = ExactIndex(8, 5)
        assert str(value) == "8/2^5"
        assert value.as_fraction() == Fraction(1, 4)
        assert value.decimal().startswith("0.25")

    def test_validation(self):
        with pytest.raises(InputError):
            ExactIndex(-1, 2)
        with pytest.raises(InputError):
            ExactIndex(1, -2)

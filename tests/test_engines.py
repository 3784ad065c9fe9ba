"""The three pivotal-count engines and their mutual-oracle properties."""

from __future__ import annotations

import inspect
import itertools
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    BudgetExceededError,
    EngineBudget,
    ExactIndex,
    Game,
    InputError,
    banzhaf,
    delete_players,
    pivot_count_enum,
    pivot_count_mitm,
    pivot_count_weight_dp,
)
from wvgcontrol import engines
from wvgcontrol.engines import count_subsets_mitm, count_window, dp_limb_bits, half_sum_tables
from wvgcontrol.formulas import count_subset_sum

from conftest import random_game

ALL_ENGINES = (pivot_count_enum, pivot_count_mitm, pivot_count_weight_dp)


def all_counts(game: Game, player: int) -> set[int]:
    return {engine(game, player) for engine in ALL_ENGINES}


class TestWorkedExample:
    def test_weight2_player_has_eight_pivots(self, example1):
        assert all_counts(example1, 1) == {8}

    def test_after_deleting_weight3(self, example1):
        smaller, remap = delete_players(example1, {5})
        assert all_counts(smaller, remap[1]) == {3}
        assert banzhaf(smaller, remap[1]) == ExactIndex(3, 4)

    def test_after_deleting_weight2(self, example1):
        smaller, remap = delete_players(example1, {2})
        assert all_counts(smaller, remap[1]) == {4}
        assert banzhaf(smaller, remap[1]) == ExactIndex(1, 2)

    def test_weight1_player(self, example1):
        # frozen from the enumeration oracle: subsets of (2,2,2,3,3) summing to 7
        assert all_counts(example1, 0) == {6}


class TestSmallCases:
    def test_single_player_pivotal_for_empty(self):
        game = Game((5,), 3)
        assert all_counts(game, 0) == {1}

    def test_dictator_among_dummies(self):
        game = Game((9, 0, 0, 0), 8)
        assert all_counts(game, 0) == {2 ** 3}

    def test_quota_one_all_positive(self):
        # only the empty coalition loses, and every player completes it
        game = Game((2, 3, 4), 1)
        for player in range(3):
            assert all_counts(game, player) == {1}

    def test_unreachable_quota(self):
        game = Game((1, 1, 1), 50)
        assert all_counts(game, 0) == {0}

    def test_zero_weight_player_never_pivotal(self):
        game = Game((0, 3, 4), 5)
        assert all_counts(game, 0) == {0}


class TestBudgets:
    def test_enum_refusal_names_budget(self):
        game = Game(tuple([1] * 6), 3)
        with pytest.raises(BudgetExceededError, match="max_enum_players"):
            pivot_count_enum(game, 0, EngineBudget(max_enum_players=4))

    def test_mitm_refusal(self):
        game = Game(tuple([1] * 12), 3)
        with pytest.raises(BudgetExceededError, match="max_mitm_half"):
            pivot_count_mitm(game, 0, EngineBudget(max_mitm_half=2))

    def test_dp_refusal(self):
        game = Game((10, 20), 15)
        with pytest.raises(BudgetExceededError, match="max_dp_quota"):
            pivot_count_weight_dp(game, 0, EngineBudget(max_dp_quota=10))

    @pytest.mark.parametrize("quota", [10**14, 10**20])
    def test_unallocatable_table_is_a_refusal(self, quota):
        # a table of 10**14 one-byte cells exceeds any machine's memory, so
        # the allocation fails at once; at 10**20 the int size overflows
        game = Game((quota,) * 3 + (1,), quota)
        with pytest.raises(BudgetExceededError, match=f"quota {quota} .*max_dp_quota"):
            pivot_count_weight_dp(game, 3, EngineBudget(max_dp_quota=10**21))

    def test_budget_validation(self):
        with pytest.raises(Exception):
            EngineBudget(max_enum_players=0)

    @pytest.mark.parametrize("field", ["max_enum_players", "max_mitm_half", "max_dp_quota"])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_budget_must_be_an_integer(self, field, value):
        with pytest.raises(InputError) as caught:
            EngineBudget(**{field: value})
        assert str(caught.value) == f"engine budget {field} must be an integer, got {value!r}"


class TestEngineAgreement:
    def test_agreement_on_random_games(self):
        rng = random.Random(101)
        for _ in range(60):
            game = random_game(rng, max_players=12)
            player = rng.randrange(game.num_players)
            assert len(all_counts(game, player)) == 1

    def test_count_range(self):
        rng = random.Random(102)
        for _ in range(60):
            game = random_game(rng, max_players=10)
            player = rng.randrange(game.num_players)
            count = pivot_count_enum(game, player)
            assert 0 <= count <= 1 << (game.num_players - 1)

    def test_duplicate_symmetry(self):
        rng = random.Random(103)
        for _ in range(40):
            game = random_game(rng, max_players=10, max_weight=6)
            by_weight: dict[int, list[int]] = {}
            for player, weight in enumerate(game.weights):
                by_weight.setdefault(weight, []).append(player)
            for members in by_weight.values():
                counts = {pivot_count_enum(game, p) for p in members}
                assert len(counts) == 1

    def test_dummy_deletion_halves_denominator_only(self):
        rng = random.Random(104)
        for _ in range(40):
            game = random_game(rng, max_players=9)
            zeros = [p for p, w in enumerate(game.weights) if w == 0]
            if not zeros or len(zeros) == game.num_players:
                continue
            smaller, remap = delete_players(game, {zeros[0]})
            for player in range(game.num_players):
                if player == zeros[0]:
                    continue
                before = pivot_count_enum(game, player)
                after = pivot_count_enum(smaller, remap[player])
                # every pivotal coalition loses its zero-weight twin
                assert before == 2 * after
                assert banzhaf(game, player) == banzhaf(smaller, remap[player])

    def test_mitm_on_wide_game_vs_enum_subsamples(self):
        rng = random.Random(105)
        wide = Game(tuple(rng.randint(1, 100) for _ in range(30)), 700)
        for _ in range(5):
            keep = sorted(rng.sample(range(30), 20))
            sub = Game(tuple(wide.weights[p] for p in keep), wide.quota)
            player = rng.randrange(20)
            assert pivot_count_mitm(sub, player) == pivot_count_enum(sub, player)


class TestPackedWeightTable:
    """Cells are limbs of ``m + 1`` bits over the sums of the lower window."""

    @pytest.mark.parametrize("m", [7, 8, 15, 16, 63, 64])
    def test_full_cell_fits_its_limb(self, m):
        # every one of the 2**m co-player subsets weighs 0: one full cell
        assert pivot_count_weight_dp(Game((1,) + (0,) * m, 1), 0) == 2**m

    @pytest.mark.parametrize("m", [7, 8, 29, 30, 31])
    @pytest.mark.parametrize("weight", [1, 2], ids=["direct", "complement"])
    def test_full_cell_reads_out_without_a_carry(self, m, weight):
        # 2**m is the top bit of an (m + 1)-bit limb; at weight 2 the
        # complement window [-1, 0] has the lower top
        game = Game((weight,) + (0,) * m, weight)
        assert dp_limb_bits(m) == m + 1
        assert pivot_count_weight_dp(game, 0) == quota_wide_dp(game, 0) == 2**m

    def test_top_cell_is_counted(self):
        # co-player sums are 0, 7 and 14; only 14 = quota - 1 is in [12, 14]
        game = Game((3, 7, 7) + (0,) * 5, 15)
        assert all_counts(game, 0) == {2**5}

    def test_co_players_at_or_above_quota_are_skipped(self):
        # only {3} and {3, 1} land in [3, 4]
        game = Game((2, 5, 9, 3, 1), 5)
        assert all_counts(game, 0) == {2}


# sums that hit the edges: zero weights, weights at or above the quota
def _weight(quota: int) -> st.SearchStrategy[int]:
    return st.one_of(
        st.just(0), st.integers(1, quota), st.integers(quota, 2 * quota + 3)
    )


class TestWeightTableProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), quota=st.one_of(st.just(1), st.integers(1, 40)))
    def test_equals_enum_on_small_games(self, data, quota):
        weights = data.draw(st.lists(_weight(quota), min_size=1, max_size=10))
        game = Game(tuple(weights), quota)
        player = data.draw(st.integers(0, game.num_players - 1))
        assert pivot_count_weight_dp(game, player) == pivot_count_enum(game, player)

    @settings(max_examples=15, deadline=None)
    @given(weights=st.lists(st.integers(0, 200), min_size=30, max_size=36), data=st.data())
    def test_equals_mitm_on_mid_sized_games(self, weights, data):
        quota = data.draw(st.integers(1, max(sum(weights), 1) + 2))
        game = Game(tuple(weights), quota)
        player = data.draw(st.integers(0, game.num_players - 1))
        assert pivot_count_weight_dp(game, player) == pivot_count_mitm(game, player)

    @settings(max_examples=25, deadline=None)
    @given(weights=st.lists(st.integers(0, 1000), min_size=46, max_size=60), data=st.data())
    def test_equals_itself_on_the_dual_game(self, weights, data):
        # T is pivotal at quota q iff its complement among the co-players
        # is pivotal at quota W - q + 1
        total = sum(weights)
        assume(total >= 1)
        quota = data.draw(st.integers(1, total))
        player = data.draw(st.integers(0, len(weights) - 1))
        dual = Game(tuple(weights), total - quota + 1)
        assert pivot_count_weight_dp(Game(tuple(weights), quota), player) == (
            pivot_count_weight_dp(dual, player)
        )


def quota_wide_dp(game: Game, player: int) -> int:
    """The reference weight table: one limb of ``8 * (m // 8 + 1)`` bits for
    every sum ``0 .. quota - 1``, read out cell by cell."""
    others = [w for p, w in enumerate(game.weights) if p != player]
    lo, hi = max(game.quota - game.weights[player], 0), game.quota - 1
    if hi < lo:
        return 0
    limb = 8 * (len(others) // 8 + 1)
    mask = (1 << (game.quota * limb)) - 1
    table = 1
    for w in sorted(others):
        if w < game.quota:
            table = (table + (table << (w * limb))) & mask
    window = table >> (lo * limb)
    return sum((window >> (s * limb)) & ((1 << limb) - 1) for s in range(hi + 1 - lo))


def traced_dp(game: Game, player: int) -> tuple[int, tuple[int, int], int]:
    """The dp count, the ``(lo, hi)`` window its table covers, and how
    many times it shifted dead cells off."""
    kernel = engines._packed_window_counts
    code = kernel.__code__
    source, first = inspect.getsourcelines(kernel)
    drop_line = first + next(i for i, line in enumerate(source) if "table >>= shift" in line)
    windows, drops = [], []  # (lo, hi) per kernel call; one entry per shift

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "call":
            windows.append((frame.f_locals["lo"], frame.f_locals["hi"]))
        elif event == "line" and frame.f_lineno == drop_line:
            drops.append(None)
        return tracer

    sys.settrace(tracer)
    try:
        count = pivot_count_weight_dp(game, player)
    finally:
        sys.settrace(None)
    assert len(windows) == 1
    return count, windows[0], len(drops)


@st.composite
def pivot_problems(draw) -> tuple[Game, int]:
    """Games with zero weights, weights past the window, and quotas of 1,
    below half, above half and above the total."""
    weights = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 9), st.integers(10, 60)), min_size=1, max_size=11
    ))
    player = draw(st.integers(0, len(weights) - 1))
    if draw(st.booleans()):
        weights[player] = draw(st.sampled_from([0, weights[player]]))
    total = sum(weights)
    quota = draw(st.one_of(
        st.just(1),
        st.integers(1, max(total // 2, 1)),
        st.integers(total // 2 + 1, total + 1),
        st.integers(total + 1, total + 40),
    ))
    return Game(tuple(weights), quota), player


class TestLowerWindowTable:
    """The table over the lower window against the quota-wide reference."""

    @settings(max_examples=400, deadline=None)
    @given(problem=pivot_problems())
    def test_equals_quota_wide_table_and_enum(self, problem):
        game, player = problem
        expected = pivot_count_enum(game, player)
        assert quota_wide_dp(game, player) == expected
        assert pivot_count_weight_dp(game, player) == expected

    @pytest.mark.parametrize(
        "quota, window", [(400, (195, 195)), (200, (199, 199))], ids=["complement", "direct"]
    )
    def test_smaller_window_is_counted(self, quota, window):
        # weights 1..34 total 595: the complement window of player 0 is
        # [595 - quota, 595 - quota]
        game = Game(tuple(range(1, 35)), quota)
        count, counted, _ = traced_dp(game, 0)
        assert counted == window
        assert count == quota_wide_dp(game, 0) == pivot_count_mitm(game, 0)

    @pytest.mark.parametrize(
        "weights, quota, window, drops",
        [
            # ten co-players of weight 1 in [5, 5]: one drop, to sums 4 .. 5,
            # when one of them is left
            ((1,) * 11, 6, (5, 5), 1),
            # thirty-two in [16, 16]: drops to sums 9, 14 and 16 when 7, 2
            # and 0 of them are left
            ((1,) * 33, 17, (16, 16), 3),
            ((7,) + tuple(range(1, 21)), 150, (61, 67), 2),
        ],
        ids=["ten-ones", "thirty-two-ones", "complement-1-to-20"],
    )
    def test_dead_cells_are_dropped(self, weights, quota, window, drops):
        game = Game(weights, quota)
        assert traced_dp(game, 0) == (quota_wide_dp(game, 0), window, drops)
        assert quota_wide_dp(game, 0) == pivot_count_mitm(game, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_quota_wide_table_at_dp_regime_sizes(self, seed):
        rng = random.Random(seed)
        for players in (46, 48, 50):
            weights = tuple(rng.randint(1, 600) for _ in range(players))
            total = sum(weights)
            for quota in (rng.randint(1, total // 2), rng.randint(total // 2, total)):
                game = Game(weights, quota)
                player = rng.randrange(players)
                assert pivot_count_weight_dp(game, player) == quota_wide_dp(game, player)


class TestBanzhaf:
    def test_exponent_is_player_count_minus_one(self, example1):
        value = banzhaf(example1, 1)
        assert value == ExactIndex(8, 5)
        assert value.pivot_count == 8 and value.exponent == 5

    def test_engine_dispatch(self, example1):
        for engine in ("enum", "mitm", "dp"):
            assert banzhaf(example1, 1, engine) == ExactIndex(1, 2)

    def test_unknown_engine(self, example1):
        with pytest.raises(Exception, match="unknown engine"):
            banzhaf(example1, 1, "magic")


class TestMeetInTheMiddleCore:
    """The shared core against a brute force over every subset."""

    @staticmethod
    def _brute(weights, lo, hi):
        return sum(
            lo <= sum(chosen) <= hi
            for size in range(len(weights) + 1)
            for chosen in itertools.combinations(weights, size)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_against_brute_force(self, seed):
        rng = random.Random(seed)
        pool = [0, 0, 1, 3, 3, 7, 10**39 + 1, 10**39 + 1, 2 * 10**40]
        size = 12 if seed % 2 else rng.randint(0, 11)
        weights = [
            rng.choice(pool) if rng.random() < 0.5 else rng.randint(0, 40)
            for _ in range(size)
        ]
        tables = half_sum_tables(weights)
        total = sum(weights)
        points = sorted({0, 1, 7, total, total + 1, rng.randint(0, max(total, 1))})
        windows = [(t, t) for t in points]  # lo == hi
        windows += [(lo, hi) for lo in points for hi in points if lo < hi]
        windows += [(hi, lo) for lo, hi in windows if lo < hi]  # lo > hi
        windows += [(-5, -1), (-3, -3), (-10, 4)]  # hi < 0, and lo < 0 <= hi
        for lo, hi in windows:
            expected = self._brute(weights, lo, hi)
            assert count_window(tables, lo, hi) == expected, (weights, lo, hi)
            assert count_window(tables[::-1], lo, hi) == expected, (weights, lo, hi)
            assert count_subsets_mitm(weights, lo, hi) == expected, (weights, lo, hi)

    @pytest.mark.parametrize(
        "weights",
        [
            [1] * 12,
            [0] * 5 + [2] * 7,
            [3, 3, 3, 5, 5, 7] * 2,
            [10**39 + 1] * 4 + [1, 2, 4] + [6] * 3,
            [4, 1, 4, 9, 1, 4, 0, 9, 1, 0, 4, 2, 2],
        ],
        ids=["ones", "zeros-twos", "mixed-multiples", "huge-repeats", "shuffled"],
    )
    def test_repeated_weights_against_brute_force(self, weights):
        tables = half_sum_tables(weights)
        total = sum(weights)
        points = sorted({0, 1, 2, 5, total // 2, total, total + 1})
        for lo in points:
            for hi in points:
                expected = self._brute(weights, lo, hi)
                assert count_window(tables, lo, hi) == expected, (weights, lo, hi)
                assert count_window(tables[::-1], lo, hi) == expected, (weights, lo, hi)
                assert count_subsets_mitm(weights, lo, hi) == expected, (weights, lo, hi)

    def test_many_equal_weights_fold_to_binomials(self):
        assert count_subset_sum([1] * 44, 3) == math.comb(44, 3)
        left, right = half_sum_tables([1] * 44)
        assert left == right == {j: math.comb(22, j) for j in range(23)}

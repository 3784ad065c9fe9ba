"""Control search: goal relations, symmetry reduction, modes, re-verification."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    BudgetExceededError,
    CnfFormula,
    ControlInstance,
    DeletionCounter,
    EngineBudget,
    ExactIndex,
    Game,
    Goal,
    InputError,
    InvalidCoalitionError,
    banzhaf,
    build_decrease,
    build_maintain,
    build_nonincrease,
    evaluate_deletion,
    exactify,
    pivot_count_layered,
    solve_control,
)
from wvgcontrol import control
from wvgcontrol.control import (
    DeletionCandidate,
    Exhaustive,
    Restricted,
    Sampled,
    SearchReport,
    _CandidateSpace,
    compute_index,
    pick_engine,
    relation_holds,
)
from wvgcontrol.engines import DEFAULT_BUDGET, pivot_count_enum
from wvgcontrol.errors import WvgError
from wvgcontrol.verify import NO_INSTANCES

from conftest import (
    bottom_up_band_claims,
    candidate,
    group_members,
    random_game,
    wide_interval_instance,
)

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")


def example1_instance(goal: Goal, budget: int = 1) -> ControlInstance:
    return ControlInstance(
        game=Game((1, 2, 2, 2, 3, 3), 8), distinguished=1, budget=budget, goal=goal
    )


class TestWorkedExampleControl:
    def test_decrease_finds_weight3(self):
        report = solve_control(example1_instance(Goal.DECREASE))
        assert report.verdict == "YES"
        assert report.witness.class_counts == ((3, 1),)
        assert report.index_before == ExactIndex(8, 5)
        assert report.index_after_witness == ExactIndex(3, 4)

    def test_maintain_finds_weight2(self):
        report = solve_control(example1_instance(Goal.MAINTAIN))
        assert report.verdict == "YES"
        assert report.witness.class_counts == ((2, 1),)
        assert report.index_after_witness == report.index_before

    def test_budget_zero_decrease_is_no(self):
        report = solve_control(example1_instance(Goal.DECREASE, budget=0))
        assert report.verdict == "NO-exhaustive"

    def test_nondecrease_yes(self):
        report = solve_control(example1_instance(Goal.NONDECREASE))
        assert report.verdict == "YES"

    def test_yes_witness_is_reverified(self):
        report = solve_control(example1_instance(Goal.DECREASE), engine="enum")
        assert report.reverified_with in ("mitm", "dp")


class TestGoalRelations:
    def test_all_five(self):
        lo, hi = ExactIndex(1, 3), ExactIndex(3, 3)
        assert relation_holds(Goal.DECREASE, hi, lo)
        assert relation_holds(Goal.NONINCREASE, hi, lo)
        assert relation_holds(Goal.NONINCREASE, hi, hi)
        assert relation_holds(Goal.MAINTAIN, hi, hi)
        assert relation_holds(Goal.INCREASE, lo, hi)
        assert relation_holds(Goal.NONDECREASE, lo, lo)
        assert not relation_holds(Goal.DECREASE, hi, hi)
        assert not relation_holds(Goal.MAINTAIN, hi, lo)

    @given(
        before=st.integers(0, 1 << 70),
        count=st.integers(0, 1 << 70),
        top=st.integers(0, 90),
        deleted=st.integers(0, 90),
        goal=st.sampled_from(list(Goal)),
    )
    def test_counts_over_one_denominator_agree_with_exact_indices(
        self, before, count, top, deleted, goal
    ):
        # a search compares a deletion of d players as count << d over 2^top
        deleted = min(deleted, top)
        assert relation_holds(goal, before, count << deleted) == relation_holds(
            goal, ExactIndex(before, top), ExactIndex(count, top - deleted)
        )

    def test_instance_refuses_an_unknown_goal(self, example1):
        with pytest.raises(InputError, match="'decrease'"):
            ControlInstance(example1, 1, 1, "decrease")
        assert ControlInstance(example1, 1, 1, "DECREASE").goal is Goal.DECREASE

    @pytest.mark.parametrize(
        "a_players, b_players",
        [((999,), (998,)), ((2,), (6,)), ((None, -1), (3, None))],
        ids=["both-past-the-end", "b-past-the-end", "negative"],
    )
    def test_carrier_tables_must_name_players(self, example1, a_players, b_players):
        with pytest.raises(InvalidCoalitionError, match="out of range"):
            ControlInstance(example1, 1, 1, Goal.DECREASE,
                            a_players=a_players, b_players=b_players)
        # null marks a deleted carrier and names no player
        ControlInstance(example1, 1, 1, Goal.DECREASE, a_players=(None, 2), b_players=(5, None))


class TestMinimumDeletionRule:
    def test_maintain_cannot_use_empty_deletion(self):
        # the only maintaining "deletion" is the empty one, so the answer is NO
        game = Game((1, 2), 3)
        instance = ControlInstance(game=game, distinguished=0, budget=1, goal=Goal.MAINTAIN)
        report = solve_control(instance)
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == 1  # just {delete the weight-2 player}

    def test_decrease_allows_empty_candidate_harmlessly(self):
        instance = example1_instance(Goal.DECREASE, budget=1)
        report = solve_control(instance)
        assert report.verdict == "YES"


class TestEvaluateDeletion:
    def test_empty_deletion_keeps_index(self, example1):
        instance = ControlInstance(
            game=example1, distinguished=1, budget=1, goal=Goal.DECREASE
        )
        result = evaluate_deletion(instance, set())
        assert result.before == result.after
        assert result.relations[Goal.MAINTAIN]
        assert not result.relations[Goal.DECREASE]

    def test_gadget_witness_decreases(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        instance = build_decrease(formula, 1, strict=False)
        from wvgcontrol import e_minority_sat, witness_deletion

        _, prefix = e_minority_sat(formula, 1)
        result = evaluate_deletion(instance, witness_deletion(instance, prefix))
        assert result.relations[Goal.DECREASE]
        assert result.engine == "layered"

    def test_deleting_z_star_increases(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        instance = build_decrease(formula, 1, strict=False)
        result = evaluate_deletion(instance, group_members(instance, "Z*"))
        assert result.relations[Goal.INCREASE]
        assert not result.relations[Goal.NONINCREASE]


class TestSymmetry:
    def test_same_class_representatives_agree(self):
        rng = random.Random(55)
        for _ in range(30):
            game = random_game(rng, max_players=9, max_weight=5)
            if game.num_players < 3:
                continue
            distinguished = 0
            by_weight: dict[int, list[int]] = {}
            for p, w in enumerate(game.weights):
                if p != distinguished:
                    by_weight.setdefault(w, []).append(p)
            twins = next((ps for ps in by_weight.values() if len(ps) >= 2), None)
            if twins is None:
                continue
            first = pivot_count_enum(*_delete(game, twins[0]))
            second = pivot_count_enum(*_delete(game, twins[1]))
            assert first == second


def _delete(game: Game, victim: int):
    from wvgcontrol import delete_players

    smaller, remap = delete_players(game, {victim})
    return smaller, remap[0]


class TestModes:
    def test_sampled_is_deterministic(self):
        instance = example1_instance(Goal.DECREASE)
        first = solve_control(instance, mode=Sampled(seed=9, trials=40))
        second = solve_control(instance, mode=Sampled(seed=9, trials=40))
        assert first.verdict == second.verdict
        assert first.candidates_evaluated == second.candidates_evaluated
        assert first.witness == second.witness

    def test_sampled_no_is_labelled(self):
        formula = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))
        instance = build_decrease(formula, 1, strict=False)
        report = solve_control(
            instance, engine="layered", mode=Sampled(seed=3, trials=50)
        )
        assert report.verdict == "NO-sampled"
        assert report.trials == 50 and report.seed == 3

    @pytest.mark.parametrize("trials", [2.0, True, "40", None])
    def test_sampled_refuses_a_trial_count_that_is_not_an_int(self, trials):
        with pytest.raises(InputError, match="integer trial count"):
            Sampled(seed=1, trials=trials)

    @pytest.mark.parametrize("seed", [None, [1], 1.0, True, "13"])
    def test_sampled_refuses_a_seed_that_is_not_an_int(self, seed):
        # None would draw from OS entropy and report a seed that cannot
        # reproduce the draws
        with pytest.raises(InputError, match=f"integer seed, got {re.escape(repr(seed))}$"):
            Sampled(seed=seed, trials=5)

    @pytest.mark.parametrize(
        "mode", ["sampled", Sampled, None, Exhaustive], ids=["str", "class", "none", "exhaustive"]
    )
    def test_a_mode_that_is_not_a_mode_instance_is_refused_before_counting(
        self, monkeypatch, mode
    ):
        counted = []
        monkeypatch.setattr(control, "compute_pivot_count", lambda *args: counted.append(args))
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        with pytest.raises(InputError, match=f"unknown search mode {re.escape(repr(mode))};"):
            solve_control(instance, engine="layered", mode=mode)
        assert counted == []

    @pytest.mark.parametrize(
        "labelled, groups, message",
        [(True, ("Q",), "no provenance group 'Q'"), (False, ("A",), "needs group labels")],
        ids=["unknown-group", "no-labels"],
    )
    def test_a_bad_restricted_mode_is_refused_before_counting(
        self, monkeypatch, example1, labelled, groups, message
    ):
        counted = []
        monkeypatch.setattr(control, "compute_pivot_count", lambda *args: counted.append(args))
        if labelled:
            instance = build_decrease(*NO_INSTANCES[1], strict=False)
        else:
            instance = ControlInstance(example1, 1, 1, Goal.DECREASE)
        with pytest.raises(InputError, match=message):
            solve_control(instance, engine="layered", mode=Restricted(groups))
        assert counted == []

    def test_restricted_needs_groups(self, example1):
        instance = ControlInstance(
            game=example1, distinguished=1, budget=1, goal=Goal.DECREASE
        )
        with pytest.raises(Exception, match="group"):
            solve_control(instance, mode=Restricted(("A",)))

    def test_sampled_over_an_empty_space_is_exhaustive(self):
        # maintain needs one deletion and the budget allows none: no candidate
        instance = example1_instance(Goal.MAINTAIN, budget=0)
        report = solve_control(instance, mode=Sampled(seed=9, trials=40))
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == 0
        assert report.seed is None and report.trials is None

    def test_restricted_refuses_no_group(self):
        instance = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
        assert solve_control(instance, engine="layered").verdict == "YES"
        with pytest.raises(InputError, match="at least one group"):
            solve_control(instance, engine="layered", mode=Restricted(()))

    @pytest.mark.parametrize("groups", ["AB", "player-1", 5])
    def test_restricted_refuses_a_bare_string(self, groups):
        with pytest.raises(InputError, match="groups must be a list or tuple"):
            Restricted(groups)

    def test_restricted_takes_its_groups_as_a_tuple(self):
        assert Restricted(["A"]) == Restricted(("A",))
        assert hash(Restricted(["A"])) == hash(Restricted(("A",)))
        # naming the groups must not use up a generator before the search
        instance = build_decrease(*NO_INSTANCES[0], strict=False)
        by_tuple = solve_control(instance, engine="layered", mode=Restricted(("A",)))
        by_generator = solve_control(instance, engine="layered", mode=Restricted(g for g in ["A"]))
        assert by_generator == by_tuple
        assert by_tuple.candidates_evaluated == 3

    def test_restricted_rejects_groups_the_instance_lacks(self):
        instance = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
        with pytest.raises(InputError, match="'Q'"):
            solve_control(instance, engine="layered", mode=Restricted(("Q",)))
        with pytest.raises(InputError, match="'Q', 'R'$"):
            solve_control(instance, engine="layered", mode=Restricted(("A", "Q", "R")))

    def test_restricted_a_only_covers_all_subsets(self):
        formula = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))
        instance = build_decrease(formula, 1, strict=False)
        report = solve_control(instance, engine="layered", mode=Restricted(("A",)))
        # C(2k, <= k) = C(2, 0) + C(2, 1) singleton-class multisets
        assert report.candidates_evaluated == 3
        assert report.verdict == "NO-exhaustive"

    def test_exhaustive_explores_class_space(self, example1):
        instance = ControlInstance(
            game=example1, distinguished=1, budget=2, goal=Goal.INCREASE
        )
        report = solve_control(instance, mode=Exhaustive())
        # classes excluding p: {3: 2, 2: 2, 1: 1}; sizes 0..2 -> 1 + 3 + 5
        assert report.candidates_evaluated == 9
        assert report.verdict == "NO-exhaustive"
        assert report.min_index_seen is not None
        assert report.max_index_seen is not None


class TestEngineSelection:
    def test_auto_prefers_layered_on_gadgets(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        instance = build_decrease(formula, 1, strict=False)
        report = solve_control(instance, engine="auto", mode=Restricted(("A",)))
        assert report.engine == "layered"

    def test_auto_uses_enum_on_small_plain_games(self, example1):
        instance = ControlInstance(
            game=example1, distinguished=1, budget=1, goal=Goal.DECREASE
        )
        report = solve_control(instance)
        assert report.engine == "enum"

    @staticmethod
    def _bare(num_players: int, quota: int) -> ControlInstance:
        game = Game(tuple(range(1, num_players + 1)), quota)
        return ControlInstance(game, 0, 0, Goal.DECREASE)

    @staticmethod
    def _drawn(num_players: int, low: int, high: int) -> ControlInstance:
        """A bare game of seeded weights in ``[low, high]``, its quota between
        half and two thirds of the total weight."""
        rng = random.Random(num_players)
        weights = tuple(rng.randint(low, high) for _ in range(num_players))
        total = sum(weights)
        game = Game(weights, rng.randint(total // 2, 2 * total // 3))
        return ControlInstance(game, rng.randrange(num_players), 0, Goal.DECREASE)

    @pytest.mark.parametrize(
        "num_players, low, high, budget, engine",
        [
            (16, 1, 1_000, DEFAULT_BUDGET, "dp"),
            (21, 1, 1_000, DEFAULT_BUDGET, "dp"),
            (18, 10**20, 10**40, DEFAULT_BUDGET, "mitm"),
            (24, 10**20, 10**40, DEFAULT_BUDGET, "mitm"),
            (30, 1, 10_000, DEFAULT_BUDGET, "dp"),
            (34, 1, 10_000, DEFAULT_BUDGET, "dp"),
            (22, 1, 1_000, EngineBudget(max_mitm_half=5, max_dp_quota=10), "enum"),
        ],
        ids=[
            "16-small-weights-dp",
            "21-small-weights-dp",
            "18-40-digit-weights-mitm",
            "24-40-digit-weights-mitm",
            "30-weights-to-10000-dp",
            "34-weights-to-10000-dp",
            "22-mitm-and-dp-refuse-enum",
        ],
    )
    def test_auto_picks_the_least_estimated_cost(self, num_players, low, high, budget, engine):
        assert pick_engine(self._drawn(num_players, low, high), budget) == engine

    def test_auto_compares_the_costs_of_a_5000_digit_quota_exactly(self):
        quota = 10**5000
        game = Game(tuple(quota // 4 + weight for weight in range(10)), quota)
        instance = ControlInstance(game, 0, 0, Goal.DECREASE)
        budget = EngineBudget(max_dp_quota=quota)  # so dp is costed too
        assert all(type(entry.cost(game)) is int for entry in control.ENGINES.values() if entry.cost)
        index, used = compute_index(instance, "auto", budget)
        assert used == "enum"
        assert index == compute_index(instance, "mitm", budget)[0]

    # (players, weights) ranges of the enum, mitm and dp regimes, and
    # budgets small enough that every feasible engine runs within a few ms
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        shape=st.sampled_from([(1, 8, 1, 2_000), (9, 17, 10**20, 10**40), (9, 24, 1, 2_000)]),
    )
    def test_auto_agrees_with_every_other_feasible_engine(self, data, shape):
        budget = EngineBudget(max_enum_players=16, max_mitm_half=12, max_dp_quota=50_000)
        fewest, most, low, high = shape
        num_players = data.draw(st.integers(fewest, most))
        weights = data.draw(st.lists(st.integers(low, high), min_size=num_players, max_size=num_players))
        total = sum(weights)
        quota = data.draw(st.integers(max(1, total // 2), max(1, 2 * total // 3)))
        player = data.draw(st.integers(0, num_players - 1))
        instance = ControlInstance(Game(tuple(weights), quota), player, 0, Goal.DECREASE)
        index, used = compute_index(instance, "auto", budget)
        event(f"auto picks {used}")
        assert used == pick_engine(instance, budget)
        for name in ("enum", "mitm", "dp"):
            if name != used and control.ENGINES[name].refusal(instance, budget) is None:
                assert compute_index(instance, name, budget)[0] == index

    def test_auto_falls_back_to_enum_when_mitm_and_dp_refuse(self):
        budget = EngineBudget(max_mitm_half=5, max_dp_quota=10)
        assert pick_engine(self._bare(22, 100), budget) == "enum"

    def test_no_engine_accepts_a_wide_game_with_a_large_quota(self):
        refusal = r"no engine accepts this instance \(50 players, quota 2000001\)"
        with pytest.raises(BudgetExceededError, match=refusal):
            compute_index(self._bare(50, 2_000_001))

    def test_auto_skips_layered_past_its_interval_width(self):
        instance = wide_interval_instance()
        assert pick_engine(instance) == "enum"
        assert compute_index(instance) == (ExactIndex(8, 4), "enum")
        with pytest.raises(BudgetExceededError, match="limit 4096"):
            compute_index(instance, "layered")

    def test_layered_refuses_a_bare_game(self, example1):
        instance = ControlInstance(example1, 1, 0, Goal.DECREASE)
        with pytest.raises(BudgetExceededError, match="band metadata"):
            compute_index(instance, "layered")

    @pytest.mark.parametrize(
        "name, bare, kernel",
        [
            *((name, False, "run") for name in control.ENGINES),
            ("layered", True, "run"),
            ("layered", True, "search"),
            ("layered", True, pivot_count_layered),
            ("layered", True, DeletionCounter),
        ],
        ids=[
            *control.ENGINES,
            "layered-bare-run",
            "layered-bare-search",
            "pivot-count-layered-none",
            "deletion-counter-none",
        ],
    )
    def test_every_kernel_raises_its_own_refusal_as_a_budget_refusal(
        self, name, bare, kernel, example1
    ):
        if bare:  # no band system, which the layered engine needs
            refused = ControlInstance(example1, 1, 0, Goal.DECREASE)
        else:
            refused = {
                "enum": self._bare(26, 100),
                "mitm": self._bare(46, 100),
                "dp": self._bare(3, 2_000_001),
                "layered": wide_interval_instance(),
            }[name]
        refusal = control.ENGINES[name].refusal(refused, DEFAULT_BUDGET)
        assert refusal is not None
        with pytest.raises(BudgetExceededError) as raised:
            if isinstance(kernel, str):
                getattr(control.ENGINES[name], kernel)(refused, DEFAULT_BUDGET)
            else:  # a layered kernel called directly on the missing band system
                kernel(refused.bands)
        assert str(raised.value) == refusal

    def test_banzhaf_takes_brute_force_engines_only(self, example1):
        with pytest.raises(InputError, match="unknown engine 'layered'"):
            banzhaf(example1, 1, "layered")


class TestNoInstanceReport:
    """The reports of full searches on the relaxed (n=4, k=2) no-instance
    gadget, value and representation, as ``wvg control`` prints them."""

    def test_exhaustive_decrease_is_no(self):
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        report = solve_control(instance, engine="layered")
        assert report.verdict == "NO-exhaustive"
        assert report.candidates_evaluated == 4_764
        assert str(report.index_before) == "528/2^117"
        assert str(report.min_index_seen) == "528/2^117"
        assert str(report.max_index_seen) == "526/2^115"

    def test_exhaustive_nonincrease_finds_a_tie(self):
        instance = replace(build_decrease(*NO_INSTANCES[1], strict=False), goal=Goal.NONINCREASE)
        report = solve_control(instance, engine="layered")
        assert report.verdict == "YES"
        assert sorted(report.witness.players) == [3, 4]
        assert report.candidates_evaluated == 4_526
        assert str(report.index_after_witness) == "132/2^115"
        assert report.index_after_witness == report.index_before

    def test_sampled_keeps_the_first_representation_seen(self):
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        report = solve_control(instance, engine="layered", mode=Sampled(seed=13, trials=10_000))
        assert report.verdict == "NO-sampled"
        assert report.candidates_evaluated == 10_000
        # the lowest value equals the index before, 528/2^117, and is met first as 132/2^115
        assert str(report.min_index_seen) == "132/2^115"
        assert str(report.max_index_seen) == "526/2^115"

    @pytest.mark.parametrize(
        "mode", [Exhaustive(), Sampled(seed=13, trials=10_000)], ids=["exhaustive", "sampled"]
    )
    def test_a_search_builds_at_most_four_exact_indices(self, monkeypatch, mode):
        built = []

        class Counted(ExactIndex):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(control, "ExactIndex", Counted)
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        report = solve_control(instance, engine="layered", mode=mode)
        assert report.verdict.startswith("NO")
        assert len(built) <= 4


class TestGoldenCandidateOrder:
    """sha256 prefixes of the candidate sequences ``solve_control`` walks
    on the (n=4, k=2) no-instance gadget pin the exhaustive order and the
    seeded sampled draws.  Counting is stubbed out and no candidate is
    accepted, so only candidate generation runs."""

    @staticmethod
    def _walk(monkeypatch, instance, mode) -> tuple[int, str]:
        weights = instance.game.weights
        seen = []

        def record(self, players):
            counts = Counter(weights[p] for p in players)
            seen.append(tuple(sorted(counts.items(), reverse=True)))
            return 0

        monkeypatch.setattr(DeletionCounter, "count", record)
        monkeypatch.setattr(control, "pivot_count_layered", lambda bands: 0)
        monkeypatch.setattr(control, "relation_holds", lambda goal, before, after: False)
        report = solve_control(instance, engine="layered", mode=mode)
        assert report.candidates_evaluated == len(seen)
        text = "\n".join(repr(counts) for counts in seen)
        return len(seen), hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "goal, mode, length, digest",
        [
            (Goal.DECREASE, Exhaustive(), 4_764, "dbedd8a3f216ce61"),
            (Goal.NONINCREASE, Exhaustive(), 4_763, "657c44c2920fff8f"),
            (Goal.DECREASE, Sampled(seed=507, trials=2_000), 2_000, "4b7090e8cec066aa"),
        ],
        ids=["exhaustive-min0", "exhaustive-min1", "sampled-seed507"],
    )
    def test_digest(self, monkeypatch, goal, mode, length, digest):
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        instance = replace(instance, goal=goal)
        assert self._walk(monkeypatch, instance, mode) == (length, digest)


def test_describe_writes_weights_past_the_int_str_digit_limit():
    candidate = DeletionCandidate(((10**5000, 2),), frozenset({0, 1}))
    assert candidate.describe() == "delete 2 x weight 1" + "0" * 5000


def _lex_walk(caps, low, high, descending):
    """The count vectors under ``caps`` with total in ``[low, high]``, in the
    order of the filtered ``itertools.product`` sorted greatest-lex first
    (or least first), without visiting vectors outside the window."""
    room = list(itertools.accumulate(reversed(caps), initial=0))[::-1]  # room[i] = sum(caps[i:])
    vector: list[int] = []

    def walk(i, low, high):
        if i == len(caps):
            if low <= 0 <= high:
                yield tuple(vector)
            return
        takes = range(max(low - room[i + 1], 0), min(caps[i], high) + 1)
        for take in reversed(takes) if descending else takes:
            vector.append(take)
            yield from walk(i + 1, low - take, high - take)
            vector.pop()

    return walk(0, low, high)


class TestCandidateSpaceProperties:
    """The ranked space against ``itertools.product`` and through ``solve_control``."""

    @settings(max_examples=150, deadline=None)
    @given(
        caps=st.lists(st.integers(1, 4), max_size=5),
        budget=st.integers(0, 12),
        low=st.integers(0, 5),
        high=st.integers(0, 14),
    )
    def test_rank_is_a_bijection_in_greatest_lex_order(self, caps, budget, low, high):
        weights = range(len(caps), 0, -1)
        members = itertools.accumulate(caps, initial=0)
        classes = [
            (weight, tuple(range(first, first + cap)))
            for weight, first, cap in zip(weights, members, caps)
        ]
        space = _CandidateSpace(classes, budget)
        expected = sorted(
            (
                vector
                for vector in itertools.product(*(range(cap + 1) for cap in caps))
                if low <= sum(vector) <= min(high, budget)
            ),
            reverse=True,
        )
        assert space.count(low, high) == len(expected)
        ranked = []
        for rank in range(len(expected)):
            taken = dict(candidate(space, rank, low, high).class_counts)
            ranked.append(tuple(taken.get(weight, 0) for weight, _ in classes))
        assert ranked == expected
        for rank in (-1, len(expected)):
            with pytest.raises(WvgError, match="outside the candidate space"):
                candidate(space, rank, low, high)

    @pytest.mark.parametrize("caps", [(), (1,), (3, 1, 2), (2, 2, 1, 3, 1, 1)])
    def test_the_pruned_walk_is_the_sorted_product(self, caps):
        for low, high in itertools.product(range(6), repeat=2):
            product = [
                vector
                for vector in itertools.product(*(range(cap + 1) for cap in caps))
                if low <= sum(vector) <= high
            ]
            for descending in (True, False):
                walked = list(_lex_walk(caps, low, high, descending))
                assert walked == sorted(product, reverse=descending)

    @settings(max_examples=30, deadline=None)
    @given(
        caps=st.lists(st.integers(1, 3), min_size=20, max_size=60),
        budget=st.integers(0, 4),
        low=st.integers(0, 4),
        high=st.integers(0, 4),
    )
    def test_long_class_lists_skip_runs_of_zero_classes(self, caps, budget, low, high):
        # Most classes take nothing, so unranking must skip long runs of
        # them.  The full product is out of reach here, so the expected
        # order comes from a pruned walk in the same greatest-lex order;
        # every rank is checked when the window holds at most 2 * edge
        # vectors, and otherwise the first and last edge ranks.
        weights = range(len(caps), 0, -1)
        members = itertools.accumulate(caps, initial=0)
        classes = [
            (weight, tuple(range(first, first + cap)))
            for weight, first, cap in zip(weights, members, caps)
        ]
        space = _CandidateSpace(classes, budget)
        top = min(high, budget)
        sizes = [1]  # sizes[s]: vectors with total s, by polynomial product
        for cap in caps:
            sizes = [
                sum(sizes[max(s - cap, 0) : s + 1]) for s in range(min(len(sizes) + cap, top + 1))
            ]
        size = sum(sizes[low : top + 1])
        assert space.count(low, high) == size

        members_of = dict(classes)

        def vector(rank):
            # only classes that take something are listed, heaviest first,
            # and each deletes its first members
            found = candidate(space, rank, low, high)
            taken = found.class_counts
            assert all(count > 0 for _, count in taken)
            assert [weight for weight, _ in taken] == sorted(dict(taken), reverse=True)
            assert found.players == {
                p for weight, count in taken for p in members_of[weight][:count]
            }
            return tuple(dict(taken).get(weight, 0) for weight, _ in classes)

        edge = 200
        first = list(itertools.islice(_lex_walk(caps, low, top, descending=True), 2 * edge))
        if size <= 2 * edge:
            assert [vector(rank) for rank in range(size)] == first
        else:
            last = list(itertools.islice(_lex_walk(caps, low, top, descending=False), edge))
            assert [vector(rank) for rank in range(edge)] == first[:edge]
            assert [vector(size - 1 - rank) for rank in range(edge)] == last
        for rank in (-1, size):
            with pytest.raises(WvgError, match="outside the candidate space"):
                candidate(space, rank, low, high)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 4), min_size=2, max_size=7),
        budget=st.integers(0, 6),
        goal=st.sampled_from([Goal.INCREASE, Goal.MAINTAIN]),
    )
    def test_exhaustive_sizes_ascend_and_cover_the_space(self, weights, budget, goal):
        instance = ControlInstance(
            Game(tuple(weights), max(sum(weights), 1)), 0, min(budget, len(weights) - 1), goal
        )
        delete = ControlInstance.delete
        sizes = []

        def record(self, players):
            sizes.append(len(players))
            return delete(self, players)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ControlInstance, "delete", record)
            patch.setattr(control, "relation_holds", lambda goal, before, after: False)
            solve_control(instance, engine="enum", mode=Exhaustive())
        assert sizes == sorted(sizes)
        caps = Counter(weights[1:]).values()
        low = 1 if goal is Goal.MAINTAIN else 0
        space = [
            vector
            for vector in itertools.product(*(range(cap + 1) for cap in caps))
            if low <= sum(vector) <= instance.budget
        ]
        assert Counter(sizes) == Counter(sum(vector) for vector in space)


class TestCandidateRowCache:
    """The unranking rows a space caches are keyed on both ends of the
    window and stay few."""

    @staticmethod
    def _space(caps, budget):
        firsts = itertools.accumulate(caps, initial=0)
        classes = [
            (weight, tuple(range(first, first + cap)))
            for weight, first, cap in zip(range(len(caps), 0, -1), firsts, caps)
        ]
        return _CandidateSpace(classes, budget)

    @pytest.mark.parametrize("caps", [(3, 1, 2), (2, 2, 1, 3, 1, 1), (1,) * 9])
    def test_interleaved_windows_unrank_as_on_fresh_spaces(self, caps):
        windows = list(itertools.product(range(7), repeat=2))
        expected = {}
        for low, high in windows:
            fresh = self._space(caps, 6)
            expected[low, high] = [
                candidate(fresh, rank, low, high) for rank in range(fresh.count(low, high))
            ]
        shared = self._space(caps, 6)
        # rank r of every window before rank r + 1 of any, so that windows
        # sharing a high end meet each other's rows
        for rank in range(max(map(len, expected.values()))):
            for window in windows:
                if rank < len(expected[window]):
                    assert candidate(shared, rank, *window) == expected[window][rank]

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(st.integers(1, 4), max_size=6),
        budget=st.integers(0, 12),
        low=st.integers(-2, 6),
        high=st.integers(0, 14),
    )
    def test_one_window_fills_at_most_max_size_plus_one_rows(self, caps, budget, low, high):
        space = self._space(caps, budget)
        for rank in range(space.count(low, high)):
            candidate(space, rank, low, high)
        assert len(space._rows) <= space.max_size + 1


class TestCandidateWalk:
    """Exhaustive and restricted searches walk the space in rank order
    instead of unranking each rank."""

    @settings(max_examples=150, deadline=None)
    @given(
        caps=st.lists(st.integers(1, 4), max_size=6),
        budget=st.integers(0, 12),
        min_size=st.integers(0, 4),
        data=st.data(),
    )
    def test_the_walk_is_the_unranked_order(self, caps, budget, min_size, data):
        # player 0, distinguished, outweighs every class; class i has caps[i]
        # players, heaviest first
        weights = [len(caps) + 1]
        weights += [len(caps) - i for i, cap in enumerate(caps) for _ in range(cap)]
        budget = min(budget, len(weights) - 1)
        instance = ControlInstance(Game(tuple(weights), sum(weights)), 0, budget, Goal.DECREASE)
        others = range(1, len(weights))
        allowed = data.draw(st.none() | st.sets(st.sampled_from(others)) if others else st.none())
        space = _CandidateSpace.of(instance, allowed)
        classes = space.classes
        walked = list(space.walk(min_size, budget))

        sizes = range(min_size, space.max_size + 1)
        unranked = [
            candidate(space, rank, size, size)
            for size in sizes
            for rank in range(space.count(size, size))
        ]
        kept = [len(members) for _, members in classes]
        lexed = [
            frozenset(p for (_, members), take in zip(classes, vector) for p in members[:take])
            for size in sizes
            for vector in _lex_walk(kept, size, size, descending=True)
        ]
        assert walked == [candidate.players for candidate in unranked] == lexed
        assert [DeletionCandidate.of(weights, players) for players in walked] == unranked

    def test_a_5000_class_space_walks_without_a_table(self):
        classes = [(5000 - i, (i,)) for i in range(5000)]
        space = _CandidateSpace(classes, 5000)
        first = list(itertools.islice(space.walk(0, 5000), 100))
        assert first == [frozenset(), *(frozenset({i}) for i in range(99))]
        # half the classes take one player each: a stack 2,500 deep
        deep = list(itertools.islice(space.walk(2500, 2500), 100))
        assert deep == [frozenset(range(2499)) | {2499 + j} for j in range(100)]
        assert next(space.walk(5000, 5000)) == frozenset(range(5000))
        assert "ways" not in vars(space)  # the unranking table was never built


@functools.cache
def _no_instance_gadget(which: int) -> ControlInstance:
    return build_decrease(*NO_INSTANCES[which], strict=False)


def _reference_sampled_report(instance: ControlInstance, mode: Sampled) -> SearchReport:
    """The report of a sampled search that unranks every draw with
    ``candidate`` and scores it, remembering nothing between draws;
    the lowest and highest index seen are the first of their value met."""
    before, engine = control.compute_pivot_count(instance)
    score = control.ENGINES[engine].search(instance, DEFAULT_BUDGET)
    top = instance.game.num_players - 1
    low = 1 if relation_holds(instance.goal, before, before) else 0
    space = _CandidateSpace.of(instance)
    size = space.count(low, instance.budget)
    rng = random.Random(mode.seed)
    seen = []
    witness = after_witness = reverified = None
    for _ in range(mode.trials):
        drawn = candidate(space, rng.randrange(size), low, instance.budget)
        count = score(drawn.players)
        seen.append(ExactIndex(count, top - len(drawn.players)))
        if relation_holds(instance.goal, ExactIndex(before, top), seen[-1]):
            witness, after_witness = drawn, seen[-1]
            reverified = control._confirm_witness(
                instance, drawn, count, engine, DEFAULT_BUDGET
            )
            break
    return SearchReport(
        goal=instance.goal,
        verdict="YES" if witness else "NO-sampled",
        engine=engine,
        index_before=ExactIndex(before, top),
        witness=witness,
        index_after_witness=after_witness,
        candidates_evaluated=len(seen),
        min_index_seen=min(seen),
        max_index_seen=max(seen),
        reverified_with=reverified,
        seed=mode.seed,
        trials=mode.trials,
    )


def _shown(report: SearchReport) -> tuple:
    """A report with its indices as printed: ``ExactIndex`` equality is
    by value and would miss which representation was kept."""
    indices = (report.index_after_witness, report.min_index_seen, report.max_index_seen)
    return report, [str(index) for index in indices]


class TestSampledUnrankMemo:
    """A sampled search unranks each distinct drawn rank once, and still
    scores and counts every draw in draw order."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), goal=st.sampled_from(Goal), seed=st.integers(0, 1 << 32))
    def test_reports_equal_the_unmemoised_reference(self, data, goal, seed):
        source = data.draw(st.sampled_from(["no0", "no1", "toy"]))
        if source == "toy":
            claim = data.draw(bottom_up_band_claims())
            budget = data.draw(st.integers(1, claim.game.num_players - 1))
            instance = ControlInstance(
                claim.game, claim.distinguished, budget, goal, bands=claim.build()
            )
        else:
            instance = replace(_no_instance_gadget(int(source[-1])), goal=goal)
        before, _ = control.compute_pivot_count(instance)
        low = 1 if relation_holds(goal, before, before) else 0
        size = _CandidateSpace.of(instance).count(low, instance.budget)
        assume(size)
        # up to three draws per candidate, so that ranks repeat
        trials = data.draw(st.integers(1, min(3 * size, 6_000)))
        event(f"{source}: trials above the space size: {trials > size}")
        mode = Sampled(seed, trials)
        report = solve_control(instance, mode=mode)
        assert _shown(report) == _shown(_reference_sampled_report(instance, mode))

    def test_no4_seed13_unranks_each_distinct_rank_once(self, monkeypatch):
        unrank, layered = _CandidateSpace.unrank, control.ENGINES["layered"]
        ranks, scored = [], []

        def counted_unrank(self, rank, low, high):
            ranks.append(rank)
            return unrank(self, rank, low, high)

        def search(instance, budget):
            score = layered.search(instance, budget)

            def counted_score(players):
                scored.append(players)
                return score(players)

            return counted_score

        monkeypatch.setattr(_CandidateSpace, "unrank", counted_unrank)
        monkeypatch.setitem(control.ENGINES, "layered", replace(layered, search=search))
        report = solve_control(
            _no_instance_gadget(1), engine="layered", mode=Sampled(seed=13, trials=10_000)
        )
        assert report.candidates_evaluated == len(scored) == 10_000
        assert len(ranks) == len(set(ranks)) == 4_175

    @pytest.mark.parametrize("bound", [1, 4])
    @pytest.mark.parametrize("goal", [Goal.DECREASE, Goal.NONINCREASE])
    def test_reports_do_not_depend_on_the_memo_bound(self, monkeypatch, goal, bound):
        instance = replace(_no_instance_gadget(1), goal=goal)
        mode = Sampled(seed=13, trials=10_000)
        unbounded = solve_control(instance, engine="layered", mode=mode)
        monkeypatch.setattr(control, "_UNRANK_MEMO_SIZE", bound)
        assert _shown(solve_control(instance, engine="layered", mode=mode)) == _shown(unbounded)

    @staticmethod
    def _count_unranks(monkeypatch) -> list[int]:
        """The ranks ``_CandidateSpace.unrank`` is called with from now on."""
        unrank, ranks = _CandidateSpace.unrank, []

        def counted_unrank(self, rank, low, high):
            ranks.append(rank)
            return unrank(self, rank, low, high)

        monkeypatch.setattr(_CandidateSpace, "unrank", counted_unrank)
        return ranks

    def test_a_window_one_rank_past_the_bound_keeps_no_draw(self, monkeypatch):
        instance = _no_instance_gadget(1)  # its decrease window holds 4,764 ranks
        mode = Sampled(seed=13, trials=10_000)
        kept = solve_control(instance, engine="layered", mode=mode)
        monkeypatch.setattr(control, "_UNRANK_MEMO_SIZE", 4_763)
        ranks = self._count_unranks(monkeypatch)
        assert _shown(solve_control(instance, engine="layered", mode=mode)) == _shown(kept)
        assert len(ranks) == 10_000

    def test_the_strict_gadget_keeps_no_draw(self, monkeypatch):
        # the strict decrease gadget the CI samples: 324 players, a window
        # of 273,492,167 ranks, where no draw of seed 1 repeats
        formula = CnfFormula(5, (frozenset({1, 2, 3, 4, 5}), frozenset({-1, -2, 3})))
        instance = build_decrease(formula, 4)
        ranks = self._count_unranks(monkeypatch)
        report = solve_control(instance, mode=Sampled(seed=1))
        assert (report.verdict, report.candidates_evaluated) == ("NO-sampled", 10_000)
        assert len(ranks) == len(set(ranks)) == 10_000


class TestRefusedCandidate:
    """A candidate the scoring engine refuses is named by its class counts,
    with the refusal chained."""

    @pytest.mark.parametrize("nth", [2, 37, 400])
    @pytest.mark.parametrize(
        "mode",
        [Exhaustive(), Restricted(("A", "E", "S", "Z*")), Sampled(seed=13, trials=1_000)],
        ids=["exhaustive", "restricted", "sampled"],
    )
    def test_the_message_names_the_refused_candidate(self, monkeypatch, mode, nth):
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        layered = control.ENGINES["layered"]
        refusal = BudgetExceededError("over the test budget")
        scored = []

        def search(instance, budget):
            score = layered.search(instance, budget)

            def refusing(players):
                scored.append(players)
                if len(scored) == nth:
                    raise refusal
                return score(players)

            return refusing

        monkeypatch.setitem(control.ENGINES, "layered", replace(layered, search=search))
        with pytest.raises(BudgetExceededError) as caught:
            solve_control(instance, engine="layered", mode=mode)
        assert len(scored) == nth
        weights = instance.game.weights
        counts = sorted(Counter(weights[p] for p in scored[-1]).items(), reverse=True)
        assert counts
        described = ", ".join(f"{count} x weight {weight}" for weight, count in counts)
        assert str(caught.value) == (
            f"engine layered refused the candidate [delete {described}]: over the test budget"
        )
        assert caught.value.__cause__ is refusal


def _full_recount_search(monkeypatch) -> None:
    """Make layered search score every candidate by a full layered count."""
    layered = control.ENGINES["layered"]

    def search(instance, budget):
        return lambda players: layered.run(instance.delete(players), budget)

    monkeypatch.setitem(control.ENGINES, "layered", replace(layered, search=search))


class TestDeltaScoring:
    """Layered search scores candidates with ``bands.DeletionCounter`` and
    recounts a witness in full before reporting it."""

    OR2 = CnfFormula(2, (frozenset({1, 2}),))

    def test_witness_count_mismatch_raises(self, monkeypatch):
        instance = build_decrease(self.OR2, 1, strict=False)
        count = DeletionCounter.count
        monkeypatch.setattr(
            DeletionCounter, "count", lambda self, players: count(self, players) + 1
        )
        with pytest.raises(WvgError, match="full layered recount on witness"):
            solve_control(instance, engine="layered")

    def test_second_engine_disagreement_on_the_witness_raises(self, monkeypatch):
        # the layered witness is re-verified by mitm, the first other engine that accepts it
        instance = build_nonincrease(self.OR2, 1, strict=False)
        mitm = control.ENGINES["mitm"]
        wrong = replace(mitm, run=lambda instance, budget: mitm.run(instance, budget) + 1)
        monkeypatch.setitem(control.ENGINES, "mitm", wrong)
        with pytest.raises(WvgError) as caught:
            solve_control(instance, engine="layered")
        assert type(caught.value) is WvgError
        assert str(caught.value) == "engine disagreement on witness: layered=12, mitm=13"

    @pytest.mark.parametrize(
        "build, verdict",
        [
            (lambda f: build_decrease(f, 1, strict=False), "YES"),
            (lambda f: build_nonincrease(f, 1, strict=False), "YES"),
            (lambda f: build_maintain(exactify(f, 1, 1)[0], 1, 3, strict=False), "YES"),
            (lambda f: build_decrease(*NO_INSTANCES[0], strict=False), "NO-exhaustive"),
        ],
        ids=["decrease-yes", "nonincrease-yes", "maintain-yes", "decrease-no"],
    )
    def test_reports_equal_full_recount_search(self, monkeypatch, build, verdict):
        instance = build(self.OR2)
        delta = solve_control(instance, engine="layered")
        _full_recount_search(monkeypatch)
        assert delta.verdict == verdict
        assert solve_control(instance, engine="layered") == delta

    def test_sampled_report_equals_full_recount_search(self, monkeypatch):
        instance = build_decrease(*NO_INSTANCES[1], strict=False)
        mode = Sampled(seed=11, trials=300)
        delta = solve_control(instance, engine="layered", mode=mode)
        _full_recount_search(monkeypatch)
        assert solve_control(instance, engine="layered", mode=mode) == delta

    @pytest.mark.parametrize(
        "build, verdict, evaluated, deletions",
        [
            (lambda f: build_decrease(*NO_INSTANCES[0], strict=False), "NO-exhaustive", 45, 0),
            (lambda f: build_decrease(f, 1, strict=False), "YES", 22, 1),
        ],
        ids=["decrease-no", "decrease-yes"],
    )
    def test_only_the_witness_is_deleted(self, monkeypatch, build, verdict, evaluated, deletions):
        instance = build(self.OR2)
        delete = ControlInstance.delete
        calls = []

        def counted(self, victims):
            calls.append(victims)
            return delete(self, victims)

        monkeypatch.setattr(ControlInstance, "delete", counted)
        report = solve_control(instance, engine="layered")
        assert (report.verdict, report.candidates_evaluated) == (verdict, evaluated)
        assert len(calls) == deletions
        if report.witness is not None:
            assert calls == [report.witness.players]

    def test_brute_force_scorer_agrees_on_a_banded_instance(self):
        instance = build_nonincrease(self.OR2, 1, strict=False)
        assert instance.game.num_players == 29
        mitm = solve_control(instance, engine="mitm")
        layered = solve_control(instance, engine="layered")
        fields = (
            "verdict",
            "witness",
            "index_before",
            "index_after_witness",
            "candidates_evaluated",
            "min_index_seen",
            "max_index_seen",
        )
        assert [getattr(mitm, name) for name in fields] == [
            getattr(layered, name) for name in fields
        ]
        assert mitm.candidates_evaluated == 16
        assert (mitm.reverified_with, layered.reverified_with) == ("layered", "mitm")

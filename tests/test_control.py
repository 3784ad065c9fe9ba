"""Control search: goal relations, symmetry reduction, modes, re-verification."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    CnfFormula,
    ControlInstance,
    DeletionCounter,
    ExactIndex,
    Game,
    Goal,
    build_decrease,
    build_maintain,
    build_nonincrease,
    evaluate_deletion,
    exactify,
    solve_control,
)
from wvgcontrol import control
from wvgcontrol.control import Exhaustive, Restricted, Sampled, _CandidateSpace, relation_holds
from wvgcontrol.engines import pivot_count_enum
from wvgcontrol.errors import WvgError
from wvgcontrol.verify import NO_INSTANCES

from conftest import random_game

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
        result = evaluate_deletion(instance, instance.group_members("Z*"))
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

    def test_restricted_needs_groups(self, example1):
        instance = ControlInstance(
            game=example1, distinguished=1, budget=1, goal=Goal.DECREASE
        )
        with pytest.raises(Exception, match="group"):
            solve_control(instance, mode=Restricted(("A",)))

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


class TestGoldenCandidateOrder:
    """sha256 prefixes of the candidate sequences ``solve_control`` walks
    on the (n=4, k=2) no-instance gadget pin the exhaustive order and the
    seeded sampled draws.  Deletion and counting are stubbed out and no
    candidate is accepted, so only candidate generation runs."""

    @staticmethod
    def _walk(monkeypatch, instance, mode) -> tuple[int, str]:
        weights = instance.game.weights
        seen = []

        def record(self, players):
            counts = Counter(weights[p] for p in players)
            seen.append(tuple(sorted(counts.items(), reverse=True)))
            return self

        monkeypatch.setattr(ControlInstance, "delete", record)
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
            taken = dict(space.candidate(rank, low, high).class_counts)
            ranked.append(tuple(taken.get(weight, 0) for weight, _ in classes))
        assert ranked == expected
        for rank in (-1, len(expected)):
            with pytest.raises(WvgError, match="outside the candidate space"):
                space.candidate(rank, low, high)

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
            candidate = space.candidate(rank, low, high)
            taken = candidate.class_counts
            assert all(count > 0 for _, count in taken)
            assert [weight for weight, _ in taken] == sorted(dict(taken), reverse=True)
            assert candidate.players == {
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
                space.candidate(rank, low, high)

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


def _full_recount_search(monkeypatch) -> None:
    """Make layered search score every candidate by a full layered count."""
    layered = control.ENGINES["layered"]

    def search(instance, budget):
        return lambda variant, players: layered.run(variant, budget)

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

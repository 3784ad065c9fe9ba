"""Gadget builders: prereduction vectors, the three constructions, closed forms."""

from __future__ import annotations

import functools
import hashlib
import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wvgcontrol import (
    BandStructureError,
    BlockKind,
    CaseCounts,
    CnfFormula,
    DeltaDecomposition,
    ExactIndex,
    FormulaError,
    Game,
    GadgetParameterError,
    Goal,
    InputError,
    InvalidCoalitionError,
    LightBlock,
    build_decrease,
    build_maintain,
    build_nonincrease,
    build_prereduction,
    count_sat,
    count_subset_sum,
    delete_players,
    dump_instance,
    e_exact_sat,
    e_minority_sat,
    exactify,
    expected_case_counts,
    expected_index,
    layered_case_counts,
    pivot_count_layered,
    witness_deletion,
)
from wvgcontrol import bands as bands_module
from wvgcontrol import gadgets as gadgets_module
from wvgcontrol.bands import BandSystem, DeletionCounter, count_light_subsets
from wvgcontrol.control import DeletionCandidate, compute_pivot_count, relation_holds
from wvgcontrol.engines import EngineBudget, pivot_count_mitm
from wvgcontrol.formulas import suffix_satisfying_counts
from wvgcontrol.gadgets import ControlInstance, GadgetConstructionNote
from wvgcontrol.serialize import load_document
from wvgcontrol.verify import NO_INSTANCES, RELAXED_GRID, random_formula

from conftest import (
    block_named,
    counter_terms,
    decompose_target,
    group_members,
    heavy_pivot_term,
    run_suite,
)

OR2 = CnfFormula(2, (frozenset({1, 2}),))
WIDE5 = CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),))

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")

NO_FORMULA, _ = NO_INSTANCES[1]  # the (n=4, k=2) minority no-instance
RELAXED_NO_BUILDERS = {
    "decrease": lambda: build_decrease(NO_FORMULA, 2, strict=False),
    "nonincrease": lambda: build_nonincrease(NO_FORMULA, 2, strict=False),
    "maintain": lambda: build_maintain(NO_FORMULA, 2, 5, strict=False),
}


@functools.cache
def relaxed_no_gadget(kind: str):
    return RELAXED_NO_BUILDERS[kind]()


class TestPrereduction:
    def test_or2_vectors(self):
        pre = build_prereduction(OR2, 1)
        assert pre.t == 1
        assert pre.a_weights == (1010, 10010)
        assert pre.b_weights == (1000, 10000)
        assert pre.c_weights == (10,)
        assert pre.q_prime == 11020
        assert pre.a_weights[: pre.k] + pre.b_weights[: pre.k] == (1010, 1000)
        assert pre.a_weights[pre.k :] + pre.b_weights[pre.k :] == (10010, 10000)

    def test_subset_sum_identity(self):
        pre = build_prereduction(OR2, 1)
        assert count_subset_sum(pre.abc_weights, pre.q_prime) == count_sat(OR2) == 3

    def test_scaled_identity(self):
        pre = build_prereduction(OR2, 1)
        assert count_subset_sum(pre.scaled_weights, pre.q_double_prime) == 3

    def test_t_floor_raises_t(self):
        pre = build_prereduction(OR2, 1, t_floor=10**6)
        assert 10**pre.t > 10**6
        assert pre.t == 7

    def test_k_range(self):
        with pytest.raises(GadgetParameterError):
            build_prereduction(OR2, 0)
        with pytest.raises(GadgetParameterError):
            build_prereduction(OR2, 3)

    def test_single_variable_formula(self):
        formula = CnfFormula(1, (frozenset({1}),))
        pre = build_prereduction(formula, 1)
        assert pre.c_weights == ()  # ceil(log2 1) = 0: no clause toppers
        assert count_subset_sum(pre.abc_weights, pre.q_prime) == count_sat(formula) == 1


class TestDeltaDecomposition:
    def test_ell_3(self):
        delta = DeltaDecomposition.from_ell(3)
        assert delta.exponents == (1, 0)
        assert delta.level_weights == (1, 2)
        assert sum(1 << d for d in delta.exponents) == 3

    def test_ell_6(self):
        delta = DeltaDecomposition.from_ell(6)
        assert delta.exponents == (2, 1)
        assert delta.level_weights == (1, 3)

    def test_ell_12(self):
        assert DeltaDecomposition.from_ell(12).exponents == (3, 2)

    def test_power_of_two_has_single_level(self):
        assert DeltaDecomposition.from_ell(8).h == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(GadgetParameterError):
            DeltaDecomposition.from_ell(0)

    @pytest.mark.parametrize("exponents", [[3, 1], iter((3, 1))], ids=["list", "iterator"])
    def test_any_sequence_of_exponents_becomes_a_tuple(self, exponents):
        delta = DeltaDecomposition(exponents)
        assert delta.exponents == (3, 1)
        assert delta == DeltaDecomposition((3, 1))
        assert hash(delta) == hash(DeltaDecomposition((3, 1)))

    def test_no_carry_chain_holds_broadly(self):
        for ell in range(1, 300):
            delta = DeltaDecomposition.from_ell(ell)
            total = 0
            for j in range(delta.h):
                if j:
                    assert total < delta.level_weights[j]
                total += delta.exponents[j] * delta.level_weights[j]


class TestDecreaseBuilder:
    def test_strict_player_count(self):
        instance = build_decrease(WIDE5, 4)
        assert instance.game.num_players == 318
        assert instance.budget == 4
        assert instance.goal is Goal.DECREASE
        assert instance.meta["mode"] == "strict"

    def test_group_sizes_match_table(self):
        instance = build_decrease(WIDE5, 4)
        k, n, m, r = 4, 5, 1, 2
        expected = {
            "player-1": 1,
            "A": 2 * k,
            "B": 2 * n - 2 * k,
            "C": m * (r + 1),
            "D": k,
            "E": 2 * n + m * (r + 1),
            "F": 1,
            "S": k * k * (k + 2),
            "T": k * k * (n + 1),
            "U": k * (k + 2),
            "V": k * (n + 1),
            "X": k,
            "X'": 2 * k,
            "Y": k + 1,
            "Y'": n,
            "Y*": k + 1,
            "Y**": n,
            "Z": k + 1,
            "Z'": k + 1,
            "Z*": k,
        }
        for label, size in expected.items():
            assert len(group_members(instance, label)) == size, label

    def test_quota_identity(self):
        instance = build_decrease(WIDE5, 4)
        t = instance.meta["t"]
        group_total = sum(
            instance.game.weights[p]
            for label in ("A", "B", "C", "E")
            for p in group_members(instance, label)
        )
        assert instance.game.quota == 2 * (group_total + 10**t) + 1

    def test_strict_closed_form(self):
        instance = build_decrease(WIDE5, 4)
        assert pivot_count_layered(instance.bands) == 11904
        assert expected_index(Goal.DECREASE, 4, 5, 31, 318) == ExactIndex(11904, 317)

    def test_per_case_split(self):
        counts = layered_case_counts(build_decrease(WIDE5, 4))
        assert (counts.case1, counts.case2) == (3720, 248)
        assert (counts.case3, counts.case4) == (3840, 3840)
        assert (counts.case5, counts.case6) == (128, 128)
        assert counts.total == 11904

    def test_heavy_exclusivity(self):
        instance = build_decrease(OR2, 1, strict=False)
        game = instance.game
        heavies = sorted(game.weights[h] for h in instance.bands.heavy)
        assert heavies[0] + heavies[1] > game.quota
        light_total = sum(b.max_sum for b in instance.bands.blocks)
        assert light_total < game.quota - 1

    def test_relaxed_layered_equals_mitm(self):
        instance = build_decrease(OR2, 1, strict=False)
        budget = EngineBudget(max_mitm_half=22)
        assert pivot_count_layered(instance.bands) == pivot_count_mitm(
            instance.game, 0, budget
        )

    def test_d_player_residual_decomposes_to_q_prime_plus_x_prime(self):
        from wvgcontrol import count_block

        instance = build_decrease(OR2, 1, strict=False)
        bands = instance.bands
        d0 = group_members(instance, "D")[0]
        residual = instance.game.quota - 1 - instance.game.weights[d0]
        targets = dict(
            zip((b.name for b in bands.blocks), decompose_target(bands, residual).targets)
        )
        t = instance.meta["t"]
        q_prime = 10 ** (2 * t + 1) + 10 ** (2 * t + 2) + 2 * 10**t
        assert targets["ABC"] == q_prime
        assert targets["X'"] == block_named(bands, "X'").granularity
        assert all(
            value == 0 for name, value in targets.items() if name not in ("ABC", "X'")
        )
        # the ABC share counts exactly the satisfying assignments
        assert count_block(block_named(bands, "ABC"), q_prime) == count_sat(OR2)

    def test_strict_mode_enforced(self):
        with pytest.raises(GadgetParameterError, match="strict"):
            build_decrease(OR2, 1)
        with pytest.raises(GadgetParameterError):
            build_decrease(WIDE5, 5, strict=False)  # k < n required


class TestNonincreaseBuilder:
    def test_removed_group_count(self):
        base = build_decrease(WIDE5, 4)
        trimmed = build_nonincrease(WIDE5, 4)
        k, n = 4, 5
        removed = k * k * (k + 2) + k * (k + 2) + 3 * (k + 1)
        assert base.game.num_players - trimmed.game.num_players == removed
        assert trimmed.game.num_players == 183

    def test_closed_form(self):
        trimmed = build_nonincrease(WIDE5, 4)
        counts = layered_case_counts(trimmed)
        # 2k*2^k*xi + k*2^n*(2^(k+1) - 1) with k=4, n=5, xi=31
        assert counts.total == 2 * 4 * 16 * 31 + 4 * 32 * 31
        assert counts.total == 7936
        assert counts.case3 == 0 and counts.case5 == 0

    def test_emptied_groups(self):
        trimmed = build_nonincrease(WIDE5, 4)
        for label in ("S", "U", "Y", "Y*", "Z"):
            assert group_members(trimmed, label) == ()
        assert trimmed.goal is Goal.NONINCREASE
        assert trimmed.meta["kind"] == "nonincrease"

    @staticmethod
    def _deleted_from_decrease(formula, k, strict):
        """The nonincrease game made by deletion: the goal's minority gadget
        with S, U, Y, Y*, Z deleted, then the budget and kind set back."""
        base = gadgets_module._build_minority_gadget(formula, k, strict, Goal.NONINCREASE)
        victims = [p for label in ("S", "U", "Y", "Y*", "Z") for p in group_members(base, label)]
        trimmed = base.delete(victims)
        return replace(trimmed, budget=k, meta={**trimmed.meta, "kind": "nonincrease"})

    @staticmethod
    def _cases():
        rng = random.Random(24)
        for k, n in RELAXED_GRID:
            for _ in range(6):
                yield random_formula(rng, n, rng.randint(1, 3)), k, False
        for n in (5, 6, 7):
            for k in range(4, n):
                for _ in range(2):
                    yield random_formula(rng, n, rng.randint(1, 4)), k, True

    def test_equals_the_decrease_game_with_groups_deleted(self):
        for formula, k, strict in self._cases():
            built = build_nonincrease(formula, k, strict=strict)
            reference = self._deleted_from_decrease(formula, k, strict)
            assert built == reference, (formula, k)
            assert dump_instance(built) == dump_instance(reference), (formula, k)

    @pytest.mark.parametrize("strict", [False, True], ids=["relaxed", "strict"])
    def test_builds_without_deleting(self, strict, monkeypatch):
        calls = []

        def counting(owner, name):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *args, **kw: calls.append(name) or method(*args, **kw)
            )

        counting(ControlInstance, "delete")
        counting(BandSystem, "restrict")
        counting(BandSystem, "__post_init__")
        counting(gadgets_module, "replace")
        build_nonincrease(WIDE5, 4) if strict else build_nonincrease(NO_FORMULA, 2, strict=False)
        assert calls == ["__post_init__"]


class TestExactify:
    def test_triples_ell(self):
        extended, k, ell = exactify(OR2, 1, 1)
        assert (k, ell) == (1, 3)
        assert extended.num_variables == 4
        assert extended.clauses[-1] == frozenset({3, 4})

    def test_never_a_power_of_two(self):
        for ell in range(1, 200):
            tripled = 3 * ell
            assert tripled & (tripled - 1) != 0

    def test_equivalence_example(self):
        extended, k, tripled = exactify(OR2, 1, 1)
        assert e_exact_sat(OR2, 1, 1)[0] is True
        assert e_exact_sat(extended, k, tripled)[0] is True

    def test_rejects_nonpositive_ell(self):
        with pytest.raises(GadgetParameterError):
            exactify(OR2, 1, 0)


class TestMaintainBuilder:
    def test_case_total_identity(self):
        k, n, ell = 2, 3, 3
        formula = CnfFormula(3, (frozenset({1, 2, 3}),))
        xi = count_sat(formula)
        counts = layered_case_counts(build_maintain(formula, k, ell, strict=False))
        tail = counts.case3 + counts.case4 + counts.case5 + counts.case6
        assert tail == k * ell * ((1 << (n + 2)) + (1 << (k + 1))) * (1 << k)
        assert counts.case5 == k * ((1 << (k + 1)) - 2) * ell
        assert counts.case6 == k * ((1 << (n + 2)) + 2) * ell
        assert counts.case1 == 2 * k * ((1 << k) - 1) * xi

    def test_group_sizes(self):
        k, n, ell = 1, 2, 3
        instance = build_maintain(OR2, k, ell, strict=False)
        delta_total = sum(d + 1 for d in (1, 0))  # ell = 3 -> exponents (1, 0)
        assert len(group_members(instance, "S")) == k * k * (k + 2) * delta_total
        assert len(group_members(instance, "T")) == k * k * (n + 3) * delta_total
        assert len(group_members(instance, "U")) == k * k * delta_total
        assert len(group_members(instance, "V")) == k * (n + 5) * delta_total
        assert len(group_members(instance, "Y'")) == n + 2
        assert len(group_members(instance, "Y**")) == n + 2
        assert len(group_members(instance, "Z")) == k
        assert len(group_members(instance, "Z'")) == k
        assert len(group_members(instance, "L1")) == 1
        assert len(group_members(instance, "L2")) == 0

    def test_relaxed_layered_matches_per_heavy_subset_counts(self):
        instance = build_maintain(OR2, 1, 3, strict=False)
        game = instance.game
        light = [w for block in instance.bands.blocks for w in block.weights]
        assert len(light) <= 44
        for heavy in sorted(instance.bands.heavy):
            target = game.quota - 1 - game.weights[heavy]
            assert heavy_pivot_term(instance.bands, heavy) == count_subset_sum(
                light, target
            )

    def test_power_of_two_rejected_in_strict(self):
        for ell in (1, 2, 4, 8):
            with pytest.raises(GadgetParameterError) as caught:
                build_maintain(WIDE5, 4, ell)
            assert type(caught.value) is GadgetParameterError
            assert str(caught.value) == (
                "strict mode requires ell with more than one binary digit; "
                "apply exactify() to the source instance first"
            )

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "relaxed"])
    @pytest.mark.parametrize("ell", [0, -1])
    def test_nonpositive_ell_rejected(self, ell, strict):
        with pytest.raises(GadgetParameterError) as caught:
            build_maintain(WIDE5, 4, ell, strict=strict)
        assert type(caught.value) is GadgetParameterError
        assert str(caught.value) == "ell must be positive"

    def test_power_of_two_allowed_relaxed(self):
        instance = build_maintain(OR2, 1, 2, strict=False)
        xi = count_sat(OR2)
        expected = expected_case_counts(Goal.MAINTAIN, 1, 2, xi, ell=2)
        assert pivot_count_layered(instance.bands) == expected.total

    def test_construction_note_emitted(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_maintain(OR2, 1, 3, strict=False)
        assert any(issubclass(w.category, GadgetConstructionNote) for w in caught)


class TestExpectedIndex:
    def test_decrease(self):
        assert expected_index(Goal.DECREASE, 4, 5, 31, 318) == ExactIndex(11904, 317)

    def test_nonincrease(self):
        counts = expected_case_counts(Goal.NONINCREASE, 4, 5, 31)
        assert counts.total == 2 * 4 * 16 * 31 + 4 * 32 * 31

    def test_maintain_with_zero_xi(self):
        k, n, ell = 4, 5, 6
        counts = expected_case_counts(Goal.MAINTAIN, k, n, 0, ell=ell)
        assert counts.case1 == counts.case2 == 0
        assert counts.total == k * ell * ((1 << (n + 2)) + (1 << (k + 1))) * (1 << k)

    def test_no_closed_form_for_increase(self):
        with pytest.raises(Exception, match="closed form"):
            expected_case_counts(Goal.INCREASE, 4, 5, 31)


class TestWitnessDeletion:
    def test_all_true_prefix_removes_b_carriers(self):
        instance = build_decrease(CnfFormula(3, (frozenset({1, 2, 3}),)), 2, strict=False)
        deletion = witness_deletion(instance, (1, 1))
        assert deletion == frozenset(
            {instance.b_players[0], instance.b_players[1]}
        )

    def test_all_false_prefix_removes_a_carriers(self):
        instance = build_decrease(CnfFormula(3, (frozenset({1, 2, 3}),)), 2, strict=False)
        deletion = witness_deletion(instance, (0, 0))
        assert deletion == frozenset(
            {instance.a_players[0], instance.a_players[1]}
        )

    def test_minority_witness_strictly_decreases(self):
        formula = CnfFormula(3, (frozenset({1, 2}), frozenset({2, 3})))
        verdict, prefix = e_minority_sat(formula, 1)
        assert verdict
        instance = build_decrease(formula, 1, strict=False)
        before = ExactIndex(
            pivot_count_layered(instance.bands), instance.game.num_players - 1
        )
        variant = instance.delete(witness_deletion(instance, prefix))
        after = ExactIndex(
            pivot_count_layered(variant.bands), variant.game.num_players - 1
        )
        assert after < before

    def test_wrong_prefix_length(self):
        instance = build_decrease(OR2, 1, strict=False)
        with pytest.raises(Exception, match="prefix length"):
            witness_deletion(instance, (0, 1))

    def test_threshold_is_knife_edge(self):
        # n=3, k=1: prefix x1=0 leaves exactly half (2) of the suffixes
        # satisfying, x1=1 leaves half+1 (3).  Half must still strictly
        # decrease the decrease gadget and exactly preserve the trimmed
        # one; half+1 must hit exact equality resp. a strict increase.
        from wvgcontrol.formulas import suffix_satisfying_counts

        formula = CnfFormula(3, (frozenset({1, 2}), frozenset({-1, -2, 3})))
        assert suffix_satisfying_counts(formula, 1) == [2, 3]

        def index_of(instance):
            return ExactIndex(
                pivot_count_layered(instance.bands), instance.game.num_players - 1
            )

        def after(instance, prefix):
            return index_of(instance.delete(witness_deletion(instance, prefix)))

        dec = build_decrease(formula, 1, strict=False)
        non = build_nonincrease(formula, 1, strict=False)
        assert after(dec, (0,)) < index_of(dec)
        assert after(non, (0,)) == index_of(non)
        assert after(dec, (1,)) == index_of(dec)
        assert after(non, (1,)) > index_of(non)


class TestInstanceDeletion:
    def test_delete_all_z_star_drops_cases_5_and_6(self):
        instance = build_decrease(WIDE5, 4)
        variant = instance.delete(group_members(instance, "Z*"))
        counts = layered_case_counts(variant)
        assert counts.case5 == 0 and counts.case6 == 0
        assert counts.total == 11904 - (128 + 128) == 11648
        before = ExactIndex(11904, 317)
        after = ExactIndex(counts.total, variant.game.num_players - 1)
        assert after > before  # index rises despite the smaller numerator

    def test_distinguished_protected(self):
        instance = build_decrease(OR2, 1, strict=False)
        with pytest.raises(Exception, match="distinguished"):
            instance.delete({0})

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(RELAXED_NO_BUILDERS)))
    def test_deletion_composes(self, data, kind):
        # D2 is drawn in the original numbering and renumbered after D1
        instance = relaxed_no_gadget(kind)
        deletable = [p for p in range(instance.game.num_players) if p != instance.distinguished]
        player = st.one_of(
            st.sampled_from(sorted(instance.bands.heavy)),
            st.sampled_from(group_members(instance, "Z*")),
            st.sampled_from(deletable),
        )
        first = data.draw(st.frozensets(player, max_size=4))
        second = data.draw(st.frozensets(player, max_size=4)) - first
        after_first = instance.delete(first)
        _, remap = delete_players(instance.game, first)
        renumbered = {remap[p] for p in second}
        _, remap_after = delete_players(after_first.game, renumbered)
        _, remap_direct = delete_players(instance.game, first | second)
        composed = {p: remap_after[q] for p, q in remap.items() if q in remap_after}
        assert composed == remap_direct
        stepwise = after_first.delete(renumbered)
        direct = instance.delete(first | second)
        assert stepwise.game == direct.game
        assert stepwise.distinguished == direct.distinguished
        assert stepwise.budget == direct.budget
        assert stepwise.groups == direct.groups
        assert stepwise.a_players == direct.a_players
        assert stepwise.b_players == direct.b_players
        assert stepwise.bands == direct.bands

    def test_carrier_tables_remap(self):
        instance = build_decrease(OR2, 1, strict=False)
        victim = instance.a_players[0]
        variant = instance.delete({victim})
        assert variant.a_players[0] is None
        assert variant.b_players[0] is not None
        survivor = variant.b_players[0]
        assert variant.game.weights[survivor] == instance.game.weights[
            instance.b_players[0]
        ]

    def test_unlabelled_instance_has_no_group_members(self):
        instance = ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE)
        assert group_members(instance, "A") == ()
        assert group_members(instance.delete({1}), "A") == ()


class TestInstanceMeta:
    """``meta`` belongs to the instance: no caller and no derived instance
    shares its dict."""

    @pytest.mark.parametrize(
        "derive",
        [
            lambda instance: replace(instance, goal=Goal.NONINCREASE),
            lambda instance: instance.delete(group_members(instance, "Z*")),
        ],
        ids=["replace", "delete"],
    )
    def test_a_derived_instance_has_its_own_meta(self, derive):
        instance = _or2_decrease()
        derived = derive(instance)
        assert derived.meta == instance.meta
        assert derived.meta is not instance.meta
        derived.meta["k"] = 5
        assert witness_deletion(instance, (1,)) == witness_deletion(_or2_decrease(), (1,))

    def test_the_callers_dict_stays_the_callers(self):
        meta = {"k": 1}
        instance = ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, meta=meta)
        meta["k"] = 2
        assert instance.meta == {"k": 1}

    def test_meta_given_in_code_round_trips(self):
        meta = {"k": 1, "kind": "hand-made"}
        instance = ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, meta=meta)
        document = dump_instance(instance)
        meta.clear()
        assert load_document(document) == instance


class TestLayeredCaseCounts:
    """The per-case split reads every heavy term from one walk."""

    @pytest.mark.parametrize("kind", [*sorted(RELAXED_NO_BUILDERS), "strict-decrease"])
    def test_one_walk_per_call_gives_the_per_heavy_split(self, kind, monkeypatch):
        instance = build_decrease(WIDE5, 4) if kind == "strict-decrease" else relaxed_no_gadget(kind)
        labels = ("D", "F", "S", "T", "U", "V")
        totals = dict.fromkeys(labels, 0)
        for heavy in instance.bands.heavy:
            totals[instance.groups[heavy]] += heavy_pivot_term(instance.bands, heavy)
        walks = []
        walk = bands_module._window_passes
        monkeypatch.setattr(
            bands_module, "_window_passes", lambda *args: walks.append(args) or walk(*args)
        )
        counts = layered_case_counts(instance)
        assert len(walks) == 1
        assert counts == CaseCounts(*(totals[label] for label in labels))

    @pytest.mark.parametrize(
        "goal, players",
        [(Goal.NONINCREASE, 183), (Goal.MAINTAIN, 1059)],
        ids=["strict-nonincrease", "strict-maintain"],
    )
    def test_strict_gadgets_split_into_the_closed_form_cases(self, goal, players):
        # the distinguished player weighs 1, so each heavy has exactly one term
        if goal is Goal.MAINTAIN:
            formula, k, ell = exactify(WIDE5, 4, 1)
            instance = build_maintain(formula, k, ell)
        else:
            formula, k, ell = WIDE5, 4, None
            instance = build_nonincrease(formula, k)
        assert instance.game.num_players == players
        bands = instance.bands
        walk = [(h, product) for h, _, _, product in counter_terms(bands)]
        assert len(walk) == len(dict(walk))
        assert DeletionCounter(bands).heavy_terms(()) == dict(walk)
        xi, n = count_sat(formula), formula.num_variables
        assert layered_case_counts(instance) == expected_case_counts(goal, k, n, xi, ell)

    @pytest.mark.parametrize("zero_term", [False, True], ids=["nonzero-term", "zero-term"])
    def test_rejects_a_heavy_player_outside_the_six_cases(self, zero_term):
        instance = relaxed_no_gadget("decrease")
        if zero_term:
            # without its Y players, some S players have no completing light subset
            instance = instance.delete(group_members(instance, "Y"))
        terms = DeletionCounter(instance.bands).heavy_terms(())
        heavy = min(h for h in instance.bands.heavy if (h in terms) != zero_term)
        groups = list(instance.groups)
        groups[heavy] = "Z"
        with pytest.raises(InputError, match=f"heavy player {heavy} carries unexpected label 'Z'"):
            layered_case_counts(replace(instance, groups=tuple(groups)))


class TestClosedFormGridAgainstOracles:
    def test_random_grid(self):
        rng = random.Random(77)
        from wvgcontrol.verify import random_formula

        for k, n in ((1, 2), (2, 3)):
            for _ in range(4):
                formula = random_formula(rng, n, rng.randint(1, 3))
                xi = count_sat(formula)
                dec = build_decrease(formula, k, strict=False)
                assert (
                    pivot_count_layered(dec.bands)
                    == expected_case_counts(Goal.DECREASE, k, n, xi).total
                )
                non = build_nonincrease(formula, k, strict=False)
                assert (
                    pivot_count_layered(non.bands)
                    == expected_case_counts(Goal.NONINCREASE, k, n, xi).total
                )


@st.composite
def strict_gadget_parameters(draw):
    """(builder kind, formula, k, ell) over the paper's strict range:
    n = 5..9 variables, k = 4..n-1 and 1 to 6 random clauses; a maintain
    formula goes through ``exactify`` with ell drawn from 1..2^(n-k)."""
    kind = draw(st.sampled_from(["decrease", "nonincrease", "maintain"]))
    n = draw(st.integers(5, 9))
    k = draw(st.integers(4, n - 1))
    clauses = draw(st.integers(1, 6))
    formula = random_formula(random.Random(draw(st.integers(0, 2**32 - 1))), n, clauses)
    if kind != "maintain":
        return kind, formula, k, None
    return (kind, *exactify(formula, k, draw(st.integers(1, 1 << (n - k)))))


class TestStrictClosedFormRange:
    """The layered six-case split and total of strict gadgets against the
    paper's closed forms, over its parameter range."""

    BUILDERS = {"decrease": build_decrease, "nonincrease": build_nonincrease}

    @settings(max_examples=180, deadline=None)
    @given(parameters=strict_gadget_parameters())
    def test_case_counts_meet_the_closed_forms(self, parameters):
        kind, formula, k, ell = parameters
        if kind == "maintain":
            instance = build_maintain(formula, k, ell)
        else:
            instance = self.BUILDERS[kind](formula, k)
        expected = expected_case_counts(
            Goal(kind.upper()), k, formula.num_variables, count_sat(formula), ell
        )
        assert layered_case_counts(instance) == expected
        assert pivot_count_layered(instance.bands) == expected.total


class TestGoldenPlayerOrder:
    """sha256 prefixes of ``dump_instance`` pin the player order, every
    weight, the band blocks and the meta of each builder bit for bit."""

    @staticmethod
    def _digest(instance) -> str:
        return hashlib.sha256(dump_instance(instance).encode()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "build, players, digest",
        [
            (lambda: build_decrease(NO_FORMULA, 2, strict=False), 118, "6108e2a48bce04cc"),
            (lambda: build_nonincrease(NO_FORMULA, 2, strict=False), 85, "96df545ba4b1e097"),
            (lambda: build_maintain(NO_FORMULA, 2, 5, strict=False), 332, "71f6c1d87b95c77c"),
            (lambda: build_decrease(WIDE5, 4), 318, "5b7e1f8da397366b"),
            (lambda: build_maintain(*exactify(WIDE5, 4, 1)), 1059, "f9ce5d0dff8c4831"),
            (lambda: build_maintain(NO_FORMULA, 2, 7, strict=False), 465, "16464d56e6a71a9a"),
            (lambda: build_maintain(OR2, 1, 1, strict=False), 47, "e871c9fa1546fb26"),
            (lambda: build_decrease(OR2, 1, strict=False), 41, "cc18a66c14ac567e"),
            (lambda: build_nonincrease(WIDE5, 4), 183, "ba93fabfcf81396a"),
        ],
        ids=[
            "decrease",
            "nonincrease",
            "maintain",
            "strict-decrease",
            "strict-maintain",
            "maintain-three-levels",
            "maintain-empty-l1",
            "decrease-single-z-star",
            "strict-nonincrease",
        ],
    )
    def test_digest(self, build, players, digest):
        instance = build()
        assert instance.game.num_players == players
        assert self._digest(instance) == digest


def _or2_decrease() -> ControlInstance:
    return build_decrease(OR2, 1, strict=False)


class TestPublicRefusals:
    """Refusals of public functions on input they cannot serve, each with
    its exact type and message."""

    @pytest.mark.parametrize(
        "refused, error, message",
        [
            (
                lambda: heavy_pivot_term(_or2_decrease().bands, 7),  # a light player
                InputError,
                "player 7 is not heavy in this band system",
            ),
            (
                lambda: layered_case_counts(replace(_or2_decrease(), bands=None)),
                InputError,
                "per-case counting needs band metadata and group labels",
            ),
            (
                lambda: witness_deletion(
                    ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE), (0,)
                ),
                InputError,
                "instance carries no A-group provenance",
            ),
            (
                lambda: witness_deletion(
                    (instance := _or2_decrease()).delete({instance.a_players[0]}), (0,)
                ),
                InputError,
                "literal carrier for variable 1 was already deleted",
            ),
            (
                lambda: expected_case_counts(Goal.MAINTAIN, 1, 2, 3),
                InputError,
                "the maintain closed form needs ell",
            ),
            (
                lambda: replace(
                    _or2_decrease(), bands=build_nonincrease(OR2, 1, strict=False).bands
                ),
                InputError,
                "band metadata disagrees with the instance",
            ),
            (
                lambda: compute_pivot_count(_or2_decrease(), "nope"),
                InputError,
                "unknown engine 'nope'; expected one of ['dp', 'enum', 'layered', 'mitm']",
            ),
            (
                lambda: run_suite("nope"),
                InputError,
                "unknown suite 'nope'; expected one of ['closed-forms', 'exactify', "
                "'example1', 'no-direction-sampled', 'prereduction', 'yes-direction']",
            ),
            (
                lambda: decompose_target(_or2_decrease().bands, -1),
                InputError,
                "residual must be nonnegative",
            ),
            (
                lambda: count_light_subsets(_or2_decrease().bands, -1),
                InputError,
                "residual must be nonnegative",
            ),
            (
                lambda: block_named(_or2_decrease().bands, "nope"),
                InputError,
                "no block named 'nope'",
            ),
            (lambda: CnfFormula(0, ()), FormulaError, "a formula needs at least one variable"),
            (
                lambda: LightBlock("b", BlockKind.ENUMERABLE, (1, 2), (3,), 1),
                BandStructureError,
                "block b: members/weights length mismatch",
            ),
            (
                lambda: LightBlock("Q", "NOPE", (1,), (1,), 1),
                BandStructureError,
                "block Q: unknown kind 'NOPE'",
            ),
            (
                lambda: replace(
                    bands := _or2_decrease().bands, heavy=bands.heavy | {bands.distinguished}
                ),
                BandStructureError,
                "player 0 appears twice in the band system",
            ),
            (lambda: relation_holds("SIDEWAYS", 1, 1), InputError, "unknown goal 'SIDEWAYS'"),
            (
                lambda: suffix_satisfying_counts(OR2, 3),
                InputError,
                "prefix length 3 out of range for 2 variables",
            ),
            (
                lambda: suffix_satisfying_counts(OR2, -1),
                InputError,
                "prefix length -1 out of range for 2 variables",
            ),
            (
                lambda: e_exact_sat(OR2, 1, -1),
                InputError,
                "ell must be positive, got -1",
            ),
            (
                lambda: replace(build_prereduction(OR2, 1), b_weights=(1000,)),
                GadgetParameterError,
                "a/b weight vectors must have equal length",
            ),
            (
                lambda: replace(build_prereduction(OR2, 1), t=0),
                GadgetParameterError,
                "t violates the digit-separation bound",
            ),
            (
                lambda: DeltaDecomposition((1, 1)),
                GadgetParameterError,
                "exponents must be strictly decreasing",
            ),
            (lambda: DeltaDecomposition(()), GadgetParameterError, "exponents must not be empty"),
            (
                lambda: DeltaDecomposition((-1,)),
                GadgetParameterError,
                "exponents must be nonnegative, got -1",
            ),
            (
                lambda: DeltaDecomposition((True,)),
                GadgetParameterError,
                "each exponent must be an integer, got True",
            ),
            (
                lambda: DeltaDecomposition((2.0,)),
                GadgetParameterError,
                "each exponent must be an integer, got 2.0",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), True, 1, Goal.DECREASE),
                InputError,
                "distinguished must be an integer, got True",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, True, Goal.DECREASE),
                InputError,
                "budget must be an integer, got True",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1.0, Goal.DECREASE),
                InputError,
                "budget must be an integer, got 1.0",
            ),
            (lambda: ExactIndex(2.5, 1), InputError, "pivot_count must be an integer, got 2.5"),
            (lambda: ExactIndex(1, True), InputError, "exponent must be an integer, got True"),
            (
                lambda: CnfFormula(2.0, (frozenset({1, 2}),)),
                FormulaError,
                "num_variables must be an integer, got 2.0",
            ),
            (
                lambda: CnfFormula(True, (frozenset({1}),)),
                FormulaError,
                "num_variables must be an integer, got True",
            ),
            (lambda: count_subset_sum([2.7], 2), InputError, "sizes must be integers, got 2.7"),
            (lambda: count_subset_sum(["3"], 3), InputError, "sizes must be integers, got '3'"),
            (lambda: count_subset_sum([1], 1.0), InputError, "target must be an integer, got 1.0"),
            (
                lambda: build_decrease(OR2, True, strict=False),
                GadgetParameterError,
                "k must be an integer, got True",
            ),
            (
                lambda: build_maintain(OR2, 1, 1.0, strict=False),
                GadgetParameterError,
                "ell must be an integer, got 1.0",
            ),
            (
                lambda: DeltaDecomposition.from_ell(True),
                GadgetParameterError,
                "ell must be an integer, got True",
            ),
            (lambda: exactify(OR2, 1, True), GadgetParameterError, "ell must be an integer, got True"),
            (lambda: e_exact_sat(OR2, 1, 1.5), InputError, "ell must be an integer, got 1.5"),
            (lambda: e_minority_sat(OR2, True), InputError, "k must be an integer, got True"),
            (
                lambda: witness_deletion(_or2_decrease(), (2,)),
                InputError,
                "prefix entries must be 0 or 1, got 2",
            ),
            (
                lambda: witness_deletion(
                    replace(instance := _or2_decrease(), meta={**instance.meta, "k": True}), (1,)
                ),
                InputError,
                "the instance's meta k must be an integer, got True",
            ),
            (
                lambda: Game((1, 2, 2), 3).check_player(True),
                InvalidCoalitionError,
                "player must be an integer, got True",
            ),
            (
                lambda: delete_players(Game((1, 2, 2), 3), [True]),
                InvalidCoalitionError,
                "player must be an integer, got True",
            ),
            (
                lambda: LightBlock("x", BlockKind.ENUMERABLE, (1,), (2,), 1.0),
                BandStructureError,
                "block x: granularity must be an integer, got 1.0",
            ),
            (
                lambda: LightBlock("x", BlockKind.ENUMERABLE, (1,), (2,), True),
                BandStructureError,
                "block x: granularity must be an integer, got True",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, groups="pAB"),
                InputError,
                "groups must be a list or tuple, got 'pAB'",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, groups=5),
                InputError,
                "groups must be a list or tuple, got 5",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, a_players=5),
                InputError,
                "a_players must be a list or tuple, got 5",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, b_players=None),
                InputError,
                "b_players must be a list or tuple, got None",
            ),
            (
                lambda: witness_deletion(
                    ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, meta={"k": 1}), (1,)
                ),
                InputError,
                "instance has no literal carrier for variable 1",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, meta=5),
                InputError,
                "meta must be a dict, got 5",
            ),
            (
                lambda: ControlInstance(Game((1, 2, 2), 3), 0, 1, Goal.DECREASE, meta=[]),
                InputError,
                "meta must be a dict, got []",
            ),
            (lambda: DeltaDecomposition(5), InputError, "exponents must be a list or tuple, got 5"),
            (
                lambda: DeltaDecomposition("31"),
                InputError,
                "exponents must be a list or tuple, got '31'",
            ),
        ],
        ids=[
            "heavy-pivot-term-light-player",
            "case-counts-without-bands",
            "witness-without-provenance",
            "witness-after-carrier-deleted",
            "maintain-closed-form-without-ell",
            "another-gadgets-bands",
            "unknown-engine",
            "unknown-suite",
            "decompose-negative-residual",
            "light-subsets-negative-residual",
            "unknown-block",
            "formula-without-variables",
            "block-length-mismatch",
            "block-unknown-kind",
            "distinguished-listed-as-heavy",
            "unknown-goal-relation",
            "suffix-counts-prefix-too-long",
            "suffix-counts-negative-prefix",
            "exact-sat-negative-ell",
            "prereduction-unequal-vectors",
            "prereduction-t-below-bound",
            "delta-repeated-exponent",
            "delta-no-exponent",
            "delta-negative-exponent",
            "delta-bool-exponent",
            "delta-float-exponent",
            "bool-distinguished",
            "bool-budget",
            "float-budget",
            "float-pivot-count",
            "bool-exponent",
            "float-variable-count",
            "bool-variable-count",
            "subset-sum-float-size",
            "subset-sum-string-size",
            "subset-sum-float-target",
            "decrease-bool-k",
            "maintain-float-ell",
            "delta-bool-ell",
            "exactify-bool-ell",
            "exact-sat-float-ell",
            "minority-sat-bool-k",
            "witness-prefix-entry-two",
            "witness-bool-meta-k",
            "check-bool-player",
            "delete-bool-player",
            "block-float-granularity",
            "block-bool-granularity",
            "string-groups",
            "int-groups",
            "int-a-players",
            "none-b-players",
            "witness-without-carrier-tables",
            "int-meta",
            "list-meta",
            "int-exponents",
            "string-exponents",
        ],
    )
    def test_refusal(self, refused, error, message):
        with pytest.raises(error) as caught:
            refused()
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_an_empty_deletion_describes_itself(self):
        assert DeletionCandidate((), frozenset()).describe() == "delete nothing"

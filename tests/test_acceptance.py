"""Acceptance criteria, one test per criterion.

Every check is exact (integer or exact-rational equality; no tolerances)
and carries the stated wall-clock limit.  Each test prints one PASS line
with its timing; run with ``pytest tests/test_acceptance.py -v -s`` to see
them live.
"""

from __future__ import annotations

import random
import time

import pytest

from wvgcontrol import (
    CnfFormula,
    ExactIndex,
    Game,
    Goal,
    build_decrease,
    build_maintain,
    build_nonincrease,
    build_prereduction,
    count_sat,
    count_subset_sum,
    e_exact_sat,
    e_minority_sat,
    exactify,
    expected_case_counts,
    layered_case_counts,
    pivot_count_layered,
    witness_deletion,
)
from wvgcontrol.control import Restricted, Sampled, solve_control
from wvgcontrol.engines import pivot_count_enum, pivot_count_mitm, pivot_count_weight_dp
from wvgcontrol.verify import NO_INSTANCES, random_formula

from conftest import heavy_pivot_term, random_game

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")


def report(criterion: str, elapsed: float, limit: float, detail: str = "") -> None:
    extra = f" -- {detail}" if detail else ""
    print(f"PASS {criterion} ({elapsed:.2f}s, limit {limit:.0f}s){extra}")
    assert elapsed < limit, f"{criterion} exceeded its time limit ({elapsed:.2f}s)"


def _case_tuple(counts):
    return (counts.case1, counts.case2, counts.case3, counts.case4, counts.case5, counts.case6)


def test_c01_example1_reproduction(capsys):
    started = time.perf_counter()
    game = Game((1, 2, 2, 2, 3, 3), 8)
    p = 1  # a weight-2 player
    assert ExactIndex(pivot_count_enum(game, p), 5) == ExactIndex(1, 2)
    assert ExactIndex(pivot_count_enum(Game((1, 2, 2, 2, 3), 8), p), 4) == ExactIndex(3, 4)
    assert ExactIndex(pivot_count_enum(Game((1, 2, 2, 3, 3), 8), p), 4) == ExactIndex(1, 2)
    with capsys.disabled():
        report(
            "criterion 1: worked-example indices 1/4 -> 3/16 -> 1/4",
            time.perf_counter() - started,
            1.0,
        )


def test_c02_engine_cross_agreement(capsys):
    started = time.perf_counter()
    rng = random.Random(501)
    games = 0
    while games < 500:
        game = random_game(rng, max_players=16, max_weight=50)
        player = rng.randrange(game.num_players)
        counts = {
            pivot_count_enum(game, player),
            pivot_count_mitm(game, player),
            pivot_count_weight_dp(game, player),
        }
        assert len(counts) == 1, f"engines disagree on {game} player {player}"
        games += 1
    with capsys.disabled():
        report(
            "criterion 2: enum/mitm/dp agree on 500 random games (<= 16 players)",
            time.perf_counter() - started,
            30.0,
        )


def test_c03_prereduction_identity(capsys):
    started = time.perf_counter()
    rng = random.Random(502)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        formula = random_formula(rng, n, m)
        k = rng.randint(1, n)
        pre = build_prereduction(formula, k)
        xi = count_sat(formula)
        assert count_subset_sum(pre.abc_weights, pre.q_prime) == xi
        assert count_subset_sum(pre.scaled_weights, pre.q_double_prime) == xi
        checked += 1
    with capsys.disabled():
        report(
            "criterion 3: #SubsetSum(A+B+C, q') == #SAT == #SubsetSum(E, q'') "
            "on 50 formulas (n <= 5, m <= 4)",
            time.perf_counter() - started,
            60.0,
        )


RELAXED_GRID = ((1, 2), (1, 3), (2, 3))


def test_c04_closed_form_decrease(capsys):
    started = time.perf_counter()
    rng = random.Random(503)
    for k, n in RELAXED_GRID:
        for _ in range(10):
            formula = random_formula(rng, n, rng.randint(1, 3))
            xi = count_sat(formula)
            instance = build_decrease(formula, k, strict=False)
            expected = expected_case_counts(Goal.DECREASE, k, n, xi)
            actual = layered_case_counts(instance)
            assert _case_tuple(actual) == _case_tuple(expected)
            assert actual.total == 2 * k * (1 << k) * xi + k * (
                (1 << n) + (1 << (k + 1))
            ) * ((1 << (k + 1)) - 1)
    with capsys.disabled():
        report(
            "criterion 4: decrease closed form + six-case split on the relaxed grid",
            time.perf_counter() - started,
            120.0,
        )


def test_c05_closed_form_nonincrease(capsys):
    started = time.perf_counter()
    rng = random.Random(504)
    for k, n in RELAXED_GRID:
        for _ in range(10):
            formula = random_formula(rng, n, rng.randint(1, 3))
            xi = count_sat(formula)
            instance = build_nonincrease(formula, k, strict=False)
            actual = layered_case_counts(instance)
            assert actual.total == 2 * k * (1 << k) * xi + k * (1 << n) * (
                (1 << (k + 1)) - 1
            )
            assert _case_tuple(actual) == _case_tuple(
                expected_case_counts(Goal.NONINCREASE, k, n, xi)
            )
    with capsys.disabled():
        report(
            "criterion 5: nonincrease closed form on the relaxed grid",
            time.perf_counter() - started,
            120.0,
        )


def test_c06_closed_form_maintain(capsys):
    started = time.perf_counter()
    rng = random.Random(505)
    for k, n in RELAXED_GRID:
        for ell in (3, 5, 6):
            for _ in range(10):
                formula = random_formula(rng, n, rng.randint(1, 3))
                xi = count_sat(formula)
                instance = build_maintain(formula, k, ell, strict=False)
                actual = layered_case_counts(instance)
                assert actual.total == 2 * k * (1 << k) * xi + k * ell * (
                    (1 << (n + 2)) + (1 << (k + 1))
                ) * (1 << k)
                assert actual.case5 == k * ((1 << (k + 1)) - 2) * ell
                assert actual.case6 == k * ((1 << (n + 2)) + 2) * ell
                assert _case_tuple(actual) == _case_tuple(
                    expected_case_counts(Goal.MAINTAIN, k, n, xi, ell=ell)
                )
    with capsys.disabled():
        report(
            "criterion 6: maintain closed form + case subtotals, ell in {3, 5, 6}",
            time.perf_counter() - started,
            180.0,
        )


def test_c07_strict_scale_formula(capsys):
    started = time.perf_counter()
    formula = CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),))
    assert count_sat(formula) == 31
    instance = build_decrease(formula, 4, strict=True)
    assert instance.game.num_players == 318
    assert pivot_count_layered(instance.bands) == 11904
    with capsys.disabled():
        report(
            "criterion 7: strict gadget (k=4, n=5, xi=31) gives 11904 / 2^317",
            time.perf_counter() - started,
            120.0,
        )


def _minority_yes_pairs(rng: random.Random, count: int):
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 3)
        formula = random_formula(rng, n, rng.randint(1, 3))
        k = rng.randint(1, n - 1)
        if e_minority_sat(formula, k)[0]:
            pairs.append((formula, k))
    return pairs


def test_c08_yes_direction_end_to_end(capsys):
    started = time.perf_counter()
    rng = random.Random(506)
    pairs = _minority_yes_pairs(rng, 10)
    for formula, k in pairs:
        _, prefix = e_minority_sat(formula, k)
        instance = build_decrease(formula, k, strict=False)
        before = ExactIndex(pivot_count_layered(instance.bands), instance.game.num_players - 1)
        variant = instance.delete(witness_deletion(instance, prefix))
        after = ExactIndex(pivot_count_layered(variant.bands), variant.game.num_players - 1)
        assert after < before

        trimmed = build_nonincrease(formula, k, strict=False)
        before = ExactIndex(pivot_count_layered(trimmed.bands), trimmed.game.num_players - 1)
        variant = trimmed.delete(witness_deletion(trimmed, prefix))
        after = ExactIndex(pivot_count_layered(variant.bands), variant.game.num_players - 1)
        assert after <= before

    maintained = 0
    for formula, k in pairs[:6]:
        for ell in (1, 2):
            extended, _, tripled = exactify(formula, k, ell)
            verdict, prefix = e_exact_sat(extended, k, tripled)
            if not verdict:
                continue
            instance = build_maintain(extended, k, tripled, strict=False)
            before = ExactIndex(
                pivot_count_layered(instance.bands), instance.game.num_players - 1
            )
            variant = instance.delete(witness_deletion(instance, prefix))
            after = ExactIndex(
                pivot_count_layered(variant.bands), variant.game.num_players - 1
            )
            assert after == before
            maintained += 1
    assert maintained >= 5
    with capsys.disabled():
        report(
            "criterion 8: witness deletions decrease / nonincrease / maintain exactly",
            time.perf_counter() - started,
            180.0,
            f"{len(pairs)} minority pairs, {maintained} maintain triples",
        )


def test_c09_no_direction_restricted_and_sampled(capsys):
    started = time.perf_counter()
    for formula, k in NO_INSTANCES:
        assert e_minority_sat(formula, k)[0] is False
        instance = build_decrease(formula, k, strict=False)
        restricted = solve_control(instance, engine="layered", mode=Restricted(("A",)))
        assert restricted.verdict == "NO-exhaustive"
    formula, k = NO_INSTANCES[1]
    instance = build_decrease(formula, k, strict=False)
    sampled = solve_control(
        instance, engine="layered", mode=Sampled(seed=507, trials=10_000)
    )
    assert sampled.verdict == "NO-sampled"
    assert sampled.candidates_evaluated == 10_000
    with capsys.disabled():
        report(
            "criterion 9: no-instances resist A-only exhaustive and 10,000 sampled "
            "deletions (sampled evidence)",
            time.perf_counter() - started,
            300.0,
        )


def test_c10_exactify_lemma(capsys):
    started = time.perf_counter()
    rng = random.Random(508)
    tried = 0
    for _ in range(50):
        n = rng.randint(1, 4)
        formula = random_formula(rng, n, rng.randint(1, 3))
        for k in range(1, n + 1):
            for ell in range(1, (1 << (n - k)) + 1):
                extended, same_k, tripled = exactify(formula, k, ell)
                assert (
                    e_exact_sat(formula, k, ell)[0]
                    == e_exact_sat(extended, same_k, tripled)[0]
                )
                tried += 1
    with capsys.disabled():
        report(
            "criterion 10: e-exact equivalence phi ~ phi' with 3*ell",
            time.perf_counter() - started,
            60.0,
            f"{tried} (formula, k, ell) triples",
        )


def test_c11_mitm_vs_layered_per_heavy(capsys):
    started = time.perf_counter()
    formula = CnfFormula(2, (frozenset({1, 2}),))
    instance = build_decrease(formula, 1, strict=False)
    game = instance.game
    light = [w for block in instance.bands.blocks for w in block.weights]
    for heavy in sorted(instance.bands.heavy):
        target = game.quota - 1 - game.weights[heavy]
        assert heavy_pivot_term(instance.bands, heavy) == count_subset_sum(light, target)
    with capsys.disabled():
        report(
            "criterion 11: per-heavy layered block products equal raw subset-sum "
            f"counts on the (k=1, n=2) gadget ({len(instance.bands.heavy)} heavies)",
            time.perf_counter() - started,
            60.0,
        )

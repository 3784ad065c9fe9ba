"""Verification suites: each suite re-derives a family of published or
structural facts with independent machinery.

A suite is a generator that yields a ``CheckResult`` as it computes each
check; ``SUITES`` maps each name to its suite, and ``wvg verify`` prints
the checks as they come.  The suites are the programmatic backbone of
``wvg verify``; the acceptance tests run none of them and share only
``NO_INSTANCES`` and ``random_formula`` with them:

* ``example1``    -- the worked six-player example and its two deletions;
* ``prereduction``-- #SubsetSum(A+B+C, q') == #SAT == #SubsetSum(E, q'')
  over a generated corpus;
* ``closed-forms``-- layered counts equal the closed forms (and the
  per-case split) on relaxed grids plus one strict-scale instance, and
  equal raw subset-sum counting heavy-by-heavy;
* ``yes-direction``-- witness deletions achieve each goal end to end;
* ``no-direction-sampled`` -- on no-instances, exhaustive A-only search
  plus seeded random multisets find no decreasing deletion (sampled
  evidence, labelled as such);
* ``exactify``    -- the exact-count equivalence of the two-variable
  extension, exhaustively over small parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .bands import heavy_pivot_term, pivot_count_layered
from .control import Restricted, Sampled, banzhaf, evaluate_deletion, solve_control
from .formulas import CnfFormula, Prefix, count_sat, count_subset_sum, e_exact_sat, e_minority_sat
from .game import ExactIndex, Game
from .gadgets import (
    Goal,
    build_decrease,
    build_maintain,
    build_nonincrease,
    build_prereduction,
    exactify,
    expected_case_counts,
    layered_case_counts,
    witness_deletion,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


#: every suite reads its seed from these options, and the sampled suite
#: searches with them as its mode
SuiteOptions = Sampled


#: random formulas per (goal, k, n[, ell]) cell of the closed-form grid
FORMULAS_PER_CELL = 10
#: random formulas in the prereduction and exactify corpora
CORPUS_SIZE = 50


def random_formula(rng: random.Random, num_variables: int, num_clauses: int) -> CnfFormula:
    """A random CNF with every variable occurring and no tautological clause."""
    clauses: list[set[int]] = []
    for _ in range(num_clauses):
        size = rng.randint(1, min(3, num_variables))
        variables = rng.sample(range(1, num_variables + 1), size)
        clauses.append({v if rng.randint(0, 1) else -v for v in variables})
    covered = {abs(lit) for clause in clauses for lit in clause}
    for variable in range(1, num_variables + 1):
        if variable not in covered:
            rng.choice(clauses).add(variable if rng.randint(0, 1) else -variable)
    return CnfFormula(num_variables, tuple(frozenset(c) for c in clauses))


def formula_corpus(
    rng: random.Random, count: int, max_variables: int, max_clauses: int
) -> list[CnfFormula]:
    corpus = []
    while len(corpus) < count:
        n = rng.randint(1, max_variables)
        m = rng.randint(1, max_clauses)
        corpus.append(random_formula(rng, n, m))
    return corpus


# ---------------------------------------------------------------- example1

EXAMPLE1_GAME = Game((1, 2, 2, 2, 3, 3), 8)


def suite_example1(options: SuiteOptions) -> Iterator[CheckResult]:
    p = 1  # a weight-2 player
    for name, game, expected in (
        (
            "six-player game: index of a weight-2 player is 8/2^5 = 1/4",
            EXAMPLE1_GAME,
            ExactIndex(1, 2),
        ),
        (  # one weight-3 player removed
            "after deleting a weight-3 player the index drops to 3/2^4",
            Game((1, 2, 2, 2, 3), 8),
            ExactIndex(3, 4),
        ),
        (  # one weight-2 player removed
            "after deleting a weight-2 player the index stays 1/4",
            Game((1, 2, 2, 3, 3), 8),
            ExactIndex(1, 2),
        ),
    ):
        indices = {banzhaf(game, p, engine) for engine in ("enum", "mitm", "dp")}
        yield CheckResult(name, indices == {expected})


# ------------------------------------------------------------ prereduction


def suite_prereduction(options: SuiteOptions) -> Iterator[CheckResult]:
    rng = random.Random(options.seed)
    corpus = formula_corpus(rng, CORPUS_SIZE, max_variables=5, max_clauses=4)
    base_ok = scaled_ok = 0
    for formula in corpus:
        k = rng.randint(1, formula.num_variables)
        pre = build_prereduction(formula, k)
        xi = count_sat(formula)
        base_ok += count_subset_sum(pre.abc_weights, pre.q_prime) == xi
        scaled_ok += count_subset_sum(pre.scaled_weights, pre.q_double_prime) == xi
    for vector, ok in (("A+B+C, q'", base_ok), ("E, q''", scaled_ok)):
        yield CheckResult(
            f"#SubsetSum({vector}) == #SAT on {len(corpus)} random formulas",
            ok == len(corpus),
            f"{ok}/{len(corpus)}",
        )


# ------------------------------------------------------------ closed forms

RELAXED_GRID = ((1, 2), (1, 3), (2, 3))
MAINTAIN_ELLS = (3, 5, 6)


def suite_closed_forms(options: SuiteOptions) -> Iterator[CheckResult]:
    rng = random.Random(options.seed)
    cells = [
        (goal, builder, k, n, ())
        for goal, builder in (
            (Goal.DECREASE, build_decrease),
            (Goal.NONINCREASE, build_nonincrease),
        )
        for k, n in RELAXED_GRID
    ] + [
        (Goal.MAINTAIN, build_maintain, k, n, (ell,))
        for k, n in RELAXED_GRID
        for ell in MAINTAIN_ELLS
    ]
    for goal, builder, k, n, ell in cells:
        formulas = [random_formula(rng, n, rng.randint(1, 3)) for _ in range(FORMULAS_PER_CELL)]
        ok = sum(
            layered_case_counts(builder(formula, k, *ell, strict=False))
            == expected_case_counts(goal, k, n, count_sat(formula), *ell)
            for formula in formulas
        )
        params = f"k={k}, n={n}" + "".join(f", ell={e}" for e in ell)
        yield CheckResult(
            f"{goal.value.lower()} gadget ({params}): layered count matches "
            "closed form and per-case split",
            ok == len(formulas),
            f"{ok}/{len(formulas)}",
        )
    strict_formula = CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),))
    strict = build_decrease(strict_formula, 4, strict=True)
    layered = pivot_count_layered(strict.bands)
    yield CheckResult(
        "strict decrease gadget (k=4, n=5, xi=31): layered numerator is 11904 over 2^317",
        layered == 11904 and strict.game.num_players == 318,
        f"count={layered}, players={strict.game.num_players}",
    )
    small = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
    light = [w for block in small.bands.blocks for w in block.weights]
    per_heavy_ok = all(
        heavy_pivot_term(small.bands, h)
        == count_subset_sum(light, small.game.quota - 1 - small.game.weights[h])
        for h in sorted(small.bands.heavy)
    )
    yield CheckResult(
        "relaxed (k=1, n=2) gadget: every heavy player's layered block product equals "
        "the raw subset-sum count of the light players",
        per_heavy_ok,
    )


# ------------------------------------------------------------ yes direction


def _yes_pairs(rng: random.Random, count: int) -> list[tuple[CnfFormula, int, Prefix]]:
    """``count`` minority yes-pairs (formula, k), each with its witness prefix."""
    pairs: list[tuple[CnfFormula, int, Prefix]] = []
    while len(pairs) < count:
        n = rng.randint(2, 3)
        formula = random_formula(rng, n, rng.randint(1, 3))
        k = rng.randint(1, n - 1)
        verdict, prefix = e_minority_sat(formula, k)
        if verdict:
            pairs.append((formula, k, prefix))
    return pairs


def suite_yes_direction(options: SuiteOptions) -> Iterator[CheckResult]:
    rng = random.Random(options.seed)
    pairs = _yes_pairs(rng, 8)

    for builder, goal, claim in (
        (build_decrease, Goal.DECREASE, "strictly decrease the index on {} decrease"),
        (build_nonincrease, Goal.NONINCREASE, "never increase the index on {} nonincrease"),
    ):
        ok = 0
        for formula, k, prefix in pairs:
            instance = builder(formula, k, strict=False)
            deletion = witness_deletion(instance, prefix)
            ok += evaluate_deletion(instance, deletion, "layered").relations[goal]
        yield CheckResult(
            f"minority witnesses {claim.format(len(pairs))} gadgets",
            ok == len(pairs),
            f"{ok}/{len(pairs)}",
        )

    maintain_ok = maintain_tried = 0
    for formula, k, _ in pairs[:5]:
        for ell in (1, 2):
            extended, _, triple = exactify(formula, k, ell)
            verdict, prefix = e_exact_sat(extended, k, triple)
            if not verdict:
                continue
            maintain_tried += 1
            instance = build_maintain(extended, k, triple, strict=False)
            deletion = witness_deletion(instance, prefix)
            maintain_ok += evaluate_deletion(instance, deletion, "layered").relations[Goal.MAINTAIN]
    yield CheckResult(
        f"exact-count witnesses maintain the index exactly on {maintain_tried} maintain gadgets",
        maintain_tried > 0 and maintain_ok == maintain_tried,
        f"{maintain_ok}/{maintain_tried}",
    )


# ----------------------------------------------------- no direction (sampled)

# Hand-picked no-instances: under every prefix assignment, strictly more
# than half of the suffix assignments satisfy the formula.
NO_INSTANCES: tuple[tuple[CnfFormula, int], ...] = (
    (CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3}))), 1),
    (
        CnfFormula(
            4,
            (
                frozenset({1, 3, 4}),
                frozenset({-1, 3, 4}),
                frozenset({2, 3, 4}),
                frozenset({-2, 3, 4}),
            ),
        ),
        2,
    ),
)


def suite_no_direction_sampled(options: SuiteOptions) -> Iterator[CheckResult]:
    gadgets = [build_decrease(formula, k, strict=False) for formula, k in NO_INSTANCES]
    for (formula, k), instance in zip(NO_INSTANCES, gadgets):
        verdict, _ = e_minority_sat(formula, k)
        yield CheckResult(
            f"(n={formula.num_variables}, k={k}) source instance is a minority no-instance",
            not verdict,
        )
        report = solve_control(instance, engine="layered", mode=Restricted(("A",)))
        yield CheckResult(
            f"(n={formula.num_variables}, k={k}) exhaustive A-only search finds no "
            "decreasing deletion",
            report.verdict == "NO-exhaustive",
            f"{report.candidates_evaluated} candidates",
        )
    sampled = gadgets[1]
    report = solve_control(sampled, engine="layered", mode=options)
    yield CheckResult(
        f"{options.trials} seeded random deletion multisets (size <= {sampled.budget}) find no "
        "decreasing deletion [sampled evidence, not a proof]",
        report.verdict == "NO-sampled",
        f"evaluated {report.candidates_evaluated}",
    )


# ---------------------------------------------------------------- exactify


def suite_exactify(options: SuiteOptions) -> Iterator[CheckResult]:
    rng = random.Random(options.seed)
    corpus = formula_corpus(rng, CORPUS_SIZE, max_variables=4, max_clauses=3)
    agreements = 0
    tried = 0
    for formula in corpus:
        n = formula.num_variables
        for k in range(1, n + 1):
            for ell in range(1, (1 << (n - k)) + 1):
                extended, same_k, triple = exactify(formula, k, ell)
                left, _ = e_exact_sat(formula, k, ell)
                right, _ = e_exact_sat(extended, same_k, triple)
                tried += 1
                if left == right:
                    agreements += 1
    yield CheckResult(
        f"exact-count equivalence phi ~ phi' over {tried} (formula, k, ell) triples",
        agreements == tried,
        f"{agreements}/{tried}",
    )
    not_power = all(
        (3 * ell) & (3 * ell - 1) != 0 for ell in range(1, 513)
    )
    yield CheckResult("3*ell is never a power of two (ell up to 512)", not_power)


SUITES = {
    "example1": suite_example1,
    "prereduction": suite_prereduction,
    "closed-forms": suite_closed_forms,
    "yes-direction": suite_yes_direction,
    "no-direction-sampled": suite_no_direction_sampled,
    "exactify": suite_exactify,
}

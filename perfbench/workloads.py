"""Seeded inputs, timed ops and answer checks for the benchmark workloads.

Every input is drawn here from the workload seed, except the formula of
search-sampled, which is the one ``wvg verify`` searches.  The expected answers are worked out by
this file (brute force over at most 2^9 assignments, or a weight-class
count of a search gadget) or by the paper's closed forms, never by the
engine being timed.

Each workload is a list of *rounds*, the unit of work repeated in the
timed phase: one ``solve_control`` call on the search workloads, one
batch of queries or formulas on the others.  An op is one candidate on
the search workloads, one query or one formula on the others.

Library functions are called through this module's globals so that the
traced run can wrap them here, at the caller.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

from wvgcontrol import (
    CnfFormula,
    ExactIndex,
    Exhaustive,
    Game,
    Goal,
    Sampled,
    build_decrease,
    build_maintain,
    build_nonincrease,
    build_prereduction,
    count_sat,
    count_subset_sum,
    dump_instance,
    e_exact_sat,
    e_minority_sat,
    exactify,
    expected_index,
    load_instance,
    parse_dimacs,
    pivot_count_layered,
    solve_control,
)
from wvgcontrol.control import compute_index
from wvgcontrol.engines import pivot_count_enum, pivot_count_mitm, pivot_count_weight_dp
from wvgcontrol.errors import BandStructureError, BudgetExceededError
from wvgcontrol.gadgets import ControlInstance
from wvgcontrol.verify import NO_INSTANCES, SuiteOptions

# search-exhaustive: two-clause minority no-instances over n=4 variables,
# prefix k=2, compiled with the relaxed decrease builder: 110 players, 89
# weight classes, 4,016 deletion multisets of size <= 2.  Two clauses is
# what most rejection draws over 1-4 clauses give; allowing four would let
# set-up time depend on the seed, since a four-clause no-instance takes
# tens of thousands of tries.  Fixed, every run is the same amount of work.
SEARCH_N, SEARCH_K, SEARCH_CLAUSES = 4, 2, 2
# search-sampled is what `wvg verify no-direction-sampled` runs: the fixed
# four-clause no-instance NO_INSTANCES[1] (118 players, 4,764 multisets)
# with the suite's default trial count; the seed draws only the sampling
# seed.  About 58% of the draws repeat an earlier candidate.
SAMPLED_FORMULA, SAMPLED_K = NO_INSTANCES[1]
SAMPLED_TRIALS = SuiteOptions().trials
# candidates per solve recounted without the library, outside the timing
SEARCH_RECOUNTS = 30

# index-bare: one batch is ten enum-regime, three mitm-regime and three
# dp-regime games, each slot (regime, players, 20-40 digit weights?,
# largest small weight).  Sizes are fixed per slot so that every batch is
# the same work and each regime takes a similar share of it; the seed
# draws the weights, the quota and the player.  Ten of sixteen ops are
# enum, so p50 falls inside the enum regime and p90 inside the slow ones.
BARE_BATCH = (
    ("enum", 16, False, 1000),
    ("enum", 17, False, 1000),
    ("enum", 18, False, 1000),
    ("enum", 19, False, 1000),
    ("enum", 20, False, 1000),
    ("enum", 21, False, 1000),
    ("enum", 18, True, 0),
    ("enum", 19, True, 0),
    ("enum", 20, True, 0),
    ("enum", 21, True, 0),
    # big-weight mitm games stay where enum can cross-check them,
    # small-weight ones where the weight table can
    ("mitm", 24, True, 0),
    ("mitm", 30, False, 10000),
    ("mitm", 34, False, 10000),
    ("dp", 46, False, 600),
    ("dp", 48, False, 600),
    ("dp", 50, False, 600),
)
CROSS_CHECK_EVERY = 5  # coprime with the batch length, so every slot is checked

# compile-check: strict range 4 <= k < n.  A batch is every (kind, n,
# clauses) triple with n in 5..7 and 1..4 clauses, so every batch is the
# same mix of sizes; the seed draws k, ell and the clauses themselves.
COMPILE_KINDS = ("decrease", "nonincrease", "maintain")
COMPILE_SIZES = (5, 6, 7)
COMPILE_CLAUSES = (1, 2, 3, 4)
COMPILE_BATCH = len(COMPILE_KINDS) * len(COMPILE_SIZES) * len(COMPILE_CLAUSES)

REFUSALS = (BudgetExceededError, BandStructureError)

# times ops; the worker replaces it with a clock that leaves out the time
# spent probing the host's speed
clock: Callable[[], float] = time.perf_counter


class WrongAnswer(Exception):
    """A library answer disagrees with the expected one."""


def _report_failure(error: Exception) -> None:
    """An op that raised counts as failed; anything but a budget or band
    refusal is also shown, since it is not a documented outcome."""
    if not isinstance(error, REFUSALS):
        traceback.print_exception(error, file=sys.stderr)


@dataclass
class RoundResult:
    attempted: int
    failed: int
    busy_s: float  # time inside ops, refused ones included, checks excluded
    latencies: list[float]  # one per completed op that is its own call


# ---------------------------------------------------------------- formulas


def _satisfied(clauses: list[frozenset[int]], mask: int) -> bool:
    return all(
        any(((mask >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def _suffix_counts(clauses: list[frozenset[int]], n: int, k: int) -> list[int]:
    """Satisfying suffixes per prefix; prefix bits are the low k bits."""
    return [
        sum(_satisfied(clauses, prefix | (suffix << k)) for suffix in range(1 << (n - k)))
        for prefix in range(1 << k)
    ]


def _random_clauses(
    rng: random.Random, n: int, m: int, max_size: int, fill: bool
) -> list[frozenset[int]]:
    """``m`` random clauses over ``1..n``.  With ``fill``, each variable that
    occurs nowhere is added to a random clause."""
    clauses: list[set[int]] = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(max_size, n)))
        clauses.append({v if rng.random() < 0.5 else -v for v in variables})
    for v in range(1, n + 1):
        if fill and not any(abs(lit) == v for clause in clauses for lit in clause):
            rng.choice(clauses).add(v if rng.random() < 0.5 else -v)
    return [frozenset(clause) for clause in clauses]


def _to_dimacs(n: int, clauses: list[frozenset[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(str(lit) for lit in sorted(c, key=abs)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- search


@dataclass
class SearchRound:
    instance: ControlInstance
    expected_before: ExactIndex
    space: int
    mode: Exhaustive | Sampled
    check_seed: int  # draws the candidates recounted after the solve


def candidate_space(game: Game, distinguished: int, max_size: int) -> int:
    """Deletion multisets of size at most ``max_size`` over weight classes."""
    caps: dict[int, int] = {}
    for player, weight in enumerate(game.weights):
        if player != distinguished:
            caps[weight] = caps.get(weight, 0) + 1
    ways = [1] + [0] * max_size  # ways[s]: multisets of size s so far
    for cap in caps.values():
        ways = [sum(ways[s - t] for t in range(min(cap, s) + 1)) for s in range(max_size + 1)]
    return sum(ways)


def pivot_count_by_classes(weights: list[int], quota: int, player: int) -> int:
    """Coalitions of the other players for which ``player`` is pivotal.

    Counted over weight classes with binomial multiplicities, keeping only
    coalition weights that can still end in ``[quota - w, quota - 1]``.
    It shares no code with the library's counters; on the search gadgets
    it keeps fewer than a hundred weights at a time.
    """
    low, high = quota - weights[player], quota - 1
    others = weights[:player] + weights[player + 1 :]
    rest = sum(others)
    reached = {0: 1}  # coalition weight -> coalitions over the classes so far
    for weight, size in sorted(Counter(others).items(), reverse=True):
        rest -= weight * size
        grown: dict[int, int] = {}
        for total, ways in reached.items():
            for taken in range(size + 1):
                new_total = total + weight * taken
                if new_total > high:
                    break
                if new_total + rest >= low:
                    grown[new_total] = grown.get(new_total, 0) + ways * comb(size, taken)
        reached = grown
    return sum(reached.values())


def _search_formula(rng: random.Random) -> CnfFormula:
    """Rejection-draw a minority no-instance in which every variable occurs."""
    while True:
        clauses = _random_clauses(rng, SEARCH_N, SEARCH_CLAUSES, 3, fill=False)
        if {abs(lit) for clause in clauses for lit in clause} != set(range(1, SEARCH_N + 1)):
            continue
        if all(2 * c > 1 << (SEARCH_N - SEARCH_K) for c in _suffix_counts(clauses, SEARCH_N, SEARCH_K)):
            return CnfFormula(SEARCH_N, tuple(clauses))


def search_rounds(seed: int, rounds: int, sampled: bool) -> list[SearchRound]:
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        if sampled:
            formula, k = SAMPLED_FORMULA, SAMPLED_K
            mode: Exhaustive | Sampled = Sampled(rng.randrange(1 << 31), SAMPLED_TRIALS)
        else:
            formula, k, mode = _search_formula(rng), SEARCH_K, Exhaustive()
        n = formula.num_variables
        xi = sum(_suffix_counts(list(formula.clauses), n, k))
        instance = build_decrease(formula, k, strict=False)
        out.append(
            SearchRound(
                instance=instance,
                expected_before=expected_index(Goal.DECREASE, k, n, xi, instance.game.num_players),
                space=candidate_space(instance.game, instance.distinguished, k),
                mode=mode,
                check_seed=rng.randrange(1 << 31),
            )
        )
    return out


def _check_search(item: SearchRound, report, label: str) -> None:
    """The report against closed forms and independent recounts.

    A NO verdict means no candidate fell below the index before.  Seeded
    candidates are recounted without the library: none may fall below it
    either, and after an exhaustive search each must lie between the
    smallest and largest index the search saw.
    """
    sampled = isinstance(item.mode, Sampled)
    expected_verdict = "NO-sampled" if sampled else "NO-exhaustive"
    expected_count = SAMPLED_TRIALS if sampled else item.space
    if report.verdict != expected_verdict:
        raise WrongAnswer(f"{label}: verdict {report.verdict}, expected {expected_verdict}")
    if report.candidates_evaluated != expected_count:
        raise WrongAnswer(
            f"{label}: {report.candidates_evaluated} candidates evaluated, expected {expected_count}"
        )
    if report.index_before != item.expected_before:
        raise WrongAnswer(
            f"{label}: index before {report.index_before}, closed form {item.expected_before}"
        )
    low, high = report.min_index_seen, report.max_index_seen
    if not item.expected_before <= low <= high:
        raise WrongAnswer(
            f"{label}: indices seen {low} .. {high} with index before {item.expected_before}"
        )
    game, player = item.instance.game, item.instance.distinguished
    others = [p for p in range(game.num_players) if p != player]
    rng = random.Random(item.check_seed)
    for _ in range(SEARCH_RECOUNTS):
        victims = set(rng.sample(others, rng.randint(0, item.instance.budget)))
        kept = [w for p, w in enumerate(game.weights) if p not in victims]
        shifted = player - sum(v < player for v in victims)
        after = ExactIndex(pivot_count_by_classes(kept, game.quota, shifted), len(kept) - 1)
        if after < item.expected_before or (not sampled and not low <= after <= high):
            raise WrongAnswer(
                f"{label}: deleting players {sorted(victims)} gives index {after} by recount; "
                f"index before {item.expected_before}, search saw {low} .. {high}"
            )


def run_search(item: SearchRound, label: str, first_op: int) -> RoundResult:
    """One solve.  Its candidates cannot be timed one by one from outside,
    so the round reports no per-op latencies."""
    ops = SAMPLED_TRIALS if isinstance(item.mode, Sampled) else item.space
    start = clock()
    try:
        report = solve_control(item.instance, engine="layered", mode=item.mode)
    except Exception as error:
        _report_failure(error)
        return RoundResult(ops, ops, clock() - start, [])
    busy = clock() - start
    _check_search(item, report, label)
    return RoundResult(ops, 0, busy, [])


# ------------------------------------------------------------- index-bare


@dataclass
class BareQuery:
    regime: str
    game: Game
    player: int
    big: bool


def _bare_query(rng: random.Random, regime: str, n: int, big: bool, cap: int) -> BareQuery:
    if big:
        weights = [rng.randrange(10**20, 10**40) for _ in range(n)]
    else:
        weights = [rng.randint(1, cap) for _ in range(n)]
    total = sum(weights)
    return BareQuery(regime, Game(tuple(weights), rng.randint(total // 2, 2 * total // 3)), rng.randrange(n), big)


def bare_rounds(seed: int, rounds: int) -> list[list[BareQuery]]:
    rng = random.Random(seed)
    return [[_bare_query(rng, *slot) for slot in BARE_BATCH] for _ in range(rounds)]


def _bare_cross_check(query: BareQuery) -> int:
    """The pivot count from a second engine whose default budget accepts it.

    No second engine accepts a dp-regime game (46+ players), so those are
    checked on the dual game: coalitions T pivotal at quota q correspond
    one to one, by complement, to those pivotal at quota W - q + 1.
    """
    game, player = query.game, query.player
    if query.regime == "enum":
        return pivot_count_mitm(game, player)
    if query.regime == "mitm":
        return pivot_count_enum(game, player) if query.big else pivot_count_weight_dp(game, player)
    dual = Game(game.weights, sum(game.weights) - game.quota + 1)
    return pivot_count_weight_dp(dual, player)


def run_bare_batch(batch: list[BareQuery], label: str, first_op: int) -> RoundResult:
    result = RoundResult(len(batch), 0, 0.0, [])
    for offset, query in enumerate(batch):
        op = first_op + offset
        instance = ControlInstance(query.game, query.player, 0, Goal.DECREASE)
        start = clock()
        try:
            index, _ = compute_index(instance, "auto")
        except Exception as error:
            _report_failure(error)
            result.failed += 1
            result.busy_s += clock() - start
            continue
        elapsed = clock() - start
        result.busy_s += elapsed
        result.latencies.append(elapsed)
        if index.exponent != query.game.num_players - 1:
            raise WrongAnswer(f"{label} op {op}: exponent {index.exponent}")
        if op % CROSS_CHECK_EVERY == 0:
            other = _bare_cross_check(query)
            if other != index.pivot_count:
                raise WrongAnswer(
                    f"{label} op {op} ({query.regime}, {query.game.num_players} players): "
                    f"pivot count {index.pivot_count}, second engine {other}"
                )
    return result


# ----------------------------------------------------------- compile-check


@dataclass
class CompileItem:
    kind: str
    text: str
    n: int
    k: int
    ell: int
    clauses: list[frozenset[int]]


def compile_rounds(seed: int, rounds: int) -> list[list[CompileItem]]:
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        batch = []
        for n in COMPILE_SIZES:
            for m in COMPILE_CLAUSES:
                for kind in COMPILE_KINDS:
                    clauses = _random_clauses(rng, n, m, 4, fill=True)
                    k = rng.randint(4, n - 1)
                    ell = rng.randint(1, 1 << (n - k))
                    batch.append(CompileItem(kind, _to_dimacs(n, clauses), n, k, ell, clauses))
        out.append(batch)
    return out


def _compile_op(item: CompileItem):
    """parse -> oracles -> build -> dump -> load -> layered count."""
    formula = parse_dimacs(item.text)
    subset_sum = None
    if item.kind == "maintain":
        formula, k, ell = exactify(formula, item.k, item.ell)
        xi = count_sat(formula)
        verdict, _ = e_exact_sat(formula, k, ell)
        instance = build_maintain(formula, k, ell)
    else:
        xi = count_sat(formula)
        verdict, _ = e_minority_sat(formula, item.k)
        if item.kind == "decrease":
            instance = build_decrease(formula, item.k)
            pre = build_prereduction(formula, item.k)
            subset_sum = count_subset_sum(pre.abc_weights, pre.q_prime)
        else:
            instance = build_nonincrease(formula, item.k)
    loaded = load_instance(dump_instance(instance))
    return xi, verdict, subset_sum, instance, loaded, pivot_count_layered(loaded.bands)


def _check_compile(item: CompileItem, result, label: str) -> None:
    xi, verdict, subset_sum, instance, loaded, count = result
    clauses, n, ell, goal = item.clauses, item.n, None, Goal(item.kind.upper())
    if goal is Goal.MAINTAIN:
        # exactify appends (x_{n+1} or x_{n+2}) and triples ell
        clauses, n, ell = clauses + [frozenset({n + 1, n + 2})], n + 2, 3 * item.ell
    counts = _suffix_counts(clauses, n, item.k)
    if xi != sum(counts):
        raise WrongAnswer(f"{label}: count_sat {xi}, brute force {sum(counts)}")
    if goal is Goal.MAINTAIN:
        expected_verdict = ell in counts
    else:
        expected_verdict = any(2 * c <= 1 << (n - item.k) for c in counts)
    if verdict != expected_verdict:
        raise WrongAnswer(f"{label}: prefix oracle says {verdict}, brute force {expected_verdict}")
    if subset_sum is not None and subset_sum != xi:
        raise WrongAnswer(f"{label}: #SubsetSum(A+B+C, q') {subset_sum} != #SAT {xi}")
    if loaded != instance:
        raise WrongAnswer(f"{label}: load_instance(dump_instance(x)) differs from x")
    players = loaded.game.num_players
    expected = expected_index(goal, item.k, n, xi, players, ell)
    if ExactIndex(count, players - 1) != expected:
        raise WrongAnswer(f"{label}: layered count {count} over 2^{players - 1}, closed form {expected}")


def run_compile_batch(batch: list[CompileItem], label: str, first_op: int) -> RoundResult:
    result = RoundResult(len(batch), 0, 0.0, [])
    for offset, item in enumerate(batch):
        start = clock()
        try:
            output = _compile_op(item)
        except Exception as error:
            _report_failure(error)
            result.failed += 1
            result.busy_s += clock() - start
            continue
        elapsed = clock() - start
        result.busy_s += elapsed
        result.latencies.append(elapsed)
        _check_compile(item, output, f"{label} op {first_op + offset} ({item.kind}, n={item.n}, k={item.k})")
    return result


# ------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    make_rounds: Callable[[int, int], list]  # (seed, rounds) -> round inputs
    run_round: Callable[[object, str, int], RoundResult]  # (input, label, first op number)


WORKLOADS = {
    "search-exhaustive": Workload(lambda seed, rounds: search_rounds(seed, rounds, sampled=False), run_search),
    "search-sampled": Workload(lambda seed, rounds: search_rounds(seed, rounds, sampled=True), run_search),
    "index-bare": Workload(bare_rounds, run_bare_batch),
    "compile-check": Workload(compile_rounds, run_compile_batch),
}

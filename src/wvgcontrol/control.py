"""Decide control-by-deleting-players questions by search over deletion multisets.

Equal-weight players are interchangeable for the distinguished player's
index, so the search enumerates multisets over weight classes instead of
raw subsets; gadget games have large symmetric groups and this collapses
the space by orders of magnitude.  Every mode reads one ranked space:
the count vectors over the classes (heaviest first) whose total lies in
a size window, greatest-lexicographic first.  Exhaustive mode walks each
size from the smallest allowed up to the budget, rank by rank, and the
first witness found is the reported one (deterministic).  Sampled mode
draws ranks uniformly over the whole window with a seeded generator and
reports honestly labelled negative evidence.  Restricted mode is
exhaustive over a named subset of provenance groups.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from .bands import DeletionCounter, pivot_count_layered
from .engines import (
    DEFAULT_BUDGET,
    EngineBudget,
    dp_limb_bits,
    dp_refusal,
    enum_refusal,
    mitm_refusal,
    pivot_count_enum,
    pivot_count_mitm,
    pivot_count_weight_dp,
)
from .errors import BudgetExceededError, InputError, WvgError
from .game import ExactIndex, Game, decimal_str, weight_class_partition
from .gadgets import ControlInstance, Goal

_RELATIONS = {
    Goal.DECREASE: operator.lt,
    Goal.NONINCREASE: operator.le,
    Goal.MAINTAIN: operator.eq,
    Goal.INCREASE: operator.gt,
    Goal.NONDECREASE: operator.ge,
}


def relation_holds(goal: Goal, before: ExactIndex | int, after: ExactIndex | int) -> bool:
    """Whether ``after`` stands to ``before`` as ``goal`` asks: two
    ``ExactIndex`` values, or two counts over one denominator."""
    try:
        relation = _RELATIONS[goal]
    except KeyError:
        raise InputError(f"unknown goal {goal!r}")
    return relation(after, before)


#: scores one search candidate: deleted players in the original
#: numbering -> pivot count after the deletion
CandidateScore = Callable[[frozenset[int]], int]


@dataclass(frozen=True)
class _Engine:
    """One entry of the engine table: why it refuses an instance (``None``
    when it accepts), how it runs, and how a search over that instance
    scores its candidates."""

    refusal: Callable[[ControlInstance, EngineBudget], str | None]
    run: Callable[[ControlInstance, EngineBudget], int]
    search: Callable[[ControlInstance, EngineBudget], CandidateScore]


def _brute_force(
    refusal: Callable[[Game, EngineBudget], str | None],
    engine: Callable[[], Callable[[Game, int, EngineBudget], int]],
) -> _Engine:
    # ``engine`` returns the module global when called, so replacing that
    # global (as a tracer does) reroutes every run.
    def run(instance: ControlInstance, budget: EngineBudget) -> int:
        return engine()(instance.game, instance.distinguished, budget)

    return _Engine(
        lambda instance, budget: refusal(instance.game, budget),
        run,
        lambda instance, budget: lambda players: run(instance.delete(players), budget),
    )


def _layered_refusal(instance: ControlInstance, budget: EngineBudget) -> str | None:
    if instance.bands is None:
        return "layered engine needs band metadata, which this instance lacks"
    return None


ENGINES = {
    "enum": _brute_force(enum_refusal, lambda: pivot_count_enum),
    "mitm": _brute_force(mitm_refusal, lambda: pivot_count_mitm),
    "dp": _brute_force(dp_refusal, lambda: pivot_count_weight_dp),
    "layered": _Engine(
        _layered_refusal,
        lambda instance, budget: pivot_count_layered(instance.bands),
        # Targets and block counts once per search; each candidate recounts
        # only the blocks its deletion touches, and nothing is deleted.
        lambda instance, budget: DeletionCounter(instance.bands).count,
    ),
}
ENGINE_CHOICES = ("auto", *ENGINES)


# Estimated run time in picoseconds of each brute-force engine on a game
# of m co-players, in integers: quotas reach thousands of digits, and no
# float may enter the comparison.  Rounded medians of per-engine timings
# (x86_64, Python 3.11) on the benchmark's bare games and on random games
# of 3-16 players: enum 17-49 ns per subset, mitm 0.65-0.8 us per
# half-subset, dp 28-47 ps per table bit plus ~3 us per call.  Games of up
# to 6 co-players thus stay on enum.
_ENUM_PS_PER_SUBSET = 40_000
_MITM_PS_PER_HALF_SUBSET = 700_000
_DP_PS_PER_CALL = 3_000_000
_DP_PS_PER_TABLE_BIT = 30


def _dp_cost_ps(game: Game) -> int:
    m = game.num_players - 1
    return _DP_PS_PER_CALL + _DP_PS_PER_TABLE_BIT * m * game.quota * dp_limb_bits(m)


_COSTS_PS: dict[str, Callable[[Game], int]] = {  # in tie order
    "enum": lambda game: _ENUM_PS_PER_SUBSET << (game.num_players - 1),
    "mitm": lambda game: _MITM_PS_PER_HALF_SUBSET << (game.num_players // 2),
    "dp": _dp_cost_ps,
}


def pick_engine(instance: ControlInstance, budget: EngineBudget = DEFAULT_BUDGET) -> str:
    """Deterministic auto-selection: layered when the instance has band
    metadata; otherwise the brute-force engine of least estimated cost
    among those whose refusal is ``None``, ties going to enum, then mitm.
    For ``m`` co-players the estimates, in picoseconds, are enum
    ``40,000·2^m``, mitm ``700,000·2^⌈m/2⌉`` and dp
    ``3,000,000 + 30·m·quota·limb`` with ``limb = 8·(m//8 + 1)``."""
    if ENGINES["layered"].refusal(instance, budget) is None:
        return "layered"
    feasible = [name for name in _COSTS_PS if ENGINES[name].refusal(instance, budget) is None]
    if feasible:
        return min(feasible, key=lambda name: _COSTS_PS[name](instance.game))
    raise BudgetExceededError(
        f"no engine accepts this instance ({instance.game.num_players} players, "
        f"quota {decimal_str(instance.game.quota)}) within the configured budgets"
    )


def compute_pivot_count(
    instance: ControlInstance, engine: str = "auto", budget: EngineBudget = DEFAULT_BUDGET
) -> tuple[int, str]:
    """Pivotal count of the distinguished player, with the engine that ran."""
    name = pick_engine(instance, budget) if engine == "auto" else engine
    if name not in ENGINES:
        raise InputError(f"unknown engine {name!r}; expected one of {sorted(ENGINES)}")
    if (refusal := ENGINES[name].refusal(instance, budget)) is not None:
        raise BudgetExceededError(refusal)
    return ENGINES[name].run(instance, budget), name


def compute_index(
    instance: ControlInstance, engine: str = "auto", budget: EngineBudget = DEFAULT_BUDGET
) -> tuple[ExactIndex, str]:
    count, name = compute_pivot_count(instance, engine, budget)
    return ExactIndex(count, instance.game.num_players - 1), name


def banzhaf(
    game: Game, player: int, engine: str = "enum", budget: EngineBudget = DEFAULT_BUDGET
) -> ExactIndex:
    """The probabilistic Penrose-Banzhaf index as an exact dyadic rational,
    by one of the brute-force engines (``enum``, ``mitm`` or ``dp``)."""
    brute_force = ("enum", "mitm", "dp")
    if engine not in brute_force:
        raise InputError(f"unknown engine {engine!r}; expected one of {sorted(brute_force)}")
    return compute_index(ControlInstance(game, player, 0, Goal.DECREASE), engine, budget)[0]


@dataclass(frozen=True)
class Exhaustive:
    """Walk every deletion multiset within the budget."""


@dataclass(frozen=True)
class Sampled:
    """Draw ``trials`` multisets uniformly from the candidate space."""

    seed: int
    trials: int

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise InputError(f"sampled search needs an integer trial count, got {self.trials!r}")
        # A sampled NO with no draws would be no evidence at all.
        if self.trials < 1:
            raise InputError(f"sampled search needs at least one trial, got {self.trials}")


@dataclass(frozen=True)
class Restricted:
    """Exhaustive search over players of the named provenance groups only."""

    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        # A bare string would be searched as one group per character.
        if isinstance(self.groups, str):
            raise InputError(f"restricted search needs a tuple of group names, not {self.groups!r}")
        # With no group nothing is deletable, and the one empty candidate
        # would pass for an exhaustive NO.
        if not self.groups:
            raise InputError("restricted search needs at least one group")


SearchMode = Exhaustive | Sampled | Restricted


@dataclass(frozen=True)
class DeletionCandidate:
    """A weight-class multiset plus its canonical representative player set."""

    class_counts: tuple[tuple[int, int], ...]  # (class weight, deleted) — weight desc
    players: frozenset[int]

    def describe(self) -> str:
        if not self.class_counts:
            return "delete nothing"
        parts = [f"{count} x weight {decimal_str(weight)}" for weight, count in self.class_counts]
        return "delete " + ", ".join(parts)


@dataclass
class SearchReport:
    """Outcome of one control search; a YES always carries a re-checked witness."""

    goal: Goal
    verdict: str  # "YES" | "NO-exhaustive" | "NO-sampled"
    engine: str
    index_before: ExactIndex
    witness: DeletionCandidate | None
    index_after_witness: ExactIndex | None
    candidates_evaluated: int
    min_index_seen: ExactIndex | None
    max_index_seen: ExactIndex | None
    reverified_with: str | None = None
    seed: int | None = None
    trials: int | None = None


def _candidate_classes(
    instance: ControlInstance, restrict_groups: tuple[str, ...] | None
) -> list[tuple[int, tuple[int, ...]]]:
    """Weight classes of the deletable players (heaviest first)."""
    allowed: set[int] | None = None
    if restrict_groups is not None:
        if instance.groups is None:
            raise InputError("restricted search needs group labels on the instance")
        unknown = ", ".join(repr(g) for g in restrict_groups if g not in instance.groups)
        if unknown:
            raise InputError(f"the instance has no provenance group {unknown}")
        allowed = {
            p for p, label in enumerate(instance.groups) if label in restrict_groups
        }
    classes = []
    for weight, members in weight_class_partition(instance.game).classes:
        kept = tuple(
            p
            for p in members
            if p != instance.distinguished and (allowed is None or p in allowed)
        )
        if kept:
            classes.append((weight, kept))
    return classes


class _CandidateSpace:
    """Count vectors over the weight classes, ranked greatest-lexicographic
    first (prefer deleting from the heaviest class).

    ``ways[i][s]`` is the number of count vectors over classes ``i..`` with
    total at most ``s``, for ``s`` up to the largest total the budget and
    the classes allow.  Unranking bisects rows of ``-tail`` read off
    ``ways`` (see ``candidate``) with ``bisect``, so each probe runs in C.
    A row is built on first use and cached for the space's life; the ranks
    of one window fill at most ``max_size + 1`` rows.
    """

    def __init__(self, classes: list[tuple[int, tuple[int, ...]]], max_size: int) -> None:
        self.classes = classes
        caps = [len(members) for _, members in classes]
        self.max_size = min(max_size, sum(caps))
        ways = [[1] * (self.max_size + 1)]
        for cap in reversed(caps):
            after, row, window = ways[-1], [], 0
            for s, total in enumerate(after):  # takes 0 .. cap leave s .. s - cap
                window += total
                if s > cap:
                    window -= after[s - cap - 1]
                row.append(window)
            ways.append(row)
        self.ways = ways[::-1]
        self._rows: dict[tuple[int, int], list[int]] = {}  # (high, below) -> -tail row

    def count(self, low: int, high: int) -> int:
        """Number of count vectors with total in ``[low, high]``."""
        high = min(high, self.max_size)
        if high < max(low, 0):
            return 0
        top = self.ways[0]
        return top[high] - (top[low - 1] if low > 0 else 0)

    def _row(self, high: int, below: int) -> list[int]:
        """Cache and return ``-tail(j)`` of every ``j`` for the window ``(below, high]``."""
        ways = self.ways
        neg = [w[below] - w[high] for w in ways] if below >= 0 else [-w[high] for w in ways]
        self._rows[high, below] = neg
        return neg

    def candidate(self, rank: int, low: int, high: int) -> DeletionCandidate:
        """The ``rank``-th count vector with total in ``[low, high]``.

        The vectors over classes ``i..`` that take nothing from classes
        ``i .. j-1`` are the last ``tail(j)`` of them, where ``tail(j)``
        counts the vectors over classes ``j..`` in the window.  ``tail`` is
        nonincreasing in ``j``, so the next class that takes something is
        found by bisection over the row ``-tail(j)`` of all ``j``, with no
        walk over the classes in between.  Rows are keyed on ``(high,
        low - 1)``, every negative ``low - 1`` under -1 since their rows
        agree.  Taking from a class shifts both ends of the window alike,
        so one unrank meets rows of one width only, at most one per
        ``high`` in ``0 .. max_size``.
        """
        high = min(high, self.max_size)
        below = low - 1 if low > 0 else -1
        ways, classes, rows = self.ways, self.classes, self._rows
        # -neg[0] counts the whole window; an empty one has no row
        neg = (rows.get((high, below)) or self._row(high, below)) if high > below else (0,)
        if not 0 <= rank < -neg[0]:
            raise WvgError(f"rank {rank} is outside the candidate space")
        end = len(classes)
        counts: list[tuple[int, int]] = []  # (class weight, deleted), heaviest first
        players: list[int] = []
        i = 0
        while True:
            # the vector is among the last tail(j) ones, that is rank >=
            # tail(i) - tail(j), exactly for j up to the next class it takes from
            lo = bisect_right(neg, rank + neg[i], i, end + 1) - 1
            if lo == end:
                break  # the vector takes nothing from here on
            rank += neg[i] - neg[lo]
            weight, members = classes[lo]
            after = ways[lo + 1]
            take = min(len(members), high)
            while True:
                ways_after = after[high - take] - (after[below - take] if below >= take else 0)
                if rank < ways_after:
                    break
                rank -= ways_after
                take -= 1
            counts.append((weight, take))
            players.extend(members[:take])
            high, low, i = high - take, low - take, lo + 1
            if not high:
                break  # the budget is used up, so later classes take nothing
            below = low - 1 if low > 0 else -1
            neg = rows.get((high, below)) or self._row(high, below)
        return DeletionCandidate(tuple(counts), frozenset(players))


def _confirm_witness(
    instance: ControlInstance, witness: DeletionCandidate, count: int, engine_used: str,
    budget: EngineBudget,
) -> str | None:
    """Delete a witness's players and recount in full, first with the engine
    that searched, then with the first other engine that accepts; any
    disagreement is a ``WvgError``.  Returns the second engine, if any."""
    variant = instance.delete(witness.players)
    recount = ENGINES[engine_used].run(variant, budget)
    if recount != count:
        raise WvgError(
            f"search count disagrees with a full {engine_used} recount on witness "
            f"[{witness.describe()}]: {count} vs {recount}"
        )
    for name, entry in ENGINES.items():
        if name == engine_used or entry.refusal(variant, budget) is not None:
            continue
        other = entry.run(variant, budget)
        if other != count:
            raise WvgError(
                f"engine disagreement on witness: {engine_used}={count}, {name}={other}"
            )
        return name
    return None


@dataclass
class EvaluationResult:
    before: ExactIndex
    after: ExactIndex
    relations: dict[Goal, bool]
    engine: str


def evaluate_deletion(
    instance: ControlInstance,
    deletion,
    engine: str = "auto",
    budget: EngineBudget = DEFAULT_BUDGET,
) -> EvaluationResult:
    """Exact before/after indices for one deletion, with all five goal relations."""
    before, engine_used = compute_index(instance, engine, budget)
    variant = instance.delete(deletion)
    after_count, _ = compute_pivot_count(variant, engine_used, budget)
    after = ExactIndex(after_count, variant.game.num_players - 1)
    relations = {goal: relation_holds(goal, before, after) for goal in Goal}
    return EvaluationResult(before, after, relations, engine_used)


def solve_control(
    instance: ControlInstance,
    engine: str = "auto",
    mode: SearchMode = Exhaustive(),
    budget: EngineBudget = DEFAULT_BUDGET,
) -> SearchReport:
    """Search for a deletion achieving the instance's goal.

    Goals that deleting nobody would trivially meet (those whose relation
    holds between an index and itself) require at least one deletion; the
    strict goals admit the empty deletion harmlessly.  Each candidate is
    scored from its deleted players alone and compared as an integer
    numerator over the index before's denominator ``2^(n-1)``; only a
    witness is built with ``ControlInstance.delete``, recounted in full and
    re-verified, and ``ExactIndex`` values are built only for the report.
    """
    before_count, engine_used = compute_pivot_count(instance, engine, budget)
    score = ENGINES[engine_used].search(instance, budget)
    top = instance.game.num_players - 1
    min_size = 1 if _RELATIONS[instance.goal](before_count, before_count) else 0

    restrict = mode.groups if isinstance(mode, Restricted) else None
    space = _CandidateSpace(_candidate_classes(instance, restrict), instance.budget)
    size = space.count(min_size, instance.budget)
    # drawing from an empty space leaves nothing unexamined: that NO is exhaustive
    sampled = mode if isinstance(mode, Sampled) and size else None
    if sampled is not None:
        rng = random.Random(sampled.seed)
        candidates = (
            space.candidate(rng.randrange(size), min_size, instance.budget)
            for _ in range(sampled.trials)
        )
    else:
        candidates = (
            space.candidate(rank, total, total)
            for total in range(min_size, space.max_size + 1)
            for rank in range(space.count(total, total))
        )

    evaluated = 0
    # (count << deleted, count, deleted) of the lowest and highest index seen
    lowest: tuple[int, int, int] | None = None
    highest: tuple[int, int, int] | None = None
    witness: DeletionCandidate | None = None
    after_witness: ExactIndex | None = None
    reverified: str | None = None
    for candidate in candidates:
        try:
            count = score(candidate.players)
        except BudgetExceededError as error:
            raise BudgetExceededError(
                f"engine {engine_used} refused the candidate "
                f"[{candidate.describe()}]: {error}"
            ) from error
        # Deleting d players leaves the index count / 2^(top - d), which is
        # (count << d) / 2^top: over the denominator of the index before.
        deleted = len(candidate.players)
        scaled = count << deleted
        evaluated += 1
        if lowest is None or scaled < lowest[0]:
            lowest = (scaled, count, deleted)
        if highest is None or scaled > highest[0]:
            highest = (scaled, count, deleted)
        if relation_holds(instance.goal, before_count, scaled):
            reverified = _confirm_witness(instance, candidate, count, engine_used, budget)
            witness, after_witness = candidate, ExactIndex(count, top - deleted)
            break
    verdict = "YES" if witness is not None else "NO-sampled" if sampled else "NO-exhaustive"
    return SearchReport(
        goal=instance.goal,
        verdict=verdict,
        engine=engine_used,
        index_before=ExactIndex(before_count, top),
        witness=witness,
        index_after_witness=after_witness,
        candidates_evaluated=evaluated,
        min_index_seen=ExactIndex(lowest[1], top - lowest[2]) if lowest else None,
        max_index_seen=ExactIndex(highest[1], top - highest[2]) if highest else None,
        reverified_with=reverified,
        seed=sampled.seed if sampled else None,
        trials=sampled.trials if sampled else None,
    )

"""Decide control-by-deleting-players questions by search over deletion multisets.

Equal-weight players are interchangeable for the distinguished player's
index, so a search visits multisets over weight classes instead of raw
subsets: the count vectors over the classes (heaviest first) whose total
lies in a size window, ranked greatest-lexicographic first by one space,
``_CandidateSpace``.  Every search mode yields its own stream of candidates
(``stream``).  ``Exhaustive`` walks each size in rank order, so the first
witness found is the reported one; ``Restricted`` walks the space of its
groups' players; ``Sampled`` draws seeded ranks over the whole window and
reports honestly labelled negative evidence, or walks an empty window.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .bands import DeletionCounter, layered_refusal, pivot_count_layered
from .engines import (
    DEFAULT_BUDGET, EngineBudget, dp_cost, dp_refusal, enum_cost, enum_refusal, mitm_cost,
    mitm_refusal, pivot_count_enum, pivot_count_mitm, pivot_count_weight_dp,
)
from .errors import BudgetExceededError, InputError, WvgError, require_int
from .game import ExactIndex, Game, decimal_str, weight_class_partition
from .gadgets import ControlInstance, Goal, _as_tuple

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
    when it accepts), how it runs, how a search over it scores candidates,
    and its estimated picoseconds on a game (``None`` for layered)."""

    refusal: Callable[[ControlInstance, EngineBudget], str | None]
    run: Callable[[ControlInstance, EngineBudget], int]
    search: Callable[[ControlInstance, EngineBudget], CandidateScore]
    cost: Callable[[Game], int] | None


def _brute_force(
    refusal: Callable[[Game, EngineBudget], str | None],
    engine: Callable[[], Callable[[Game, int, EngineBudget], int]],
    cost: Callable[[Game], int],
) -> _Engine:
    # ``engine`` returns the module global when called, so replacing that
    # global (as a tracer does) reroutes every run.
    def run(instance: ControlInstance, budget: EngineBudget) -> int:
        return engine()(instance.game, instance.distinguished, budget)

    return _Engine(
        lambda instance, budget: refusal(instance.game, budget),
        run,
        lambda instance, budget: lambda players: run(instance.delete(players), budget),
        cost,
    )


ENGINES = {  # in tie order
    "enum": _brute_force(enum_refusal, lambda: pivot_count_enum, enum_cost),
    "mitm": _brute_force(mitm_refusal, lambda: pivot_count_mitm, mitm_cost),
    "dp": _brute_force(dp_refusal, lambda: pivot_count_weight_dp, dp_cost),
    "layered": _Engine(
        lambda instance, budget: layered_refusal(instance.bands),
        lambda instance, budget: pivot_count_layered(instance.bands),
        # scores by delta and deletes nothing (see ``DeletionCounter``)
        lambda instance, budget: DeletionCounter(instance.bands).count,
        None,
    ),
}
ENGINE_CHOICES = ("auto", *ENGINES)


def pick_engine(instance: ControlInstance, budget: EngineBudget = DEFAULT_BUDGET) -> str:
    """Deterministic auto-selection among the engines whose refusal is
    ``None``: layered whenever it accepts, else the engine of least
    estimated cost (``engines.enum_cost``, ``mitm_cost`` and ``dp_cost``),
    ties going by table order."""
    costs = {}
    # costless engines first, so that no other refusal is built when layered accepts
    for name, entry in sorted(ENGINES.items(), key=lambda item: item[1].cost is not None):
        if entry.refusal(instance, budget) is None:
            if entry.cost is None:
                return name
            costs[name] = entry.cost(instance.game)
    if costs:
        return min(costs, key=costs.__getitem__)  # the first least, in table order
    raise BudgetExceededError(
        f"no engine accepts this instance ({instance.game.num_players} players, "
        f"quota {decimal_str(instance.game.quota)}) within the configured budgets"
    )


def compute_pivot_count(
    instance: ControlInstance, engine: str = "auto", budget: EngineBudget = DEFAULT_BUDGET
) -> tuple[int, str]:
    """Pivotal count and the engine that ran; the engine's runner alone raises its refusal."""
    name = pick_engine(instance, budget) if engine == "auto" else engine
    if name not in ENGINES:
        raise InputError(f"unknown engine {name!r}; expected one of {sorted(ENGINES)}")
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
    by one of the engines with a cost (``enum``, ``mitm`` or ``dp``)."""
    brute_force = [name for name, entry in ENGINES.items() if entry.cost is not None]
    if engine not in brute_force:
        raise InputError(f"unknown engine {engine!r}; expected one of {sorted(brute_force)}")
    return compute_index(ControlInstance(game, player, 0, Goal.DECREASE), engine, budget)[0]


@dataclass(frozen=True)
class Exhaustive:
    """Walk every deletion multiset within the budget."""

    def stream(self, instance: ControlInstance, min_size: int) -> _Stream:
        """Every candidate of at least ``min_size`` deletions, size by size in rank order."""
        return _CandidateSpace.of(instance).walk(min_size, instance.budget), None


@dataclass(frozen=True)
class Sampled:
    """Draw ``trials`` multisets uniformly from the candidate space, seeded
    with ``seed``; these defaults are ``wvg control``'s and ``wvg verify``'s."""

    seed: int = 20240817
    trials: int = 10_000

    def __post_init__(self) -> None:
        # Any other seed would be hashed, or drawn from the OS, and could not
        # be reported back to reproduce the draws.
        require_int(self.seed, "sampled search needs an integer seed")
        require_int(self.trials, "sampled search needs an integer trial count")
        # A sampled NO with no draws would be no evidence at all.
        if self.trials < 1:
            raise InputError(f"sampled search needs at least one trial, got {self.trials}")

    def stream(self, instance: ControlInstance, min_size: int) -> _Stream:
        """Draws over the window of at least ``min_size`` deletions; an empty
        window is walked, since drawing from it leaves nothing unexamined."""
        space, budget = _CandidateSpace.of(instance), instance.budget
        if space.count(min_size, budget):
            return space.sample(self.seed, self.trials, min_size, budget), self
        return space.walk(min_size, budget), None


@dataclass(frozen=True)
class Restricted:
    """Exhaustive search over players of the named provenance groups only.
    ``groups`` becomes a tuple by ``ControlInstance``'s rule for its field
    of that name: a bare string, or anything not iterable, is refused."""

    groups: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", _as_tuple("groups", self.groups))
        # With no group nothing is deletable, and the one empty candidate
        # would pass for an exhaustive NO.
        if not self.groups:
            raise InputError("restricted search needs at least one group")

    def players(self, instance: ControlInstance) -> set[int]:
        """The players of ``instance`` in the named groups; a name the
        instance lacks, or an instance without group labels, is an
        ``InputError``."""
        if instance.groups is None:
            raise InputError("restricted search needs group labels on the instance")
        unknown = ", ".join(repr(g) for g in self.groups if g not in instance.groups)
        if unknown:
            raise InputError(f"the instance has no provenance group {unknown}")
        return {p for p, label in enumerate(instance.groups) if label in self.groups}

    def stream(self, instance: ControlInstance, min_size: int) -> _Stream:
        """``Exhaustive``'s walk over the space of the named groups' players."""
        space = _CandidateSpace.of(instance, self.players(instance))
        return space.walk(min_size, instance.budget), None


SearchMode = Exhaustive | Sampled | Restricted
#: a mode's ``stream``: the deleted players of each candidate, and the ``Sampled`` that drew them
_Stream = tuple[Iterator[frozenset[int]], Sampled | None]


@dataclass(frozen=True)
class DeletionCandidate:
    """A weight-class multiset plus its canonical representative player set."""

    class_counts: tuple[tuple[int, int], ...]  # (class weight, deleted) — weight desc
    players: frozenset[int]

    @classmethod
    def of(
        cls, weights: Sequence[int] | Mapping[int, int], players: frozenset[int]
    ) -> DeletionCandidate:
        """The candidate deleting ``players``, player ``p`` of weight ``weights[p]``:
        how many of each weight, heaviest first, as a space orders its classes."""
        taken = Counter(weights[p] for p in players)
        return cls(tuple(sorted(taken.items(), reverse=True)), players)

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


#: the widest window whose draws one sampled search keeps the deleted
#: players of; a wider window keeps none
_UNRANK_MEMO_SIZE = 1 << 14


class _CandidateSpace:
    """Count vectors over the weight classes, ranked greatest-lexicographic
    first (prefer deleting from the heaviest class).

    ``walk`` yields the deleted players of a window's vectors in rank
    order, ``sample`` those of seeded draws, and ``unrank``, the one
    unranking code path, those of one rank.  ``count`` and ``unrank``
    read ``ways``, built on first use: ``ways[i][s]`` is the number of
    count vectors over classes ``i..`` with total at most ``s``, for ``s``
    up to the largest total the budget and the classes allow.
    """

    def __init__(self, classes: list[tuple[int, tuple[int, ...]]], max_size: int) -> None:
        self.classes = classes
        self.max_size = min(max_size, sum(len(members) for _, members in classes))
        self._rows: dict[tuple[int, int], list[int]] = {}  # (high, below) -> -tail row

    @classmethod
    def of(cls, instance: ControlInstance, allowed: set[int] | None = None) -> _CandidateSpace:
        """The deletions within ``instance``'s budget, over the weight classes
        of its players but the distinguished one, among ``allowed`` if given."""
        kept = set(range(instance.game.num_players) if allowed is None else allowed)
        kept.discard(instance.distinguished)
        classes = [
            (weight, members)
            for weight, everyone in weight_class_partition(instance.game)
            if (members := tuple(p for p in everyone if p in kept))
        ]
        return cls(classes, instance.budget)

    @functools.cached_property
    def ways(self) -> list[list[int]]:
        ways = [[1] * (self.max_size + 1)]
        for _, members in reversed(self.classes):
            after, row, window, cap = ways[-1], [], 0, len(members)
            for s, total in enumerate(after):  # takes 0 .. cap leave s .. s - cap
                window += total
                if s > cap:
                    window -= after[s - cap - 1]
                row.append(window)
            ways.append(row)
        return ways[::-1]

    def count(self, low: int, high: int) -> int:
        """Number of count vectors with total in ``[low, high]``."""
        high = min(high, self.max_size)
        if high < max(low, 0):
            return 0
        top = self.ways[0]
        return top[high] - (top[low - 1] if low > 0 else 0)

    def _row(self, high: int, below: int) -> list[int]:
        """Cache for the space's life and return ``-tail(j)`` of every ``j``
        for the window ``(below, high]``."""
        ways = self.ways
        neg = [w[below] - w[high] for w in ways] if below >= 0 else [-w[high] for w in ways]
        self._rows[high, below] = neg
        return neg

    def unrank(self, rank: int, low: int, high: int) -> list[int]:
        """The deleted players of the ``rank``-th count vector with total in
        ``[low, high]``, heaviest class first.

        The vectors over classes ``i..`` that take nothing from classes
        ``i .. j-1`` are the last ``tail(j)`` of them, where ``tail(j)``
        counts the vectors over classes ``j..`` in the window.  ``tail`` is
        nonincreasing in ``j``, so the next class that takes something is
        found by bisection over the row ``-tail(j)`` of all ``j``, with no
        walk over the classes in between: ``bisect`` runs each probe in C,
        and the same pass lists the players taken.  Rows are keyed on
        ``(high, low - 1)``, every negative ``low - 1`` under -1 since their
        rows agree.  Taking from a class shifts both ends of the window
        alike, so the ranks of one window meet rows of one width only, at
        most one per ``high`` in ``0 .. max_size``.
        """
        high = min(high, self.max_size)
        below = low - 1 if low > 0 else -1
        ways, classes, rows = self.ways, self.classes, self._rows
        # -neg[0] counts the whole window; an empty one has no row
        neg = (rows.get((high, below)) or self._row(high, below)) if high > below else (0,)
        if not 0 <= rank < -neg[0]:
            raise WvgError(f"rank {rank} is outside the candidate space")
        end = len(classes)
        players: list[int] = []
        i = 0
        while True:
            # the vector is among the last tail(j) ones, that is rank >=
            # tail(i) - tail(j), exactly for j up to the next class it takes from
            lo = bisect_right(neg, rank + neg[i], i, end + 1) - 1
            if lo == end:
                break  # the vector takes nothing from here on
            rank += neg[i] - neg[lo]
            members = classes[lo][1]
            after = ways[lo + 1]
            take = min(len(members), high)
            while True:
                ways_after = after[high - take] - (after[below - take] if below >= take else 0)
                if rank < ways_after:
                    break
                rank -= ways_after
                take -= 1
            players.extend(members[:take])
            high, low, i = high - take, low - take, lo + 1
            if not high:
                break  # the budget is used up, so later classes take nothing
            below = low - 1 if low > 0 else -1
            neg = rows.get((high, below)) or self._row(high, below)
        return players

    def sample(self, seed: int, trials: int, low: int, high: int) -> Iterator[frozenset[int]]:
        """The deleted players of ``trials`` ranks drawn uniformly from the
        window ``[low, high]`` by a generator seeded with ``seed``, in draw
        order, one set per draw.

        A memo local to the call maps each drawn rank to its players, so a
        repeated draw yields the set its first draw did, but only when the
        whole window holds at most ``_UNRANK_MEMO_SIZE`` ranks: it is bounded
        by the window, and a wider window's draws seldom repeat.  A repeated
        draw is still yielded, so its caller scores and counts every draw as
        an unmemoised loop would.  The window must not be empty.
        """
        randrange, size = random.Random(seed).randrange, self.count(low, high)
        keep = size <= _UNRANK_MEMO_SIZE
        unranked: dict[int, frozenset[int]] = {}
        for _ in range(trials):
            rank = randrange(size)
            players = unranked.get(rank)
            if players is None:
                players = frozenset(self.unrank(rank, low, high))
                if keep:
                    unranked[rank] = players
            yield players

    def walk(self, low: int, high: int) -> Iterator[frozenset[int]]:
        """The deleted players of every count vector with total in ``[low,
        high]``: size by size from the smallest, each size in rank order,
        so the players of ``unrank(rank, s, s)`` for each ``s`` and each
        ``rank`` in turn.

        One depth-first walk per size, with no counting table, over a stack
        of (class, take) pairs that holds only the classes that take
        something.  Each class takes as much as it can, then one less at a
        time while the classes after it can still hold the rest (``room``).
        A class that takes nothing is never visited, so a step costs as many
        moves as the classes taking something that it changes, however many
        classes there are.
        """
        classes = self.classes
        # room[i]: the players of classes i.. together
        room = [*itertools.accumulate((len(m) for _, m in reversed(classes)), initial=0)][::-1]
        for size in range(max(low, 0), min(high, self.max_size) + 1):
            stack: list[tuple[int, int]] = []
            players: list[int] = []
            index, left = 0, size
            while True:
                while left:  # the greatest take of each class from ``index`` on
                    members = classes[index][1]
                    take = min(len(members), left)
                    stack.append((index, take))
                    players += members[:take]
                    index, left = index + 1, left - take
                yield frozenset(players)
                while stack:  # the last class that can take one less
                    index, take = stack.pop()
                    del players[-take:]
                    left += take
                    take -= 1
                    if left - take <= room[index + 1]:
                        if take:
                            stack.append((index, take))
                            players += classes[index][1][:take]
                        index, left = index + 1, left - take
                        break
                else:
                    break


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

    Goals that deleting nobody would meet (those whose relation holds
    between an index and itself) need at least one deletion.  ``mode``
    must be an ``Exhaustive``, ``Sampled`` or ``Restricted`` instance, and
    yields its own stream of deleted players (``stream``) before anything
    is counted, so an unknown mode or group is refused first.  The
    engine's scorer counts from the deleted players alone, compared as an
    integer numerator over the index before's denominator ``2^(n-1)``.
    Only a witness is deleted with ``ControlInstance.delete``, recounted
    in full and re-verified (``_confirm_witness``).
    """
    if not isinstance(mode, SearchMode):
        raise InputError(
            f"unknown search mode {mode!r}; expected an Exhaustive, Sampled or Restricted instance"
        )
    min_size = 1 if _RELATIONS[instance.goal](0, 0) else 0
    deletions, sampled = mode.stream(instance, min_size)
    before_count, engine_used = compute_pivot_count(instance, engine, budget)
    score = ENGINES[engine_used].search(instance, budget)
    top = instance.game.num_players - 1

    evaluated = 0
    # (count << deleted, count, deleted) of the lowest and highest index seen
    lowest: tuple[int, int, int] | None = None
    highest: tuple[int, int, int] | None = None
    witness: DeletionCandidate | None = None
    after_witness: ExactIndex | None = None
    reverified: str | None = None
    for players in deletions:
        try:
            count = score(players)
        except BudgetExceededError as error:
            raise BudgetExceededError(
                f"engine {engine_used} refused the candidate "
                f"[{DeletionCandidate.of(instance.game.weights, players).describe()}]: {error}"
            ) from error
        # Deleting d players leaves the index count / 2^(top - d), which is
        # (count << d) / 2^top: over the denominator of the index before.
        deleted = len(players)
        scaled = count << deleted
        evaluated += 1
        if lowest is None or scaled < lowest[0]:
            lowest = (scaled, count, deleted)
        if highest is None or scaled > highest[0]:
            highest = (scaled, count, deleted)
        if relation_holds(instance.goal, before_count, scaled):
            witness = DeletionCandidate.of(instance.game.weights, players)
            reverified = _confirm_witness(instance, witness, count, engine_used, budget)
            after_witness = ExactIndex(count, top - deleted)
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

"""Three independent exact engines for the pivotal-coalition count.

``eta(G, i)`` is the number of coalitions ``T ⊆ N∖{i}`` whose weight lands
in ``[quota - w_i, quota - 1]``; the probabilistic Penrose-Banzhaf index is
``eta / 2**(|N|-1)``.  The engines use unrelated strategies (pruned
enumeration, meet-in-the-middle, pseudo-polynomial weight table) so they
can serve as mutual oracles.  Each engine refuses instances beyond its
budget instead of running unboundedly; refusal is an explicit error so
verification code always knows which algorithm produced a number.  Each
budget rule is written once, as a ``*_refusal`` function that the engine
raises on and the control layer's engine table reads.

The weight table is one Python int with one limb of ``B = 8 * (m // 8 + 1)``
bits for each sum ``0 .. quota - 1`` of the ``m`` co-players.  It is exact:
a limb counts distinct subsets, at most ``2**m < 2**B``, so no limb carries
into the next, and sums at or above the quota are never counted because
the pivotal window ends at ``quota - 1``.  It takes ``quota * B / 8``
bytes, about four times that at peak.

The meet-in-the-middle core (``half_sum_tables`` / ``count_window``) is
also the subset-sum oracle's counter, and the layered engine's for an
enumerable block its pruned pass cannot finish.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, InputError
from .game import Game, decimal_str


@dataclass(frozen=True)
class EngineBudget:
    """Size limits past which an engine refuses to run."""

    max_enum_players: int = 24
    max_mitm_half: int = 22
    max_dp_quota: int = 2_000_000

    def __post_init__(self) -> None:
        if min(self.max_enum_players, self.max_mitm_half, self.max_dp_quota) < 1:
            raise InputError("engine budgets must be positive")


DEFAULT_BUDGET = EngineBudget()


def _pivot_problem(game: Game, player: int) -> tuple[list[int], int, int]:
    """The co-players' weights and the pivotal window ``[quota - w_i, quota - 1]``."""
    game.check_player(player)
    others = [w for p, w in enumerate(game.weights) if p != player]
    return others, game.quota - game.weights[player], game.quota - 1


def _count_subsets_in_interval(weights: list[int], lo: int, hi: int) -> int:
    """Number of subsets of ``weights`` with sum in ``[lo, hi]``.

    Depth-first over weights sorted descending, with two exact cutoffs:
    a branch whose partial sum already exceeds ``hi`` is dead (weights are
    nonnegative), and a branch that cannot leave ``[lo, hi]`` any more
    contributes a full power of two at once.
    """
    if hi < 0 or hi < lo:
        return 0
    ordered = sorted(weights, reverse=True)
    suffix = [0] * (len(ordered) + 1)
    for idx in range(len(ordered) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] + ordered[idx]

    def walk(idx: int, total: int) -> int:
        if total > hi:
            return 0
        remaining = suffix[idx]
        if total + remaining < lo:
            return 0
        if total >= lo and total + remaining <= hi:
            return 1 << (len(ordered) - idx)
        # idx == len(ordered) implies one of the shortcuts above fired
        return walk(idx + 1, total) + walk(idx + 1, total + ordered[idx])

    return walk(0, 0)


def _over_budget(refusal: str, size: int, budget: EngineBudget, limit: str) -> str | None:
    """``refusal`` naming ``size`` and the limit when ``size`` exceeds it."""
    allowed = getattr(budget, limit)
    return None if size <= allowed else f"{refusal.format(decimal_str(size))} ({limit}={allowed})"


def enum_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the enumeration engine refuses ``game``, or ``None`` if it runs."""
    others = game.num_players - 1
    return _over_budget(
        "enumeration engine refuses {} co-players", others, budget, "max_enum_players"
    )


def mitm_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the meet-in-the-middle engine refuses ``game``, or ``None``."""
    half = game.num_players // 2  # the larger half of the n - 1 co-players
    return _over_budget(
        "meet-in-the-middle engine refuses half-size {}", half, budget, "max_mitm_half"
    )


def dp_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the weight-table engine refuses ``game``, or ``None``."""
    return _over_budget(
        "weight-table engine refuses quota {}", game.quota, budget, "max_dp_quota"
    )


def _refuse(reason: str | None) -> None:
    if reason is not None:
        raise BudgetExceededError(reason)


def pivot_count_enum(
    game: Game, player: int, budget: EngineBudget = DEFAULT_BUDGET
) -> int:
    """Exact pivotal count by pruned subset enumeration."""
    others, lo, hi = _pivot_problem(game, player)
    _refuse(enum_refusal(game, budget))
    return _count_subsets_in_interval(others, lo, hi)


# The meet-in-the-middle core, shared by the mitm engine, the subset-sum
# oracle and the layered counter's fallback for enumerable blocks.  The
# enum and dp engines do not use it, so every cross-check keeps one
# independent side.

HalfSums = tuple[Counter[int], Counter[int]]


def _subset_sums(weights: Sequence[int]) -> Counter[int]:
    """Subset-sum multiplicities.  Weights that occur once double a list of
    sums; ``m`` equal weights fold in once, ``j`` copies in ``comb(m, j)`` ways."""
    repeats = Counter(weights)
    sums = [0]
    for w in [w for w, m in repeats.items() if m == 1]:
        sums += [s + w for s in sums]
    table = Counter(sums)
    for w, m in repeats.items():
        if m > 1:
            folded: Counter[int] = Counter()
            for j in range(m + 1):
                ways = math.comb(m, j)
                for s, count in table.items():
                    folded[s + j * w] += count * ways
            table = folded
    return table


def half_sum_tables(weights: Sequence[int]) -> HalfSums:
    """Subset-sum multiplicities of the first and second half of ``weights``."""
    half = (len(weights) + 1) // 2
    return _subset_sums(weights[:half]), _subset_sums(weights[half:])


def count_window(tables: HalfSums, lo: int, hi: int) -> int:
    """Subsets whose sum lies in ``[lo, hi]``, from the two half tables.

    Multiplicities multiply, so duplicate sums are handled exactly.  A
    single target is a dict lookup per sum of the smaller half; a wider
    window sorts one half and counts each match by bisection.
    """
    if hi < 0 or hi < lo:
        return 0
    left, right = tables
    if lo == hi:
        small, large = (left, right) if len(left) <= len(right) else (right, left)
        return sum(c * large.get(lo - v, 0) for v, c in small.items())
    values = sorted(right)
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + right[v])
    total = 0
    for value, count in left.items():
        upper = bisect.bisect_right(values, hi - value)
        lower = bisect.bisect_left(values, lo - value)
        total += count * (prefix[upper] - prefix[lower])
    return total


def count_subsets_mitm(weights: Sequence[int], lo: int, hi: int) -> int:
    """Subsets of ``weights`` whose sum lies in ``[lo, hi]``, by meet-in-the-middle."""
    if hi < 0 or hi < lo:
        return 0
    return count_window(half_sum_tables(weights), lo, hi)


def pivot_count_mitm(
    game: Game, player: int, budget: EngineBudget = DEFAULT_BUDGET
) -> int:
    """Exact pivotal count by meet-in-the-middle over the co-players."""
    others, lo, hi = _pivot_problem(game, player)
    _refuse(mitm_refusal(game, budget))
    return count_subsets_mitm(others, lo, hi)


def dp_limb_bits(co_players: int) -> int:
    """Bits per cell of the weight table over ``co_players`` players: a
    multiple of 8 above ``co_players``, so a cell's count never carries."""
    return 8 * (co_players // 8 + 1)


def _packed_subset_counts(weights: list[int], cells: int, limb: int) -> int:
    """Subset counts of ``weights`` by sum, sums ``0 .. cells - 1`` only,
    as ``limb``-bit limbs of one int; ``limb`` must exceed ``len(weights)``."""
    mask = (1 << (cells * limb)) - 1
    table = 1
    for w in sorted(weights):  # lightest first: the table fills up last
        if w < cells:
            table = (table + (table << (w * limb))) & mask
    return table


def pivot_count_weight_dp(
    game: Game, player: int, budget: EngineBudget = DEFAULT_BUDGET
) -> int:
    """Exact pivotal count by a quota-wide subset-count table packed into one int.

    Cell ``s`` of the table, for ``0 <= s < quota``, is the number of
    co-player subsets of weight exactly ``s``; it is the ``s``-th limb of
    ``B = 8 * (m // 8 + 1)`` bits of a single Python int, where ``m`` is the
    number of co-players.  A co-player of weight ``w < quota`` folds in as
    one shift-add, ``T + (T << w * B)``, masked back to ``quota`` cells; a
    co-player of weight ``w >= quota`` adds nothing below the quota and is
    skipped.

    Exactness: a cell counts distinct subsets of ``m`` players, so it never
    exceeds ``2**m < 2**B`` and no limb carries into the next; the same
    bound holds for any sum of cells, which the readout relies on.  Sums at
    or above the quota are dropped, never counted: the pivotal window
    ``[quota - w_i, quota - 1]`` ends below them, and a dropped sum can
    only grow.  The table takes ``quota * B / 8`` bytes, and about four
    times that at peak: the mask, the table, its shift and their sum.  A
    table the machine cannot allocate is a ``BudgetExceededError`` naming
    the quota.
    """
    others, lo, hi = _pivot_problem(game, player)
    _refuse(dp_refusal(game, budget))
    if hi < lo:  # a zero-weight player is never pivotal
        return 0
    quota = game.quota
    limb = dp_limb_bits(len(others))
    start = max(lo, 0)
    try:
        window = _packed_subset_counts(others, quota, limb) >> (start * limb)
    except (MemoryError, OverflowError):
        raise BudgetExceededError(
            f"weight-table engine cannot allocate a table for quota {quota}"
            f" (max_dp_quota={budget.max_dp_quota})"
        ) from None
    # Sum the window's cells by halving it: every partial sum counts
    # distinct subsets, so it fits a limb like any single cell does.
    cells = hi + 1 - start
    while cells > 1:
        half = (cells + 1) // 2
        window = (window & ((1 << (half * limb)) - 1)) + (window >> (half * limb))
        cells = half
    return window

"""Three independent exact engines for the pivotal-coalition count.

``eta(G, i)`` is the number of coalitions ``T ⊆ N∖{i}`` whose weight lands
in ``[quota - w_i, quota - 1]``; the probabilistic Penrose-Banzhaf index is
``eta / 2**(|N|-1)``.  The engines use unrelated strategies (pruned
enumeration, meet-in-the-middle, pseudo-polynomial weight table) so they
can serve as mutual oracles.  Each engine refuses instances beyond its
budget instead of running unboundedly; refusal is an explicit error so
verification code always knows which algorithm produced a number.  Each
budget rule is written once, as a ``*_refusal`` function that the engine
raises on and the engine table reads, beside a ``*_cost`` estimate for ``auto``.

The weight table is one Python int with one limb of ``B = m + 1`` bits for
each sum of the ``m`` co-players up to ``hi``, the top of the pivotal
window or of its complement window, whichever is lower; sums that can no
longer grow into the window are shifted off.  It is exact: a limb counts
distinct subsets, at most ``2**m < 2**B``, so no limb carries into the
next, and a sum above ``hi`` can only grow.  It takes at most
``(hi + 1) * B / 8`` bytes, about four times that at peak, and
``hi < quota``.

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

from .errors import BudgetExceededError, InputError, require_int
from .game import Game, decimal_str


@dataclass(frozen=True)
class EngineBudget:
    """Size limits past which an engine refuses to run."""

    max_enum_players: int = 24
    max_mitm_half: int = 22
    max_dp_quota: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("max_enum_players", "max_mitm_half", "max_dp_quota"):
            require_int(getattr(self, name), f"engine budget {name} must be an integer")
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


# Estimated run time in picoseconds of each engine on a game of m
# co-players, in integers: quotas reach thousands of digits, and no float
# may enter the comparison.  Rounded medians of per-engine timings
# (x86_64, Python 3.11) on the benchmark's bare games and on random games
# of 3-16 players: enum 17-49 ns per subset, mitm 0.65-0.8 us per
# half-subset, dp 28-47 ps per table bit plus ~3 us per call.  Games of up
# to 6 co-players thus stay on enum.  dp's bits are those of the table its
# kernel builds, the lower pivotal window in (m + 1)-bit limbs: on the
# benchmark's bare games that is 49-78 ps per bit, on a 2-vCPU x86_64
# host where a quota-wide table of byte-rounded limbs reads 47-69.
ENUM_PS_PER_SUBSET = 40_000
MITM_PS_PER_HALF_SUBSET = 700_000
DP_PS_PER_CALL = 3_000_000
DP_PS_PER_TABLE_BIT = 30


def enum_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the enumeration engine refuses ``game``, or ``None`` if it runs."""
    others = game.num_players - 1
    return _over_budget(
        "enumeration engine refuses {} co-players", others, budget, "max_enum_players"
    )


def enum_cost(game: Game) -> int:
    """Estimated picoseconds of the enumeration engine, by its subsets."""
    return ENUM_PS_PER_SUBSET << (game.num_players - 1)


def mitm_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the meet-in-the-middle engine refuses ``game``, or ``None``."""
    half = game.num_players // 2  # the larger half of the n - 1 co-players
    return _over_budget(
        "meet-in-the-middle engine refuses half-size {}", half, budget, "max_mitm_half"
    )


def mitm_cost(game: Game) -> int:
    """Estimated picoseconds of meet-in-the-middle, by its larger half."""
    return MITM_PS_PER_HALF_SUBSET << (game.num_players // 2)


def dp_refusal(game: Game, budget: EngineBudget) -> str | None:
    """Why the weight-table engine refuses ``game``, or ``None``."""
    return _over_budget(
        "weight-table engine refuses quota {}", game.quota, budget, "max_dp_quota"
    )


def dp_cost(game: Game) -> int:
    """Estimated picoseconds of the weight table, by the table it builds."""
    m = game.num_players - 1
    return DP_PS_PER_CALL + DP_PS_PER_TABLE_BIT * m * dp_table_cells(game) * dp_limb_bits(m)


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
    window sorts the larger half and counts each match of a sum of the
    smaller one by bisection.
    """
    if hi < 0 or hi < lo:
        return 0
    left, right = tables
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    if lo == hi:
        return sum(c * large.get(lo - v, 0) for v, c in small.items())
    values = sorted(large)
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + large[v])
    total = 0
    for value, count in small.items():
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
    """Bits per cell of the weight table over ``co_players`` players:
    ``co_players + 1``.  A cell, or any sum of cells, counts distinct
    subsets, at most ``2**co_players``, so it never carries."""
    return co_players + 1


def dp_table_cells(game: Game) -> int:
    """Cells of the weight table for any player of ``game``: one per sum up
    to ``hi``, the lower of the two window tops ``quota - 1`` and
    ``W - quota`` (``W`` the total weight), or none when ``hi < 0``."""
    return max(0, min(game.quota, sum(game.weights) - game.quota + 1))


def _packed_window_counts(weights: list[int], lo: int, hi: int, limb: int) -> int:
    """Subset counts of ``weights`` by sum, sums ``lo .. hi`` only (``0 <=
    lo <= hi``), as ``limb``-bit limbs of one int, lowest sum first;
    ``limb`` must exceed ``len(weights)``."""
    mask = (1 << ((hi + 1) * limb)) - 1  # up front: an unallocatable table fails here
    kept = sorted([w for w in weights if w <= hi])  # a heavier weight overshoots hi
    remaining = sum(kept)
    base = 0  # the sum that the lowest cell holds
    # The cells below lo - remaining can no longer reach the window.  They
    # are more than half of the band base .. hi once remaining < drop_at.
    drop_at = lo - (hi + 1 + base) // 2
    table = 1
    for w in kept:  # lightest first: the table fills up last
        table = (table + (table << (w * limb))) & mask
        remaining -= w
        if remaining < drop_at:
            shift = (lo - remaining - base) * limb
            table >>= shift
            mask >>= shift
            base = lo - remaining
            drop_at = lo - (hi + 1 + base) // 2
    return table >> ((lo - base) * limb)


def pivot_count_weight_dp(
    game: Game, player: int, budget: EngineBudget = DEFAULT_BUDGET
) -> int:
    """Exact pivotal count by a subset-count table packed into one int.

    ``T`` is pivotal when its weight lies in ``[quota - w_i, quota - 1]``,
    or equally when its complement among the co-players, of total
    ``W' = W - w_i``, weighs in ``[W - quota - w_i + 1, W - quota]``.  The
    engine counts whichever window has the lower top ``hi``: the direct one
    for a minority quota, the complement one for a majority quota, so the
    table never outgrows the quota.  Both windows are ``w_i`` sums wide.

    Cell ``s`` of the table is the number of co-player subsets of weight
    exactly ``s``; it is a limb of ``B = m + 1`` bits of a single Python
    int, where ``m`` is the number of co-players.  The co-players fold in
    lightest first, each as one shift-add ``T + (T << w * B)`` masked back
    to sums up to ``hi``; a co-player heavier than ``hi`` adds nothing and
    is skipped.  Once the weight still to fold cannot lift a low cell to
    the window's bottom ``lo``, that cell is dead; dead cells are shifted
    off, whole, when they make up more than half of the table.

    Exactness: a cell counts distinct subsets of ``m`` players, so it never
    exceeds ``2**m < 2**B`` and no limb carries into the next; the same
    bound holds for any sum of cells, which the readout relies on.  Sums
    above ``hi`` are dropped, never counted, since a dropped sum can only
    grow, and so are sums that can no longer grow to ``lo``.  The table
    takes at most ``(hi + 1) * B / 8`` bytes, with ``hi + 1 =
    dp_table_cells(game)``, and about four times that at peak: the mask,
    the table, its shift and their sum.  The mask is allocated up front, so
    a table the machine cannot allocate is a ``BudgetExceededError`` naming
    the quota.
    """
    others, _, _ = _pivot_problem(game, player)
    _refuse(dp_refusal(game, budget))
    hi = dp_table_cells(game) - 1
    lo = max(hi + 1 - game.weights[player], 0)
    if hi < lo:  # a zero-weight player is never pivotal, nor anyone at a quota above W
        return 0
    limb = dp_limb_bits(len(others))
    try:
        window = _packed_window_counts(others, lo, hi, limb)
    except (MemoryError, OverflowError):
        raise BudgetExceededError(
            f"weight-table engine cannot allocate a table for quota {game.quota}"
            f" (max_dp_quota={budget.max_dp_quota})"
        ) from None
    # Sum the window's cells by halving it: every partial sum counts
    # distinct subsets, so it fits a limb like any single cell does.
    cells = hi + 1 - lo
    while cells > 1:
        half = (cells + 1) // 2
        window = (window & ((1 << (half * limb)) - 1)) + (window >> (half * limb))
        cells = half
    return window

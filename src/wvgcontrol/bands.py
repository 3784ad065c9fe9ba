"""Structured exact counting for games whose weights live in no-carry bands.

The gadget games have two kinds of players.  "Heavy" players are so large
that any two of them together reach the quota, so a pivotal coalition
for the (weight-1) distinguished player contains exactly one of them.
The remaining "light" players are organised in blocks whose weight
magnitudes never interfere: the total weight of all blocks below a
nonempty block is smaller than that block's smallest gap (``min_gap``)
between two of its subset sums.  Consequently the residual a heavy player
leaves open splits uniquely across blocks, and the number of light
subsets hitting the residual is a product of per-block counts:

* ``ENUMERABLE`` blocks are counted by one pruned subset-sum pass
  (``_pruned_count``), exact for any positive weights.  A block the pass
  cannot finish within ``_MAX_PRUNED_STATES`` visited remainders goes to
  the engines' meet-in-the-middle core up to ``_MAX_ENUMERABLE`` (30)
  members, and a larger one is a budget refusal;
* ``UNIFORM_CHAIN_LEVEL`` blocks (all weights equal) contribute a binomial
  coefficient;
* ``SUPERINCREASING`` blocks admit at most one subset per value, found
  greedily.

Each band rule is exact and checked once, when a ``BandSystem`` is built:
a wrong construction must fail loudly, never miscount.
``BandSystem.restrict`` gives the system after deleting a set of players:
``delete_players`` alone applies the deletion, and the smaller system is
built through the same validating constructor.

``pivot_count_layered`` and ``DeletionCounter`` read one walk over the
pivotal coalition weights (``_window_passes``), which splits and counts
the residuals of every heavy player a column at a time
(``_column_walk``), so they share its guards: a missing band system or a
distinguished weight above ``_MAX_INTERVAL_WIDTH`` (4,096) is refused, with
``layered_refusal``'s text, as a ``BudgetExceededError`` before anything
is counted.  ``DeletionCounter`` keeps that walk's nonzero rows as terms
and scores deletions without deleting any; its docstring tells how, and
its ``heavy_terms(())`` is the only source of one heavy player's term.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, filterfalse, repeat
from typing import Iterable, Iterator

from .engines import count_subsets_mitm
from .errors import BandStructureError, BudgetExceededError, InputError, require_int
from .game import Game, decimal_str, delete_players


class BlockKind(str, Enum):
    ENUMERABLE = "ENUMERABLE"
    UNIFORM_CHAIN_LEVEL = "UNIFORM_CHAIN_LEVEL"
    SUPERINCREASING = "SUPERINCREASING"


@dataclass(frozen=True)
class LightBlock:
    """One no-carry band of light players.

    ``granularity`` divides every member weight.  It is stored explicitly
    so a block keeps its band position even after all its members were
    deleted.  The owning ``BandSystem`` checks that the less-significant
    blocks weigh less than ``min_gap`` in total.
    """

    name: str
    kind: BlockKind
    members: tuple[int, ...]
    weights: tuple[int, ...]
    granularity: int
    #: sum of the member weights, set at construction
    max_sum: int = field(init=False, repr=False, compare=False)
    #: smallest distance between two subset sums: the least slack
    #: ``w_i - sum(w_j for j < i)`` of a superincreasing block, else the
    #: granularity.  Shares are forced while the blocks below weigh less;
    #: an empty block takes no share, whatever lies below it.
    min_gap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", BlockKind(self.kind))
        except ValueError:
            raise BandStructureError(f"block {self.name}: unknown kind {self.kind!r}") from None
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "weights", tuple(self.weights))
        weights, granularity = self.weights, require_int(
            self.granularity, f"block {self.name}: granularity must be an integer", BandStructureError
        )
        if len(self.members) != len(weights):
            raise BandStructureError(f"block {self.name}: members/weights length mismatch")
        if granularity < 1:
            raise BandStructureError(f"block {self.name}: granularity must be positive")
        # weights that all equal the granularity pass the next three checks
        if weights.count(granularity) != len(weights):
            if min(weights) < 1:
                raise BandStructureError(f"block {self.name}: weights must be positive")
            if granularity > 1 and any(map(granularity.__rmod__, weights)):  # w % g
                raise BandStructureError(
                    f"block {self.name}: some weight is not a multiple of the granularity"
                )
            if self.kind is BlockKind.UNIFORM_CHAIN_LEVEL:
                raise BandStructureError(
                    f"uniform block {self.name}: all weights must equal the granularity"
                )
        gap = granularity
        if self.kind is BlockKind.SUPERINCREASING and weights:
            gap, running = weights[0], 0
            for w in weights:
                if w <= running:
                    raise BandStructureError(
                        f"superincreasing block {self.name}: weights must each exceed "
                        "the sum of all smaller ones (sorted ascending)"
                    )
                gap = min(gap, w - running)
                running += w
        object.__setattr__(self, "max_sum", sum(weights))
        object.__setattr__(self, "min_gap", gap)

    def restrict(self, surviving: dict[int, int]) -> LightBlock:
        """The block after a deletion, with indices remapped by ``surviving``."""
        kept = [(surviving[m], w) for m, w in zip(self.members, self.weights) if m in surviving]
        members, weights = zip(*kept) if kept else ((), ())
        return LightBlock(self.name, self.kind, members, weights, self.granularity)


@dataclass(frozen=True)
class BandSystem:
    """Band metadata for one game: heavy set, light blocks, distinguished player.

    Blocks are ordered from most to least significant.  Construction
    checks the full partition, that the blocks below each nonempty block
    weigh less than its ``min_gap``, that the light players alone stay
    below the pivotal window ``[quota - w_p, quota - 1]``, and that any two
    heavy players together reach the quota, past the window.
    """

    game: Game
    distinguished: int
    heavy: frozenset[int]
    blocks: tuple[LightBlock, ...]

    def __post_init__(self) -> None:
        heavy = tuple(self.heavy)
        object.__setattr__(self, "heavy", frozenset(heavy))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        game = self.game
        require_int(self.distinguished, "distinguished must be an integer")
        self._check_partition(heavy)

        below = 0  # total weight of blocks less significant than the current one
        for block in reversed(self.blocks):
            if block.weights and below >= block.min_gap:
                raise BandStructureError(
                    f"no-carry violation: blocks below {block.name} weigh {decimal_str(below)} "
                    f"total, at least its smallest gap {decimal_str(block.min_gap)}"
                )
            below += block.max_sum

        light_total = below
        if light_total >= game.quota - game.weights[self.distinguished]:
            raise BandStructureError(
                "light players alone can reach the pivotal interval "
                f"(total {decimal_str(light_total)} vs quota {decimal_str(game.quota)})"
            )
        heavy_weights = heapq.nsmallest(2, map(game.weights.__getitem__, self.heavy))
        if len(heavy_weights) >= 2 and heavy_weights[0] + heavy_weights[1] < game.quota:
            raise BandStructureError(
                "two heavy players fit under the quota together "
                f"({decimal_str(heavy_weights[0])} + {decimal_str(heavy_weights[1])} "
                f"< {decimal_str(game.quota)})"
            )

    def _check_partition(self, heavy: tuple[int, ...]) -> None:
        """Every player exactly once, each block's stored weights matching
        the game; ``heavy`` is the heavy players as given, so a repeat among
        them is refused, not dropped.  Checked in bulk: one type, range and
        set-size check and one comparison of the weight tuples; only when one
        fails does the walk over the players in order find the first fault
        and raise on it."""
        game = self.game
        members = [*chain.from_iterable(block.members for block in self.blocks)]
        players = [self.distinguished, *heavy, *members]
        if (
            set(map(type, players)) == {int}
            and len(set(players)) == len(players) == game.num_players
            and min(players) >= 0
            and max(players) < game.num_players
            and [*chain.from_iterable(block.weights for block in self.blocks)]
            == [*map(game.weights.__getitem__, members)]
        ):
            return
        game.check_player(self.distinguished)
        seen: set[int] = {self.distinguished}
        for player in heavy:
            game.check_player(player)
            if player in seen:
                raise BandStructureError(f"player {player} appears twice in the band system")
            seen.add(player)
        for block in self.blocks:
            for member, weight in zip(block.members, block.weights):
                game.check_player(member)
                if member in seen:
                    raise BandStructureError(
                        f"player {member} appears twice in the band system"
                    )
                seen.add(member)
                if game.weights[member] != weight:
                    raise BandStructureError(
                        f"block {block.name}: stored weight of player {member} "
                        "disagrees with the game"
                    )
        if len(seen) != game.num_players:
            raise BandStructureError("band system does not cover every player")

    def restrict(self, victims: Iterable[int]) -> BandSystem:
        """The band system after deleting ``victims``, which must spare the
        distinguished player.  ``delete_players`` gives the smaller game and
        the survivors' new indices, and the constructor validates the result
        like any other band system.
        """
        game, surviving = delete_players(self.game, victims)
        if self.distinguished not in surviving:
            raise BandStructureError("cannot delete the distinguished player")
        return BandSystem(
            game=game,
            distinguished=surviving[self.distinguished],
            heavy=[surviving[h] for h in self.heavy if h in surviving],
            blocks=[block.restrict(surviving) for block in self.blocks],
        )


def _split(block: LightBlock, rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """The walk's split: each remainder's forced share of ``block`` and what
    it leaves for the blocks below, as two columns.  A superincreasing or
    empty block takes its members greedily from the largest, one pass over
    the column per member; any other block takes the remainder less its
    residue mod the granularity, a share that is unreachable above the
    block's total.  Its reference, which shares no code with it, is
    ``decompose_target`` in ``tests/conftest.py``."""
    if block.kind is BlockKind.SUPERINCREASING or not block.weights:
        below = [*rows]
        for w in reversed(block.weights):
            below = [r - w if r >= w else r for r in below]
    else:
        below = [*map(operator.mod, rows, repeat(block.granularity))]
    return [*map(operator.sub, rows, below)], below


# The most remainders the pruned pass may visit, summed over its steps.  Past
# it an enumerable block goes to meet-in-the-middle, up to ``_MAX_ENUMERABLE``
# members; a larger block is a budget refusal, not a broken band invariant.
_MAX_PRUNED_STATES = 1 << 18
_MAX_ENUMERABLE = 30


def _pruned_count(weights: tuple[int, ...], target: int) -> int | None:
    """Subsets of ``weights`` summing to ``target``, or ``None`` once the pass
    has visited more than ``_MAX_PRUNED_STATES`` remainders.

    The members are taken heaviest first, with a dict from remainder to its
    number of ways.  A remainder is dropped once it is negative or above the
    total of the members still to come, so the pass is exact for any
    positive weights.  The no-carry digits of the E and ABC blocks only keep
    the dict small: in a gadget over ``n`` variables at most ``2**n``
    remainders survive the name members, so the pass visits about that
    many per member after them."""
    ordered = sorted(weights, reverse=True)
    rest, ways, visited = sum(ordered), {target: 1}, 0
    for w in ordered:
        visited += len(ways)
        if visited > _MAX_PRUNED_STATES:
            return None
        rest -= w  # the total of the members after w
        grown: dict[int, int] = {}
        for left, count in ways.items():
            if left <= rest:
                grown[left] = grown.get(left, 0) + count
            if w <= left <= rest + w:
                grown[left - w] = grown.get(left - w, 0) + count
        ways = grown
    return ways.get(0, 0)


def count_block(block: LightBlock, target: int) -> int:
    """Number of subsets of the block summing exactly to ``target``.

    An enumerable block is counted by the pruned pass; one the pass cannot
    finish within ``_MAX_PRUNED_STATES`` goes to meet-in-the-middle up to
    ``_MAX_ENUMERABLE`` members and is refused past that."""
    if target < 0 or target > block.max_sum:
        raise BandStructureError(
            f"block {block.name}: target {target} outside [0, {block.max_sum}]"
        )
    if block.kind is not BlockKind.SUPERINCREASING and target % block.granularity:
        raise BandStructureError(
            f"block {block.name}: target {target} is not a multiple of the granularity"
        )
    if block.kind is BlockKind.UNIFORM_CHAIN_LEVEL:
        return math.comb(len(block.members), target // block.granularity)
    if block.kind is BlockKind.SUPERINCREASING:
        _, (left,) = _split(block, [target])
        return int(left == 0)
    count = _pruned_count(block.weights, target)
    if count is not None:
        return count
    if len(block.members) > _MAX_ENUMERABLE:
        raise BudgetExceededError(
            f"layered engine refuses: enumerable block {block.name} has "
            f"{len(block.members)} members (limit {_MAX_ENUMERABLE}) and its "
            f"pruned count visits more than {_MAX_PRUNED_STATES} states"
        )
    return count_subsets_mitm(block.weights, target, target)


def _column_walk(blocks: tuple, residuals: list[int], counts: list[dict]) -> dict[int, int]:
    """Split, count and multiply a column of nonnegative ``residuals`` at once.

    Returns the product of block counts of each residual whose split
    reaches 0 with no block above a zero count; any other residual's
    product is 0.  ``counts`` is the walk's memo, per block index target
    to ``count_block``.

    The split goes down the blocks one column at a time (``_split``),
    dropping each remainder whose share is unreachable and deduplicating
    each block's remainders with ``dict.fromkeys`` before the next.  Three
    passes finish the walk: bottom-up, the remainders whose split reaches
    0 (the live ones); top-down, the live remainders that every block above
    leaves a nonzero count for (the reached ones), counting each new target
    of theirs once; bottom-up, the products of the reached remainders.  So
    it counts exactly the (block, target) pairs that splitting and counting
    each residual on its own, down to its first zero count, would."""
    split = []
    rows: Iterable[int] = residuals
    for block in blocks:
        shares, below = _split(block, rows)
        if shares and max(shares) > block.max_sum:  # some share is unreachable
            kept = [*map(block.max_sum.__ge__, shares)]
            rows, shares, below = ([*compress(column, kept)] for column in (rows, shares, below))
        split.append((rows, shares, below))
        rows = dict.fromkeys(below)
    live = {0}
    for rows, _, below in reversed(split):
        live = set(compress(rows, map(live.__contains__, below)))
    reached, columns = live, []
    for block, memo, (rows, shares, below) in zip(blocks, counts, split):
        if len(reached) < len(rows):  # the reached rows are some of the rows: keep them
            kept = [*map(reached.__contains__, rows)]
            rows, shares, below = ([*compress(column, kept)] for column in (rows, shares, below))
        for target in filterfalse(memo.__contains__, dict.fromkeys(shares)):
            memo[target] = count_block(block, target)
        factors = [*map(memo.__getitem__, shares)]
        columns.append((rows, factors, below))
        reached = set(compress(below, factors))
    products = {0: 1}
    for rows, factors, below in reversed(columns):
        products = dict(zip(rows, map(operator.mul, factors, map(products.get, below, repeat(0)))))
    return products


def count_light_subsets(bands: BandSystem, residual: int) -> int:
    """Number of light subsets (all blocks combined) summing to ``residual``."""
    if residual < 0:
        raise InputError("residual must be nonnegative")
    return _column_walk(bands.blocks, [residual], [{} for _ in bands.blocks]).get(residual, 0)


_MAX_INTERVAL_WIDTH = 4096
# The most rows (coalition weight, heavy player) in one pass of the walk
# over the pivotal window, which bounds its columns; a residual met again
# in a later pass is not split again.
_PASS_ROWS = 1 << 14


def layered_refusal(bands: BandSystem | None) -> str | None:
    """Why the layered engine refuses an instance of band system ``bands``, or
    ``None`` if it runs; an oversized enumerable block is refused only when met."""
    if bands is None:
        return "layered engine needs band metadata, which this instance lacks"
    w_p = bands.game.weights[bands.distinguished]
    if w_p > _MAX_INTERVAL_WIDTH:
        return (
            f"distinguished weight {decimal_str(w_p)} spans too wide a pivotal interval "
            f"for per-value decomposition (limit {_MAX_INTERVAL_WIDTH})"
        )
    return None


def _window_passes(
    bands: BandSystem,
) -> Iterator[tuple[list[int], list[int], dict[int, int], list[dict]]]:
    """The walk over the pivotal coalition weights, each less the weight of
    one heavy player, in passes of at most ``_PASS_ROWS`` rows (and at
    least one coalition weight; an empty window is one pass of no rows).
    Each pass is the heavy player and the residual of each of its rows, in
    order of coalition weight and then of heavy player; each residual
    walked so far to its product (``_column_walk``, and 0 for a negative
    one); and the count memo.  The passes share both memos, so a residual
    that recurs across the window is split once, and each (block, target)
    is counted once per walk.  A ``layered_refusal``, that of ``None``
    too, is raised as a ``BudgetExceededError``."""
    if (refusal := layered_refusal(bands)) is not None:
        raise BudgetExceededError(refusal)
    game, heavies = bands.game, sorted(bands.heavy)
    weights = [*map(game.weights.__getitem__, heavies)]
    w_p = game.weights[bands.distinguished]
    window = range(game.quota - w_p, game.quota)
    counts: list[dict] = [{} for _ in bands.blocks]
    products: dict[int, int] = {}
    step = max(1, _PASS_ROWS // max(1, len(heavies)))
    for start in range(0, max(len(window), 1), step):
        coalition_weights = window[start : start + step]
        residuals = [c - w for c in coalition_weights for w in weights]
        new = [*filterfalse(products.__contains__, dict.fromkeys(residuals))]
        products.update(dict.fromkeys(new, 0))
        products.update(_column_walk(bands.blocks, [*filter((0).__le__, new)], counts))
        yield heavies * len(coalition_weights), residuals, products, counts


def pivot_count_layered(bands: BandSystem) -> int:
    """Exact pivotal count for the band system's distinguished player.

    Sums, over every heavy player, the factorised count of light subsets
    completing a coalition to a pivotal weight.  The heavy-free term is
    zero by the construction invariant (light players alone cannot reach
    the pivotal interval) and coalitions with two heavies reach the
    quota, so the heavy terms are the whole count.
    """
    return sum(
        sum(map(products.__getitem__, residuals))
        for _, residuals, products, _ in _window_passes(bands)
    )


# Each per-search memo of a ``DeletionCounter`` holds at most this many
# entries and is emptied when full.
_DELETION_MEMO_SIZE = 4096


def _remember(memo: dict, key, value):
    if len(memo) >= _DELETION_MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


class DeletionCounter:
    """Exact pivot counts after deleting original players, recounting only
    the blocks a deletion touches.

    The no-carry split of a residual across blocks is unique over all
    light subsets of the original game, and every subset of the survivors
    is such a subset, so each heavy player's per-block targets and block
    counts are computed once, here, and stored once, as columns: by term
    its heavy player and product, by block index each term's target and
    count.  The terms are the walk's rows of nonzero product, in walk
    order (``_window_passes``); after the walk one ``_split`` per block
    gives their targets, and the walk's count memo their counts.  After
    deleting light players L and heavy players H the count is ``T(L) -
    sum(t_h(L) for h in H)``, every term after deleting L less the deleted
    heavies' own; ``heavy_terms`` gives every nonzero ``t_h(L)``.  A term
    after deleting L is its original product with, in each block L
    touches, the original block count replaced by the survivors' count
    (zero for a target above their total).  Counts only shrink, so a term
    that is zero in the original game stays zero and is not kept.

    Every term after deleting L is read off one grouped term table for
    the blocks L touches: the terms grouped by their targets there, each
    term's scaled value its product divided by its counts there (exact,
    as a product is the product of its nonzero block counts), and each
    group's scale the product of the survivors' recounts of its targets.
    A term after L is its scaled value times its group's scale, and
    ``T(L)`` sums each group's scaled values times its scale: one product
    per group, not per term (on the first seed-1 gadget of the benchmark's
    search-exhaustive workload, 57 terms fall into 1 to 12 groups).  A
    deletion is checked by one subset test of its light players against
    the block members; only one that fails goes to ``Game.coalition``,
    for its range error.

    Three memos serve the candidates of one search, each emptied at
    ``_DELETION_MEMO_SIZE``: L to its record, ``T(L)`` with the group
    scales and the table's group and scaled value of each term, which
    ``count`` and ``heavy_terms`` both read, so a deletion that adds heavy
    players to a known L walks no block again; (block index, its deleted
    members) to the survivors' count of each target in that block, which
    records share; and the sorted tuple of touched blocks to its grouped
    term table.
    """

    def __init__(self, bands: BandSystem) -> None:
        self.bands = bands
        self._heavies: list[int] = []  # by term, in walk order
        self._products: list[int] = []
        residuals: list[int] = []
        for row_heavies, rows, products, counts in _window_passes(bands):
            kept = [*map(products.__getitem__, rows)]
            self._heavies += compress(row_heavies, kept)
            self._products += filter(None, kept)
            residuals += compress(rows, kept)
        self._block_of = {
            member: index for index, block in enumerate(bands.blocks) for member in block.members
        }
        self._target_columns: list[list[int]] = []  # by block index, by term
        self._count_columns: list[list[int]] = []
        for block, memo in zip(bands.blocks, counts):
            shares, residuals = _split(block, residuals)
            self._target_columns.append(shares)
            self._count_columns.append([*map(memo.__getitem__, shares)])
        self._targets = [set(column) for column in self._target_columns]
        self._terms_of: dict[int, list[int]] = {}  # heavy player -> its term indices
        for term, heavy in enumerate(self._heavies):
            self._terms_of.setdefault(heavy, []).append(term)
        self._totals: dict[frozenset[int], tuple[int, list[int], list[int], list[int]]] = {}
        self._recounts: dict[tuple[int, frozenset[int]], dict[int, int]] = {}
        self._tables: dict[tuple[int, ...], tuple[list, list[int], list[int], list[int]]] = {}

    def count(self, players: Iterable[int]) -> int:
        """The pivot count after deleting ``players`` (original indices)."""
        deleted = frozenset(players)
        heavies = deleted & self.bands.heavy
        # a light-only deletion keys the memo with the caller's own set, so
        # a set passed again finds its record with its hash already cached
        light = deleted - heavies if heavies else deleted
        if not self._block_of.keys() >= light:
            self.bands.game.coalition(deleted)
            raise InputError("cannot delete the distinguished player")
        total, scales, groups, scaled = self._totals.get(light) or self._record(light)
        for heavy in heavies:
            for term in self._terms_of.get(heavy, ()):
                total -= scaled[term] * scales[groups[term]]
        return total

    def heavy_terms(self, light: Iterable[int]) -> dict[int, int]:
        """``t_h(L)`` for every heavy player h whose term is nonzero after
        deleting the light players ``light`` (original indices).  A player
        out of range is an ``InvalidCoalitionError``; the distinguished or a
        heavy player, an ``InputError``."""
        light = frozenset(light)
        if not self._block_of.keys() >= light:
            self.bands.game.coalition(light)
            raise InputError("heavy terms follow a deletion of light players only")
        _, scales, groups, scaled = self._totals.get(light) or self._record(light)
        terms: dict[int, int] = {}
        after = map(operator.mul, scaled, map(scales.__getitem__, groups))
        for heavy, term in zip(self._heavies, after):
            if term:
                terms[heavy] = terms.get(heavy, 0) + term
        return terms

    def _record(self, light: frozenset[int]) -> tuple[int, list[int], list[int], list[int]]:
        """``T(light)``, each group's scale in the grouped term table of the
        blocks ``light`` touches, and that table's group and scaled value of
        each term; remembered for ``light``."""
        gone: dict[int, set[int]] = {}  # block index -> its deleted members
        for player in light:
            gone.setdefault(self._block_of[player], set()).add(player)
        blocks = tuple(sorted(gone))
        recounts = [self._recounted(index, frozenset(gone[index])) for index in blocks]
        keys, sums, groups, scaled = self._tables.get(blocks) or self._grouped(blocks)
        scales = [math.prod(map(dict.__getitem__, recounts, key)) for key in keys]
        total = sum(map(operator.mul, sums, scales))
        return _remember(self._totals, light, (total, scales, groups, scaled))

    def _grouped(self, blocks: tuple[int, ...]) -> tuple[list, list[int], list[int], list[int]]:
        """The grouped term table of the touched ``blocks``: each group's
        targets on them and the sum of its terms' scaled values, and each
        term's group and scaled value, its product divided by its counts on
        them."""
        scaled: Iterable[int] = self._products
        for index in blocks:
            scaled = map(operator.floordiv, scaled, self._count_columns[index])
        scaled = [*scaled]
        keys = zip(*map(self._target_columns.__getitem__, blocks)) if blocks else [()] * len(scaled)
        group_of: dict[tuple[int, ...], int] = {}
        groups = [group_of.setdefault(key, len(group_of)) for key in keys]
        sums = [0] * len(group_of)
        for group, value in zip(groups, scaled):
            sums[group] += value
        return _remember(self._tables, blocks, ([*group_of], sums, groups, scaled))

    def _recounted(self, index: int, members: frozenset[int]) -> dict[int, int]:
        """The survivors' count of each target of block ``index`` after
        deleting its ``members``."""
        recounted = self._recounts.get((index, members))
        if recounted is None:
            block = self.bands.blocks[index]
            block = block.restrict({m: m for m in block.members if m not in members})
            recounted = {
                target: 0 if target > block.max_sum else count_block(block, target)
                for target in self._targets[index]
            }
            _remember(self._recounts, (index, members), recounted)
        return recounted

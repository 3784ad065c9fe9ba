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
``BandSystem.restrict`` gives the system after a deletion: it checks the
index map and game it is handed, then builds the smaller system through
the same validating constructor.

``pivot_count_layered``, ``heavy_pivot_term`` and ``DeletionCounter``
read one walk over the pivotal coalition weights (``_pivot_terms``, which
splits and counts each residual with ``_counted_suffix``), so they share
its guards: a distinguished weight above ``_MAX_INTERVAL_WIDTH`` (4,096)
is refused, with ``layered_refusal``'s text, as a ``BudgetExceededError``
before anything is counted.  ``DeletionCounter`` scores deletions of
original players without deleting any; its docstring tells how.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator

from .engines import count_subsets_mitm
from .errors import BandStructureError, BudgetExceededError, InputError
from .game import Game, decimal_str


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
        weights, granularity = self.weights, self.granularity
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
        members, weights = (tuple(column) for column in zip(*kept)) if kept else ((), ())
        return LightBlock(self.name, self.kind, members, weights, self.granularity)


@dataclass(frozen=True)
class Decomposition:
    """Per-block targets that recompose exactly to a residual value."""

    targets: tuple[int, ...]


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
        game = self.game
        self._check_partition()

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

    def _check_partition(self) -> None:
        """Every player exactly once, each block's stored weights matching
        the game.  Checked in bulk: one range check, one set size and one
        comparison of the weight tuples; only when one fails does the walk
        over the members in order find the first fault and raise on it."""
        game = self.game
        members = [*chain.from_iterable(block.members for block in self.blocks)]
        players = [self.distinguished, *self.heavy, *members]
        if (
            len(set(players)) == len(players) == game.num_players
            and min(players) >= 0
            and max(players) < game.num_players
            and [*chain.from_iterable(block.weights for block in self.blocks)]
            == [*map(game.weights.__getitem__, members)]
        ):
            return
        game.check_player(self.distinguished)
        seen: set[int] = {self.distinguished}
        for player in self.heavy:
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

    def block_named(self, name: str) -> LightBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise InputError(f"no block named {name!r}")

    def restrict(self, surviving: dict[int, int], game: Game) -> BandSystem:
        """The band system after deleting every player absent from ``surviving``.

        ``surviving`` maps each survivor's index here to its index in
        ``game``, as ``delete_players`` returns it.  It must take players of
        this game, in ascending order, onto ``range(n)`` in order; ``game``
        must carry exactly their weights and the same quota; and the
        distinguished player must survive.  The result is then validated by
        the constructor like any other band system.
        """
        if self.distinguished not in surviving:
            raise BandStructureError("cannot delete the distinguished player")
        old = self.game
        kept = [*surviving]
        if not (
            [*surviving.values()] == [*range(game.num_players)]
            and kept == sorted(kept)
            and 0 <= kept[0]
            and kept[-1] < old.num_players
        ):
            raise BandStructureError(
                "a restriction's index map must take players of this game, in "
                "ascending order, onto the new game's players in order"
            )
        weights = old.weights
        if game.quota != old.quota or list(game.weights) != [weights[p] for p in kept]:
            raise BandStructureError(
                "the restricted game must keep the quota and the survivors' weights"
            )
        return BandSystem(
            game=game,
            distinguished=surviving[self.distinguished],
            heavy=frozenset([surviving[h] for h in self.heavy if h in surviving]),
            blocks=tuple(block.restrict(surviving) for block in self.blocks),
        )


def _share(block: LightBlock, remaining: int) -> int | None:
    """The block's forced share of ``remaining``: its superincreasing members
    taken greedily from the largest (nothing from an empty block), or else
    the multiple of its granularity that leaves the blocks below less than
    it (``None`` above its total)."""
    if block.kind is BlockKind.SUPERINCREASING or not block.weights:
        left = remaining
        for w in reversed(block.weights):
            if left >= w:
                left -= w
        return remaining - left
    value = remaining - remaining % block.granularity
    return value if value <= block.max_sum else None


def decompose_target(bands: BandSystem, residual: int) -> Decomposition | None:
    """Split ``residual`` into per-block targets, each block taking its forced
    share from the most significant down; unique when it exists, ``None`` when
    some share is unreachable or a nonzero remainder survives the last block.

    The layered walk splits residuals through its memoised shares instead;
    this is the reference split that tests compare the walk against."""
    if residual < 0:
        raise InputError("residual must be nonnegative")
    targets = []
    for block in bands.blocks:
        share = _share(block, residual)
        if share is None:
            return None
        targets.append(share)
        residual -= share
    return None if residual else Decomposition(tuple(targets))


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
        return int(_share(block, target) == target)
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


# A counted suffix: the light subsets of the blocks from some index down
# that hit a remainder, as (product of the block counts, the first block's
# share, its count, the suffix below), or ``(1,)`` past the last block.
# The walk links each suffix to the one below, so a residual that meets a
# known remainder adds one small tuple per block above it.
_PAST_THE_LAST_BLOCK = (1,)
# marks a remainder the walk has not split yet
_UNSEEN = object()


def _walk_memos(blocks: tuple) -> tuple[list[dict], list[dict]]:
    """The empty memos of one walk: per block index, remainder to counted
    suffix (past the last block, only 0 to the empty suffix), and per block
    index, target to ``count_block``."""
    return [{} for _ in blocks] + [{0: _PAST_THE_LAST_BLOCK}], [{} for _ in blocks]


def _counted_suffix(blocks: tuple, residual: int, suffixes: list, counts: list) -> tuple | None:
    """The counted suffix of ``residual`` from the first block down, or
    ``None`` when the split fails or a block count is zero.

    ``suffixes`` and ``counts`` are a walk's memos (``_walk_memos``); a
    remainder maps to ``None`` when its suffix is.  The loop splits down
    to a known remainder, counts the new blocks from the most significant
    down to the first zero (the blocks after it are not counted) and fills
    the memo on the way back, so a residual costs a share, a count lookup
    and a product for each block where its remainder is new.  On the
    gadgets that is usually only E and ABC: the remainders below repeat."""
    if residual < 0:
        raise InputError("residual must be nonnegative")
    path, index, remaining = [], 0, residual
    while (suffix := suffixes[index].get(remaining, _UNSEEN)) is _UNSEEN:
        share = _share(blocks[index], remaining) if index < len(blocks) else None
        if share is None:
            suffix = None
            break
        path.append((index, remaining, share))
        index, remaining = index + 1, remaining - share
    decided, found = len(path), []  # the path levels whose suffix is known
    if suffix is not None:
        for index, _, share in path:
            count = counts[index].get(share)
            if count is None:
                count = counts[index][share] = count_block(blocks[index], share)
            if not count:
                suffix, decided = None, len(found) + 1
                break
            found.append(count)
    if suffix is None:
        for index, remaining, _ in path[:decided]:
            suffixes[index][remaining] = None
        return None
    for (index, remaining, share), count in zip(reversed(path), reversed(found)):
        suffix = suffixes[index][remaining] = (count * suffix[0], share, count, suffix)
    return suffix


def _unlinked(suffix: tuple) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A counted suffix as (per-block targets, per-block counts, product)."""
    product, targets, counts = suffix[0], [], []
    while len(suffix) > 1:
        _, share, count, suffix = suffix
        targets.append(share)
        counts.append(count)
    return tuple(targets), tuple(counts), product


def count_light_subsets(bands: BandSystem, residual: int) -> int:
    """Number of light subsets (all blocks combined) summing to ``residual``."""
    suffix = _counted_suffix(bands.blocks, residual, *_walk_memos(bands.blocks))
    return suffix[0] if suffix else 0


_MAX_INTERVAL_WIDTH = 4096


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


def _pivot_terms(bands: BandSystem, heavies: list[int]) -> Iterator[tuple[int, tuple]]:
    """Every nonzero pivot-count term: a pivotal coalition weight less the
    weight of one of ``heavies``, as (heavy player, its counted suffix from
    the first block down); the suffix's first entry is the term, and
    ``_unlinked`` gives its per-block targets and counts, which only
    ``DeletionCounter`` keeps.  A generator, so that a caller that only
    sums the terms holds one at a time.  The walk memoises block counts
    and counted suffixes in two memos of its own frame (``_walk_memos``),
    which go when it ends, so each distinct target is counted once and
    each remainder split once per walk.  A ``layered_refusal`` is raised as
    a ``BudgetExceededError``, as ``compute_index`` raises it."""
    if (refusal := layered_refusal(bands)) is not None:
        raise BudgetExceededError(refusal)
    game = bands.game
    w_p = game.weights[bands.distinguished]
    blocks = bands.blocks
    suffixes, counts = _walk_memos(blocks)
    for coalition_weight in range(game.quota - w_p, game.quota):
        for heavy in heavies:
            residual = coalition_weight - game.weights[heavy]
            suffix = _counted_suffix(blocks, residual, suffixes, counts) if residual >= 0 else None
            if suffix:
                yield heavy, suffix


def heavy_pivot_term(bands: BandSystem, heavy_player: int) -> int:
    """Pivotal coalitions of the distinguished player through one heavy player."""
    if heavy_player not in bands.heavy:
        raise InputError(f"player {heavy_player} is not heavy in this band system")
    return sum(suffix[0] for _, suffix in _pivot_terms(bands, [heavy_player]))


def pivot_count_layered(bands: BandSystem) -> int:
    """Exact pivotal count for the band system's distinguished player.

    Sums, over every heavy player, the factorised count of light subsets
    completing a coalition to a pivotal weight.  The heavy-free term is
    zero by the construction invariant (light players alone cannot reach
    the pivotal interval) and coalitions with two heavies reach the
    quota, so the heavy terms are the whole count.
    """
    return sum(suffix[0] for _, suffix in _pivot_terms(bands, sorted(bands.heavy)))


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
    count.  After deleting light players L and heavy players H the count
    is ``T(L) - sum(t_h(L) for h in H)``, every term after deleting L less
    the deleted heavies' own; ``heavy_terms`` gives every nonzero
    ``t_h(L)``.  A term after deleting L is its original product with, in
    each block L touches, the original block count replaced by the
    survivors' count (zero for a target above their total).  Counts only
    shrink, so a term that is zero in the original game stays zero and is
    not kept.

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
        self._block_of = {
            member: index for index, block in enumerate(bands.blocks) for member in block.members
        }
        self._heavies, terms = [], []  # by term, in walk order
        for heavy, suffix in _pivot_terms(bands, sorted(bands.heavy)):
            self._heavies.append(heavy)
            terms.append(_unlinked(suffix))
        self._products = [product for _, _, product in terms]
        width = range(len(bands.blocks))
        self._target_columns = [[targets[index] for targets, _, _ in terms] for index in width]
        self._count_columns = [[counts[index] for _, counts, _ in terms] for index in width]
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

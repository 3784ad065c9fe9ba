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

* ``ENUMERABLE`` blocks of up to ``_MITM_MEMBERS`` (20) members are
  counted by the engines' meet-in-the-middle core, with bounded caches.
  A larger one is counted by its decimal columns when it has a column
  layout, derived from its weights in units of its granularity: a cut
  at ``10**p`` is valid exactly when the members' per-position digit
  totals carry nothing into position ``p``.  One walk over the members
  spanning several columns closes each column as soon as its last such
  member is decided, against a table of the column's one-column
  members.  A layout whose bound exceeds ``_MAX_COLUMN_WORK`` counts as
  none; without one, a block of up to ``_MAX_ENUMERABLE`` (30) members
  goes to meet-in-the-middle and a larger one is a budget refusal.
  Layouts are cached in a bounded LRU;
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
read one walk over the pivotal coalition weights, which yields every
nonzero heavy term with its per-block targets and counts.  The walk
memoises block counts and the splits below each block in two dicts that
go when it ends, so each target is counted and each remainder split once.
Deleting players never changes the per-block targets of a residual (the
split is unique over all light subsets, and the survivors' subsets are
among them), so ``DeletionCounter`` keeps the terms, grouped by heavy
player, and scores a deletion of light players L and heavy players H as
``T(L) - sum(t_h(L) for h in H)``: every term after deleting L, less the
deleted heavies' own, each term recounting only the blocks L touches.
``heavy_terms(L)`` gives every nonzero ``t_h(L)`` by the same recount;
``gadgets.layered_case_counts`` reads one counter's, for L empty.
Two bounded memos on the counter reuse that work across the candidates
of one search.  Control search scores its candidates that way, so it
deletes players (and restricts their band system) only for a witness.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .engines import HalfSums, count_window, half_sum_tables
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
        heavy_weights = sorted(map(game.weights.__getitem__, self.heavy))
        if len(heavy_weights) >= 2 and heavy_weights[0] + heavy_weights[1] < game.quota:
            raise BandStructureError(
                "two heavy players fit under the quota together "
                f"({decimal_str(heavy_weights[0])} + {decimal_str(heavy_weights[1])} "
                f"< {decimal_str(game.quota)})"
            )

    def _check_partition(self) -> None:
        """Every player exactly once, each block's stored weights matching
        the game; walks the members in order and raises on the first fault."""
        game = self.game
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

    @property
    def light_total(self) -> int:
        return sum(block.max_sum for block in self.blocks)

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


def _split(blocks: tuple[LightBlock, ...], residual: int, suffixes: dict) -> tuple | None:
    """Per-block targets of ``residual``, or ``None``.  ``suffixes`` maps
    (block index, remaining) to the targets from that block on, or ``None``;
    the loop goes down to a known suffix and fills the memo on the way back."""
    if residual < 0:
        raise InputError("residual must be nonnegative")
    path, index, remaining = [], 0, residual
    while (index, remaining) not in suffixes:
        if index == len(blocks):
            suffixes[index, remaining] = None if remaining else ()
            break
        share = _share(blocks[index], remaining)
        if share is None:
            suffixes[index, remaining] = None
            break
        path.append((index, remaining, share))
        index, remaining = index + 1, remaining - share
    targets = suffixes[index, remaining]
    for index, remaining, share in reversed(path):
        if targets is not None:
            targets = (share, *targets)
        suffixes[index, remaining] = targets
    return targets


def decompose_target(bands: BandSystem, residual: int) -> Decomposition | None:
    """Split ``residual`` into per-block targets, each block taking its forced
    share from the most significant down; unique when it exists, ``None`` when
    some share is unreachable or a nonzero remainder survives the last block."""
    targets = _split(bands.blocks, residual, {})
    return None if targets is None else Decomposition(targets)


# Meet-in-the-middle tables for enumerable blocks, cached per weight tuple
# so the control solver's thousands of deletion variants reuse them, and
# the (weights, target) counts on top.  Both caches are bounded; their
# ``cache_info()`` gives the hit counts and ``cache_clear()`` empties them.
_TABLE_CACHE_SIZE = 8
_COUNT_CACHE_SIZE = 4096

# The layered engine's size budget for one enumerable block without a
# column layout: past it the block is a budget refusal, not a broken band
# invariant.
_MAX_ENUMERABLE = 30


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _enum_tables(weights: tuple[int, ...]) -> HalfSums:
    return half_sum_tables(weights)


@functools.lru_cache(maxsize=_COUNT_CACHE_SIZE)
def _enum_count(weights: tuple[int, ...], target: int) -> int:
    return count_window(_enum_tables(weights), target, target)


# Enumerable blocks of at most this many members go to meet-in-the-middle;
# a larger block is counted by its decimal columns when it has a column
# layout.  A deletion search recounts its small blocks once per deletion
# variant, and there the cached half-sum tables are cheaper than a walk.
_MITM_MEMBERS = 20

# The most steps a column layout may cost: singles-table entries built
# plus walk nodes, bounded before any walk runs.  Past it a block has no
# column layout.
_MAX_COLUMN_WORK = 1 << 18

_NONZERO_DIGIT = re.compile("[1-9]")


def _digits(value: int) -> list[tuple[int, int]]:
    """The nonzero decimal digits of ``value`` as (position, digit), the
    units at position 0; one scan of its decimal string."""
    text = decimal_str(value)
    top = len(text) - 1
    return [(top - at.start(), ord(at.group()) - 48) for at in _NONZERO_DIGIT.finditer(text)]


@dataclass(frozen=True)
class _Columns:
    """A block's weights, in units of its granularity, split into decimal
    columns that never carry.

    Column ``c`` holds the positions from ``starts[c]`` up to the next
    start; the top column has no end.  A column starts at a position where
    the members' weights below it sum to less than ``10**position``, so any
    subset's sum splits into per-column sums with no carry, and it hits a
    target exactly when every column sum equals the target's own part.
    """

    starts: tuple[int, ...]
    #: the (column, part) pairs of each member spanning several columns, in
    #: walk order: top column first, heaviest first
    steps: tuple[tuple[tuple[int, int], ...], ...]
    #: ``closes[0]``: the columns no walk member touches; ``closes[i + 1]``:
    #: the columns whose last walk member is ``steps[i]``
    closes: tuple[tuple[int, ...], ...]
    #: per column, subset-sum counts of its one-column members
    tables: tuple[dict[int, int], ...]


def _parts(starts: list[int] | tuple[int, ...], digits: list[tuple[int, int]]) -> dict[int, int]:
    """The nonzero part of each column, from nonzero (position, digit) pairs."""
    parts: dict[int, int] = {}
    for position, digit in digits:
        column = bisect.bisect_right(starts, position) - 1
        parts[column] = parts.get(column, 0) + digit * 10 ** (position - starts[column])
    return parts


def _grown(table: dict[int, int], part: int) -> dict[int, int]:
    """Subset-sum counts ``table`` with one more member of weight ``part``."""
    grown = dict(table)
    for value, count in table.items():
        grown[value + part] = grown.get(value + part, 0) + count
    return grown


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _column_layout(weights: tuple[int, ...], granularity: int) -> _Columns | None:
    """The decimal columns of ``weights`` in units of ``granularity``, or
    ``None`` when counting by them could cost more than ``_MAX_COLUMN_WORK``.

    A cut at ``10**p`` is valid exactly when the column addition of the
    members' per-position digit totals carries nothing into position ``p``;
    one sweep over those totals finds every valid cut, and each column
    starts at a position holding a digit, at a valid cut.  The walk bound:
    members whose top column is ``c`` are walked together and close ``c``
    when they are decided, so each path before them leaves at most
    ``min(2**size, entries of c's table * most subsets of them sharing a
    column-c sum)`` paths after them, and makes at most ``2**(size + 1)``
    nodes among them.
    """
    members = [_digits(w // granularity) for w in weights]
    totals: dict[int, int] = {}
    for digits in members:
        for position, digit in digits:
            totals[position] = totals.get(position, 0) + digit
    starts, carry, at = [], 0, 0
    for position in sorted(totals):
        while carry and at < position:  # a carry dies out over empty positions
            carry, at = carry // 10, at + 1
        if not carry:
            starts.append(position)
        carry, at = (carry + totals[position]) // 10, position + 1
    starts[:1] = [0]  # the lowest column reaches down to the units

    spans = [sorted(_parts(starts, digits).items(), reverse=True) for digits in members]
    tables: list[dict[int, int]] = [{0: 1} for _ in starts]
    work = 0
    for own in spans:
        if len(own) == 1:
            column, part = own[0]
            tables[column] = _grown(tables[column], part)
            work += len(tables[column])
            if work > _MAX_COLUMN_WORK:
                return None
    walked = [i for i, own in enumerate(spans) if len(own) > 1]
    walked.sort(key=weights.__getitem__, reverse=True)
    steps = [tuple(spans[i]) for i in walked]  # each top column first

    paths, first = 1, 0
    while first < len(steps):
        top = steps[first][0][0]
        end = first
        while end < len(steps) and steps[end][0][0] == top:
            end += 1
        size = end - first
        work += paths << (size + 1)
        if work > _MAX_COLUMN_WORK:
            return None
        sums = {0: 1}
        for step in steps[first:end]:
            sums = _grown(sums, step[0][1])
        paths *= min(1 << size, len(tables[top]) * max(sums.values()))
        first = end

    last = {column: 0 for column in range(len(starts))}
    for index, step in enumerate(steps):
        for column, _ in step:
            last[column] = index + 1
    closes: list[list[int]] = [[] for _ in range(len(steps) + 1)]
    for column, index in last.items():
        closes[index].append(column)
    return _Columns(tuple(starts), tuple(steps), tuple(map(tuple, closes)), tuple(tables))


def _column_count(layout: _Columns, target: int) -> int:
    """Subsets summing to ``target`` (in units of the granularity): one walk
    over the members spanning several columns, an explicit stack of
    (step, per-column remainders, product so far).  Taking a member lowers
    the remainders of its columns; once a column's last walk member is
    decided, its remainder must be a sum of its one-column members, and
    the product takes their count."""
    steps, closes, tables = layout.steps, layout.closes, layout.tables
    remainders = [0] * len(layout.starts)
    for column, part in _parts(layout.starts, _digits(target)).items():
        remainders[column] = part
    product = 1
    for column in closes[0]:
        product *= tables[column].get(remainders[column], 0)
    total, stack = 0, [(0, remainders, product)] if product else []
    while stack:
        step, remainders, product = stack.pop()
        if step == len(steps):
            total += product
            continue
        taken = remainders.copy()
        for column, part in steps[step]:
            taken[column] -= part
        branches = [remainders]
        if min(taken[column] for column, _ in steps[step]) >= 0:
            branches.append(taken)
        for branch in branches:
            count = product
            for column in closes[step + 1]:
                count *= tables[column].get(branch[column], 0)
                if not count:
                    break
            else:
                stack.append((step + 1, branch, count))
    return total


def count_block(block: LightBlock, target: int) -> int:
    """Number of subsets of the block summing exactly to ``target``.

    An enumerable block goes to meet-in-the-middle up to ``_MITM_MEMBERS``
    members, and past that to its decimal columns when it has a column
    layout; without one it goes to meet-in-the-middle up to
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
    size = len(block.members)
    if size > _MITM_MEMBERS:
        layout = _column_layout(block.weights, block.granularity)
        if layout is not None:
            return _column_count(layout, target // block.granularity)
        if size > _MAX_ENUMERABLE:
            raise BudgetExceededError(
                f"layered engine refuses: enumerable block {block.name} has "
                f"{size} members (limit {_MAX_ENUMERABLE}) and no column layout "
                f"within {_MAX_COLUMN_WORK} steps"
            )
    return _enum_count(block.weights, target)


def _block_counts(blocks: tuple, residual: int, suffixes: dict, counts: dict) -> tuple | None:
    """Per-block targets and counts of the light subsets summing to ``residual``,
    or ``None`` at the first zero count (the blocks after it are not counted).
    The split is finished before any block is counted; ``suffixes`` memoises
    it and ``counts`` memoises ``count_block`` on (block index, target)."""
    targets = _split(blocks, residual, suffixes)
    if targets is None:
        return None
    found = []
    for index, target in enumerate(targets):
        count = counts.get((index, target))
        if count is None:
            count = counts[index, target] = count_block(blocks[index], target)
        if not count:
            return None
        found.append(count)
    return targets, tuple(found)


def count_light_subsets(bands: BandSystem, residual: int) -> int:
    """Number of light subsets (all blocks combined) summing to ``residual``."""
    counted = _block_counts(bands.blocks, residual, {}, {})
    return math.prod(counted[1]) if counted else 0


_MAX_INTERVAL_WIDTH = 4096


def _pivot_terms(bands: BandSystem, heavies: list[int]) -> Iterator[tuple]:
    """Every nonzero pivot-count term: a pivotal coalition weight less the
    weight of one of ``heavies``, as (heavy player, per-block targets,
    per-block counts, their product).  A generator, so that a caller that
    only sums the products holds one term at a time.  The walk memoises
    block counts and split suffixes in two dicts of its own frame, which go
    when it ends."""
    game = bands.game
    w_p = game.weights[bands.distinguished]
    if w_p > _MAX_INTERVAL_WIDTH:
        raise BandStructureError(
            f"distinguished weight {w_p} spans too wide a pivotal interval "
            f"for per-value decomposition (limit {_MAX_INTERVAL_WIDTH})"
        )
    blocks, suffixes, counts = bands.blocks, {}, {}
    for coalition_weight in range(game.quota - w_p, game.quota):
        for heavy in heavies:
            residual = coalition_weight - game.weights[heavy]
            counted = _block_counts(blocks, residual, suffixes, counts) if residual >= 0 else None
            if counted:
                yield heavy, *counted, math.prod(counted[1])


def heavy_pivot_term(bands: BandSystem, heavy_player: int) -> int:
    """Pivotal coalitions of the distinguished player through one heavy player."""
    if heavy_player not in bands.heavy:
        raise InputError(f"player {heavy_player} is not heavy in this band system")
    return sum(term[-1] for term in _pivot_terms(bands, [heavy_player]))


def pivot_count_layered(bands: BandSystem, player: int | None = None) -> int:
    """Exact pivotal count for the band system's distinguished player.

    Sums, over every heavy player, the factorised count of light subsets
    completing a coalition to a pivotal weight.  The heavy-free term is
    zero by the construction invariant (light players alone cannot reach
    the pivotal interval) and coalitions with two heavies reach the
    quota, so the heavy terms are the whole count.
    """
    if player is None:
        player = bands.distinguished
    if player != bands.distinguished:
        raise InputError(
            "the layered engine only counts for the band system's distinguished player"
        )
    return sum(term[-1] for term in _pivot_terms(bands, sorted(bands.heavy)))


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
    counts are computed once, here, and grouped by heavy player.  After
    deleting light players L and heavy players H the count is
    ``T(L) - sum(t_h(L) for h in H)``: ``T(L)`` sums every heavy term
    after deleting L and ``t_h(L)`` sums h's own terms; ``heavy_terms``
    gives every nonzero ``t_h(L)``.  A term after deleting L is its
    original product with, in each block L touches, the original block
    count replaced by the survivors' count (zero for a target above their
    total).  Counts only shrink, so a term that is zero in the original
    game stays zero and is not kept; every kept block count is nonzero,
    which makes ``product // old * new`` exact.

    Two memos of ints serve the candidates of one search: L to ``T(L)``,
    and (block index, its deleted members) to the survivors' count of each
    target in that block.  Each is emptied at ``_DELETION_MEMO_SIZE``.
    ``heavy_terms`` shares the second and keeps no dict per L.
    """

    def __init__(self, bands: BandSystem) -> None:
        self.bands = bands
        self._block_of = {
            member: index for index, block in enumerate(bands.blocks) for member in block.members
        }
        self._terms: list[tuple] = []  # (targets, counts, product) of every heavy term
        self._terms_of: dict[int, list[tuple]] = {}  # the same terms by heavy player
        for heavy, *term in _pivot_terms(bands, sorted(bands.heavy)):
            self._terms.append(term := tuple(term))
            self._terms_of.setdefault(heavy, []).append(term)
        self._totals: dict[frozenset[int], int] = {}
        self._recounts: dict[tuple[int, frozenset[int]], dict[int, int]] = {}

    def count(self, players: Iterable[int]) -> int:
        """The pivot count after deleting ``players`` (original indices)."""
        bands = self.bands
        deleted = bands.game.coalition(players)
        if bands.distinguished in deleted:
            raise InputError("cannot delete the distinguished player")
        heavies = deleted & bands.heavy
        light = deleted - heavies
        total = self._totals.get(light)
        if total is None or heavies:
            touched = self._touched(light)
            if total is None:
                total = _remember(self._totals, light, self._sum(self._terms, touched))
            for heavy in heavies:
                total -= self._sum(self._terms_of.get(heavy, ()), touched)
        return total

    def heavy_terms(self, light: Iterable[int]) -> dict[int, int]:
        """``t_h(L)`` for every heavy player h whose term is nonzero after
        deleting the light players ``light`` (original indices)."""
        bands = self.bands
        light = bands.game.coalition(light)
        if bands.distinguished in light or light & bands.heavy:
            raise InputError("heavy terms follow a deletion of light players only")
        touched = self._touched(light)
        terms_of = self._terms_of.items()
        return {heavy: term for heavy, own in terms_of if (term := self._sum(own, touched))}

    def _touched(self, light: frozenset[int]) -> list[tuple[int, dict[int, int]]]:
        """Each block ``light`` deletes from, with its survivors' recounts."""
        gone: dict[int, set[int]] = {}  # block index -> its deleted members
        for player in light:
            gone.setdefault(self._block_of[player], set()).add(player)
        return [self._recounted(index, frozenset(members)) for index, members in gone.items()]

    def _recounted(self, index: int, members: frozenset[int]) -> tuple[int, dict[int, int]]:
        """The block index with the survivors' count of each of its targets."""
        recounted = self._recounts.get((index, members))
        if recounted is None:
            block = self.bands.blocks[index]
            block = block.restrict({m: m for m in block.members if m not in members})
            recounted = {
                target: 0 if target > block.max_sum else count_block(block, target)
                for target in {targets[index] for targets, _, _ in self._terms}
            }
            _remember(self._recounts, (index, members), recounted)
        return index, recounted

    @staticmethod
    def _sum(terms: Iterable[tuple], touched: list[tuple[int, dict[int, int]]]) -> int:
        total = 0
        for targets, counts, product in terms:
            for index, recounted in touched:
                product = product // counts[index] * recounted[targets[index]]
            total += product
        return total

"""Structured exact counting for games whose weights live in no-carry bands.

The gadget games have two kinds of players.  "Heavy" players are so large
that no two of them fit together under the quota, so a pivotal coalition
for the (weight-1) distinguished player contains exactly one of them.
The remaining "light" players are organised in blocks whose weight
magnitudes never interfere: the total weight of all blocks below a block
is smaller than that block's granularity.  Consequently the residual a
heavy player leaves open splits uniquely across blocks, and the number of
light subsets hitting the residual is a product of per-block counts:

* ``ENUMERABLE`` blocks (a few dozen structured weights) are counted by
  the engines' meet-in-the-middle core, with bounded caches;
* ``UNIFORM_CHAIN_LEVEL`` blocks (all weights equal) contribute a binomial
  coefficient;
* ``SUPERINCREASING`` blocks admit at most one subset per value, found
  greedily.

Every no-carry precondition is asserted when a ``BandSystem`` is built;
a wrong construction must fail loudly, never miscount.  Deleting players
preserves every one of them, so ``BandSystem.restrict`` derives the
smaller system from its validated parent: it checks the index map and
game it is handed, re-validates only the blocks that lost members, and
re-runs the checks that cost O(blocks), skipping only the O(players)
partition rescan (the proof is in its docstring).

``pivot_count_layered`` counts one band system from scratch.  Deleting
players never changes the per-block targets of a residual (the split is
unique over all light subsets, and the survivors' subsets are among
them), so ``DeletionCounter`` computes the targets and block counts of
every heavy player's term once and scores a deletion by dropping the
deleted heavy players' terms and recounting only the blocks it touches.
Control search scores its candidates that way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Iterable

from .engines import HalfSums, count_window, half_sum_tables
from .errors import BandStructureError, InputError
from .game import Game


class BlockKind(str, Enum):
    ENUMERABLE = "ENUMERABLE"
    UNIFORM_CHAIN_LEVEL = "UNIFORM_CHAIN_LEVEL"
    SUPERINCREASING = "SUPERINCREASING"


@dataclass(frozen=True)
class LightBlock:
    """One no-carry band of light players.

    ``granularity`` divides every member weight and exceeds the combined
    weight of all less-significant blocks (checked by the owning
    ``BandSystem``).  It is stored explicitly so a block keeps its band
    position even after all its members were deleted.
    """

    name: str
    kind: BlockKind
    members: tuple[int, ...]
    weights: tuple[int, ...]
    granularity: int
    #: sum of the member weights, set at construction
    max_sum: int = field(init=False, repr=False, compare=False)
    #: smallest slack ``w_i - sum(w_j for j < i)`` of a superincreasing
    #: block; greedy decomposition is forced only while the blocks below
    #: weigh strictly less than this gap.  For other kinds (and an empty
    #: block) it is the granularity, which plays that role.
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
            if granularity > weights[0]:
                raise BandStructureError(
                    f"superincreasing block {self.name}: granularity above smallest weight"
                )
        object.__setattr__(self, "max_sum", sum(weights))
        object.__setattr__(self, "min_gap", gap)

    def without(self, gone: AbstractSet[int]) -> LightBlock:
        """The block minus the members in ``gone``; indices stay as they are."""
        kept = [(m, w) for m, w in zip(self.members, self.weights) if m not in gone]
        members, weights = (tuple(column) for column in zip(*kept)) if kept else ((), ())
        return LightBlock(self.name, self.kind, members, weights, self.granularity)

    def restrict(self, surviving: dict[int, int]) -> LightBlock:
        """The block after a deletion, with indices remapped by ``surviving``.

        A block that lost no members keeps its weights, so it is copied with
        its derived ``max_sum`` and ``min_gap`` and only ``members`` remapped;
        a block that lost members is rebuilt and re-validated.
        """
        try:
            members = tuple(map(surviving.__getitem__, self.members))
        except KeyError:
            kept = [(surviving[m], w) for m, w in zip(self.members, self.weights) if m in surviving]
            members, weights = (tuple(column) for column in zip(*kept)) if kept else ((), ())
            return LightBlock(self.name, self.kind, members, weights, self.granularity)
        block = object.__new__(LightBlock)
        vars(block).update(vars(self), members=members)
        return block


@dataclass(frozen=True)
class Decomposition:
    """Per-block targets that recompose exactly to a residual value."""

    targets: tuple[int, ...]


@dataclass(frozen=True)
class BandSystem:
    """Band metadata for one game: heavy set, light blocks, distinguished player.

    Blocks are ordered from most to least significant.  Construction
    checks the full partition, the pairwise heavy exclusion, the no-carry
    chain, and that the light players alone can never make the
    distinguished player pivotal.
    """

    game: Game
    distinguished: int
    heavy: frozenset[int]
    blocks: tuple[LightBlock, ...]

    def __post_init__(self) -> None:
        if not self._covers_every_player_once():
            self._raise_first_membership_fault()
        self._check_structure()

    def _check_structure(self) -> None:
        """The checks that cost O(blocks), not O(players): the member count,
        the no-carry chain, the light total against the pivotal interval,
        and the pairwise heavy exclusion."""
        game = self.game
        members = sum(len(block.members) for block in self.blocks)
        if 1 + len(self.heavy) + members != game.num_players:
            raise BandStructureError("band system does not cover every player")

        below = 0  # total weight of blocks less significant than the current one
        for block in reversed(self.blocks):
            if below >= block.granularity:
                raise BandStructureError(
                    f"no-carry violation: blocks below {block.name} weigh {below} "
                    f"total, at least its granularity {block.granularity}"
                )
            if below >= block.min_gap:
                raise BandStructureError(
                    f"no-carry violation: blocks below {block.name} weigh {below} "
                    f"total, at least its smallest superincreasing gap {block.min_gap}"
                )
            below += block.max_sum

        light_total = below
        if light_total >= game.quota - game.weights[self.distinguished]:
            raise BandStructureError(
                "light players alone can reach the pivotal interval "
                f"(total {light_total} vs quota {game.quota})"
            )
        weights = game.weights
        heavy_weights = sorted([weights[h] for h in self.heavy])
        if len(heavy_weights) >= 2 and heavy_weights[0] + heavy_weights[1] <= game.quota:
            raise BandStructureError(
                "two heavy players fit under the quota together "
                f"({heavy_weights[0]} + {heavy_weights[1]} <= {game.quota})"
            )

    def _covers_every_player_once(self) -> bool:
        """Set-based partition check: every player in range, exactly once,
        with each block's stored weights matching the game."""
        weights = self.game.weights
        players = [self.distinguished, *self.heavy]
        for block in self.blocks:
            players.extend(block.members)
        return (
            len(players) == len(weights) == len(set(players))
            and min(players) >= 0
            and max(players) < len(weights)
            and all(
                tuple(map(weights.__getitem__, block.members)) == block.weights
                for block in self.blocks
            )
        )

    def _raise_first_membership_fault(self) -> None:
        """Walk the members in order and raise on the first fault found."""
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
        ``game``, as ``delete_players`` returns it.  The result is derived
        from this validated system rather than re-validated from scratch.
        The inputs are checked first: ``surviving`` must map players of this
        game, in ascending order, onto ``range(n)`` in order; ``game`` must
        carry exactly their weights and the same quota; and the
        distinguished player must survive.  Then every invariant holds by
        deletion alone:

        * partition: the parts were disjoint and covered every player; each
          part keeps its survivors, renumbered by an injective map onto
          ``range(n)``, so the parts are disjoint and cover ``game``.  Block
          weights are the survivors' old weights, which ``game`` carries;
        * blocks: a block that lost no members has the same weights, so its
          checks and derived values carry over; a block that lost members
          is re-validated by the ``LightBlock`` constructor;
        * no-carry chain: the blocks below a block weigh no more than
          before, its granularity is fixed, and its smallest gap only
          widens (a subsequence of a superincreasing tuple has gaps no
          smaller; an emptied block falls back to the granularity, which
          the chain already cleared);
        * light total: it only falls, and the quota and the distinguished
          weight are unchanged;
        * heavy exclusion: the heavy pairs are a subset of the old ones.

        So only the O(players) partition rescan is skipped.  The O(blocks)
        checks of ``_check_structure`` still run, and its member count
        catches a block that kept a stale member list.
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
        restricted = object.__new__(BandSystem)
        vars(restricted).update(
            game=game,
            distinguished=surviving[self.distinguished],
            heavy=frozenset([surviving[h] for h in self.heavy if h in surviving]),
            blocks=tuple(block.restrict(surviving) for block in self.blocks),
        )
        restricted._check_structure()
        return restricted


def _greedy_remainder(weights: tuple[int, ...], value: int) -> int:
    """What is left of ``value`` after taking superincreasing ``weights``
    greedily from the largest; zero iff some subset sums to ``value``."""
    for w in reversed(weights):
        if value >= w:
            value -= w
    return value


def decompose_target(bands: BandSystem, residual: int) -> Decomposition | None:
    """Split ``residual`` into per-block targets; unique when it exists.

    Works greedily from the most significant block.  For granular blocks
    the block's share is forced: it is the unique multiple of the
    granularity leaving a remainder the lower blocks can still carry.
    Superincreasing blocks take members greedily from the largest.
    Returns ``None`` when some block's forced share is unreachable or a
    nonzero remainder survives the last block.
    """
    if residual < 0:
        raise InputError("residual must be nonnegative")
    remaining = residual
    targets: list[int] = []
    for block in bands.blocks:
        if block.kind is BlockKind.SUPERINCREASING:
            value = remaining - _greedy_remainder(block.weights, remaining)
        else:
            value = remaining - remaining % block.granularity
            if value > block.max_sum:
                return None
        targets.append(value)
        remaining -= value
    if remaining != 0:
        return None
    return Decomposition(tuple(targets))


# Meet-in-the-middle tables for enumerable blocks, cached per weight tuple
# so the control solver's thousands of deletion variants reuse them, and
# the (weights, target) counts on top.  Both caches are bounded; their
# ``cache_info()`` gives the hit counts and ``cache_clear()`` empties them.
_TABLE_CACHE_SIZE = 8
_COUNT_CACHE_SIZE = 4096

_MAX_ENUMERABLE = 30


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _enum_tables(weights: tuple[int, ...]) -> HalfSums:
    return half_sum_tables(weights)


@functools.lru_cache(maxsize=_COUNT_CACHE_SIZE)
def _enum_count(weights: tuple[int, ...], target: int) -> int:
    return count_window(_enum_tables(weights), target, target)


def count_block(block: LightBlock, target: int) -> int:
    """Number of subsets of the block summing exactly to ``target``."""
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
        return 1 if _greedy_remainder(block.weights, target) == 0 else 0
    if len(block.members) > _MAX_ENUMERABLE:
        raise BandStructureError(
            f"enumerable block {block.name} has {len(block.members)} members "
            f"(limit {_MAX_ENUMERABLE}); it should have been banded further"
        )
    return _enum_count(block.weights, target)


def count_light_subsets(bands: BandSystem, residual: int) -> int:
    """Number of light subsets (all blocks combined) summing to ``residual``."""
    decomposition = decompose_target(bands, residual)
    if decomposition is None:
        return 0
    product = 1
    for block, target in zip(bands.blocks, decomposition.targets):
        product *= count_block(block, target)
        if product == 0:
            return 0
    return product


def heavy_pivot_term(bands: BandSystem, heavy_player: int) -> int:
    """Pivotal coalitions of the distinguished player through one heavy player."""
    if heavy_player not in bands.heavy:
        raise InputError(f"player {heavy_player} is not heavy in this band system")
    game = bands.game
    w_p = game.weights[bands.distinguished]
    w_h = game.weights[heavy_player]
    total = 0
    for coalition_weight in range(game.quota - w_p, game.quota):
        residual = coalition_weight - w_h
        if residual >= 0:
            total += count_light_subsets(bands, residual)
    return total


_MAX_INTERVAL_WIDTH = 4096


def pivot_count_layered(bands: BandSystem, player: int | None = None) -> int:
    """Exact pivotal count for the band system's distinguished player.

    Sums, over every heavy player, the factorised count of light subsets
    completing a coalition to a pivotal weight.  The heavy-free term is
    zero by the construction invariant (light players alone cannot reach
    the pivotal interval) and coalitions with two heavies overshoot the
    quota, so the heavy terms are the whole count.
    """
    if player is None:
        player = bands.distinguished
    if player != bands.distinguished:
        raise InputError(
            "the layered engine only counts for the band system's distinguished player"
        )
    _check_pivot_interval(bands)
    return sum(heavy_pivot_term(bands, h) for h in sorted(bands.heavy))


def _check_pivot_interval(bands: BandSystem) -> None:
    w_p = bands.game.weights[bands.distinguished]
    if w_p > _MAX_INTERVAL_WIDTH:
        raise BandStructureError(
            f"distinguished weight {w_p} spans too wide a pivotal interval "
            f"for per-value decomposition (limit {_MAX_INTERVAL_WIDTH})"
        )
    # Re-assert the zero heavy-free term rather than trusting construction.
    if bands.light_total >= bands.game.quota - w_p:
        raise BandStructureError("light players alone can reach the pivotal interval")


class DeletionCounter:
    """Exact pivot counts after deleting original players, recounting only
    the blocks a deletion touches.

    The no-carry split of a residual across blocks is unique over all
    light subsets of the original game, and every subset of the survivors
    is such a subset, so each heavy player's per-block targets and block
    counts are computed once, here.  After a deletion the count is the
    same sum of heavy terms, except that the terms of deleted heavy
    players drop out and, in each block the deletion touches, the
    original block count is replaced by the count over the survivors
    (zero for a target above their total).  Counts only shrink, so a term
    that is zero in the original game stays zero and is not kept; every
    kept block count is nonzero, which makes ``product // old * new``
    exact.
    """

    def __init__(self, bands: BandSystem) -> None:
        _check_pivot_interval(bands)
        self.bands = bands
        self._block_of = {
            member: index for index, block in enumerate(bands.blocks) for member in block.members
        }
        game = bands.game
        w_p = game.weights[bands.distinguished]
        # (heavy player, per-block targets, per-block counts, their product)
        self._terms: list[tuple[int, tuple[int, ...], tuple[int, ...], int]] = []
        for heavy in sorted(bands.heavy):
            for coalition_weight in range(game.quota - w_p, game.quota):
                residual = coalition_weight - game.weights[heavy]
                decomposition = decompose_target(bands, residual) if residual >= 0 else None
                if decomposition is None:
                    continue
                counts = tuple(map(count_block, bands.blocks, decomposition.targets))
                product = math.prod(counts)
                if product:
                    self._terms.append((heavy, decomposition.targets, counts, product))

    def count(self, players: Iterable[int]) -> int:
        """The pivot count after deleting ``players`` (original indices)."""
        bands = self.bands
        deleted = bands.game.coalition(players)
        if bands.distinguished in deleted:
            raise InputError("cannot delete the distinguished player")
        gone: dict[int, set[int]] = {}  # block index -> its deleted members
        for player in deleted:
            index = self._block_of.get(player)
            if index is not None:
                gone.setdefault(index, set()).add(player)
        touched = [(index, bands.blocks[index].without(members)) for index, members in gone.items()]
        recounted: dict[tuple[int, int], int] = {}
        total = 0
        for heavy, targets, counts, product in self._terms:
            if heavy in deleted:
                continue
            for index, block in touched:
                target = targets[index]
                new = recounted.get((index, target))
                if new is None:
                    new = 0 if target > block.max_sum else count_block(block, target)
                    recounted[index, target] = new
                product = product // counts[index] * new
            total += product
        return total

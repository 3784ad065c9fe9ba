"""Weighted voting games and exact power index values.

A game is a tuple of nonnegative integer weights (one per player, players
are identified by position) together with a positive integer quota.  All
arithmetic is over Python's arbitrary-precision integers: gadget games
carry weights with hundreds of digits and nothing here may round.

``ExactIndex`` holds a power index value as an unreduced dyadic rational
``pivot_count / 2**exponent``.  Values from games with different player
counts compare exactly by cross-shifting the counts, without ever
touching floating point; ``==`` and ``<`` are written out, the rest of the
order comes from ``functools.total_ordering``, and the hash is that of the
reduced fraction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

from .errors import InputError, InvalidCoalitionError, require_int

Coalition = frozenset[int]


def decimal_str(value: int) -> str:
    """``str(value)`` at any length.  CPython refuses int-to-str conversion
    past ``sys.get_int_max_str_digits()`` digits (4,300 by default) and
    ``decimal`` does not; library code leaves that interpreter-wide limit
    alone."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


@dataclass(frozen=True)
class Game:
    """A weighted voting game ``(w_0, ..., w_{n-1}; quota)``.

    Players are the positions ``0 .. n-1``.  A coalition wins iff its
    total weight reaches the quota.  Zero weights are permitted (such a
    player is never pivotal); the quota must be at least 1.
    """

    weights: tuple[int, ...]
    quota: int

    def __post_init__(self) -> None:
        weights = self.weights
        kinds = set(map(type, weights))
        if kinds != {int}:
            # ``bool`` is an ``int`` subclass but no weight or quota
            if bool in kinds or not all(issubclass(kind, int) for kind in kinds):
                raise InputError("weights must be integers")
            weights = tuple(map(int, weights))
        elif type(weights) is not tuple:
            weights = tuple(weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise InputError("a game needs at least one player")
        if min(weights) < 0:
            raise InputError("weights must be nonnegative")
        if require_int(self.quota, "quota must be a positive integer") < 1:
            raise InputError(f"quota must be a positive integer, got {self.quota!r}")

    @property
    def num_players(self) -> int:
        return len(self.weights)

    def check_player(self, player: int) -> int:
        require_int(player, "player must be an integer", InvalidCoalitionError)
        if not 0 <= player < len(self.weights):
            raise InvalidCoalitionError(
                f"player {player} out of range for a {len(self.weights)}-player game"
            )
        return player

    def coalition(self, members: Iterable[int]) -> Coalition:
        """Validate ``members`` and return it as a frozenset."""
        coalition = frozenset(members)
        for player in coalition:
            self.check_player(player)
        return coalition

    def coalition_weight(self, members: Iterable[int]) -> int:
        return sum(self.weights[p] for p in self.coalition(members))

    def __str__(self) -> str:
        return f"({', '.join(map(decimal_str, self.weights))}; {decimal_str(self.quota)})"


def characteristic(game: Game, members: Iterable[int]) -> int:
    """The simple-game value: 1 iff the coalition's weight reaches the quota."""
    return 1 if game.coalition_weight(members) >= game.quota else 0


def is_pivotal(game: Game, player: int, members: Iterable[int]) -> bool:
    """Whether ``player`` turns the losing coalition ``members`` into a winning one.

    Equivalent to the interval test ``quota - w_player <= w_T <= quota - 1``;
    the player must not already belong to the coalition.
    """
    coalition = game.coalition(members)
    game.check_player(player)
    if player in coalition:
        raise InvalidCoalitionError(f"player {player} is already in the coalition")
    total = sum(game.weights[p] for p in coalition)
    return game.quota - game.weights[player] <= total <= game.quota - 1


def delete_players(game: Game, victims: Iterable[int]) -> tuple[Game, dict[int, int]]:
    """Remove ``victims``; survivors keep their relative order.

    Returns the new game (same quota) and the index remap
    ``old index -> new index`` for every survivor, in ascending order.
    """
    kept = list(range(game.num_players))
    for victim in sorted(game.coalition(victims), reverse=True):
        del kept[victim]
    if not kept:
        raise InputError("cannot delete every player")
    remap = dict(zip(kept, range(len(kept))))
    weights = game.weights
    return Game(tuple([weights[p] for p in kept]), game.quota), remap


def weight_class_partition(game: Game) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Players grouped by equal weight as (weight, members) pairs, heaviest
    class first.

    Equal-weight players are interchangeable for the index of any *other*
    player, which is what lets searches enumerate per-class multisets
    instead of raw subsets.
    """
    by_weight: dict[int, list[int]] = {}
    for player, weight in enumerate(game.weights):
        by_weight.setdefault(weight, []).append(player)
    return tuple((weight, tuple(by_weight[weight])) for weight in sorted(by_weight, reverse=True))


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class ExactIndex:
    """An exact dyadic rational ``pivot_count / 2**exponent``, kept unreduced.

    ``==`` and ``<`` cross-shift (``a/2^e1 < b/2^e2  iff  a·2^e2 < b·2^e1``)
    so values from games of different sizes compare exactly; the rest of
    the order is derived from them by ``functools.total_ordering``.  Two
    values are equal iff they denote the same rational, regardless of
    representation, and hash as that rational's reduced fraction.
    """

    pivot_count: int
    exponent: int

    def __post_init__(self) -> None:
        for name in ("pivot_count", "exponent"):
            require_int(getattr(self, name), f"{name} must be an integer")
        if self.pivot_count < 0:
            raise InputError("pivot count must be nonnegative")
        if self.exponent < 0:
            raise InputError("exponent must be nonnegative")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactIndex):
            return NotImplemented
        return (
            self.pivot_count << other.exponent == other.pivot_count << self.exponent
        )

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ExactIndex):
            return NotImplemented
        return self.pivot_count << other.exponent < other.pivot_count << self.exponent

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def as_fraction(self) -> Fraction:
        return Fraction(self.pivot_count, 1 << self.exponent)

    def decimal(self) -> str:
        """Cosmetic six-digit decimal approximation; never used in comparisons."""
        if self.pivot_count == 0:
            return "0"
        with localcontext() as ctx:
            ctx.prec = 6
            # both conversions are exact; only the division rounds, so equal
            # rationals render identically whatever their representation
            value = Decimal(self.pivot_count) / Decimal(1 << self.exponent)
        return str(value)

    def __str__(self) -> str:
        return f"{decimal_str(self.pivot_count)}/2^{self.exponent}"

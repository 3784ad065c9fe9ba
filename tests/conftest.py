"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from wvgcontrol import (
    BandSystem,
    BlockKind,
    ControlInstance,
    DeletionCounter,
    Game,
    Goal,
    InputError,
    LightBlock,
)
from wvgcontrol.control import DeletionCandidate, _CandidateSpace
from wvgcontrol.verify import SUITES, CheckResult, SuiteOptions


@pytest.fixture
def example1() -> Game:
    """The worked six-player game (1, 2, 2, 2, 3, 3; 8)."""
    return Game((1, 2, 2, 2, 3, 3), 8)


def wide_interval_instance() -> ControlInstance:
    """A valid banded instance whose distinguished weight 4,097 spans a
    pivotal interval past the layered engine's limit of 4,096: heavies 1
    and 2, one enumerable block {3, 4}.  Its index is 8/2^4."""
    game = Game((4097, 6000, 6000, 1, 2), 10000)
    block = LightBlock("lo", BlockKind.ENUMERABLE, (3, 4), (1, 2), 1)
    bands = BandSystem(game=game, distinguished=0, heavy=frozenset({1, 2}), blocks=(block,))
    return ControlInstance(game, 0, 1, Goal.DECREASE, bands=bands)


def counter_terms(bands: BandSystem) -> list[tuple]:
    """Each term of a fresh ``DeletionCounter``, in walk order, rebuilt from
    its columns as (heavy player, per-block targets, per-block counts,
    product)."""
    counter = DeletionCounter(bands)
    return [
        (
            heavy,
            tuple(column[term] for column in counter._target_columns),
            tuple(column[term] for column in counter._count_columns),
            product,
        )
        for term, (heavy, product) in enumerate(zip(counter._heavies, counter._products))
    ]


def heavy_pivot_term(bands: BandSystem, heavy_player: int) -> int:
    """Pivotal coalitions of the distinguished player through one heavy
    player: its entry of ``DeletionCounter.heavy_terms(())``, which lists
    only the nonzero terms."""
    if heavy_player not in bands.heavy:
        raise InputError(f"player {heavy_player} is not heavy in this band system")
    return DeletionCounter(bands).heavy_terms(()).get(heavy_player, 0)


@dataclass(frozen=True)
class Decomposition:
    """Per-block targets that recompose exactly to a residual value."""

    targets: tuple[int, ...]


def decompose_target(bands: BandSystem, residual: int) -> Decomposition | None:
    """Split ``residual`` into per-block targets, each block taking its forced
    share from the most significant down; unique when it exists, ``None`` when
    some share is unreachable or a nonzero remainder survives the last block.

    This is the reference split that tests compare the walk against: it
    takes one residual at a time by its own rule, and shares no code with
    ``bands._split``, which the walk uses."""
    if residual < 0:
        raise InputError("residual must be nonnegative")
    targets = []
    for block in bands.blocks:
        if block.kind is BlockKind.SUPERINCREASING or not block.weights:
            share = 0
            for w in reversed(block.weights):
                if residual - share >= w:
                    share += w
        else:
            share = residual - residual % block.granularity
            if share > block.max_sum:
                return None
        targets.append(share)
        residual -= share
    return None if residual else Decomposition(tuple(targets))


def block_named(bands: BandSystem, name: str) -> LightBlock:
    """The block of ``bands`` named ``name``; ``InputError`` if there is none."""
    for block in bands.blocks:
        if block.name == name:
            return block
    raise InputError(f"no block named {name!r}")


def group_members(instance: ControlInstance, label: str) -> tuple[int, ...]:
    """The players labelled ``label``, in index order; none when the
    instance has no labels."""
    return tuple(p for p, found in enumerate(instance.groups or ()) if found == label)


def candidate(space: _CandidateSpace, rank: int, low: int, high: int) -> DeletionCandidate:
    """The ``rank``-th count vector of ``space`` with total in ``[low, high]``."""
    return space.candidate_of(frozenset(space.unrank(rank, low, high)))


def run_suite(name: str, options: SuiteOptions | None = None) -> list[CheckResult]:
    """Every check of the suite ``name``, in order; ``InputError`` for a name
    that ``verify.SUITES`` lacks."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return list(SUITES[name](options or SuiteOptions()))


def random_game(rng: random.Random, max_players: int = 16, max_weight: int = 50) -> Game:
    n = rng.randint(1, max_players)
    weights = tuple(rng.randint(0, max_weight) for _ in range(n))
    quota = rng.randint(1, max(sum(weights), 1) + 5)
    return Game(weights, quota)


@dataclass(frozen=True)
class BandClaim:
    """The arguments of a ``BandSystem``, each block as (name, kind,
    members, granularity) with its member weights read from the game, as
    an instance document states it."""

    game: Game
    distinguished: int
    heavy: frozenset[int]
    blocks: tuple[tuple[str, BlockKind, tuple[int, ...], int], ...]

    def light_blocks(self) -> tuple[LightBlock, ...]:
        """The claimed blocks; ``BandStructureError`` if one is wrong on its own."""
        weights = self.game.weights
        return tuple(
            LightBlock(name, kind, members, tuple(weights[m] for m in members), granularity)
            for name, kind, members, granularity in self.blocks
        )

    def build(self) -> BandSystem:
        """The band system; ``BandStructureError`` if the claim is wrong."""
        return BandSystem(self.game, self.distinguished, self.heavy, self.light_blocks())


_KINDS = st.sampled_from(BlockKind)
# how far inside a band rule's boundary a bottom-up claim lies
_SLACK = st.sampled_from((0, 0, 1, 3))
# the band rules a bottom-up claim can break by one unit
BAND_RULES = ("gap", "divisor", "light", "pair")


@st.composite
def bottom_up_band_claims(draw, broken: str | None = None) -> BandClaim:
    """A band claim built from its least significant block up, each rule
    at its boundary or a little inside it but for the ``broken`` one,
    which lies one unit past it: the blocks below a block weigh exactly its
    smallest gap ("gap"), an enumerable weight is one more than a multiple
    of the granularity ("divisor"), the light players reach the pivotal
    window ("light"), or the two lightest heavies sum to one less than the
    quota ("pair").  Each heavy player completes a random light subset
    (full, partial or empty in each block) to a pivotal weight at either
    end of the window or inside it, but for one whose weight may be cut to
    place the heavy pair.  At most 12 players, in shuffled positions."""

    def slack(rule: str) -> int:
        return -1 if rule == broken else draw(_SLACK)

    blocks, below, room = [], 0, 7  # (kind, weights, granularity) from the bottom
    for _ in range(draw(st.integers(2, 3))):
        kind = BlockKind.ENUMERABLE if broken == "divisor" else draw(_KINDS)
        size = draw(st.integers(broken == "gap", min(3, room)))  # a gap to break needs weights
        room -= size
        gap = max(below + 1 + slack("gap"), 1)  # the block's smallest gap
        if not size:  # an empty block bounds nothing below it
            weights, granularity = [], draw(st.integers(1, below + 2))
        elif kind is BlockKind.SUPERINCREASING:
            granularity = draw(st.sampled_from([d for d in range(1, gap + 1) if gap % d == 0]))
            tight = draw(st.integers(0, size - 1))  # the member whose slack is the gap
            weights, running = [], 0
            for index in range(size):
                extra = 0 if index == tight else granularity * draw(st.integers(0, 2))
                weights.append(running + gap + extra)
                running += weights[-1]
        elif kind is BlockKind.ENUMERABLE:
            granularity, weights = gap, [gap * draw(st.integers(1, 3)) for _ in range(size)]
            weights[-1] += broken == "divisor"
        else:
            granularity, weights = gap, [gap] * size
        blocks.append((kind, weights, granularity))
        below += sum(weights)

    w_p = draw(st.integers(1, 3))
    light = [w for _, weights, _ in blocks for w in weights]
    completions = []  # quota less each heavy player's weight
    # a broken pair needs two heavies; with a broken light rule, one keeps
    # any pair from raising the quota
    for _ in range(draw(st.integers(1 + (broken == "pair"), 1 if broken == "light" else 4))):
        taken = draw(st.integers(0, (1 << len(light)) - 1))  # a mask of light players
        end = draw(st.integers(1, w_p))
        completions.append(end + sum(w for i, w in enumerate(light) if taken >> i & 1))
    completions.sort()
    quota = below + w_p + 1 + slack("light")
    if len(completions) > 1:
        # the two lightest heavies weigh 2*quota less the two largest
        # completions; raise the quota or the largest one so they sum to
        # quota + pair
        pair = slack("pair")
        quota = max(quota, completions[-1] + completions[-2] + pair)
        completions[-1] = quota - pair - completions[-2]

    order = [*range(1 + len(completions) + len(light))]
    random.Random(draw(st.integers(0, 1 << 32))).shuffle(order)
    weights = [0] * len(order)
    weights[order[0]] = w_p
    heavy = order[1 : 1 + len(completions)]
    for player, completion in zip(heavy, completions):
        weights[player] = quota - completion
    positions = iter(order[1 + len(completions) :])
    claimed = []
    for index, (kind, block_weights, granularity) in enumerate(reversed(blocks)):
        members = tuple(next(positions) for _ in block_weights)
        for member, weight in zip(members, block_weights):
            weights[member] = weight
        claimed.append((f"b{index}", kind, members, granularity))
    return BandClaim(Game(tuple(weights), quota), order[0], frozenset(heavy), tuple(claimed))


@st.composite
def random_band_claims(draw) -> BandClaim:
    """A random claim on a random game of 2 to 10 players: up to three of
    the heaviest co-players claimed heavy, the rest dealt in weight order
    into up to three blocks of random kinds, each with the greatest common
    divisor of its weights or a random granularity.  The quota is drawn
    from the one at which the light players just reach the window up."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    distinguished = draw(st.integers(0, n - 1))
    others = sorted((p for p in range(n) if p != distinguished), key=lambda p: -weights[p])
    cut = draw(st.integers(0, min(3, len(others))))
    light = others[cut:]
    reach = weights[distinguished] + sum(weights[p] for p in light)
    quota = max(1, reach + draw(st.integers(0, 40)))
    bounds = sorted(draw(st.lists(st.integers(0, len(light)), max_size=2)))
    blocks = []
    for index, (lo, hi) in enumerate(zip([0, *bounds], [*bounds, len(light)])):
        members = tuple(reversed(light[lo:hi]))  # ascending weight
        gcd = math.gcd(*(weights[m] for m in members)) or 1
        granularity = draw(st.just(gcd) | st.integers(1, 8))
        blocks.append((f"b{index}", draw(_KINDS), members, granularity))
    return BandClaim(
        Game(tuple(weights), quota), distinguished, frozenset(others[:cut]), tuple(blocks)
    )

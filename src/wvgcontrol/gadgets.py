"""Compile CNF instances into control-by-deletion games.

Three builders translate a CNF formula (plus a deletion budget ``k`` and,
for the maintain goal, a target count ``ell``) into weighted voting games
whose distinguished player has a closed-form index.  All three assemble
through one frame; the nonincrease game is the decrease game built
without its S, U, Y, Y* and Z groups.  Player weights encode
the formula through the prereduction vectors (clause digits in base
``10^t``), and the remaining groups form no-carry bands so the layered
counter can verify every construction exactly.

A note on the heavy weights.  With quota ``q = 2*(w_A+w_B+w_C+w_E+10^t)+1``
the distinguished player (weight 1) is pivotal exactly for coalitions of
weight ``q - 1``.  Heavy players therefore carry weight
``(q - 1) - completion``, where ``completion`` is the exact light-weight
combination the group is meant to absorb; this is what makes the six-case
count factorise and reproduces the closed forms bit for bit.

A note on the light weights.  Every run of uniform light levels (the
maintain gadget's L levels, and the ladder X, X', Y, Y', Y*, Y**, Z, Z')
stacks by one rule, :func:`_stack`: a level's weight is one more than the
number of members of the level below, times that level's weight.  All
the members below a level then weigh less than one of its members, so
the levels add up without carries.  Each band block is declared where its
players are added, at the weights they were added with: the band system
lists E and ABC first, then the stacked levels from the top.

Strict mode enforces the parameter range the hardness argument needs
(``4 <= k < n``); relaxed mode accepts ``1 <= k < n`` so that every
construction stays small enough to cross-check against the brute-force
engines, and tags the instance accordingly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

from .bands import BandSystem, BlockKind, DeletionCounter, LightBlock
from .errors import GadgetParameterError, InputError, require_int
from .formulas import CnfFormula
from .game import ExactIndex, Game, delete_players


class Goal(str, Enum):
    """Relation the post-deletion index must bear to the original."""

    DECREASE = "DECREASE"
    NONINCREASE = "NONINCREASE"
    MAINTAIN = "MAINTAIN"
    INCREASE = "INCREASE"
    NONDECREASE = "NONDECREASE"


class GadgetConstructionNote(UserWarning):
    """Non-fatal notes about deliberate construction choices."""


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _stack(bottom: int, sizes: Sequence[int]) -> list[int]:
    """The weights of levels with ``sizes`` members stacked on ``bottom``.

    Returns one weight per level, then the weight of the next level up.
    Any sizes ``d_j`` stack without carries: by induction from ``w_1 =
    bottom``, ``w_{j+1} = (d_j+1)*w_j > d_j*w_j + sum(d_i*w_i, i < j)``.
    """
    weights = [bottom]
    for size in sizes:
        weights.append((size + 1) * weights[-1])
    return weights


@dataclass(frozen=True)
class PrereductionWeights:
    """The variable/clause weight vectors shared by all three gadgets.

    ``a_weights[i-1]`` carries variable ``x_i`` set true (a name digit at
    position ``t*(m+1)+i`` plus one clause digit per clause containing
    ``x_i``); ``b_weights`` is the negated-literal analogue and
    ``c_weights`` holds the clause toppers ``2^s * 10^(t*j)``.  A subset of
    all these weights sums to ``q_prime`` iff it picks exactly one of
    ``{a_i, b_i}`` per variable in a satisfying pattern, so
    ``#SubsetSum = #SAT``.
    """

    k: int
    num_clauses: int
    t: int
    a_weights: tuple[int, ...]
    b_weights: tuple[int, ...]
    c_weights: tuple[int, ...]
    q_prime: int

    def __post_init__(self) -> None:
        n = len(self.a_weights)
        if len(self.b_weights) != n:
            raise GadgetParameterError("a/b weight vectors must have equal length")
        if 10**self.t <= 1 << (_ceil_log2(n) + 1):
            raise GadgetParameterError("t violates the digit-separation bound")

    @property
    def num_variables(self) -> int:
        return len(self.a_weights)

    @property
    def abc_weights(self) -> tuple[int, ...]:
        return self.a_weights + self.b_weights + self.c_weights

    @property
    def scale(self) -> int:
        """The factor turning the base vectors into the E copies."""
        return 10 ** (self.t * (self.num_clauses + 1) + self.num_variables)

    @property
    def scaled_weights(self) -> tuple[int, ...]:
        """Weights of group E: every base weight times ``scale``."""
        return tuple(w * self.scale for w in self.abc_weights)

    @property
    def q_double_prime(self) -> int:
        return self.q_prime * self.scale


def build_prereduction(
    formula: CnfFormula, k: int, t_floor: int = 0
) -> PrereductionWeights:
    """Build the weight vectors for ``formula`` with prefix length ``k``.

    ``t`` is chosen minimal such that ``10^t`` exceeds both the
    digit-separation bound ``2^(ceil(log2 n)+1)`` and ``t_floor`` (gadget
    builders pass the chain bound through here).
    """
    n = formula.num_variables
    m = formula.num_clauses
    if not 1 <= k <= n:
        raise GadgetParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    ceil_log = _ceil_log2(n)
    bound = max(1 << (ceil_log + 1), t_floor)
    t = 1
    while 10**t <= bound:
        t += 1

    positive: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    negative: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for j, clause in enumerate(formula.clauses, start=1):
        for literal in clause:
            (positive if literal > 0 else negative)[abs(literal)].append(j)

    def name_digit(i: int) -> int:
        return 10 ** (t * (m + 1) + i)

    a_weights = tuple(
        name_digit(i) + sum(10 ** (t * j) for j in positive[i]) for i in range(1, n + 1)
    )
    b_weights = tuple(
        name_digit(i) + sum(10 ** (t * j) for j in negative[i]) for i in range(1, n + 1)
    )
    c_weights = tuple(
        (1 << s) * 10 ** (t * j) for j in range(1, m + 1) for s in range(0, ceil_log)
    )
    q_prime = sum(name_digit(i) for i in range(1, n + 1)) + (1 << ceil_log) * sum(
        10 ** (t * j) for j in range(1, m + 1)
    )
    return PrereductionWeights(
        k=k,
        num_clauses=m,
        t=t,
        a_weights=a_weights,
        b_weights=b_weights,
        c_weights=c_weights,
        q_prime=q_prime,
    )


@dataclass(frozen=True)
class DeltaDecomposition:
    """Binary split ``ell = 2^d_1 + ... + 2^d_h``, digits strictly decreasing.

    Level ``i`` has ``d_i`` players of weight ``w_i``, derived from the
    digits: the weights stack from ``w_1 = 1`` by :func:`_stack`, so the
    total weight of levels ``1..j`` stays below ``w_{j+1}``.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", _as_tuple("exponents", self.exponents))
        if not self.exponents:
            raise GadgetParameterError("exponents must not be empty")
        for d in self.exponents:
            require_int(d, "each exponent must be an integer", GadgetParameterError)
        if list(self.exponents) != sorted(set(self.exponents), reverse=True):
            raise GadgetParameterError("exponents must be strictly decreasing")
        if self.exponents[-1] < 0:
            raise GadgetParameterError(f"exponents must be nonnegative, got {self.exponents[-1]}")

    @property
    def level_weights(self) -> tuple[int, ...]:
        return tuple(_stack(1, self.exponents)[:-1])

    @property
    def h(self) -> int:
        return len(self.exponents)

    @classmethod
    def from_ell(cls, ell: int) -> DeltaDecomposition:
        if require_int(ell, "ell must be an integer", GadgetParameterError) < 1:
            raise GadgetParameterError("ell must be positive")
        exponents = tuple(
            d for d in range(ell.bit_length() - 1, -1, -1) if (ell >> d) & 1
        )
        return cls(exponents)


@dataclass(frozen=True)
class ControlInstance:
    """A control-by-deleting-players decision instance.

    ``groups`` carries one provenance label per player for gadget
    instances (``player-1``, ``A`` .. ``Z*``, ``L1``..); ``a_players`` /
    ``b_players`` locate the literal carriers so witness deletions can be
    constructed (``None`` marks a deleted carrier); hand-made games leave
    them empty.  The labels and carrier tables become tuples, whatever
    sequence they come as, and ``meta`` a dict of the instance's own.
    """

    game: Game
    distinguished: int
    budget: int
    goal: Goal
    groups: tuple[str, ...] | None = None
    bands: BandSystem | None = None
    a_players: tuple[int | None, ...] = ()
    b_players: tuple[int | None, ...] = ()
    meta: dict[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "goal", Goal(self.goal))
        except ValueError:
            raise InputError(
                f"unknown goal {self.goal!r}; expected one of {[g.value for g in Goal]}"
            ) from None
        if self.groups is not None:
            object.__setattr__(self, "groups", _as_tuple("groups", self.groups))
        for name in ("a_players", "b_players"):
            object.__setattr__(self, name, _as_tuple(name, getattr(self, name)))
        if not isinstance(self.meta, dict):
            raise InputError(f"meta must be a dict, got {self.meta!r}")
        object.__setattr__(self, "meta", dict(self.meta))
        for name in ("distinguished", "budget"):
            require_int(getattr(self, name), f"{name} must be an integer")
        self.game.check_player(self.distinguished)
        if not 0 <= self.budget < self.game.num_players:
            raise InputError(
                f"budget must satisfy 0 <= budget < {self.game.num_players}"
            )
        if self.groups is not None and len(self.groups) != self.game.num_players:
            raise InputError("group labels must cover every player exactly once")
        if self.bands is not None:
            if self.bands.game != self.game or self.bands.distinguished != self.distinguished:
                raise InputError("band metadata disagrees with the instance")
        if len(self.a_players) != len(self.b_players):
            raise InputError("a/b player tables must have equal length")
        for carrier in self.a_players + self.b_players:
            if carrier is not None:
                self.game.check_player(carrier)

    def delete(self, victims: Iterable[int]) -> ControlInstance:
        """The instance after deleting ``victims`` (never the distinguished player).

        Band metadata shrinks with the game: ``BandSystem.restrict`` takes
        the same victims and applies them through ``delete_players``, as
        this method does, and the constructor's band check confirms that
        both smaller games agree.  The budget is clamped below the new
        player count; goal and ``meta`` carry over through ``replace``.
        Control search calls this only for a witness and for the brute-force
        engines' candidates; layered search scores without deleting anything.
        """
        victim_set = frozenset(victims)
        if self.distinguished in victim_set:
            raise InputError("cannot delete the distinguished player")
        new_game, remap = delete_players(self.game, victim_set)

        def carriers(table: tuple[int | None, ...]) -> list[int | None]:
            return [None if p is None else remap.get(p) for p in table]

        return replace(
            self,
            game=new_game,
            distinguished=remap[self.distinguished],
            budget=min(self.budget, new_game.num_players - 1),
            groups=None if self.groups is None else [self.groups[p] for p in remap],
            bands=None if self.bands is None else self.bands.restrict(victim_set),
            a_players=carriers(self.a_players),
            b_players=carriers(self.b_players),
        )


def _as_tuple(name: str, entries: Iterable) -> tuple:
    """``entries`` as a tuple.  A bare string is refused, not split into
    one entry per character, and so is anything that is not iterable."""
    if not isinstance(entries, str):
        try:
            return tuple(entries)
        except TypeError:
            pass
    raise InputError(f"{name} must be a list or tuple, got {entries!r}")


def _check_mode(k: int, n: int, strict: bool) -> str:
    require_int(k, "k must be an integer", GadgetParameterError)
    if strict:
        if not 4 <= k < n:
            raise GadgetParameterError(
                f"strict mode needs 4 <= k < n, got k={k}, n={n} "
                "(use relaxed mode for oracle-scale instances)"
            )
        return "strict"
    if not 1 <= k < n:
        raise GadgetParameterError(f"relaxed mode needs 1 <= k < n, got k={k}, n={n}")
    return "relaxed"


class _GadgetFrame:
    """What the three gadgets share, in canonical player order.

    Construction adds player 1 and the groups A to F; the builder then adds
    its own heavy groups through ``add_group`` and ``add_family`` (and, for
    maintain, the L levels through ``add_level``); ``finish`` adds the
    ladder X, X', Y, Y', Y*, Y**, Z, Z', Z* and assembles the band system
    and the instance.  A band block is declared where its players are
    added: E and ABC at construction, the stacked levels bottom up through
    ``add_level``; the band system lists E and ABC first, then the levels
    from the top.  Every player is added through ``add_group``, which adds
    none for an ``omitted`` label; an omitted ladder level stays as an empty
    block.
    """

    def __init__(
        self, formula: CnfFormula, k: int, x: int, wide: int, narrow: int,
        omitted: tuple[str, ...] = (),
    ) -> None:
        self.formula, self.k, self._omitted = formula, k, omitted
        #: the ladder levels X .. Z' from the bottom up, as (label, members)
        self.ladder = (
            ("X", k), ("X'", 2 * k), ("Y", k + 1), ("Y'", wide),
            ("Y*", k + 1), ("Y**", wide), ("Z", narrow), ("Z'", narrow),
        )
        labels, sizes = zip(*self.ladder)
        #: ladder weight by label; Z* tops the ladder with ``(k+2)*z'`` doubled
        self.rung = rung = dict(zip(labels, _stack(x, sizes)))
        self.z_star = tuple((k + 2) * rung["Z'"] << i for i in range(k))
        self.pre = pre = build_prereduction(formula, k, t_floor=2 * self.z_star[-1])
        base_total = sum(pre.abc_weights)
        self.quota = 2 * (base_total + pre.scale * base_total + 10**pre.t) + 1
        self.weights: list[int] = []
        self.labels: list[str] = []
        self.heavy: list[int] = []
        #: the stacked level blocks, least significant first
        self.levels: list[LightBlock] = []
        self.add_group("player-1", [1])
        a_head = self.add_group("A", pre.a_weights[:k])
        b_head = self.add_group("A", pre.b_weights[:k])
        a_tail = self.add_group("B", pre.a_weights[k:])
        b_tail = self.add_group("B", pre.b_weights[k:])
        self.a_idx, self.b_idx = a_head + a_tail, b_head + b_tail
        c_idx = self.add_group("C", pre.c_weights)
        self.add_family("D", [pre.q_prime + rung["X'"]], (rung["X"], range(k)))
        e_idx = self.add_group("E", pre.scaled_weights)
        self.add_family("F", [pre.q_double_prime + rung["X'"]])
        #: the two clause-encoding blocks, E above ABC
        self.clause_blocks = (
            self.block("E", BlockKind.ENUMERABLE, e_idx, 10**pre.t * pre.scale),
            self.block(
                "ABC", BlockKind.ENUMERABLE, self.a_idx + self.b_idx + c_idx, 10**pre.t
            ),
        )
        #: ``pairs[i]`` is the weight of both literals of variable ``x_{i+1}``, ``i < k``
        self.pairs = [a + b for a, b in zip(pre.a_weights[:k], pre.b_weights[:k])]

    def add_group(self, label: str, group_weights: Iterable[int]) -> list[int]:
        """Add a player of each weight under ``label``, none for an omitted
        label, and return their indices."""
        if label in self._omitted:
            return []
        start = len(self.weights)
        self.weights += group_weights
        self.labels += [label] * (len(self.weights) - start)
        return [*range(start, len(self.weights))]

    def block(
        self, label: str, kind: BlockKind, members: Sequence[int], granularity: int
    ) -> LightBlock:
        """The band block of ``members``, at the weights they were added with."""
        return LightBlock(label, kind, members, [self.weights[p] for p in members], granularity)

    def add_level(
        self, label: str, kind: BlockKind, weights: Sequence[int], granularity: int
    ) -> None:
        """Add a stacked level's players on top of the levels added so far."""
        members = self.add_group(label, weights)
        self.levels.append(self.block(label, kind, members, granularity))

    def add_family(
        self, label: str, bases: Iterable[int], *terms: tuple[int, Sequence[int]]
    ) -> None:
        """One heavy player of weight ``(quota - 1) - completion`` for each
        completion ``base + m_1*w_1 + m_2*w_2 + ...``.

        Each term is ``(w, multipliers)``; completions come in nested-loop
        order, bases outermost, then each term in turn.
        """
        completions = list(bases)
        for weight, multipliers in terms:
            completions = [c + m * weight for c in completions for m in multipliers]
        self.heavy += self.add_group(label, [self.quota - 1 - c for c in completions])

    def finish(self, goal: Goal, meta: dict[str, object]) -> ControlInstance:
        """Add the ladder and build the instance; ``meta`` follows kind (the
        goal's name in lower case), k, n, m, t."""
        pre, k = self.pre, self.k
        for label, size in self.ladder:
            weight = self.rung[label]
            self.add_level(label, BlockKind.UNIFORM_CHAIN_LEVEL, [weight] * size, weight)
        self.add_level("Z*", BlockKind.SUPERINCREASING, self.z_star, self.z_star[0])

        game = Game(tuple(self.weights), self.quota)
        bands = BandSystem(
            game=game,
            distinguished=0,
            heavy=self.heavy,
            blocks=(*self.clause_blocks, *reversed(self.levels)),  # most significant first
        )
        return ControlInstance(
            game=game,
            distinguished=0,
            budget=k,
            goal=goal,
            groups=self.labels,
            bands=bands,
            a_players=self.a_idx,
            b_players=self.b_idx,
            meta={
                "kind": goal.value.lower(),
                "k": k,
                "n": self.formula.num_variables,
                "m": self.formula.num_clauses,
                "t": pre.t,
                **meta,
            },
        )


def build_decrease(formula: CnfFormula, k: int, strict: bool = True) -> ControlInstance:
    """The decrease-goal game for ``(formula, k)``.

    Expected index of the distinguished player:
    ``(2k*2^k*xi + k*(2^n + 2^(k+1))*(2^(k+1) - 1)) / 2^(|N|-1)`` where
    ``xi`` is the model count of the formula.
    """
    return _build_minority_gadget(formula, k, strict, Goal.DECREASE)


def build_nonincrease(
    formula: CnfFormula, k: int, strict: bool = True
) -> ControlInstance:
    """The nonincrease-goal game: the decrease game built without S, U, Y, Y*, Z."""
    omitted = ("S", "U", "Y", "Y*", "Z")
    return _build_minority_gadget(formula, k, strict, Goal.NONINCREASE, omitted)


def _build_minority_gadget(
    formula: CnfFormula, k: int, strict: bool, goal: Goal, omitted: tuple[str, ...] = ()
) -> ControlInstance:
    n = formula.num_variables
    mode = _check_mode(k, n, strict)
    frame = _GadgetFrame(formula, k, x=1, wide=n, narrow=k + 1, omitted=omitted)
    rung, pairs, z_star = frame.rung, frame.pairs, frame.z_star
    frame.add_family("S", pairs, (rung["Y"], range(k + 2)), (rung["Z"], range(1, k + 1)))
    frame.add_family("T", pairs, (rung["Y'"], range(n + 1)), (rung["Z'"], range(1, k + 1)))
    frame.add_family("U", z_star, (rung["Y*"], range(k + 2)))
    frame.add_family("V", z_star, (rung["Y**"], range(n + 1)))
    return frame.finish(goal, {"mode": mode})


def exactify(formula: CnfFormula, k: int, ell: int) -> tuple[CnfFormula, int, int]:
    """Append ``(x_{n+1} or x_{n+2})`` and triple ``ell``.

    The new clause is independent of the old variables and true under
    exactly three of the four assignments to the fresh pair, so a prefix
    has exactly ``ell`` satisfying suffixes in the original formula iff it
    has exactly ``3*ell`` in the extension.  ``3*ell`` is never a power of
    two, which is what the maintain builder needs.
    """
    if require_int(ell, "ell must be an integer", GadgetParameterError) < 1:
        raise GadgetParameterError("ell must be positive")
    n = formula.num_variables
    extended = CnfFormula(
        n + 2, formula.clauses + (frozenset({n + 1, n + 2}),)
    )
    return extended, k, 3 * ell


def build_maintain(
    formula: CnfFormula, k: int, ell: int, strict: bool = True
) -> ControlInstance:
    """The maintain-goal game for ``(formula, k, ell)``.

    Expected index of the distinguished player:
    ``(2k*2^k*xi + k*ell*(2^(n+2) + 2^(k+1))*2^k) / 2^(|N|-1)``.

    In strict mode ``ell`` must not be a power of two (run :func:`exactify`
    first); relaxed mode accepts any positive ``ell``.
    """
    n = formula.num_variables
    mode = _check_mode(k, n, strict)
    delta = DeltaDecomposition.from_ell(ell)
    if strict and delta.h == 1:
        raise GadgetParameterError(
            "strict mode requires ell with more than one binary digit; "
            "apply exactify() to the source instance first"
        )
    warnings.warn(
        "maintain level weights follow w_1=1, w_j=(d_{j-1}+1)*w_{j-1}; the "
        "variant (d_j+1)*w_{j-1} would break the no-carry invariant",
        GadgetConstructionNote,
        stacklevel=2,
    )
    levels = list(zip(delta.exponents, delta.level_weights))
    # the ladder stacks on the L levels
    frame = _GadgetFrame(formula, k, x=_stack(1, delta.exponents)[-1], wide=n + 2, narrow=k)
    rung, pairs, z_star = frame.rung, frame.pairs, frame.z_star
    for i, (d_i, w_i) in enumerate(levels):
        frame.add_level(f"L{i + 1}", BlockKind.UNIFORM_CHAIN_LEVEL, [w_i] * d_i, w_i)
    v_multiset = [0, 0] + list(range(1, n + 2)) + [n + 2, n + 2]
    for d_i, w_i in levels:
        l_term = (w_i, range(d_i + 1))
        frame.add_family("S", pairs, (rung["Y"], range(k + 2)), (rung["Z"], range(k)), l_term)
        frame.add_family("T", pairs, (rung["Y'"], range(n + 3)), (rung["Z'"], range(k)), l_term)
        frame.add_family("U", pairs, (rung["Y*"], range(1, k + 1)), l_term)
        frame.add_family("V", z_star, (rung["Y**"], v_multiset), l_term)
    return frame.finish(
        Goal.MAINTAIN, {"ell": ell, "delta_exponents": list(delta.exponents), "mode": mode}
    )


@dataclass(frozen=True)
class CaseCounts:
    """Pivotal-coalition counts split by the heavy group carrying them.

    Case 1 counts coalitions through D, case 2 through F, cases 3-6
    through S, T, U and V respectively.
    """

    case1: int
    case2: int
    case3: int
    case4: int
    case5: int
    case6: int

    @property
    def total(self) -> int:
        return self.case1 + self.case2 + self.case3 + self.case4 + self.case5 + self.case6


_CASE_GROUPS = ("D", "F", "S", "T", "U", "V")


def expected_case_counts(
    goal: Goal, k: int, n: int, xi: int, ell: int | None = None
) -> CaseCounts:
    """Closed-form per-case pivotal counts for a gadget built from (k, n, xi[, ell])."""
    case1 = 2 * k * ((1 << k) - 1) * xi
    case2 = 2 * k * xi
    if goal is Goal.DECREASE or goal is Goal.NONINCREASE:
        counts = CaseCounts(
            case1,
            case2,
            case3=k * (1 << (k + 1)) * ((1 << (k + 1)) - 2),
            case4=k * (1 << n) * ((1 << (k + 1)) - 2),
            case5=k * (1 << (k + 1)),
            case6=k * (1 << n),
        )
        if goal is Goal.NONINCREASE:  # no S and U players
            counts = replace(counts, case3=0, case5=0)
        return counts
    if goal is Goal.MAINTAIN:
        if ell is None:
            raise InputError("the maintain closed form needs ell")
        return CaseCounts(
            case1,
            case2,
            case3=k * ell * (1 << (k + 1)) * ((1 << k) - 1),
            case4=k * ell * (1 << (n + 2)) * ((1 << k) - 1),
            case5=k * ell * ((1 << (k + 1)) - 2),
            case6=k * ell * ((1 << (n + 2)) + 2),
        )
    raise InputError(f"no closed form for goal {goal}")


def expected_index(
    goal: Goal, k: int, n: int, xi: int, num_players: int, ell: int | None = None
) -> ExactIndex:
    """The closed-form index ``(case total) / 2^(num_players - 1)``."""
    counts = expected_case_counts(goal, k, n, xi, ell)
    return ExactIndex(counts.total, num_players - 1)


def layered_case_counts(instance: ControlInstance) -> CaseCounts:
    """Per-case pivotal counts of a gadget instance, from one layered walk."""
    if instance.bands is None or instance.groups is None:
        raise InputError("per-case counting needs band metadata and group labels")
    totals = {label: 0 for label in _CASE_GROUPS}
    terms = DeletionCounter(instance.bands).heavy_terms(())
    for player in sorted(instance.bands.heavy):
        label = instance.groups[player]
        if label not in totals:
            raise InputError(f"heavy player {player} carries unexpected label {label!r}")
        totals[label] += terms.get(player, 0)
    return CaseCounts(*(totals[label] for label in _CASE_GROUPS))


def witness_deletion(
    instance: ControlInstance, prefix: Sequence[int]
) -> frozenset[int]:
    """The deletion set encoding a prefix assignment into the A group.

    For each ``i <= k`` the set removes the carrier of ``b_i`` when
    ``x_i`` is true and the carrier of ``a_i`` otherwise, so the surviving
    A players force exactly the given prefix on every full-weight subset.
    """
    k = instance.meta.get("k")
    if k is None:
        raise InputError("instance carries no A-group provenance")
    require_int(k, "the instance's meta k must be an integer")
    if len(prefix) != k:
        raise InputError(f"prefix length {len(prefix)} != k={k}")
    if len(instance.a_players) < k:
        raise InputError(
            f"instance has no literal carrier for variable {len(instance.a_players) + 1}"
        )
    victims: set[int] = set()
    for i, bit in enumerate(prefix):
        if require_int(bit, "prefix entries must be 0 or 1") not in (0, 1):
            raise InputError(f"prefix entries must be 0 or 1, got {bit!r}")
        carrier = instance.b_players[i] if bit else instance.a_players[i]
        if carrier is None:
            raise InputError(f"literal carrier for variable {i + 1} was already deleted")
        victims.add(carrier)
    return frozenset(victims)

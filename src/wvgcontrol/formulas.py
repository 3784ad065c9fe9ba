"""CNF formulas and the brute-force decision/counting oracles.

These oracles anchor every reduction check: exact model counting, the
minority question ("does fixing the first k variables leave at most half
of the suffix assignments satisfying?") and the exact-count variant.
Everything enumerates within an explicit variable budget and refuses
beyond it.

Input conventions are enforced by ``CnfFormula`` alone (see its docstring).

Assignments are encoded two ways: externally as tuples of 0/1 with
position ``i`` holding variable ``x_{i+1}``, internally as bitmasks whose
bit ``i-1`` is the value of ``x_i``.  Witnesses are always the
lexicographically least prefix (all-false first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .engines import count_subsets_mitm
from .errors import BudgetExceededError, FormulaError, InputError, require_int

MAX_ORACLE_VARIABLES = 26
MAX_SUBSET_SUM_ITEMS = 44

Prefix = tuple[int, ...]


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula over variables ``1..num_variables``.

    Clauses are sets of nonzero literals; literal ``v`` means the variable
    is true, ``-v`` that it is false.  Construction alone judges clause
    validity: no clause is empty, out of range or tautological (trivially
    true), and every variable of the range occurs in some clause.
    """

    num_variables: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        require_int(self.num_variables, "num_variables must be an integer", FormulaError)
        if self.num_variables < 1:
            raise FormulaError("a formula needs at least one variable")
        object.__setattr__(
            self, "clauses", tuple(frozenset(clause) for clause in self.clauses)
        )
        occurring: set[int] = set()
        for position, clause in enumerate(self.clauses, start=1):
            if not clause:
                raise FormulaError(f"clause {position} is empty")
            for literal in clause:
                variable = abs(literal)
                if literal == 0 or not 1 <= variable <= self.num_variables:
                    raise FormulaError(
                        f"clause {position}: literal {literal} out of range"
                    )
                occurring.add(variable)
            for literal in clause:
                if -literal in clause:
                    raise FormulaError(
                        f"clause {position} contains x{abs(literal)} and its negation; "
                        "tautological clauses are rejected, strip them explicitly with "
                        "--strip-tautologies (parse_dimacs's strip_tautologies=True)"
                    )
        missing = self.num_variables - len(occurring)
        if missing:
            # the first five missing lie among the first len(occurring) + 5 variables
            last = min(self.num_variables, len(occurring) + 5)
            first = [v for v in range(1, last + 1) if v not in occurring][:5]
            more = f" ({missing} in all)" if missing > len(first) else ""
            raise FormulaError(f"variables {first}{more} never occur in any clause")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str, strip_tautologies: bool = False) -> CnfFormula:
    """Parse DIMACS cnf in one pass, closing a clause at each 0.

    Only the DIMACS framing is checked here; ``CnfFormula`` judges the
    clauses.  ``strip_tautologies`` drops tautological clauses before the
    formula is built (explicit normalisation, never silent).
    """
    num_variables: int | None = None
    declared_clauses = 0
    clauses: list[frozenset[int]] = []
    current: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_variables is not None:
                raise FormulaError(f"line {line_no}: duplicate problem line")
            match = re.fullmatch(r"p\s+cnf\s+(\d+)\s+(\d+)", line)
            if not match:
                raise FormulaError(f"line {line_no}: malformed problem line {line!r}")
            try:
                num_variables, declared_clauses = int(match.group(1)), int(match.group(2))
            except ValueError:  # a count past the interpreter's int/str digit limit
                raise FormulaError(f"line {line_no}: problem line count has too many digits")
            continue
        if num_variables is None:
            raise FormulaError(f"line {line_no}: clause before the problem line")
        for token in line.split():
            try:
                literal = int(token)
            except ValueError:
                raise FormulaError(f"line {line_no}: non-integer token in {line!r}")
            if literal:
                current.append(literal)
            else:
                clauses.append(frozenset(current))
                current = []
    if num_variables is None:
        raise FormulaError("missing problem line 'p cnf n m'")
    if current:
        raise FormulaError("last clause is not terminated by 0")
    if declared_clauses != len(clauses):
        raise FormulaError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}"
        )
    if strip_tautologies:
        clauses = [c for c in clauses if not any(-literal in c for literal in c)]
    return CnfFormula(num_variables, tuple(clauses))


def _check_variable_budget(formula: CnfFormula) -> None:
    if formula.num_variables > MAX_ORACLE_VARIABLES:
        raise BudgetExceededError(
            f"oracle refuses {formula.num_variables} variables "
            f"(MAX_ORACLE_VARIABLES={MAX_ORACLE_VARIABLES})"
        )


def _tile(pattern: int, period: int, width: int) -> int:
    """``pattern``, ``period`` bits wide, repeated to fill ``width`` bits."""
    while period < width:
        pattern |= pattern << period
        period *= 2
    return pattern


def _variable_bitmap(variable: int, width_bits: int) -> int:
    """Bitmap over masks ``0..width_bits-1``, bit m set iff x_variable is true in m."""
    block = ((1 << (1 << (variable - 1))) - 1) << (1 << (variable - 1))
    return _tile(block, 1 << variable, width_bits)


def _clause_bitmap(clause: frozenset[int], num_variables: int) -> int:
    """Satisfaction bitmap of one clause over all 2^n assignment masks.

    The clause only depends on its own variables, so the pattern is built
    at period ``2^(max variable)`` and then replicated to full width.
    """
    period = 1 << max(abs(lit) for lit in clause)
    local_universe = (1 << period) - 1
    pattern = 0
    for literal in clause:
        vmap = _variable_bitmap(abs(literal), period)
        pattern |= vmap if literal > 0 else (~vmap & local_universe)
    return _tile(pattern, period, 1 << num_variables)


def _satisfying_bitmap(formula: CnfFormula) -> int:
    """Bitmap over all assignment masks, bit set iff the formula is satisfied.

    One sweep over the whole assignment space, done with word-parallel
    big-integer bit operations instead of a per-assignment loop.
    """
    n = formula.num_variables
    result = (1 << (1 << n)) - 1
    for clause in formula.clauses:
        result &= _clause_bitmap(clause, n)
    return result


def count_sat(formula: CnfFormula) -> int:
    """Exact number of satisfying total assignments."""
    _check_variable_budget(formula)
    return _satisfying_bitmap(formula).bit_count()


def suffix_satisfying_counts(formula: CnfFormula, k: int) -> list[int]:
    """For every assignment to ``x_1..x_k``: how many suffix assignments satisfy.

    Index into the result with the prefix's low-bit encoding
    ``sum(x_i << (i-1))``.  Summed over all prefixes this equals
    ``count_sat`` (one satisfying bitmap is bucketed, not 2^k sweeps).
    """
    _check_variable_budget(formula)
    n = formula.num_variables
    if not 0 <= k <= n:
        raise InputError(f"prefix length {k} out of range for {n} variables")
    bitmap = _satisfying_bitmap(formula)
    stride_mask = _tile(1, 1 << k, 1 << n)  # bits at multiples of 2^k
    counts = []
    for prefix_bits in range(1 << k):
        counts.append(((bitmap >> prefix_bits) & stride_mask).bit_count())
    return counts


def _least_prefix(
    formula: CnfFormula, k: int, accepts: Callable[[int], bool]
) -> tuple[bool, Prefix | None]:
    """``(True, p)`` for the lexicographically least length-``k`` prefix ``p``
    whose suffix satisfying count ``accepts`` takes, else ``(False, None)``."""
    if not 1 <= require_int(k, "k must be an integer") <= formula.num_variables:
        raise InputError(f"k={k} out of range, need 1 <= k <= {formula.num_variables}")
    counts = suffix_satisfying_counts(formula, k)
    for code in range(1 << k):
        # x_1 is the code's most significant bit but the count index's lowest
        prefix = tuple((code >> (k - 1 - i)) & 1 for i in range(k))
        if accepts(counts[sum(bit << i for i, bit in enumerate(prefix))]):
            return True, prefix
    return False, None


def e_minority_sat(formula: CnfFormula, k: int) -> tuple[bool, Prefix | None]:
    """Is there a prefix leaving at most half of the suffixes satisfying?

    Returns the verdict and the lexicographically least witness prefix
    (``None`` on a no-instance).
    """
    # "at most half of 2^(n-k)", written multiplicatively so k = n works
    return _least_prefix(formula, k, lambda count: 2 * count <= 1 << (formula.num_variables - k))


def e_exact_sat(formula: CnfFormula, k: int, ell: int) -> tuple[bool, Prefix | None]:
    """Is there a prefix leaving exactly ``ell`` suffixes satisfying?

    Returns the verdict and the lexicographically least witness prefix
    (``None`` on a no-instance).  ``ell`` must be a positive integer.
    """
    if require_int(ell, "ell must be an integer") < 1:
        raise InputError(f"ell must be positive, got {ell}")
    return _least_prefix(formula, k, lambda count: count == ell)


def count_subset_sum(sizes: list[int] | tuple[int, ...], target: int) -> int:
    """Exact number of index subsets of ``sizes`` summing to ``target``.

    The empty subset counts for target 0.  Meet-in-the-middle (the
    engines' shared core), refused beyond ``MAX_SUBSET_SUM_ITEMS`` items.
    """
    require_int(target, "target must be an integer")
    items = [require_int(s, "sizes must be integers") for s in sizes]
    if any(s < 0 for s in items):
        raise InputError("sizes must be nonnegative")
    if len(items) > MAX_SUBSET_SUM_ITEMS:
        raise BudgetExceededError(
            f"subset-sum counter refuses {len(items)} items "
            f"(MAX_SUBSET_SUM_ITEMS={MAX_SUBSET_SUM_ITEMS})"
        )
    return count_subsets_mitm(items, target, target)

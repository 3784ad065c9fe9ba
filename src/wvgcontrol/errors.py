"""Exception hierarchy shared across the package, and its one integer rule.

Errors are split by what the caller can do about them: input problems
(``InputError`` family) versus deliberate refusals to run an algorithm
outside its configured budget (``BudgetExceededError``) versus violated
structural preconditions of the layered counter (``BandStructureError``).
"""


class WvgError(Exception):
    """Base class for every error raised by this package."""


class InputError(WvgError, ValueError):
    """Malformed or invalid user-supplied data."""


class InvalidCoalitionError(InputError):
    """A coalition refers to players outside the game, or violates a
    coalition precondition (e.g. pivotality asked for a member)."""


class FormulaError(InputError):
    """A CNF formula violates the input conventions (tautological clause,
    unused variable, out-of-range literal, malformed DIMACS)."""


class GadgetParameterError(InputError):
    """Reduction parameters outside the allowed range for the chosen mode."""


class FileFormatError(InputError):
    """A game or instance document does not match the documented schema."""


class BudgetExceededError(WvgError):
    """An engine refused an instance larger than its configured budget.

    Refusal is explicit and names the budget; engines never silently fall
    back to a different algorithm.
    """


class BandStructureError(WvgError):
    """A band-system invariant does not hold: a broken partition, a block
    whose weights break its own kind, blocks below a nonempty block that
    weigh at least its smallest gap (no-carry violation), light players
    that reach the pivotal window alone, or two heavy players whose sum is
    below the quota."""


def require_int(value: object, refusal: str, error: type[Exception] = InputError) -> int:
    """``value`` if it is an int but not a bool (nor a float, even ``1.0``),
    else ``error(f"{refusal}, got {value!r}")``: no count or index is a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(f"{refusal}, got {value!r}")

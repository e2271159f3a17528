"""Exception hierarchy shared by all simulator components, how an error
message quotes the input it rejects, and the collector pause of the entry
points."""

import functools
import gc

ECHO_CHARS = 32


def echo(value: object, quote=repr) -> str:
    """A rejected input as an error message quotes it, so every error line
    stays short: ``quote`` of a string (``str`` for a name in a path), cut to
    its first ``ECHO_CHARS`` characters plus its length when longer, and the
    type name of anything else."""
    if type(value) is not str:
        return type(value).__name__
    if len(value) <= ECHO_CHARS:
        return quote(value)
    return f"{quote(value[:ECHO_CHARS])}... ({len(value)} characters)"


def collector_paused(function):
    """``function`` with CPython's cyclic collector off while it runs.

    Nothing a parse, run, render or oracle call builds forms a reference
    cycle (a run's ledger holds nothing above it: the runner hands each clock
    call the orchestrator's ``on_wakeup``), so everything it drops is
    freed by reference counting, while each automatic collection would walk
    all it still holds: on a large script, the parsed events and the run's
    records again and again.  The collector
    is turned off only if it was on, and turned back on when ``function``
    returns or raises; a caller that had turned it off keeps it off.  The
    simulator is single-writer: a thread that switches the collector while
    ``function`` runs has its setting overridden when ``function`` returns.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class SimulationError(Exception):
    """Base class for every error raised by the simulator."""


class InvariantViolation(Exception):
    """A money invariant broke: a simulator defect, never an input error.

    Deliberately not a ``SimulationError``: the scenario runner files those
    as event errors and carries on, while this must stop the run.
    """


# ---- ledger ----------------------------------------------------------------

class UnknownAddress(SimulationError):
    """Address is not a registered account or contract."""


class InsufficientFunds(SimulationError):
    """Sender balance cannot cover value plus gas fee."""


class GasPriceOutOfRange(SimulationError):
    """Gas price falls outside the configured GWEI bounds."""


# ---- contract state machines ------------------------------------------------

class WrongState(SimulationError):
    """Operation not allowed in the contract's current state."""


class NotOwner(SimulationError):
    """Caller is not the contract owner."""


class NotEndUser(SimulationError):
    """Caller is not the recorded end user."""


class NotYetReleased(SimulationError):
    """Expiry requested before the release time."""


class QuotaExhausted(SimulationError):
    """No prepaid minutes remain on the quota."""


class SessionAlreadyOpen(SimulationError):
    """A metered session is already running on this quota."""


class NoOpenSession(SimulationError):
    """Stop requested but no metered session is open."""


class InvalidShares(SimulationError):
    """Income shares are empty, non-positive, or do not sum to the denominator."""


class NotAVoter(SimulationError):
    """Address is not registered in the voter set."""


class AlreadyVoted(SimulationError):
    """Voter has already cast a ballot."""


# ---- pricing / orchestration --------------------------------------------------

class InvalidPreferences(SimulationError):
    """Service preferences violate their invariants."""


class InadmissibleOffer(SimulationError):
    """Constraint evaluation rejected the provider offer."""


class QuoteExpired(SimulationError):
    """Payment arrived after the quote's expiry block."""


class SessionNotActive(SimulationError):
    """Session is not in a deployed, unsettled state."""


# ---- scenario ingestion --------------------------------------------------------

class ParseError(SimulationError):
    """Scenario document is not well formed."""


class ValidationError(SimulationError):
    """Scenario document violates schema invariants, or a run meets an unknown
    label (the runner) or a payment other than its quote (``contracts``)."""

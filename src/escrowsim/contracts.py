"""Escrow agreement contracts.

Seven monetization templates over one explicit state machine:

    DEPLOYED -> QUOTED -> USER_SIGNED -> ACTIVE -> SETTLED

Escrow is strictly positive exactly in USER_SIGNED and ACTIVE, and zero once
SETTLED.  A contract settles from its own terms, its availability counts and
the ledger's clock, ``ledger.timestamp``.  All money math is exact integer wei;
prorated charges round down so the remainder favors the end user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import (
    AlreadyVoted,
    InvalidShares,
    InvariantViolation,
    NoOpenSession,
    NotAVoter,
    NotEndUser,
    NotOwner,
    NotYetReleased,
    QuotaExhausted,
    QuoteExpired,
    SessionAlreadyOpen,
    ValidationError,
    WrongState,
    echo,
)
from .ledger import Ledger
from .units import require_amount

BP_SCALE = 10_000
DEFAULT_REFUND_THRESHOLD_BP = 7_500  # availability below this forces a full refund
IDENTITY_MULTIPLIER_BP = 10_000


class ContractState(Enum):
    DEPLOYED = "deployed"
    QUOTED = "quoted"
    USER_SIGNED = "user_signed"
    ACTIVE = "active"
    SETTLED = "settled"


class ContractKind(Enum):
    FIXED_PRICE = "fixed_price"
    DYNAMIC_PRICE = "dynamic_price"
    TIME_LIMITED_QUOTA = "time_limited_quota"
    FLEXIBLE_PERIOD = "flexible_period"
    INCOME_DIVISION = "income_division"
    CONSENSUS_DECISION = "consensus_decision"
    CONSTRAINT_BASED = "constraint_based"


# Kinds whose escrow settles by the time-based stop/expire path.
TIME_SETTLED_KINDS = frozenset(
    {
        ContractKind.FIXED_PRICE,
        ContractKind.DYNAMIC_PRICE,
        ContractKind.FLEXIBLE_PERIOD,
        ContractKind.CONSTRAINT_BASED,
    }
)


# ---------------------------------------------------------------------------
# per-kind terms
# ---------------------------------------------------------------------------

@dataclass
class QuotaTerms:
    """Prepaid per-minute balance consumed across start/stop sessions."""

    per_minute_price: int
    minutes_purchased: int = 0
    minutes_consumed: int = 0
    open_session_start: Optional[int] = None
    sessions: list[dict] = field(default_factory=list)

    def minutes_remaining(self) -> int:
        return self.minutes_purchased - self.minutes_consumed


@dataclass(frozen=True)
class IncomeShares:
    """Ordered integer shares over a common denominator; they must sum exactly."""

    numerators: dict[str, int]
    denominator: int

    def __post_init__(self) -> None:
        if not self.numerators or self.denominator <= 0:
            raise InvalidShares("shares must be non-empty with a positive denominator")
        if any(n <= 0 for n in self.numerators.values()):
            raise InvalidShares("every share must be > 0")
        if sum(self.numerators.values()) != self.denominator:
            raise InvalidShares(
                f"numerators sum to {sum(self.numerators.values())}, "
                f"denominator is {self.denominator}"
            )


@dataclass
class VotingState:
    """Strict-majority ballot gating the companion agreement contract."""

    voters: frozenset[str]
    votes: dict[str, str] = field(default_factory=dict)  # voter -> "yes" | "no"
    enacted: bool = False  # sticky once a tally reaches strict majority


@dataclass(frozen=True)
class ConstraintTerms:
    """Legal/regional admissibility plus a price multiplier in basis points."""

    gdpr_required: bool = False
    allowed_regions: frozenset[str] = frozenset()
    price_multiplier_bp: int = IDENTITY_MULTIPLIER_BP

    def __post_init__(self) -> None:
        if self.price_multiplier_bp < 0:
            raise ValueError("price multiplier must be >= 0")


@dataclass(frozen=True)
class FlexibleTerms:
    """Standby guarantee: a non-refundable minimum charge for fast deployment."""

    standby_rate: int  # wei per second
    standby_window_seconds: int

    def __post_init__(self) -> None:
        require_amount(self.standby_rate, "standby_rate")
        if self.standby_window_seconds < 1:
            raise ValueError(
                f"standby window must be >= 1 second, got {self.standby_window_seconds}"
            )

    @property
    def min_charge(self) -> int:
        """Charged whatever the usage: the standby rate over the whole window."""
        return self.standby_rate * self.standby_window_seconds


@dataclass(frozen=True)
class Settlement:
    """Final money split of one contract: owner-side payouts plus user refund."""

    charge: int
    refund: int
    payouts: dict[str, int]


# ---------------------------------------------------------------------------
# the agreement contract
# ---------------------------------------------------------------------------

@dataclass
class AgreementContract:
    """One deployed contract instance; escrow accounting lives on the ledger."""

    kind: ContractKind
    owner: str
    end_user: str
    price: int = 0  # max price for time-based templates
    lock_time_seconds: int = 0
    quote_expires_at_block: int = 0  # last block height that accepts the payment
    refund_threshold_bp: int = DEFAULT_REFUND_THRESHOLD_BP
    state: ContractState = ContractState.DEPLOYED
    session_start_time: int = 0
    release_time: int = 0
    escrow: int = 0
    address: str = ""
    quota: Optional[QuotaTerms] = None
    shares: Optional[IncomeShares] = None
    voting: Optional[VotingState] = None
    constraints: Optional[ConstraintTerms] = None
    flexible: Optional[FlexibleTerms] = None
    division: Optional[AgreementContract] = None  # agreement routed through a division contract
    settlement: Optional[Settlement] = None
    samples: int = 0  # availability observations
    samples_up: int = 0  # of which the service was up

    def availability_bp(self) -> int:
        """Unweighted sample mean, floored to basis points; no samples = fully up."""
        if not self.samples:
            return BP_SCALE
        return BP_SCALE * self.samples_up // self.samples

    def require_state(self, *allowed: ContractState) -> None:
        if self.state not in allowed:
            raise WrongState(
                f"{self.address or self.kind.value}: state is {self.state.value}, "
                f"needs {'/'.join(s.value for s in allowed)}"
            )

    def require_owner(self, caller: str) -> None:
        if caller != self.owner:
            raise NotOwner(f"{echo(caller, str)} is not the owner {echo(self.owner, str)}")

    def require_end_user(self, caller: str) -> None:
        if caller != self.end_user:
            raise NotEndUser(
                f"{echo(caller, str)} is not the end user {echo(self.end_user, str)}"
            )


def mark_quoted(contract: AgreementContract) -> None:
    """DEPLOYED -> QUOTED once the owner's price terms are attached."""
    contract.require_state(ContractState.DEPLOYED)
    contract.state = ContractState.QUOTED


# ---------------------------------------------------------------------------
# funding and signatures
# ---------------------------------------------------------------------------

def lock_funds(ledger: Ledger, contract: AgreementContract, sender: str, value: int) -> None:
    """Escrow the full agreed price; any other value, or a payment after the
    quote's expiry block, raises and moves no wei.

    On success the sender is recorded as the funding end user, the session
    start is stamped with the current block time, and the release time is
    set to ``start + lock_time_seconds``.  A contract is fundable once.
    """
    if ledger.height > contract.quote_expires_at_block:
        raise QuoteExpired(f"quote expired at block {contract.quote_expires_at_block}")
    if contract.kind not in TIME_SETTLED_KINDS:
        raise WrongState(f"{contract.kind.value} contracts are not funded by lock_funds")
    contract.require_state(ContractState.QUOTED)
    if value != contract.price:
        raise ValidationError(
            f"payment of {value} wei rejected: quoted price is {contract.price} wei"
        )
    ledger.escrow_in(sender, contract.address, value)
    now = ledger.timestamp
    contract.end_user = sender
    contract.session_start_time = now
    contract.release_time = now + contract.lock_time_seconds
    contract.state = ContractState.USER_SIGNED


def countersign(ledger: Ledger, contract: AgreementContract, signer: str) -> None:
    """Owner countersignature activates the agreement."""
    contract.require_owner(signer)
    contract.require_state(ContractState.USER_SIGNED)
    ledger.contract_call(signer, contract.address)
    contract.state = ContractState.ACTIVE


# ---------------------------------------------------------------------------
# time-based settlement
# ---------------------------------------------------------------------------

def _charge_for_usage(contract: AgreementContract, used: int) -> int:
    if contract.availability_bp() < contract.refund_threshold_bp:
        return 0  # availability dropped below the threshold: full refund
    if contract.kind is ContractKind.FIXED_PRICE:
        return contract.price
    if contract.kind is ContractKind.FLEXIBLE_PERIOD:
        usage_price = contract.price - contract.flexible.min_charge
        prorated = usage_price * used // contract.lock_time_seconds
        return contract.flexible.min_charge + prorated
    # dynamic-price proration, also used by constraint-based and division-linked
    return contract.price * used // contract.lock_time_seconds


def _payouts_for_charge(contract: AgreementContract, charge: int) -> dict[str, int]:
    if contract.division is not None:
        return settle_with_division(contract.division, charge)
    return {contract.owner: charge} if charge > 0 else {}


def _require_empty_escrow(contract: AgreementContract) -> None:
    if contract.escrow != 0:
        raise InvariantViolation(
            f"{contract.address} still holds {contract.escrow} wei after settling"
        )


def _execute_settlement(ledger: Ledger, contract: AgreementContract, used: int) -> Settlement:
    charge = _charge_for_usage(contract, used)
    return _release(ledger, contract, charge, _payouts_for_charge(contract, charge))


def _release(
    ledger: Ledger, contract: AgreementContract, charge: int, payouts: dict[str, int]
) -> Settlement:
    """Pay out the charge, refund the rest of the escrow to the end user, settle."""
    refund = contract.escrow - charge
    for recipient, amount in payouts.items():
        ledger.escrow_out(contract.address, recipient, amount, kind="charge")
    ledger.escrow_out(contract.address, contract.end_user, refund, kind="refund")
    _require_empty_escrow(contract)
    contract.state = ContractState.SETTLED
    contract.settlement = Settlement(charge=charge, refund=refund, payouts=payouts)
    return contract.settlement


def stop_and_settle(ledger: Ledger, contract: AgreementContract, caller: str) -> Settlement:
    """End-user stop: charge the used time pro rata, refund the rest."""
    if contract.kind not in TIME_SETTLED_KINDS:
        raise WrongState(f"{contract.kind.value} contracts are not settled by a stop")
    contract.require_state(ContractState.ACTIVE)
    contract.require_end_user(caller)
    ledger.contract_call(caller, contract.address)
    elapsed = ledger.timestamp - contract.session_start_time
    return _execute_settlement(ledger, contract, min(elapsed, contract.lock_time_seconds))


def expire_and_settle(ledger: Ledger, contract: AgreementContract) -> Settlement:
    """Timeout settlement at the release time: the full period is charged.

    Triggered by the alarm-clock wakeup, so no party pays a call fee.
    """
    contract.require_state(ContractState.ACTIVE)
    now = ledger.timestamp
    if now < contract.release_time:
        raise NotYetReleased(f"release at {contract.release_time}, block time is {now}")
    return _execute_settlement(ledger, contract, contract.lock_time_seconds)


def abort_and_refund(ledger: Ledger, contract: AgreementContract) -> Settlement:
    """Full refund of a lock the owner never countersigned, at its release time.

    Triggered by the alarm-clock wakeup, so no party pays a call fee.
    """
    contract.require_state(ContractState.USER_SIGNED)
    return _release(ledger, contract, 0, {})


# ---------------------------------------------------------------------------
# prepaid quota
# ---------------------------------------------------------------------------

def quota_cost(contract: AgreementContract, minutes: int) -> int:
    """Wei that ``minutes`` of the contract's quota cost; other kinds sell none."""
    if contract.kind is not ContractKind.TIME_LIMITED_QUOTA:
        raise WrongState(f"{contract.kind.value} contracts do not sell quota minutes")
    return contract.quota.per_minute_price * minutes


def quota_purchase(
    ledger: Ledger, contract: AgreementContract, sender: str, minutes: int, value: int
) -> None:
    """Escrow ``quota_cost`` of ``minutes``; any other value raises and moves no wei."""
    cost = quota_cost(contract, minutes)
    contract.require_state(ContractState.QUOTED)
    if value != cost:
        raise ValidationError(
            f"quota payment of {value} wei rejected: {minutes} minutes cost {cost} wei"
        )
    ledger.escrow_in(sender, contract.address, value)
    contract.end_user = sender
    contract.quota.minutes_purchased = minutes
    contract.state = ContractState.ACTIVE


def quota_start(ledger: Ledger, contract: AgreementContract, caller: str) -> str:
    """Open a metered session; returns its access token."""
    contract.require_end_user(caller)
    if contract.kind is not ContractKind.TIME_LIMITED_QUOTA:
        raise WrongState(f"{contract.kind.value} contracts have no metered sessions")
    contract.require_state(ContractState.ACTIVE)
    terms = contract.quota
    if terms.open_session_start is not None:
        raise SessionAlreadyOpen(contract.address)
    if terms.minutes_remaining() <= 0:
        raise QuotaExhausted(contract.address)
    ledger.contract_call(caller, contract.address)
    now = ledger.timestamp
    terms.open_session_start = now
    token = f"{contract.address}/q{len(terms.sessions) + 1}"
    terms.sessions.append({"token": token, "start": now, "stop": None, "minutes": 0})
    return token


def quota_stop(ledger: Ledger, contract: AgreementContract, caller: str) -> int:
    """Close the open session; bill started minutes, clamped to the remainder."""
    contract.require_end_user(caller)
    terms = contract.quota
    if terms is None or terms.open_session_start is None:
        raise NoOpenSession(contract.address)
    contract.require_state(ContractState.ACTIVE)
    ledger.contract_call(caller, contract.address)
    now = ledger.timestamp
    elapsed = now - terms.open_session_start
    minutes = min(-(-elapsed // 60), terms.minutes_remaining())  # ceil, then clamp
    charge = quota_cost(contract, minutes)
    ledger.escrow_out(contract.address, contract.owner, charge, kind="charge")
    terms.minutes_consumed += minutes
    record = terms.sessions[-1]
    record["stop"] = now
    record["minutes"] = minutes
    terms.open_session_start = None
    total = quota_cost(contract, terms.minutes_consumed)
    contract.settlement = Settlement(
        charge=total, refund=0, payouts={contract.owner: total} if total else {}
    )
    if terms.minutes_remaining() == 0:
        _require_empty_escrow(contract)
        contract.state = ContractState.SETTLED
    return minutes


# ---------------------------------------------------------------------------
# income division
# ---------------------------------------------------------------------------

def set_income_shares(
    ledger: Ledger, contract: AgreementContract, proposer: str, shares: IncomeShares
) -> None:
    """Record the agreed division; quoting freezes it."""
    contract.require_state(ContractState.DEPLOYED)
    ledger.contract_call(proposer, contract.address)
    contract.shares = shares
    contract.state = ContractState.QUOTED


def settle_with_division(contract: AgreementContract, charge: int) -> dict[str, int]:
    """Split a charge across the recorded shares by largest remainder.

    Each party gets floor(charge * numerator / denominator); leftover wei go
    one each to the largest remainders, ties broken by share listing order.
    Payouts always sum exactly to the charge.
    """
    require_amount(charge, "charge")
    shares = contract.shares
    payouts: dict[str, int] = {}
    remainders: list[tuple[int, int, str]] = []  # (-remainder, listing index, address)
    for index, (addr, numerator) in enumerate(shares.numerators.items()):
        exact_numerator = charge * numerator
        payouts[addr] = exact_numerator // shares.denominator
        remainders.append((-(exact_numerator % shares.denominator), index, addr))
    leftover = charge - sum(payouts.values())
    remainders.sort()
    for _, _, addr in remainders[:leftover]:
        payouts[addr] += 1
    return payouts


# ---------------------------------------------------------------------------
# consensus voting
# ---------------------------------------------------------------------------

def init_vote(
    ledger: Ledger, contract: AgreementContract, caller: str, voters: set[str]
) -> None:
    """Register the voter set; the ballot then runs until enacted."""
    contract.require_state(ContractState.DEPLOYED)
    contract.require_owner(caller)
    ledger.contract_call(caller, contract.address)
    contract.voting = VotingState(voters=frozenset(voters))
    contract.state = ContractState.QUOTED


def cast_vote(ledger: Ledger, contract: AgreementContract, voter: str, choice: str) -> None:
    if voter not in contract.voting.voters:
        raise NotAVoter(echo(voter, str))
    if voter in contract.voting.votes:
        raise AlreadyVoted(echo(voter, str))
    ledger.contract_call(voter, contract.address)
    contract.voting.votes[voter] = choice


def tally_and_enact(contract: AgreementContract) -> dict:
    """Strict-majority tally; enactment is sticky and unlocks the companion."""
    voting = contract.voting
    yes = sum(1 for choice in voting.votes.values() if choice == "yes")
    if 2 * yes > len(voting.voters):
        voting.enacted = True
    return {"enacted": voting.enacted, "yes": yes, "voters": len(voting.voters)}


# ---------------------------------------------------------------------------
# constraint evaluation
# ---------------------------------------------------------------------------

def evaluate_constraints(
    terms: ConstraintTerms, provider_region: str, gdpr_compliant: bool
) -> bool:
    """Whether a provider offer is admissible under the end user's constraints."""
    return (not terms.gdpr_required or gdpr_compliant) and (
        not terms.allowed_regions or provider_region in terms.allowed_regions
    )

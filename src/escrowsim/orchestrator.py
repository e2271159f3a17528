"""Session lifecycle orchestration.

Drives the full workflow: quote and contract deployment, user payment and
fund lock, countersignature, simulated container deployment with URL
issuance, availability monitoring, and settlement, either by an end-user
stop or by the alarm-clock timeout wakeup at the release time.

Workflow step identifiers 1..16 are appended to each session's step log;
``STEP_DESCRIPTIONS`` says what each one means.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from . import contracts as sc
from .contracts import (
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    ContractState,
    FlexibleTerms,
    IncomeShares,
    QuotaTerms,
    Settlement,
)
from .errors import InadmissibleOffer, SessionNotActive, WrongState, echo
from .ledger import Block, Ledger
from .pricing import QosPreferences, RateCard, quote_price

STEP_DESCRIPTIONS = {
    1: "price estimated, agreement contract deployed (quoted)",
    2: "pricing terms sent to the end user",
    3: "end user approved and locked the full price in escrow",
    4: "fund lock confirmed to the service owner",
    5: "owner countersigned the agreement",
    6: "deployment request sent to the solution services",
    7: "container instance deployed",
    8: "deployment success reported",
    9: "service URL issued",
    10: "service URL shared with the end user",
    11: "end user signed the session stop",
    12: "container instance undeployed",
    13: "escrow released: charge paid out, remainder refunded",
    14: "settlement notification sent to the owner",
    15: "settlement notification sent to the end user",
    16: "session completion recorded",
}


@dataclass
class SessionRecord:
    """One session's workflow progress; its parties and money live on ``contract``."""

    contract: AgreementContract
    url_token: str = ""
    deploy_block: Optional[int] = None
    stop_block: Optional[int] = None
    step_log: list[int] = field(default_factory=list)
    settled_by: str = ""  # "stop" | "expiry"


class SessionOrchestrator:
    """Serializes session events onto the ledger's single-writer state.

    The provider placement decision is a stub: every request is served by
    the one configured provider (region + GDPR posture below).
    """

    def __init__(
        self,
        ledger: Ledger,
        *,
        rate_card: RateCard,
        provider_region: str,
        provider_gdpr_compliant: bool,
        refund_threshold_bp: int,
    ) -> None:
        self.ledger = ledger
        self.rate_card = rate_card
        self.provider_region = provider_region
        self.provider_gdpr_compliant = provider_gdpr_compliant
        self.refund_threshold_bp = refund_threshold_bp
        self.sessions: dict[str, SessionRecord] = {}  # contract address -> record
        self._token_seq = 0

    # ---- steps 1-2: quote and contract deployment -------------------------

    def request_session(
        self,
        end_user: str,
        owner: str,
        prefs: QosPreferences,
        constraints: Optional[ConstraintTerms] = None,
        shares: Optional[IncomeShares] = None,  # income-division kind: required
        ballot: Optional[AgreementContract] = None,  # consensus kind: required, enacted
        flexible: Optional[FlexibleTerms] = None,
    ) -> SessionRecord:
        """Price the request and deploy its agreement contract in QUOTED state."""
        multiplier_bp = sc.IDENTITY_MULTIPLIER_BP
        if constraints is not None:
            if not sc.evaluate_constraints(
                constraints, self.provider_region, self.provider_gdpr_compliant
            ):
                raise InadmissibleOffer(
                    f"no provider satisfies constraints (region {echo(self.provider_region, str)})"
                )
            multiplier_bp = constraints.price_multiplier_bp

        kind = prefs.monetization_kind
        quote = quote_price(
            prefs, self.rate_card, constraint_multiplier_bp=multiplier_bp, flexible=flexible
        )

        division = None
        if kind is ContractKind.INCOME_DIVISION:
            division = AgreementContract(
                kind=ContractKind.INCOME_DIVISION, owner=owner, end_user=end_user
            )
            self.ledger.register_contract(division, payer=owner)
            sc.set_income_shares(self.ledger, division, owner, shares)
            kind = ContractKind.DYNAMIC_PRICE  # companion agreement contract
        elif kind is ContractKind.CONSENSUS_DECISION:
            if ballot.voting is None or not ballot.voting.enacted:
                raise WrongState(f"ballot {ballot.address} has not enacted the agreement")
            kind = ContractKind.DYNAMIC_PRICE  # companion agreement contract

        contract = AgreementContract(
            kind=kind,
            owner=owner,
            end_user=end_user,
            price=quote.price,
            lock_time_seconds=prefs.max_period_seconds,
            quote_expires_at_block=self.ledger.height + self.rate_card.quote_ttl_blocks,
            refund_threshold_bp=self.refund_threshold_bp,
            flexible=quote.standby,
            division=division,
        )
        if kind is ContractKind.TIME_LIMITED_QUOTA:
            contract.quota = QuotaTerms(per_minute_price=quote.per_minute_price)
        if kind is ContractKind.CONSTRAINT_BASED:
            contract.constraints = constraints or ConstraintTerms()
        self.ledger.register_contract(contract, payer=owner)
        sc.mark_quoted(contract)

        session = SessionRecord(contract=contract)
        session.step_log += [1, 2]
        self.sessions[contract.address] = session
        return session

    # ---- auxiliary consensus contract --------------------------------------

    def deploy_consensus(self, owner: str, voters: set[str]) -> AgreementContract:
        """Deploy the voting contract and register its voter set."""
        ballot = AgreementContract(
            kind=ContractKind.CONSENSUS_DECISION, owner=owner, end_user=""
        )
        self.ledger.register_contract(ballot, payer=owner)
        sc.init_vote(self.ledger, ballot, owner, voters)
        return ballot

    # ---- step 3: payment ----------------------------------------------------

    def user_approve_and_pay(self, session: SessionRecord, value: int, payer: str) -> None:
        """Lock the quoted price in escrow and arm the release-time wakeup.

        Whoever funds the lock is recorded as the end user.
        """
        contract = session.contract
        sc.lock_funds(self.ledger, contract, payer, value)
        self.ledger.schedule_wakeup(contract.address, contract.release_time)
        session.step_log.append(3)

    # ---- steps 4-10: countersign, deploy, URL -------------------------------

    def countersign_and_deploy(self, session: SessionRecord, signer: str) -> str:
        """Activate the agreement and simulate the container deployment."""
        sc.countersign(self.ledger, session.contract, signer)
        self._deploy(session)
        session.step_log += range(4, 11)
        return session.url_token

    def _deploy(self, session: SessionRecord) -> None:
        """Record the container deployment at this block and issue its URL token."""
        self._token_seq += 1
        tag = hashlib.sha256(f"{self._token_seq}:{session.contract.address}".encode())
        session.deploy_block = self.ledger.height
        session.url_token = f"vc-{self._token_seq:04d}-{tag.hexdigest()[:12]}"

    # ---- monitoring -----------------------------------------------------------

    def record_qos_sample(self, session: SessionRecord, available: bool) -> None:
        """Count one availability observation on the contract."""
        contract = session.contract
        if session.deploy_block is None or contract.state is not ContractState.ACTIVE:
            raise SessionNotActive(contract.address)
        contract.samples += 1
        contract.samples_up += bool(available)

    # ---- steps 11-16: settlement ----------------------------------------------

    def end_session(self, session: SessionRecord, caller: str) -> Settlement:
        """End-user stop: undeploy, settle pro rata, cancel the wakeup."""
        contract = session.contract
        settlement = sc.stop_and_settle(self.ledger, contract, caller)
        self.ledger.cancel_wakeup(contract.address)
        self._settled(session, "stop", 11)
        return settlement

    def on_wakeup(self, contract_address: str, block: Block) -> None:
        """Timeout settlement of the contract's session at ``block``, the
        ledger's clock on delivery: pass this to the ledger's clock calls.

        Delivery finds the contract unsettled: payment arms its one wakeup,
        the ledger delivers it at most once, and ``end_session`` cancels it.
        """
        session = self.sessions[contract_address]
        contract = session.contract
        if contract.state is ContractState.USER_SIGNED:
            # Locked but never countersigned: the release time frees the funds.
            sc.abort_and_refund(self.ledger, contract)
            self._settled(session, "expiry", 13)
        else:
            sc.expire_and_settle(self.ledger, contract)
            self._settled(session, "expiry", 12)

    def _settled(self, session: SessionRecord, how: str, first_step: int) -> None:
        """Record a settlement at this block and its steps ``first_step``..16."""
        session.stop_block = self.ledger.height
        session.settled_by = how
        session.step_log += range(first_step, 17)

    # ---- quota passthroughs ------------------------------------------------------

    def quota_purchase(self, session: SessionRecord, minutes: int, value: int, payer: str) -> None:
        sc.quota_purchase(self.ledger, session.contract, payer, minutes, value)
        session.step_log.append(3)

    def quota_start(self, session: SessionRecord, caller: str) -> str:
        token = sc.quota_start(self.ledger, session.contract, caller)
        if session.deploy_block is None:
            self._deploy(session)
        return token

    def quota_stop(self, session: SessionRecord, caller: str) -> int:
        return sc.quota_stop(self.ledger, session.contract, caller)

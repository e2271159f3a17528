"""Session orchestration: the 16-step flow, timeouts, and monitoring."""

import pytest

from escrowsim import contracts as sc
from escrowsim.contracts import ConstraintTerms, ContractKind, ContractState, IncomeShares
from escrowsim.errors import (
    InadmissibleOffer,
    NotEndUser,
    QuoteExpired,
    SessionNotActive,
    ValidationError,
    WrongState,
)
from escrowsim.ledger import GasSchedule, Ledger
from escrowsim.orchestrator import SessionOrchestrator
from escrowsim.pricing import QosPreferences, RateCard
from escrowsim.units import eth

FULL_FLOW = list(range(1, 17))
TIMEOUT_FLOW = list(range(1, 11)) + [12, 13, 14, 15, 16]


def build(genesis=None, **orch_kw):
    gas = GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)
    ledger = Ledger(genesis or {"alice": eth(10), "oliver": eth(10)}, gas=gas)
    posture = {
        "rate_card": RateCard(),
        "provider_region": "EU",
        "provider_gdpr_compliant": True,
        "refund_threshold_bp": sc.DEFAULT_REFUND_THRESHOLD_BP,
    }
    return ledger, SessionOrchestrator(ledger, **{**posture, **orch_kw})


def request(orch, period=3_600, kind=ContractKind.DYNAMIC_PRICE, **kw):
    prefs = QosPreferences(
        availability_target_bp=9_000,
        video_quality="SD",
        max_period_seconds=period,
        monetization_kind=kind,
    )
    return orch.request_session("alice", "oliver", prefs, **kw)


def run_until(orch, timestamp):
    ledger = orch.ledger
    while ledger.timestamp < timestamp:
        ledger.produce_block(orch.on_wakeup)


# ---- the sixteen steps ----------------------------------------------------------

def test_user_stop_walks_all_sixteen_steps():
    ledger, orch = build()
    session = request(orch)
    assert session.step_log == [1, 2]
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    ledger.produce_block(orch.on_wakeup)
    orch.countersign_and_deploy(session, "oliver")
    assert session.url_token.startswith("vc-")
    assert session.deploy_block == ledger.height
    run_until(orch, 1800)
    orch.end_session(session, "alice")
    assert session.step_log == FULL_FLOW
    assert session.settled_by == "stop"
    assert session.contract.settlement is not None
    assert ledger.conservation_check()


def test_timeout_skips_only_the_user_stop_step():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    run_until(orch, 3_700)  # past release with margin
    assert session.step_log == TIMEOUT_FLOW
    assert session.settled_by == "expiry"
    assert session.contract.settlement.charge == session.contract.price
    assert session.contract.settlement.refund == 0


def test_wakeup_fires_on_first_block_at_or_after_release():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    contract = session.contract
    release = contract.release_time
    seen = {ledger.height: ledger.timestamp}
    while session.contract.settlement is None:
        assert ledger.timestamp < release + ledger.block_interval, "no settlement past release"
        block = ledger.produce_block(orch.on_wakeup)
        seen[block.height] = block.timestamp
    assert seen[session.stop_block] >= release
    assert seen[session.stop_block - 1] < release
    # pro-rata clock stops at release even if the block lands later
    assert session.contract.settlement.charge == session.contract.price


def test_settlement_happens_at_most_once():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    run_until(orch, 600)
    settlement = orch.end_session(session, "alice")
    run_until(orch, 5_000)  # well past the (cancelled) wakeup
    assert session.contract.settlement is settlement
    assert session.settled_by == "stop"
    assert session.contract.escrow == 0
    assert ledger.conservation_check()


def test_stop_after_expiry_settlement_is_rejected():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    run_until(orch, 3_700)
    assert session.settled_by == "expiry"
    with pytest.raises(WrongState):
        orch.end_session(session, "alice")


def test_payer_becomes_the_end_user_of_record():
    ledger, orch = build({"alice": eth(10), "bob": eth(10), "oliver": eth(10)})
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="bob")
    assert session.contract.end_user == "bob"
    orch.countersign_and_deploy(session, "oliver")
    with pytest.raises(NotEndUser):
        orch.end_session(session, "alice")
    orch.end_session(session, "bob")


def test_quote_expires_after_its_ttl():
    ledger, orch = build()
    session = request(orch)
    ttl = orch.rate_card.quote_ttl_blocks
    for _ in range(ttl + 1):
        ledger.produce_block(orch.on_wakeup)
    with pytest.raises(QuoteExpired):
        orch.user_approve_and_pay(session, session.contract.price, payer="alice")


def money(ledger):
    return list(ledger.tx_log), dict(ledger.accounts), ledger.fee_sink


def assert_rejected_payment_is_a_no_op(ledger, session, before):
    assert session.contract.state is ContractState.QUOTED
    assert session.contract.escrow == 0
    assert session.step_log == [1, 2]
    assert ledger.armed_wakeup_count() == 0
    assert money(ledger) == before


def test_wrong_payment_leaves_quote_open_for_retry():
    ledger, orch = build()
    session = request(orch)
    price = session.contract.price
    before = money(ledger)
    detail = f"^payment of {price - 1} wei rejected: quoted price is {price} wei$"
    with pytest.raises(ValidationError, match=detail):
        orch.user_approve_and_pay(session, price - 1, payer="alice")
    assert_rejected_payment_is_a_no_op(ledger, session, before)
    orch.user_approve_and_pay(session, price, payer="alice")
    assert session.contract.state is ContractState.USER_SIGNED
    assert session.contract.escrow == price
    assert session.step_log == [1, 2, 3]
    assert ledger.armed_wakeup_count() == 1


def test_quote_ttl_counts_from_the_request_height():
    def quoted_at_100(blocks_after):
        ledger, orch = build()
        for _ in range(100):
            ledger.produce_block(orch.on_wakeup)
        session = request(orch)
        for _ in range(blocks_after):
            ledger.produce_block(orch.on_wakeup)
        return ledger, orch, session

    ttl = RateCard().quote_ttl_blocks
    ledger, orch, session = quoted_at_100(ttl)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    assert ledger.height == 100 + ttl
    assert session.contract.state is ContractState.USER_SIGNED
    ledger, orch, session = quoted_at_100(ttl + 1)
    before = money(ledger)
    with pytest.raises(QuoteExpired, match=f"^quote expired at block {100 + ttl}$"):
        orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    assert_rejected_payment_is_a_no_op(ledger, session, before)


def test_wrong_quota_payment_leaves_quote_open_for_retry():
    ledger, orch = build()
    session = request(orch, kind=ContractKind.TIME_LIMITED_QUOTA)
    cost = 4 * session.contract.quota.per_minute_price
    before = money(ledger)
    detail = f"^quota payment of {cost + 1} wei rejected: 4 minutes cost {cost} wei$"
    with pytest.raises(ValidationError, match=detail):
        orch.quota_purchase(session, 4, cost + 1, payer="alice")
    assert_rejected_payment_is_a_no_op(ledger, session, before)
    orch.quota_purchase(session, 4, cost, payer="alice")
    assert session.contract.state is ContractState.ACTIVE
    assert session.contract.escrow == cost
    assert session.step_log == [1, 2, 3]


# ---- monitoring -------------------------------------------------------------------

def test_sampling_requires_a_deployed_session():
    ledger, orch = build()
    session = request(orch)
    with pytest.raises(SessionNotActive):
        orch.record_qos_sample(session, True)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    with pytest.raises(SessionNotActive):
        orch.record_qos_sample(session, True)  # paid but not countersigned
    orch.countersign_and_deploy(session, "oliver")
    orch.record_qos_sample(session, True)
    run_until(orch, 900)
    orch.end_session(session, "alice")
    with pytest.raises(SessionNotActive):
        orch.record_qos_sample(session, True)


def test_three_of_four_samples_meets_the_default_threshold():
    # floor(10000 * 3/4) = 7500 = threshold, and the gate is strictly below
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    for ok in (True, True, True, False):
        ledger.produce_block(orch.on_wakeup)
        orch.record_qos_sample(session, ok)
    run_until(orch, 1800)
    settlement = orch.end_session(session, "alice")
    assert (session.contract.samples, session.contract.samples_up) == (4, 3)
    assert session.contract.availability_bp() == 7_500
    assert settlement.charge > 0


def test_degraded_availability_forces_full_refund():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    for ok in (True, False, False, False):
        ledger.produce_block(orch.on_wakeup)
        orch.record_qos_sample(session, ok)
    run_until(orch, 1800)
    settlement = orch.end_session(session, "alice")
    assert settlement.charge == 0
    assert settlement.refund == session.contract.price
    assert ledger.balance_of("alice") == eth(10)


def test_fresh_session_reads_fully_available():
    _, orch = build()
    assert request(orch).contract.availability_bp() == 10_000


def test_paid_but_never_countersigned_refunds_at_release_time():
    ledger, orch = build()
    session = request(orch)
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    run_until(orch, 3_700)
    assert session.settled_by == "expiry"
    assert session.contract.settlement.charge == 0
    assert session.contract.settlement.refund == session.contract.price
    assert session.step_log == [1, 2, 3, 13, 14, 15, 16]
    assert ledger.balance_of("alice") == eth(10)


# ---- constraints and companion contracts ------------------------------------------------

def test_inadmissible_constraints_reject_the_request():
    ledger, orch = build(provider_region="US")
    with pytest.raises(InadmissibleOffer):
        request(
            orch,
            kind=ContractKind.CONSTRAINT_BASED,
            constraints=ConstraintTerms(allowed_regions=frozenset({"EU"})),
        )
    assert not ledger.contracts  # nothing deployed for a rejected offer


def test_constraint_multiplier_raises_the_quote():
    ledger, orch = build()
    plain = request(orch).contract.price
    priced = request(
        orch,
        kind=ContractKind.CONSTRAINT_BASED,
        constraints=ConstraintTerms(price_multiplier_bp=15_000),
    )
    assert priced.contract.price == plain * 3 // 2


def test_income_division_deploys_two_contracts_and_splits_payout():
    ledger, orch = build({"alice": eth(10), "oliver": eth(10), "helper": 0})
    session = request(
        orch,
        kind=ContractKind.INCOME_DIVISION,
        shares=IncomeShares({"oliver": 2, "helper": 1}, 3),
    )
    assert len(ledger.contracts) == 2
    division, agreement = sorted(ledger.contracts)
    assert ledger.contracts[division].kind is ContractKind.INCOME_DIVISION
    assert session.contract.address == agreement
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    run_until(orch, 3_700)
    charge = session.contract.settlement.charge
    assert charge == session.contract.price
    assert sum(session.contract.settlement.payouts.values()) == charge
    assert ledger.balance_of("helper") == session.contract.settlement.payouts["helper"]
    assert ledger.conservation_check()


def test_consensus_request_requires_an_enacted_ballot():
    ledger, orch = build({"alice": eth(10), "oliver": eth(10), "v1": eth(1), "v2": eth(1)})
    ballot = orch.deploy_consensus("oliver", {"v1", "v2"})
    with pytest.raises(WrongState):
        request(
            orch,
            kind=ContractKind.CONSENSUS_DECISION,
            ballot=ballot,
        )
    sc.cast_vote(ledger, ballot, "v1", "yes")
    sc.cast_vote(ledger, ballot, "v2", "yes")
    sc.tally_and_enact(ballot)
    session = request(
        orch,
        kind=ContractKind.CONSENSUS_DECISION,
        ballot=ballot,
    )
    assert len(ledger.contracts) == 2  # ballot + agreement
    orch.user_approve_and_pay(session, session.contract.price, payer="alice")
    orch.countersign_and_deploy(session, "oliver")
    run_until(orch, 600)
    orch.end_session(session, "alice")
    assert ledger.conservation_check()


# ---- quota sessions through the orchestrator ----------------------------------------------

def test_quota_flow_issues_url_on_first_start():
    ledger, orch = build()
    session = request(orch, kind=ContractKind.TIME_LIMITED_QUOTA)
    per_minute = session.contract.quota.per_minute_price
    orch.quota_purchase(session, 4, 4 * per_minute, payer="alice")
    assert session.url_token == ""
    orch.quota_start(session, "alice")
    assert session.url_token.startswith("vc-")
    first_deploy = session.deploy_block
    run_until(orch, ledger.timestamp + 90)
    assert orch.quota_stop(session, "alice") == 2
    orch.quota_start(session, "alice")
    assert session.deploy_block == first_deploy
    run_until(orch, ledger.timestamp + 150)
    orch.quota_stop(session, "alice")
    assert session.contract.state is ContractState.SETTLED
    assert ledger.conservation_check()


def test_url_tokens_are_distinct_across_sessions():
    ledger, orch = build()
    tokens = set()
    for _ in range(5):
        session = request(orch)
        orch.user_approve_and_pay(session, session.contract.price, payer="alice")
        orch.countersign_and_deploy(session, "oliver")
        tokens.add(session.url_token)
        run_until(orch, ledger.timestamp + 30)
        orch.end_session(session, "alice")
    assert len(tokens) == 5

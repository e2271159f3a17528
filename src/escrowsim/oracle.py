"""Independent settlement oracle.

Recomputes every contract's expected settlement directly from a parsed
script in exact integer arithmetic, without touching the ledger, the
orchestrator, or the contract state machines.  Each rational quantity (a
price, a prorated charge, an availability in basis points, a share of a
charge) is one floor or ceil division of Python ints, so none is rounded
twice.
The only shared inputs are the parsed script's configuration values and
typed events, from ``script`` (importing this module loads none of
``scenario``, ``orchestrator`` and ``report``), and the decoder of the
seeded block-time draws (``ledger.jitter_chunks``, checked against one
``randint`` per block, with its ``JITTER_INTERVAL_RANGE``, its compaction
``chunk_intervals`` and its chunk counts ``chunk_span`` and
``interval_total``); quotes, minimum charges and settlements are computed
here anew.  Used by the tests to cross-check the engine on random sweeps.

The oracle re-derives the blocks of its events from the script config:
deterministic runs tick at exact multiples of the interval, in closed form;
jittered runs replay the seeded uniform draws, one per block, read a chunk
at a time, and keep the timestamps of at most one chunk.  Event times never
decrease, so the block only moves forward.  An event at time t takes effect
in the first block at or after t.  A wakeup is due in the first block at or
after its release time, and beats any event sharing that block.  A payment
(``approve_and_pay``) lands only up to ``quote_ttl_blocks`` blocks after its
request; a quota purchase has no such limit."""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

from .contracts import ContractKind
from .errors import collector_paused
from .ledger import (
    JITTER_INTERVAL_RANGE,
    chunk_intervals,
    chunk_span,
    interval_total,
    jitter_chunks,
)
from .pricing import VIDEO_MULTIPLIER_BP
from .script import (
    ApproveAndPay,
    CastVote,
    Countersign,
    DeployBallot,
    EndSession,
    QosSample,
    QuotaPurchase,
    QuotaStart,
    QuotaStop,
    RequestSession,
    ScenarioScript,
    ScriptEvent,
    Tally,
    Transfer,
    handler_table,
    resolve_payment,
)

_BP = 10_000


@dataclass(slots=True)
class _Contract:
    """One contract's state; slotted, so a misspelt field write raises ``AttributeError``."""

    address: str
    kind: ContractKind
    owner: str
    threshold_bp: int  # the config's refund threshold
    end_user: str = ""
    price: int = 0
    per_minute: int = 0
    min_charge: int = 0
    lock: int = 0
    quote_expires_at: int = 0  # last block height that accepts the payment
    funded_ts: Optional[int] = None
    active: bool = False
    settled: bool = False
    samples_up: int = 0
    samples_total: int = 0
    charge: int = 0
    refund: int = 0
    payouts: Optional[dict] = None  # set by the settlement
    escrow: int = 0
    # quota
    minutes_purchased: int = 0
    minutes_consumed: int = 0
    open_start_ts: Optional[int] = None
    # division / ballot
    numerators: Optional[dict] = None
    denominator: int = 0
    division: Optional["_Contract"] = None
    voters: Optional[frozenset] = None
    votes: Optional[dict] = None  # set by the ballot's deployment
    enacted: bool = False


class _Oracle:
    def __init__(self, script: ScenarioScript) -> None:
        cfg = script.config
        self.script = script
        self.card = cfg.rate_card
        self.threshold = cfg.refund_threshold_bp
        self.region = cfg.provider_region
        self.gdpr_ok = cfg.provider_gdpr_compliant
        self.contracts: list[_Contract] = []
        self.sessions: dict[str, _Contract] = {}
        self.ballots: dict[str, _Contract] = {}
        self._seq = 0
        # (release time, push order, contract), pushed once per funded contract
        self._wakeups: list[tuple[int, int, _Contract]] = []
        self._wakeup_seq = 0

    # ---- quoting, recomputed with one floor per price -----------------------

    def _quote(self, ev: RequestSession, constraint_bp: int) -> tuple[int, int, int]:
        """(price, per_minute, min_charge) for one request."""
        prefs = ev.prefs
        card = self.card
        if prefs.availability_target_bp > card.high_availability_threshold_bp:
            avail_bp = card.high_availability_multiplier_bp
        else:
            avail_bp = _BP
        # the product of the three multipliers, in units of 1 / _BP**3
        product = VIDEO_MULTIPLIER_BP[prefs.video_quality] * avail_bp * constraint_bp
        period = prefs.max_period_seconds
        base = card.base_rate_wei_per_second
        if prefs.monetization_kind is ContractKind.TIME_LIMITED_QUOTA:
            per_minute = base * 60 * product // _BP**3
            return per_minute * -(-period // 60), per_minute, 0
        if prefs.monetization_kind is ContractKind.FLEXIBLE_PERIOD:
            if ev.standby is not None:
                rate = ev.standby.standby_rate
                window = ev.standby.standby_window_seconds
            else:
                rate = card.standby_rate_wei_per_second
                window = period
            min_charge = rate * window
            return min_charge + base * period * product // _BP**3, 0, min_charge
        return base * period * product // _BP**3, 0, 0

    # ---- event effects ------------------------------------------------------

    def run(self) -> dict[str, dict]:
        wakeups = self._wakeups
        for event, height, ts in self._event_blocks():
            if wakeups and wakeups[0][0] <= ts:  # a due wakeup goes first
                self._fire_due_wakeups(ts)
            _ORACLE_HANDLERS[type(event)](self, event, height, ts)
        self._fire_due_wakeups(None)  # horizon: everything armed settles
        return {
            c.address: {
                "charge": c.charge,
                "refund": c.refund,
                "payouts": c.payouts or {},
                "escrow": c.escrow,
            }
            for c in self.contracts
        }

    def _event_blocks(self) -> Iterator[tuple[ScriptEvent, int, int]]:
        """Each event with the (height, timestamp) of the first block at or after it.

        Event times never decrease, so the block only moves forward.  The
        fixed grid is closed form.  The jittered grid keeps the timestamps of
        one chunk of draws, the block before the chunk first: a chunk that
        ends before the next event is stepped over by its counts, and the
        event's block is looked up in the chunk that reaches it.  As in
        ``Ledger.advance_to``, a chunk that ends before the event even at the
        largest interval per word is counted uncompacted, and a compacted
        chunk whose smallest span reaches the event is not totalled.
        """
        cfg = self.script.config
        if cfg.jitter_seed is None:
            interval = cfg.block_interval
            for event in self.script.events:
                height = -(-event.at_time // interval)
                yield event, height, height * interval
            return
        chunks = jitter_chunks(random.Random(cfg.jitter_seed))
        low, high = JITTER_INTERVAL_RANGE  # no word spans less or more than these
        chunk = [0]  # genesis
        base = 0  # the height of chunk[0]
        i = 0  # chunk[i] is the latest event's block
        for event in self.script.events:
            t = event.at_time
            if chunk[-1] < t:
                base += len(chunk) - 1
                ts = chunk[-1]
                while True:
                    top = next(chunks)
                    if ts + high * len(top) < t:
                        blocks, seconds = chunk_span(top)
                    else:
                        draws = chunk_intervals(top)
                        if (
                            ts + len(draws) * low >= t
                            or ts + (seconds := interval_total(draws)) >= t
                        ):
                            break
                        blocks = len(draws)
                    base += blocks
                    ts += seconds
                chunk = list(accumulate(draws, initial=ts))
                i = 0
            i = bisect_left(chunk, t, i)
            yield event, base + i, chunk[i]

    def _fire_due_wakeups(self, ts: Optional[int]) -> None:
        wakeups = self._wakeups
        while wakeups and (ts is None or wakeups[0][0] <= ts):
            c = heapq.heappop(wakeups)[2]
            if c.settled:
                continue
            if c.active:
                self._settle(c, used=c.lock)
            else:
                c.refund = c.escrow  # locked, never countersigned: full return
                c.escrow = 0
                c.settled = True

    def _new_contract(self, kind: ContractKind, owner: str) -> _Contract:
        self._seq += 1
        contract = _Contract(f"sc-{self._seq}", kind, owner, self.threshold)
        self.contracts.append(contract)
        return contract

    def _request_session(self, ev: RequestSession, height: int, ts: int) -> None:
        constraint_bp = _BP
        if ev.constraints is not None:
            c = ev.constraints
            if c.gdpr_required and not self.gdpr_ok:
                return
            if c.allowed_regions and self.region not in c.allowed_regions:
                return
            constraint_bp = c.price_multiplier_bp
        kind = ev.prefs.monetization_kind
        if kind is ContractKind.CONSENSUS_DECISION:
            ballot = self.ballots.get(ev.ballot)
            if ballot is None or not ballot.enacted:
                return
        price, per_minute, min_charge = self._quote(ev, constraint_bp)
        if price <= 0:
            return
        division = None
        if kind is ContractKind.INCOME_DIVISION:
            division = self._new_contract(ContractKind.INCOME_DIVISION, ev.owner)
            division.numerators = ev.shares.numerators
            division.denominator = ev.shares.denominator
        contract = self._new_contract(kind, ev.owner)
        contract.price = price
        contract.per_minute = per_minute
        contract.min_charge = min_charge
        contract.lock = ev.prefs.max_period_seconds
        contract.quote_expires_at = height + self.card.quote_ttl_blocks
        contract.division = division
        self.sessions[ev.session] = contract

    def _approve_and_pay(self, ev: ApproveAndPay, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if c is None or c.kind is ContractKind.TIME_LIMITED_QUOTA:
            return
        if c.funded_ts is not None or c.settled or height > c.quote_expires_at:
            return
        if resolve_payment(ev.value, c.price) != c.price:
            return
        c.funded_ts = ts
        c.end_user = ev.actor
        c.escrow = c.price
        self._wakeup_seq += 1
        heapq.heappush(self._wakeups, (ts + c.lock, self._wakeup_seq, c))

    def _countersign(self, ev: Countersign, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if (
            c is not None
            and c.kind is not ContractKind.TIME_LIMITED_QUOTA  # active once bought
            and c.funded_ts is not None
            and not c.settled
            and not c.active
            and ev.actor == c.owner
        ):
            c.active = True

    def _qos_sample(self, ev: QosSample, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if c is not None and c.active and not c.settled:
            c.samples_total += 1
            c.samples_up += 1 if ev.available else 0

    def _end_session(self, ev: EndSession, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if c is not None and c.active and not c.settled and ev.actor == c.end_user:
            self._settle(c, used=min(ts - c.funded_ts, c.lock))

    def _quota_purchase(self, ev: QuotaPurchase, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if c is None or c.kind is not ContractKind.TIME_LIMITED_QUOTA:
            return
        if c.funded_ts is not None:
            return
        cost = c.per_minute * ev.minutes
        if resolve_payment(ev.value, cost) != cost:
            return
        c.funded_ts = 0  # marker: funded (quota has no release wakeup)
        c.end_user = ev.actor
        c.escrow = cost
        c.minutes_purchased = ev.minutes

    def _quota_start(self, ev: QuotaStart, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if (
            c is not None
            and c.kind is ContractKind.TIME_LIMITED_QUOTA
            and c.funded_ts is not None
            and not c.settled
            and c.open_start_ts is None
            and c.minutes_purchased - c.minutes_consumed > 0
            and ev.actor == c.end_user
        ):
            c.open_start_ts = ts

    def _quota_stop(self, ev: QuotaStop, height: int, ts: int) -> None:
        c = self.sessions.get(ev.session)
        if c is None or c.kind is not ContractKind.TIME_LIMITED_QUOTA:
            return
        if c.open_start_ts is None or c.settled or ev.actor != c.end_user:
            return
        elapsed = ts - c.open_start_ts
        remaining = c.minutes_purchased - c.minutes_consumed
        minutes = min(-(-elapsed // 60), remaining)
        c.minutes_consumed += minutes
        c.escrow -= minutes * c.per_minute
        c.open_start_ts = None
        c.charge = c.minutes_consumed * c.per_minute
        c.payouts = {c.owner: c.charge} if c.charge else {}
        if c.minutes_purchased == c.minutes_consumed:
            c.settled = True

    def _deploy_ballot(self, ev: DeployBallot, height: int, ts: int) -> None:
        ballot = self._new_contract(ContractKind.CONSENSUS_DECISION, ev.actor)
        ballot.voters = ev.voters
        ballot.votes = {}
        self.ballots[ev.ballot] = ballot

    def _cast_vote(self, ev: CastVote, height: int, ts: int) -> None:
        ballot = self.ballots.get(ev.ballot)
        if ballot is not None and ev.actor in ballot.voters and ev.actor not in ballot.votes:
            ballot.votes[ev.actor] = ev.choice

    def _tally(self, ev: Tally, height: int, ts: int) -> None:
        ballot = self.ballots.get(ev.ballot)
        if ballot is not None:
            yes = sum(1 for v in ballot.votes.values() if v == "yes")
            if 2 * yes > len(ballot.voters):
                ballot.enacted = True

    def _transfer(self, ev: Transfer, height: int, ts: int) -> None:
        pass  # transfers do not touch settlements

    # ---- settlement math -----------------------------------------------------

    def _availability_ok(self, c: _Contract) -> bool:
        if c.samples_total == 0:
            return True
        return _BP * c.samples_up // c.samples_total >= c.threshold_bp

    def _settle(self, c: _Contract, used: int) -> None:
        if not self._availability_ok(c):
            charge = 0
        elif c.kind is ContractKind.FIXED_PRICE:
            charge = c.price
        elif c.kind is ContractKind.FLEXIBLE_PERIOD:
            charge = c.min_charge + (c.price - c.min_charge) * used // c.lock
        else:
            charge = c.price * used // c.lock
        c.charge = charge
        c.refund = c.escrow - charge
        c.escrow = 0
        if c.division is not None:
            c.payouts = _largest_remainder(
                charge, c.division.numerators, c.division.denominator
            )
        else:
            c.payouts = {c.owner: charge} if charge > 0 else {}
        c.settled = True


_ORACLE_HANDLERS = handler_table(_Oracle)


def _largest_remainder(charge: int, numerators: dict, denominator: int) -> dict:
    payouts: dict[str, int] = {}
    remainders: list[tuple[int, int, str]] = []
    for index, (addr, num) in enumerate(numerators.items()):
        payouts[addr], rem = divmod(charge * num, denominator)
        # all shares have the one denominator: ascending -rem = largest first
        remainders.append((-rem, index, addr))
    leftover = charge - sum(payouts.values())
    remainders.sort()
    for _, _, addr in remainders[:leftover]:
        payouts[addr] += 1
    return payouts


@collector_paused
def oracle_settlement(script: ScenarioScript) -> dict[str, dict]:
    """Expected {address: {charge, refund, payouts, escrow}} for a script."""
    return _Oracle(script).run()

"""Independent settlement oracle.

Recomputes every contract's expected settlement directly from a parsed
script using exact rational arithmetic (``fractions.Fraction``), without
touching the ledger, the orchestrator, or the contract state machines.
The only shared inputs are the script's configuration values.  Used by the
test suite to cross-check the engine on large randomized sweeps.

The oracle re-derives the block grid from the script config: deterministic
runs tick at exact multiples of the interval, jittered runs replay the
seeded uniform draws.  An event at time t takes effect at the first grid
point >= t; a release-time wakeup beats any event sharing its block.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .ledger import JITTER_INTERVAL_RANGE
from .scenario import PAY_QUOTED, PAY_WRONG, ScenarioScript, ScriptEvent

_BP = 10_000


class _Grid:
    """Block timestamps reconstructed from the script's timing config."""

    def __init__(self, interval: int, jitter_seed: Optional[int]) -> None:
        self._interval = interval
        self._rng = random.Random(jitter_seed) if jitter_seed is not None else None
        self._points = [0]

    def at_or_after(self, t: int) -> int:
        while self._points[-1] < t:
            if self._rng is None:
                step = self._interval
            else:
                step = self._rng.randint(*JITTER_INTERVAL_RANGE)
            self._points.append(self._points[-1] + step)
        return self._points[bisect.bisect_left(self._points, t)]


@dataclass
class _Contract:
    address: str
    kind: str
    owner: str
    end_user: str = ""
    price: int = 0
    per_minute: int = 0
    min_charge: int = 0
    lock: int = 0
    funded_ts: Optional[int] = None
    wakeup_ts: Optional[int] = None
    active: bool = False
    settled: bool = False
    samples_up: int = 0
    samples_total: int = 0
    threshold_bp: int = 7_500
    charge: int = 0
    refund: int = 0
    payouts: dict = field(default_factory=dict)
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
    votes: dict = field(default_factory=dict)
    enacted: bool = False


class _Oracle:
    def __init__(self, script: ScenarioScript) -> None:
        cfg = script.config
        self.script = script
        self.grid = _Grid(cfg.block_interval, cfg.jitter_seed)
        self.card = cfg.rate_card
        self.threshold = cfg.refund_threshold_bp
        self.region = cfg.provider_region
        self.gdpr_ok = cfg.provider_gdpr_compliant
        self.contracts: list[_Contract] = []
        self.sessions: dict[str, _Contract] = {}
        self.ballots: dict[str, _Contract] = {}
        self._seq = 0
        # (wakeup_ts, push order, contract), pushed once per funded contract
        self._wakeups: list[tuple[int, int, _Contract]] = []
        self._wakeup_seq = 0

    # ---- quoting, recomputed with rationals --------------------------------

    def _multipliers(self, quality: str, target_bp: int, constraint_bp: int) -> Fraction:
        quality_bp = self.card.video_multiplier_bp[quality]
        if target_bp > self.card.high_availability_threshold_bp:
            avail_bp = self.card.high_availability_multiplier_bp
        else:
            avail_bp = _BP
        return Fraction(quality_bp * avail_bp * constraint_bp, _BP**3)

    def _quote(self, p: dict, constraint_bp: int) -> tuple[int, int, int]:
        """(price, per_minute, min_charge) for one request's parameters."""
        factor = self._multipliers(
            p["video_quality"], p["availability_target_bp"], constraint_bp
        )
        period = p["max_period_seconds"]
        base = self.card.base_rate_wei_per_second
        if p["kind"] == "time_limited_quota":
            per_minute = math.floor(base * 60 * factor)
            return per_minute * math.ceil(Fraction(period, 60)), per_minute, 0
        if p["kind"] == "flexible_period":
            if "standby" in p:
                rate = int(p["standby"]["rate_wei_per_second"])
                window = p["standby"]["window_seconds"]
            else:
                rate = self.card.standby_rate_wei_per_second
                window = period
            min_charge = rate * window
            return min_charge + math.floor(base * period * factor), 0, min_charge
        return math.floor(base * period * factor), 0, 0

    # ---- event effects ------------------------------------------------------

    def run(self) -> dict[str, dict]:
        for event in self.script.events:
            ts = self.grid.at_or_after(event.at_time)
            self._fire_due_wakeups(ts)
            self._apply(event, ts)
        self._fire_due_wakeups(None)  # horizon: everything armed settles
        return {
            c.address: {
                "charge": c.charge,
                "refund": c.refund,
                "payouts": dict(c.payouts),
                "escrow": c.escrow,
            }
            for c in self.contracts
        }

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

    def _new_contract(self, kind: str, owner: str) -> _Contract:
        self._seq += 1
        contract = _Contract(
            address=f"sc-{self._seq}", kind=kind, owner=owner, threshold_bp=self.threshold
        )
        self.contracts.append(contract)
        return contract

    def _apply(self, ev: ScriptEvent, ts: int) -> None:
        p = ev.params
        action = ev.action
        if action == "request_session":
            self._request(ev)
        elif action == "approve_and_pay":
            c = self.sessions.get(p["session"])
            if c is None or c.kind == "time_limited_quota" or c.funded_ts is not None:
                return
            if c.settled:
                return
            value = self._value(p["value"], c.price)
            if value != c.price:
                return
            c.funded_ts = ts
            c.end_user = ev.actor
            c.escrow = value
            c.wakeup_ts = self.grid.at_or_after(ts + c.lock)
            self._wakeup_seq += 1
            heapq.heappush(self._wakeups, (c.wakeup_ts, self._wakeup_seq, c))
        elif action == "countersign":
            c = self.sessions.get(p["session"])
            if (
                c is not None
                and c.funded_ts is not None
                and not c.settled
                and not c.active
                and ev.actor == c.owner
            ):
                c.active = True
        elif action == "qos_sample":
            c = self.sessions.get(p["session"])
            if c is not None and c.active and not c.settled:
                c.samples_total += 1
                c.samples_up += 1 if p["available"] else 0
        elif action == "end_session":
            c = self.sessions.get(p["session"])
            if c is not None and c.active and not c.settled and ev.actor == c.end_user:
                self._settle(c, used=min(ts - c.funded_ts, c.lock))
        elif action == "quota_purchase":
            self._quota_purchase(ev)
        elif action == "quota_start":
            c = self.sessions.get(p["session"])
            if (
                c is not None
                and c.kind == "time_limited_quota"
                and c.funded_ts is not None
                and not c.settled
                and c.open_start_ts is None
                and c.minutes_purchased - c.minutes_consumed > 0
                and ev.actor == c.end_user
            ):
                c.open_start_ts = ts
        elif action == "quota_stop":
            self._quota_stop(ev, ts)
        elif action == "deploy_ballot":
            ballot = self._new_contract("consensus_decision", ev.actor)
            ballot.voters = frozenset(p["voters"])
            self.ballots[p["ballot"]] = ballot
        elif action == "cast_vote":
            ballot = self.ballots.get(p["ballot"])
            if (
                ballot is not None
                and ev.actor in ballot.voters
                and ev.actor not in ballot.votes
            ):
                ballot.votes[ev.actor] = p["choice"]
        elif action == "tally":
            ballot = self.ballots.get(p["ballot"])
            if ballot is not None:
                yes = sum(1 for v in ballot.votes.values() if v == "yes")
                if 2 * yes > len(ballot.voters):
                    ballot.enacted = True
        # transfers do not touch settlements

    def _value(self, token: str, quoted: int) -> int:
        if token == PAY_QUOTED:
            return quoted
        if token == PAY_WRONG:
            return quoted + 1
        return int(token)

    def _request(self, ev: ScriptEvent) -> None:
        p = ev.params
        if not 0 < p["availability_target_bp"] <= _BP:
            return
        if p["max_period_seconds"] <= 0:
            return
        if p["video_quality"] not in self.card.video_multiplier_bp:
            return
        constraint_bp = _BP
        if "constraints" in p:
            c = p["constraints"]
            regions = c.get("allowed_regions", [])
            if c.get("gdpr_required", False) and not self.gdpr_ok:
                return
            if regions and self.region not in regions:
                return
            constraint_bp = c.get("price_multiplier_bp", _BP)
        if p["kind"] == "consensus_decision":
            ballot = self.ballots.get(p["ballot"])
            if ballot is None or not ballot.enacted:
                return
        price, per_minute, min_charge = self._quote(p, constraint_bp)
        if price <= 0:
            return
        division = None
        if p["kind"] == "income_division":
            division = self._new_contract("income_division", p["owner"])
            numerators = {addr: pair[0] for addr, pair in p["shares"].items()}
            denominator = next(iter(p["shares"].values()))[1]
            valid = (
                numerators
                and denominator > 0
                and all(n > 0 for n in numerators.values())
                and sum(numerators.values()) == denominator
            )
            if not valid:
                return  # orphan division contract, no agreement
            division.numerators = numerators
            division.denominator = denominator
        contract = self._new_contract(p["kind"], p["owner"])
        contract.price = price
        contract.per_minute = per_minute
        contract.min_charge = min_charge
        contract.lock = p["max_period_seconds"]
        contract.division = division
        self.sessions[p["session"]] = contract

    def _quota_purchase(self, ev: ScriptEvent) -> None:
        p = ev.params
        c = self.sessions.get(p["session"])
        if c is None or c.kind != "time_limited_quota" or c.funded_ts is not None:
            return
        if p["minutes"] <= 0:
            return
        cost = c.per_minute * p["minutes"]
        if self._value(p["value"], cost) != cost:
            return
        c.funded_ts = 0  # marker: funded (quota has no release wakeup)
        c.end_user = ev.actor
        c.escrow = cost
        c.minutes_purchased = p["minutes"]

    def _quota_stop(self, ev: ScriptEvent, ts: int) -> None:
        p = ev.params
        c = self.sessions.get(p["session"])
        if c is None or c.kind != "time_limited_quota" or c.open_start_ts is None:
            return
        if c.settled or ev.actor != c.end_user:
            return
        elapsed = ts - c.open_start_ts
        remaining = c.minutes_purchased - c.minutes_consumed
        minutes = min(math.ceil(Fraction(elapsed, 60)), remaining)
        c.minutes_consumed += minutes
        c.escrow -= minutes * c.per_minute
        c.open_start_ts = None
        c.charge = c.minutes_consumed * c.per_minute
        c.payouts = {c.owner: c.charge} if c.charge else {}
        if c.minutes_purchased == c.minutes_consumed:
            c.settled = True

    # ---- settlement math -----------------------------------------------------

    def _availability_ok(self, c: _Contract) -> bool:
        if c.samples_total == 0:
            return True
        bp = math.floor(Fraction(_BP * c.samples_up, c.samples_total))
        return bp >= c.threshold_bp

    def _settle(self, c: _Contract, used: int) -> None:
        if not self._availability_ok(c):
            charge = 0
        elif c.kind == "fixed_price":
            charge = c.price
        elif c.kind == "flexible_period":
            prorated = math.floor(Fraction((c.price - c.min_charge) * used, c.lock))
            charge = c.min_charge + prorated
        else:
            charge = math.floor(Fraction(c.price * used, c.lock))
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


def _largest_remainder(charge: int, numerators: dict, denominator: int) -> dict:
    payouts: dict[str, int] = {}
    remainders: list[tuple[Fraction, int, str]] = []
    for index, (addr, num) in enumerate(numerators.items()):
        exact = Fraction(charge * num, denominator)
        base = math.floor(exact)
        payouts[addr] = base
        remainders.append((base - exact, index, addr))  # ascending = largest first
    leftover = charge - sum(payouts.values())
    remainders.sort()
    for _, _, addr in remainders[:leftover]:
        payouts[addr] += 1
    return payouts


def oracle_settlement(script: ScenarioScript) -> dict[str, dict]:
    """Expected {address: {charge, refund, payouts, escrow}} for a script."""
    return _Oracle(script).run()

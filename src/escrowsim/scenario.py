"""Scripted scenarios: parsing, execution, reporting, random generation.

A scenario is a JSON document with three top-level keys:

    config   block interval, optional jitter seed, gas schedule, rate card,
             refund threshold, provider posture, optional run horizon
    genesis  account name -> wei amount as a decimal string
    events   ordered list of {at_time, actor, action, params}

Amounts travel as decimal strings end to end; 10^18-scale integers do not
fit common numeric text ranges.  An event at time t executes in the first
block whose timestamp is >= t; events sharing a block run in script order.
Every run is deterministic for a fixed (script, seed) pair, including the
rendered report bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from . import contracts as sc
from .contracts import (
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    FlexibleTerms,
    IncomeShares,
    export_contract,
)
from .errors import (
    GasPriceOutOfRange,
    NotEndUser,
    NotOwner,
    ParseError,
    SimulationError,
    ValidationError,
)
from .ledger import CONTRACT_ADDRESS_PREFIX, DEFAULT_BLOCK_INTERVAL, GasSchedule, Ledger
from .orchestrator import SessionOrchestrator, SessionRecord, SessionRequest
from .pricing import QosPreferences, RateCard
from .units import gwei, parse_wei

ACTIONS = frozenset(
    {
        "request_session",
        "approve_and_pay",
        "countersign",
        "qos_sample",
        "end_session",
        "quota_purchase",
        "quota_start",
        "quota_stop",
        "deploy_ballot",
        "cast_vote",
        "tally",
        "transfer",
    }
)

KIND_NAMES = {kind.value: kind for kind in ContractKind}

# Payment "value" accepts a decimal wei string or one of these tokens.
PAY_QUOTED = "quoted"
PAY_WRONG = "wrong"  # quoted price plus one wei: always rejected


@dataclass
class ScenarioConfig:
    block_interval: int = DEFAULT_BLOCK_INTERVAL
    jitter_seed: Optional[int] = None
    run_until_seconds: Optional[int] = None
    refund_threshold_bp: int = sc.DEFAULT_REFUND_THRESHOLD_BP
    gas: GasSchedule = field(default_factory=GasSchedule)
    rate_card: RateCard = field(default_factory=RateCard)
    provider_region: str = "EU"
    provider_gdpr_compliant: bool = True


@dataclass
class ScriptEvent:
    at_time: int
    actor: str
    action: str
    params: dict


@dataclass
class ScenarioScript:
    config: ScenarioConfig
    genesis: dict[str, int]
    events: list[ScriptEvent]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _need(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise ValidationError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is int:
        raise ValidationError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _int_field(obj: dict, key: str, where: str, default=None, minimum=0) -> int:
    if key not in obj:
        if default is None:
            raise ValidationError(f"{where}: missing required field {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key}: must be an integer")
    if value < minimum:
        raise ValidationError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _bool_field(obj: dict, key: str, where: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}.{key}: must be a boolean")
    return value


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


def _parse_config(raw: dict) -> ScenarioConfig:
    _check_keys(
        raw,
        {
            "block_interval_seconds",
            "jitter_seed",
            "run_until_seconds",
            "refund_threshold_bp",
            "gas",
            "rate_card",
            "provider",
        },
        "config",
    )
    cfg = ScenarioConfig()
    cfg.block_interval = _int_field(
        raw, "block_interval_seconds", "config", DEFAULT_BLOCK_INTERVAL, minimum=1
    )
    if raw.get("jitter_seed") is not None:
        cfg.jitter_seed = _int_field(raw, "jitter_seed", "config")
    if raw.get("run_until_seconds") is not None:
        cfg.run_until_seconds = _int_field(raw, "run_until_seconds", "config")
    cfg.refund_threshold_bp = _int_field(
        raw, "refund_threshold_bp", "config", sc.DEFAULT_REFUND_THRESHOLD_BP
    )
    gas_raw = raw.get("gas", {})
    if not isinstance(gas_raw, dict):
        raise ValidationError("config.gas: must be an object")
    _check_keys(
        gas_raw,
        {"transfer_gas", "contract_call_gas", "contract_deploy_gas", "gas_price_gwei"},
        "config.gas",
    )
    try:
        cfg.gas = GasSchedule(
            transfer_gas=_int_field(gas_raw, "transfer_gas", "config.gas", 21_000),
            contract_call_gas=_int_field(
                gas_raw, "contract_call_gas", "config.gas", 50_000
            ),
            contract_deploy_gas=_int_field(
                gas_raw, "contract_deploy_gas", "config.gas", 200_000
            ),
            gas_price_wei=gwei(_int_field(gas_raw, "gas_price_gwei", "config.gas", 20)),
        )
    except (ValueError, GasPriceOutOfRange) as exc:
        raise ValidationError(f"config.gas: {exc}") from exc
    card_raw = raw.get("rate_card", {})
    if not isinstance(card_raw, dict):
        raise ValidationError("config.rate_card: must be an object")
    _check_keys(
        card_raw,
        {
            "base_rate_wei_per_second",
            "standby_rate_wei_per_second",
            "high_availability_threshold_bp",
            "high_availability_multiplier_bp",
            "quote_ttl_blocks",
        },
        "config.rate_card",
    )
    defaults = RateCard()
    try:
        base_rate = (
            parse_wei(card_raw["base_rate_wei_per_second"], "config.rate_card.base_rate")
            if "base_rate_wei_per_second" in card_raw
            else defaults.base_rate_wei_per_second
        )
        standby_rate = (
            parse_wei(
                card_raw["standby_rate_wei_per_second"], "config.rate_card.standby_rate"
            )
            if "standby_rate_wei_per_second" in card_raw
            else defaults.standby_rate_wei_per_second
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cfg.rate_card = RateCard(
        base_rate_wei_per_second=base_rate,
        standby_rate_wei_per_second=standby_rate,
        high_availability_threshold_bp=_int_field(
            card_raw,
            "high_availability_threshold_bp",
            "config.rate_card",
            defaults.high_availability_threshold_bp,
        ),
        high_availability_multiplier_bp=_int_field(
            card_raw,
            "high_availability_multiplier_bp",
            "config.rate_card",
            defaults.high_availability_multiplier_bp,
        ),
        quote_ttl_blocks=_int_field(
            card_raw, "quote_ttl_blocks", "config.rate_card", defaults.quote_ttl_blocks
        ),
    )
    provider = raw.get("provider", {})
    if not isinstance(provider, dict):
        raise ValidationError("config.provider: must be an object")
    _check_keys(provider, {"region", "gdpr_compliant"}, "config.provider")
    cfg.provider_region = provider.get("region", "EU")
    cfg.provider_gdpr_compliant = _bool_field(
        provider, "gdpr_compliant", "config.provider", default=True
    )
    if not isinstance(cfg.provider_region, str):
        raise ValidationError("config.provider.region: must be a string")
    return cfg


def _parse_value_param(value: Any, where: str) -> str:
    if value in (PAY_QUOTED, PAY_WRONG):
        return value
    if isinstance(value, str):
        try:
            parse_wei(value, where)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return value
    raise ValidationError(f"{where}: must be 'quoted', 'wrong', or a decimal string")


def _parse_event(raw: Any, index: int, genesis: dict[str, int]) -> ScriptEvent:
    where = f"events[{index}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    _check_keys(raw, {"at_time", "actor", "action", "params"}, where)
    at_time = _int_field(raw, "at_time", where)
    actor = _need(raw, "actor", str, where)
    if actor not in genesis:
        raise ValidationError(f"{where}.actor: undeclared actor {actor!r}")
    action = _need(raw, "action", str, where)
    if action not in ACTIONS:
        raise ValidationError(f"{where}.action: unknown action {action!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError(f"{where}.params: must be an object")
    _validate_params(action, params, f"{where}.params", genesis)
    return ScriptEvent(at_time=at_time, actor=actor, action=action, params=params)


def _validate_params(action: str, p: dict, where: str, genesis: dict[str, int]) -> None:
    if action == "request_session":
        _check_keys(
            p,
            {
                "session",
                "owner",
                "kind",
                "availability_target_bp",
                "video_quality",
                "max_period_seconds",
                "constraints",
                "shares",
                "ballot",
                "standby",
            },
            where,
        )
        _need(p, "session", str, where)
        owner = _need(p, "owner", str, where)
        if owner not in genesis:
            raise ValidationError(f"{where}.owner: undeclared actor {owner!r}")
        kind = _need(p, "kind", str, where)
        if kind not in KIND_NAMES:
            raise ValidationError(f"{where}.kind: unknown contract kind {kind!r}")
        _int_field(p, "availability_target_bp", where)
        _need(p, "video_quality", str, where)
        _int_field(p, "max_period_seconds", where)
        if "constraints" in p:
            c = p["constraints"]
            if not isinstance(c, dict):
                raise ValidationError(f"{where}.constraints: must be an object")
            _check_keys(
                c,
                {"gdpr_required", "allowed_regions", "price_multiplier_bp"},
                f"{where}.constraints",
            )
            regions = c.get("allowed_regions", [])
            if not isinstance(regions, list) or not all(
                isinstance(r, str) for r in regions
            ):
                raise ValidationError(
                    f"{where}.constraints.allowed_regions: must be a list of strings"
                )
            _bool_field(c, "gdpr_required", f"{where}.constraints", default=False)
            _int_field(
                c,
                "price_multiplier_bp",
                f"{where}.constraints",
                default=sc.IDENTITY_MULTIPLIER_BP,
            )
        if "shares" in p:
            shares = p["shares"]
            if not isinstance(shares, dict) or not shares:
                raise ValidationError(f"{where}.shares: must be a non-empty object")
            denominators = set()
            for addr, pair in shares.items():
                if addr not in genesis:
                    raise ValidationError(f"{where}.shares: undeclared actor {addr!r}")
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
                ):
                    raise ValidationError(
                        f"{where}.shares.{addr}: must be [numerator, denominator]"
                    )
                denominators.add(pair[1])
            if len(denominators) != 1:
                raise ValidationError(f"{where}.shares: denominators must all match")
        if kind == "income_division" and "shares" not in p:
            raise ValidationError(f"{where}: income_division requires shares")
        if kind == "consensus_decision" and "ballot" not in p:
            raise ValidationError(f"{where}: consensus_decision requires a ballot label")
        if "ballot" in p:
            _need(p, "ballot", str, where)
        if "standby" in p:
            s = p["standby"]
            if not isinstance(s, dict):
                raise ValidationError(f"{where}.standby: must be an object")
            _check_keys(s, {"rate_wei_per_second", "window_seconds"}, f"{where}.standby")
            try:
                parse_wei(
                    _need(s, "rate_wei_per_second", str, f"{where}.standby"),
                    f"{where}.standby.rate",
                )
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
            _int_field(s, "window_seconds", f"{where}.standby")
    elif action == "approve_and_pay":
        _check_keys(p, {"session", "value"}, where)
        _need(p, "session", str, where)
        _parse_value_param(_need(p, "value", str, where), f"{where}.value")
    elif action in ("countersign", "end_session", "quota_start", "quota_stop"):
        _check_keys(p, {"session"}, where)
        _need(p, "session", str, where)
    elif action == "qos_sample":
        _check_keys(p, {"session", "available"}, where)
        _need(p, "session", str, where)
        if not isinstance(p.get("available"), bool):
            raise ValidationError(f"{where}.available: must be a boolean")
    elif action == "quota_purchase":
        _check_keys(p, {"session", "minutes", "value"}, where)
        _need(p, "session", str, where)
        _int_field(p, "minutes", where, minimum=1)
        _parse_value_param(_need(p, "value", str, where), f"{where}.value")
    elif action == "deploy_ballot":
        _check_keys(p, {"ballot", "voters"}, where)
        _need(p, "ballot", str, where)
        voters = p.get("voters")
        if not isinstance(voters, list) or not voters:
            raise ValidationError(f"{where}.voters: must be a non-empty list")
        for voter in voters:
            if not isinstance(voter, str) or voter not in genesis:
                raise ValidationError(f"{where}.voters: undeclared voter {voter!r}")
    elif action == "cast_vote":
        _check_keys(p, {"ballot", "choice"}, where)
        _need(p, "ballot", str, where)
        if p.get("choice") not in ("yes", "no"):
            raise ValidationError(f"{where}.choice: must be 'yes' or 'no'")
    elif action == "tally":
        _check_keys(p, {"ballot"}, where)
        _need(p, "ballot", str, where)
    elif action == "transfer":
        _check_keys(p, {"to", "value"}, where)
        to = _need(p, "to", str, where)
        if to not in genesis:
            raise ValidationError(f"{where}.to: undeclared actor {to!r}")
        value = _need(p, "value", str, where)
        try:
            parse_wei(value, f"{where}.value")
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc


def parse_scenario(document) -> ScenarioScript:
    """Parse and validate a scenario from JSON text, a dict, or bytes."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(document, dict):
        raise ValidationError("top level: must be a JSON object")
    _check_keys(document, {"config", "genesis", "events"}, "top level")
    raw_config = document.get("config", {})
    if not isinstance(raw_config, dict):
        raise ValidationError("config: must be an object")
    config = _parse_config(raw_config)

    raw_genesis = document.get("genesis")
    if not isinstance(raw_genesis, dict) or not raw_genesis:
        raise ValidationError("genesis: must be a non-empty object")
    genesis: dict[str, int] = {}
    for name, amount in raw_genesis.items():
        if name.startswith(CONTRACT_ADDRESS_PREFIX):
            raise ValidationError(
                f"genesis.{name}: the prefix {CONTRACT_ADDRESS_PREFIX!r} is reserved"
                " for contract addresses"
            )
        if not isinstance(amount, str):
            raise ValidationError(f"genesis.{name}: amount must be a decimal string")
        try:
            genesis[name] = parse_wei(amount, f"genesis.{name}")
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    raw_events = document.get("events", [])
    if not isinstance(raw_events, list):
        raise ValidationError("events: must be an array")
    events = [_parse_event(raw, i, genesis) for i, raw in enumerate(raw_events)]
    for i in range(1, len(events)):
        if events[i].at_time < events[i - 1].at_time:
            raise ValidationError(
                f"events[{i}].at_time: decreasing time "
                f"({events[i].at_time} after {events[i - 1].at_time})"
            )
    return ScenarioScript(config=config, genesis=genesis, events=events)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class SettlementReport:
    """Run output: final state snapshot plus per-contract settlements."""

    report: dict  # ordered, JSON-ready
    settlements: dict[str, dict]  # address -> {charge, refund, payouts, escrow}

    def to_json_text(self) -> str:
        return json.dumps(self.report, indent=2) + "\n"

    def summary_text(self) -> str:
        r = self.report
        lines = [
            f"blocks produced: {r['final_block']['height']}"
            f" (last timestamp {r['final_block']['timestamp']} s)",
            f"contracts: {len(r['contracts'])}, sessions: {len(r['sessions'])}",
            f"events applied: {r['events_applied']},"
            f" errors: {len(r['event_errors'])}",
            f"conservation: {'ok' if r['conservation_ok'] else 'VIOLATED'}",
            f"tx digest: {r['tx_digest']}",
        ]
        return "\n".join(lines) + "\n"


class _Runner:
    def __init__(self, script: ScenarioScript) -> None:
        cfg = script.config
        self.script = script
        self.ledger = Ledger(
            script.genesis,
            gas=cfg.gas,
            block_interval=cfg.block_interval,
            jitter_seed=cfg.jitter_seed,
        )
        self.orch = SessionOrchestrator(
            self.ledger,
            rate_card=cfg.rate_card,
            provider_region=cfg.provider_region,
            provider_gdpr_compliant=cfg.provider_gdpr_compliant,
            refund_threshold_bp=cfg.refund_threshold_bp,
        )
        self.sessions: dict[str, SessionRecord] = {}
        self.ballots: dict[str, AgreementContract] = {}
        self.errors: list[dict] = []

    def run(self, corrupt_wei: int = 0) -> SettlementReport:
        ledger = self.ledger
        for index, event in enumerate(self.script.events):
            ledger.advance_to(event.at_time)
            try:
                self._apply(event)
            except SimulationError as exc:
                self._record_error(index, event, type(exc).__name__, str(exc))
            except ValueError as exc:
                self._record_error(index, event, "ValueError", str(exc))
        horizon = self.script.config.run_until_seconds
        if horizon is not None:
            ledger.advance_to(horizon)
        ledger.drain_wakeups()
        if corrupt_wei:
            # fault-injection hook: mint wei out of thin air so the
            # conservation verdict trips (CLI/CI plumbing test only)
            first = next(iter(ledger.accounts))
            ledger.accounts[first] += corrupt_wei
        return self._build_report()

    def _record_error(self, index: int, event: ScriptEvent, name: str, detail: str) -> None:
        self.errors.append(
            {
                "event_index": index,
                "at_time": event.at_time,
                "actor": event.actor,
                "action": event.action,
                "error": name,
                "detail": detail,
            }
        )

    def _session(self, label: str) -> SessionRecord:
        if label not in self.sessions:
            raise ValidationError(f"unknown session label {label!r}")
        return self.sessions[label]

    def _ballot(self, label: str) -> AgreementContract:
        if label not in self.ballots:
            raise ValidationError(f"unknown ballot label {label!r}")
        return self.ballots[label]

    def _apply(self, ev: ScriptEvent) -> None:
        p = ev.params
        if ev.action == "request_session":
            self._request_session(ev)
        elif ev.action == "approve_and_pay":
            session = self._session(p["session"])
            value = self._resolve_value(p["value"], session.quote.price)
            if not self.orch.user_approve_and_pay(session, value, payer=ev.actor):
                raise ValidationError(
                    f"payment of {value} wei rejected: quoted price is "
                    f"{session.quote.price} wei"
                )
        elif ev.action == "countersign":
            session = self._session(p["session"])
            if ev.actor != session.owner:
                raise NotOwner(f"{ev.actor} is not the owner {session.owner}")
            self.orch.countersign_and_deploy(session)
        elif ev.action == "qos_sample":
            self.orch.record_qos_sample(self._session(p["session"]), p["available"])
        elif ev.action == "end_session":
            self.orch.end_session(self._session(p["session"]), caller=ev.actor)
        elif ev.action == "quota_purchase":
            session = self._session(p["session"])
            quoted = session.quote.per_minute_price * p["minutes"]
            value = self._resolve_value(p["value"], quoted)
            if not self.orch.quota_purchase(session, p["minutes"], value, payer=ev.actor):
                raise ValidationError(
                    f"quota payment of {value} wei rejected: "
                    f"{p['minutes']} minutes cost {quoted} wei"
                )
        elif ev.action == "quota_start":
            session = self._session(p["session"])
            self._require_end_user(ev.actor, session)
            self.orch.quota_start(session, caller=ev.actor)
        elif ev.action == "quota_stop":
            session = self._session(p["session"])
            self._require_end_user(ev.actor, session)
            self.orch.quota_stop(session, caller=ev.actor)
        elif ev.action == "deploy_ballot":
            ballot = self.orch.deploy_consensus(ev.actor, set(p["voters"]))
            self.ballots[p["ballot"]] = ballot
        elif ev.action == "cast_vote":
            sc.cast_vote(self.ledger, self._ballot(p["ballot"]), ev.actor, p["choice"])
        elif ev.action == "tally":
            sc.tally_and_enact(self._ballot(p["ballot"]))
        elif ev.action == "transfer":
            self.ledger.transfer(ev.actor, p["to"], parse_wei(p["value"]))

    @staticmethod
    def _require_end_user(actor: str, session: SessionRecord) -> None:
        contract_user = session.end_user
        if actor != contract_user:
            raise NotEndUser(f"{actor} is not the end user {contract_user}")

    @staticmethod
    def _resolve_value(token: str, quoted: int) -> int:
        if token == PAY_QUOTED:
            return quoted
        if token == PAY_WRONG:
            return quoted + 1
        return parse_wei(token)

    def _request_session(self, ev: ScriptEvent) -> None:
        p = ev.params
        kind = KIND_NAMES[p["kind"]]
        prefs = QosPreferences(
            availability_target_bp=p["availability_target_bp"],
            video_quality=p["video_quality"],
            max_period_seconds=p["max_period_seconds"],
            monetization_kind=kind,
        )
        constraints = None
        if "constraints" in p:
            c = p["constraints"]
            constraints = ConstraintTerms(
                gdpr_required=c.get("gdpr_required", False),
                allowed_regions=frozenset(c.get("allowed_regions", [])),
                price_multiplier_bp=c.get("price_multiplier_bp", sc.IDENTITY_MULTIPLIER_BP),
            )
        shares = None
        if "shares" in p:
            numerators = {addr: pair[0] for addr, pair in p["shares"].items()}
            denominator = next(iter(p["shares"].values()))[1]
            shares = IncomeShares(numerators=numerators, denominator=denominator)
        consensus_address = None
        if "ballot" in p:
            consensus_address = self._ballot(p["ballot"]).address
        flexible = None
        if "standby" in p:
            flexible = FlexibleTerms(
                standby_rate=parse_wei(p["standby"]["rate_wei_per_second"]),
                standby_window_seconds=p["standby"]["window_seconds"],
            )
        request = SessionRequest(
            end_user=ev.actor,
            owner=p["owner"],
            prefs=prefs,
            constraints=constraints,
            shares=shares,
            consensus_address=consensus_address,
            flexible=flexible,
        )
        self.sessions[p["session"]] = self.orch.request_session(request)

    # ---- report ------------------------------------------------------------

    def _build_report(self) -> SettlementReport:
        ledger = self.ledger
        contracts = []
        settlements: dict[str, dict] = {}
        for address in sorted(ledger.contracts, key=lambda a: int(a.split("-")[1])):
            contract = ledger.contracts[address]
            contracts.append(export_contract(contract))
            done = contract.settlement
            settlements[address] = {
                "charge": done.charge if done else 0,
                "refund": done.refund if done else 0,
                "payouts": dict(done.payouts) if done else {},
                "escrow": contract.escrow,
            }
        sessions = []
        labels = {record.contract_address: label for label, record in self.sessions.items()}
        for record in self.orch.sessions:
            sessions.append(
                {
                    "label": labels.get(record.contract_address, ""),
                    "contract": record.contract_address,
                    "url_token": record.url_token,
                    "deploy_block": record.deploy_block,
                    "stop_block": record.stop_block,
                    "availability_bp": record.trace.availability_bp(),
                    "settled_by": record.settled_by,
                    "step_log": list(record.step_log),
                }
            )
        ballots = [
            {"label": label, "contract": ballot.address}
            for label, ballot in self.ballots.items()
        ]
        report = {
            "final_balances": {
                name: str(ledger.accounts[name]) for name in sorted(ledger.accounts)
            },
            "fee_sink_wei": str(ledger.fee_sink),
            "conservation_ok": ledger.conservation_check(),
            "final_block": {
                "height": ledger.current_block.height,
                "timestamp": ledger.current_block.timestamp,
            },
            "contracts": contracts,
            "sessions": sessions,
            "ballots": ballots,
            "events_applied": len(self.script.events) - len(self.errors),
            "event_errors": self.errors,
            "tx_digest": ledger.tx_log_digest(),
        }
        return SettlementReport(report=report, settlements=settlements)


def run_scenario(script: ScenarioScript, corrupt_wei: int = 0) -> SettlementReport:
    """Execute a parsed script to its horizon and build the report."""
    return _Runner(script).run(corrupt_wei)


# ---------------------------------------------------------------------------
# random script generation (bounded, seeded)
# ---------------------------------------------------------------------------

ACTOR_POOL = ("alice", "bob", "carol", "dave", "erin")
MAX_ACTORS = 5
MAX_CONTRACTS = 8
MAX_EVENTS = 100


def generate_random_script(seed: int) -> dict:
    """One bounded random scenario document (<= 5 actors, 8 contracts, 100 events).

    Scripts are well formed by construction but deliberately include rejected
    payments, skipped countersignatures, timeouts, stale stops, low
    availability, inadmissible constraints, and quota misuse, all of which
    the settlement oracle models.
    """
    rng = random.Random(seed)
    n_actors = rng.randint(2, MAX_ACTORS)
    actors = list(ACTOR_POOL[:n_actors])
    genesis = {name: str((50 + rng.randint(0, 150)) * 10**18) for name in actors}
    config: dict[str, Any] = {
        "block_interval_seconds": 15,
        "refund_threshold_bp": 7_500,
        "gas": {"gas_price_gwei": rng.choice([1, 5, 20, 40])},
        "provider": {"region": "EU", "gdpr_compliant": rng.random() < 0.9},
    }
    if rng.random() < 0.5:
        config["jitter_seed"] = rng.randrange(2**31)

    events: list[dict] = []
    contract_budget = MAX_CONTRACTS
    clock = rng.randint(0, 300)
    label_seq = 0

    def emit(at_time: int, actor: str, action: str, **params) -> None:
        events.append(
            {"at_time": at_time, "actor": actor, "action": action, "params": params}
        )

    for _ in range(rng.randint(1, 4)):
        if contract_budget <= 0 or len(events) > MAX_EVENTS - 20:
            break
        label_seq += 1
        label = f"s{label_seq}"
        owner = rng.choice(actors)
        user = rng.choice([a for a in actors if a != owner] or actors)
        kind = rng.choice(
            [
                "fixed_price",
                "dynamic_price",
                "dynamic_price",
                "time_limited_quota",
                "flexible_period",
                "income_division",
                "consensus_decision",
                "constraint_based",
            ]
        )
        cost = 2 if kind in ("income_division", "consensus_decision") else 1
        if cost > contract_budget:
            kind = "dynamic_price"
            cost = 1
        contract_budget -= cost
        clock += rng.randint(20, 400)
        start = clock

        request: dict[str, Any] = {
            "session": label,
            "owner": owner,
            "kind": kind,
            "availability_target_bp": rng.choice([9_000, 9_500, 9_900, 9_980]),
            "video_quality": rng.choice(["SD", "HD"]),
            "max_period_seconds": rng.choice([600, 900, 1_800, 3_600]),
        }
        if kind == "constraint_based":
            inadmissible = rng.random() < 0.2
            request["constraints"] = {
                "gdpr_required": rng.random() < 0.5,
                "allowed_regions": ["US"] if inadmissible else ["EU", "US"],
                "price_multiplier_bp": rng.choice([8_000, 10_000, 11_000, 12_500]),
            }
        if kind == "income_division":
            beneficiaries = rng.sample(actors, k=min(len(actors), rng.randint(2, 3)))
            cuts = [rng.randint(1, 5) for _ in beneficiaries]
            denominator = sum(cuts)
            request["shares"] = {
                name: [cut, denominator] for name, cut in zip(beneficiaries, cuts)
            }
        if kind == "consensus_decision":
            ballot = f"b{label_seq}"
            voters = rng.sample(actors, k=rng.randint(1, min(4, len(actors))))
            emit(start, owner, "deploy_ballot", ballot=ballot, voters=voters)
            for voter in voters:
                clock += rng.randint(5, 40)
                choice = "yes" if rng.random() < 0.75 else "no"
                emit(clock, voter, "cast_vote", ballot=ballot, choice=choice)
            clock += rng.randint(5, 30)
            emit(clock, owner, "tally", ballot=ballot)
            request["ballot"] = ballot
            clock += rng.randint(5, 30)
        if kind == "flexible_period" and rng.random() < 0.5:
            request["standby"] = {
                "rate_wei_per_second": str(rng.choice([10**12, 5 * 10**12])),
                "window_seconds": request["max_period_seconds"],
            }

        emit(clock, user, "request_session", **request)

        if kind == "time_limited_quota":
            clock = _plan_quota(rng, emit, clock, label, user)
            continue

        clock += rng.randint(10, 120)
        pay_wrong = rng.random() < 0.1
        emit(
            clock,
            user,
            "approve_and_pay",
            session=label,
            value=PAY_WRONG if pay_wrong else PAY_QUOTED,
        )
        if pay_wrong and rng.random() < 0.5:
            clock += rng.randint(10, 60)
            emit(clock, user, "approve_and_pay", session=label, value=PAY_QUOTED)
            pay_wrong = False
        if pay_wrong:
            continue  # never funded; the contract stays quoted

        if rng.random() < 0.1:
            continue  # never countersigned; release-time wakeup refunds in full
        clock += rng.randint(10, 90)
        emit(clock, owner, "countersign", session=label)
        active_from = clock

        degraded = rng.random() < 0.15
        sample_at = active_from
        for _ in range(rng.randint(0, 4)):
            sample_at += rng.randint(30, max(31, request["max_period_seconds"] // 5))
            emit(
                sample_at,
                owner,
                "qos_sample",
                session=label,
                available=rng.random() >= (0.6 if degraded else 0.02),
            )
        clock = max(clock, sample_at)

        roll = rng.random()
        if roll < 0.55:
            stop_at = active_from + rng.randint(1, request["max_period_seconds"] - 1)
            emit(stop_at, user, "end_session", session=label)
            clock = max(clock, stop_at)
        elif roll < 0.7:
            stale = active_from + request["max_period_seconds"] + rng.randint(40, 200)
            emit(stale, user, "end_session", session=label)  # after expiry: rejected
            clock = max(clock, stale)
        # otherwise: no stop event; the timeout wakeup settles it

    for _ in range(rng.randint(0, 3)):
        if len(events) >= MAX_EVENTS - 1:
            break
        clock += rng.randint(10, 200)
        sender = rng.choice(actors)
        recipient = rng.choice([a for a in actors if a != sender] or actors)
        emit(
            clock,
            sender,
            "transfer",
            to=recipient,
            value=str(rng.randint(1, 2 * 10**18)),
        )

    events.sort(key=lambda e: e["at_time"])
    assert len(events) <= MAX_EVENTS
    return {"config": config, "genesis": genesis, "events": events}


def _plan_quota(rng: random.Random, emit, clock: int, label: str, user: str) -> int:
    minutes = rng.randint(2, 8)
    clock += rng.randint(10, 120)
    if rng.random() < 0.1:
        emit(clock, user, "quota_purchase", session=label, minutes=minutes, value=PAY_WRONG)
        clock += rng.randint(10, 60)
    emit(clock, user, "quota_purchase", session=label, minutes=minutes, value=PAY_QUOTED)
    remaining = minutes
    for _ in range(rng.randint(1, 3)):
        clock += rng.randint(20, 200)
        emit(clock, user, "quota_start", session=label)
        talk = rng.randint(30, max(60, remaining * 60 + 90))
        clock += talk
        emit(clock, user, "quota_stop", session=label)
        remaining -= min(-(-talk // 60), remaining)
        if remaining <= 0:
            if rng.random() < 0.5:
                clock += rng.randint(20, 90)
                emit(clock, user, "quota_start", session=label)  # exhausted: rejected
            break
    if remaining > 0 and rng.random() < 0.2:
        clock += rng.randint(20, 90)
        emit(clock, user, "quota_start", session=label)  # left open at the horizon
    return clock

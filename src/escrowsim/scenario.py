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
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import AbstractSet, Any, ClassVar, Optional, Union

from . import contracts as sc
from .contracts import (
    BP_SCALE,
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    FlexibleTerms,
    IncomeShares,
    export_contract,
)
from .errors import ParseError, SimulationError, ValidationError
from .ledger import CONTRACT_ADDRESS_PREFIX, DEFAULT_BLOCK_INTERVAL, GasSchedule, Ledger
from .orchestrator import SessionOrchestrator, SessionRecord
from .pricing import QosPreferences, RateCard
from .units import gwei, parse_wei

KIND_NAMES = {kind.value: kind for kind in ContractKind}

# Request params that only one contract kind reads; any other kind rejects them.
KIND_ONLY_PARAMS = {
    "shares": ContractKind.INCOME_DIVISION,
    "ballot": ContractKind.CONSENSUS_DECISION,
    "standby": ContractKind.FLEXIBLE_PERIOD,
}

# Input bounds: every wei amount fits an EVM word and every other integer 64
# bits, so no product the run forms is too long to write out as decimal.
MAX_WEI = 2**256 - 1
MAX_INT = 2**64 - 1

# Payment "value" accepts a decimal wei string or one of these tokens.
PAY_QUOTED = "quoted"
PAY_WRONG = "wrong"  # quoted price plus one wei: always rejected
Payment = Union[int, str]  # wei, PAY_QUOTED or PAY_WRONG


def resolve_payment(value: Payment, quoted: int) -> int:
    """Wei a scripted payment sends when ``quoted`` is the price asked."""
    if value == PAY_QUOTED:
        return quoted
    if value == PAY_WRONG:
        return quoted + 1
    return value


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


# ---------------------------------------------------------------------------
# typed events: one frozen class per action, built once by the parser
# ---------------------------------------------------------------------------

# Events compare by identity (no code compares two events) and share one
# __repr__: generating __eq__, __hash__ and __repr__ for every event class
# would only add import time.
_frozen_event = dataclass(frozen=True, slots=True, eq=False, repr=False)


@_frozen_event
class ScriptEvent:
    """One scripted action; subclasses hold its params, already validated.

    ``read_params(p, where, genesis)`` checks a params object holding only
    ``param_keys`` (by default the subclass's fields) and returns the fields.
    """

    action: ClassVar[str]
    param_keys: ClassVar[frozenset[str]]
    at_time: int
    actor: str

    def __repr__(self) -> str:
        values = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__name__}({values})"


# The parse table: action name -> event type. It alone defines the action set.
EVENT_TYPES: dict[str, type[ScriptEvent]] = {}


def _event(action: str):
    """Class decorator: the event type for ``action``, entered in EVENT_TYPES.

    A class declaring ``__slots__ = ()`` adds no fields and stays as it is.
    """

    def register(cls):
        cls.action = action
        if "__slots__" not in vars(cls):
            cls = _frozen_event(cls)
        if "param_keys" not in vars(cls):
            cls.param_keys = frozenset(f.name for f in fields(cls)) - {"at_time", "actor"}
        EVENT_TYPES[action] = cls
        return cls

    return register


@_frozen_event
class _SessionEvent(ScriptEvent):
    """An action on the session that a ``request_session`` labelled."""

    session: str

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return (_need(p, "session", str, where),)


@_event("request_session")
class RequestSession(ScriptEvent):
    """The actor, as end user, asks ``owner`` for a quote and a contract."""

    param_keys = frozenset(
        {
            "session",
            "owner",
            "kind",
            "availability_target_bp",
            "video_quality",
            "max_period_seconds",
            "constraints",
            *KIND_ONLY_PARAMS,
        }
    )
    session: str
    owner: str
    prefs: QosPreferences  # carries the contract kind
    constraints: Optional[ConstraintTerms]
    shares: Optional[IncomeShares]  # income_division only, required there
    ballot: Optional[str]  # consensus_decision only, required there
    standby: Optional[FlexibleTerms]  # flexible_period only

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        session = _need(p, "session", str, where)
        owner = _actor(p, "owner", where, genesis)
        name = _need(p, "kind", str, where)
        if name not in KIND_NAMES:
            raise ValidationError(f"{where}.kind: unknown contract kind {name!r}")
        kind = KIND_NAMES[name]
        for key, reader in KIND_ONLY_PARAMS.items():
            if key in p and kind is not reader:
                raise ValidationError(f"{where}.{key}: only {reader.value} requests take it")
        if kind is ContractKind.INCOME_DIVISION and "shares" not in p:
            raise ValidationError(f"{where}: income_division requires shares")
        if kind is ContractKind.CONSENSUS_DECISION and "ballot" not in p:
            raise ValidationError(f"{where}: consensus_decision requires a ballot label")
        prefs = _checked(
            where,
            QosPreferences,
            _int_field(p, "availability_target_bp", where),
            _need(p, "video_quality", str, where),
            _int_field(p, "max_period_seconds", where),
            kind,
        )
        return (
            session,
            owner,
            prefs,
            _read_constraints(p["constraints"], f"{where}.constraints")
            if "constraints" in p
            else None,
            _read_shares(p["shares"], f"{where}.shares", genesis) if "shares" in p else None,
            _need(p, "ballot", str, where) if "ballot" in p else None,
            _read_standby(p["standby"], f"{where}.standby") if "standby" in p else None,
        )


@_event("approve_and_pay")
class ApproveAndPay(_SessionEvent):
    """The actor locks the quoted price in escrow and becomes the end user."""

    value: Payment

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return _need(p, "session", str, where), _payment(p, where)


@_event("countersign")
class Countersign(_SessionEvent):
    """The owner countersigns a funded session, which activates it."""

    __slots__ = ()


@_event("qos_sample")
class QosSample(_SessionEvent):
    """One availability observation of an active session."""

    available: bool

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return _need(p, "session", str, where), _bool_field(p, "available", where, None)


@_event("end_session")
class EndSession(_SessionEvent):
    """The end user stops an active session, which settles it."""

    __slots__ = ()


@_event("quota_purchase")
class QuotaPurchase(_SessionEvent):
    """The actor buys ``minutes`` of a quota and becomes its end user."""

    minutes: int
    value: Payment

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return (
            _need(p, "session", str, where),
            _int_field(p, "minutes", where, minimum=1),
            _payment(p, where),
        )


@_event("quota_start")
class QuotaStart(_SessionEvent):
    """The end user opens a metered session on a bought quota."""

    __slots__ = ()


@_event("quota_stop")
class QuotaStop(_SessionEvent):
    """The end user closes the open metered session."""

    __slots__ = ()


@_event("deploy_ballot")
class DeployBallot(ScriptEvent):
    """The actor deploys a ballot that a consensus request can name."""

    ballot: str
    voters: frozenset[str]

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        ballot = _need(p, "ballot", str, where)
        voters = p.get("voters")
        if not isinstance(voters, list) or not voters:
            raise ValidationError(f"{where}.voters: must be a non-empty list")
        for voter in voters:
            if not isinstance(voter, str) or voter not in genesis:
                raise ValidationError(f"{where}.voters: undeclared voter {voter!r}")
        return ballot, frozenset(voters)


@_event("cast_vote")
class CastVote(ScriptEvent):
    """A registered voter votes yes or no; a second vote is rejected."""

    ballot: str
    choice: str  # "yes" | "no"

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        ballot = _need(p, "ballot", str, where)
        if p.get("choice") not in ("yes", "no"):
            raise ValidationError(f"{where}.choice: must be 'yes' or 'no'")
        return ballot, p["choice"]


@_event("tally")
class Tally(ScriptEvent):
    """Count the votes: yes from a strict majority of the voters enacts for good."""

    ballot: str

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return (_need(p, "ballot", str, where),)


@_event("transfer")
class Transfer(ScriptEvent):
    """A plain value transfer between two accounts."""

    to: str
    value: int

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        to = _actor(p, "to", where, genesis)
        return to, _wei(_need(p, "value", str, where), f"{where}.value")


def handler_table(owner: type) -> dict:
    """Event type -> the function of ``owner`` named after its action, ``_<action>``."""
    return {etype: getattr(owner, f"_{action}") for action, etype in EVENT_TYPES.items()}


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


def _int_field(
    obj: dict, key: str, where: str, default=None, minimum=0, maximum=MAX_INT
) -> int:
    if key not in obj:
        if default is None:
            raise ValidationError(f"{where}: missing required field {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key}: must be an integer")
    if value < minimum:
        raise ValidationError(f"{where}.{key}: must be >= {minimum}, got {value}")
    if value > maximum:
        raise ValidationError(f"{where}.{key}: must be <= {maximum}, got {value}")
    return value


def _bool_field(obj: dict, key: str, where: str, default: Optional[bool]) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}.{key}: must be a boolean")
    return value


def _actor(obj: dict, key: str, where: str, genesis: dict[str, int]) -> str:
    name = _need(obj, key, str, where)
    if name not in genesis:
        raise ValidationError(f"{where}.{key}: undeclared actor {name!r}")
    return name


def _wei(text: str, what: str) -> int:
    try:
        value = parse_wei(text, what)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if value > MAX_WEI:
        raise ValidationError(f"{what}: must be <= 2**256 - 1 wei")
    return value


def _payment(p: dict, where: str) -> Payment:
    value = _need(p, "value", str, where)
    if value in (PAY_QUOTED, PAY_WRONG):
        return value
    return _wei(value, f"{where}.value")


def _checked(where: str, build, *args, **kwargs):
    """``build(...)``, with a domain type's own error re-raised at ``where``."""
    try:
        return build(*args, **kwargs)
    except (SimulationError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _check_keys(obj: dict, allowed: AbstractSet[str], where: str) -> None:
    if not obj.keys() <= allowed:
        unknown = sorted(set(obj) - allowed)
        raise ValidationError(f"{where}: unknown field(s) {unknown}")


def _object(raw: Any, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    return raw


def _read_constraints(raw: Any, where: str) -> ConstraintTerms:
    c = _object(raw, where)
    _check_keys(c, {"gdpr_required", "allowed_regions", "price_multiplier_bp"}, where)
    regions = c.get("allowed_regions", [])
    if not isinstance(regions, list) or not all(isinstance(r, str) for r in regions):
        raise ValidationError(f"{where}.allowed_regions: must be a list of strings")
    return ConstraintTerms(
        gdpr_required=_bool_field(c, "gdpr_required", where, default=False),
        allowed_regions=frozenset(regions),
        price_multiplier_bp=_int_field(
            c, "price_multiplier_bp", where, default=sc.IDENTITY_MULTIPLIER_BP
        ),
    )


def _read_shares(raw: Any, where: str, genesis: dict[str, int]) -> IncomeShares:
    if not isinstance(raw, dict) or not raw:
        raise ValidationError(f"{where}: must be a non-empty object")
    denominators = set()
    for addr, pair in raw.items():
        if addr not in genesis:
            raise ValidationError(f"{where}: undeclared actor {addr!r}")
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise ValidationError(f"{where}.{addr}: must be [numerator, denominator]")
        if max(pair) > MAX_INT:
            raise ValidationError(f"{where}.{addr}: must be <= {MAX_INT}")
        denominators.add(pair[1])
    if len(denominators) != 1:
        raise ValidationError(f"{where}: denominators must all match")
    numerators = {addr: pair[0] for addr, pair in raw.items()}
    return _checked(where, IncomeShares, numerators, denominators.pop())


def _read_standby(raw: Any, where: str) -> FlexibleTerms:
    s = _object(raw, where)
    _check_keys(s, {"rate_wei_per_second", "window_seconds"}, where)
    rate = _wei(_need(s, "rate_wei_per_second", str, where), f"{where}.rate_wei_per_second")
    return _checked(where, FlexibleTerms, rate, _int_field(s, "window_seconds", where))


# Config keys in the order they are checked, which fixes the error an input
# with several bad fields reports.
_GAS_KEYS = ("transfer_gas", "contract_call_gas", "contract_deploy_gas", "gas_price_gwei")
_RATE_CARD_WEI_KEYS = ("base_rate_wei_per_second", "standby_rate_wei_per_second")
_RATE_CARD_KEYS = (
    *_RATE_CARD_WEI_KEYS,
    "high_availability_threshold_bp",
    "high_availability_multiplier_bp",
    "quote_ttl_blocks",
)


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
        raw, "block_interval_seconds", "config", cfg.block_interval, minimum=1
    )
    if raw.get("jitter_seed") is not None:
        cfg.jitter_seed = _int_field(raw, "jitter_seed", "config")
    if raw.get("run_until_seconds") is not None:
        cfg.run_until_seconds = _int_field(raw, "run_until_seconds", "config")
    cfg.refund_threshold_bp = _int_field(
        raw, "refund_threshold_bp", "config", cfg.refund_threshold_bp, maximum=BP_SCALE
    )
    # Only the keys present are passed on: GasSchedule and RateCard own their defaults.
    gas_raw = _object(raw.get("gas", {}), "config.gas")
    _check_keys(gas_raw, set(_GAS_KEYS), "config.gas")
    gas = {key: _int_field(gas_raw, key, "config.gas") for key in _GAS_KEYS if key in gas_raw}
    if "gas_price_gwei" in gas:
        gas["gas_price_wei"] = gwei(gas.pop("gas_price_gwei"))
    cfg.gas = _checked("config.gas", GasSchedule, **gas)
    card_raw = _object(raw.get("rate_card", {}), "config.rate_card")
    _check_keys(card_raw, set(_RATE_CARD_KEYS), "config.rate_card")
    card = {}
    for key in _RATE_CARD_KEYS:
        if key not in card_raw:
            continue
        if key in _RATE_CARD_WEI_KEYS:
            text = _need(card_raw, key, str, "config.rate_card")
            card[key] = _wei(text, f"config.rate_card.{key}")
        else:
            card[key] = _int_field(card_raw, key, "config.rate_card")
    cfg.rate_card = RateCard(**card)
    provider = _object(raw.get("provider", {}), "config.provider")
    _check_keys(provider, {"region", "gdpr_compliant"}, "config.provider")
    cfg.provider_region = provider.get("region", cfg.provider_region)
    cfg.provider_gdpr_compliant = _bool_field(
        provider, "gdpr_compliant", "config.provider", cfg.provider_gdpr_compliant
    )
    if not isinstance(cfg.provider_region, str):
        raise ValidationError("config.provider.region: must be a string")
    return cfg


_EVENT_KEYS = frozenset({"at_time", "actor", "action", "params"})


def _parse_event(raw: Any, index: int, genesis: dict[str, int]) -> ScriptEvent:
    where = f"events[{index}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    _check_keys(raw, _EVENT_KEYS, where)
    at_time = _int_field(raw, "at_time", where)
    actor = _actor(raw, "actor", where, genesis)
    action = _need(raw, "action", str, where)
    event_type = EVENT_TYPES.get(action)
    if event_type is None:
        raise ValidationError(f"{where}.action: unknown action {action!r}")
    params = raw.get("params", {})
    where += ".params"
    if not isinstance(params, dict):
        raise ValidationError(f"{where}: must be an object")
    _check_keys(params, event_type.param_keys, where)
    return event_type(at_time, actor, *event_type.read_params(params, where, genesis))


def parse_scenario(document) -> ScenarioScript:
    """Parse and validate a scenario from JSON text, UTF-8 bytes, or a dict."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from exc
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer past the int-to-str digit limit
            raise ParseError(str(exc)) from exc
        except RecursionError as exc:
            raise ParseError("arrays and objects nested too deeply") from exc
    if not isinstance(document, dict):
        raise ValidationError("top level: must be a JSON object")
    _check_keys(document, {"config", "genesis", "events"}, "top level")
    config = _parse_config(_object(document.get("config", {}), "config"))

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
        genesis[name] = _wei(amount, f"genesis.{name}")

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

def render_json(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for a tree of dicts with str keys,
    lists, str, int, bool and None; any other type raises ``TypeError``.

    On CPython ``json.dumps`` with an indent runs the pure-Python encoder;
    this writes the same text with its C string escaper.  ``newline`` is the
    line break plus the indent of the line ``value`` sits on.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(k)}: {render_json(v, inner)}" for k, v in value.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [render_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class SettlementReport:
    """Run output: final state snapshot plus per-contract settlements."""

    report: dict  # ordered, JSON-ready
    settlements: dict[str, dict]  # address -> {charge, refund, payouts, escrow}

    def to_json_text(self) -> str:
        return render_json(self.report) + "\n"

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
                _RUNNER_HANDLERS[type(event)](self, event)
            except SimulationError as exc:
                self._record_error(index, event, type(exc).__name__, str(exc))
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

    # ---- one handler per event type -----------------------------------------

    def _request_session(self, ev: RequestSession) -> None:
        self.sessions[ev.session] = self.orch.request_session(
            ev.actor,
            ev.owner,
            ev.prefs,
            constraints=ev.constraints,
            shares=ev.shares,
            ballot=self._ballot(ev.ballot) if ev.ballot is not None else None,
            flexible=ev.standby,
        )

    def _approve_and_pay(self, ev: ApproveAndPay) -> None:
        session = self._session(ev.session)
        value = resolve_payment(ev.value, session.quote.price)
        if not self.orch.user_approve_and_pay(session, value, payer=ev.actor):
            raise ValidationError(
                f"payment of {value} wei rejected: quoted price is "
                f"{session.quote.price} wei"
            )

    def _countersign(self, ev: Countersign) -> None:
        self.orch.countersign_and_deploy(self._session(ev.session), ev.actor)

    def _qos_sample(self, ev: QosSample) -> None:
        self.orch.record_qos_sample(self._session(ev.session), ev.available)

    def _end_session(self, ev: EndSession) -> None:
        self.orch.end_session(self._session(ev.session), caller=ev.actor)

    def _quota_purchase(self, ev: QuotaPurchase) -> None:
        session = self._session(ev.session)
        quoted = session.quote.per_minute_price * ev.minutes
        value = resolve_payment(ev.value, quoted)
        if not self.orch.quota_purchase(session, ev.minutes, value, payer=ev.actor):
            raise ValidationError(
                f"quota payment of {value} wei rejected: "
                f"{ev.minutes} minutes cost {quoted} wei"
            )

    def _quota_start(self, ev: QuotaStart) -> None:
        self.orch.quota_start(self._session(ev.session), caller=ev.actor)

    def _quota_stop(self, ev: QuotaStop) -> None:
        self.orch.quota_stop(self._session(ev.session), caller=ev.actor)

    def _deploy_ballot(self, ev: DeployBallot) -> None:
        self.ballots[ev.ballot] = self.orch.deploy_consensus(ev.actor, set(ev.voters))

    def _cast_vote(self, ev: CastVote) -> None:
        sc.cast_vote(self.ledger, self._ballot(ev.ballot), ev.actor, ev.choice)

    def _tally(self, ev: Tally) -> None:
        sc.tally_and_enact(self._ballot(ev.ballot))

    def _transfer(self, ev: Transfer) -> None:
        self.ledger.transfer(ev.actor, ev.to, ev.value)

    # ---- report ------------------------------------------------------------

    def _build_report(self) -> SettlementReport:
        ledger = self.ledger
        contracts = []
        settlements: dict[str, dict] = {}
        # in sc-1, sc-2, ... order: register_contract adds them so and none is removed
        for address, contract in ledger.contracts.items():
            contracts.append(export_contract(contract))
            done = contract.settlement
            settlements[address] = {
                "charge": done.charge if done else 0,
                "refund": done.refund if done else 0,
                "payouts": dict(done.payouts) if done else {},
                "escrow": contract.escrow,
            }
        sessions = []
        labels = {record.contract.address: label for label, record in self.sessions.items()}
        for address, record in self.orch.sessions.items():
            sessions.append(
                {
                    "label": labels.get(address, ""),
                    "contract": address,
                    "url_token": record.url_token,
                    "deploy_block": record.deploy_block,
                    "stop_block": record.stop_block,
                    "availability_bp": record.contract.availability_bp(),
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


_RUNNER_HANDLERS = handler_table(_Runner)


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

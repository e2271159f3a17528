"""Scripted scenarios: typed events, parsing, execution, random generation.

A scenario is a JSON document with three top-level keys:

    config   block interval, optional jitter seed, gas schedule, rate card,
             refund threshold, provider posture, optional run horizon
    genesis  account name -> wei amount as a decimal string
    events   ordered list of {at_time, actor, action, params}

Amounts travel as decimal strings end to end; 10^18-scale integers do not
fit common numeric text ranges.  An event at time t executes in the first
block whose timestamp is >= t; events sharing a block run in script order.
Every run is deterministic for a fixed (script, seed) pair, including the
rendered report bytes.  The runner hands its finished records to a
``report.SettlementReport``, whose writer renders them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import AbstractSet, Any, NamedTuple, Optional, Union

from . import contracts as sc
from .contracts import (
    BP_SCALE,
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    FlexibleTerms,
    IncomeShares,
)
from .errors import (
    ECHO_CHARS,
    ParseError,
    SimulationError,
    ValidationError,
    collector_paused,
    echo,
)
from .ledger import CONTRACT_ADDRESS_PREFIX, DEFAULT_BLOCK_INTERVAL, GasSchedule, Ledger
from .orchestrator import SessionOrchestrator, SessionRecord
from .pricing import QosPreferences, RateCard
from .report import SettlementReport
# Unused here; bench/tracing.py wraps it by this name.  write_report looks the
# function up in ``report``, not here, so the wrapper records nothing.
from .report import export_contract
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
# Times in seconds (an event's ``at_time``, ``run_until_seconds`` and
# ``max_period_seconds``) are at most about 3.2 years: a jittered grid draws
# an interval for every block up to the last of them, about 6.7 million
# blocks at this bound.
MAX_SECONDS = 10**8

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
    """A script's config, built by the parser, which fills in the defaults."""

    block_interval: int
    jitter_seed: Optional[int]
    run_until_seconds: Optional[int]
    refund_threshold_bp: int
    gas: GasSchedule
    rate_card: RateCard
    provider_region: str
    provider_gdpr_compliant: bool


# ---------------------------------------------------------------------------
# typed events: one immutable tuple class per action, built once by the parser
# ---------------------------------------------------------------------------

# The parse table: action name -> event type. It alone defines the action set.
# Every event type is a NamedTuple whose fields start with (at_time, actor);
# the class attribute ``action`` names its action, ``param_keys`` the params
# it takes (by default its other fields), and ``label_key`` which label its
# third field holds: "session", "ballot" or None.  The parser checks a params
# object's keys and, where there is one, its label string; ``read_params(p,
# where, genesis)`` then checks the other params and returns the fields after
# the label (after ``actor`` where there is none).  A type that takes only its
# label keeps the default reader, which returns ().
EVENT_TYPES: dict[str, type] = {}


def _event(action: str):
    """Class decorator: the event type for ``action``, entered in EVENT_TYPES."""

    def register(cls):
        cls.action = action
        if "param_keys" not in vars(cls):
            cls.param_keys = frozenset(cls._fields[2:])
        cls.label_key = cls._fields[2] if cls._fields[2] in ("session", "ballot") else None
        if "read_params" not in vars(cls):
            cls.read_params = staticmethod(lambda p, where, genesis: ())
        EVENT_TYPES[action] = cls
        return cls

    return register


@_event("request_session")
class RequestSession(NamedTuple):
    """The actor, as end user, asks ``owner`` for a quote and a contract."""

    at_time: int
    actor: str
    session: str
    owner: str
    prefs: QosPreferences  # carries the contract kind
    constraints: Optional[ConstraintTerms]
    shares: Optional[IncomeShares]  # income_division only, required there
    ballot: Optional[str]  # consensus_decision only, required there
    standby: Optional[FlexibleTerms]  # flexible_period only

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

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        owner = p.get("owner")
        if type(owner) is not str or owner not in genesis:
            raise _actor_error(p, "owner", where)
        name = p.get("kind")
        if type(name) is not str:
            raise _field_error(p, "kind", where)
        kind = KIND_NAMES.get(name)
        if kind is None:
            raise ValidationError(f"{where}.kind: unknown contract kind {echo(name)}")
        for key, reader in KIND_ONLY_PARAMS.items():
            if key in p and kind is not reader:
                raise ValidationError(f"{where}.{key}: only {reader.value} requests take it")
        if kind is ContractKind.INCOME_DIVISION and "shares" not in p:
            raise ValidationError(f"{where}: income_division requires shares")
        if kind is ContractKind.CONSENSUS_DECISION and "ballot" not in p:
            raise ValidationError(f"{where}: consensus_decision requires a ballot label")
        target = p.get("availability_target_bp")
        if type(target) is not int or not 0 <= target <= MAX_INT:
            raise _int_error(p, "availability_target_bp", where)
        quality = p.get("video_quality")
        if type(quality) is not str:
            raise _field_error(p, "video_quality", where)
        period = p.get("max_period_seconds")
        if type(period) is not int or not 0 <= period <= MAX_SECONDS:
            raise _int_error(p, "max_period_seconds", where, maximum=MAX_SECONDS)
        prefs = _checked(where, QosPreferences, target, quality, period, kind)
        constraints = shares = ballot = standby = None
        if "constraints" in p:
            constraints = _read_constraints(p["constraints"], f"{where}.constraints")
        if "shares" in p:
            shares = _read_shares(p["shares"], f"{where}.shares", genesis)
        if "ballot" in p:
            ballot = p["ballot"]
            if type(ballot) is not str:
                raise _field_error(p, "ballot", where)
        if "standby" in p:
            standby = _read_standby(p["standby"], f"{where}.standby")
        return owner, prefs, constraints, shares, ballot, standby


@_event("approve_and_pay")
class ApproveAndPay(NamedTuple):
    """The actor locks the quoted price in escrow and becomes the end user."""

    at_time: int
    actor: str
    session: str
    value: Payment

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        return (_payment(p, where),)


@_event("countersign")
class Countersign(NamedTuple):
    """The owner countersigns a funded session, which activates it."""

    at_time: int
    actor: str
    session: str


@_event("qos_sample")
class QosSample(NamedTuple):
    """One availability observation of an active session."""

    at_time: int
    actor: str
    session: str
    available: bool

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        available = p.get("available")
        if type(available) is not bool:
            raise ValidationError(f"{where}.available: must be a boolean")
        return (available,)


@_event("end_session")
class EndSession(NamedTuple):
    """The end user stops an active session, which settles it."""

    at_time: int
    actor: str
    session: str


@_event("quota_purchase")
class QuotaPurchase(NamedTuple):
    """The actor buys ``minutes`` of a quota and becomes its end user."""

    at_time: int
    actor: str
    session: str
    minutes: int
    value: Payment

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        minutes = p.get("minutes")
        if type(minutes) is not int or not 1 <= minutes <= MAX_INT:
            raise _int_error(p, "minutes", where, minimum=1)
        return minutes, _payment(p, where)


@_event("quota_start")
class QuotaStart(NamedTuple):
    """The end user opens a metered session on a bought quota."""

    at_time: int
    actor: str
    session: str


@_event("quota_stop")
class QuotaStop(NamedTuple):
    """The end user closes the open metered session."""

    at_time: int
    actor: str
    session: str


@_event("deploy_ballot")
class DeployBallot(NamedTuple):
    """The actor deploys a ballot that a consensus request can name."""

    at_time: int
    actor: str
    ballot: str
    voters: frozenset[str]

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        voters = p.get("voters")
        if type(voters) is not list or not voters:
            raise ValidationError(f"{where}.voters: must be a non-empty list")
        for voter in voters:
            if type(voter) is not str or voter not in genesis:
                raise ValidationError(f"{where}.voters: undeclared voter {echo(voter)}")
        return (frozenset(voters),)


@_event("cast_vote")
class CastVote(NamedTuple):
    """A registered voter votes yes or no; a second vote is rejected."""

    at_time: int
    actor: str
    ballot: str
    choice: str  # "yes" | "no"

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        choice = p.get("choice")
        if choice != "yes" and choice != "no":
            raise ValidationError(f"{where}.choice: must be 'yes' or 'no'")
        return (choice,)


@_event("tally")
class Tally(NamedTuple):
    """Count the votes: yes from a strict majority of the voters enacts for good."""

    at_time: int
    actor: str
    ballot: str


@_event("transfer")
class Transfer(NamedTuple):
    """A plain value transfer between two accounts."""

    at_time: int
    actor: str
    to: str
    value: int

    @staticmethod
    def read_params(p: dict, where: str, genesis: dict[str, int]) -> tuple:
        to = p.get("to")
        if type(to) is not str or to not in genesis:
            raise _actor_error(p, "to", where)
        value = p.get("value")
        if type(value) is not str:
            raise _field_error(p, "value", where)
        return to, _wei(value, f"{where}.value")


ScriptEvent = Union[tuple(EVENT_TYPES.values())]  # any one of the event types


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

# Each reader tests the success case inline, and checks a value's type before
# using it as a dict or set key.  The ``_*_error`` helpers run only once a
# check has failed: they find out which of its conditions failed and build
# the error, so each message is written once, in its helper.  An object's
# check is ``type(x) is not dict or not x.keys() <= KEYS``, and
# ``_object_error`` its failure.

def _field_error(obj: dict, key: str, where: str) -> ValidationError:
    """A required field of one JSON type is missing or has another type."""
    if key not in obj:
        return ValidationError(f"{where}: missing required field {key!r}")
    return ValidationError(f"{where}.{key}: wrong type {type(obj[key]).__name__}")


def _int_error(
    obj: dict, key: str, where: str, minimum: int = 0, maximum: int = MAX_INT
) -> ValidationError:
    """An integer field is missing, not an integer, or outside [minimum, maximum]."""
    if key not in obj:
        return ValidationError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if type(value) is not int:
        return ValidationError(f"{where}.{key}: must be an integer")
    if value < minimum:
        return ValidationError(f"{where}.{key}: must be >= {minimum}, got {echo(str(value), str)}")
    return ValidationError(f"{where}.{key}: must be <= {maximum}, got {echo(str(value), str)}")


def _actor_error(obj: dict, key: str, where: str) -> ValidationError:
    """An account field is missing, not a string, or not a genesis account."""
    name = obj.get(key)
    if type(name) is not str:
        return _field_error(obj, key, where)
    return ValidationError(f"{where}.{key}: undeclared actor {echo(name)}")


def _object_error(obj: Any, allowed: AbstractSet[str], where: str) -> ValidationError:
    """A value is not an object, or holds keys outside ``allowed``."""
    if type(obj) is not dict:
        return ValidationError(f"{where}: must be an object")
    names = sorted(set(obj) - allowed, key=str)  # JSON keys are strings, dict keys need not be
    # the first three names, or only the first if one of them is cut
    shown = names[:3] if all(len(str(name)) <= ECHO_CHARS for name in names[:3]) else names[:1]
    more = f" and {len(names) - len(shown)} more" if len(names) > len(shown) else ""
    return ValidationError(f"{where}: unknown field(s) [{', '.join(map(echo, shown))}]{more}")


def _wei(text: str, what: str) -> int:
    try:
        value = parse_wei(text, what)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if value > MAX_WEI:
        raise ValidationError(f"{what}: must be <= 2**256 - 1 wei")
    return value


def _payment(p: dict, where: str) -> Payment:
    value = p.get("value")
    if type(value) is not str:
        raise _field_error(p, "value", where)
    if value == PAY_QUOTED or value == PAY_WRONG:
        return value
    return _wei(value, f"{where}.value")


def _checked(where: str, build, *args, **kwargs):
    """``build(...)``, with a domain type's own error re-raised at ``where``."""
    try:
        return build(*args, **kwargs)
    except (SimulationError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


_CONSTRAINT_KEYS = frozenset({"gdpr_required", "allowed_regions", "price_multiplier_bp"})


def _read_constraints(c: Any, where: str) -> ConstraintTerms:
    if type(c) is not dict or not c.keys() <= _CONSTRAINT_KEYS:
        raise _object_error(c, _CONSTRAINT_KEYS, where)
    regions = c.get("allowed_regions", [])
    if type(regions) is not list or not all(type(r) is str for r in regions):
        raise ValidationError(f"{where}.allowed_regions: must be a list of strings")
    gdpr_required = c.get("gdpr_required", False)
    if type(gdpr_required) is not bool:
        raise ValidationError(f"{where}.gdpr_required: must be a boolean")
    multiplier = c.get("price_multiplier_bp", sc.IDENTITY_MULTIPLIER_BP)
    if type(multiplier) is not int or not 0 <= multiplier <= MAX_INT:
        raise _int_error(c, "price_multiplier_bp", where)
    return ConstraintTerms(gdpr_required, frozenset(regions), multiplier)


def _read_shares(raw: Any, where: str, genesis: dict[str, int]) -> IncomeShares:
    if type(raw) is not dict or not raw:
        raise ValidationError(f"{where}: must be a non-empty object")
    denominators = set()
    for addr, pair in raw.items():
        if addr not in genesis:
            raise ValidationError(f"{where}: undeclared actor {echo(addr)}")
        if type(pair) is not list or len(pair) != 2 or not all(type(x) is int for x in pair):
            raise ValidationError(f"{where}.{echo(addr, str)}: must be [numerator, denominator]")
        if max(pair) > MAX_INT:
            raise ValidationError(f"{where}.{echo(addr, str)}: must be <= {MAX_INT}")
        denominators.add(pair[1])
    if len(denominators) != 1:
        raise ValidationError(f"{where}: denominators must all match")
    numerators = {addr: pair[0] for addr, pair in raw.items()}
    return _checked(where, IncomeShares, numerators, denominators.pop())


_STANDBY_KEYS = frozenset({"rate_wei_per_second", "window_seconds"})


def _read_standby(s: Any, where: str) -> FlexibleTerms:
    if type(s) is not dict or not s.keys() <= _STANDBY_KEYS:
        raise _object_error(s, _STANDBY_KEYS, where)
    text = s.get("rate_wei_per_second")
    if type(text) is not str:
        raise _field_error(s, "rate_wei_per_second", where)
    rate = _wei(text, f"{where}.rate_wei_per_second")
    window = s.get("window_seconds")
    if type(window) is not int or not 0 <= window <= MAX_INT:
        raise _int_error(s, "window_seconds", where)
    return _checked(where, FlexibleTerms, rate, window)


_CONFIG_KEYS = frozenset(
    {
        "block_interval_seconds",
        "jitter_seed",
        "run_until_seconds",
        "refund_threshold_bp",
        "gas",
        "rate_card",
        "provider",
    }
)
# Gas and rate card keys in the order they are checked, which fixes the error
# an input with several bad fields reports.
_GAS_KEYS = ("transfer_gas", "contract_call_gas", "contract_deploy_gas", "gas_price_gwei")
_RATE_CARD_WEI_KEYS = ("base_rate_wei_per_second", "standby_rate_wei_per_second")
_RATE_CARD_KEYS = (
    *_RATE_CARD_WEI_KEYS,
    "high_availability_threshold_bp",
    "high_availability_multiplier_bp",
    "quote_ttl_blocks",
)
_PROVIDER_KEYS = frozenset({"region", "gdpr_compliant"})


def _parse_config(raw: Any) -> ScenarioConfig:
    if type(raw) is not dict or not raw.keys() <= _CONFIG_KEYS:
        raise _object_error(raw, _CONFIG_KEYS, "config")
    interval = raw.get("block_interval_seconds", DEFAULT_BLOCK_INTERVAL)
    if type(interval) is not int or not 1 <= interval <= MAX_INT:
        raise _int_error(raw, "block_interval_seconds", "config", minimum=1)
    jitter_seed = raw.get("jitter_seed")
    if jitter_seed is not None and (type(jitter_seed) is not int or not 0 <= jitter_seed <= MAX_INT):
        raise _int_error(raw, "jitter_seed", "config")
    horizon = raw.get("run_until_seconds")
    if horizon is not None and (type(horizon) is not int or not 0 <= horizon <= MAX_SECONDS):
        raise _int_error(raw, "run_until_seconds", "config", maximum=MAX_SECONDS)
    threshold = raw.get("refund_threshold_bp", sc.DEFAULT_REFUND_THRESHOLD_BP)
    if type(threshold) is not int or not 0 <= threshold <= BP_SCALE:
        raise _int_error(raw, "refund_threshold_bp", "config", maximum=BP_SCALE)

    # Only the keys present are passed on: GasSchedule and RateCard own their defaults.
    gas_raw = raw.get("gas", {})
    if type(gas_raw) is not dict or not gas_raw.keys() <= set(_GAS_KEYS):
        raise _object_error(gas_raw, set(_GAS_KEYS), "config.gas")
    gas = {}
    for key in _GAS_KEYS:
        if key in gas_raw:
            value = gas_raw[key]
            if type(value) is not int or not 0 <= value <= MAX_INT:
                raise _int_error(gas_raw, key, "config.gas")
            gas[key] = value
    if "gas_price_gwei" in gas:
        gas["gas_price_wei"] = gwei(gas.pop("gas_price_gwei"))

    card_raw = raw.get("rate_card", {})
    if type(card_raw) is not dict or not card_raw.keys() <= set(_RATE_CARD_KEYS):
        raise _object_error(card_raw, set(_RATE_CARD_KEYS), "config.rate_card")
    card = {}
    for key in _RATE_CARD_KEYS:
        if key not in card_raw:
            continue
        value = card_raw[key]
        if key in _RATE_CARD_WEI_KEYS:
            if type(value) is not str:
                raise _field_error(card_raw, key, "config.rate_card")
            card[key] = _wei(value, f"config.rate_card.{key}")
        elif type(value) is not int or not 0 <= value <= MAX_INT:
            raise _int_error(card_raw, key, "config.rate_card")
        else:
            card[key] = value

    provider = raw.get("provider", {})
    if type(provider) is not dict or not provider.keys() <= _PROVIDER_KEYS:
        raise _object_error(provider, _PROVIDER_KEYS, "config.provider")
    gdpr_compliant = provider.get("gdpr_compliant", True)
    if type(gdpr_compliant) is not bool:
        raise ValidationError("config.provider.gdpr_compliant: must be a boolean")
    region = provider.get("region", "EU")
    if type(region) is not str:
        raise ValidationError("config.provider.region: must be a string")
    return ScenarioConfig(
        block_interval=interval,
        jitter_seed=jitter_seed,
        run_until_seconds=horizon,
        refund_threshold_bp=threshold,
        gas=_checked("config.gas", GasSchedule, **gas),
        rate_card=RateCard(**card),
        provider_region=region,
        provider_gdpr_compliant=gdpr_compliant,
    )


_EVENT_KEYS = frozenset({"at_time", "actor", "action", "params"})
_NO_PARAMS: dict = {}


def _parse_events(raw_events: list, genesis: dict[str, int]) -> list[ScriptEvent]:
    """The typed events, in script order; times may not decrease.

    Every event is checked before the order of their times, so a script with
    both faults reports the event's.
    """
    events = []
    latest = 0
    decrease = None
    for index, raw in enumerate(raw_events):
        where = f"events[{index}]"
        if type(raw) is not dict or not raw.keys() <= _EVENT_KEYS:
            raise _object_error(raw, _EVENT_KEYS, where)
        at_time = raw.get("at_time")
        if type(at_time) is not int or not 0 <= at_time <= MAX_SECONDS:
            raise _int_error(raw, "at_time", where, maximum=MAX_SECONDS)
        actor = raw.get("actor")
        if type(actor) is not str or actor not in genesis:
            raise _actor_error(raw, "actor", where)
        action = raw.get("action")
        if type(action) is not str:
            raise _field_error(raw, "action", where)
        event_type = EVENT_TYPES.get(action)
        if event_type is None:
            raise ValidationError(f"{where}.action: unknown action {echo(action)}")
        params = raw.get("params", _NO_PARAMS)
        where += ".params"
        if type(params) is not dict or not params.keys() <= event_type.param_keys:
            raise _object_error(params, event_type.param_keys, where)
        label_key = event_type.label_key
        if label_key is None:
            fields = (at_time, actor, *event_type.read_params(params, where, genesis))
        else:
            label = params.get(label_key)
            if type(label) is not str:
                raise _field_error(params, label_key, where)
            fields = (at_time, actor, label, *event_type.read_params(params, where, genesis))
        events.append(tuple.__new__(event_type, fields))
        if at_time < latest and decrease is None:
            decrease = f"events[{index}].at_time: decreasing time ({at_time} after {latest})"
        latest = at_time
    if decrease is not None:
        raise ValidationError(decrease)
    return events


_TOP_LEVEL_KEYS = frozenset({"config", "genesis", "events"})


@collector_paused
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
    if type(document) is not dict:
        raise ValidationError("top level: must be a JSON object")
    if not document.keys() <= _TOP_LEVEL_KEYS:
        raise _object_error(document, _TOP_LEVEL_KEYS, "top level")
    config = _parse_config(document.get("config", {}))

    raw_genesis = document.get("genesis")
    if type(raw_genesis) is not dict or not raw_genesis:
        raise ValidationError("genesis: must be a non-empty object")
    genesis: dict[str, int] = {}
    for name, amount in raw_genesis.items():
        if type(name) is not str:
            raise ValidationError(f"genesis: account name must be a string, got {echo(name)}")
        where = f"genesis.{echo(name, str)}"
        if name.startswith(CONTRACT_ADDRESS_PREFIX):
            raise ValidationError(
                f"{where}: the prefix {CONTRACT_ADDRESS_PREFIX!r} is reserved"
                " for contract addresses"
            )
        if type(amount) is not str:
            raise ValidationError(f"{where}: amount must be a decimal string")
        genesis[name] = _wei(amount, where)

    raw_events = document.get("events", [])
    if type(raw_events) is not list:
        raise ValidationError("events: must be an array")
    return ScenarioScript(config=config, genesis=genesis, events=_parse_events(raw_events, genesis))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

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
        ledger, deliver = self.ledger, self.orch.on_wakeup
        for index, event in enumerate(self.script.events):
            ledger.advance_to(event.at_time, deliver)
            try:
                _RUNNER_HANDLERS[type(event)](self, event)
            except SimulationError as exc:
                self._record_error(index, event, type(exc).__name__, str(exc))
        horizon = self.script.config.run_until_seconds
        if horizon is not None:
            ledger.advance_to(horizon, deliver)
        ledger.drain_wakeups(deliver)
        if corrupt_wei:
            # fault-injection hook: mint wei out of thin air so the
            # conservation verdict trips (the benchmark's --corrupt-script and tests)
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
            raise ValidationError(f"unknown session label {echo(label)}")
        return self.sessions[label]

    def _ballot(self, label: str) -> AgreementContract:
        if label not in self.ballots:
            raise ValidationError(f"unknown ballot label {echo(label)}")
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
        value = resolve_payment(ev.value, session.contract.price)
        self.orch.user_approve_and_pay(session, value, payer=ev.actor)

    def _countersign(self, ev: Countersign) -> None:
        self.orch.countersign_and_deploy(self._session(ev.session), ev.actor)

    def _qos_sample(self, ev: QosSample) -> None:
        self.orch.record_qos_sample(self._session(ev.session), ev.available)

    def _end_session(self, ev: EndSession) -> None:
        self.orch.end_session(self._session(ev.session), caller=ev.actor)

    def _quota_purchase(self, ev: QuotaPurchase) -> None:
        session = self._session(ev.session)
        value = resolve_payment(ev.value, sc.quota_cost(session.contract, ev.minutes))
        self.orch.quota_purchase(session, ev.minutes, value, payer=ev.actor)

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
        """The report of the finished run: its top-level values, and its own
        contracts, session records and ballots, which ``to_json_text`` writes
        row by row; no row is copied out of them here."""
        ledger = self.ledger
        settlements: dict[str, dict] = {}
        # in sc-1, sc-2, ... order: register_contract adds them so and none is removed
        for address, contract in ledger.contracts.items():
            done = contract.settlement
            settlements[address] = {
                "charge": done.charge if done else 0,
                "refund": done.refund if done else 0,
                "payouts": dict(done.payouts) if done else {},
                "escrow": contract.escrow,
            }
        # a label used again names only its latest session; the earlier one's is ""
        labels = {record.contract.address: label for label, record in self.sessions.items()}
        report = {
            "final_balances": {
                name: str(ledger.accounts[name]) for name in sorted(ledger.accounts)
            },
            "fee_sink_wei": str(ledger.fee_sink),
            "conservation_ok": ledger.conservation_check(),
            "final_block": {
                "height": ledger.height,
                "timestamp": ledger.timestamp,
            },
            "contracts": list(ledger.contracts.values()),
            "sessions": [
                (labels.get(address, ""), record)
                for address, record in self.orch.sessions.items()
            ],
            "ballots": list(self.ballots.items()),
            "events_applied": len(self.script.events) - len(self.errors),
            "event_errors": self.errors,
            "tx_digest": ledger.tx_log_digest(),
        }
        return SettlementReport(report=report, settlements=settlements)


_RUNNER_HANDLERS = handler_table(_Runner)


@collector_paused
def run_scenario(script: ScenarioScript, corrupt_wei: int = 0) -> SettlementReport:
    """Execute a parsed script to its horizon and build the report."""
    return _Runner(script).run(corrupt_wei)


# ---------------------------------------------------------------------------
# random script generation (bounded, seeded)
# ---------------------------------------------------------------------------

ACTOR_POOL = ("alice", "bob", "carol", "dave", "erin")
MAX_ACTORS = 5
MAX_EVENTS = 100


def _draws(rng: random.Random):
    """``randint`` and ``choice`` for ``rng``, drawn straight from ``rng.getrandbits``.

    Each inlines CPython's ``Random._randbelow_with_getrandbits`` (the same
    for every width >= 1 from 3.10 to 3.13): draw ``n.bit_length()`` bits,
    again while the draw is ``>= n``.  So they return and consume what
    ``rng.randint`` and ``rng.choice`` would, and a seed gives the same
    document, without the Python frames of ``randint -> randrange ->
    _randbelow``, where the generator spent most of its time.
    """
    getrandbits = rng.getrandbits

    def randint(a: int, b: int) -> int:
        n = b - a + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    def choice(seq):
        n = len(seq)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return randint, choice


def generate_random_script(seed: int) -> dict:
    """One bounded random scenario document.

    The loop counts bound it: at most 5 actors and 4 sessions; a session
    deploys at most 2 contracts (8 in all) and emits at most 15 events, and
    at most 3 transfers follow, so a script has at most 63 <= ``MAX_EVENTS``
    events.  Scripts are well formed by construction but deliberately
    include rejected payments, skipped countersignatures, timeouts, stale
    stops, low availability, inadmissible constraints, and quota misuse, all
    of which the settlement oracle models.
    """
    rng = random.Random(seed)
    randint, choice = _draws(rng)
    n_actors = randint(2, MAX_ACTORS)
    actors = list(ACTOR_POOL[:n_actors])
    genesis = {name: str((50 + randint(0, 150)) * 10**18) for name in actors}
    config: dict[str, Any] = {
        "block_interval_seconds": 15,
        "refund_threshold_bp": 7_500,
        "gas": {"gas_price_gwei": choice([1, 5, 20, 40])},
        "provider": {"region": "EU", "gdpr_compliant": rng.random() < 0.9},
    }
    if rng.random() < 0.5:
        config["jitter_seed"] = randint(0, 2**31 - 1)

    events: list[dict] = []
    clock = randint(0, 300)
    label_seq = 0

    def emit(at_time: int, actor: str, action: str, **params) -> None:
        events.append(
            {"at_time": at_time, "actor": actor, "action": action, "params": params}
        )

    for _ in range(randint(1, 4)):
        label_seq += 1
        label = f"s{label_seq}"
        owner = choice(actors)
        user = choice([a for a in actors if a != owner] or actors)
        kind = choice(
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
        clock += randint(20, 400)
        start = clock

        request: dict[str, Any] = {
            "session": label,
            "owner": owner,
            "kind": kind,
            "availability_target_bp": choice([9_000, 9_500, 9_900, 9_980]),
            "video_quality": choice(["SD", "HD"]),
            "max_period_seconds": choice([600, 900, 1_800, 3_600]),
        }
        if kind == "constraint_based":
            inadmissible = rng.random() < 0.2
            request["constraints"] = {
                "gdpr_required": rng.random() < 0.5,
                "allowed_regions": ["US"] if inadmissible else ["EU", "US"],
                "price_multiplier_bp": choice([8_000, 10_000, 11_000, 12_500]),
            }
        if kind == "income_division":
            beneficiaries = rng.sample(actors, k=min(len(actors), randint(2, 3)))
            cuts = [randint(1, 5) for _ in beneficiaries]
            denominator = sum(cuts)
            request["shares"] = {
                name: [cut, denominator] for name, cut in zip(beneficiaries, cuts)
            }
        if kind == "consensus_decision":
            ballot = f"b{label_seq}"
            voters = rng.sample(actors, k=randint(1, min(4, len(actors))))
            emit(start, owner, "deploy_ballot", ballot=ballot, voters=voters)
            for voter in voters:
                clock += randint(5, 40)
                vote = "yes" if rng.random() < 0.75 else "no"
                emit(clock, voter, "cast_vote", ballot=ballot, choice=vote)
            clock += randint(5, 30)
            emit(clock, owner, "tally", ballot=ballot)
            request["ballot"] = ballot
            clock += randint(5, 30)
        if kind == "flexible_period" and rng.random() < 0.5:
            request["standby"] = {
                "rate_wei_per_second": str(choice([10**12, 5 * 10**12])),
                "window_seconds": request["max_period_seconds"],
            }

        emit(clock, user, "request_session", **request)

        if kind == "time_limited_quota":
            clock = _plan_quota(rng, randint, emit, clock, label, user)
            continue

        clock += randint(10, 120)
        pay_wrong = rng.random() < 0.1
        emit(
            clock,
            user,
            "approve_and_pay",
            session=label,
            value=PAY_WRONG if pay_wrong else PAY_QUOTED,
        )
        if pay_wrong and rng.random() < 0.5:
            clock += randint(10, 60)
            emit(clock, user, "approve_and_pay", session=label, value=PAY_QUOTED)
            pay_wrong = False
        if pay_wrong:
            continue  # never funded; the contract stays quoted

        if rng.random() < 0.1:
            continue  # never countersigned; release-time wakeup refunds in full
        clock += randint(10, 90)
        emit(clock, owner, "countersign", session=label)
        active_from = clock

        degraded = rng.random() < 0.15
        sample_at = active_from
        for _ in range(randint(0, 4)):
            sample_at += randint(30, max(31, request["max_period_seconds"] // 5))
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
            stop_at = active_from + randint(1, request["max_period_seconds"] - 1)
            emit(stop_at, user, "end_session", session=label)
            clock = max(clock, stop_at)
        elif roll < 0.7:
            stale = active_from + request["max_period_seconds"] + randint(40, 200)
            emit(stale, user, "end_session", session=label)  # after expiry: rejected
            clock = max(clock, stale)
        # otherwise: no stop event; the timeout wakeup settles it

    for _ in range(randint(0, 3)):
        clock += randint(10, 200)
        sender = choice(actors)
        recipient = choice([a for a in actors if a != sender] or actors)
        emit(
            clock,
            sender,
            "transfer",
            to=recipient,
            value=str(randint(1, 2 * 10**18)),
        )

    events.sort(key=lambda e: e["at_time"])
    return {"config": config, "genesis": genesis, "events": events}


def _plan_quota(rng: random.Random, randint, emit, clock: int, label: str, user: str) -> int:
    minutes = randint(2, 8)
    clock += randint(10, 120)
    if rng.random() < 0.1:
        emit(clock, user, "quota_purchase", session=label, minutes=minutes, value=PAY_WRONG)
        clock += randint(10, 60)
    emit(clock, user, "quota_purchase", session=label, minutes=minutes, value=PAY_QUOTED)
    remaining = minutes
    for _ in range(randint(1, 3)):
        clock += randint(20, 200)
        emit(clock, user, "quota_start", session=label)
        talk = randint(30, max(60, remaining * 60 + 90))
        clock += talk
        emit(clock, user, "quota_stop", session=label)
        remaining -= min(-(-talk // 60), remaining)
        if remaining <= 0:
            if rng.random() < 0.5:
                clock += randint(20, 90)
                emit(clock, user, "quota_start", session=label)  # exhausted: rejected
            break
    if remaining > 0 and rng.random() < 0.2:
        clock += randint(20, 90)
        emit(clock, user, "quota_start", session=label)  # left open at the horizon
    return clock

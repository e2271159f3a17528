"""The settlement report: its record and its writer.

``SettlementReport`` holds what a run ends with.  Its ``report`` is an
ordered dict whose top-level values are what the CLI's summary, ``escrowsim
run`` and the benchmark's checks read: the final balances, the fee sink, the
conservation verdict, the final block, the event count, the event error rows
and the tx digest.  Its ``contracts``, ``sessions`` and ``ballots`` lists hold
the run's own records (each ``AgreementContract``, and ``(label, record)``
pairs), so no row is copied out of them until the report is written.
``settlements`` holds each contract's settlement, which the checks compare.

``write_report`` writes the bytes of ``json.dumps`` with ``indent=2`` of the
report's JSON form, reading each row straight from its record: each contract,
session, ballot and event error row is one f-string with its line breaks and
indentation written out (row keys sit 6 spaces deep, terms and settlement
keys 8), and a contract's terms one f-string per section it carries.  The
top-level keys, the rows and the separators between them go into one list
that is joined once, so the text is not copied section by section.  Strings
go through ``json``'s C escaper and ints through ``int.__repr__`` (wei
amounts are written as decimal strings); both raise ``TypeError`` on any
other type (a bool, being an int, would be written as 0 or 1).

``export_contract`` builds one contract's row as a dict in that JSON form;
the run and the writer do not call it.
"""

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

from .contracts import TIME_SETTLED_KINDS, AgreementContract, ContractKind, ContractState
from .errors import collector_paused


@dataclass
class SettlementReport:
    """Run output: the final state and the run's own records, plus per-contract settlements."""

    # ordered; ``contracts`` holds the run's AgreementContracts in sc-1, sc-2, ...
    # order, ``sessions`` and ``ballots`` (label, SessionRecord or ballot) pairs,
    # and every other value is in ``json`` types.  ``to_json_text`` writes it.
    report: dict
    settlements: dict[str, dict]  # address -> {charge, refund, payouts, escrow}

    @collector_paused
    def to_json_text(self) -> str:
        return write_report(self.report)

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


# Off the engine path; kept because bench/tracing.py wraps scenario.export_contract by name.
def export_contract(contract: AgreementContract) -> dict:
    """A contract's report row as a dict in ``json`` types: what ``json.loads``
    reads back from the row ``write_report`` writes for it."""
    terms: dict = {}
    if contract.kind in TIME_SETTLED_KINDS:
        terms["price_wei"] = str(contract.price)
        terms["lock_time_seconds"] = contract.lock_time_seconds
        terms["refund_threshold_bp"] = contract.refund_threshold_bp
    if contract.quota is not None:
        terms["per_minute_price_wei"] = str(contract.quota.per_minute_price)
        terms["minutes_purchased"] = contract.quota.minutes_purchased
        terms["minutes_consumed"] = contract.quota.minutes_consumed
        terms["sessions"] = [dict(s) for s in contract.quota.sessions]
    if contract.shares is not None:
        terms["shares"] = {
            addr: [num, contract.shares.denominator]
            for addr, num in contract.shares.numerators.items()
        }
    if contract.voting is not None:
        terms["voters"] = sorted(contract.voting.voters)
        terms["votes"] = {v: contract.voting.votes[v] for v in sorted(contract.voting.votes)}
        terms["enacted"] = contract.voting.enacted
    if contract.constraints is not None:
        terms["gdpr_required"] = contract.constraints.gdpr_required
        terms["allowed_regions"] = sorted(contract.constraints.allowed_regions)
        terms["price_multiplier_bp"] = contract.constraints.price_multiplier_bp
    if contract.flexible is not None:
        terms["standby_rate_wei_per_second"] = str(contract.flexible.standby_rate)
        terms["standby_window_seconds"] = contract.flexible.standby_window_seconds
        terms["min_charge_wei"] = str(contract.flexible.min_charge)
    if contract.division is not None:
        terms["division_address"] = contract.division.address
    snapshot = {
        "address": contract.address,
        "kind": contract.kind.value,
        "state": contract.state.value,
        "escrow_wei": str(contract.escrow),
        "owner": contract.owner,
        "end_user": contract.end_user,
        "terms": terms,
    }
    if contract.settlement is not None:
        snapshot["settlement"] = {
            "charge_wei": str(contract.settlement.charge),
            "refund_wei": str(contract.settlement.refund),
            "payouts": {a: str(v) for a, v in contract.settlement.payouts.items()},
        }
    return snapshot


_esc = encode_basestring_ascii
_int = int.__repr__
_N2, _N6, _N8 = "\n  ", "\n      ", "\n        "  # a line break plus 2, 6 or 8 spaces
# Each kind and state as the row writes it; a table lookup skips the Python-level
# ``Enum.value`` descriptor and an escape per contract.
_KIND_TEXT = {kind: _esc(kind.value) for kind in ContractKind}
_STATE_TEXT = {state: _esc(state.value) for state in ContractState}


def _bool(value: bool) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {type(value).__name__} is not a JSON bool")


def _items(items: list[str], newline: str, brackets: str) -> str:
    """Written items in the ``brackets`` container that starts on the line ``newline`` ends."""
    if not items:
        return brackets
    inner = newline + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{newline}{brackets[1]}"


def _str_map(value: dict[str, str], newline: str) -> str:
    return _items([f"{_esc(k)}: {_esc(v)}" for k, v in value.items()], newline, "{}")


def _wei_map(value: dict[str, int], newline: str) -> str:
    return _items([f'{_esc(k)}: "{_int(v)}"' for k, v in value.items()], newline, "{}")


def _quota_session(row: dict) -> str:
    stop = row["stop"]
    return (
        f'{{\n            "token": {_esc(row["token"])},'
        f'\n            "start": {_int(row["start"])},'
        f'\n            "stop": {"null" if stop is None else _int(stop)},'
        f'\n            "minutes": {_int(row["minutes"])}\n          }}'
    )


def _share(to: str, num: int, den: str) -> str:
    return f"{_esc(to)}: [\n            {_int(num)},\n            {den}\n          ]"


def _terms(c: AgreementContract) -> str:
    """A contract's terms: the sections it carries, in ``export_contract``'s order."""
    sections = []
    if c.kind in TIME_SETTLED_KINDS:
        sections.append(
            f'"price_wei": "{_int(c.price)}",'
            f'\n        "lock_time_seconds": {_int(c.lock_time_seconds)},'
            f'\n        "refund_threshold_bp": {_int(c.refund_threshold_bp)}'
        )
    quota = c.quota
    if quota is not None:
        sessions = list(map(_quota_session, quota.sessions))
        sections.append(
            f'"per_minute_price_wei": "{_int(quota.per_minute_price)}",'
            f'\n        "minutes_purchased": {_int(quota.minutes_purchased)},'
            f'\n        "minutes_consumed": {_int(quota.minutes_consumed)},'
            f'\n        "sessions": {_items(sessions, _N8, "[]")}'
        )
    if c.shares is not None:
        den = _int(c.shares.denominator)
        shares = [_share(to, num, den) for to, num in c.shares.numerators.items()]
        sections.append(f'"shares": {_items(shares, _N8, "{}")}')
    voting = c.voting
    if voting is not None:
        voters = list(map(_esc, sorted(voting.voters)))
        votes = [f"{_esc(v)}: {_esc(voting.votes[v])}" for v in sorted(voting.votes)]
        sections.append(
            f'"voters": {_items(voters, _N8, "[]")},'
            f'\n        "votes": {_items(votes, _N8, "{}")},'
            f'\n        "enacted": {_bool(voting.enacted)}'
        )
    constraints = c.constraints
    if constraints is not None:
        regions = list(map(_esc, sorted(constraints.allowed_regions)))
        sections.append(
            f'"gdpr_required": {_bool(constraints.gdpr_required)},'
            f'\n        "allowed_regions": {_items(regions, _N8, "[]")},'
            f'\n        "price_multiplier_bp": {_int(constraints.price_multiplier_bp)}'
        )
    flexible = c.flexible
    if flexible is not None:
        sections.append(
            f'"standby_rate_wei_per_second": "{_int(flexible.standby_rate)}",'
            f'\n        "standby_window_seconds": {_int(flexible.standby_window_seconds)},'
            f'\n        "min_charge_wei": "{_int(flexible.min_charge)}"'
        )
    if c.division is not None:
        sections.append(f'"division_address": {_esc(c.division.address)}')
    return _items(sections, _N6, "{}")


def _contract_row(c: AgreementContract) -> str:
    text = (
        f'{{\n      "address": {_esc(c.address)},'
        f'\n      "kind": {_KIND_TEXT[c.kind]},'
        f'\n      "state": {_STATE_TEXT[c.state]},'
        f'\n      "escrow_wei": "{_int(c.escrow)}",'
        f'\n      "owner": {_esc(c.owner)},'
        f'\n      "end_user": {_esc(c.end_user)},'
        f'\n      "terms": {_terms(c)}'
    )
    done = c.settlement
    if done is None:
        return text + "\n    }"
    return (
        f'{text},\n      "settlement": {{'
        f'\n        "charge_wei": "{_int(done.charge)}",'
        f'\n        "refund_wei": "{_int(done.refund)}",'
        f'\n        "payouts": {_wei_map(done.payouts, _N8)}\n      }}\n    }}'
    )


def _session_row(labelled: tuple) -> str:
    label, record = labelled
    deploy, stop = record.deploy_block, record.stop_block
    return (
        f'{{\n      "label": {_esc(label)},'
        f'\n      "contract": {_esc(record.contract.address)},'
        f'\n      "url_token": {_esc(record.url_token)},'
        f'\n      "deploy_block": {"null" if deploy is None else _int(deploy)},'
        f'\n      "stop_block": {"null" if stop is None else _int(stop)},'
        f'\n      "availability_bp": {_int(record.contract.availability_bp())},'
        f'\n      "settled_by": {_esc(record.settled_by)},'
        f'\n      "step_log": {_items(list(map(_int, record.step_log)), _N6, "[]")}\n    }}'
    )


def _ballot_row(labelled: tuple) -> str:
    label, ballot = labelled
    return (
        f'{{\n      "label": {_esc(label)},'
        f'\n      "contract": {_esc(ballot.address)}\n    }}'
    )


def _error_row(row: dict) -> str:
    return (
        f'{{\n      "event_index": {_int(row["event_index"])},'
        f'\n      "at_time": {_int(row["at_time"])},'
        f'\n      "actor": {_esc(row["actor"])},'
        f'\n      "action": {_esc(row["action"])},'
        f'\n      "error": {_esc(row["error"])},'
        f'\n      "detail": {_esc(row["detail"])}\n    }}'
    )


def _rows(parts: list[str], rows: list, write: Callable[..., str]) -> None:
    """Append a top-level list of ``rows`` to ``parts``, each written by ``write``.

    The pieces are those of ``_items`` at the top level: the opening bracket,
    each row with the separator after it, and the last separator swapped for
    the closing bracket.
    """
    if not rows:
        parts.append("[]")
        return
    parts.append("[\n    ")
    for row in rows:
        parts.append(write(row))
        parts.append(",\n    ")
    parts[-1] = "\n  ]"


def write_report(report: dict) -> str:
    """The report's JSON text, ``json.dumps(..., indent=2) + "\\n"`` of its JSON form."""
    block = report["final_block"]
    parts = [
        f'{{\n  "final_balances": {_str_map(report["final_balances"], _N2)},'
        f'\n  "fee_sink_wei": {_esc(report["fee_sink_wei"])},'
        f'\n  "conservation_ok": {_bool(report["conservation_ok"])},'
        f'\n  "final_block": {{\n    "height": {_int(block["height"])},'
        f'\n    "timestamp": {_int(block["timestamp"])}\n  }},'
        f'\n  "contracts": '
    ]
    _rows(parts, report["contracts"], _contract_row)
    parts.append(',\n  "sessions": ')
    _rows(parts, report["sessions"], _session_row)
    parts.append(',\n  "ballots": ')
    _rows(parts, report["ballots"], _ballot_row)
    parts.append(f',\n  "events_applied": {_int(report["events_applied"])},\n  "event_errors": ')
    _rows(parts, report["event_errors"], _error_row)
    parts.append(f',\n  "tx_digest": {_esc(report["tx_digest"])}\n}}\n')
    return "".join(parts)

"""The settlement report: its record, its contract rows and its writer.

``SettlementReport`` holds what a run ends with: the report, an ordered dict
in ``json`` types that ``scenario._Runner._build_report`` builds, and each
contract's settlement.  ``export_contract`` builds a contract's row.

``write_report`` writes the bytes of ``json.dumps(report, indent=2)`` for that
one shape: each contract, session, ballot and event error row is one f-string
with its line breaks and indentation written out (row keys sit 6 spaces deep,
terms and settlement keys 8), and a contract's terms one f-string per section
it carries.  The top-level keys, the rows and the separators between them go
into one list that is joined once, so the text is not copied section by
section.  Strings go through ``json``'s C escaper and ints through
``int.__repr__``; both raise ``TypeError`` on any other type (a bool, being
an int, would be written as 0 or 1).
"""

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

from .contracts import TIME_SETTLED_KINDS, AgreementContract


@dataclass
class SettlementReport:
    """Run output: final state snapshot plus per-contract settlements."""

    # ordered, JSON-ready, built in full by the run; ``to_json_text`` writes
    # it, and the CLI's summary, the benchmark's checks and the tests read it
    report: dict
    settlements: dict[str, dict]  # address -> {charge, refund, payouts, escrow}

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


def export_contract(contract: AgreementContract) -> dict:
    """Stable-keyed contract snapshot embedded in scenario reports."""
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


def _quota_session(row: dict) -> str:
    stop = row["stop"]
    return (
        f'{{\n            "token": {_esc(row["token"])},'
        f'\n            "start": {_int(row["start"])},'
        f'\n            "stop": {"null" if stop is None else _int(stop)},'
        f'\n            "minutes": {_int(row["minutes"])}\n          }}'
    )


def _share(to: str, fraction: list[int]) -> str:
    num, den = fraction
    return f"{_esc(to)}: [\n            {_int(num)},\n            {_int(den)}\n          ]"


def _terms(terms: dict) -> str:
    """A contract's terms: the sections it carries, in ``export_contract``'s order."""
    sections = []
    if "price_wei" in terms:
        sections.append(
            f'"price_wei": {_esc(terms["price_wei"])},'
            f'\n        "lock_time_seconds": {_int(terms["lock_time_seconds"])},'
            f'\n        "refund_threshold_bp": {_int(terms["refund_threshold_bp"])}'
        )
    if "per_minute_price_wei" in terms:
        sessions = list(map(_quota_session, terms["sessions"]))
        sections.append(
            f'"per_minute_price_wei": {_esc(terms["per_minute_price_wei"])},'
            f'\n        "minutes_purchased": {_int(terms["minutes_purchased"])},'
            f'\n        "minutes_consumed": {_int(terms["minutes_consumed"])},'
            f'\n        "sessions": {_items(sessions, _N8, "[]")}'
        )
    if "shares" in terms:
        shares = [_share(to, fraction) for to, fraction in terms["shares"].items()]
        sections.append(f'"shares": {_items(shares, _N8, "{}")}')
    if "voters" in terms:
        voters = list(map(_esc, terms["voters"]))
        sections.append(
            f'"voters": {_items(voters, _N8, "[]")},'
            f'\n        "votes": {_str_map(terms["votes"], _N8)},'
            f'\n        "enacted": {_bool(terms["enacted"])}'
        )
    if "gdpr_required" in terms:
        regions = list(map(_esc, terms["allowed_regions"]))
        sections.append(
            f'"gdpr_required": {_bool(terms["gdpr_required"])},'
            f'\n        "allowed_regions": {_items(regions, _N8, "[]")},'
            f'\n        "price_multiplier_bp": {_int(terms["price_multiplier_bp"])}'
        )
    if "standby_rate_wei_per_second" in terms:
        sections.append(
            f'"standby_rate_wei_per_second": {_esc(terms["standby_rate_wei_per_second"])},'
            f'\n        "standby_window_seconds": {_int(terms["standby_window_seconds"])},'
            f'\n        "min_charge_wei": {_esc(terms["min_charge_wei"])}'
        )
    if "division_address" in terms:
        sections.append(f'"division_address": {_esc(terms["division_address"])}')
    return _items(sections, _N6, "{}")


def _contract_row(row: dict) -> str:
    text = (
        f'{{\n      "address": {_esc(row["address"])},'
        f'\n      "kind": {_esc(row["kind"])},'
        f'\n      "state": {_esc(row["state"])},'
        f'\n      "escrow_wei": {_esc(row["escrow_wei"])},'
        f'\n      "owner": {_esc(row["owner"])},'
        f'\n      "end_user": {_esc(row["end_user"])},'
        f'\n      "terms": {_terms(row["terms"])}'
    )
    if "settlement" not in row:
        return text + "\n    }"
    done = row["settlement"]
    return (
        f'{text},\n      "settlement": {{'
        f'\n        "charge_wei": {_esc(done["charge_wei"])},'
        f'\n        "refund_wei": {_esc(done["refund_wei"])},'
        f'\n        "payouts": {_str_map(done["payouts"], _N8)}\n      }}\n    }}'
    )


def _session_row(row: dict) -> str:
    deploy, stop = row["deploy_block"], row["stop_block"]
    return (
        f'{{\n      "label": {_esc(row["label"])},'
        f'\n      "contract": {_esc(row["contract"])},'
        f'\n      "url_token": {_esc(row["url_token"])},'
        f'\n      "deploy_block": {"null" if deploy is None else _int(deploy)},'
        f'\n      "stop_block": {"null" if stop is None else _int(stop)},'
        f'\n      "availability_bp": {_int(row["availability_bp"])},'
        f'\n      "settled_by": {_esc(row["settled_by"])},'
        f'\n      "step_log": {_items(list(map(_int, row["step_log"])), _N6, "[]")}\n    }}'
    )


def _ballot_row(row: dict) -> str:
    return (
        f'{{\n      "label": {_esc(row["label"])},'
        f'\n      "contract": {_esc(row["contract"])}\n    }}'
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


def _rows(parts: list[str], rows: list[dict], write: Callable[[dict], str]) -> None:
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
    """``json.dumps(report, indent=2) + "\\n"`` for a report of ``_build_report``'s shape."""
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

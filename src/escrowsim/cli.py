"""Command-line interface.

Subcommands: ``run`` (execute a scenario file), ``oracle`` (independent
settlement recomputation for a scenario file), ``fees`` (payment-method
fee comparison), ``demo`` (built-in canonical dynamic-price session).

Exit codes: 0 clean run, 1 event errors or conservation violation,
2 unusable input (parse/validation failures, bad flags).  Diagnostics go
to stderr; data (reports, tables, traces) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Context, Decimal, Inexact, InvalidOperation

from .errors import GasPriceOutOfRange, ParseError, ValidationError, echo
from .oracle import oracle_settlement
from .orchestrator import STEP_DESCRIPTIONS
from .pricing import compare_fee_methods
from .scenario import run_scenario
from .script import MAX_INT, MAX_WEI, parse_scenario
from .units import format_eth


def _seed(text: str) -> int:
    try:
        if text.isascii() and text.isdigit() and int(text) <= MAX_INT:
            return int(text)
    except ValueError:  # past the int-to-str digit limit
        pass
    raise argparse.ArgumentTypeError(f"must be an integer in [0, {MAX_INT}], got {echo(text)}")


def _read_script(args):
    """Parse ``args.scenario`` and apply ``--seed``.

    On unusable input, say why on stderr and return None (exit code 2).
    """
    try:
        with open(args.scenario, "rb") as handle:
            script = parse_scenario(handle.read())
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return None
    except (ParseError, ValidationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None
    if args.seed is not None:
        script.config.jitter_seed = args.seed
    return script


def _write_out(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    script = _read_script(args)
    if script is None:
        return 2
    report = run_scenario(script)
    text = report.to_json_text()
    if args.out:
        if not _write_out(args.out, text):
            return 2
        sys.stdout.write(report.summary_text())
    else:
        sys.stdout.write(text)
    for err in report.report["event_errors"]:
        print(
            f"event {err['event_index']} at t={err['at_time']}"
            f" ({err['action']}): {err['error']}: {err['detail']}",
            file=sys.stderr,
        )
    if not report.report["conservation_ok"]:
        print("error: conservation violated", file=sys.stderr)
        return 1
    if report.report["event_errors"]:
        return 1
    return 0


def cmd_oracle(args) -> int:
    script = _read_script(args)
    if script is None:
        return 2
    expected = oracle_settlement(script)
    rendered = {
        addr: {
            "charge": str(entry["charge"]),
            "refund": str(entry["refund"]),
            "payouts": {a: str(v) for a, v in entry["payouts"].items()},
            "escrow": str(entry["escrow"]),
        }
        for addr, entry in expected.items()  # sc-1, sc-2, ...: the oracle adds them so
    }
    text = json.dumps(rendered, indent=2) + "\n"
    if args.out:
        if not _write_out(args.out, text):
            return 2
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# fees
# ---------------------------------------------------------------------------

# Every amount up to MAX_WEI cents, in cents, fits this context's precision,
# so scaling to cents is exact and a nonzero sub-cent digit traps as Inexact.
_CENTS_CONTEXT = Context(prec=len(str(MAX_WEI)), traps=[Inexact])
_MAX_USD = Decimal(MAX_WEI).scaleb(-2, _CENTS_CONTEXT)
_CENT = Decimal("0.01")


def _usd_cents(text: str) -> int:
    """A dollar amount in cents, written in ASCII.

    ``Decimal`` alone would also take spaces, underscores and other scripts' digits.
    """
    try:
        if not text.isascii() or "_" in text or any(c.isspace() for c in text):
            raise InvalidOperation
        amount = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a decimal amount: {echo(text)}")
    if not amount.is_finite():
        raise argparse.ArgumentTypeError(f"amount must be finite: {echo(text)}")
    if amount < 0:
        raise argparse.ArgumentTypeError("amount must be non-negative")
    if amount > _MAX_USD:  # checked before any arithmetic: 1e9999999 would overflow
        raise argparse.ArgumentTypeError(f"amount must be at most {_MAX_USD}: {echo(text)}")
    try:
        return int(amount.quantize(_CENT, context=_CENTS_CONTEXT).scaleb(2, _CENTS_CONTEXT))
    except Inexact:
        raise argparse.ArgumentTypeError(f"sub-cent precision not supported: {echo(text)}")


def _positive_cents(text: str) -> int:
    cents = _usd_cents(text)
    if cents <= 0:
        raise argparse.ArgumentTypeError("rate must be positive")
    return cents


def _gas(text: str) -> int:
    """A gas flag's integer in ASCII digits; a negative one is left for the fee table to reject.

    ``int`` alone would also take spaces, underscores and other scripts' digits.
    """
    digits = text[1:] if text[:1] == "-" else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(text)
    except ValueError:  # not digits, or past the int-to-str digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}")
    if value > MAX_INT:  # the fee of a larger count can be too long to print
        raise argparse.ArgumentTypeError(f"must be at most {MAX_INT}")
    return value


def _usd(cents: int) -> str:
    return f"${cents // 100}.{cents % 100:02d}"


def cmd_fees(args) -> int:
    try:
        rows = compare_fee_methods(
            amount_usd_cents=args.amount_usd,
            eth_usd_cents=args.eth_usd,
            gas_price_gwei=args.gas_price_gwei,
            gas_units=args.gas_units,
            enforce_gas_bounds=not args.allow_any_gas_price,
        )
    except GasPriceOutOfRange as exc:
        print(f"error: GasPriceOutOfRange: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"payment of {_usd(args.amount_usd)}"
        f" (ETH at {_usd(args.eth_usd)},"
        f" gas {args.gas_price_gwei} GWEI x {args.gas_units} units)"
    )
    # every cell but the last ends in a space, however long it is
    header = f"{'method':<11} {'fee (USD)':<19} {'proportional':<13} {'merchant min':<17} lock-in"
    print(header)
    for row in rows:
        if row["proportional"]:
            fee = f"{_usd(row['fee_usd_cents_min'])} - {_usd(row['fee_usd_cents_max'])}"
            prop = "yes"
        else:
            fee = f"{_usd(row['fee_usd_cents_min'])} (flat)"
            prop = "no"
        merchant = (
            f"{row['merchant_min_bp'] / 100:.2f}%"
            f" + {_usd(row['merchant_fixed_usd_cents'])}"
            if row["merchant_min_bp"] or row["merchant_fixed_usd_cents"]
            else "none"
        )
        print(f"{row['method']:<11} {fee:<19} {prop:<13} {merchant:<17} {row['lockin']}")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def _demo_script(timeout: bool, seed) -> dict:
    events = [
        {
            "at_time": 0,
            "actor": "alice",
            "action": "request_session",
            "params": {
                "session": "s1",
                "owner": "oliver",
                "kind": "dynamic_price",
                "availability_target_bp": 9_980,
                "video_quality": "HD",
                "max_period_seconds": 3_600,
            },
        },
        {
            "at_time": 0,
            "actor": "alice",
            "action": "approve_and_pay",
            "params": {"session": "s1", "value": "quoted"},
        },
        {
            "at_time": 15,
            "actor": "oliver",
            "action": "countersign",
            "params": {"session": "s1"},
        },
    ]
    for sample_at in (300, 600, 900):
        events.append(
            {
                "at_time": sample_at,
                "actor": "oliver",
                "action": "qos_sample",
                "params": {"session": "s1", "available": True},
            }
        )
    if not timeout:
        events.append(
            {
                "at_time": 1_800,
                "actor": "alice",
                "action": "end_session",
                "params": {"session": "s1"},
            }
        )
    config: dict = {"block_interval_seconds": 15}
    if seed is not None:
        config["jitter_seed"] = seed
    return {
        "config": config,
        "genesis": {
            "alice": "10000000000000000000",
            "oliver": "10000000000000000000",
        },
        "events": events,
    }


def cmd_demo(args) -> int:
    script = parse_scenario(_demo_script(args.timeout, args.seed))
    report = run_scenario(script)
    _, session = report.report["sessions"][0]
    contract = session.contract
    price = contract.price
    print("canonical dynamic-price session (1 hour, HD, availability target 99.80%)")
    print(f"  end user alice, owner oliver, contract {contract.address}")
    print(f"  quoted price: {price} wei ({format_eth(price)})")
    print(f"  service URL token: {session.url_token or '(never deployed)'}")
    print("workflow steps:")
    for step in session.step_log:
        print(f"  step {step:2d}: {STEP_DESCRIPTIONS[step]}")
    settlement = contract.settlement
    how = "end-user stop" if session.settled_by == "stop" else "timeout wakeup"
    print(f"settlement (by {how}, block {session.stop_block}):")
    print(f"  charge: {settlement.charge} wei ({format_eth(settlement.charge)})")
    print(f"  refund: {settlement.refund} wei ({format_eth(settlement.refund)})")
    print(f"  availability: {contract.availability_bp()} bp")
    verdict = "ok" if report.report["conservation_ok"] else "VIOLATED"
    print(f"conservation: {verdict}")
    print(f"tx digest: {report.report['tx_digest']}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escrowsim",
        description="Deterministic escrow-settlement simulator for on-demand services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and write the report")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=_seed, default=None, help="override the jitter seed")
    p_run.add_argument("--out", default=None, help="write the report JSON here")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser(
        "oracle", help="recompute expected settlements for a scenario file"
    )
    p_oracle.add_argument("scenario", help="path to a scenario JSON file")
    p_oracle.add_argument("--seed", type=_seed, default=None, help="override the jitter seed")
    p_oracle.add_argument("--out", default=None, help="write the settlements JSON here")
    p_oracle.set_defaults(func=cmd_oracle)

    p_fees = sub.add_parser("fees", help="compare payment-method fees for an amount")
    p_fees.add_argument("--amount-usd", type=_usd_cents, required=True)
    p_fees.add_argument("--eth-usd", type=_positive_cents, default=50_000)
    p_fees.add_argument("--gas-price-gwei", type=_gas, default=20)
    p_fees.add_argument("--gas-units", type=_gas, default=21_000)
    p_fees.add_argument(
        "--allow-any-gas-price",
        action="store_true",
        help="skip the [1, 40] GWEI bounds check",
    )
    p_fees.set_defaults(func=cmd_fees)

    p_demo = sub.add_parser("demo", help="run the built-in canonical session")
    p_demo.add_argument(
        "--timeout",
        action="store_true",
        help="let the session expire instead of stopping it",
    )
    p_demo.add_argument("--seed", type=_seed, default=None, help="jittered block times")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

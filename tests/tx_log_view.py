"""A run's balances, fee sink and settlements, read back from its tx log alone.

Each tx line names ``from``, ``to``, ``value_wei``, ``fee_wei`` and a
``kind``, so one pass over the lines replays every balance (a contract's
balance is its escrow) and gives each contract's settlement as the report
lists it:

- ``charge``: the sum of its outgoing ``charge`` lines;
- ``refund``: the sum of its outgoing ``refund`` lines;
- ``payouts``: its outgoing ``charge`` lines, summed by recipient;
- ``escrow``: the value it took in minus the value it paid out.

A zero-wei release writes no line, yet a settlement through a division
contract lists every shareholder, at 0 wei when the charge is 0.  A lock the
owner never countersigned is refunded whole and lists no payouts.  So once a
division-linked contract has paid anything out and has a ``call`` line from
its owner (the countersign), each shareholder of its division gets an entry,
0 unless a charge line pays them.
"""

import json


def tx_log_view(genesis: dict, lines, contracts) -> tuple[dict, int, dict]:
    """``(balances, fee_sink, settlements)`` from ``genesis`` and the tx ``lines``,
    with ``settlements`` keyed by the address of each of ``contracts``."""
    balances = dict(genesis)
    fee_sink = 0
    settlements = {c.address: {"charge": 0, "refund": 0, "payouts": {}} for c in contracts}
    owners = {c.address: c.owner for c in contracts}
    paid_out, countersigned = set(), set()
    for line in lines:
        tx = json.loads(line)
        source, to, kind = tx["from"], tx["to"], tx["kind"]
        value, fee = int(tx["value_wei"]), int(tx["fee_wei"])
        balances[source] = balances.get(source, 0) - value - fee
        balances[to] = balances.get(to, 0) + value
        fee_sink += fee
        if kind == "call" and owners.get(to) == source:
            countersigned.add(to)
        settlement = settlements.get(source)
        if settlement is None:
            continue
        paid_out.add(source)
        if kind == "charge":
            settlement["charge"] += value
            settlement["payouts"][to] = settlement["payouts"].get(to, 0) + value
        elif kind == "refund":
            settlement["refund"] += value
    settled = paid_out & countersigned
    for c in contracts:
        settlement = settlements[c.address]
        settlement["escrow"] = balances.get(c.address, 0)
        if c.division is not None and c.address in settled:
            for shareholder in c.division.shares.numerators:
                settlement["payouts"].setdefault(shareholder, 0)
    return balances, fee_sink, settlements

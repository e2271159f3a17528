"""The oracle's integer arithmetic against its rational specification.

Each rule of ``escrowsim.oracle`` is one floor or ceil division of Python
ints.  The specification is the same rule written with ``fractions.Fraction``:
the exact quotient first, then one ``math.floor`` or ``math.ceil``.  Every
test draws domain-valid values (wei up to 2**256 - 1, times up to
``MAX_SECONDS``, other integers up to ``MAX_INT``) and asserts that the two
agree.  The oracle stays independent of the engine: it imports from the
package only names that carry no engine logic.
"""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from escrowsim import oracle as oracle_module
from escrowsim.contracts import ContractKind, FlexibleTerms
from escrowsim.oracle import _largest_remainder, _Oracle
from escrowsim.pricing import VIDEO_MULTIPLIER_BP, QosPreferences
from escrowsim.scenario import (
    MAX_INT,
    MAX_SECONDS,
    MAX_WEI,
    EVENT_TYPES,
    QuotaStop,
    RequestSession,
    parse_scenario,
)

BP = 10_000

wei = st.integers(0, MAX_WEI)
seconds = st.integers(1, MAX_SECONDS)


def oracle(threshold_bp=7_500, **rate_card):
    """An oracle for an empty script whose config carries ``rate_card``."""
    card = {k: str(v) if k.endswith("wei_per_second") else v for k, v in rate_card.items()}
    doc = {
        "config": {"refund_threshold_bp": threshold_bp, "rate_card": card},
        "genesis": {"own": "0", "user": "0"},
        "events": [],
    }
    return _Oracle(parse_scenario(doc))


# ---- the rational specification --------------------------------------------------

def fraction_quote(card, prefs, standby, constraint_bp):
    """(price, per_minute, min_charge) with one exact factor, as the oracle once did."""
    if prefs.availability_target_bp > card.high_availability_threshold_bp:
        avail_bp = card.high_availability_multiplier_bp
    else:
        avail_bp = BP
    quality_bp = VIDEO_MULTIPLIER_BP[prefs.video_quality]
    factor = Fraction(quality_bp * avail_bp * constraint_bp, BP**3)
    base = card.base_rate_wei_per_second
    period = prefs.max_period_seconds
    if prefs.monetization_kind is ContractKind.TIME_LIMITED_QUOTA:
        per_minute = math.floor(base * 60 * factor)
        return per_minute * math.ceil(Fraction(period, 60)), per_minute, 0
    if prefs.monetization_kind is ContractKind.FLEXIBLE_PERIOD:
        if standby is not None:
            min_charge = standby.standby_rate * standby.standby_window_seconds
        else:
            min_charge = card.standby_rate_wei_per_second * period
        return min_charge + math.floor(base * period * factor), 0, min_charge
    return math.floor(base * period * factor), 0, 0


def fraction_largest_remainder(charge, numerators, denominator):
    payouts = {}
    remainders = []
    for index, (addr, num) in enumerate(numerators.items()):
        exact = Fraction(charge * num, denominator)
        payouts[addr] = math.floor(exact)
        remainders.append((payouts[addr] - exact, index, addr))  # ascending = largest first
    leftover = charge - sum(payouts.values())
    for _, _, addr in sorted(remainders)[:leftover]:
        payouts[addr] += 1
    return payouts


# ---- quotes ----------------------------------------------------------------------

@given(
    kind=st.sampled_from(list(ContractKind)),
    base=wei,
    standby_rate=wei,
    threshold=st.integers(0, MAX_INT),
    high_bp=st.integers(0, MAX_INT),
    target=st.integers(1, BP),
    quality=st.sampled_from(sorted(VIDEO_MULTIPLIER_BP)),
    period=seconds,
    constraint_bp=st.integers(0, MAX_INT),
    standby=st.none() | st.builds(FlexibleTerms, wei, st.integers(1, MAX_INT)),
)
# HD alone makes the factor 3/2: flooring it before the multiplication would
# drop the half; and 61 s is two started minutes, flooring them would bill one
@example(ContractKind.DYNAMIC_PRICE, 10**14, 0, 9_950, 12_000, 9_000, "HD", 3_600, BP, None)
@example(ContractKind.FLEXIBLE_PERIOD, 10**14, 10**12, 9_950, 12_000, 9_000, "HD", 3_600, BP, None)
@example(ContractKind.TIME_LIMITED_QUOTA, 10**14, 0, 9_950, 12_000, 9_000, "HD", 61, BP, None)
def test_quote_is_the_rational_quote(
    kind, base, standby_rate, threshold, high_bp, target, quality, period, constraint_bp, standby
):
    o = oracle(
        base_rate_wei_per_second=base,
        standby_rate_wei_per_second=standby_rate,
        high_availability_threshold_bp=threshold,
        high_availability_multiplier_bp=high_bp,
    )
    prefs = QosPreferences(target, quality, period, kind)
    if kind is not ContractKind.FLEXIBLE_PERIOD:
        standby = None
    ev = RequestSession(0, "user", "s", "own", prefs, None, None, None, standby)
    assert o._quote(ev, constraint_bp) == fraction_quote(o.card, prefs, standby, constraint_bp)


# ---- quota minutes ---------------------------------------------------------------

@given(
    per_minute=wei,
    bought=st.integers(1, MAX_INT).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1))
    ),
    start=st.integers(0, MAX_SECONDS),
    elapsed=st.integers(0, MAX_SECONDS),
)
@example(per_minute=1, bought=(10, 0), start=0, elapsed=61)
def test_quota_stop_bills_every_started_minute(per_minute, bought, start, elapsed):
    purchased, consumed = bought  # minutes bought, and those already used
    o = oracle()
    c = o._new_contract(ContractKind.TIME_LIMITED_QUOTA, "own")
    c.per_minute = per_minute
    c.funded_ts = 0
    c.end_user = "user"
    c.minutes_purchased = purchased
    c.minutes_consumed = consumed
    c.escrow = per_minute * (purchased - consumed)
    c.open_start_ts = start
    o.sessions["s"] = c
    o._quota_stop(QuotaStop(start + elapsed, "user", "s"), 0, start + elapsed)
    minutes = min(math.ceil(Fraction(elapsed, 60)), purchased - consumed)
    assert c.minutes_consumed == consumed + minutes
    assert c.escrow == per_minute * (purchased - consumed - minutes)
    assert c.charge == c.minutes_consumed * per_minute


# ---- availability ----------------------------------------------------------------

@given(total=st.integers(1, MAX_INT), data=st.data(), threshold=st.integers(0, BP))
def test_availability_floors_the_bp_against_the_threshold(total, data, threshold):
    up = data.draw(st.integers(0, total))
    exact_bp = math.floor(Fraction(BP * up, total))
    # the drawn threshold, and the two on either side of the exact bp
    for threshold_bp in {threshold, exact_bp, min(exact_bp + 1, BP)}:
        o = oracle(threshold_bp=threshold_bp)
        c = o._new_contract(ContractKind.DYNAMIC_PRICE, "own")
        c.samples_up, c.samples_total = up, total
        assert o._availability_ok(c) is (exact_bp >= threshold_bp)


# ---- proration -------------------------------------------------------------------

@given(
    kind=st.sampled_from([k for k in ContractKind if k is not ContractKind.TIME_LIMITED_QUOTA]),
    price=wei,
    data=st.data(),
    lock=seconds,
)
def test_settlement_prorates_with_one_floor(kind, price, data, lock):
    min_charge = data.draw(st.integers(0, price)) if kind is ContractKind.FLEXIBLE_PERIOD else 0
    used = data.draw(st.integers(0, lock))
    o = oracle()
    c = o._new_contract(kind, "own")
    c.price, c.min_charge, c.lock, c.escrow = price, min_charge, lock, price
    o._settle(c, used)
    if kind is ContractKind.FIXED_PRICE:
        charge = price
    else:
        charge = min_charge + math.floor(Fraction((price - min_charge) * used, lock))
    assert (c.charge, c.refund, c.escrow) == (charge, price - charge, 0)
    assert c.payouts == ({"own": charge} if charge else {})


# ---- largest remainder -----------------------------------------------------------

@given(
    charge=wei,
    numerators=st.lists(
        st.integers(1, 3) | st.integers(1, MAX_INT // 8), min_size=1, max_size=8
    ),
)
@example(charge=5, numerators=[1, 1, 1])  # equal remainders: listing order
@example(charge=7, numerators=[1, 2, 1, 2])  # ties among the larger remainders
def test_largest_remainder_is_the_rational_split(charge, numerators):
    shares = {f"p{i}": num for i, num in enumerate(numerators)}
    denominator = sum(numerators)
    payouts = _largest_remainder(charge, shares, denominator)
    assert list(payouts.items()) == list(
        fraction_largest_remainder(charge, shares, denominator).items()
    )
    assert sum(payouts.values()) == charge


# What the oracle may take from the package, by module: an enum, the jitter
# decoder, the video table, the event types, the payment tokens and the
# collector pause.  Pricing rules, contracts, the ledger's state and the
# orchestrator stay out, so the oracle prices and settles anew.
ORACLE_IMPORTS = {
    "contracts": {"ContractKind"},
    "errors": {"collector_paused"},
    "ledger": {"JITTER_INTERVAL_RANGE", "interval_total", "jitter_chunks"},
    "pricing": {"VIDEO_MULTIPLIER_BP"},
    "scenario": {
        "ScenarioScript",
        "ScriptEvent",
        "handler_table",
        "resolve_payment",
        *(etype.__name__ for etype in EVENT_TYPES.values()),
    },
}


def test_the_oracle_imports_no_engine_logic():
    taken = {}
    for node in ast.walk(ast.parse(Path(oracle_module.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert {a.name.split(".")[0] for a in node.names} <= sys.stdlib_module_names
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.ImportFrom):
            taken.setdefault(node.module, set()).update(a.name for a in node.names)
    assert taken.keys() <= ORACLE_IMPORTS.keys()
    for module, names in taken.items():
        assert names <= ORACLE_IMPORTS[module], module

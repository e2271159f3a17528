"""Ledger: blocks, transfers, fees, escrow plumbing, wakeups, conservation."""

import hashlib
import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escrowsim.contracts import AgreementContract, ContractKind
from escrowsim.errors import (
    GasPriceOutOfRange,
    InsufficientFunds,
    UnknownAddress,
    ValidationError,
)
from escrowsim import ledger as ledger_module
from escrowsim import oracle as oracle_module
from escrowsim.ledger import (
    _JITTER_CHUNK_WORDS,
    _JITTER_FIRST_CHUNK_WORDS,
    JITTER_INTERVAL_RANGE,
    Block,
    GasSchedule,
    Ledger,
    interval_total,
    jitter_chunks,
    replay_balances,
)
from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario, run_scenario
from escrowsim.units import eth, format_eth, gwei, parse_wei

from load_source import load_source


def zero_gas() -> GasSchedule:
    return GasSchedule(transfer_gas=0, contract_call_gas=0, contract_deploy_gas=0)


def clock(ledger: Ledger) -> Block:
    """The ledger's clock as a ``Block``."""
    return Block(ledger.height, ledger.timestamp)


# ---- units -----------------------------------------------------------------

def test_unit_relations():
    assert gwei(1) == 10**9
    assert eth(1) == 10**18
    assert eth(1) == gwei(10**9)


def test_parse_wei_accepts_decimal_strings():
    assert parse_wei("5000000000000000000") == 5 * 10**18
    assert parse_wei("0") == 0


def test_parse_wei_rejects_junk():
    with pytest.raises(ValueError):
        parse_wei("1.5")
    with pytest.raises(ValueError):
        parse_wei("-3")
    with pytest.raises(ValueError):
        parse_wei("0x10")
    # int() takes each of these; a wei string is ASCII digits only
    for text in (" +1_000 ", "\u0661\u0662", "\uff10\uff10", "-0"):
        with pytest.raises(ValueError):
            parse_wei(text)


def test_format_eth():
    assert format_eth(10**18) == "1 ETH"
    assert format_eth(648 * 10**15) == "0.648 ETH"
    assert format_eth(0) == "0 ETH"


# ---- block production ---------------------------------------------------------

def test_deterministic_blocks_tick_every_15_seconds():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    first = ledger.produce_block()
    assert (first.height, first.timestamp) == (1, 15)
    for _ in range(239):
        last = ledger.produce_block()
    assert last.height == 240
    assert last.timestamp == 3600


def test_jittered_blocks_converge_to_the_mean_interval():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), jitter_seed=7)
    prev = ledger.timestamp
    intervals = []
    for _ in range(10_000):
        block = ledger.produce_block()
        intervals.append(block.timestamp - prev)
        prev = block.timestamp
    assert all(5 <= step <= 25 for step in intervals)
    mean = sum(intervals) / len(intervals)
    # frozen: sample mean for seed 7 over 10000 draws is 14.8802
    assert mean == pytest.approx(14.8802, abs=1e-9)
    assert abs(mean - 15.0) < 0.5


def test_same_seed_reproduces_the_same_timestamps():
    a = Ledger({"x": eth(1)}, gas=zero_gas(), jitter_seed=42)
    b = Ledger({"x": eth(1)}, gas=zero_gas(), jitter_seed=42)
    for _ in range(500):
        assert a.produce_block() == b.produce_block()


# ---- gas schedule ----------------------------------------------------------------

def test_gas_price_bounds_enforced():
    with pytest.raises(GasPriceOutOfRange):
        GasSchedule(gas_price_wei=gwei(41))
    with pytest.raises(GasPriceOutOfRange):
        GasSchedule(gas_price_wei=0)


def test_fee_is_price_times_units_independent_of_value():
    gas = GasSchedule(gas_price_wei=gwei(20))
    assert gas.transfer_fee() == 21_000 * gwei(20)
    assert gas.call_fee() == 50_000 * gwei(20)
    assert gas.deploy_fee() == 200_000 * gwei(20)


# ---- transfers ---------------------------------------------------------------------

def test_transfer_debits_value_plus_fee():
    # fee of 21 GWEI: 21 gas units at 1 GWEI per unit
    gas = GasSchedule(transfer_gas=21, gas_price_wei=gwei(1))
    ledger = Ledger({"a": gwei(1000), "b": 0}, gas=gas)
    ledger.transfer("a", "b", gwei(100))
    assert ledger.balance_of("a") == gwei(879)
    assert ledger.balance_of("b") == gwei(100)
    assert ledger.fee_sink == gwei(21)
    assert ledger.conservation_check()


def test_transfer_boundary_spends_entire_balance():
    gas = GasSchedule(transfer_gas=21, gas_price_wei=gwei(1))
    ledger = Ledger({"a": gwei(1000), "b": 0}, gas=gas)
    ledger.transfer("a", "b", gwei(1000 - 21))
    assert ledger.balance_of("a") == 0


def test_transfer_insufficient_funds_changes_nothing():
    gas = GasSchedule(transfer_gas=21, gas_price_wei=gwei(1))
    ledger = Ledger({"a": gwei(1000), "b": 5}, gas=gas)
    with pytest.raises(InsufficientFunds) as exc:
        ledger.transfer("a", "b", gwei(1000))  # 1000 + 21 GWEI > 1000 GWEI
    assert str(exc.value) == f"a has {gwei(1000)} wei, needs {gwei(1021)}"
    assert ledger.balance_of("a") == gwei(1000)
    assert ledger.balance_of("b") == 5
    assert ledger.fee_sink == 0


def test_unknown_addresses_raise():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    with pytest.raises(UnknownAddress):
        ledger.balance_of("nobody")
    with pytest.raises(UnknownAddress):
        ledger.transfer("a", "nobody", 1)
    with pytest.raises(UnknownAddress):
        ledger.transfer("nobody", "a", 1)


def test_genesis_rejects_reserved_contract_prefix():
    with pytest.raises(ValidationError):
        Ledger({"sc-1": 10}, gas=zero_gas())


LONG_NAME = "n" * 5000


def _funded_ledger():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    ledger.register_contract(_contract(), payer="a")
    return ledger


@pytest.mark.parametrize("error, act", [
    (ValidationError, lambda: Ledger({"sc-" + LONG_NAME: 1})),
    (ValueError, lambda: Ledger({LONG_NAME: -1})),
    (UnknownAddress, lambda: _funded_ledger().transfer("a", LONG_NAME, 1)),
    (UnknownAddress, lambda: _funded_ledger().transfer(LONG_NAME, "a", 1)),
    (UnknownAddress, lambda: _funded_ledger().contract_call(LONG_NAME, "sc-1")),
    (UnknownAddress, lambda: _funded_ledger().contract_call("a", LONG_NAME)),
    (UnknownAddress, lambda: _funded_ledger().escrow_in("a", LONG_NAME, 1)),
    (UnknownAddress, lambda: _funded_ledger().escrow_out(LONG_NAME, "a", 1, "refund")),
    (UnknownAddress, lambda: _funded_ledger().balance_of(LONG_NAME)),
], ids=["reserved-prefix", "negative-genesis", "transfer-to", "transfer-from",
        "call-caller", "call-contract", "escrow-in-contract", "escrow-out-contract",
        "balance-of"])
def test_a_5000_character_name_gets_a_short_ledger_error(error, act):
    with pytest.raises(error) as raised:
        act()
    message = str(raised.value)
    assert len(message) < 200, message[:300]
    assert "n" * 20 in message and "characters)" in message  # the name, cut


def test_short_names_are_quoted_whole_in_ledger_errors():
    with pytest.raises(ValidationError, match="^genesis account 'sc-1' uses"):
        Ledger({"sc-1": 10})
    with pytest.raises(ValueError, match="^genesis balance of bob must be non-negative, got -1$"):
        Ledger({"bob": -1})
    with pytest.raises(UnknownAddress, match="^nobody$"):
        _funded_ledger().contract_call("a", "nobody")


# ---- contract escrow accounts --------------------------------------------------------

def _contract() -> AgreementContract:
    return AgreementContract(kind=ContractKind.DYNAMIC_PRICE, owner="own", end_user="")


def test_register_contract_assigns_sequential_addresses():
    ledger = Ledger({"own": eth(1)}, gas=zero_gas())
    first, second = _contract(), _contract()
    assert ledger.register_contract(first, payer="own") == "sc-1"
    assert ledger.register_contract(second, payer="own") == "sc-2"
    assert (first.address, second.address) == ("sc-1", "sc-2")


def test_escrow_in_and_out_preserve_conservation():
    ledger = Ledger({"alice": eth(2), "own": eth(1)}, gas=zero_gas())
    addr = ledger.register_contract(_contract(), payer="own")
    ledger.escrow_in("alice", addr, eth(1))
    assert ledger.balance_of(addr) == eth(1)  # contract address reads as escrow
    assert ledger.balance_of("alice") == eth(1)
    assert ledger.conservation_check()
    ledger.escrow_out(addr, "own", eth(1) // 4, kind="charge")
    ledger.escrow_out(addr, "alice", eth(1) - eth(1) // 4, kind="refund")
    assert ledger.balance_of(addr) == 0
    assert ledger.conservation_check()


def test_escrow_out_cannot_overdraw():
    ledger = Ledger({"alice": eth(2), "own": eth(1)}, gas=zero_gas())
    addr = ledger.register_contract(_contract(), payer="own")
    ledger.escrow_in("alice", addr, 100)
    with pytest.raises(InsufficientFunds):
        ledger.escrow_out(addr, "own", 101, kind="charge")


def test_deploy_fee_charged_to_payer():
    ledger = Ledger({"own": eth(1)}, gas=GasSchedule(gas_price_wei=gwei(20)))
    ledger.register_contract(_contract(), payer="own")
    assert ledger.balance_of("own") == eth(1) - 200_000 * gwei(20)
    assert ledger.fee_sink == 200_000 * gwei(20)
    assert ledger.conservation_check()


# ---- randomized conservation sweep --------------------------------------------------

def random_op_storm(steps, seed=1234):
    """A ledger under ``steps`` random operations, yielded after each one.

    Transfers, deploys, escrow in and out and blocks, among four accounts and
    at most six contracts; an operation the payer cannot afford is skipped.
    """
    rng = random.Random(seed)
    gas = GasSchedule(transfer_gas=100, contract_call_gas=200,
                      contract_deploy_gas=300, gas_price_wei=gwei(3))
    names = ["a", "b", "c", "d"]
    ledger = Ledger({n: eth(1) for n in names}, gas=gas)
    contracts = []
    for step in range(steps):
        op = rng.randrange(5)
        try:
            if op == 0:
                ledger.transfer(rng.choice(names), rng.choice(names), rng.randrange(10**15))
            elif op == 1 and len(contracts) < 6:
                contracts.append(ledger.register_contract(_contract(), rng.choice(names)))
            elif op == 2 and contracts:
                ledger.escrow_in(rng.choice(names), rng.choice(contracts), rng.randrange(10**15))
            elif op == 3 and contracts:
                addr = rng.choice(contracts)
                held = ledger.balance_of(addr)
                if held:
                    ledger.escrow_out(addr, rng.choice(names), rng.randrange(held + 1), "charge")
            else:
                ledger.produce_block()
        except InsufficientFunds:
            pass
        yield step, ledger


def test_conservation_holds_under_random_op_storm():
    for step, ledger in random_op_storm(2000):
        assert ledger.conservation_check(), f"conservation broke at step {step}"


# ---- transaction log -------------------------------------------------------------------

def test_tx_log_replay_reproduces_balances():
    gas = GasSchedule(transfer_gas=10, contract_call_gas=20,
                      contract_deploy_gas=30, gas_price_wei=gwei(2))
    ledger = Ledger({"a": eth(1), "b": eth(1)}, gas=gas)
    addr = ledger.register_contract(_contract(), payer="a")
    ledger.contract_call("b", addr)
    ledger.transfer("a", "b", 12345)
    ledger.escrow_in("b", addr, 777)
    ledger.escrow_out(addr, "a", 500, kind="refund")
    assert [json.loads(line)["kind"] for line in ledger.tx_log] == [
        "deploy", "call", "transfer", "lock", "refund"
    ]
    balances, fee_sink = replay_balances({"a": eth(1), "b": eth(1)}, ledger.tx_log)
    assert fee_sink == ledger.fee_sink
    for name in ("a", "b"):
        assert balances[name] == ledger.balance_of(name)
    assert balances[addr] == ledger.balance_of(addr)


def test_tx_log_lines_have_fixed_key_order_and_string_amounts():
    gas = GasSchedule(transfer_gas=10, gas_price_wei=gwei(2))
    ledger = Ledger({"a": eth(1), "b": 0}, gas=gas)
    ledger.transfer("a", "b", 42)
    [line] = ledger.tx_log
    assert line == (
        '{"block_height": 0, "from": "a", "to": "b",'
        ' "value_wei": "42", "fee_wei": "20000000000", "kind": "transfer"}'
    )


@pytest.mark.parametrize(
    "from_addr, to_addr, kind",
    [('a"b', "c\\d", "transfer"), ("line\nbreak", "café", 'k"\\'), ("\x00", "\ud800", "é")],
)
def test_tx_log_line_matches_json_dumps(from_addr, to_addr, kind):
    units = 10**10  # at 40 GWEI a transfer costs 4 * 10**20 wei
    fee = gwei(40) * units
    gas = GasSchedule(transfer_gas=units, contract_call_gas=2 * units,
                      contract_deploy_gas=3 * units, gas_price_wei=gwei(40))
    ledger = Ledger({from_addr: 10**31, to_addr: 10**31}, gas=gas)
    ledger.transfer(from_addr, to_addr, 10**30)
    ledger.produce_block()
    ledger.transfer(to_addr, from_addr, 5)
    addr = ledger.register_contract(_contract(), payer=from_addr)
    ledger.produce_block()
    ledger.escrow_in(to_addr, addr, 10**30)
    ledger.escrow_out(addr, from_addr, 10**30, kind=kind)
    expected = [
        (0, from_addr, to_addr, 10**30, fee, "transfer"),
        (1, to_addr, from_addr, 5, fee, "transfer"),
        (1, from_addr, addr, 0, 3 * fee, "deploy"),
        (2, to_addr, addr, 10**30, 2 * fee, "lock"),
        (2, addr, from_addr, 10**30, 0, kind),
    ]
    assert ledger.tx_log == [
        json.dumps(
            {"block_height": height, "from": src, "to": dst,
             "value_wei": str(value), "fee_wei": str(fee), "kind": tx_kind},
            separators=(", ", ": "),
        )
        for height, src, dst, value, fee, tx_kind in expected
    ]


def test_tx_log_digest_hashes_the_joined_lines():
    ledger = Ledger({"a": gwei(10**6), "b": 0}, gas=GasSchedule(gas_price_wei=gwei(1)))
    assert ledger.tx_log_digest() == hashlib.sha256(b"").hexdigest()
    addr = ledger.register_contract(_contract(), payer="a")
    ledger.transfer("a", "b", 12345)
    with pytest.raises(InsufficientFunds):
        ledger.transfer("b", "a", 12345)
    ledger.produce_block()
    ledger.escrow_in("a", addr, 777)
    ledger.contract_call("a", addr)
    ledger.escrow_out(addr, "b", 500, kind="refund")
    assert len(ledger.tx_log) == 5
    joined = "\n".join(ledger.tx_log).encode()
    assert ledger.tx_log_digest() == hashlib.sha256(joined).hexdigest()


def test_tx_log_digest_after_a_random_op_storm_hashes_the_log_as_it_stands():
    for _, ledger in random_op_storm(2000):
        pass
    assert len(ledger.tx_log) > 500
    digest = ledger.tx_log_digest()
    assert digest == hashlib.sha256("\n".join(ledger.tx_log).encode()).hexdigest()
    assert ledger.tx_log_digest() == digest  # asking again changes nothing
    payer = max(ledger.accounts, key=ledger.accounts.get)
    ledger.transfer(payer, payer, 1)
    assert ledger.tx_log_digest() != digest
    assert ledger.tx_log_digest() == hashlib.sha256("\n".join(ledger.tx_log).encode()).hexdigest()


def test_tx_log_digest_is_stable():
    def build():
        ledger = Ledger({"a": eth(1), "b": 0}, gas=zero_gas(), jitter_seed=5)
        for i in range(50):
            ledger.produce_block()
            ledger.transfer("a", "b", i)
        return ledger.tx_log_digest()

    assert build() == build()


# ---- wakeups -----------------------------------------------------------------------

def test_wakeup_fires_on_first_block_at_or_after_fire_at():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    fired = []

    def deliver(addr, block):
        fired.append((addr, block.timestamp))

    ledger.schedule_wakeup("sc-9", fire_at=31)
    ledger.produce_block(deliver)  # 15
    ledger.produce_block(deliver)  # 30
    assert fired == []
    ledger.produce_block(deliver)  # 45 >= 31
    assert fired == [("sc-9", 45)]
    ledger.produce_block(deliver)
    assert len(fired) == 1  # delivered once


@pytest.mark.parametrize(
    "move",
    [Ledger.produce_block, lambda ledger: ledger.advance_to(31), Ledger.drain_wakeups],
    ids=["produce_block", "advance_to", "drain_wakeups"],
)
def test_a_clock_call_without_deliver_drops_the_due_wakeup(move):
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    ledger.schedule_wakeup("sc-1", fire_at=31)
    ledger.advance_to(30)
    move(ledger)
    assert clock(ledger) == Block(3, 45)
    assert ledger.armed_wakeup_count() == 0


def test_cancelled_wakeup_never_fires():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    fired = []
    ledger.schedule_wakeup("sc-1", fire_at=20)
    ledger.cancel_wakeup("sc-1")
    for _ in range(5):
        ledger.produce_block(lambda addr, block: fired.append(addr))
    assert fired == []
    assert ledger.armed_wakeup_count() == 0


def test_reschedule_replaces_previous_wakeup():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas())
    fired = []
    ledger.schedule_wakeup("sc-1", fire_at=20)
    ledger.schedule_wakeup("sc-1", fire_at=100)
    for _ in range(10):
        ledger.produce_block(lambda addr, block: fired.append(block.timestamp))
    assert fired == [105]


# ---- next-event time advance ------------------------------------------------------

WAKEUP_ADDRS = ("sc-1", "sc-2", "sc-3")
# the widest gaps that the first and the largest chunk of the jitter tape cover
FIRST_CHUNK_SPAN = JITTER_INTERVAL_RANGE[1] * _JITTER_FIRST_CHUNK_WORDS
BATCH_SPAN = JITTER_INTERVAL_RANGE[1] * _JITTER_CHUNK_WORDS


def ledger_ops(far_advances):
    """Lists of (op, address, offset from the current timestamp).

    ``far_advances`` lets some advances cross every chunk of the jitter tape
    up to a largest one.  Only the jittered grid has a tape; the fixed grid
    skips in closed form at any distance, and its block-by-block reference
    would build 10^5 blocks per such advance at interval 1.
    """
    advance = st.integers(-50, 3_000)
    if far_advances:
        advance |= st.integers(BATCH_SPAN, BATCH_SPAN + 3_000)
    return st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), st.sampled_from(WAKEUP_ADDRS), st.integers(-30, 2_000)),
            st.tuples(st.just("cancel"), st.sampled_from(WAKEUP_ADDRS), st.just(0)),
            st.tuples(st.just("advance"), st.just(""), advance),
            st.tuples(st.just("drain"), st.just(""), st.just(0)),
        ),
        max_size=25,
    )


LEDGER_OPS = ledger_ops(far_advances=False)
JITTERED_LEDGER_OPS = ledger_ops(far_advances=True)


def _replay(ops, interval, jitter_seed, rearm_offsets, skip):
    """Apply ``ops`` with ``advance_to``/``drain_wakeups`` (skip) or block by block."""
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), block_interval=interval,
                    jitter_seed=jitter_seed)
    deliveries = []
    rearms = list(rearm_offsets)

    def handler(addr, block):
        deliveries.append((addr, block.height, block.timestamp))
        if addr == WAKEUP_ADDRS[0] and rearms:  # re-arm from inside the delivery
            ledger.schedule_wakeup(addr, block.timestamp + rearms.pop())

    blocks = []
    for op, addr, offset in ops:
        now = ledger.timestamp
        if op == "schedule":
            ledger.schedule_wakeup(addr, now + offset)
            continue
        if op == "cancel":
            ledger.cancel_wakeup(addr)
            continue
        if op == "advance" and skip:
            ledger.advance_to(now + offset, handler)
        elif op == "advance":
            while ledger.timestamp < now + offset:
                ledger.produce_block(handler)
        elif skip:
            ledger.drain_wakeups(handler)
        else:
            while ledger.armed_wakeup_count() > 0:
                ledger.produce_block(handler)
        blocks.append(clock(ledger))
    rng_state = ledger._rng.getstate() if ledger._rng is not None else None
    return blocks, deliveries, ledger.armed_wakeup_count(), rng_state


@given(
    data=st.data(),
    interval=st.integers(1, 60),
    jitter_seed=st.one_of(st.none(), st.integers(0, 2**31)),
    rearm_offsets=st.lists(st.integers(-20, 500), max_size=4),
)
def test_advance_to_matches_block_by_block_production(data, interval, jitter_seed, rearm_offsets):
    ops = data.draw(LEDGER_OPS if jitter_seed is None else JITTERED_LEDGER_OPS, label="ops")
    skipped = _replay(ops, interval, jitter_seed, rearm_offsets, skip=True)
    reference = _replay(ops, interval, jitter_seed, rearm_offsets, skip=False)
    assert skipped == reference


def assert_advance_to_matches_block_by_block(jitter_seed, target):
    """``advance_to(target(now))`` and ``produce_block`` up to it agree, RNG included."""
    skipped, reference = (
        Ledger({"a": eth(1)}, gas=zero_gas(), jitter_seed=jitter_seed) for _ in range(2)
    )
    for ledger in (skipped, reference):  # start mid-stream, at a seed-dependent word
        for _ in range(jitter_seed % 7):
            ledger.produce_block()
    t = target(skipped.timestamp)
    skipped.advance_to(t)
    while reference.timestamp < t:
        reference.produce_block()
    assert clock(skipped) == clock(reference)
    assert skipped._rng.getstate() == reference._rng.getstate()
    assert skipped.produce_block() == reference.produce_block()


@pytest.mark.parametrize(
    "gap",
    [1, 24, 25, 26, 50, 51, FIRST_CHUNK_SPAN, FIRST_CHUNK_SPAN + 1, BATCH_SPAN,
     BATCH_SPAN + 1, 10**6],
)
@pytest.mark.parametrize("jitter_seed", range(20))
def test_jittered_advance_to_matches_block_by_block_production(jitter_seed, gap):
    assert_advance_to_matches_block_by_block(jitter_seed, lambda now: now + gap)


# the tape's chunks double from the first size up to the largest
LARGEST_CHUNK = (_JITTER_CHUNK_WORDS // _JITTER_FIRST_CHUNK_WORDS).bit_length() - 1


def tape_chunk_ends(jitter_seed, chunks):
    """Timestamp of the last block of each of the tape's first ``chunks`` chunks."""
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), jitter_seed=jitter_seed)
    ends = []
    while len(ends) < chunks:
        ledger.produce_block()
        if ledger._tape_next == len(ledger._tape):
            ends.append(ledger.timestamp)
    return ends


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunk", [0, LARGEST_CHUNK])
@pytest.mark.parametrize("jitter_seed", range(20))
def test_jittered_advance_to_matches_block_by_block_production_at_chunk_ends(
    jitter_seed, chunk, offset
):
    end = tape_chunk_ends(jitter_seed, chunk + 1)[chunk]
    assert_advance_to_matches_block_by_block(jitter_seed, lambda now: end + offset)


def test_jitter_tape_holds_at_most_one_chunk():
    ledger = Ledger({"a": 1}, jitter_seed=1)
    ledger.advance_to(10**7)
    assert ledger.height >= 10**7 // JITTER_INTERVAL_RANGE[1]
    assert len(ledger._tape) <= 1 + _JITTER_CHUNK_WORDS  # the block before the chunk, then it


def test_randint_takes_the_top_bits_of_one_mersenne_twister_word_per_try():
    """The interpreter behaviour that the ledger's jitter tape rests on.

    ``randint(lo, hi)`` must take the top ``(hi - lo + 1).bit_length()`` bits
    of one 32-bit word per try, rejecting values >= ``hi - lo + 1``, and
    ``getrandbits(32 * n)`` must hold the next ``n`` words, least significant
    first.
    """
    lo, hi = JITTER_INTERVAL_RANGE
    span = hi - lo + 1
    shift = 8 - span.bit_length()
    n = 10**5
    drawn = random.Random(7)
    expected = [drawn.randint(lo, hi) for _ in range(n)]

    words = 2 * n  # about 1.5 * n words hold n accepted draws
    top_bytes = random.Random(7).getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
    derived, used = [], 0
    for byte in top_bytes:
        used += 1
        if byte >> shift < span:
            derived.append(lo + (byte >> shift))
            if len(derived) == n:
                break
    replayed = random.Random(7)
    replayed.getrandbits(32 * used)
    message = (
        "random.Random.randint no longer consumes one 32-bit Mersenne Twister word "
        "per try, top bits first, on this interpreter; jitter_chunks, which the "
        "ledger's tape and the oracle's grid both read, would give different block "
        "timestamps than one randint per block"
    )
    assert derived == expected, message
    assert replayed.getstate() == drawn.getstate(), message


# the longest run of intervals one Adler-32 can total without wrapping its modulus
ADLER_PIECE = 65519 // JITTER_INTERVAL_RANGE[1]


@pytest.mark.parametrize(
    "intervals",
    [b""]
    + [bytes([JITTER_INTERVAL_RANGE[1]]) * n for n in (ADLER_PIECE - 1, ADLER_PIECE, ADLER_PIECE + 1)],
    ids=lambda intervals: f"{len(intervals)}-bytes",
)
def test_interval_total_is_the_sum_of_the_intervals(intervals):
    assert interval_total(intervals) == sum(intervals)


class AllAcceptedAtTheLargestInterval(random.Random):
    """Every word's top byte, 0xA7, draws ``JITTER_INTERVAL_RANGE[1]`` on the first try."""

    def getrandbits(self, k):
        return int.from_bytes(b"\0\0\0\xa7" * (k // 32), "little")


def test_a_full_chunk_at_the_largest_interval_totals_across_pieces():
    assert JITTER_INTERVAL_RANGE == (5, 25)  # 0xA7 >> 3 == 20 draws 5 + 20
    chunks = jitter_chunks(AllAcceptedAtTheLargestInterval())
    words = _JITTER_FIRST_CHUNK_WORDS
    while words < _JITTER_CHUNK_WORDS:
        intervals = next(chunks)
        assert (len(intervals), interval_total(intervals)) == (words, 25 * words)
        words *= 2
    intervals = next(chunks)
    assert intervals == bytes([25]) * _JITTER_CHUNK_WORDS
    assert interval_total(intervals) == 102_400  # two pieces of at most ADLER_PIECE bytes


def test_advance_to_at_or_before_now_builds_nothing():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), jitter_seed=3)
    fired = []

    def deliver(addr, block):
        fired.append(addr)

    ledger.advance_to(100, deliver)
    block, state = clock(ledger), ledger._rng.getstate()
    ledger.schedule_wakeup("sc-1", fire_at=block.timestamp)  # due, not yet delivered
    ledger.advance_to(block.timestamp, deliver)
    assert clock(ledger) == block
    ledger.advance_to(0, deliver)
    assert clock(ledger) == block
    assert ledger._rng.getstate() == state
    assert fired == []
    ledger.drain_wakeups(deliver)  # the next block delivers it
    assert fired == ["sc-1"]
    assert ledger.height == block.height + 1


def test_advance_to_stops_at_the_first_block_at_or_past_t():
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), block_interval=7)
    for t, block in [(100, Block(15, 105)), (105, Block(15, 105)), (106, Block(16, 112))]:
        ledger.advance_to(t)
        assert clock(ledger) == block


@pytest.mark.parametrize("jitter_seed", [None, 4])
def test_height_and_timestamp_are_the_one_clock(jitter_seed):
    ledger = Ledger({"a": eth(1)}, gas=zero_gas(), jitter_seed=jitter_seed)
    assert clock(ledger) == Block(0, 0)
    delivered = []

    def deliver(addr, block):
        delivered.append((block, clock(ledger)))

    for fire_at in (1, 40, 41, 500, 10**5):  # 40 and 41 share a block on the fixed grid
        ledger.schedule_wakeup(f"sc-{fire_at}", fire_at)
    for _ in range(3):
        assert ledger.produce_block(deliver) == clock(ledger)
    ledger.advance_to(600, deliver)
    ledger.drain_wakeups(deliver)
    assert len(delivered) == 5
    assert all(block == now for block, now in delivered)
    before = clock(ledger)
    for t in (before.timestamp, before.timestamp - 1, 0):  # no-ops
        ledger.advance_to(t)
        assert clock(ledger) == before
    assert ledger.produce_block() == clock(ledger) != before


def counting_random(calls):
    """A ``random`` namespace whose ``Random`` counts its draws in ``calls``."""

    class CountingRandom(random.Random):
        def randint(self, a, b):
            calls["randint"] += 1
            return super().randint(a, b)

        def getrandbits(self, k):
            calls["getrandbits"] += 1
            return super().getrandbits(k)

    return SimpleNamespace(Random=CountingRandom)


@pytest.mark.parametrize("jitter_seed", [None, 5])
def test_idle_horizon_builds_only_blocks_that_do_work(monkeypatch, jitter_seed):
    doc = generate_random_script(0)
    doc["config"].pop("jitter_seed", None)
    if jitter_seed is not None:
        doc["config"]["jitter_seed"] = jitter_seed
    doc["config"]["run_until_seconds"] = 10**7
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(Ledger, "produce_block")
    count(Ledger, "schedule_wakeup")
    count(ledger_module, "Block")
    monkeypatch.setattr(ledger_module, "random", counting_random(calls))
    report = run_scenario(parse_scenario(doc)).report
    assert report["final_block"]["timestamp"] >= 10**7
    assert report["final_block"]["height"] >= 10**7 // 25  # empty blocks still count
    assert calls["produce_block"] <= len(doc["events"]) + calls["schedule_wakeup"] + 1
    # a skip moves only the clock: one Block per produced block
    assert calls["Block"] == calls["produce_block"]
    # one draw per empty block would be ~667k randint calls on the jittered grid
    assert calls["randint"] + calls["getrandbits"] <= 1_000


def test_oracle_reads_a_jittered_gap_a_chunk_at_a_time(monkeypatch):
    doc = generate_random_script(0)
    doc["config"]["jitter_seed"] = 5
    doc["events"].append({"at_time": 10**7, "actor": "alice", "action": "transfer",
                          "params": {"to": "bob", "value": "1"}})
    script = parse_scenario(doc)
    expected = oracle_settlement(script)
    calls = Counter()
    monkeypatch.setattr(oracle_module, "random", counting_random(calls))
    assert oracle_settlement(script) == expected
    # 10^7 s is ~667k blocks, ~1.02M words, ~253 chunks of at most 4096 words;
    # one randint per block would be ~667k calls
    assert calls["randint"] == 0
    assert 0 < calls["getrandbits"] <= 300


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def counting_totals(monkeypatch):
    """The chunks the ledger and the oracle draw, and those they total, in order."""
    drawn, totalled = [], []

    def chunks(rng):
        for intervals in jitter_chunks(rng):
            drawn.append(intervals)
            yield intervals

    def total(intervals):
        totalled.append(intervals)
        return interval_total(intervals)

    for module in (ledger_module, oracle_module):
        monkeypatch.setattr(module, "jitter_chunks", chunks)
        monkeypatch.setattr(module, "interval_total", total)
    return drawn, totalled


def test_a_run_whose_events_never_skip_a_chunk_totals_none(monkeypatch):
    drawn, totalled = counting_totals(monkeypatch)
    # 30 s apart: less than any chunk spans, which is at least 5 s a draw
    script = parse_scenario({
        "config": {"jitter_seed": 5},
        "genesis": {"alice": "10", "bob": "10"},
        "events": [{"at_time": t, "actor": "alice", "action": "transfer",
                    "params": {"to": "bob", "value": "1"}} for t in range(0, 3_001, 30)],
    })
    run_scenario(script)
    oracle_settlement(script)
    assert len(drawn) >= 6  # three chunks each, read as tapes
    assert totalled == []


def test_the_idle_jittered_script_totals_each_chunk_it_tests_once(monkeypatch):
    workloads = load_source("bench_workloads", WORKLOADS)
    [_, jittered] = workloads.build_documents("idle", 0)
    script = parse_scenario(jittered)
    drawn, totalled = counting_totals(monkeypatch)
    built = []  # the timestamps of the blocks the ledger builds
    produce_block = Ledger.produce_block

    def record(ledger, deliver=None):
        block = produce_block(ledger, deliver)
        built.append(block.timestamp)
        return block

    monkeypatch.setattr(Ledger, "produce_block", record)
    run_scenario(script)
    engine_drawn, engine_totalled = len(drawn), len(totalled)
    oracle_settlement(script)
    # one total per chunk: no chunk is totalled twice
    assert len({id(intervals) for intervals in totalled}) == len(totalled)
    # every chunk the ledger stepped over, holding no built block, was totalled;
    # some that the tape took without a skip were not
    stepped, start = set(), 0
    for intervals in drawn[:engine_drawn]:
        end = start + sum(intervals)
        first = bisect_right(built, start)  # the first built block after the chunk starts
        if first == len(built) or built[first] > end:
            stepped.add(id(intervals))
        start = end
    assert stepped <= {id(intervals) for intervals in totalled[:engine_totalled]}
    assert 200 <= len(stepped) <= engine_totalled < engine_drawn
    assert len(totalled) > engine_totalled  # the oracle skips the gaps between its scripts


# ---- the jitter stream against one randint per block ---------------------------

def reference_block_times(jitter_seed, interval, until):
    """Block timestamps by height, up to the first block at or past ``until``.

    A plain loop: one ``random.Random(jitter_seed).randint`` per block on the
    jittered grid, ``interval`` per block on the fixed one.
    """
    rng = None if jitter_seed is None else random.Random(jitter_seed)
    times = [0]
    while times[-1] < until:
        times.append(times[-1] + (interval if rng is None else rng.randint(*JITTER_INTERVAL_RANGE)))
    return times


@pytest.mark.parametrize("jitter_seed", range(20))
def test_ledger_blocks_match_one_randint_per_block(jitter_seed):
    ledger = Ledger({"a": 1}, jitter_seed=jitter_seed)
    # every block takes at least one word, and 1000 words span the first four chunks
    blocks = [ledger.produce_block() for _ in range(1000)]
    times = reference_block_times(jitter_seed, None, blocks[-1].timestamp)
    assert blocks == [Block(height, times[height]) for height in range(1, 1001)]


@pytest.mark.parametrize(
    "jitter_seed, interval",
    [(seed, None) for seed in range(20)] + [(None, interval) for interval in (1, 7, 15)],
)
def test_oracle_event_blocks_match_the_plain_reference(jitter_seed, interval):
    reference = reference_block_times(jitter_seed, interval, 300)
    at_times = [
        0,
        reference[5], reference[5] + 1,  # at a block, and one second after it
        reference[9] + 1, reference[9] + 1, reference[10],  # three events in block 10
    ]
    if jitter_seed is not None:  # the ends of the first and the largest chunk
        ends = tape_chunk_ends(jitter_seed, LARGEST_CHUNK + 1)
        at_times += [end + offset for end in (ends[0], ends[LARGEST_CHUNK])
                     for offset in (-1, 0, 1)]
    at_times.append(at_times[-1] + 10**6)
    config = {"block_interval_seconds": interval or 15}
    if jitter_seed is not None:
        config["jitter_seed"] = jitter_seed
    script = parse_scenario({
        "config": config,
        "genesis": {"alice": "10", "bob": "10"},
        "events": [{"at_time": t, "actor": "alice", "action": "transfer",
                    "params": {"to": "bob", "value": "1"}} for t in at_times],
    })
    reference = reference_block_times(jitter_seed, interval, at_times[-1])
    expected = [(h, reference[h]) for h in (bisect_left(reference, t) for t in at_times)]
    blocks = [(height, ts) for _, height, ts in oracle_module._Oracle(script)._event_blocks()]
    assert blocks == expected

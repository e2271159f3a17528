"""Minimal deterministic ledger.

Accounts, value transfer with flat gas fees, block production on a
configurable interval, contract escrow accounting, and timeout wakeups.
Block timestamps are the only clock contract code may observe.

Every operation preserves the conservation invariant exactly:

    sum(account balances) + sum(contract escrows) + fee_sink == genesis_total
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .errors import GasPriceOutOfRange, InsufficientFunds, UnknownAddress, ValidationError, echo
from .units import WEI_PER_GWEI, gwei, require_amount

if TYPE_CHECKING:
    from .contracts import AgreementContract

DEFAULT_BLOCK_INTERVAL = 15      # seconds, mean inter-block time
JITTER_INTERVAL_RANGE = (5, 25)  # uniform integer draw, mean 15
GAS_PRICE_BOUNDS_GWEI = (1, 40)

# ``random.Random.randint(lo, hi)`` takes the top ``k`` bits of one 32-bit
# Mersenne Twister word, ``k = (hi - lo + 1).bit_length()``, and takes the
# next word while they are ``>= hi - lo + 1``.  ``getrandbits(32 * n)`` holds
# the next ``n`` words, the first one least significant, so ``jitter_chunks``
# draws the intervals of many blocks in one call: the top byte of each word,
# translated through this table with the bytes of rejected words deleted,
# leaves one interval byte per block.  A skip needs only a chunk's total,
# ``interval_total``: the low 16 bits of ``zlib.adler32`` are ``(1 + sum of the
# bytes) mod 65521``, so a piece of at most ``_JITTER_PIECE`` bytes, each at
# most the largest interval, totals below the modulus and its sum is read off
# in C.  A chunk of ``n`` intervals spans at least ``n`` times the smallest
# one, so a skip totals only a chunk that this bound does not carry past its
# target.
_JITTER_LOW = JITTER_INTERVAL_RANGE[0]
_JITTER_SPAN = JITTER_INTERVAL_RANGE[1] - _JITTER_LOW + 1
_JITTER_BITS = _JITTER_SPAN.bit_length()
if not 1 <= JITTER_INTERVAL_RANGE[0] <= JITTER_INTERVAL_RANGE[1] <= 255:
    raise ValueError(
        "JITTER_INTERVAL_RANGE must lie within [1, 255]: every block advances "
        "time, and each interval is one byte"
    )
_JITTER_PIECE = 65519 // JITTER_INTERVAL_RANGE[1]
if _JITTER_PIECE * JITTER_INTERVAL_RANGE[1] > 65519:
    raise ValueError(
        "a jitter piece must total at most 65519, or its Adler-32 sum wraps the "
        "modulus 65521"
    )
_JITTER_TABLE = bytes(
    JITTER_INTERVAL_RANGE[0] + r if r < _JITTER_SPAN else 0
    for r in (b >> (8 - _JITTER_BITS) for b in range(256))
)
_JITTER_REJECTED = bytes(b for b in range(256) if b >> (8 - _JITTER_BITS) >= _JITTER_SPAN)
# Words per chunk of the jitter tape: the first chunk, doubling up to the
# largest.  Sizes depend only on how many chunks were drawn, so the RNG state
# after a block does not depend on how the run reached it.
_JITTER_FIRST_CHUNK_WORDS = 64
_JITTER_CHUNK_WORDS = 4096


def interval_total(intervals: bytes) -> int:
    """``sum(intervals)`` for interval bytes, one Adler-32 per piece."""
    total = (zlib.adler32(intervals[:_JITTER_PIECE]) & 0xFFFF) - 1
    for k in range(_JITTER_PIECE, len(intervals), _JITTER_PIECE):
        total += (zlib.adler32(intervals[k:k + _JITTER_PIECE]) & 0xFFFF) - 1
    return total


def jitter_chunks(rng: random.Random) -> Iterator[bytes]:
    """The block intervals drawn from ``rng``, one ``bytes`` per chunk of words.

    Joined, the chunks are the intervals of one ``rng.randint(*JITTER_INTERVAL_RANGE)``
    per block, and a chunk is drawn only when it is asked for, so ``rng`` is
    never ahead of the blocks read so far by more than one chunk.
    """
    words = _JITTER_FIRST_CHUNK_WORDS
    while True:
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        intervals = raw[3::4].translate(_JITTER_TABLE, _JITTER_REJECTED)
        yield intervals
        words = min(2 * words, _JITTER_CHUNK_WORDS)


CONTRACT_ADDRESS_PREFIX = "sc-"
_DIGEST_SLICE_LINES = 1024  # tx log lines per update of the digest


@dataclass(frozen=True)
class Block:
    """A produced block: the height and the timestamp contracts see."""

    height: int
    timestamp: int


Deliver = Callable[[str, Block], None]  # takes a due wakeup: (contract address, block)


@dataclass
class GasSchedule:
    """Flat gas costs per transaction kind and the wei price per gas unit.

    The fee for a transaction is ``gas_price_wei * gas_units`` and never
    depends on the transferred value.  The price must lie within
    ``GAS_PRICE_BOUNDS_GWEI``, checked at construction; zero gas units make
    a kind of transaction free.
    """

    transfer_gas: int = 21_000
    contract_call_gas: int = 50_000
    contract_deploy_gas: int = 200_000
    gas_price_wei: int = gwei(20)

    def __post_init__(self) -> None:
        require_amount(self.gas_price_wei, "gas_price_wei")
        lo, hi = GAS_PRICE_BOUNDS_GWEI
        if not lo * WEI_PER_GWEI <= self.gas_price_wei <= hi * WEI_PER_GWEI:
            raise GasPriceOutOfRange(
                f"gas price {self.gas_price_wei} wei outside [{lo}, {hi}] GWEI"
            )

    def transfer_fee(self) -> int:
        return self.gas_price_wei * self.transfer_gas

    def call_fee(self) -> int:
        return self.gas_price_wei * self.contract_call_gas

    def deploy_fee(self) -> int:
        return self.gas_price_wei * self.contract_deploy_gas


class Ledger:
    """Single-writer ledger state: accounts, contracts, fees, blocks, wakeups.

    ``jitter_seed=None`` selects deterministic block production (exact
    ``block_interval`` spacing); an integer seed draws each block's interval
    uniformly from ``JITTER_INTERVAL_RANGE`` (5..25 s, mean 15 s) and ignores
    ``block_interval``.  The intervals are those of one
    ``random.Random(jitter_seed).randint`` per block, read off a tape of
    ``jitter_chunks``: the ledger keeps the block timestamps of at most the
    current chunk.  Built and skipped blocks read the same tape, so heights
    and timestamps follow that one stream.

    The clock is two ints, ``height`` and ``timestamp`` of the latest block.
    ``advance_to`` moves only them over the empty blocks it skips;
    ``produce_block`` builds the one ``Block`` of each block that can hold a
    transaction or a wakeup.  Each call that moves the clock hands every
    wakeup it makes due, with its block, to the ``deliver`` callable it is
    given, or drops it without one; the ledger keeps no reference to it.  The
    tx log is a list of JSON lines, hashed in slices when ``tx_log_digest``
    is asked.
    """

    def __init__(
        self,
        genesis: dict[str, int],
        gas: Optional[GasSchedule] = None,
        block_interval: int = DEFAULT_BLOCK_INTERVAL,
        jitter_seed: Optional[int] = None,
    ) -> None:
        for name, balance in genesis.items():
            if name.startswith(CONTRACT_ADDRESS_PREFIX):
                raise ValidationError(
                    f"genesis account {echo(name)} uses the reserved contract prefix"
                )
            require_amount(balance, f"genesis balance of {echo(name, str)}")
        self.accounts: dict[str, int] = dict(genesis)
        self.contracts: dict[str, AgreementContract] = {}
        self.fee_sink: int = 0
        # the clock: height and timestamp of the latest block, skipped or built
        self.height = 0
        self.timestamp = 0
        self.genesis_total: int = sum(genesis.values())
        self.gas = gas or GasSchedule()
        self.block_interval = block_interval
        self._rng = random.Random(jitter_seed) if jitter_seed is not None else None
        self._chunks = jitter_chunks(self._rng) if self._rng is not None else None
        # the jitter tape: timestamps of the current chunk's blocks, the one
        # before the chunk first; _tape[_tape_next - 1] is the current block's
        self._tape = [0]
        self._tape_next = 1
        self.tx_log: list[str] = []  # one JSON line per tx
        self._wakeup_heap: list[tuple[int, int, str]] = []
        self._wakeup_armed: dict[str, int] = {}  # contract address -> fire_at
        self._wakeup_seq = 0

    # ---- block production -----------------------------------------------

    def produce_block(self, deliver: Optional[Deliver] = None) -> Block:
        """Append one block and hand each wakeup now due to ``deliver``, in order."""
        if self._rng is None:
            self.timestamp += self.block_interval
        else:
            while self._tape_next == len(self._tape):
                self._tape = list(accumulate(next(self._chunks), initial=self.timestamp))
                self._tape_next = 1
            self.timestamp = self._tape[self._tape_next]
            self._tape_next += 1
        self.height += 1
        block = Block(self.height, self.timestamp)
        if self._wakeup_heap and self._wakeup_heap[0][0] <= self.timestamp:
            self._deliver_due_wakeups(block, deliver)
        return block

    def advance_to(self, t: int, deliver: Optional[Deliver] = None) -> None:
        """Produce blocks until the latest block's timestamp is >= ``t``.

        The result equals calling ``produce_block(deliver)`` while the
        timestamp is below ``t``: the same heights, timestamps, wakeup
        deliveries and RNG draws.  Blocks before the next armed wakeup hold no
        transaction and deliver nothing, so they are skipped without being
        built: only the clock moves over them, and they still count in
        heights.  The deterministic grid skips in closed form.  The jittered
        grid skips along its tape: a chunk that ends before the target is
        stepped over by its total, and only the chunk that crosses it becomes
        the tape; a chunk whose smallest span reaches the target is not
        totalled.  A ``t`` at or before the current timestamp is a no-op.
        """
        while self.timestamp < t:
            due = self._next_wakeup_at()
            target = t if due is None else min(t, due)
            if self._rng is None:
                skipped = (target - self.timestamp - 1) // self.block_interval
                if skipped > 0:
                    self.height += skipped
                    self.timestamp += skipped * self.block_interval
            else:
                tape, i = self._tape, self._tape_next
                height = self.height
                if tape[-1] < target:  # every block left on the tape is empty
                    height += len(tape) - i
                    ts = tape[-1]
                    draws = next(self._chunks)
                    while (
                        ts + len(draws) * _JITTER_LOW < target
                        and (end := ts + interval_total(draws)) < target
                    ):
                        height += len(draws)
                        ts = end
                        draws = next(self._chunks)
                    self._tape = tape = list(accumulate(draws, initial=ts))
                    i = 1
                crossing = bisect_left(tape, target, i)  # the first block at or past target
                self.height = height + crossing - i
                self.timestamp = tape[crossing - 1]
                self._tape_next = crossing
            self.produce_block(deliver)  # the first block at or past target

    def drain_wakeups(self, deliver: Optional[Deliver] = None) -> None:
        """Produce blocks until no wakeup is armed, skipping empty ones.

        Equals calling ``produce_block(deliver)`` while
        ``armed_wakeup_count() > 0``; a wakeup already due is handed to
        ``deliver`` by the next block.
        """
        while (due := self._next_wakeup_at()) is not None:
            self.advance_to(max(due, self.timestamp + 1), deliver)

    def _next_wakeup_at(self) -> Optional[int]:
        """Fire time of the earliest armed wakeup, or None.

        Heap entries left behind by a cancel or a reschedule are dropped here.
        """
        heap, armed = self._wakeup_heap, self._wakeup_armed
        while heap:
            fire_at, _, addr = heap[0]
            if armed.get(addr) == fire_at:
                return fire_at
            heapq.heappop(heap)
        return None

    def _deliver_due_wakeups(self, block: Block, deliver: Optional[Deliver]) -> None:
        while (due := self._next_wakeup_at()) is not None and due <= block.timestamp:
            addr = heapq.heappop(self._wakeup_heap)[2]
            del self._wakeup_armed[addr]
            if deliver is not None:
                deliver(addr, block)

    def schedule_wakeup(self, contract_address: str, fire_at: int) -> None:
        """Arm the alarm-clock timer for a contract (one per contract)."""
        self._wakeup_seq += 1
        self._wakeup_armed[contract_address] = fire_at
        heapq.heappush(self._wakeup_heap, (fire_at, self._wakeup_seq, contract_address))

    def cancel_wakeup(self, contract_address: str) -> None:
        self._wakeup_armed.pop(contract_address, None)

    def armed_wakeup_count(self) -> int:
        return len(self._wakeup_armed)

    # ---- accounts and transfers ------------------------------------------

    def balance_of(self, addr: str) -> int:
        """Balance of a user account, or escrow of a contract account."""
        if addr in self.accounts:
            return self.accounts[addr]
        if addr in self.contracts:
            return self.contracts[addr].escrow
        raise UnknownAddress(echo(addr, str))

    def _require_account(self, addr: str) -> None:
        if addr not in self.accounts:
            raise UnknownAddress(echo(addr, str))

    def _debit(self, payer: str, to: str, value: int, fee: int, kind: str) -> None:
        """Take ``value + fee`` from the user account ``payer``, add the fee to
        ``fee_sink`` and log the transaction; the caller credits ``to``."""
        balance = self.accounts[payer]
        if balance < value + fee:
            name = echo(payer, str)
            raise InsufficientFunds(
                f"{name} has {balance} wei, needs {value + fee}"
                if kind in ("transfer", "lock")
                else f"{name} cannot pay {kind} fee of {fee} wei"
            )
        self.accounts[payer] = balance - value - fee
        self.fee_sink += fee
        self._log(payer, to, value, fee, kind)

    def transfer(self, from_addr: str, to_addr: str, value: int) -> None:
        """Move ``value`` between user accounts; sender also pays the gas fee."""
        require_amount(value, "transfer value")
        self._require_account(from_addr)
        self._require_account(to_addr)
        self._debit(from_addr, to_addr, value, self.gas.transfer_fee(), "transfer")
        self.accounts[to_addr] += value

    # ---- contract plumbing -------------------------------------------------

    def register_contract(self, contract: AgreementContract, payer: str) -> str:
        """Give ``contract`` a fresh address and return it; the payer covers the deploy fee."""
        self._require_account(payer)
        # contracts are only ever added, so addresses run sc-1, sc-2, ...
        addr = f"{CONTRACT_ADDRESS_PREFIX}{len(self.contracts) + 1}"
        self._debit(payer, addr, 0, self.gas.deploy_fee(), "deploy")
        contract.address = addr
        self.contracts[addr] = contract
        return addr

    def contract_call(self, caller: str, contract_addr: str) -> None:
        """Charge the flat call fee for a state-changing contract trigger."""
        self._require_account(caller)
        if contract_addr not in self.contracts:
            raise UnknownAddress(echo(contract_addr, str))
        self._debit(caller, contract_addr, 0, self.gas.call_fee(), "call")

    def escrow_in(self, caller: str, contract_addr: str, value: int) -> None:
        """Move value from a user account into a contract's escrow, plus call fee."""
        require_amount(value, "escrow value")
        self._require_account(caller)
        contract = self.contracts.get(contract_addr)
        if contract is None:
            raise UnknownAddress(echo(contract_addr, str))
        self._debit(caller, contract_addr, value, self.gas.call_fee(), "lock")
        contract.escrow += value

    def escrow_out(self, contract_addr: str, to_addr: str, value: int, kind: str) -> None:
        """Release escrowed value to a user account (no fee on releases)."""
        require_amount(value, "release value")
        contract = self.contracts.get(contract_addr)
        if contract is None:
            raise UnknownAddress(echo(contract_addr, str))
        if value == 0:
            return
        self._require_account(to_addr)
        if contract.escrow < value:
            raise InsufficientFunds(
                f"{contract_addr} escrow {contract.escrow} < release {value}"
            )
        contract.escrow -= value
        self.accounts[to_addr] += value
        self._log(contract_addr, to_addr, value, 0, kind)

    # ---- verification -------------------------------------------------------

    def conservation_check(self) -> bool:
        """Exact integer check of the conservation invariant."""
        total = sum(self.accounts.values()) + self.fee_sink
        total += sum(c.escrow for c in self.contracts.values())
        return total == self.genesis_total

    def _log(self, from_addr: str, to_addr: str, value: int, fee: int, kind: str) -> None:
        # The bytes of json.dumps(..., separators=(", ", ": ")) on a dict with
        # keys block_height, from, to, value_wei, fee_wei, kind in that order.
        line = (
            f'{{"block_height": {self.height:d}, '
            f'"from": {encode_basestring_ascii(from_addr)}, '
            f'"to": {encode_basestring_ascii(to_addr)}, '
            f'"value_wei": "{value:d}", "fee_wei": "{fee:d}", '
            f'"kind": {encode_basestring_ascii(kind)}}}'
        )
        self.tx_log.append(line)

    def tx_log_digest(self) -> str:
        r"""SHA-256 of ``"\n".join(tx_log)``, computed when asked.

        A run asks once, when its report is built, so the log is not hashed
        line by line as it grows.  The lines are joined and fed a slice of
        ``_DIGEST_SLICE_LINES`` at a time, so no copy of the whole log is made.
        """
        log, n = self.tx_log, _DIGEST_SLICE_LINES
        digest = hashlib.sha256("\n".join(log[:n]).encode())
        for k in range(n, len(log), n):
            digest.update(b"\n")
            digest.update("\n".join(log[k:k + n]).encode())
        return digest.hexdigest()


def replay_balances(
    genesis: dict[str, int], lines: Iterable[str]
) -> tuple[dict[str, int], int]:
    """Recompute final balances from genesis plus the exported tx log lines.

    Each line is read back with ``json.loads``, so a replay that reproduces
    the live state also vouches for the bytes the tx digest covers.
    Contract addresses accumulate escrow like ordinary balances.
    """
    balances: dict[str, int] = dict(genesis)
    fee_sink = 0
    for line in lines:
        tx = json.loads(line)
        value, fee = int(tx["value_wei"]), int(tx["fee_wei"])
        balances[tx["from"]] = balances.get(tx["from"], 0) - value - fee
        balances[tx["to"]] = balances.get(tx["to"], 0) + value
        fee_sink += fee
    return balances, fee_sink

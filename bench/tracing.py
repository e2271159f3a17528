"""Run-time tracing of the escrowsim layers, from outside the package.

``Tracer.install`` wraps public functions of ``escrowsim`` and patches each
wrapper in where its caller looks the name up (a module attribute, or a class
attribute for methods). Nothing in ``escrowsim`` is edited, and an untraced
run never calls ``install``.

Each wrapped call records a span (id, parent, name, start, end) in flat
arrays kept in memory; ``write_spans`` writes them out once the run is over.
A span's self time is its duration minus the durations of its direct
children. Calls and self seconds are then summed per span name.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

from escrowsim import contracts, ledger, oracle, orchestrator, scenario

# span name -> [(owner, attribute)]; owner is the object the caller reads the
# attribute from, so the wrapper is what the caller actually runs.
SPANS = {
    "scenario.generate": [(scenario, "generate_random_script")],
    "scenario.parse": [(scenario, "parse_scenario")],
    "scenario.run": [(scenario, "run_scenario")],
    "scenario.render": [(scenario.SettlementReport, "to_json_text")],
    "ledger.produce_block": [(ledger.Ledger, "produce_block")],
    "ledger.mutate": [
        (ledger.Ledger, name)
        for name in (
            "transfer",
            "register_contract",
            "contract_call",
            "escrow_in",
            "escrow_out",
        )
    ],
    "ledger.digest": [(ledger.Ledger, "tx_log_digest")],
    "ledger.conservation": [(ledger.Ledger, "conservation_check")],
    "orchestrator.call": [
        (orchestrator.SessionOrchestrator, name)
        for name in (
            "request_session",
            "deploy_consensus",
            "user_approve_and_pay",
            "countersign_and_deploy",
            "record_qos_sample",
            "end_session",
            "quota_purchase",
            "quota_start",
            "quota_stop",
        )
    ],
    "orchestrator.wakeup": [(orchestrator.SessionOrchestrator, "on_wakeup")],
    # the orchestrator reaches the settlement paths as ``sc.<name>``
    "contracts.settle": [
        (contracts, name)
        for name in ("stop_and_settle", "expire_and_settle", "abort_and_refund", "quota_stop")
    ],
    # scenario and orchestrator import these names into their own namespace
    "contracts.export": [(scenario, "export_contract")],
    "pricing.quote": [(orchestrator, "quote_price")],
    "oracle.settlement": [(oracle, "oracle_settlement")],
}

# counted, not timed
COUNTERS = {
    "ledger.wakeups_scheduled": (ledger.Ledger, "schedule_wakeup"),
    "ledger.wakeups_cancelled": (ledger.Ledger, "cancel_wakeup"),
}

# Error classes the orchestrator lets escape, reported one metric each; any
# other class is counted under ``other``.
RAISED_CLASSES = (
    "InadmissibleOffer",
    "InsufficientFunds",
    "NoOpenSession",
    "NotEndUser",
    "QuotaExhausted",
    "QuoteExpired",
    "SessionAlreadyOpen",
    "SessionNotActive",
    "WrongState",
)

PER_LAYER_UNITS = {
    "scenario.generate_s": "s",
    "scenario.parse_s": "s",
    "scenario.run_self_s": "s",
    "scenario.render_s": "s",
    "scenario.script_p50_ms": "ms",
    "scenario.script_p99_ms": "ms",
    "scenario.scripts": "count",
    "ledger.produce_block_calls": "count",
    "ledger.produce_block_s": "s",
    "ledger.useful_block_share": "ratio",
    "ledger.wakeups_scheduled": "count",
    "ledger.wakeups_cancelled": "count",
    "ledger.wakeups_delivered": "count",
    "ledger.mutate_calls": "count",
    "ledger.mutate_s": "s",
    "ledger.digest_s": "s",
    "ledger.conservation_s": "s",
    "orchestrator.calls": "count",
    "orchestrator.self_s": "s",
    "orchestrator.wakeup_s": "s",
    "orchestrator.raised": "count",
    **{f"orchestrator.raised.{name}": "count" for name in (*RAISED_CLASSES, "other")},
    "contracts.settle_calls": "count",
    "contracts.settle_s": "s",
    "contracts.export_s": "s",
    "pricing.quote_calls": "count",
    "pricing.quote_s": "s",
    "oracle.s_per_contract": "s/contract",
    "sim.events": "count",
    "sim.event_errors": "count",
    "sim.sessions": "count",
    "sim.contracts": "count",
    "sim.final_height": "blocks",
    "sim.sim_seconds": "sim_s",
    "sim.txs": "count",
    "sim.report_bytes": "bytes",
    "trace.overhead_share": "ratio",
}


@dataclass
class RunBlocks:
    """What one ``run_scenario`` call did with its blocks."""

    event_times: list[int]
    block_times: array = field(default_factory=lambda: array("q"))
    wakeup_heights: set = field(default_factory=set)
    txs: int = 0

    def useful_blocks(self) -> int:
        """Produced blocks that applied an event or delivered a wakeup.

        An event at time t runs in the first block whose timestamp is >= t;
        events at or before the genesis block run in no produced block.
        """
        heights = set(self.wakeup_heights)
        for t in self.event_times:
            height = bisect.bisect_left(self.block_times, t) + 1
            if t > 0 and height <= len(self.block_times):
                heights.add(height)
        return len(heights)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPANS)
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()  # (span name, error class) -> count
        self.runs: list[RunBlocks] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the previous pass; the installed wrappers stay bound."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self._stack[1:]
        self.counts.clear()
        self.raised.clear()
        self.runs.clear()

    # ---- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        code = self.names.index(name)
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends, stack, raised, clock = self.span_end, self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(ends)
            add_name(code)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # per-run bookkeeping, called after the wrapped function returns

    def _after_block(self, _args, block) -> None:
        self.runs[-1].block_times.append(block.timestamp)

    def _after_wakeup(self, args, _result) -> None:
        self.runs[-1].wakeup_heights.add(args[2].height)

    def _after_digest(self, args, _result) -> None:
        self.runs[-1].txs = len(args[0].tx_log)

    def install(self) -> None:
        """Patch every wrapper in place; ``uninstall`` restores the originals."""
        after = {
            "ledger.produce_block": self._after_block,
            "orchestrator.wakeup": self._after_wakeup,
            "ledger.digest": self._after_digest,
        }
        for name, targets in SPANS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                wrapped = self._span(name, original, after.get(name))
                if name == "scenario.run":
                    wrapped = self._run_entry(wrapped)
                self._patch(owner, attr, original, wrapped)
        for name, (owner, attr) in COUNTERS.items():
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._counter(name, original))

    def _run_entry(self, traced_run):
        runs = self.runs

        @functools.wraps(traced_run)
        def run(script, *args, **kwargs):
            runs.append(RunBlocks(event_times=[e.at_time for e in script.events]))
            return traced_run(script, *args, **kwargs)

        return run

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- results ------------------------------------------------------------

    def totals(self, seconds=None) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over the spans recorded so far.

        ``seconds(start, end)`` converts a span's clock interval, for example
        ``Speedometer.reference_s``; by default it is ``end - start``.
        """
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        n = len(ends)
        if seconds is None:
            duration = [ends[i] - starts[i] for i in range(n)]
        else:
            duration = [seconds(starts[i], ends[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += duration[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, code in enumerate(self.span_name):
            calls[code] += 1
            self_s[code] += duration[i] - child[i]
        return {name: (calls[c], self_s[c]) for c, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i, (code, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                out.write(f"{i}\t{parent}\t{names[code]}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracer: Tracer, result) -> dict[str, float]:
    """Per-layer numbers of one traced pass, ``result`` (a ``PassResult``)."""
    totals = tracer.totals(result.speed.reference_s)
    sim = result.sim

    def calls(name):
        return totals[name][0]

    def self_s(name):
        return totals[name][1]

    blocks = sum(len(run.block_times) for run in tracer.runs)
    useful = sum(run.useful_blocks() for run in tracer.runs)
    raised = Counter()
    for (span, error), count in tracer.raised.items():
        if span.startswith("orchestrator."):
            raised[error if error in RAISED_CLASSES else "other"] += count
    metrics = {
        "scenario.parse_s": self_s("scenario.parse"),
        "scenario.run_self_s": self_s("scenario.run"),
        "scenario.render_s": self_s("scenario.render"),
        "ledger.produce_block_calls": calls("ledger.produce_block"),
        "ledger.produce_block_s": self_s("ledger.produce_block"),
        "ledger.useful_block_share": useful / blocks if blocks else 0.0,
        "ledger.wakeups_scheduled": tracer.counts["ledger.wakeups_scheduled"],
        "ledger.wakeups_cancelled": tracer.counts["ledger.wakeups_cancelled"],
        "ledger.wakeups_delivered": calls("orchestrator.wakeup"),
        "ledger.mutate_calls": calls("ledger.mutate"),
        "ledger.mutate_s": self_s("ledger.mutate"),
        "ledger.digest_s": self_s("ledger.digest"),
        "ledger.conservation_s": self_s("ledger.conservation"),
        "orchestrator.calls": calls("orchestrator.call"),
        "orchestrator.self_s": self_s("orchestrator.call"),
        "orchestrator.wakeup_s": self_s("orchestrator.wakeup"),
        "orchestrator.raised": sum(raised.values()),
        **{f"orchestrator.raised.{name}": raised[name] for name in (*RAISED_CLASSES, "other")},
        "contracts.settle_calls": calls("contracts.settle"),
        "contracts.settle_s": self_s("contracts.settle"),
        "contracts.export_s": self_s("contracts.export"),
        "pricing.quote_calls": calls("pricing.quote"),
        "pricing.quote_s": self_s("pricing.quote"),
        "oracle.s_per_contract": self_s("oracle.settlement") / max(sim["contracts"], 1),
    }
    metrics.update({f"sim.{key}": value for key, value in sim.items()})
    metrics["sim.txs"] = sum(run.txs for run in tracer.runs)
    return metrics

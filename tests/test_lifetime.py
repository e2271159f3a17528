"""A finished run frees its state by reference counting, the entry points
keep the cyclic collector off while they run, and the products a run writes
at the end hold few copies of themselves while they are built.

The orchestrator holds the ledger, and the ledger holds nothing above it: a
wakeup is handed to the ``deliver`` callable passed to the clock call that
makes it due, and the ledger keeps no reference to it.  So a run forms no
reference cycle by construction, and is freed with its runner whether it
returns or raises.  The checks that free anything run with the collector
off, so that only reference counting can free it.  Since nothing they build
needs the cyclic collector, parse, run, render and the oracle pause it, and
hand back the caller's setting however they end.
The report and the tx digest are made when the run's state is at its
largest, so what they allocate on top of it is pinned with ``tracemalloc``,
and so is the run stage's own peak: the report holds the run's records, not a
copy of them.
"""

import gc
import hashlib
import json
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

import pytest

from escrowsim import oracle, scenario
from escrowsim.errors import ParseError, ValidationError
from escrowsim.ledger import GasSchedule, Ledger
from escrowsim.oracle import oracle_settlement
from escrowsim.orchestrator import SessionOrchestrator
from escrowsim.report import SettlementReport
from escrowsim.scenario import generate_random_script, parse_scenario

from load_source import load_source
from report_tree import report_tree

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

EVENT_ERRORS_SEED = 3  # event errors, no timeout settlement
TIMEOUT_SEED = 1  # timeout settlements, no event error


@contextmanager
def collector_off():
    while gc.collect():  # a finalizer that ran may leave garbage for the next pass
        pass
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextmanager
def collector(enabled):
    """The collector on or off, as a caller set it; on again afterwards."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


ENTRY_POINTS = ("parse_scenario", "run_scenario", "to_json_text", "oracle_settlement")


def entry_point_calls(text, unpaused=False):
    """Each entry point as a call on ``text``, its input made beforehand; with
    ``unpaused``, a call of the function it wraps, which leaves the collector on."""
    script = parse_scenario(text)
    report = scenario.run_scenario(script)

    def pick(entry_point):
        return entry_point.__wrapped__ if unpaused else entry_point

    return {
        "parse_scenario": lambda: pick(parse_scenario)(text),
        "run_scenario": lambda: pick(scenario.run_scenario)(script),
        "to_json_text": lambda: pick(SettlementReport.to_json_text)(report),
        "oracle_settlement": lambda: pick(oracle_settlement)(script),
    }


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_an_entry_point_returns_with_the_collector_as_its_caller_set_it(entry_point, enabled):
    call = entry_point_calls(json.dumps(generate_random_script(TIMEOUT_SEED)))[entry_point]
    with collector(enabled):
        call()
        assert gc.isenabled() is enabled


def raising_calls(monkeypatch, seen):
    """A call per entry point that raises; a run or oracle handler records the
    collector's state in ``seen`` before it raises."""

    def boom(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    script = parse_scenario(generate_random_script(TIMEOUT_SEED))
    report = scenario.run_scenario(script)
    report.report["fee_sink_wei"] = 0  # an int where the writer wants a str
    monkeypatch.setitem(scenario._RUNNER_HANDLERS, scenario.RequestSession, boom)
    monkeypatch.setitem(oracle._ORACLE_HANDLERS, scenario.RequestSession, boom)
    return {
        "parse_scenario: ParseError": (ParseError, lambda: parse_scenario("{")),
        "parse_scenario: ValidationError": (ValidationError, lambda: parse_scenario("[]")),
        "run_scenario": (RuntimeError, lambda: scenario.run_scenario(script)),
        "to_json_text": (TypeError, report.to_json_text),
        "oracle_settlement": (RuntimeError, lambda: oracle_settlement(script)),
    }


RAISING = (
    "parse_scenario: ParseError",
    "parse_scenario: ValidationError",
    "run_scenario",
    "to_json_text",
    "oracle_settlement",
)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", RAISING)
def test_an_entry_point_that_raises_leaves_the_collector_as_its_caller_set_it(
    monkeypatch, case, enabled
):
    seen = []
    error, call = raising_calls(monkeypatch, seen)[case]
    with collector(enabled):
        with pytest.raises(error):
            call()
        assert gc.isenabled() is enabled
    assert seen == ([False] if case in ("run_scenario", "oracle_settlement") else [])


def test_no_automatic_collection_runs_inside_an_entry_point():
    # 300 merged scripts: without the pause, parse and run each collect many
    # times over what they hold
    text = merged_text(300)

    def collections(call):
        starts = []

        def probe(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect(0)  # so a collection due before the call cannot start in it
        gc.callbacks.append(probe)
        try:
            call()
        finally:
            gc.callbacks.remove(probe)
        return starts

    assert gc.isenabled()
    paused = {name: collections(call) for name, call in entry_point_calls(text).items()}
    assert paused == dict.fromkeys(ENTRY_POINTS, [])
    unpaused = {
        name: collections(call) for name, call in entry_point_calls(text, unpaused=True).items()
    }
    assert unpaused["parse_scenario"] and unpaused["run_scenario"]


def test_parse_run_render_and_oracle_leave_no_cyclic_garbage():
    texts = [json.dumps(generate_random_script(seed)) for seed in range(200)]
    with collector_off():
        for text in texts:
            script = parse_scenario(text)
            scenario.run_scenario(script).to_json_text()
            oracle_settlement(script)
        assert gc.collect() == 0


@pytest.mark.parametrize("seed", [EVENT_ERRORS_SEED, TIMEOUT_SEED])
def test_the_ledger_dies_with_its_runner(seed):
    script = parse_scenario(generate_random_script(seed))
    with collector_off():
        runner = scenario._Runner(script)
        ledger = weakref.ref(runner.ledger)
        report = runner.run()
        del runner
        assert ledger() is None
    sessions = report_tree(report)["sessions"]
    assert bool(report.report["event_errors"]) == (seed == EVENT_ERRORS_SEED)
    assert any(s["settled_by"] == "expiry" for s in sessions) == (seed == TIMEOUT_SEED)


def test_a_run_that_raises_is_freed_with_its_runner_and_the_exception(monkeypatch):
    # raised inside a wakeup's delivery: the traceback holds the frames of the
    # clock calls that carry the orchestrator's on_wakeup
    def boom(orch, contract_address, block):
        raise RuntimeError("boom")

    monkeypatch.setattr(SessionOrchestrator, "on_wakeup", boom)
    script = parse_scenario(generate_random_script(TIMEOUT_SEED))
    with collector_off():
        runner = scenario._Runner(script)
        refs = [weakref.ref(runner.ledger), weakref.ref(runner.orch)]
        with pytest.raises(RuntimeError, match="boom") as raised:
            runner.run()
        del runner
        assert all(ref() is not None for ref in refs)  # the run's frames hold them
        del raised
        assert [ref() for ref in refs] == [None, None]


def reachable_from(root):
    """Every object that ``root`` reaches by reference, by id, not counting
    what it reaches only through a class, a module or a module's globals."""
    modules = [m for m in list(sys.modules.values()) if isinstance(m, ModuleType)]
    stops = {id(m) for m in modules} | {id(vars(m)) for m in modules}
    reached, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in reached or id(obj) in stops or isinstance(obj, type):
            continue
        reached[id(obj)] = obj  # kept alive, so no id is reused during the walk
        todo.extend(gc.get_referents(obj))
    return reached


def test_nothing_the_ledger_reaches_is_its_orchestrator_or_runner(monkeypatch):
    runner = scenario._Runner(parse_scenario(generate_random_script(TIMEOUT_SEED)))
    ledger, above = runner.ledger, [runner, runner.orch]
    walks = []
    on_wakeup = SessionOrchestrator.on_wakeup

    def walked(orch, contract_address, block):  # in the middle of a delivery, mid-run
        reached = reachable_from(ledger)
        contract = orch.sessions[contract_address].contract
        walks.append((id(contract) in reached, [id(o) in reached for o in above]))
        return on_wakeup(orch, contract_address, block)

    monkeypatch.setattr(SessionOrchestrator, "on_wakeup", walked)
    runner.run()
    assert walks
    assert all(walk == (True, [False, False]) for walk in walks)


def traced_peak(make):
    """What ``make()`` returns, and the peak bytes it allocated while it ran."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def merged_text(count):
    """Generator seeds 0..count-1 merged 30 s apart, as ``bench/workloads.py`` merges bulk."""
    workloads = load_source("bench_workloads", WORKLOADS)
    return json.dumps(workloads.merge_scripts(list(range(count)), 30))


def merged_200_scripts():
    return parse_scenario(merged_text(200))


def test_rendering_a_large_report_holds_little_more_than_its_text():
    report = scenario.run_scenario(merged_200_scripts())
    text, peak = traced_peak(report.to_json_text)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert peak <= 2.5 * len(text)


def test_a_large_run_peaks_at_a_small_multiple_of_its_report_text():
    # The run's state and its report are alive together when the run ends.
    # A report that copied every row into a dict tree peaked at 5.0 times the
    # text here; one that keeps the run's records peaks at 3.5 times.
    script = merged_200_scripts()
    report, peak = traced_peak(lambda: scenario.run_scenario(script))
    assert peak <= 4.25 * len(report.to_json_text())


def test_the_tx_digest_hashes_a_long_log_without_copying_it():
    ledger = Ledger({"a": 10**30, "b": 0}, gas=GasSchedule(transfer_gas=0))
    for _ in range(20_000):
        ledger.transfer("a", "b", 1)
    joined = "\n".join(ledger.tx_log).encode()
    digest, peak = traced_peak(ledger.tx_log_digest)
    assert digest == hashlib.sha256(joined).hexdigest()
    assert peak <= 0.25 * len(joined)

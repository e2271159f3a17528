"""A finished run frees its state by reference counting, and the products
it writes at the end hold few copies of themselves while they are built.

The ledger reaches the orchestrator through its wakeup hook, and the
orchestrator holds the ledger, so a run that left the hook in place would
stay in memory until the cyclic collector found it.  Each check of that runs
with the collector off, so that only reference counting can free anything.
The report and the tx digest are made when the run's state is at its
largest, so what they allocate on top of it is pinned with ``tracemalloc``,
and so is the run stage's own peak: the report holds the run's records, not a
copy of them.
"""

import gc
import hashlib
import importlib.util
import json
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from escrowsim import scenario
from escrowsim.ledger import GasSchedule, Ledger
from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario

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


def test_an_exception_escaping_the_run_still_removes_the_wakeup_hook(monkeypatch):
    def boom(runner, event):
        raise RuntimeError("boom")

    monkeypatch.setitem(scenario._RUNNER_HANDLERS, scenario.RequestSession, boom)
    runner = scenario._Runner(parse_scenario(generate_random_script(TIMEOUT_SEED)))
    assert runner.ledger.wakeup_handler is not None
    with pytest.raises(RuntimeError, match="boom"):
        runner.run()
    assert runner.ledger.wakeup_handler is None


def traced_peak(make):
    """What ``make()`` returns, and the peak bytes it allocated while it ran."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def merged_200_scripts():
    """Generator seeds 0..199 merged 30 s apart, as ``bench/workloads.py`` merges bulk."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_scenario(json.dumps(workloads.merge_scripts(list(range(200)), 30)))


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

"""A finished run frees its state by reference counting.

The ledger reaches the orchestrator through its wakeup hook, and the
orchestrator holds the ledger, so a run that left the hook in place would
stay in memory until the cyclic collector found it.  Each check here runs
with the collector off, so that only reference counting can free anything.
"""

import gc
import json
import weakref
from contextlib import contextmanager

import pytest

from escrowsim import scenario
from escrowsim.oracle import oracle_settlement
from escrowsim.scenario import generate_random_script, parse_scenario

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
    sessions = report.report["sessions"]
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

"""The benchmark's tracer (bench/tracing.py) still finds every name it wraps.

The tracer patches functions and methods of escrowsim by name, so renaming
one of them breaks the benchmark; this test makes the suite notice.
"""

from pathlib import Path

from escrowsim import scenario

from load_source import load_source

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_traces_a_run_and_uninstalls():
    tracing = load_source("bench_tracing", TRACING)
    targets = [target for group in tracing.SPANS.values() for target in group]
    targets += tracing.COUNTERS.values()
    originals = {target: target[0].__dict__[target[1]] for target in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not originals[owner, attr] for owner, attr in targets)
        doc = scenario.generate_random_script(4)  # sessions settle by stop and by timeout
        scenario.run_scenario(scenario.parse_scenario(doc))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is originals[owner, attr] for owner, attr in targets)
    totals = tracer.totals()
    for name in (
        "scenario.run",
        "orchestrator.call",
        "orchestrator.wakeup",
        "ledger.mutate",
        "contracts.settle",  # wrapped by name: the settle paths keep theirs
        "pricing.quote",
    ):
        assert totals[name][0] > 0, name
    [run] = tracer.runs
    assert run.wakeup_heights  # read from on_wakeup's block argument

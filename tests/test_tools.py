"""The repository tools under tools/: what they report about the package."""

import ast
import gc
import inspect
import json
import sys
from pathlib import Path

from escrowsim import contracts, orchestrator, report, scenario

from load_source import load_source

TOOLS = Path(__file__).resolve().parents[1] / "tools"
WORKLOADS = TOOLS.parent / "bench" / "workloads.py"


def load_tool(name):
    return load_source(f"tools_{name}", TOOLS / f"{name}.py")


def bytecode_caches():
    """Each file under a ``__pycache__`` in bench/ or tools/, with its mtime."""
    return {
        path: path.stat().st_mtime_ns
        for folder in (TOOLS, WORKLOADS.parent)
        for path in folder.glob("**/__pycache__/*")
    }


def test_loading_a_bench_or_tools_script_writes_no_bytecode_beside_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    before = bytecode_caches()
    scripts = [WORKLOADS, WORKLOADS.with_name("tracing.py"), *sorted(TOOLS.glob("*.py"))]
    for path in scripts:
        load_source(f"bytecode_probe_{path.parent.name}_{path.stem}", path)
        assert sys.dont_write_bytecode is False
    assert bytecode_caches() == before
    assert not [name for name in sys.modules if name.startswith("bytecode_probe_")]


def first_statement_line(module, function_name):
    tree = ast.parse(inspect.getsource(module))
    [function] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function_name
    ]
    return function.body[1].lineno  # body[0] is the docstring


def test_reach_lists_a_raise_no_generated_script_takes_and_not_the_parse():
    reach = load_tool("reach")
    texts = (json.dumps(scenario.generate_random_script(seed)) for seed in range(10))
    tracer = sys.gettrace()
    missed = reach.unreached(texts)
    assert sys.gettrace() is tracer
    [quota_exhausted] = [
        number
        for number, line in enumerate(inspect.getsource(contracts).splitlines(), 1)
        if line.strip() == "raise QuotaExhausted(contract.address)"
    ]
    assert quota_exhausted in missed["contracts.py"]
    assert first_statement_line(scenario, "parse_scenario") not in missed["scenario.py"]


def raise_lines(module):
    return {
        node.lineno
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Raise)
    }


def method_lines(module, class_name, method_name):
    """The lines of ``class_name.method_name`` in ``module``."""
    tree = ast.parse(inspect.getsource(module))
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    [method] = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == method_name]
    return set(range(method.lineno, method.end_lineno + 1))


def test_every_contract_or_orchestrator_line_generated_scripts_miss_is_a_raise():
    reach = load_tool("reach")
    texts = (json.dumps(scenario.generate_random_script(seed)) for seed in range(50))
    missed = reach.unreached(texts)
    for module in (contracts, orchestrator):
        name = Path(module.__file__).name
        assert set(missed[name]) <= raise_lines(module), name
    # only ``escrowsim run --out`` prints the summary; tests/test_cli.py runs it
    summary = method_lines(report, "SettlementReport", "summary_text")
    assert set(missed["report.py"]) <= raise_lines(report) | summary


def test_mem_gives_one_row_per_stage_and_no_cyclic_garbage():
    mem = load_tool("mem")
    texts = [json.dumps(scenario.generate_random_script(seed)) for seed in range(10)]
    rows = mem.stage_rows(texts)
    assert [row.stage for row in rows] == ["parse", "run", "render", "oracle"]
    assert all(row.live_bytes > 0 for row in rows)
    assert all(row.peak_bytes >= row.live_bytes for row in rows)
    assert [row.garbage for row in rows] == [0, 0, 0, 0]


def test_gcstat_files_no_collection_in_the_four_stages_and_the_deferred_ones_after_them():
    gcstat = load_tool("gcstat")
    merged = load_source("bench_workloads", WORKLOADS).merge_scripts(list(range(300)), 30)
    callbacks = list(gc.callbacks)
    rows = gcstat.segment_rows([json.dumps(merged)], passes=1)
    assert gc.callbacks == callbacks and gc.isenabled()
    assert [row.segment for row in rows] == [
        "parse", "after parse", "run", "after run", "render", "after render",
        "oracle", "after oracle", "check", "after check",
    ]
    by_segment = {row.segment: row for row in rows}
    for stage in ("parse", "run", "render", "oracle"):
        assert by_segment[stage].collections == (0, 0, 0)
        assert by_segment[stage].ms > 0
    assert sum(sum(row.collections) for row in rows) > 0


def test_loc_counts_docstrings_and_statements_but_not_comments_or_blanks(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""A docstring\n'         # 1: counts
        "\n"                       # 2: inside the docstring, counts
        'of three lines."""\n'     # 3: counts
        "\n"                       # 4: blank
        "# a comment\n"            # 5: comment only
        "x = (1 +\n"               # 6: counts
        "     2)  # trailing\n"    # 7: the statement's second line, counts
        "    \n"                   # 8: blank
    )
    assert load_tool("loc").code_lines(source) == 5


def test_importtime_lists_the_scenario_layer_and_not_the_oracle_for_the_scenario_import():
    importtime = load_tool("importtime")
    for mode in importtime.MODES:
        rows = importtime.import_rows("escrowsim.scenario", mode, runs=1)
        modules = [row.module for row in rows]
        assert "escrowsim.scenario" in modules and "escrowsim.contracts" in modules
        assert "escrowsim.oracle" not in modules and "escrowsim.cli" not in modules
        assert all(0 <= row.self_ms <= row.cumulative_ms for row in rows)

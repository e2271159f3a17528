"""List the statement lines in the functions of ``src/escrowsim`` that a run never reaches.

Builds the benchmark's inputs for seed 0 of each workload
(``bench/workloads.build_inputs``) and runs parse, run, render, oracle and the
benchmark's check (the engine's settlements against the oracle's) on every
script, all under ``sys.settrace``; the generator that builds the inputs
(``script.generate_random_script``, which the benchmark calls through its
re-export in ``scenario``) is traced too.  For each module it then prints the
statement lines inside functions that never ran, docstrings left out: a
function that never ran as one line, any other one line by line.  Code that
runs only while the package is imported (``script``'s event-type decorator
and ``handler_table``) is not traced, so it shows as never run.  Standard library only (no coverage
package needed); ``bench/`` is read and never written.

    python3 tools/reach.py
"""

import ast
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "bulk", "idle")


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _statements(function: ast.FunctionDef) -> Iterator[ast.stmt]:
    """The statements of ``function``'s body at any depth, but not those of a
    function or class defined in it, and not its docstring."""
    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                stack.extend(c for c in ast.iter_child_nodes(child) if isinstance(c, ast.stmt))


def _code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode of ``code`` or of any code object inside it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statement_lines(path: Path) -> dict[tuple[int, str], dict[int, set[int]]]:
    """Per function (its line, its name): each statement's first line -> its own lines.

    A statement's own lines are its lines minus those of the statements nested
    in it, kept only where they hold bytecode; a statement without any (``try:``,
    ``pass``) is left out, since no line event can report it.
    """
    source = path.read_text()
    tree = ast.parse(source)
    with_code = _code_lines(compile(source, str(path), "exec"))
    functions = {}
    for function in _functions(tree):
        rows = {}
        for stmt in _statements(function):
            own = set(range(stmt.lineno, stmt.end_lineno + 1))
            for inner in ast.walk(stmt):
                if inner is not stmt and isinstance(inner, ast.stmt):
                    own -= set(range(inner.lineno, inner.end_lineno + 1))
            own &= with_code
            if own:
                rows[stmt.lineno] = own
        functions[function.lineno, function.name] = rows
    return functions


def _package() -> Path:
    """The directory of the ``escrowsim`` that is imported."""
    import escrowsim

    return Path(escrowsim.__file__).resolve().parent


def _run_all(texts: Iterable[str]) -> None:
    from escrowsim import oracle, scenario

    for text in texts:
        script = scenario.parse_scenario(text)
        report = scenario.run_scenario(script)
        report.to_json_text()
        if report.settlements != oracle.oracle_settlement(script):
            raise AssertionError("the engine's settlements differ from the oracle's")


def executed_lines(texts: Iterable[str]) -> dict[str, set[int]]:
    """Per module file name, the lines of the package that ran while parse, run,
    render, oracle and check went over ``texts``.

    ``texts`` is consumed under the trace, so a lazy iterable traces what builds
    the texts as well.
    """
    package = str(_package())
    seen: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | bool] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = by_filename.get(filename)
        if lines is None:
            real = os.path.realpath(filename)
            lines = by_filename[filename] = (
                seen.setdefault(os.path.basename(real), set())
                if os.path.dirname(real) == package
                else False
            )
        if lines is False:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        _run_all(texts)
    finally:
        sys.settrace(previous)
    return seen


def unreached(texts: Iterable[str]) -> dict[str, list[int]]:
    """Per module file name, the first lines of the statements inside functions
    that never ran while parse, run, render, oracle and check went over ``texts``."""
    ran = executed_lines(texts)
    result = {}
    for path in sorted(_package().glob("*.py")):
        lines = ran.get(path.name, set())
        result[path.name] = sorted(
            first
            for rows in statement_lines(path).values()
            for first, own in rows.items()
            if not own & lines
        )
    return result


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    missed = unreached(text for w in WORKLOADS for text in workloads.build_inputs(w, 0))
    for path in sorted(_package().glob("*.py")):
        never = set(missed[path.name])
        source = path.read_text().splitlines()
        functions = statement_lines(path)
        counted = sum(len(rows) for rows in functions.values())
        print(f"{path.name}: {len(never)} of {counted} statement lines never ran")
        for (line, name), rows in sorted(functions.items()):
            missing = sorted(never & rows.keys())
            if not missing:
                continue
            if len(missing) == len(rows):
                print(f"  {line:>5}  def {name}: never ran ({len(rows)} statement lines)")
                continue
            for line in missing:
                print(f"  {line:>5}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

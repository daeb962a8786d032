"""A pytest plugin that fails the session if a function line of craftkit
never ran, unless ``unrun_lines.json`` beside it names that line.

Run the whole suite with it: ``python -m pytest -p tests.line_trace``.  An
entry of the list gives a line's module, its stripped source text (not its
number, which moves with every edit above it) and the reason no test runs
it; an entry that matches no unrun line fails the session too.
"""

import importlib.util
import json
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("craftkit").origin).parent
PREFIX = str(PACKAGE)
ALLOWED = Path(__file__).with_name("unrun_lines.json")
ran = set()  # (file name, line number)


def _line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(PREFIX):
        ran.add((code.co_filename, code.co_firstlineno))
        return _line
    return None


def _function_lines(code):
    """Every line of the functions defined in ``code``, nested ones too."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function's own code
                yield from (line for _, _, line in const.co_lines() if line)
            yield from _function_lines(const)


def unexplained():
    """A line for each unrun line with no entry and each entry that
    matches no unrun line."""
    unrun = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        module = path.relative_to(PACKAGE.parent).as_posix()
        for line in set(_function_lines(compile(text, str(path), "exec"))):
            if (str(path), line) not in ran:
                unrun.add((module, line, source[line - 1].strip()))
    allowed = {(e["module"], e["source"])
               for e in json.loads(ALLOWED.read_text(encoding="utf-8"))}
    found = {(module, text) for module, _, text in unrun}
    return ([f"never ran: {module}:{line}: {text}"
             for module, line, text in sorted(unrun)
             if (module, text) not in allowed]
            + [f"ran, or is gone: {module}: {text}"
               for module, text in sorted(allowed - found)])


# from here on, ahead of the conftest files that import craftkit
sys.settrace(_call)
threading.settrace(_call)
problems = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    problems.extend(unexplained())
    if problems and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    if problems:
        terminalreporter.section("craftkit line trace", red=True)
        for problem in problems:
            terminalreporter.write_line(problem)

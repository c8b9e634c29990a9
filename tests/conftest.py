"""Shared pytest wiring: the Hypothesis profile and the verification-gate
recorder.

A failing Hypothesis example prints a @reproduce_failure blob, which replays
the example bit for bit; the printed repr of an array can lose a NaN's
payload bits, so the repr alone may not reproduce a failure.

The gate tests in test_acceptance.py report one PASS/FAIL line per check via
record_check(); lines print as the checks run and are repeated in a dedicated
section of the terminal summary so they survive output capture.
"""
from hypothesis import settings

settings.register_profile("evslicer", print_blob=True)
settings.load_profile("evslicer")

CHECK_LINES = []


def record_check(index, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] check {index:2d} {name}: {detail}"
    CHECK_LINES.append(line)
    print(line, flush=True)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CHECK_LINES:
        terminalreporter.section("verification gate")
        for line in CHECK_LINES:
            terminalreporter.write_line(line)

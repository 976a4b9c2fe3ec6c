"""Shared test wiring: one Hypothesis profile, and acceptance lines
collected into the run summary."""

from hypothesis import settings

# every property test draws 30 examples from a fixed seed, with no deadline
settings.register_profile("entrobound", max_examples=30, derandomize=True,
                          deadline=None)
settings.load_profile("entrobound")

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)

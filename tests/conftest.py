import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from acceptance_log import ACCEPTANCE_LINES  # noqa: E402


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

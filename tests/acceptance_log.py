"""PASS/FAIL lines of the acceptance slate, printed again by the
terminal-summary hook in conftest."""

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)
    print(line)

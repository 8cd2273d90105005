"""Session set-up shared by the test modules."""

import json


def pytest_terminal_summary(terminalreporter):
    """The numerical environment the run's last bits depend on (BLAS thread
    variables, cpus, numpy and scipy builds), as the run manifest records it;
    one line in the summary, which ``-q`` keeps, unlike the report header."""
    from nshom.cli import _numerical_environment

    terminalreporter.write_line(
        f"nshom numerical environment: {json.dumps(_numerical_environment())}")

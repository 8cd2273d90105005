"""Session set-up shared by the test modules."""

import json


def pytest_report_header(config):
    """The numerical environment the run's last bits depend on (BLAS thread
    variables, cpus, numpy and scipy builds), as the run manifest records it."""
    from nshom.cli import _numerical_environment

    return f"nshom numerical environment: {json.dumps(_numerical_environment())}"

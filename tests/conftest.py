import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # fdcheck helper

_ACCEPTANCE_RESULTS = {}


def data_root():
    """Dataset root for the real-data criteria: DATA_DIR or ./data."""
    return Path(os.environ.get("DATA_DIR", Path(__file__).parent.parent / "data"))


def require_dataset(name):
    root = data_root()
    from biasloss import data as datamod
    try:
        datamod.load_dataset(name, root, "test")
    except FileNotFoundError:
        pytest.skip(
            f"{name} dataset files not found under {root}; place the "
            f"standard binary files there (or set DATA_DIR) to run this "
            f"criterion")
    return root


@pytest.fixture(params=[0, 1, 3], ids=lambda h: f"helpers{h}")
def kernel_helpers(request, monkeypatch):
    """The kernel pool with 0, 1 or 3 helpers, whatever this machine's core
    count; the sample walk then cuts a batch into 1, 2 or 4 slices."""
    from biasloss import _kernels
    helpers = request.param
    with (ThreadPoolExecutor(helpers) if helpers else nullcontext()) as pool:
        monkeypatch.setattr(_kernels, "_HELPERS", helpers)
        monkeypatch.setattr(_kernels, "_POOL", pool)
        yield helpers


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid:
        if report.when == "call" or (report.when == "setup"
                                     and report.outcome == "skipped"):
            _ACCEPTANCE_RESULTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_RESULTS):
        name = nodeid.split("::")[-1]
        outcome = _ACCEPTANCE_RESULTS[nodeid]
        label = {"passed": "PASS", "failed": "FAIL",
                 "skipped": "SKIP"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{label}  {name}")

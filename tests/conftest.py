import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

import _acceptance_log


def pytest_configure(config):
    # hypothesis caches constants of the local sources on disk while it
    # collects, whatever the test's settings; keep that cache out of the tree
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "awtcpolar-hypothesis")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)

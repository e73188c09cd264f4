"""Session hooks shared by every test module."""

import resource


def pytest_terminal_summary(terminalreporter):
    """One line with the pytest process's peak resident memory, so a log shows it next to the durations."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux; macOS reports bytes
    terminalreporter.write_line(f"peak RSS of the pytest process: {peak} KiB (ru_maxrss; bytes on macOS)")

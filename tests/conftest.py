"""Every test stops the workers it starts: after each test, no
``spykersim-`` thread is alive and no child process is alive or unreaped."""

import os
import threading

import pytest


def _leaked_child() -> str | None:
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    if pid == 0:
        return "a child process is still running"
    return f"child process {pid} exited (status {status}) and was not reaped"


@pytest.fixture(autouse=True)
def no_leaked_worker():
    yield
    threads = [t.name for t in threading.enumerate() if t.name.startswith("spykersim-")]
    child = _leaked_child()
    leaks = ([f"threads still alive: {threads}"] if threads else []) + ([child] if child else [])
    if leaks:
        pytest.fail("the test leaked a worker: " + "; ".join(leaks), pytrace=False)

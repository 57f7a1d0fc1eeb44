"""Fixtures shared by the test modules."""

import contextlib
import io
import time

import pytest

from bitrunet.cli import cli


@pytest.fixture(scope="session")
def selftest_run():
    """(exit code, output lines, wall seconds) of one ``bitrunet selftest``
    run: the oracle table is the slowest part of the suite, so every test
    that reads an entry's line shares this single run."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli(["selftest"])
    return code, out.getvalue().splitlines(), time.perf_counter() - t0

import json
import logging
import os
import tempfile

import pytest


class _Collect(logging.Handler):
    """Appends each record, as one JSON line, to a file opened with
    O_APPEND, so that a forked pool worker, which inherits the handler and
    its file, adds its records to the test's own."""

    def __init__(self, path):
        super().__init__(logging.WARNING)
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_APPEND)

    def emit(self, record):
        line = json.dumps([record.name, record.getMessage()]) + "\n"
        os.write(self.fd, line.encode())

    def records(self):
        """(logger name, message) of each record so far, in the order
        written."""
        with open(self.path) as f:
            return [tuple(json.loads(line)) for line in f]

    def close(self):
        os.close(self.fd)
        super().close()


@pytest.fixture(autouse=True)
def no_unchecked_lapbs_warnings(request):
    """Fail a test that logs a WARNING or worse on a ``lapbs.*`` logger,
    in its own process or in a worker it forks, unless it takes ``caplog``
    to check the log: a solve that falls back, or a pool that retries,
    must not pass unnoticed.  This is the logging side of
    ``filterwarnings = ["error"]``.  The handler is the fixture's value, so
    a test can read what it collected."""
    fd, path = tempfile.mkstemp(prefix="lapbs-warnings-", suffix=".jsonl")
    os.close(fd)
    handler = _Collect(path)
    logger = logging.getLogger("lapbs")
    logger.addHandler(handler)
    yield handler
    logger.removeHandler(handler)
    handler.close()
    records = handler.records()
    os.unlink(path)
    if records and "caplog" not in request.fixturenames:
        name, message = records[0]
        pytest.fail(f"{len(records)} unchecked lapbs warning(s), "
                    f"the first on {name}: {message}")

import logging

import pytest


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_unchecked_lapbs_warnings(request):
    """Fail a test that logs a WARNING or worse on a ``lapbs.*`` logger
    unless it takes ``caplog`` to check the log: a solve that falls back,
    or a pool that retries, must not pass unnoticed.  This is the logging
    side of ``filterwarnings = ["error"]``."""
    handler = _Collect()
    logger = logging.getLogger("lapbs")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
    if handler.records and "caplog" not in request.fixturenames:
        first = handler.records[0]
        pytest.fail(f"{len(handler.records)} unchecked lapbs warning(s), "
                    f"the first on {first.name}: {first.getMessage()}")

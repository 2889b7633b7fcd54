"""Fixtures shared by the test modules."""

import time

import pytest

from wfano.catalog import SearchBounds, classify


@pytest.fixture(scope="session")
def default_catalog():
    """The catalog at the default search bounds and the seconds its search
    took, computed once per session; tests only read it."""
    t0 = time.time()
    records = classify(SearchBounds())
    return records, time.time() - t0

import pytest

from coaldef.cohomology import _shared_record


@pytest.fixture(autouse=True)
def empty_record_table():
    """Start every test with no shared complex record: a record made by
    one test would otherwise serve the next, and tests that count
    assembly, elimination or morphism checks would count nothing."""
    _shared_record.cache_clear()

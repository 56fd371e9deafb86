import pytest

from coaldef.cohomology import _shared_record
from coaldef.problemfile import _parsed


@pytest.fixture(autouse=True)
def empty_shared_tables():
    """Start every test with no shared complex record and no kept parse:
    a record or a parse made by one test would otherwise serve the next,
    and tests that count assembly, elimination, morphism checks or
    verifications would count nothing."""
    _shared_record.cache_clear()
    _parsed.cache_clear()

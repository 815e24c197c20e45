import pytest

from lgmirror.jacobi import ring_of


@pytest.fixture(autouse=True, scope="module")
def cold_ring_cache():
    """Start and leave every test module with an empty shared-ring cache, so
    no module's outcome depends on which rings an earlier one built."""
    ring_of.cache_clear()
    yield
    ring_of.cache_clear()

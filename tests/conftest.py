import pytest

from v2vbeam import parallel


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpu", "3cpu"])
def cpus(request, monkeypatch):
    """Run a test as if 1, 2 and 3 CPUs were usable."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: request.param)
    return request.param

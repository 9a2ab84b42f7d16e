import numpy as np
import pytest

from v2vbeam import parallel
from v2vbeam.ingest import Dataset


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpu", "3cpu"])
def cpus(request, monkeypatch):
    """Run a test as if 1, 2 and 3 CPUs were usable."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: request.param)
    return request.param


def make_dataset(powers, t=None, tx=None, rx=None):
    """A Dataset of the rows of ``powers``, each labelled with its argmax. Nothing is checked.

    ``t`` defaults to a row every 0.1 s, and ``tx`` to a fix that moves 0.01 degrees
    north and east each row from (33.0, -112.0). ``tx`` and ``rx`` are a [lat, lon]
    fix per row or one fix for every row; no ``rx`` is no receiver fix (NaN).
    """
    powers = np.array(powers, dtype=np.float64)
    i = np.arange(len(powers))
    t = 0.1 * i if t is None else np.array(t, dtype=np.float64)
    if tx is None:
        tx = np.column_stack([33.0 + 0.01 * i, -112.0 + 0.01 * i])
    fixes = (tx, np.nan if rx is None else rx)
    tx, rx = (np.broadcast_to(np.array(f, np.float64), (len(i), 2)).copy() for f in fixes)
    return Dataset(t, tx, rx, powers, powers.argmax(axis=1))

import tracemalloc

import numpy as np
import pytest

import latbal as lb


@pytest.fixture(scope="session")
def world42():
    return lb.default_world(seed=42)


@pytest.fixture(scope="session")
def dataset100k(world42):
    return lb.sample_world(world42, 100_000, seed=42)


@pytest.fixture(scope="session")
def dataset20k(world42):
    return lb.sample_world(world42, 20_000, seed=42)


def tiny_dataset(labels, dim=2, names=None):
    """Dataset with zero codes and the given label rows (content-free codes)."""
    labels = np.asarray(labels, dtype=np.uint8)
    m = labels.shape[1]
    schema = lb.AttributeSchema(tuple(names) if names else tuple(f"a{k}" for k in range(m)))
    return lb.LatentDataset(codes=np.zeros((labels.shape[0], dim)), labels=labels,
                            schema=schema)


def stacked(pos, neg):
    """The fit set [pos; neg] and its labels: +1 for the pos rows, -1 for the neg rows."""
    pos, neg = np.atleast_2d(pos), np.atleast_2d(neg)
    return np.vstack([pos, neg]), np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])


def traced_peak(fn, *args, **kw):
    """fn(*args, **kw) and the peak of the memory it allocated, in bytes above
    what tracemalloc saw live when the call began."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start

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

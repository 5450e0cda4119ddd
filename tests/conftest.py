import numpy as np
import pytest
from hypothesis import settings

from obliquetree import Dataset

# CI runs pytest with --hypothesis-profile=ci, so a failing property
# prints the blob that reproduces it with @reproduce_failure.
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def d1():
    """1-D step data: x = 1..4, y = 0,0,1,1."""
    return Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 1.0, 1.0]))


@pytest.fixture
def d2():
    """Unit square corners with y = x1 + x2; the oblique split along
    (1,1)/sqrt(2) strictly beats both axis splits here."""
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return Dataset(X, np.array([0.0, 1.0, 1.0, 2.0]))


def random_dataset(seed, n, p, y_scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    y = y_scale * rng.standard_normal(n)
    return Dataset(X, y)

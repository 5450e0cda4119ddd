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


def point_projection(x, w):
    """x . w as a per-point Python sum over w's support (its nonzero
    coefficients) in ascending coordinate order, starting from 0.0: the
    reference for dataset.projections.  x and w are sequences of floats."""
    total = 0.0
    for coef, value in zip(w, x):
        if coef != 0.0:
            total += coef * value
    return total


def reference_projections(X, w):
    """point_projection of every row of X onto w."""
    w = [float(c) for c in w]
    return np.array(
        [point_projection(x, w) for x in np.asarray(X, dtype=float).tolist()], dtype=float
    )

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

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


def raw_words(seed, count):
    """The first count words of PCG64(seed)'s raw stream, as Python ints."""
    return [int(word) for word in np.random.PCG64(seed).random_raw(count)]


def reference_random_sparse_directions(seed, p, sparsity_d, count):
    """The candidate draw as a loop over the raw words: candidate i reads
    p words, takes the d = min(sparsity_d, p) coordinates whose keys
    (word >> 1, ties to the lower index) are smallest, and gives each one
    the sign of its word's low bit, scaled to +-1 / sqrt(d)."""
    d = min(sparsity_d, p)
    words = raw_words(seed, count * p)
    out = np.zeros((count, p))
    for i in range(count):
        row = words[i * p : (i + 1) * p]
        for j in sorted(range(p), key=lambda j: (row[j] >> 1, j))[:d]:
            out[i, j] = (1.0 if row[j] & 1 else -1.0) / math.sqrt(d)
    return out


def reference_permutation(seed, n):
    """The holdout order as a loop: the indices 0..n-1 sorted by the
    seed's raw words, ties to the lower index."""
    words = raw_words(seed, n)
    return np.array(sorted(range(n), key=lambda i: (words[i], i)), dtype=np.intp)


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


# A vector on which Direction.canonical once failed to be idempotent: its
# second coefficient sits one ulp above the snap border, 1e-12 times the
# peak, and falls to it once the vector is divided by its norm.
SNAP_BORDER_VECTOR = (2.3835015962674735, 2.3835015962674737e-12, 0.715050478880242)


@st.composite
def snap_border_rows(draw):
    """k x p direction rows, each with a coefficient within two ulps of
    1e-12 times the row's peak magnitude, at unit scale and at scales
    whose squares underflow, lose bits as subnormals (1e-160) or
    overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p = draw(st.integers(1, 20)), draw(st.integers(2, 5))
    rows = rng.standard_normal((k, p))
    for row in rows:
        big = int(np.argmax(np.abs(row)))
        small = (big + 1 + int(rng.integers(p - 1))) % p
        border = 1e-12 * abs(row[big])
        for _ in range(int(rng.integers(-2, 3))):
            border = np.nextafter(border, np.inf)
        for _ in range(int(rng.integers(0, 3))):
            border = np.nextafter(border, 0.0)
        row[small] = border * rng.choice([-1.0, 1.0])
    return rows * draw(st.sampled_from([1.0, 3.7, 2.0**-560, 1e-200, 1e-160, 2.0**530]))

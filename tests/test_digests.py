"""Pinned output bytes of tree growth and of the command line.

The inputs are built from integers with correctly rounded float
operations only (no random generator, no libm), so they are the same on
every platform.  Each output is pinned by the sha256 of its bytes: a
change to split search, routing, pruning or the JSON writers that moves
any bit of these outputs fails here, and the pin is updated only on
purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from obliquetree import Dataset, SearchStrategy, grow, save_csv
from obliquetree.tree import to_json
from obliquetree.cli import main


def grid_dataset(n, p):
    """Features on a 1/500 grid in [-1, 1) and a step-plus-product
    response with a periodic integer ripple; ties in both."""
    i = np.arange(n)[:, None]
    j = np.arange(p)[None, :]
    X = ((i * (2 * j + 3) * 7919 + 13 * j) % 1000) / 500.0 - 1.0
    y = (
        (X[:, 0] + 2.0 * X[:, 1 % p] > 0.25).astype(float)
        + X[:, 2 % p] * X[:, 3 % p] / 4.0
        + (np.arange(n) * 37 % 11) / 40.0
    )
    return Dataset(X, y)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


TREES = {
    "axis": (
        (600, 4), SearchStrategy(kind="axis_aligned"), 6,
        "1a8cefdfa6eeee580d936efd5c28ecf48a4a9a9e016204db9b68d1f36739c364",
    ),
    "hill_climb": (
        (400, 4), SearchStrategy(kind="hill_climb", sparsity_d=2, restarts=1, max_iterations=4), 3,
        "2159dbdba5b43e0cb81cdd1b16caa673483d4fe9a645abe3d8581b8294a35c84",
    ),
    "exhaustive": (
        (30, 2), SearchStrategy(kind="exhaustive_oblique", sparsity_d=2), 3,
        "961680cc1c2c444f679e61d9f3a94950b8f4973f00d824981ba590e7234d544a",
    ),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_bytes_are_pinned(name):
    shape, strategy, depth, digest = TREES[name]
    grown = grow(grid_dataset(*shape), strategy, depth)
    assert sha(to_json(grown).encode()) == digest


CLI_DIGESTS = {
    "train": "7a38171d5e88f3d7ff65f8501f36f5bbada46e917b81fb62a68b68fbf56ad067",
    "prune": "c2af0b4af97b9d47ad1d07e9e02508ccf7a6581ec0eb6e81111c8833019759bd",
    "stumps": "f3966062d8a7be4e15177715d9b30d838f2f1dbd209f2ddc9bc517bd66a4bc33",
}

# stumps prints three identity deviations computed through BLAS matrix
# products, whose last bits depend on the BLAS build and the CPU; they
# are checked by size and left out of the pinned bytes.
_BLAS_FIELDS = ("gram_deviation", "impurity_deviation", "impurity_worst_node", "reconstruction_deviation")


def test_cli_bytes_are_pinned(tmp_path):
    csv = str(tmp_path / "grid.csv")
    save_csv(grid_dataset(800, 5), csv)
    tree_json, pruned, expansion = (str(tmp_path / name) for name in ("t.json", "p.json", "s.json"))
    assert main(["train", csv, "--depth", "7", "--out", tree_json]) == 0
    assert main(["prune", tree_json, csv, "--lambda", "0.0005", "--out", pruned]) == 0
    assert main(["stumps", tree_json, csv, "--out", expansion]) == 0
    with open(expansion) as handle:
        payload = json.load(handle)
    assert payload["gram_deviation"] <= 1e-9 and payload["reconstruction_deviation"] <= 1e-9
    assert payload["impurity_deviation"] <= 1e-9
    for field in _BLAS_FIELDS:
        del payload[field]
    got = {
        "train": sha(open(tree_json, "rb").read()),
        "prune": sha(open(pruned, "rb").read()),
        "stumps": sha(json.dumps(payload, sort_keys=True).encode()),
    }
    assert got == CLI_DIGESTS

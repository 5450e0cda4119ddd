"""Pinned output bytes of tree growth, sampling, experiments and the
command line.

The inputs are built from integers with correctly rounded float
operations only (no random generator, no libm), or drawn from the raw
stream of numpy's PCG64 bit generator, whose bits numpy keeps fixed for
a seed on every platform and across versions (the noise of a sample is
Generator.normal's, the one exception).  The
pinned outputs are too: every projection of features onto a direction,
whether a split's or a ridge model's, comes from dataset.projections,
and split directions are canonicalized and node statistics summed, by
elementwise numpy operations with no BLAS call, so neither the OpenBLAS
kernel (OPENBLAS_CORETYPE) nor numpy's SIMD path moves a pinned bit.
The pinned models use linear and relu components, whose values need no
libm call.  Each output is pinned by the sha256 of its bytes: a change
to split search, canonicalization, routing, pruning, sampling or the
JSON writers that moves any bit of these outputs fails here, and the
pin is updated only on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from obliquetree import (
    Dataset,
    Direction,
    ExperimentConfig,
    RidgeComponent,
    RidgeModel,
    SearchStrategy,
    generate_dataset,
    grow,
    run_fast_rate_experiment,
    run_pruning_experiment,
    run_rate_experiment,
    save_csv,
    verify_training_recursion,
)
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


# name: (data shape, strategy, max_depth, min_node_size, sha256 of the tree JSON)
TREES = {
    "axis": (
        (600, 4), SearchStrategy(kind="axis_aligned"), 6, 1,
        "1a8cefdfa6eeee580d936efd5c28ecf48a4a9a9e016204db9b68d1f36739c364",
    ),
    # Deep enough that 19 nodes stay leaves because a child of their best
    # split would hold fewer than 5 rows.
    "axis_min_node_size": (
        (600, 4), SearchStrategy(kind="axis_aligned"), 8, 5,
        "4788f87d4880015db5f267412f4391f5870e9a6a86535cedd66c29283de7cf05",
    ),
    "hill_climb": (
        (400, 4), SearchStrategy(kind="hill_climb", sparsity_d=2, restarts=1, max_iterations=4), 3, 1,
        "2159dbdba5b43e0cb81cdd1b16caa673483d4fe9a645abe3d8581b8294a35c84",
    ),
    # Climbs to supports of 1, 2 and 3 coordinates; a BLAS norm in
    # canonicalization would make these bytes depend on the OpenBLAS kernel.
    "hill_climb_sparsity_3": (
        (600, 5), SearchStrategy(kind="hill_climb", sparsity_d=3, restarts=2, max_iterations=4, seed=1), 3, 1,
        "1e71b206609c4b039c58da886a6dcad09d9a675e7f41f51a6342734046c47d4e",
    ),
    "exhaustive": (
        (30, 2), SearchStrategy(kind="exhaustive_oblique", sparsity_d=2), 3, 1,
        "5e42d848d670f4ff507ccf3b0ba8a6594ada1f1cafba76d94588ab87ab9194d4",
    ),
    "random_projection": (
        (600, 4), SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=30, seed=3), 5, 1,
        "38d65cc150a966948c4b65fd17e08a49b1cb243e5ce5f96e1c31276318385f96",
    ),
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_bytes_are_pinned(name):
    shape, strategy, depth, min_node_size, digest = TREES[name]
    grown = grow(grid_dataset(*shape), strategy, depth, min_node_size)
    assert sha(to_json(grown).encode()) == digest


CLI_DIGESTS = {
    "train": "7a38171d5e88f3d7ff65f8501f36f5bbada46e917b81fb62a68b68fbf56ad067",
    "prune": "c2af0b4af97b9d47ad1d07e9e02508ccf7a6581ec0eb6e81111c8833019759bd",
    "stumps": "9e9a7a81d60b4b21b8f909bc581e17cfad536178020bb6b9b951a7308aee456f",
}

# The Gram and impurity deviations are rounding-level gaps, and the worst
# node the argmax of such gaps: a change to the order of a sum moves their
# last bits, not what they check.  They are checked by size and left out
# of the pinned bytes.
_UNPINNED_FIELDS = ("gram_deviation", "impurity_deviation", "impurity_worst_node")


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
    for field in _UNPINNED_FIELDS:
        del payload[field]
    got = {
        "train": sha(open(tree_json, "rb").read()),
        "prune": sha(open(pruned, "rb").read()),
        "stumps": sha(json.dumps(payload, sort_keys=True).encode()),
    }
    assert got == CLI_DIGESTS


# strategy name: (strategy, min_node_size, sha256 of the report without wall_time_s)
PRUNING_EXPERIMENTS = {
    "axis": (
        SearchStrategy(kind="axis_aligned"), 1,
        "204b1ace786390564cde3d1ae11a5ff2146507d8b9a1a4c5d3b20c360058714e",
    ),
    "random_projection": (
        SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=20, seed=4), 3,
        "1a27adc0212c8a98c732bed4ccd8851cf3a98c4911053473e370714f6e4c6b88",
    ),
}


@pytest.mark.parametrize("name", sorted(PRUNING_EXPERIMENTS))
def test_pruning_experiment_report_is_pinned(name):
    """Holdout errors, selected leaf counts and IMSEs along a grid whose
    values share selected subtrees (and one repeated value)."""
    strategy, min_node_size, digest = PRUNING_EXPERIMENTS[name]
    model = RidgeModel((
        RidgeComponent("relu", Direction((1.0, 0.0)), {"slope": 3.0, "kink": 0.25}),
        RidgeComponent("linear", Direction((0.0, 1.0)), {"slope": -2.0}),
    ))
    config = ExperimentConfig(
        model=model, n=400, noise_std=0.3, seed=11, strategy=strategy, depth_range=(0, 6),
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        lambda_grid=(0.0, 1e-5, 2e-5, 1e-4, 1e-3, 1e-3, 5e-3, 0.02, 0.1, 10.0),
        mc_size=1000, holdout_fraction=0.3, min_node_size=min_node_size,
    )
    report = run_pruning_experiment(config).to_dict()
    del report["wall_time_s"]
    assert sha(json.dumps(report, sort_keys=True).encode()) == digest


def pinned_rate_config():
    """A model whose directions have 3 and 2 nonzero coefficients, so each
    model value sums several products, under the exact oracle."""
    model = RidgeModel((
        RidgeComponent("relu", Direction.canonical([1.0, 2.0, -1.0]), {"slope": 2.0, "kink": 0.1}),
        RidgeComponent("linear", Direction.canonical([0.0, 1.0, 1.0]), {"slope": -1.5}),
    ))
    return ExperimentConfig(
        model=model, n=40, noise_std=0.0, seed=5,
        strategy=SearchStrategy(kind="exhaustive_oblique", sparsity_d=3), depth_range=(0, 4),
        domain_box=((-1.0, 1.0),) * 3, mc_size=500,
    )


def test_ridge_sample_and_rate_report_are_pinned():
    """The pinned config's sample and its rate report (capacity norm,
    exhaustive oblique trees, IMSEs)."""
    config = pinned_rate_config()
    sample = generate_dataset(config.model, config.n, 0.0, config.domain_box, config.seed)
    report = run_rate_experiment(config).to_dict()
    del report["wall_time_s"]
    assert (
        sha(sample.features.tobytes() + sample.response.tobytes()),
        sha(json.dumps(report, sort_keys=True).encode()),
    ) == (
        "2639e646e63202f271b5e104ec4a35ccdaba280ac544c844c612c1bf152f756c",
        "4954938257ee19bd1f8232b99fad05b82546c52c7eebc7b1bde12d8d56322aea",
    )


def test_fast_rate_report_is_pinned():
    """Training errors, leaf norms and balance factors of every depth
    prefix of the pinned config's tree."""
    report = run_fast_rate_experiment(pinned_rate_config()).to_dict()
    del report["wall_time_s"]
    assert (
        sha(json.dumps(report, sort_keys=True).encode())
        == "8e218dc4b9b61cc2b19e2df84f77623c7e4318289c942ea634df1e86844806df"
    )


def test_training_recursion_residuals_are_pinned():
    """The recursion's residuals are rounding-level differences of prefix
    training errors, so they pin every bit of those errors."""
    config = pinned_rate_config()
    sample = generate_dataset(config.model, config.n, 0.0, config.domain_box, config.seed)
    residuals = verify_training_recursion(sample, config.strategy, 4)
    assert (
        sha(np.array(residuals).tobytes())
        == "a472af2b128d1dd6977e68fd50799f55692c449811b71673e9f23c5150c3968a"
    )

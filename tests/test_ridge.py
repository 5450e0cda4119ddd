import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    Direction,
    RidgeComponent,
    RidgeModel,
    SearchStrategy,
    eval_ridge,
    generate_dataset,
    grow,
    l1_tv_norm,
    leaf_additivity_gap_1d,
    node_size_profile,
    node_rows,
    node_tv_profile,
    root_index_set,
    total_variation,
)
from obliquetree.ridge import eval_ridge_batch

AXIS = SearchStrategy(kind="axis_aligned")


def grid_tv(component, lo, hi, points=100_001):
    """Oracle: summed absolute increments over a dense grid."""
    z = np.linspace(lo, hi, points)
    return float(np.sum(np.abs(np.diff(component.profile(z)))))


def e(p, j):
    coeffs = [0.0] * p
    coeffs[j] = 1.0
    return Direction(tuple(coeffs))


def test_eval_ridge_hand_values():
    relu = RidgeModel((RidgeComponent("relu", e(2, 0)),))
    assert eval_ridge(relu, [-2.0, 5.0]) == 0.0
    diag = RidgeModel(
        (RidgeComponent("linear", Direction.canonical([1.0, 1.0]), {"slope": 2.0}),)
    )
    assert eval_ridge(diag, [1.0, 1.0]) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_eval_ridge_dimension_checks():
    model = RidgeModel((RidgeComponent("linear", e(2, 0)),))
    with pytest.raises(ValueError):
        eval_ridge(model, [1.0])
    with pytest.raises(ValueError):
        eval_ridge(model, [])


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_subnormal=False))
_PARAMETERS = {
    "linear": st.fixed_dictionaries({"slope": st.floats(-3.0, 3.0)}),
    "relu": st.fixed_dictionaries({"slope": st.floats(-3.0, 3.0), "kink": st.floats(-1.0, 1.0)}),
    "cubic": st.fixed_dictionaries({c: st.floats(-2.0, 2.0) for c in ("c3", "c2", "c1", "c0")}),
}


@st.composite
def polynomial_models(draw):
    """Linear, relu and cubic components on directions with up to p
    nonzero coefficients; their profiles are elementwise arithmetic."""
    p = draw(st.integers(1, 6))
    components = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_PARAMETERS)))
        coefficients = draw(st.lists(_COEFFICIENT, min_size=p, max_size=p).filter(any))
        components.append(
            RidgeComponent(kind, Direction.canonical(coefficients), draw(_PARAMETERS[kind]))
        )
    return RidgeModel(tuple(components), intercept=draw(st.floats(-2.0, 2.0)))


@settings(max_examples=80, deadline=None)
@given(model=polynomial_models(), seed=st.integers(0, 2**32 - 1))
def test_model_values_do_not_depend_on_the_batch(model, seed):
    # One point's value has the same bits alone (eval_ridge), in any
    # subset of the rows and in chunks, as in the full batch.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 60)), model.p))
    full = eval_ridge_batch(model, X)
    assert np.array([eval_ridge(model, x) for x in X]).tobytes() == full.tobytes()
    for _ in range(3):
        keep = np.flatnonzero(rng.random(X.shape[0]) < rng.random())
        assert eval_ridge_batch(model, X[keep]).tobytes() == full[keep].tobytes()
    for start in range(0, X.shape[0], 7):
        assert eval_ridge_batch(model, X[start:start + 7]).tobytes() == full[start:start + 7].tobytes()


@settings(max_examples=60, deadline=None)
@given(params=_PARAMETERS["cubic"], intercept=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_cubic_values_equal_python_float_arithmetic(params, intercept, seed):
    # Products and sums only, in Python's order of operations, so cubic
    # values have the same bits at every numpy SIMD level (numpy's z**3
    # does not).
    model = RidgeModel((RidgeComponent("cubic", e(1, 0), params),), intercept=intercept)
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, 500)
    q = model.components[0].parameters
    expected = [
        intercept + (q["c3"] * (z * z * z) + q["c2"] * (z * z) + q["c1"] * z + q["c0"])
        for z in x.tolist()
    ]
    assert eval_ridge_batch(model, x[:, None]).tobytes() == np.array(expected).tobytes()


def test_total_variation_hand_values():
    linear = RidgeComponent("linear", e(1, 0), {"slope": 2.0})
    assert total_variation(linear, (0.0, 1.0)) == pytest.approx(2.0, rel=1e-12)
    sine = RidgeComponent("sine", e(1, 0))
    assert total_variation(sine, (0.0, 2 * np.pi)) == pytest.approx(4.0, rel=1e-12)
    relu = RidgeComponent("relu", e(1, 0))
    assert total_variation(relu, (-1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    assert total_variation(relu, (-1.0, -0.5)) == 0.0
    assert total_variation(sine, (0.5, 0.5)) == 0.0


def test_total_variation_validation():
    comp = RidgeComponent("linear", e(1, 0))
    with pytest.raises(ValueError):
        total_variation(comp, (0.0, np.inf))
    with pytest.raises(ValueError):
        total_variation(comp, (1.0, 0.0))


def test_total_variation_matches_grid_oracle():
    rng = np.random.default_rng(5)
    kinds = ["linear", "relu", "sigmoid", "sine", "cubic"]
    for trial in range(40):
        kind = kinds[trial % len(kinds)]
        params = {}
        if kind == "linear":
            params = {"slope": rng.uniform(-3, 3)}
        elif kind == "relu":
            params = {"slope": rng.uniform(-2, 2), "kink": rng.uniform(-1, 1)}
        elif kind == "sigmoid":
            params = {"amplitude": rng.uniform(0.5, 3), "gain": rng.uniform(-4, 4), "center": rng.uniform(-1, 1)}
        elif kind == "sine":
            params = {"amplitude": rng.uniform(0.5, 2), "frequency": rng.uniform(-5, 5), "phase": rng.uniform(0, 6)}
        else:
            params = {"c3": rng.uniform(-1, 1), "c2": rng.uniform(-1, 1), "c1": rng.uniform(-1, 1), "c0": 0.0}
        comp = RidgeComponent(kind, e(1, 0), params)
        lo = rng.uniform(-3, 0)
        hi = lo + rng.uniform(0.1, 5)
        exact = total_variation(comp, (lo, hi))
        approx = grid_tv(comp, lo, hi)
        assert exact == pytest.approx(approx, rel=1e-4, abs=1e-8)
        assert exact >= approx - 1e-8  # grid sums never exceed the variation


def test_l1_tv_norm_additive_over_components():
    # relu(x1) + sine(x2) with hulls [-1, 1] and [0, 2pi]: total 1 + 4.
    X = np.array(
        [[-1.0, 0.0], [1.0, 2 * np.pi], [0.0, np.pi / 2], [0.5, 3.0]]
    )
    data = Dataset(X, np.zeros(4))
    model = RidgeModel(
        (RidgeComponent("relu", e(2, 0)), RidgeComponent("sine", e(2, 1)))
    )
    report = l1_tv_norm(model, data, root_index_set(data))
    assert report.total == pytest.approx(5.0, rel=1e-12)
    assert report.total == pytest.approx(sum(r[2] for r in report.per_component))


def test_l1_tv_norm_singleton_node():
    data = Dataset(np.array([[0.3, 0.4], [1.0, 2.0]]), np.zeros(2))
    model = RidgeModel((RidgeComponent("sine", e(2, 0)),))
    assert l1_tv_norm(model, data, np.array([0])).total == 0.0


@pytest.mark.parametrize("p", [1, 3])
def test_l1_tv_norm_rejects_a_dataset_of_another_dimension(p):
    data = Dataset(np.ones((2, p)), np.zeros(2))
    model = RidgeModel((RidgeComponent("linear", e(2, 0)),))
    with pytest.raises(ValueError, match="model has dimension 2, dataset p="):
        l1_tv_norm(model, data, np.array([0, 1]))


def test_l1_tv_norm_monotone_under_refinement():
    model = RidgeModel(
        (
            RidgeComponent("sine", Direction.canonical([1.0, 0.5]), {"frequency": 3.0}),
            RidgeComponent("relu", e(2, 1)),
        )
    )
    data = generate_dataset(model, 80, 0.0, [(-1, 1), (-1, 1)], seed=3)
    tree = grow(data, AXIS, max_depth=3)
    rows = node_rows(tree, data)
    for nid, node in tree.nodes.items():
        if node.is_leaf:
            continue
        parent = l1_tv_norm(model, data, rows[nid])
        for child in (node.left_child, node.right_child):
            child_report = l1_tv_norm(model, data, rows[child])
            for (c_comp, _, c_tv), (p_comp, _, p_tv) in zip(
                child_report.per_component, parent.per_component
            ):
                assert c_tv <= p_tv + 1e-12


def test_leaf_additivity_1d():
    model = RidgeModel(
        (RidgeComponent("sine", e(1, 0), {"frequency": 4.0, "amplitude": 1.5}),),
        intercept=0.3,
    )
    data = generate_dataset(model, 64, 0.0, [(-2, 2)], seed=11)
    for depth in (1, 2, 4):
        tree = grow(data, AXIS, max_depth=depth)
        assert leaf_additivity_gap_1d(model, tree, data) <= 1e-9


def test_node_tv_profile_power_sum_bound_1d():
    model = RidgeModel((RidgeComponent("cubic", e(1, 0), {"c3": 0.5, "c1": -1.0}),))
    data = generate_dataset(model, 50, 0.0, [(-2, 2)], seed=21)
    tree = grow(data, AXIS, max_depth=3)
    root_norm = l1_tv_norm(model, data, root_index_set(data)).total
    for q in (1.0, 2.0, 3.5):
        per_leaf, power_sum = node_tv_profile(model, tree, data, q)
        assert power_sum <= root_norm**q + 1e-9
        assert all(v >= 0 for v in per_leaf)


def test_node_tv_profile_root_only():
    model = RidgeModel((RidgeComponent("linear", e(1, 0)),))
    data = generate_dataset(model, 10, 0.0, [(0, 1)], seed=1)
    tree = grow(data, AXIS, max_depth=0)
    per_leaf, power_sum = node_tv_profile(model, tree, data, 2.0)
    root_norm = l1_tv_norm(model, data, root_index_set(data)).total
    assert per_leaf == [pytest.approx(root_norm)]
    assert power_sum == pytest.approx(root_norm**2)


def test_generate_dataset_noiseless_and_deterministic():
    model = RidgeModel(
        (RidgeComponent("sigmoid", Direction.canonical([2.0, -1.0]), {"gain": 3.0}),),
        intercept=-1.0,
    )
    a = generate_dataset(model, 30, 0.0, [(0, 1), (0, 1)], seed=9)
    b = generate_dataset(model, 30, 0.0, [(0, 1), (0, 1)], seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.response, b.response)
    assert np.array_equal(a.response, eval_ridge_batch(model, a.features))


def test_generate_dataset_noise_variance():
    model = RidgeModel((RidgeComponent("linear", e(1, 0)),))
    data = generate_dataset(model, 10_000, 0.1, [(0, 1)], seed=13)
    resid = data.response - eval_ridge_batch(model, data.features)
    assert float(np.var(resid)) == pytest.approx(0.01, rel=0.1)


def test_generate_dataset_validation():
    model = RidgeModel((RidgeComponent("linear", e(2, 0)),))
    with pytest.raises(ValueError):
        generate_dataset(model, 0, 0.0, [(0, 1), (0, 1)], seed=0)
    with pytest.raises(ValueError):
        generate_dataset(model, 5, 0.0, [(0, 1)], seed=0)
    with pytest.raises(ValueError):
        generate_dataset(model, 5, 0.0, [(1, 0), (0, 1)], seed=0)
    # Each side is finite, but hi - lo overflows: numpy's uniform raised
    # an OverflowError, which the command line did not catch.
    with pytest.raises(ValueError, match="invalid domain box"):
        generate_dataset(model, 5, 0.0, [(-1e308, 1e308), (0, 1)], seed=0)


def test_node_size_profile_hand_cases():
    # Perfectly balanced depth-2 tree on 8 points.
    x = np.arange(8.0).reshape(-1, 1)
    y = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    tree = grow(Dataset(x, y), AXIS, max_depth=2)
    max_size, factor = node_size_profile(tree)
    assert (max_size, factor) == (2, 1.0)
    root_only = grow(Dataset(x, y), AXIS, max_depth=0)
    assert node_size_profile(root_only) == (8, 1.0)


def test_model_json_round_trip():
    model = RidgeModel(
        (
            RidgeComponent("sine", Direction.canonical([1.0, 2.0]), {"frequency": 2.5}),
            RidgeComponent("relu", e(2, 1), {"slope": -1.0, "kink": 0.2}),
        ),
        intercept=0.7,
    )
    back = RidgeModel.from_json(model.to_json())
    assert back == model


def test_component_validation():
    with pytest.raises(ValueError):
        RidgeComponent("step", e(1, 0))
    with pytest.raises(ValueError):
        RidgeComponent("sine", e(1, 0), {"wavelength": 2.0})
    with pytest.raises(ValueError):
        RidgeComponent("linear", e(1, 0), {"slope": np.inf})

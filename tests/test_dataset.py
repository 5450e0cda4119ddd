import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliquetree import (
    CsvFormatError,
    Dataset,
    Direction,
    axis_direction,
    load_csv,
    node_stats,
    project,
    root_index_set,
    save_csv,
)
from obliquetree.dataset import projections

from conftest import SNAP_BORDER_VECTOR, random_dataset, reference_projections, snap_border_rows


def test_load_csv_readback(tmp_path):
    path = tmp_path / "step.csv"
    path.write_text("x,y\n1,0\n2,0\n3,1\n4,1\n")
    data = load_csv(path, "y")
    assert data.n == 4 and data.p == 1
    assert np.array_equal(data.features[:, 0], [1, 2, 3, 4])
    assert np.array_equal(data.response, [0, 0, 1, 1])


def test_load_csv_response_by_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    data = load_csv(path, 1)
    assert np.array_equal(data.response, [2, 5])
    assert np.array_equal(data.features, [[1, 3], [4, 6]])


def test_load_csv_nan_cell_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,0\nnan,1\n")
    with pytest.raises(CsvFormatError, match="row 3.*'x'"):
        load_csv(path, "y")


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,0\noops,1\n")
    with pytest.raises(CsvFormatError, match="row 3.*non-numeric"):
        load_csv(path, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(CsvFormatError, match="no such file"):
        load_csv(tmp_path / "absent.csv", "y")


def test_load_csv_empty_and_missing_response(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(empty, "y")
    noresp = tmp_path / "noresp.csv"
    noresp.write_text("a,b\n1,2\n")
    with pytest.raises(CsvFormatError, match="'z' not in header"):
        load_csv(noresp, "z")


def test_csv_round_trip_bit_exact(tmp_path):
    # Round-trip oracle: write a synthetic 100x5 file, reload, compare.
    rng = np.random.default_rng(7)
    data = Dataset(rng.standard_normal((100, 5)), rng.standard_normal(100))
    path = tmp_path / "round.csv"
    save_csv(data, path)
    back = load_csv(path, "y")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.response, data.response)
    # And a second save produces identical bytes.
    path2 = tmp_path / "round2.csv"
    save_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0.0]))


def test_project_identity_1d(d1):
    values, idx = project(d1, root_index_set(d1), axis_direction(1, 0))
    assert np.array_equal(values, [1, 2, 3, 4])
    assert np.array_equal(idx, [0, 1, 2, 3])


def test_project_hand_oblique():
    data = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    direction = Direction.canonical([1.0, 1.0])
    values, idx = project(data, root_index_set(data), direction)
    assert values == pytest.approx([0.0, np.sqrt(2.0)])
    assert np.array_equal(idx, [0, 1])


def test_project_matches_naive_sort():
    # Oracle: per-point Python sums sorted by (value, index).
    data = random_dataset(11, 20, 3)
    rng = np.random.default_rng(12)
    direction = Direction.canonical(rng.standard_normal(3))
    node = np.arange(20)
    values, idx = project(data, node, direction)
    naive = sorted(
        zip(reference_projections(data.features, direction.coefficients).tolist(), node),
    )
    assert np.array_equal(idx, [i for _, i in naive])
    assert np.all(np.diff(values) >= 0)
    assert sorted(idx.tolist()) == node.tolist()


def test_project_tie_break_by_index():
    data = Dataset(np.array([[1.0], [0.0], [1.0]]), np.array([0.0, 1.0, 2.0]))
    values, idx = project(data, np.array([0, 1, 2]), axis_direction(1, 0))
    assert np.array_equal(idx, [1, 0, 2])


def test_node_stats_hand_values(d1):
    assert node_stats(d1, root_index_set(d1)) == (0.5, 1.0)
    single = Dataset(np.array([[0.0]]), np.array([7.0]))
    assert node_stats(single, np.array([0])) == (7.0, 0.0)
    const = Dataset(np.zeros((3, 1)), np.array([3.0, 3.0, 3.0]))
    assert node_stats(const, np.arange(3)) == (3.0, 0.0)


def test_node_stats_two_pass_vs_one_pass():
    for seed in range(5):
        data = random_dataset(seed, 60, 2, y_scale=5.0)
        node = np.arange(60)
        mean, sse = node_stats(data, node)
        y = data.response
        one_pass = float(np.sum(y**2) - 60 * mean**2)
        assert sse == pytest.approx(one_pass, rel=1e-10)


def test_node_stats_empty_node_rejected(d1):
    with pytest.raises(ValueError):
        node_stats(d1, np.array([], dtype=np.int64))


def test_direction_canonical_idempotent_and_sign():
    rng = np.random.default_rng(21)
    for _ in range(50):
        vec = rng.standard_normal(4) * rng.uniform(0.1, 10)
        d = Direction.canonical(vec)
        assert Direction.canonical(d.coefficients) == d
        assert Direction.canonical(-vec) == d
        arr = d.as_array()
        assert np.linalg.norm(arr) == pytest.approx(1.0, abs=1e-12)
        assert arr[np.nonzero(arr)[0][0]] > 0


def coefficient_bits(direction):
    return [c.hex() for c in direction.coefficients]


@settings(max_examples=150, deadline=None)
@given(rows=snap_border_rows())
@example(rows=np.array([SNAP_BORDER_VECTOR]))
def test_direction_canonical_is_idempotent_to_the_bit(rows):
    # A coefficient on the snap border can cross it when the vector is
    # divided by its norm; canonicalizing the result again must change
    # no bit, as tree.from_dict checks stored directions that way.
    for row in rows:
        direction = Direction.canonical(row)
        assert coefficient_bits(Direction.canonical(direction.coefficients)) == coefficient_bits(direction)
        assert coefficient_bits(Direction.canonical(-row)) == coefficient_bits(direction)


def test_direction_support_size():
    d = Direction.canonical([0.0, 3.0, 0.0, -4.0])
    assert d.support_size == 2
    with pytest.raises(ValueError):
        Direction.canonical([0.0, 0.0])


def test_direction_canonical_at_extreme_scales_and_signed_zeros():
    # Squares that overflow or underflow still give the unit vector, and a
    # sign flip writes no -0.0 (tree JSON would print it).
    unit = Direction.canonical([1.0, -1.0])
    for scale in (1e200, 1e-200, 1e-310):
        assert Direction.canonical([scale, -scale]) == unit
    d = Direction.canonical([0.0, -2.0, 0.0])
    assert d.coefficients == (0.0, 1.0, 0.0)
    assert not any(np.signbit(d.coefficients))


@st.composite
def projection_cases(draw):
    """(X, W): m rows and k directions with k and m on both sides of the
    kernel's layout switch, integer-grid or continuous features of mixed
    magnitude, and directions of mixed support size (an all-zero one
    included at times)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, 40))
    p = draw(st.integers(1, 6))
    if draw(st.booleans()):
        X = rng.integers(-4, 5, size=(m, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(m, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    W = np.zeros((k, p))
    smallest = 0 if draw(st.booleans()) else 1
    for row in W:
        support = rng.choice(p, size=int(rng.integers(smallest, p + 1)), replace=False)
        row[support] = rng.standard_normal(support.size)
    return X, W


@settings(max_examples=150, deadline=None)
@given(case=projection_cases())
def test_projections_equal_per_point_python_sums(case):
    X, W = case
    got = projections(X, W)
    assert got.shape == (W.shape[0], X.shape[0])
    for j, w in enumerate(W):
        # Compared as floats: the sign of a zero is not pinned.
        assert np.array_equal(got[j], reference_projections(X, w))


@settings(max_examples=150, deadline=None)
@given(case=projection_cases(), data=st.data())
def test_projections_do_not_depend_on_the_batch(case, data):
    X, W = case
    full = projections(X, W)
    rows = np.sort(data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1, unique=True)))
    dirs = np.sort(data.draw(st.lists(st.integers(0, W.shape[0] - 1), min_size=1, unique=True)))
    assert projections(X[rows], W[dirs]).tobytes() == full[np.ix_(dirs, rows)].tobytes()
    assert projections(np.asfortranarray(X), W).tobytes() == full.tobytes()
    # One row against k >= 1 directions takes the block layout when
    # k > 1, one direction against m >= 1 rows the column layout: both
    # layouts give every value bit for bit.
    for i in range(X.shape[0]):
        assert projections(X[i : i + 1], W).tobytes() == full[:, i : i + 1].tobytes()
    for j in range(W.shape[0]):
        assert projections(X, W[j : j + 1]).tobytes() == full[j : j + 1].tobytes()


@settings(max_examples=150, deadline=None)
@given(case=projection_cases(), data=st.data())
def test_row_indexed_projections_equal_the_gathered_block(case, data):
    # projections(X, W, rows) gathers only the support columns of the
    # rows, in any order and with repeats; the bytes are those of the
    # gathered block and of the per-point sums.
    X, W = case
    rows = np.array(
        data.draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1, max_size=60)),
        dtype=np.int64,
    )
    got = projections(X, W, rows)
    assert got.tobytes() == projections(X[rows], W).tobytes()
    assert projections(np.asfortranarray(X), W, rows).tobytes() == got.tobytes()
    for j, w in enumerate(W):
        assert got[j].tobytes() == reference_projections(X[rows], w).tobytes()

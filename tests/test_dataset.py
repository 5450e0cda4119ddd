import csv
import math
import os
import re
import tempfile

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
from obliquetree import dataset as dataset_module
from obliquetree.dataset import projections
from obliquetree.splitting import _Node, _sse

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


def test_save_csv_writes_the_repr_of_every_cell(tmp_path):
    """The bytes of a per-cell repr() writer: signed zeros, subnormals,
    values near the float limits, integral floats and values that need
    17 significant digits."""
    rng = np.random.default_rng(9)
    edge = [-0.0, 0.0, 1e-310, -5e-324, 1e300, -1.7976931348623157e308, 1.0, -3.0, 2.0**53,
            0.1 + 0.2, 1 / 3, 2.0 / 7.0 * 1e-5]
    values = np.where(rng.random((60, 4)) < 0.7, rng.choice(edge, (60, 4)),
                      rng.standard_normal((60, 4)) * 10.0 ** rng.integers(-20, 20, (60, 4)))
    data = Dataset(values[:, :3], values[:, 3])
    path = tmp_path / "edge.csv"
    save_csv(data, path)
    lines = ["x1,x2,x3,y"] + [
        ",".join([repr(float(v)) for v in data.features[i]] + [repr(float(data.response[i]))])
        for i in range(data.n)
    ]
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def test_plain_csv_is_parsed_in_bulk(tmp_path, monkeypatch):
    """save_csv writes CRLF line ends; that file, its LF copy, a copy
    with a space after each comma and a copy with every cell quoted give
    the same bits, and none of them reaches the per-cell loop."""
    rng = np.random.default_rng(8)
    data = Dataset(rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3)),
                   rng.standard_normal(50))
    crlf = tmp_path / "crlf.csv"
    save_csv(data, crlf)
    text = crlf.read_bytes()
    assert b"\r\n" in text
    lf, spaced, quoted = tmp_path / "lf.csv", tmp_path / "spaced.csv", tmp_path / "quoted.csv"
    lf.write_bytes(text.replace(b"\r\n", b"\n"))
    spaced.write_bytes(text.replace(b",", b", "))
    quoted.write_bytes(re.sub(rb"[^,\r\n]+", rb'"\g<0>"', text))
    assert quoted.read_bytes().startswith(b'"x1","x2","x3","y"\r\n"')

    def per_cell(*args):
        raise AssertionError("a valid file reached the per-cell loop")

    monkeypatch.setattr(dataset_module, "_parse_records", per_cell)
    for path, response in ((crlf, "y"), (lf, 3), (spaced, "y"), (quoted, "y")):
        back = load_csv(path, response)
        assert back.features.tobytes() == data.features.tobytes()
        assert back.response.tobytes() == data.response.tobytes()


def _load_csv_rows(path, response_column) -> Dataset:
    """Reference for load_csv: every cell through float(), one at a
    time, with a CsvFormatError naming the first offending row, column
    or cell."""
    try:
        handle = open(path, "r", newline="")
    except FileNotFoundError:
        raise CsvFormatError(f"no such file: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if isinstance(response_column, int):
            if not 0 <= response_column < len(header):
                raise CsvFormatError(
                    f"{path}: response column index {response_column} out of range"
                )
            resp_pos = response_column
        else:
            if response_column not in header:
                raise CsvFormatError(
                    f"{path}: response column {response_column!r} not in header {header}"
                )
            resp_pos = header.index(response_column)
        feat_rows = []
        resp_vals = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {lineno}, column {header[col]!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{path}: row {lineno}, column {header[col]!r}: "
                        f"non-finite cell {cell!r}"
                    )
                parsed.append(value)
            resp_vals.append(parsed[resp_pos])
            feat_rows.append([v for c, v in enumerate(parsed) if c != resp_pos])
        if not feat_rows:
            raise CsvFormatError(f"{path}: no data rows")
        if len(header) < 2:
            raise CsvFormatError(f"{path}: need at least one feature column")
    return Dataset(np.asarray(feat_rows), np.asarray(resp_vals))


_CSV_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.from_regex(r"[+-]?[0-9]{0,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{0,3})?", fullmatch=True),
    st.sampled_from(["", " 1.5", "2 ", '"3"', "1_000", "inf", "-inf", "nan", "1e999", "x", " "]),
)


@st.composite
def csv_texts(draw):
    """(file text, response column): a header and rows with LF, CRLF or
    CR line ends, blank and whitespace-only lines, spaces, quotes, '_',
    inf/nan and ragged rows; plain files (digits, signs, points,
    exponents, commas, LF or CRLF) are drawn often."""
    plain = draw(st.booleans())
    width = draw(st.integers(1, 4))
    names = ["x", "y", "z", "w"] if plain else ["x", "y", "z", " y", "a b", '"y"', '"a,b"', "y_1", ""]
    header = draw(st.lists(st.sampled_from(names), min_size=width, max_size=width))
    cell = st.floats(allow_nan=False, allow_infinity=False).map(repr) if plain else _CSV_CELLS
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"] + ([] if plain else ["space"])))
        if kind == "row" or kind == "ragged":
            size = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
            lines.append(",".join(draw(st.lists(cell, min_size=size, max_size=size))))
        else:
            lines.append("" if kind == "blank" else "  ")
    ends = ["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"]
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if plain:
        response = draw(st.one_of(st.sampled_from(header), st.integers(0, width - 1)))
    else:
        response = draw(st.one_of(st.sampled_from(["y", "x", "w"]), st.integers(-1, width)))
    return text, response


def _csv_outcome(load, path, response):
    try:
        data = load(path, response)
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return data.features.shape, data.features.tobytes(), data.response.tobytes()


@settings(max_examples=300, deadline=None)
@given(file=csv_texts())
@example(file=("x,y\r\n1,2\r\n\r\n3,4\r\n", "y"))
@example(file=("x,y\n1,2\n3,4", 0))
@example(file=("x,y\n1,2\n3,1e999\n", "y"))
@example(file=("x,y\n1,2\n3\n", "y"))
@example(file=("x,y\n1, 2\n", "y"))
@example(file=("x,y\n1\r,2\n", "y"))
@example(file=('"a,b",y\n1,2,3\n', 1))
@example(file=('x,y\n"1.5",2\n', "y"))
@example(file=("x,y\n1,2\n  \n3,4\n", "y"))
@example(file=("x,y\n1_000,2\n", "y"))
@example(file=("x\n1\n  \n", "x"))
@example(file=("\nx,y\n1,2\n", 0))
@example(file=("x,y\n1,2\x00\n", "y"))
def test_bulk_csv_parse_matches_the_row_loop(file):
    """load_csv, whether or not its bulk conversion succeeds, gives the
    per-cell reference loop's bits or its error message."""
    text, response = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as handle:
            handle.write(text)
        assert _csv_outcome(load_csv, path, response) == _csv_outcome(_load_csv_rows, path, response)


@pytest.mark.parametrize(
    "text, line",
    [("x,y\n1,2\n" + "1" * 200_000 + ",2\n", 3), ("x" * 200_000 + ",y\n1,2\n", 1)],
    ids=["body", "header"],
)
def test_csv_module_errors_name_the_file_and_line(tmp_path, text, line):
    """A record the csv module cannot read, here a finite cell over its
    field size limit, is a CsvFormatError naming the file and line; the
    reference loop lets the csv module's own error escape."""
    path = tmp_path / "big.csv"
    path.write_text(text)
    with pytest.raises(csv.Error):
        _load_csv_rows(path, 1)
    with pytest.raises(CsvFormatError) as caught:
        load_csv(path, 1)
    assert str(caught.value) == f"{path}: line {line}: field larger than field limit (131072)"


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


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
    offset=st.sampled_from([0.0, -3.5, 1e6, 1e9, 1e15]),
)
def test_node_stats_match_the_search_node_bit_for_bit(seed, n, scale, offset):
    # One formula for a node's statistics: node_stats, split search's
    # node record and its SSE all give the bits of the two-pass
    # mean-then-deviations formula, on the root and on a subset.
    rng = np.random.default_rng(seed)
    data = Dataset(rng.uniform(-1.0, 1.0, size=(n, 2)), scale * rng.standard_normal(n) + offset)
    for node in (root_index_set(data), np.flatnonzero(rng.random(n) < 0.5)):
        if node.size == 0:
            continue
        y = data.response[node]
        mean = float(y.mean())
        want = (mean.hex(), float(np.sum((y - mean) ** 2)).hex())
        sample = _Node.of(data, node)
        assert tuple(v.hex() for v in node_stats(data, node)) == want
        assert (sample.mean.hex(), sample.sse.hex(), _sse(y).hex()) == (*want, want[1])
        assert sample.centred.tobytes() == (y - mean).tobytes()


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


def test_seeded_words_are_pcg64_raw_stream_pinned():
    # numpy promises PCG64's raw stream for a fixed seed across versions;
    # every seeded draw of the library reads it, so its first words are
    # pinned, and the bit generator comes back past the words it gave.
    words, bits = dataset_module._seeded_words(0, (2, 2))
    assert words.dtype == np.uint64 and words.shape == (2, 2)
    assert [hex(int(w)) for w in words.ravel()] + [hex(int(bits.random_raw()))] == [
        "0xa30febcfd9c2825f", "0x4510bdf882d9d721", "0xa7d3da94ecde8b8",
        "0x43b27b61342f01d", "0xd0327a782cde513b",
    ]


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_seeded_words_reject_a_negative_seed_by_name(seed):
    with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"):
        dataset_module._seeded_words(seed, 3)

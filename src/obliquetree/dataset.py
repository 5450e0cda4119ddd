"""Observation storage, CSV ingestion, JSON reading and writing, index
sets, evaluation points, seeded draws, and projections.

A Dataset is an immutable row-major (n, p) matrix of n observations in
p dimensions plus a response vector.  Split search and node statistics
take a node's rows as an index set (a strictly increasing integer array
into the dataset), so the data itself is never copied while a tree is
grown.  A tree stores no index sets: its splits fix the rows reaching
each node (tree.node_rows).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

# Relative magnitude below which a direction coefficient is snapped to
# exactly zero during canonicalization, so that support sizes are not
# inflated by floating-point dust from cross products.
_COEFF_SNAP = 1e-12

# A direction whose norm falls outside this range is divided by its peak
# magnitude before it is normalized: its squares would lose bits to
# underflow or overflow.
_SAFE_NORMS = (2.0**-500, 2.0**500)


class CsvFormatError(ValueError):
    """Raised when a CSV file cannot be parsed into a Dataset."""


def _named(name: str, convert, value):
    """convert(value), with a TypeError or ValueError from a malformed
    value re-raised as a ValueError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _json_text(payload) -> str:
    """The library's one JSON text format: two-space indent, sorted keys."""
    return json.dumps(payload, indent=2, sort_keys=True)


class _FieldError(ValueError):
    """A JSON field that could not be read, already named."""


_NO_FIELDS = MappingProxyType({})


def _record(what, data, readers, optional=_NO_FIELDS) -> dict:
    """The library's one JSON reader: {key: reader(value)} for the keys of
    one JSON object.  Each key of `readers` must be present, a key of
    `optional` may be (the constructor then fills in its default), and
    no other may, so a misspelt key is not ignored.  A failure is one
    ValueError naming the record (`what`, or what(data) if callable) and
    the key; an enclosing record adds only its own name.  An object with
    just the keys of `readers` is read in one pass, and key by key only
    if that fails, to name the fault."""
    if type(data) is dict and data.keys() == readers.keys():
        try:
            return {key: read(data[key]) for key, read in readers.items()}
        except (TypeError, ValueError):
            pass
    name = what(data) if callable(what) else what
    if type(data) is not dict:
        raise _FieldError(f"{name} must be a JSON object, got {data!r}")
    record = {}
    for key, value in data.items():
        read = readers.get(key) or optional.get(key)
        if read is None:
            raise _FieldError(f"{name} has unknown key {key!r}")
        try:
            record[key] = read(value)
        except _FieldError as exc:
            raise _FieldError(f"{name} {exc}") from None
        except (TypeError, ValueError) as exc:
            raise _FieldError(f"{name} {key}: {exc}") from None
    missing = [key for key in readers if key not in record]
    if missing:
        raise _FieldError(f"{name} has no {missing[0]!r}")
    return record


def _integer(value) -> int:
    """A JSON integer: not a bool, a float or a string."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A finite real number, as a float: not a bool or a string.  JSON
    gives an int or a float, Python also a numpy scalar."""
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the floats
            pass
    raise ValueError(f"expected a finite number, got {value!r}")


def _as_is(value):
    """The reader of a field that its constructor checks."""
    return value


def _list(reader, size=None):
    """The reader of a JSON list (from Python, also a tuple or an array)
    whose items `reader` reads, giving a tuple; with `size`, of exactly
    that many."""
    def read(value) -> tuple:
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ValueError(f"expected a list, got {value!r}")
        if size is not None and len(value) != size:
            raise ValueError(f"expected {size} items, got {value!r}")
        return tuple(map(reader, value))

    return read


_reals = _list(_real)


def _points(X, p: int, one: bool = False) -> np.ndarray:
    """The one check of the points a tree, stump expansion or ridge model
    is evaluated at: X as a float64 (m, p) matrix, or with `one`, a 1-D
    length-p vector as a (1, p) matrix.  A wrong number of dimensions, a
    wrong width and a non-finite coordinate each raise one ValueError."""
    X = np.asarray(X, dtype=np.float64)
    dims = 1 if one else 2
    if X.ndim != dims:
        raise ValueError(f"points must be a {dims}-D array, got {X.ndim}-D")
    if X.shape[-1] != p:
        raise ValueError(f"points must have {p} coordinates, got {X.shape[-1]}")
    if not np.isfinite(X).all():
        raise ValueError("points must have finite coordinates")
    return X[None, :] if one else X


def _seeded_words(seed: int, shape):
    """The library's one source of randomness: the first words of
    PCG64(seed)'s raw stream, a uint64 array of the given shape, and the
    bit generator past them.  numpy promises that a fixed seed always
    gives PCG64 the same raw stream; it makes no such promise for the
    methods of Generator.  A negative seed raises one ValueError that
    names it."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    bits = np.random.PCG64(seed)
    return bits.random_raw(shape), bits


@dataclass(frozen=True)
class Dataset:
    """n observations in p dimensions with a real response per row.

    Both arrays are float64, C-contiguous, and marked read-only: a
    Dataset is safe to share across worker threads or processes.
    """

    features: np.ndarray
    response: np.ndarray
    n: int = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        resp = np.ascontiguousarray(self.response, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if resp.ndim != 1:
            raise ValueError("response must be a 1-D vector")
        n, p = feats.shape
        if n < 1 or p < 1:
            raise ValueError("need at least one row and one column")
        if resp.shape[0] != n:
            raise ValueError(
                f"response length {resp.shape[0]} != feature rows {n}"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isfinite(resp)):
            raise ValueError("response contains non-finite entries")
        feats.setflags(write=False)
        resp.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "response", resp)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Direction:
    """Canonical direction vector for an oblique split.

    Canonical form: unit Euclidean norm with the first nonzero
    coefficient strictly positive, so a hyperplane has exactly one
    representation and tie-breaking between splits is well defined.
    Coefficients are stored as a tuple, which gives exact equality,
    hashing, and lexicographic comparison for free.  support_size, the
    number of nonzero coefficients, is counted once at construction; it
    is not a field, so equality, hashing and repr see only the
    coefficients.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        support = len(self.coefficients) - self.coefficients.count(0.0)
        object.__setattr__(self, "support_size", support)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.float64)

    @staticmethod
    def canonical(vector) -> "Direction":
        arr = np.array(vector, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("direction must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise ValueError("direction has non-finite coefficients")
        if not arr.any():
            raise ValueError("direction must be nonzero")
        return Direction(tuple(canonical_rows(arr[None])[0].tolist()))


def _snap(arr: np.ndarray) -> np.ndarray:
    """arr with every coefficient of magnitude <= _COEFF_SNAP times its
    row's peak written as +0.0."""
    size = np.abs(arr)
    return np.where(size <= _COEFF_SNAP * size.max(axis=1, keepdims=True), 0.0, arr)


def _norms(arr: np.ndarray) -> np.ndarray:
    """Row norms by numpy's elementwise sum, with no BLAS call."""
    return np.sqrt(np.add.reduce(arr * arr, axis=1))


def canonical_rows(raw) -> np.ndarray:
    """The canonical form of each row of a k x p matrix of nonzero finite
    direction rows, the library's one canonicalization formula.

    A row is snapped (_snap); if its norm is outside _SAFE_NORMS, it is
    divided by its peak and snapped; unless its norm is within 1e-12 of
    1, it is divided by it and snapped; and its first nonzero is made
    positive, with zeros written as +0.0.  Each step is elementwise
    within a row, so a row's bits do not depend on the batch or the BLAS
    build, and the output rows are fixpoints.
    """
    arr = _snap(np.asarray(raw, dtype=np.float64))
    with np.errstate(over="ignore", under="ignore"):
        norms = _norms(arr)
        odd = ~((_SAFE_NORMS[0] < norms) & (norms < _SAFE_NORMS[1]))
        if odd.any():
            arr[odd] = _snap(arr[odd] / np.abs(arr[odd]).max(axis=1, keepdims=True))
            norms[odd] = _norms(arr[odd])
    norms = norms[:, None]
    arr = np.where(np.abs(norms - 1.0) > 1e-12, _snap(arr / norms), arr)
    first = arr[np.arange(arr.shape[0]), np.argmax(arr != 0.0, axis=1)]
    return np.where(first[:, None] < 0.0, -arr, arr) + 0.0  # -0.0 + 0.0 is +0.0


def axis_direction(p: int, coordinate: int) -> Direction:
    """Standard basis vector e_coordinate in p dimensions."""
    if not 0 <= coordinate < p:
        raise ValueError(f"coordinate {coordinate} out of range for p={p}")
    coeffs = [0.0] * p
    coeffs[coordinate] = 1.0
    return Direction(tuple(coeffs))


def validate_index_set(indices, n: int) -> np.ndarray:
    """Check that `indices` is a non-empty strictly increasing index set."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be non-empty and 1-D")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError("index out of range")
    if idx.size > 1 and not np.all(np.diff(idx) > 0):
        raise ValueError("indices must be strictly increasing and unique")
    return idx


def root_index_set(dataset: Dataset) -> np.ndarray:
    return np.arange(dataset.n, dtype=np.int64)


def subset(dataset: Dataset, rows) -> Dataset:
    """New Dataset holding only the given rows (row order preserved)."""
    idx = validate_index_set(np.sort(np.asarray(rows, dtype=np.int64)), dataset.n)
    return Dataset(dataset.features[idx], dataset.response[idx])


def projections(X: np.ndarray, W: np.ndarray, rows=None) -> np.ndarray:
    """The k x m block of projections of X's m rows onto W's k rows.

    Entry (j, i) is the sum of W[j, c] * X[i, c] over the direction's
    support (its nonzero coefficients), added one term at a time in
    ascending c to a total that starts at +0.0.  Every product and every
    sum is one elementwise numpy operation, so each value depends only
    on its own point and direction: not on the other rows or directions,
    the batch size or the BLAS build.  This is the only place where the
    library multiplies features by a direction, a split's or a ridge
    model's; the stump Gram matrix (stumps.verify_orthonormality) is the
    library's one BLAS product.

    With an index array `rows`, the m = len(rows) points X[rows] are
    projected, but only the support columns X[rows, c] are gathered, not
    every column of every row; the values are those of
    projections(X[rows], W), bit for bit.

    A k x m index matrix `rows` gives each direction its own points:
    entry (j, i) projects X[rows[j, i]] onto W[j], with the same bits as
    projections(X[rows[j]], W[j:j + 1]).  Each coefficient column is
    added only to the directions that use it.

    Few directions over many rows are summed direction by direction,
    column by column; a Fortran-ordered X makes those columns
    contiguous, and `rows` of one are then gathered from the column as
    a 1-D array, at about half the cost of the two-index gather (0.13
    against 0.27 ms for 100,000 of 200,000 rows).  So tree.route and
    ridge.eval_ridge_batch pass a large row-major batch as a
    column-major copy of the columns they use (tree._column_major).
    Only where X's values are stored, and how they are fetched, changes,
    so the values keep their bits; columns outside every support are
    never read.  Many directions over few rows (k > m), and an index
    matrix, are summed over the union of the supports: a zero
    coefficient adds a zero, which changes no value.
    """
    def column(c):
        if rows is None:
            return X[:, c]
        return X[:, c].take(rows) if X.flags.f_contiguous else X[rows, c]

    k, m = W.shape[0], X.shape[0] if rows is None else len(rows)
    if rows is not None and rows.ndim == 2:
        block = np.zeros(rows.shape)
        for c in np.flatnonzero(W.any(axis=0)).tolist():
            hit = np.flatnonzero(W[:, c])
            block[hit] += W[hit, c, None] * X[:, c][rows[hit]]
        return block
    if k > m:
        by_coordinate = W.T.copy()
        block = np.zeros((m, k))
        term = np.empty((m, k))
        for c in np.flatnonzero(by_coordinate.any(axis=1)).tolist():
            np.multiply(column(c)[:, None], by_coordinate[c], out=term)
            block += term
        return block.T.copy()
    out = np.zeros((k, m))
    for row, w in zip(out, W.tolist()):
        for c, coef in enumerate(w):
            if coef:
                row += column(c) * coef
    return out


def project(dataset: Dataset, node, direction: Direction):
    """Project the node's points onto a direction, sorted ascending.

    Returns (values, indices): projection values in non-decreasing order
    and the matching observation indices.  Ties in value are broken by
    ascending observation index, so the output is a deterministic
    permutation of the node.
    """
    idx = validate_index_set(node, dataset.n)
    coeffs = direction.as_array()
    if coeffs.shape[0] != dataset.p:
        raise ValueError(f"direction has {coeffs.shape[0]} coefficients, p={dataset.p}")
    (values,) = projections(dataset.features, coeffs[None, :], idx)
    # lexsort uses the last key as primary: sort by value, then index.
    order = np.lexsort((idx, values))
    return values[order], idx[order]


def node_stats(dataset: Dataset, node) -> tuple[float, float]:
    """Mean response and sum of squared deviations over a node.

    Uses the two-pass mean-then-deviations formula for numerical
    robustness; the compensated one-pass form Sum(y^2) - n*mean^2 is the
    cross-check used in tests.
    """
    idx = validate_index_set(node, dataset.n)
    mean, _, sse = _moments(dataset.response[idx])
    return mean, sse


def _moments(y: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(mean, y - mean, sum of squares of y - mean) of a non-empty y: the
    one formula for node statistics, so node_stats and split search give
    a node's mean and SSE the same bits."""
    mean = float(np.add.reduce(y) / y.size)
    centred = y - mean
    return mean, centred, float(np.add.reduce(centred * centred))


def load_csv(path, response_column) -> Dataset:
    """Load a comma-separated file into a Dataset.

    The file is read as UTF-8; a byte that is not UTF-8 is reported
    with its line.  The first row must be a header.  `response_column`
    selects the response either by header name or by 0-based column
    index; the remaining columns become features in file order.  Cells
    must parse as finite decimal numbers ('.' decimal point); any
    offending cell is reported with its row and column.

    The csv module reads every record, and one np.array call converts
    the cells of the non-empty ones, parsing each string as float()
    does.  Only if that fails, or gives a ragged or non-finite matrix,
    are the records walked cell by cell, to name the first error.  A
    record the csv module cannot read (say, a cell over its field size
    limit) is reported with its line.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise CsvFormatError(f"no such file: {path}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines ends a line where the csv module does.
        line = len(raw[: exc.start + 1].splitlines())
        raise CsvFormatError(
            f"{path}: line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise CsvFormatError(f"{path}: file is empty")
    header, body = [h.strip() for h in records[0]], records[1:]
    if isinstance(response_column, int):
        if not 0 <= response_column < len(header):
            raise CsvFormatError(f"{path}: response column index {response_column} out of range")
        resp_pos = response_column
    else:
        if response_column not in header:
            raise CsvFormatError(
                f"{path}: response column {response_column!r} not in header {header}"
            )
        resp_pos = header.index(response_column)
    rows = [row for row in body if row]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or values.shape[1:] != (len(header),) or not np.isfinite(values).all():
        values = np.array(_parse_records(path, header, body))
    if len(header) < 2:
        raise CsvFormatError(f"{path}: need at least one feature column")
    return Dataset(np.delete(values, resp_pos, axis=1), values[:, resp_pos])


def _parse_records(path, header, records) -> list:
    """float() of every cell of the non-empty records that follow the
    header, with a CsvFormatError naming the first ragged row or
    unparsable or non-finite cell: load_csv's one source of per-cell
    messages."""
    parsed_rows = []
    for lineno, row in enumerate(records, start=2):
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
        parsed_rows.append(parsed)
    return parsed_rows


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset in the same dialect load_csv reads: features x1 ..
    xp, then the response y.

    The csv module writes floats with repr(), which round-trips exactly,
    so a save/load cycle reproduces the matrices bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{j + 1}" for j in range(dataset.p)] + ["y"])
        writer.writerows(np.column_stack((dataset.features, dataset.response)).tolist())

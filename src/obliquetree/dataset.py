"""Observation storage, CSV ingestion, index-set bookkeeping, and projections.

A Dataset is an immutable row-major (n, p) matrix of n observations in
p dimensions plus a response vector.  Nodes of a tree are represented as
index sets (strictly increasing integer arrays into the dataset), so the
data itself is never copied while a tree is grown.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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


def _check_keys(what: str, data: dict, allowed) -> None:
    """Reject keys outside `allowed`, so a misspelt key is not ignored."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


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
        peak = np.abs(arr).max()
        if peak == 0.0:
            raise ValueError("direction must be nonzero")
        arr = _snap(arr)
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm(arr))
        # Each division moves the peak, so it is followed by a snap against
        # the new one; and the division by the norm is skipped when already
        # unit-norm.  So canonicalization is an exact fixpoint (idempotent
        # to the bit).
        if not _SAFE_NORMS[0] < norm < _SAFE_NORMS[1]:
            arr = _snap(arr / peak)
            norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            arr = _snap(arr / norm)
        first = arr[np.nonzero(arr)[0][0]]
        if first < 0.0:
            arr = -arr + 0.0  # -0.0 + 0.0 is +0.0
        return Direction(tuple(arr.tolist()))


def _snap(arr: np.ndarray) -> np.ndarray:
    """arr with every coefficient of magnitude <= _COEFF_SNAP times its
    row's peak written as +0.0; a 1-D arr is one row."""
    size = np.abs(arr)
    return np.where(size <= _COEFF_SNAP * size.max(axis=-1, keepdims=True), 0.0, arr)


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
    library multiplies features by a split direction.

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
    contiguous.  Many directions over few rows (k > m), and an index
    matrix, are summed over the union of the supports: a zero
    coefficient adds a zero, which changes no value.
    """
    def column(c):
        return X[:, c] if rows is None else X[rows, c]

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
    y = dataset.response[idx]
    mean = float(y.mean())
    sse = float(np.sum((y - mean) ** 2))
    return mean, sse


def load_csv(path, response_column) -> Dataset:
    """Load a comma-separated file into a Dataset.

    The first row must be a header.  `response_column` selects the
    response either by header name or by 0-based column index; the
    remaining columns become features in file order.  Cells must parse
    as finite decimal numbers ('.' decimal point, no quoting); any
    offending cell is reported with its row and column.
    """
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


def save_csv(dataset: Dataset, path, feature_names=None, response_name="y") -> None:
    """Write a Dataset in the same dialect load_csv reads.

    Floats are written with repr(), which round-trips exactly, so a
    save/load cycle reproduces the matrices bit for bit.
    """
    if feature_names is None:
        feature_names = [f"x{j + 1}" for j in range(dataset.p)]
    if len(feature_names) != dataset.p:
        raise ValueError("feature_names length must equal p")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(feature_names) + [response_name])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.response[i])))
            writer.writerow(row)

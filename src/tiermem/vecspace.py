"""Vector primitives shared by the compression and retrieval stages.

Two scoring formulas live here: the probe-bank salience score (max cosine
of a token against a fixed set of probe vectors) and the late-interaction
frame score (mean over frame tokens of the max cosine against the query
tokens). Everything operates on unit-normalized float64 vectors; vectors
are normalized once at ingest so the hot loops reduce to dot products.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, EmptyInputError, ValidationError

VectorLike = Union[np.ndarray, Sequence[float]]

# Norms below this are treated as the zero sentinel (scores 0 against
# everything; neutral under max and mean).
ZERO_NORM_EPS = 1e-12

# Default metadata labels for a five-probe bank. Probes themselves always
# enter as embedding vectors; these strings name the semantic axes a
# generic bank is expected to cover.
DEFAULT_PROBE_LABELS = (
    "What objects are visible in the scene?",
    "How many items or people can be seen?",
    "What actions or events are happening?",
    "What has changed in the scene?",
    "Describe the spatial arrangement of objects.",
)


def as_vector(v: VectorLike, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, checking dimension when given."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"vector has dimension {arr.shape[0]}, expected {dim}")
    return arr


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale each row of an (n, dim) matrix to unit Euclidean norm.

    Rows with norm below ZERO_NORM_EPS map to the all-zeros sentinel. Each
    row's result depends on that row alone (einsum, not BLAS, over a
    C-contiguous copy), so normalizing a frame at once gives the same
    bits as normalizing its tokens one at a time.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
    dead = norms < ZERO_NORM_EPS
    units = m / np.where(dead, 1.0, norms)
    units[dead[:, 0]] = 0.0
    return units


def normalize(v: VectorLike, dim: int | None = None) -> np.ndarray:
    """Return v scaled to unit Euclidean norm.

    A vector with norm below ZERO_NORM_EPS maps to the all-zeros sentinel,
    which scores 0 against everything downstream.
    """
    return unit_rows(as_vector(v, dim)[None, :])[0]


def cosine(a: VectorLike, b: VectorLike) -> float:
    """Cosine similarity in [-1, 1]; 0 if either input is the zero sentinel."""
    ua = normalize(a)
    ub = normalize(b)
    if ua.shape != ub.shape:
        raise DimensionError(f"dimension mismatch: {ua.shape[0]} vs {ub.shape[0]}")
    return float(np.clip(np.dot(ua, ub), -1.0, 1.0))


class ProbeBank:
    """Immutable set of unit probe vectors with text labels as metadata.

    Built once per session and shared across all streams and queries; the
    probe matrix is frozen (read-only) after construction.
    """

    def __init__(self, probes: Iterable[VectorLike], labels: Sequence[str] | None = None):
        rows = [as_vector(p) for p in probes]
        if not rows:
            raise ValidationError("a probe bank needs at least one probe")
        dim = rows[0].shape[0]
        units = []
        for i, row in enumerate(rows):
            if row.shape[0] != dim:
                raise DimensionError(
                    f"probe {i} has dimension {row.shape[0]}, expected {dim}"
                )
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"probe {i} contains non-finite values")
            unit = normalize(row)
            if not unit.any():
                raise ValidationError(f"probe {i} has zero norm")
            units.append(unit)
        matrix = np.stack(units)
        matrix.setflags(write=False)
        self._matrix = matrix
        if labels is None:
            labels = tuple(f"probe-{i}" for i in range(len(units)))
        if len(labels) != len(units):
            raise ValidationError(
                f"{len(labels)} labels for {len(units)} probes"
            )
        self._labels = tuple(str(s) for s in labels)

    @property
    def matrix(self) -> np.ndarray:
        """(n_probes, dim) read-only matrix of unit probe vectors."""
        return self._matrix

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"ProbeBank(n={len(self)}, dim={self.dim})"

    @classmethod
    def from_file(cls, path) -> "ProbeBank":
        """Load a bank from a JSON document:

        { "dim": int, "probes": [ { "label": str, "vector": [float, ...] } ] }
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"probe file {path}: invalid JSON") from exc
        try:
            dim = int(doc["dim"])
            entries = doc["probes"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"probe file {path}: missing 'dim' or 'probes'") from exc
        if not isinstance(entries, list) or not entries:
            raise ValidationError(f"probe file {path}: 'probes' must be a non-empty list")
        vectors = []
        labels = []
        for i, entry in enumerate(entries):
            try:
                vec = entry["vector"]
                labels.append(str(entry.get("label", f"probe-{i}")))
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"probe file {path}: probe {i} malformed") from exc
            arr = as_vector(vec)
            if arr.shape[0] != dim:
                raise DimensionError(
                    f"probe file {path}: probe {i} has dimension {arr.shape[0]}, expected {dim}"
                )
            vectors.append(arr)
        return cls(vectors, labels)

    @classmethod
    def generated(cls, dim: int, n: int = 5, seed: int = 0) -> "ProbeBank":
        """Deterministic fallback bank of seeded gaussian unit vectors.

        Used by the CLI when no probe file is supplied; carries the default
        labels when n matches their count.
        """
        rng = np.random.default_rng([int(seed), 0x9E3779B9, int(dim), int(n)])
        vectors = [rng.standard_normal(dim) for _ in range(n)]
        labels = DEFAULT_PROBE_LABELS if n == len(DEFAULT_PROBE_LABELS) else None
        return cls(vectors, labels)

    def to_file(self, path) -> None:
        doc = {
            "dim": self.dim,
            "probes": [
                {"label": label, "vector": [float(x) for x in vec]}
                for label, vec in zip(self._labels, self._matrix)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def max_sim_rows(units: np.ndarray, bank: ProbeBank) -> np.ndarray:
    """Salience of each unit row: its max cosine over the probes.

    Batch-invariant like unit_rows: a row scores the same bits alone or
    inside a whole frame.
    """
    units = np.ascontiguousarray(units, dtype=np.float64)
    if units.shape[1] != bank.dim:
        raise DimensionError(f"vector has dimension {units.shape[1]}, bank has {bank.dim}")
    sims = np.einsum("ij,kj->ik", units, np.ascontiguousarray(bank.matrix))
    return np.clip(np.max(sims, axis=1), -1.0, 1.0)


def max_sim(v: VectorLike, bank: ProbeBank) -> float:
    """Salience of one token: max cosine over all probes in the bank."""
    return float(max_sim_rows(normalize(v)[None, :], bank)[0])


def _unit_matrix(tokens: Sequence[VectorLike], what: str) -> np.ndarray:
    """Stack tokens into an (n, dim) matrix of unit rows."""
    if len(tokens) == 0:
        raise EmptyInputError(f"{what} is empty")
    try:
        return unit_rows(np.stack([as_vector(t) for t in tokens]))
    except ValueError as exc:
        raise DimensionError(f"{what} rows differ in dimension") from exc


def token_max_sims(frame_matrix: np.ndarray, query_matrix: np.ndarray) -> np.ndarray:
    """Each frame row's max cosine against the query rows (unit rows in).

    BLAS, for speed on frame-vs-frame products (the scene boundary); its
    bits depend on the matrix shapes, so candidate scoring uses
    late_interaction_scores instead.
    """
    if frame_matrix.shape[1] != query_matrix.shape[1]:
        raise DimensionError(
            f"frame dimension {frame_matrix.shape[1]} vs query dimension {query_matrix.shape[1]}"
        )
    # Clip is monotone, so clipping the maxima gives the bits of maximizing
    # the clipped product (NaN included) without a second product-sized pass.
    return np.clip(np.max(frame_matrix @ query_matrix.T, axis=1), -1.0, 1.0)


def pooled_max_sim_units(frame_matrix: np.ndarray, query_matrix: np.ndarray) -> float:
    """Mean over frame rows of their max cosine against the query rows
    (unit rows in), through the BLAS token_max_sims."""
    return float(np.mean(token_max_sims(frame_matrix, query_matrix)))


# Candidate rows are packed into blocks of this many rows: at d=128 a block
# is 512 KiB, so it stays in cache between its copy and its product.
SCORE_BLOCK_ROWS = 512


def segment_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each consecutive run of counts[i] values, with np.mean's bits.

    Segments of one length are gathered into the rows of a C-contiguous
    matrix and summed along those rows, which takes the same pairwise
    order np.mean takes over each segment alone (np.add.reduceat would
    sum sequentially).
    """
    starts = np.cumsum(counts) - counts
    means = np.empty(len(counts))
    for count in np.unique(counts).tolist():
        which = np.flatnonzero(counts == count)
        segments = values[starts[which, None] + np.arange(count)]
        means[which] = np.add.reduce(segments, axis=1) / count
    return means


def late_interaction_scores(
    frames: Sequence[np.ndarray], query_matrix: np.ndarray
) -> np.ndarray:
    """Late-interaction score of each frame against the query (unit rows in):
    the mean over the frame's rows of their max cosine against the query rows.

    The one frame-vs-query kernel. The frames' rows are packed into blocks
    of SCORE_BLOCK_ROWS, a frame straddling two blocks when it must, and
    each block is scored with one einsum. Every entry of that product is
    the dot product of one row pair, whatever else is in the block (a BLAS
    product regroups its sums with the matrix shapes), so a frame gets the
    same bits alone or among any other frames.
    """
    frames = list(frames)
    if not frames:
        return np.empty(0)
    dim = query_matrix.shape[1]
    query_matrix = np.ascontiguousarray(query_matrix, dtype=np.float64)
    for frame in frames:
        if frame.ndim != 2 or frame.shape[1] != dim:
            raise DimensionError(f"frame shape {frame.shape} vs query dimension {dim}")
    counts = np.array([frame.shape[0] for frame in frames], dtype=np.intp)
    if counts.min() == 0:
        raise EmptyInputError("a frame to score has no rows")
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    maxima = np.empty(total)
    block = np.empty((min(SCORE_BLOCK_ROWS, total), dim))
    for lo in range(0, total, SCORE_BLOCK_ROWS):
        hi = min(lo + SCORE_BLOCK_ROWS, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
        parts = frames[first:last + 1]
        parts[-1] = parts[-1][:hi - starts[last]]
        parts[0] = parts[0][lo - starts[first]:]
        np.concatenate(parts, out=block[:hi - lo])
        sims = np.einsum("kj,ij->ki", query_matrix, block[:hi - lo])
        np.maximum.reduce(sims, axis=0, out=maxima[lo:hi])
    np.clip(maxima, -1.0, 1.0, out=maxima)
    return segment_means(maxima, counts)


def late_interaction(
    frame_tokens: Sequence[VectorLike], query_tokens: Sequence[VectorLike]
) -> float:
    """Frame-vs-query relevance: mean over frame tokens of the max cosine
    against any query token."""
    frame = _unit_matrix(frame_tokens, "frame_tokens")
    return float(late_interaction_scores([frame], _unit_matrix(query_tokens, "query_tokens"))[0])

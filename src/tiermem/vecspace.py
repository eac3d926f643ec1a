"""Vector primitives shared by the compression and retrieval stages.

Both scoring formulas are max-cosine folds, and both take their row
maxima from one kernel, _row_maxima, under query_max_sims: the probe-bank
salience score (max cosine of a token against a fixed set of probe
vectors, its best probe product over its norm) and the late-interaction
frame score (mean over frame tokens of the max cosine against the query
tokens). Vectors are normalized to float64 unit rows once at ingest, so
the hot loops reduce to dot products.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    TierMemError,
    ValidationError,
    checked_int,
    checked_reals,
    json_int,
    json_object,
)
from .traceio import seal

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


def unit_rows(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each row of an (n, dim) matrix to unit Euclidean norm, into
    out if given (an (n, dim) C-contiguous float64 array, which may be
    matrix itself), under _over_row_norms' rule: a row with norm below
    ZERO_NORM_EPS maps to the all-zeros sentinel. Each row's result
    depends on that row alone, so normalizing a frame at once gives the
    same bits as normalizing its tokens one at a time.

    With out given, matrix, of any real dtype, is cast straight into it
    and scaled in place, with the bits a separate float64 copy gets.
    """
    if out is None:
        m = np.ascontiguousarray(matrix, dtype=np.float64)
    else:
        if out is not matrix:
            # float32 to float64 is exact, so the cast has the bits of astype.
            out[...] = matrix
        m = out
    return _over_row_norms(m, m, unit_rows, out=out)


def _over_row_norms(values: np.ndarray, rows: np.ndarray,
                    again: Callable[[np.ndarray], np.ndarray],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Each value of values, (n,) or (n, k), divided by the norm of its
    row of rows (n, dim, C-contiguous float64), the square root of the
    row's einsum sum of squares: the one row-norm rule, of unit_rows
    (values the rows) and max_sim_rows (values their probe maxima). When
    every norm lies in [ZERO_NORM_EPS, inf), one division; else a row with
    norm below ZERO_NORM_EPS gets 0, a row of finite values whose squared
    norm overflows gets again(row / its largest magnitude), and a row
    holding a NaN or an inf is divided by its NaN or inf norm, without a
    warning. Into out if given, which may be values or rows.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    shape = (-1,) + (1,) * (values.ndim - 1)
    if (len(norms) and np.minimum.reduce(norms) >= ZERO_NORM_EPS
            and np.maximum.reduce(norms) < math.inf):
        return np.divide(values, norms.reshape(shape), out=out)
    huge = np.isinf(norms).nonzero()[0]
    if len(huge):
        huge = huge[np.isfinite(rows[huge]).all(axis=1)]
        rescaled = rows[huge] / np.max(np.abs(rows[huge]), axis=1, keepdims=True)
    dead = norms < ZERO_NORM_EPS
    with np.errstate(invalid="ignore"):
        quotients = np.divide(values, np.where(dead, 1.0, norms).reshape(shape), out=out)
    quotients[dead] = 0.0
    if len(huge):
        quotients[huge] = again(rescaled)
    return quotients


def _real_vector(v: VectorLike) -> np.ndarray:
    """v as a 1-D array of finite real numbers (errors.checked_reals), or
    DimensionError or ValidationError."""
    arr = checked_reals(v, "vector components")
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("vector components must be finite")
    return arr


def normalize(v: VectorLike) -> np.ndarray:
    """Return v, a 1-D array of finite real numbers (errors.checked_reals),
    scaled to unit Euclidean norm.

    A vector with norm below ZERO_NORM_EPS maps to the all-zeros sentinel,
    which scores 0 against everything downstream.
    """
    return unit_rows(_real_vector(v)[None, :])[0]


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
        units = []
        for i, probe in enumerate(probes):
            row = checked_reals(probe, f"probe {i} components")
            if row.ndim != 1:
                raise DimensionError(f"probe {i} must be a 1-D vector, got shape {row.shape}")
            if units and row.shape != units[0].shape:
                raise DimensionError(
                    f"probe {i} has dimension {row.shape[0]}, probe 0 has {units[0].shape[0]}")
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"probe {i} contains non-finite values")
            unit = unit_rows(row[None, :])[0]
            if not unit.any():
                raise ValidationError(f"probe {i} has zero norm")
            units.append(unit)
        if not units:
            raise ValidationError("a probe bank needs at least one probe")
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
        where = f"probe file {path}:"
        with open(path, "rb") as fh:
            doc = json_object(fh.read(), where, ValidationError, ("dim", "probes"), ("dim", "probes"))
        dim, entries = json_int(doc["dim"], f"{where} dim"), doc["probes"]
        if not isinstance(entries, list) or not entries:
            raise ValidationError(f"{where} 'probes' must be a non-empty list")
        vectors = []
        labels = []
        for i, entry in enumerate(entries):
            try:
                vectors.append(entry["vector"])
                labels.append(str(entry.get("label", f"probe-{i}")))
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"{where} probe {i} malformed") from exc
        try:
            bank = cls(vectors, labels)
        except TierMemError as exc:
            raise type(exc)(f"{where} {exc}") from exc
        if bank.dim != dim:
            raise DimensionError(f"{where} probes have dimension {bank.dim}, expected {dim}")
        return bank

    @classmethod
    def generated(cls, dim: int, n: int = 5, seed: int = 0) -> "ProbeBank":
        """Deterministic fallback bank of seeded gaussian unit vectors.

        Used by the CLI when no probe file is supplied; carries the default
        labels when n matches their count.
        """
        dim, n, seed = checked_int(dim, "dim"), checked_int(n, "n"), checked_int(seed, "seed")
        if dim < 1 or n < 1 or seed < 0:
            raise ValidationError(f"a generated bank needs dim >= 1, n >= 1 and seed >= 0, "
                                  f"got dim={dim}, n={n}, seed={seed}")
        rng = np.random.default_rng([seed, 0x9E3779B9, dim, n])
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


def max_sim_rows(rows: np.ndarray, bank: ProbeBank) -> np.ndarray:
    """Salience of each row: its cosine with its best probe,
    clip(max_p(p . row) / ||row||, -1, 1), for rows of any norm, under
    unit_rows' norm rule (_over_row_norms).

    _row_maxima takes the unclipped probe maxima on the product
    blas_rows_invariant picks for blocks of SALIENCE_BLOCK_ROWS rows: the
    BLAS, on such blocks, the last one zero-padded, where it gives a row
    the same bits at every place in its block; else the einsum, on the rows
    whole, in one call, as it takes each dot product alone. So a row scores
    the same bits alone or inside a whole frame. Scaling a row by a power
    of two keeps its score's bits while no product or square overflows or
    underflows.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n, dim = rows.shape
    if dim != bank.dim:
        raise DimensionError(f"vector has dimension {dim}, bank has {bank.dim}")
    blas = blas_rows_invariant(dim, len(bank), SALIENCE_BLOCK_ROWS)
    blocks = _padded_blocks(rows, SALIENCE_BLOCK_ROWS) if blas else [rows]
    maxima = _row_maxima(bank.matrix, *blocks, blas=blas)[:n]
    _over_row_norms(maxima, rows, lambda big: max_sim_rows(big, bank), out=maxima)
    return np.clip(maxima, -1.0, 1.0, out=maxima)


def max_sim(v: VectorLike, bank: ProbeBank) -> float:
    """Salience of one token: its cosine with its best probe, v (1-D, of
    finite real numbers) scored as it is by max_sim_rows, so a row scores
    the same bits alone as inside its frame."""
    return float(max_sim_rows(_real_vector(v)[None, :], bank)[0])


def screen_margin(dim: int) -> float:
    """How far the float32 estimate of pooled_max_sim_units may lie from
    its float64 value, for unit (or zero) rows of dimension dim.

    With u = 2**-24: rounding unit rows to float32 moves a dot product by
    at most (2u + u**2) * sum|a_k b_k|, and sum|a_k b_k| <= 1 by
    Cauchy-Schwarz. The float32 dot product of length dim adds at most
    gamma_dim * (1 + u)**2, gamma_dim = dim*u / (1 - dim*u), in any
    summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1). The float64 product is off by at most
    about dim * 2**-53. Max and clip are 1-Lipschitz, so each row maximum
    moves by at most the sum E of these, about (dim + 2) * u; a float64
    mean of values that each move by at most E moves by at most E plus its
    own rounding, a few 2**-53. Twice (dim + 4) * u covers all of it with a
    factor of 2.
    """
    return 2 * (dim + 4) * 2.0**-24


def unit_margin(dim: int) -> float:
    """How far from 1 the float64 squared norm of a row unit_rows made,
    of dimension dim, may lie.

    With u = 2**-53: unit_rows sums dim rounded squares, which is off by
    at most gamma_{dim+1} = (dim + 1)u / (1 - (dim + 1)u) relative
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1); the square root halves that and adds u, and each
    quotient adds u more. So the row's exact squared norm lies within
    about 2 * ((dim + 1)/2 + 2) * u = (dim + 5)u of 1. Summing its
    squares again adds gamma_{dim+1} relative: the sum lies within
    (2 dim + 6)u of 1 to first order, and twice that covers the rest with
    a factor of 2. A row rescaled by its largest magnitude first is then
    normalized the same way.
    """
    return 2 * (2 * dim + 6) * 2.0**-53


# The scene-boundary screen's first step reads a strided sample of at most
# this many of the previous frame's rows: 1/16 of a 512-token frame. Inside
# a scene it settles as many frames as 128 rows do, and 16 rows settle a
# third fewer.
SCREEN_SAMPLE_ROWS = 32

# Where the sample puts a frame below the threshold, the screen reads the
# frame's rows whole, least similar first: first the fewest rows whose
# sample bounds alone could settle, rounded up to a multiple of this, then
# this many at a time. A frame of at most this many rows takes one product.
SCREEN_STEP_ROWS = 64

# Salience takes its probe product in blocks of this many rows, so every
# product has one shape (see max_sim_rows).
SALIENCE_BLOCK_ROWS = 64


def _padded_blocks(rows: np.ndarray, size: int) -> list[np.ndarray]:
    """rows, an (n, dim) C-contiguous array, cut into blocks of size rows:
    views of the whole ones, and a short last one copied to the top of a
    zeroed block, so every block has one shape."""
    whole = len(rows) - len(rows) % size
    blocks = [rows[lo:lo + size] for lo in range(0, whole, size)]
    if whole < len(rows):
        tail = np.zeros((size, rows.shape[1]), dtype=rows.dtype)
        tail[:len(rows) - whole] = rows[whole:]
        blocks.append(tail)
    return blocks


def _finite(matrix: np.ndarray) -> bool:
    """Whether every entry of matrix is finite, from one BLAS dot of it
    with itself: a square is inf or NaN exactly when its entry is not
    finite, and a sum of squares never takes inf - inf. A sum that
    overflows, which unit rows never make, also reads as not finite."""
    flat = matrix.ravel()
    return math.isfinite(float(np.dot(flat, flat)))


def pooled_max_sim_units(frame_matrix: np.ndarray, query_matrix: np.ndarray,
                         *, near: float | None = None,
                         float32: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Mean over frame rows of their max cosine against the query rows
    (unit or zero rows in), through query_max_sims on the BLAS product.

    With near given, the value is exact only near it, and only its side of
    near is exact everywhere. The mean is screened from query_max_sims on
    float32 BLAS products (row maxima summed in float64), and
    screen_margin(dim) bounds each row maximum's float32 error whatever
    rows it ranges over.

    From below: the first step takes a strided sample of the query rows
    (rows 0, s, 2s, ..., s = ceil(rows / SCREEN_SAMPLE_ROWS)). A row's
    maximum over some query rows is at most its maximum over all of them,
    so the sample's estimate bounds the full one from below: an estimate
    above near + margin proves the float64 value above near, and is
    returned at once.

    From above: if the sample's estimate lies more than the margin below
    near, the frame's rows are read whole, against every query row, lowest
    sample bound first, in steps. After each step,
    U = (sum of the read rows' maxima + 1 per unread row) / n bounds the
    mean from above: each float64 maximum is clipped to at most 1, and a
    read row's float32 maximum lies within the margin's E of its float64
    value (see screen_margin), so the float64 mean is at most U + E plus
    its rounding, which the margin's factor of 2 covers. U below
    near - margin thus proves the float64 value below near, and U is
    returned at once. The first step reads the fewest rows whose sample
    bounds alone could make U settle, rounded up to a multiple of
    SCREEN_STEP_ROWS: true maxima are at least their bounds, so no fewer
    rows can. Each later step reads SCREEN_STEP_ROWS more. An unread row's
    float64 maximum is at most 1 only if it is not NaN, which an inf in
    either matrix can make it out of the sample's sight, so this path is
    taken only when both float32 matrices are finite.

    Otherwise every row's maximum over every query row is read, from all
    the steps or from one product over the whole frame: when the sample's
    estimate lies within the margin of near, when the query has at most
    SCREEN_SAMPLE_ROWS rows (there is no sample), when the frame has at
    most SCREEN_STEP_ROWS rows, and when a cast is not finite. An estimate
    more than the margin from near is then returned; it lies on the same
    side of near as the exact value. A NaN estimate or bound never
    decides. Only an estimate within the margin, or NaN, pays for the
    float64 query_max_sims on the frame's own rows, whose mean is returned
    with its bits. That product is the BLAS one whatever
    blas_rows_invariant says: it need only be deterministic for these two
    matrices, not give a row the same bits at every place in a block.

    float32, if given, makes the float32 casts in place of ndarray.astype;
    it is asked for the query's cast before the frame's, so a caller that
    keeps the last cast it made has the frame's at hand when that frame is
    the next query.
    """
    if near is not None:
        cast = float32 if float32 is not None else (lambda matrix: matrix.astype(np.float32))
        query32 = cast(query_matrix)
        frame32 = cast(frame_matrix)
        margin = screen_margin(frame_matrix.shape[1])
        n = frame32.shape[0]
        stride = -(-query32.shape[0] // SCREEN_SAMPLE_ROWS)
        if stride > 1:
            maxima = query_max_sims(query32[::stride], frame32, blas=True)
            # np.mean's bits: a pairwise float64 sum, then one division.
            estimate = float(np.add.reduce(maxima, dtype=np.float64)) / n
            # A NaN estimate fails every test and falls through to the exact path.
            if estimate > near + margin:
                return estimate
        if (stride > 1 and estimate < near - margin and n > SCREEN_STEP_ROWS
                and _finite(frame32) and _finite(query32)):
            order = np.argsort(maxima, kind="stable")
            # k rows at their bounds settle once sum(1 - bound) > n * (1 - near + margin);
            # the first step reads the fewest that could, rounded up to a whole step.
            slack = np.cumsum(1.0 - maxima[order], dtype=np.float64)
            k = int(np.searchsorted(slack, n * (1.0 - near + margin), side="right")) + 1
            first = -(-k // SCREEN_STEP_ROWS) * SCREEN_STEP_ROWS
            total, lo = 0.0, 0
            for hi in (*range(first, n, SCREEN_STEP_ROWS), n):
                step = query_max_sims(query32, frame32[order[lo:hi]], blas=True)
                total += float(np.add.reduce(step, dtype=np.float64))
                bound = (total + (n - hi)) / n
                if bound < near - margin:
                    return bound
                lo = hi
            estimate = total / n
        else:
            maxima = query_max_sims(query32, frame32, blas=True)
            estimate = float(np.add.reduce(maxima, dtype=np.float64)) / n
        if abs(estimate - near) > margin:
            return estimate
    return float(np.mean(query_max_sims(query_matrix, frame_matrix, blas=True)))


# A page of the row store holds a whole number of blocks of this many rows
# (at d=128 a one-block page is 512 KiB), and the scoring kernel works
# through a page in whole blocks.
SCORE_BLOCK_ROWS = 512


@functools.lru_cache(maxsize=None)
def blas_rows_invariant(dim: int, query_rows: int, block_rows: int) -> bool:
    """Whether this BLAS gives each column of query @ block.T the same bits
    wherever its row sits in a block of block_rows rows of dimension dim,
    alone among zero rows included.

    Checked once per shape, on seeded blocks: under a few row shifts, and
    with one row alone at row 0 of a zero block. A block whose bits depend
    on a row's place may still round some rows alike, so at least 512 rows
    are tried, in as many blocks as that takes. The property is empirical
    (a BLAS picks its kernels by CPU and shape), so query_max_sims and
    max_sim_rows fall back to an einsum wherever it fails.
    """
    rng = np.random.default_rng([dim, query_rows, block_rows])
    query = unit_rows(rng.standard_normal((query_rows, dim)))
    count = -(-512 // block_rows)
    blocks = unit_rows(rng.standard_normal((count * block_rows, dim)))
    for block in blocks.reshape(count, block_rows, dim):
        want = query @ block.T
        for shift in sorted({1, block_rows // 3, block_rows - 1}):
            shifted = query @ np.roll(block, shift, axis=0).T
            if shifted.tobytes() != np.roll(want, shift, axis=1).tobytes():
                return False
        alone = np.zeros_like(block)
        alone[0] = block[-1]
        if (query @ alone.T)[:, 0].tobytes() != want[:, -1].tobytes():
            return False
    return True


def _row_maxima(query_matrix: np.ndarray, *blocks: np.ndarray,
                blas: bool | None = None) -> np.ndarray:
    """Each row's greatest product with the query rows, unclipped, for the
    rows of the blocks laid end to end: the one code that turns a product
    into row maxima, which query_max_sims clips and salience divides by
    each row's norm.

    Each block's product query @ block.T goes into that block's columns of
    one (query rows, total rows) buffer, in the dtype np.result_type gives
    the query and the first block, if any: the blocks share one dtype.
    Then one maximum over the query rows, column by column, so each
    block's rows get the bits that block gets alone. The product is BLAS
    where blas_rows_invariant holds for the query's shape on whole
    SCORE_BLOCK_ROWS-row blocks, and elsewhere an einsum, which takes each
    dot product alone; blas, if given, picks the product instead of that
    check.

    One block, as the scene screen, salience on the einsum and salience on
    at most SALIENCE_BLOCK_ROWS rows pass, takes its product into an array
    of its own, with no shared buffer to size and type. Its bits are those
    of the block inside a call of several, but for the sign and payload of
    a NaN, which the product's order of operations may set differently.
    """
    k, dim = query_matrix.shape
    if blas is None:
        blas = blas_rows_invariant(dim, k, SCORE_BLOCK_ROWS)
    if len(blocks) == 1:
        rows = blocks[0]
        if rows.shape[1] != dim:
            raise DimensionError(f"frame dimension {rows.shape[1]} vs query dimension {dim}")
        sims = query_matrix @ rows.T if blas else np.einsum("ij,kj->ki", rows, query_matrix)
        return np.maximum.reduce(sims, axis=0)
    sims = np.empty((k, sum(map(len, blocks))), dtype=np.result_type(query_matrix, *blocks[:1]))
    lo = 0
    for rows in blocks:
        if rows.shape[1] != dim:
            raise DimensionError(f"frame dimension {rows.shape[1]} vs query dimension {dim}")
        hi = lo + rows.shape[0]
        if blas:
            np.matmul(query_matrix, rows.T, out=sims[:, lo:hi])
        else:
            np.einsum("ij,kj->ki", rows, query_matrix, out=sims[:, lo:hi])
        lo = hi
    # Query-major, so the maximum runs down contiguous columns.
    return np.maximum.reduce(sims, axis=0)


def query_max_sims(query_matrix: np.ndarray, *blocks: np.ndarray,
                   blas: bool | None = None) -> np.ndarray:
    """Each row's max cosine against the query rows (unit or zero rows
    in), clipped to [-1, 1], for the rows of the blocks laid end to end:
    _row_maxima, then one clip, column by column, so each block's rows get
    the bits that block gets alone. blas is _row_maxima's."""
    maxima = _row_maxima(query_matrix, *blocks, blas=blas)
    return maxima.clip(-1.0, 1.0, out=maxima)


# Once more than this fraction of the rows written to the held pages are dead,
# the page with the most dead rows is compacted: a past query then scores at
# most 1.5 rows per live row. On steady_forget a quarter moved 43 rows per
# ingest against 25, and put ingest and now-query time further above the
# unpaged store's. A sixth cut steady_forget's past queries by 4-7% but made
# 66 compactions a pass against 9 and raised ingest p95 by 12-25%, and a
# quarter moved past queries by less than their spread, so a third stays.
COMPACT_DEAD_FRACTION = 1 / 3


class _Page:
    """A page's rows and, beside each row, its token's score, grid row and
    grid col and a live flag; the rows written so far (used) and the rows
    that still belong to a frame (live). A row below used is never written
    again; only its live flag is ever cleared, always on a copy of the
    flags, so flags handed out before keep their values.

    rows, scores, grid_rows, grid_cols and alive are read-only views, made
    once, which snapshots hold; the RowStore writes through the writable
    arrays behind them (_rows, _scores, _grid_rows, _grid_cols, _alive).

    entries maps a frame's first row to (count, entry), the entry kept for
    the frame when it held count live rows here. Rows are never rewritten,
    page ids never reused and a frame's count only falls, so page, first
    row and count name one set of rows for good: nothing here is ever
    invalidated, and a moved frame lies on another page.
    """

    __slots__ = ("id", "group", "rows", "scores", "grid_rows", "grid_cols", "alive",
                 "_rows", "_scores", "_grid_rows", "_grid_cols", "_alive",
                 "used", "live", "entries")

    def __init__(self, page_id: int, group, rows: int, dim: int):
        self.id = page_id
        self.group = group
        self._rows = np.zeros((rows, dim))
        self._scores = np.zeros(rows)
        self._grid_rows = np.zeros(rows, dtype=np.int64)
        self._grid_cols = np.zeros(rows, dtype=np.int64)
        self.rows, self.scores, self.grid_rows, self.grid_cols = (
            seal(column.view()) for column in (self._rows, self._scores,
                                               self._grid_rows, self._grid_cols))
        self._flags(np.zeros(rows, dtype=bool))
        self.used = self.live = 0
        self.entries: dict[int, tuple[int, object]] = {}

    def _flags(self, alive: np.ndarray) -> None:
        """Write the live flags to alive from now on, and show them read-only."""
        self._alive = alive
        self.alive = seal(alive.view())


class RowStore:
    """Frames' embedding rows, held in pages of SCORE_BLOCK_ROWS rows.

    A page holds whole frames of one group (the memory's groups are its
    tiers, so frames that leave together sit together); a frame longer than
    a page gets a page of its own, rounded up to whole blocks. Pages start
    zeroed, so the rows past those written are zero and the kernel can
    score whole blocks. Frames are appended to their group's open page, and
    a row once committed is never written again, so a view of it stays
    valid for as long as it is held. Beside each row the page keeps the
    token's score, grid row and grid col, and a live flag: a trimmed frame
    keeps its rows where they lie, and the trimmed ones are flagged dead.
    A page left with no live row is released. Once more than
    COMPACT_DEAD_FRACTION of the rows written to the pages are dead,
    crowded() names the page with the most dead rows, and compact() moves
    the live rows of its frames out with move() and relocates the frames in
    their group's FrameTable; each such move lowers that fraction.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pages: dict[int, _Page] = {}  # the held pages by id; only the store writes it
        self._next_id = 0
        self._open: dict[object, _Page] = {}
        self._pending: tuple[_Page, np.ndarray] | None = None
        self._used = self._dead = 0  # rows written to and dead in the held pages
        self._shared: tuple | None = None  # what share() last handed out, while it holds

    def _new_page(self, group, rows: int) -> _Page:
        self._next_id += 1
        return _Page(self._next_id - 1, group, rows, self.dim)

    def alloc(self, n: int, group=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Writable arrays of n free rows in the group's pages: the (n, dim)
        rows and the (n,) scores, grid rows and grid cols beside them, for
        add to commit once written; the next alloc hands the same rows out
        again."""
        if n > SCORE_BLOCK_ROWS:
            page = self._new_page(group, -(-n // SCORE_BLOCK_ROWS) * SCORE_BLOCK_ROWS)
        else:
            page = self._open.get(group)
            if page is None or page.used + n > page.rows.shape[0]:
                page = self._open[group] = self._new_page(group, SCORE_BLOCK_ROWS)
        rows = slice(page.used, page.used + n)
        views = (page._rows[rows], page._scores[rows], page._grid_rows[rows],
                 page._grid_cols[rows])
        self._pending = (page, views)
        return views

    def add(self, matrix: np.ndarray, group=None, *, scores: np.ndarray,
            grid_rows: np.ndarray, grid_cols: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Hold a frame's (n, dim) rows, live, with the tokens' scores and
        grid coordinates beside them, in the arrays alloc last returned
        when matrix is its rows, else in new ones: an array given here that
        alloc returned is committed where it stands, and any other is
        copied in. Returns the rows as a read-only view, the id of their
        page and their first row."""
        pending = self._pending
        if pending is None or pending[1][0] is not matrix:
            self.alloc(matrix.shape[0], group)
            pending = self._pending
        page, views = pending
        self._pending = None
        for view, values in zip(views, (matrix, scores, grid_rows, grid_cols)):
            if view is not values:
                view[...] = values
        view = views[0]
        n = view.shape[0]
        start = page.used
        rows = slice(start, start + n)
        # Rows past used lie in no frame a snapshot holds, so their flags
        # are set in place even where a snapshot shares them.
        page._alive[rows] = True
        page.used = start + n
        page.live += n
        self._used += n
        if page.id not in self.pages:
            self.pages[page.id] = page
            self._shared = None
        view.setflags(write=False)
        return view, page.id, start

    def kill(self, page_id: int, n: int, rows=None) -> None:
        """Mark n rows of a page dead: their frame was trimmed, moved or
        dropped. rows, if given, indexes those n rows, and their live flags
        are cleared in a copy of the page's flags, which the page shows
        from then on: a snapshot or an eviction report that holds the flags
        as they stood keeps them. The flags of a frame that leaves whole
        are left as they are, as no frame reads them again."""
        page = self.pages[page_id]
        if rows is not None:
            page._flags(page._alive.copy())
            page._alive[rows] = False
            self._shared = None
        page.live -= n
        self._dead += n
        if page.live == 0:
            del self.pages[page_id]
            self._shared = None
            if self._open.get(page.group) is page:
                del self._open[page.group]
            self._used -= page.used
            self._dead -= page.used

    def crowded(self) -> tuple[int, object] | None:
        """(id, group) of the page to move the frames out of next, or None
        while at most COMPACT_DEAD_FRACTION of the rows written to the held
        pages are dead. The page named is no longer open."""
        if self._dead <= COMPACT_DEAD_FRACTION * self._used:
            return None
        page = max(self.pages.values(), key=lambda p: p.used - p.live)
        if self._open.get(page.group) is page:
            del self._open[page.group]
        return page.id, page.group

    def move(self, page_id: int, starts: np.ndarray, spans: np.ndarray
             ) -> tuple[int, int, np.ndarray]:
        """Copy the live rows of a page's frames, given by their first rows
        and the rows they span, with the columns beside them, into one run
        of rows of its group's open page with one gather, and release the
        page. Returns the new page id, the run's first row and the run as a
        read-only array."""
        old = self.pages[page_id]
        offsets = np.cumsum(spans) - spans
        rows = np.repeat(starts - offsets, spans) + np.arange(int(spans.sum()))
        rows = rows[old.alive[rows]]
        views = self.alloc(len(rows), old.group)
        for column, out in zip((old.rows, old.scores, old.grid_rows, old.grid_cols), views):
            column.take(rows, axis=0, out=out, mode="clip")
        run, page, start = self.add(views[0], scores=views[1], grid_rows=views[2],
                                    grid_cols=views[3])
        self.kill(page_id, len(rows))
        return page, start, run

    def kill_rows(self, pages: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Mark dead the rows at rows[i] of the page with id pages[i], and
        clear their live flags: one kill per page. Returns each page's live
        flags as they stood before, by page id; no one writes them again."""
        by_page = pages.argsort(kind="stable")
        pages, rows = pages[by_page], rows[by_page]
        cuts = ((pages[1:] != pages[:-1]).nonzero()[0] + 1).tolist()
        flags = {}
        for lo, hi in zip([0, *cuts], [*cuts, len(pages)]):
            page = pages.item(lo)
            flags[page] = self.pages[page].alive
            self.kill(page, hi - lo, rows[lo:hi])
        return flags

    def live_scores(self, pages: np.ndarray, starts: np.ndarray, spans: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The scores of the live rows of frames given by their pages, first
        rows and spans, one frame after another, and where those rows lie
        among the frames' spans laid end to end.

        One frame reads its span of its page. More are gathered page by
        page: the frames' pages, in id order, are laid end to end, and one
        index of every row of every span reads their live flags and then
        the live rows' scores."""
        if len(pages) == 1:
            page, lo = self.pages[pages.item(0)], starts.item(0)
            live = page.alive[lo:lo + spans.item(0)].nonzero()[0]
            return page.scores[lo + live], live
        ids = np.unique(pages)
        held = [self.pages[page] for page in ids.tolist()]
        sizes = np.array([len(page.scores) for page in held], dtype=np.int64)
        # Each frame's first row among the pages laid end to end, less its
        # first place among the spans laid end to end.
        firsts = ((sizes.cumsum() - sizes)[ids.searchsorted(pages)] + starts
                  - (spans.cumsum() - spans))
        rows = np.repeat(firsts, spans) + np.arange(int(spans.sum()))
        live = np.concatenate([page.alive for page in held])[rows].nonzero()[0]
        return np.concatenate([page.scores for page in held])[rows[live]], live

    def compact(self, tables: dict) -> None:
        """Move the live rows of each crowded page's frames, with one
        gather, into its group's open page, and release it; tables maps
        each group to its FrameTable. Only where the rows lie changes."""
        while (crowded := self.crowded()) is not None:
            page, group = crowded
            table = tables[group]
            slots = np.flatnonzero(table.page == page)
            counts = table.count[slots]
            flags = self.pages[page].alive
            new_page, start, _ = self.move(page, table.start[slots], table.span[slots])
            table.relocate(slots, new_page, np.cumsum(counts) - counts + start, flags)

    def page(self, page_id: int) -> _Page:
        """The held page with this id."""
        return self.pages[page_id]

    def share(self) -> tuple[tuple[_Page, ...], tuple[np.ndarray, ...]]:
        """The held pages and their live flags as they stand, for a snapshot
        to keep: a kill writes to a copy of a page's flags. The pair last
        handed out is handed out again until a page is added or released or
        a page's flags are copied."""
        if self._shared is None:
            pages = tuple(self.pages.values())
            self._shared = pages, tuple([page.alive for page in pages])
        return self._shared

    def page_usage(self) -> list[tuple[int, object, int, int, int]]:
        """(id, group, rows, used, live) of each held page, in id order."""
        return [(p.id, p.group, p.rows.shape[0], p.used, p.live)
                for _, p in sorted(self.pages.items())]


# A FrameTable's low band ranks at least this fraction of its frames' live
# tokens when it is built or refilled (see FrameTable.lowest).
LOW_BAND_FRACTION = 1 / 8


class FrameTable:
    """The frames of one group of a RowStore, oldest first, as numpy columns.

    The rows of ints are frame_index, count, page, start, span and
    scene_boundary; the one row of floats is timestamp. Frame i's count
    tokens are the live rows of [start, start + span) of its page, in row
    order; the timestamp and scene-boundary flag are kept for the frame's
    entry. The entries built for the frames are kept on their pages
    (_Page.entries), not here, so no change to the table leaves one to
    drop.

    low, once lowest() has built it, is the low band: every live token of
    the frames whose score is at most cut, as a (scores, keys) pair, keys'
    rows being frame index, page and row, in (score, frame index, row)
    order. A frame's tokens lie in its rows in position order, so that is
    forget's order: lowest score, then the older frame, then the lower
    position. Each change to the frames keeps it so: append adds the new
    frame's tokens at or below cut, pop_oldest drops the oldest frame's,
    relocate remaps the rows of the frames it moves, lowest() takes its
    head, which the band never writes again, and clear drops the band. The
    band is bounded: an append that takes it past room, twice its size
    when it was built, lowers cut to the score at that size and drops the
    tokens above it.

    share() hands out the columns and the size as they stand, for a
    snapshot to make read-only views of the first size frames when it
    reads them; the next change to those frames first copies the columns
    (_own). Appending writes past those frames, and growing copies the
    columns into arrays no view holds. The band is this table's alone.
    """

    __slots__ = ("size", "ints", "floats", "_shared", "low", "cut", "room")

    def __init__(self):
        self.size = 0
        self.ints = np.empty((6, 64), dtype=np.int64)
        self.floats = np.empty((1, 64))
        self._shared = False
        self.low: tuple[np.ndarray, np.ndarray] | None = None
        self.cut = 0.0
        self.room = 0

    count = property(lambda self: self.ints[1, :self.size])
    page = property(lambda self: self.ints[2, :self.size])
    start = property(lambda self: self.ints[3, :self.size])
    span = property(lambda self: self.ints[4, :self.size])

    def share(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The frames' ints and floats and their number as they stand, for
        a snapshot to keep: the table writes no frame below that number in
        them again. A table with no frame shares none: it goes on writing
        in place, so a clear after each freeze makes no arrays."""
        if self.size:
            self._shared = True
        return self.ints, self.floats, self.size

    def _own(self) -> None:
        """Before a change to the columns: stop writing to columns a snapshot keeps."""
        if self._shared:
            self.ints, self.floats = self.ints.copy(), self.floats.copy()
            self._shared = False

    def append(self, frame_index: int, scores: np.ndarray, page: int, start: int,
               scene_boundary: bool, timestamp: float) -> None:
        """Add the newest frame, its tokens' scores all live from start in
        the page, past the frames a view shows.
        A band gains the frame's tokens at or below its cut: one comparison
        when the frame's lowest score lies above it."""
        slot = self.size
        if slot == self.ints.shape[1]:
            self.ints = np.concatenate((self.ints, np.empty_like(self.ints)), axis=1)
            self.floats = np.concatenate((self.floats, np.empty_like(self.floats)), axis=1)
            self._shared = False
        ints = self.ints
        ints[0, slot] = frame_index
        ints[1, slot] = ints[4, slot] = len(scores)
        ints[2, slot] = page
        ints[3, slot] = start
        ints[5, slot] = scene_boundary
        self.floats[0, slot] = timestamp
        self.size += 1
        if self.low is not None and np.minimum.reduce(scores) <= self.cut:
            low = (scores <= self.cut).nonzero()[0]
            keys = np.empty((3, len(low)), dtype=np.int64)
            keys[0], keys[1] = frame_index, page
            np.add(low, start, out=keys[2])
            merged = np.concatenate((self.low[0], scores[low]))
            keys = np.concatenate((self.low[1], keys), axis=1)
            # The frame is the newest, and its rows ascend, so a stable sort
            # by score alone leaves every tie in (frame index, row) order.
            order = merged.argsort(kind="stable")
            merged, keys = merged.take(order), keys.take(order, axis=1)
            if len(merged) > self.room:
                self.cut = merged[self.room // 2 - 1]
                kept = merged.searchsorted(self.cut, side="right")
                merged, keys = merged[:kept], keys[:, :kept]
            self.low = merged, keys

    def lowest(self, k: int, store: "RowStore") -> tuple[np.ndarray, np.ndarray]:
        """The k lowest live tokens of the frames, fewer than they hold, in
        forget's order, taken off the band's head as (scores, keys): they
        are to be killed. Where the band holds fewer than k, it is first
        built from the frames' live rows in store: the max(k, their number
        times LOW_BAND_FRACTION) lowest, boundary ties included, which
        costs what ranking the whole tier costs."""
        if self.low is None or len(self.low[0]) < k:
            frames, counts, pages, starts, spans = self.ints[:5, :self.size]
            scores, live = store.live_scores(pages, starts, spans)
            n = max(k, int(len(scores) * LOW_BAND_FRACTION))
            self.cut = np.partition(scores, n - 1)[n - 1]
            chosen = (scores <= self.cut).nonzero()[0]
            # The live rows lie in (frame index, row) order, so a stable sort
            # by score alone breaks ties in forget's order.
            chosen = chosen[scores[chosen].argsort(kind="stable")]
            owners = np.repeat(np.arange(self.size), counts)[chosen]
            # A live row's place among the spans laid end to end, less its
            # frame's first place there, plus its frame's start.
            rows = (starts - spans.cumsum() + spans)[owners] + live[chosen]
            self.low = scores[chosen], np.stack((frames[owners], pages[owners], rows))
            self.room = 2 * n
        scores, keys = self.low
        self.low = scores[k:], keys[:, k:]
        return scores[:k], keys[:, :k]

    def clear(self) -> None:
        """Delete every frame."""
        self._own()
        self.size = 0
        self.low = None

    def pop_oldest(self) -> None:
        """Drop the oldest frame."""
        self._own()
        if self.low is not None:
            stays = self.low[1][0] != self.ints[0, 0]
            if not stays.all():
                self.low = self.low[0].compress(stays), self.low[1].compress(stays, axis=1)
        last = self.size - 1
        self.ints[:, :last] = self.ints[:, 1:last + 1]
        self.floats[:, :last] = self.floats[:, 1:last + 1]
        self.size = last

    def relocate(self, slots: np.ndarray, page: int, starts: np.ndarray,
                 flags: np.ndarray) -> None:
        """The frames at slots, every frame of one page, now lie from starts
        in the page, all their rows live. flags, the old page's live flags
        as they stood, place the band's tokens of those frames: a token's
        new row is its frame's new start plus the live rows before it in
        its frame."""
        self._own()
        moved = ()
        if self.low is not None:
            keys = self.low[1]
            moved = (keys[1] == self.ints[2, slots[0]]).nonzero()[0]
        if len(moved):
            at = np.searchsorted(self.ints[0, :self.size], keys[0, moved])
            before = np.cumsum(flags) - flags  # live rows before each row of the old page
            offsets = before[keys[2, moved]] - before[self.ints[3, at]]
        self.ints[2, slots] = page
        self.ints[3, slots] = starts
        self.ints[4, slots] = self.ints[1, slots]
        if len(moved):
            keys[1, moved] = page
            keys[2, moved] = self.ints[3, at] + offsets

    def trim(self, lost: np.ndarray) -> None:
        """Frame i loses lost[i] of its tokens, for each of the size
        frames; the emptied ones are deleted in one compress."""
        self._own()
        size = self.size
        count = self.ints[1, :size]
        count -= lost
        if not count.all():
            keep = count > 0
            self.size = int(np.count_nonzero(keep))
            self.ints[:, :self.size] = self.ints[:, :size].compress(keep, axis=1)
            self.floats[:, :self.size] = self.floats[:, :size].compress(keep, axis=1)


def segment_means(values: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of values[starts[i]:starts[i] + counts[i]] for each i, with
    np.mean's bits.

    Every segment is gathered, in the order of a stable argsort of the
    counts, into one array; the segments of each count then form the rows
    of a C-contiguous slice of it, and one np.add.reduce along those rows
    takes the same pairwise order np.mean takes over each segment alone
    (np.add.reduceat would sum sequentially). The sums are divided by
    their counts at once, as np.mean divides its sum.
    """
    n = len(counts)
    if n == 0:
        return np.empty(0)
    order = counts.argsort(kind="stable")
    ordered = counts[order]
    ends = ordered.cumsum()
    firsts = ends - ordered
    gathered = values.take((starts[order] - firsts).repeat(ordered) + np.arange(ends[-1]))
    cuts = (ordered[1:] != ordered[:-1]).nonzero()[0] + 1
    # Count j's segments are [edges[j], edges[j + 1]) and its values
    # [bounds[j], bounds[j + 1]) of gathered, each read once, as ints.
    edges = [0, *cuts.tolist(), n]
    bounds = [0, *firsts[cuts].tolist(), len(gathered)]
    sums = np.empty(n)
    for lo, hi, first, end in zip(edges, edges[1:], bounds, bounds[1:]):
        np.add.reduce(gathered[first:end].reshape(hi - lo, -1), axis=1, out=sums[lo:hi])
    means = np.empty(n)
    means[order] = sums / ordered
    return means


def late_interaction_pages(pages: Sequence[_Page], alive: Sequence[np.ndarray],
                           table: np.ndarray, query_matrix: np.ndarray) -> np.ndarray:
    """Late-interaction score of each frame of table against the query
    (unit rows in): the mean over the frame's rows of their max cosine
    against the query rows.

    pages are the records of the pages the frames lie in, in any order,
    and alive[k] the live flags of pages[k] as a snapshot keeps them. The
    int64 rows of table are frame_index, count, page, start and span:
    frame i's count[i] tokens are the live rows of [start[i], start[i] +
    span[i]) of the page with id page[i], in row order.

    The candidate kernel. A held page is a whole number of blocks of
    SCORE_BLOCK_ROWS rows, zero past its last written row, so its blocks
    are its whole rows: the page itself where it is one block, else its
    rows cut in blocks. It scores them in place with one query_max_sims
    over all the pages' blocks; dead rows between frames and rows past the
    last written are scored and ignored. Where a frame has dead rows
    inside its span, the maxima are first compressed to the live rows by
    the pages' whole live flags, with one gather, so each frame's live
    maxima lie together in token order. Every product
    has the same shape, so a frame gets the same bits alone or among any
    other frames, at any row of any page, whatever the order of the pages:
    those of query_max_sims on the frame's live rows on a block of their own.

    A past query's time goes first to the products, which read every held
    row once at about the machine's streaming-read rate, then to the calls
    around them: the maximum and clip, the page lookup, the live-row
    compress and segment_means' grouped reduces.
    """
    count = table[1]
    if len(count) == 0:
        return np.empty(0)
    query_matrix = np.ascontiguousarray(query_matrix, dtype=np.float64)
    blocks = [page.rows for page in pages]
    sizes = np.fromiter(map(len, blocks), np.int64, len(blocks))
    ends = sizes.cumsum()  # where each page's rows end among the pages laid end to end
    block = SCORE_BLOCK_ROWS
    if ends[-1] > len(blocks) * block:  # a page of several blocks
        blocks = [rows[lo:lo + block] for rows in blocks for lo in range(0, len(rows), block)]
    maxima = query_max_sims(query_matrix, *blocks)
    ids = np.array([page.id for page in pages], dtype=np.int64)
    by_id = ids.argsort()
    starts = (ends - sizes)[by_id[ids.searchsorted(table[2], sorter=by_id)]] + table[3]
    if (count != table[4]).any():
        live = np.concatenate(alive).nonzero()[0]
        maxima = maxima.take(live)
        # A frame's first live row: it has one, and no row of its span before it is live.
        starts = live.searchsorted(starts)
    return segment_means(maxima, count, starts)


def late_interaction(
    frame_tokens: Sequence[VectorLike], query_tokens: Sequence[VectorLike]
) -> float:
    """Frame-vs-query relevance: mean over frame tokens of the max cosine
    against any query token.

    The frame's unit rows are scored with query_max_sims in blocks of
    SCORE_BLOCK_ROWS rows, the last one zero-padded (_padded_blocks): the
    bits late_interaction_pages gives the frame on pages of its own.
    """
    units = []
    for tokens, what in ((frame_tokens, "frame_tokens"), (query_tokens, "query_tokens")):
        if len(tokens) == 0:
            raise EmptyInputError(f"{what} is empty")
        matrix = checked_reals(tokens, f"{what} rows")
        if matrix.ndim != 2:
            raise DimensionError(f"{what} must be 1-D vectors, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValidationError(f"{what} must be finite")
        units.append(unit_rows(matrix))
    frame, query = units
    maxima = query_max_sims(query, *_padded_blocks(frame, SCORE_BLOCK_ROWS))
    return float(np.mean(maxima[:len(frame)]))

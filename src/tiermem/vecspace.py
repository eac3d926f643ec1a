"""Vector primitives shared by the compression and retrieval stages.

Two scoring formulas live here: the probe-bank salience score (max cosine
of a token against a fixed set of probe vectors) and the late-interaction
frame score (mean over frame tokens of the max cosine against the query
tokens). Everything operates on unit-normalized float64 vectors; vectors
are normalized once at ingest so the hot loops reduce to dot products.
"""

from __future__ import annotations

import functools
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
    bits depend on the matrix shapes, so frame-vs-query scores use
    query_max_sims instead.
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
    (a BLAS picks its kernels by CPU and shape), so query_max_sims falls
    back to an einsum wherever it fails.
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


def query_max_sims(query_matrix: np.ndarray, rows: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Each row's max cosine against the query rows (unit rows in),
    clipped to [-1, 1], into out if given.

    The one frame-vs-query product: np.maximum.reduce(query @ rows.T,
    axis=0), query-major so the maximum runs down contiguous columns. On
    whole SCORE_BLOCK_ROWS-row blocks a row's bits then do not depend on
    the other rows of its block, where blas_rows_invariant holds; where it
    does not, an einsum, which takes each dot product alone, gives the
    product instead.
    """
    if rows.shape[1] != query_matrix.shape[1]:
        raise DimensionError(
            f"frame dimension {rows.shape[1]} vs query dimension {query_matrix.shape[1]}")
    k, dim = query_matrix.shape
    sims = (query_matrix @ rows.T if blas_rows_invariant(dim, k, SCORE_BLOCK_ROWS)
            else np.einsum("kj,ij->ki", query_matrix, rows))
    out = np.maximum.reduce(sims, axis=0, out=out)
    return np.clip(out, -1.0, 1.0, out=out)


# Once more than this fraction of the rows written to the held pages are dead,
# the page with the most dead rows is compacted: a past query then scores at
# most 1.5 rows per live row. On steady_forget a quarter moved 43 rows per
# ingest against 25, and put ingest and now-query time further above the
# unpaged store's.
COMPACT_DEAD_FRACTION = 1 / 3


class _Page:
    """A page's rows, the rows written so far (used) and the rows that still
    belong to a frame (live). A row below used is never written again."""

    __slots__ = ("id", "group", "rows", "frozen", "used", "live")

    def __init__(self, page_id: int, group, rows: np.ndarray):
        self.id = page_id
        self.group = group
        self.rows = rows
        self.frozen = rows.view()
        self.frozen.setflags(write=False)
        self.used = self.live = 0


class RowStore:
    """Frames' embedding rows, held in pages of SCORE_BLOCK_ROWS rows.

    A page holds whole frames of one group (the memory's groups are its
    tiers, so frames that leave together sit together); a frame longer than
    a page gets a page of its own, rounded up to whole blocks. Pages start
    zeroed, so the rows past those written are zero and the kernel can
    score whole blocks. Frames are appended to their group's
    open page, and a row once committed is never written again, so a view
    of it stays valid for as long as it is held. A frame that is trimmed or
    moved is written anew and its old rows become dead. A page left with no
    live row is released. Once more than COMPACT_DEAD_FRACTION of the rows
    written to the pages are dead, crowded() names the page with the most
    dead rows, for the owner of its frames to move them out with move();
    each such move lowers that fraction.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._pages: dict[int, _Page] = {}
        self._next_id = 0
        self._open: dict[object, _Page] = {}
        self._pending: tuple[_Page, np.ndarray] | None = None
        self._used = self._dead = 0  # rows written to and dead in the held pages

    def _new_page(self, group, rows: int) -> _Page:
        self._next_id += 1
        return _Page(self._next_id - 1, group, np.zeros((rows, self.dim)))

    def alloc(self, n: int, group=None) -> np.ndarray:
        """A writable (n, dim) array of free rows in the group's pages, for
        add to commit once written; the next alloc hands the same rows out
        again."""
        if n > SCORE_BLOCK_ROWS:
            page = self._new_page(group, -(-n // SCORE_BLOCK_ROWS) * SCORE_BLOCK_ROWS)
        else:
            page = self._open.get(group)
            if page is None or page.used + n > page.rows.shape[0]:
                page = self._open[group] = self._new_page(group, SCORE_BLOCK_ROWS)
        view = page.rows[page.used:page.used + n]
        self._pending = (page, view)
        return view

    def add(self, matrix: np.ndarray, group=None) -> tuple[np.ndarray, int, int]:
        """Hold a frame's (n, dim) rows: the array alloc last returned is
        committed where it stands, any other array is copied into the
        group's pages. Returns the rows as a read-only view, the id of
        their page and their first row."""
        pending = self._pending
        if pending is None or pending[1] is not matrix:
            self.alloc(matrix.shape[0], group)[...] = matrix
            pending = self._pending
        page, view = pending
        self._pending = None
        n = view.shape[0]
        start = page.used
        page.used = start + n
        page.live += n
        self._used += n
        if page.id not in self._pages:
            self._pages[page.id] = page
        view.setflags(write=False)
        return view, page.id, start

    def kill(self, page_id: int, n: int) -> None:
        """Mark n rows of a page dead: their frame was trimmed, moved or dropped."""
        page = self._pages[page_id]
        page.live -= n
        self._dead += n
        if page.live == 0:
            del self._pages[page_id]
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
        page = max(self._pages.values(), key=lambda p: p.used - p.live)
        if self._open.get(page.group) is page:
            del self._open[page.group]
        return page.id, page.group

    def move(self, page_id: int, starts: np.ndarray, counts: np.ndarray
             ) -> tuple[int, int, np.ndarray]:
        """Copy the live frames of a page, given by their first rows and row
        counts, into one run of rows of its group's open page with one
        gather, and release the page. Returns the new page id, the run's
        first row and the run as a read-only array."""
        old = self._pages[page_id]
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        rows = np.repeat(starts - offsets, counts) + np.arange(total)
        old.rows.take(rows, axis=0, out=self.alloc(total, old.group), mode="clip")
        run, page, start = self.add(self._pending[1])
        self.kill(page_id, total)
        return page, start, run

    def held(self) -> tuple[_Page, ...]:
        """The held pages."""
        return tuple(self._pages.values())

    def page_usage(self) -> list[tuple[int, object, int, int, int]]:
        """(id, group, rows, used, live) of each held page, in id order."""
        return [(p.id, p.group, p.rows.shape[0], p.used, p.live)
                for _, p in sorted(self._pages.items())]


class FramePages:
    """Frames' rows in pages, and the table of where they lie.

    Built from the records of the pages and one or more (4, n) int64 tables
    in frame order, whose rows are frame_index, count, page and start:
    frame i's count[i] rows start at row start[i] of the page with id
    page[i]. pages[k] is the rows of the page with id page_ids[k], ascending.
    The arrays the kernel reads are derived on first use, so building one is
    cheap for a snapshot that is never scored.
    """

    def __init__(self, pages: tuple[_Page, ...], tables: tuple[np.ndarray, ...]):
        self._pages = pages
        self._tables = tables

    @functools.cached_property
    def table(self) -> np.ndarray:
        return self._tables[0] if len(self._tables) == 1 else np.concatenate(self._tables, axis=1)

    @functools.cached_property
    def pages(self) -> tuple[np.ndarray, ...]:
        return tuple(page.frozen for page in sorted(self._pages, key=lambda page: page.id))

    @functools.cached_property
    def page_ids(self) -> np.ndarray:
        return np.sort(np.array([page.id for page in self._pages], dtype=np.int64))

    frame_index = property(lambda self: self.table[0])
    count = property(lambda self: self.table[1])
    page = property(lambda self: self.table[2])
    start = property(lambda self: self.table[3])

    @classmethod
    def pack(cls, frames: Sequence[np.ndarray], frame_index: Sequence[int] | None = None
             ) -> "FramePages":
        """The frames' rows packed into a new RowStore's pages, in order;
        frame_index defaults to each frame's position."""
        frames = list(frames)
        dim = frames[0].shape[-1] if frames else 0
        store = RowStore(dim)
        table = np.empty((4, len(frames)), dtype=np.int64)
        table[0] = np.arange(len(frames)) if frame_index is None else frame_index
        for i, frame in enumerate(frames):
            if frame.ndim != 2 or frame.shape[1] != dim:
                raise DimensionError(f"frame shape {frame.shape} vs dimension {dim}")
            if frame.shape[0] == 0:
                raise EmptyInputError("a frame to score has no rows")
            _, page, start = store.add(frame)
            table[1:, i] = (frame.shape[0], page, start)
        return cls(store.held(), (table,))


def segment_means(values: np.ndarray, counts: np.ndarray,
                  starts: np.ndarray | None = None) -> np.ndarray:
    """Mean of values[starts[i]:starts[i] + counts[i]] for each i, with
    np.mean's bits; the segments are consecutive when starts is omitted.

    Segments of one length are gathered into the rows of a C-contiguous
    matrix and summed along those rows, which takes the same pairwise
    order np.mean takes over each segment alone (np.add.reduceat would
    sum sequentially).
    """
    if starts is None:
        starts = np.cumsum(counts) - counts
    means = np.empty(len(counts))
    for count in np.unique(counts).tolist():
        which = np.flatnonzero(counts == count)
        segments = values[starts[which, None] + np.arange(count)]
        means[which] = np.add.reduce(segments, axis=1) / count
    return means


def late_interaction_pages(paged: FramePages, query_matrix: np.ndarray) -> np.ndarray:
    """Late-interaction score of each frame in paged against the query
    (unit rows in): the mean over the frame's rows of their max cosine
    against the query rows.

    The candidate kernel. It scores each page in place, in whole blocks of
    SCORE_BLOCK_ROWS rows up to the last row a frame of paged uses, with
    one query_max_sims each; dead rows between frames and rows past that
    last one are scored and ignored. Every product has the same shape, so
    a frame gets the same bits alone or among any other frames, at any row
    of any page.
    """
    if len(paged.count) == 0:
        return np.empty(0)
    query_matrix = np.ascontiguousarray(query_matrix, dtype=np.float64)
    block = SCORE_BLOCK_ROWS
    where = np.searchsorted(paged.page_ids, paged.page)
    extent = np.zeros(len(paged.pages), dtype=np.int64)
    np.maximum.at(extent, where, paged.start + paged.count)
    scored = -(-extent // block) * block  # whole blocks up to each page's extent
    offsets = np.cumsum(scored) - scored
    maxima = np.empty(int(offsets[-1] + scored[-1]))
    for page, base, rows in zip(paged.pages, offsets.tolist(), scored.tolist()):
        for lo in range(0, rows, block):
            query_max_sims(query_matrix, page[lo:lo + block], out=maxima[base + lo:base + lo + block])
    return segment_means(maxima, paged.count, offsets[where] + paged.start)


def late_interaction_scores(
    frames: Sequence[np.ndarray], query_matrix: np.ndarray
) -> np.ndarray:
    """Late-interaction score of each frame against the query (unit rows in),
    through late_interaction_pages over the frames packed into pages."""
    return late_interaction_pages(FramePages.pack(frames), query_matrix)


def late_interaction(
    frame_tokens: Sequence[VectorLike], query_tokens: Sequence[VectorLike]
) -> float:
    """Frame-vs-query relevance: mean over frame tokens of the max cosine
    against any query token."""
    frame = _unit_matrix(frame_tokens, "frame_tokens")
    return float(late_interaction_scores([frame], _unit_matrix(query_tokens, "query_tokens"))[0])

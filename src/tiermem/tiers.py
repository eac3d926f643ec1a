"""Ingest-side engine: a three-tier token memory under a hard budget.

Frames enter a small FIFO of recent frames kept at full fidelity. When
that tier overflows, the oldest frame is compressed by temporal pruning
(drop tokens that a spatially aligned neighbour in the newest frame
already represents, sparing salient ones) and moves to the mid tier.
When the mid tier overflows, the oldest frame is compressed again by
spatial selection (cover a coarse grid, rank by salience within it) and
moves to the long tier. A global token budget is enforced after every
ingest by forgetting the lowest-salience tokens, oldest first, from the
long tier and then the mid tier; the recent FIFO is never touched.

Tokens are normalized and scored against the probe bank exactly once,
at ingest; every later stage reuses the stored embedding and score.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BudgetUnsatisfiable,
    ConfigError,
    DimensionError,
    EmptyFrame,
    FrameTooLarge,
    FrozenMemory,
    NonMonotoneTimestamp,
    ValidationError,
    checked_int,
    checked_real,
    checked_reals,
    json_object,
)
from .retrieval import GATE_DECAY, GATE_FLOOR, GateState, update_gate
from .traceio import MAX_COORD, TokenColumns, assembled, coords, held, seal
from .vecspace import (
    FrameTable,
    ProbeBank,
    RowStore,
    max_sim_rows,
    pooled_max_sim_units,
    unit_margin,
    unit_rows,
    _Page,
)


@dataclass(frozen=True, eq=False)
class TokenRecord:
    """One retained token, a view into its frame's columns, read only by the
    benchmark harness's end-of-pass digest; ROADMAP item 2 deletes it."""

    embedding: np.ndarray
    score: float
    frame_index: int
    spatial_row: int
    spatial_col: int


@dataclass(frozen=True, eq=False)
class FrameEntry:
    """A frame's surviving tokens as four read-only columns, plus metadata.

    Row i of token_matrix is token i's unit embedding, scores[i] its
    cached salience and (rows[i], cols[i]) its origin in the frame grid,
    read as traceio.coords reads them (an integer dtype, in [0, MAX_COORD]).
    Writable inputs are copied, and a column cast to float64 or int64 is
    held as cast (traceio.held). token_count, pooled_score and min_score
    are read from the columns, so they can never drift out of sync with them.
    """

    frame_index: int
    timestamp: float
    token_matrix: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    scene_boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "frame_index", checked_int(self.frame_index, "frame_index"))
        object.__setattr__(self, "timestamp", checked_real(self.timestamp, "timestamp"))
        for name in ("token_matrix", "scores"):
            values = getattr(self, name)
            column = checked_reals(values, f"frame {self.frame_index}: {name} entries")
            object.__setattr__(self, name, held(column.astype(np.float64, copy=False), values))
        for name in ("rows", "cols"):
            values = getattr(self, name)
            column = coords(values, name).astype(np.int64, copy=False)
            object.__setattr__(self, name, held(column, values))
        if self.token_matrix.ndim != 2:
            raise DimensionError(f"token_matrix must be 2-D, got shape {self.token_matrix.shape}")
        n = self.token_matrix.shape[0]
        if n == 0:
            raise EmptyFrame(f"frame {self.frame_index} has no tokens")
        for name in ("scores", "rows", "cols"):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ValidationError(f"{name} has shape {shape}, expected ({n},)")
        if self.frame_index < 0:
            raise ValidationError("frame_index must be non-negative")
        # The embeddings' bounds, which a NaN makes NaN, without an (n, dim) mask.
        bounds = [self.token_matrix.min(initial=0.0), self.token_matrix.max(initial=0.0)]
        if not (np.isfinite(bounds).all() and np.isfinite(self.scores).all()):
            raise ValidationError(f"frame {self.frame_index}: non-finite embedding or score")

    @classmethod
    def _of(cls, **values) -> "FrameEntry":
        """A frame from all its fields, with read-only columns read out of a
        frame that was validated when it was held; the checks of
        __post_init__ are not run again."""
        return assembled(cls, **values)

    def _with(self, **changes) -> "FrameEntry":
        """This frame with the given fields replaced: another scene-boundary
        flag, its embeddings read from another array of the same values, or
        columns that are a non-empty subset of its rows."""
        return self._of(**{**vars(self), **changes})

    @property
    def token_count(self) -> int:
        return self.scores.shape[0]

    @property
    def pooled_score(self) -> float:
        """The mean score, with np.mean's bits: the same pairwise
        np.add.reduce, then one division by the count."""
        return float(np.add.reduce(self.scores)) / self.scores.shape[0]

    @property
    def min_score(self) -> float:
        return float(np.minimum.reduce(self.scores))

    def __len__(self) -> int:
        return self.token_count

    @property
    def tokens(self) -> tuple[TokenRecord, ...]:
        """Per-token views, built on each access. Only the benchmark harness's
        end-of-pass digest reads them, not the pipeline; ROADMAP item 2 deletes them."""
        return tuple(
            TokenRecord(embedding, score, self.frame_index, row, col)
            for embedding, score, row, col in zip(
                self.token_matrix, self.scores.tolist(), self.rows.tolist(), self.cols.tolist()
            )
        )

    def take(self, positions: np.ndarray, alloc=None) -> "FrameEntry":
        """Same frame, keeping the tokens at the given positions in that order.

        positions must be non-empty; each must index an existing token.
        alloc, if given, is called with the number of positions and returns
        the (n, dim), (n,), (n,) and (n,) arrays the kept embeddings,
        scores, rows and cols are gathered into, such as RowStore.alloc.
        """
        n = len(positions)
        if n == 0:
            raise EmptyFrame(f"frame {self.frame_index}: take keeps no tokens")
        columns = (self.token_matrix, self.scores, self.rows, self.cols)
        if alloc is None:
            kept = [column[positions] for column in columns]
        else:
            kept = [column.take(positions, axis=0, out=out, mode="clip")
                    for column, out in zip(columns, alloc(n))]
        matrix, scores, rows, cols = map(seal, kept)
        return self._with(token_matrix=matrix, scores=scores, rows=rows, cols=cols)


@dataclass(frozen=True)
class TierConfig:
    """Capacities and compression knobs for one memory instance: each field
    an int or a float, stored as the int or float checked_int or
    checked_real reads from the value given."""

    short_cap_frames: int = 4
    mid_cap_frames: int = 16
    token_budget: int = 2048
    keep_fraction: float = 0.5
    semantic_weight: float = 1.0
    scene_threshold: float = 0.8
    grid_size: int = 4
    long_quota_per_frame: int = 16
    tokens_per_frame_max: int = 512

    def __post_init__(self):
        for f in fields(self):
            read = checked_int if isinstance(f.default, int) else checked_real
            try:
                value = read(getattr(self, f.name), f.name)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from exc
            if read is checked_int and value < 1:
                raise ConfigError(f"{f.name} must be a positive integer, got {value}")
            object.__setattr__(self, f.name, value)
        if not (0.0 < self.keep_fraction <= 1.0):
            raise ConfigError(f"keep_fraction must be in (0, 1], got {self.keep_fraction}")
        if not self.semantic_weight >= 0.0:
            raise ConfigError(f"semantic_weight must be >= 0, got {self.semantic_weight}")
        if not (-1.0 < self.scene_threshold < 1.0):
            raise ConfigError(
                f"scene_threshold must be in (-1, 1), got {self.scene_threshold}"
            )
        # The recent FIFO is never forgotten, so it must fit the budget.
        if self.short_cap_frames * self.tokens_per_frame_max > self.token_budget:
            raise ConfigError(
                f"short_cap_frames * tokens_per_frame_max = "
                f"{self.short_cap_frames * self.tokens_per_frame_max} exceeds "
                f"token_budget = {self.token_budget}"
            )

    @classmethod
    def from_file(cls, path) -> "TierConfig":
        """JSON config file; absent fields take the defaults above."""
        where = f"config file {path}:"
        with open(path, "rb") as fh:
            doc = json_object(fh.read(), where, ConfigError, [f.name for f in fields(cls)])
        try:
            return cls(**doc)
        except ConfigError as exc:
            raise ConfigError(f"{where} {exc}") from exc

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IngestReport:
    """What one ingest did: drops per stage and the resulting occupancy."""

    frame_index: int
    timestamp: float
    scene_boundary: bool
    pooled_score: float
    tokens_in: int
    dropped_temporal: int
    dropped_spatial: int
    dropped_budget: int
    short_frames: int
    mid_frames: int
    long_frames: int
    short_tokens: int
    mid_tokens: int
    long_tokens: int
    total_tokens: int

    def to_json_dict(self) -> dict:
        return asdict(self)


class EvictionReport:
    """Tokens removed by budget enforcement.

    The report holds each tier's victims, the long tier's first, as three
    columns: frame indices, token positions within the frame at call time,
    and scores. The positions may be given as a function that computes
    them, which the first read of evicted calls. The columns, and what the
    function reads, are arrays that nothing writes again, so later ingests
    leave the report as it was. count reads the frame indices. evicted
    lists the victims as (frame_index, position, score) tuples in eviction
    order: the long tier's, then the mid tier's, each by ascending score,
    then frame, then position. The tuples are sorted and built on the
    first read of evicted, and kept; equality, hashing and to_json_dict
    read them.
    """

    def __init__(self, *tiers: tuple[np.ndarray, np.ndarray | Callable[[], np.ndarray],
                                     np.ndarray]):
        self._tiers = tiers

    @property
    def count(self) -> int:
        return sum(len(frames) for frames, _, _ in self._tiers)

    @functools.cached_property
    def evicted(self) -> tuple[tuple[int, int, float], ...]:
        evicted = []
        for frames, positions, scores in self._tiers:
            if callable(positions):
                positions = positions()
            order = np.lexsort((positions, frames, scores))
            evicted += zip(frames[order].tolist(), positions[order].tolist(),
                           scores[order].tolist())
        return tuple(evicted)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvictionReport):
            return NotImplemented
        return self.evicted == other.evicted

    def __hash__(self) -> int:
        return hash(self.evicted)

    def __repr__(self) -> str:
        return f"EvictionReport(evicted={self.evicted!r})"

    def to_json_dict(self) -> dict:
        return {"evicted": [[f, i, s] for f, i, s in self.evicted]}


@dataclass(frozen=True, eq=False)
class MemorySnapshot:
    """Immutable view of all tiers at a freeze point; only
    TieredMemory.freeze makes one.

    Beside the short tier it holds what freeze shares: the long and the
    mid table's columns and sizes (_columns, in ascending frame order) and
    the records of the memory's pages, none of whose frames or rows is
    written again, and the pages' live flags as they stood (alive[k] for
    pages[k]); no table of the memory's. The
    read-only views of the tables' frames (tables, (ints, floats) pairs)
    are made on first access, and the mid and long entries are read from
    them on first access and kept. A frame unchanged since the freeze
    reads the entry its page keeps (_Page.entries), the memory's own; one
    trimmed or moved since is built from the snapshot's flags. A query
    reads neither, as score_candidates reads _columns. Every array a
    snapshot hands out is read-only.
    """

    short: tuple[FrameEntry, ...]
    freeze_timestamp: float
    config: TierConfig
    _columns: tuple[tuple[np.ndarray, np.ndarray, int], ...] = field(repr=False, compare=False)
    pages: tuple[_Page, ...] = field(repr=False, compare=False)
    alive: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @functools.cached_property
    def tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only views of the long, then the mid table's frames as they
        stood at the freeze, as (ints, floats) pairs."""
        return tuple([(seal(ints[:, :size]), seal(floats[:, :size]))
                      for ints, floats, size in self._columns])

    @functools.cached_property
    def _by_id(self) -> tuple[dict[int, _Page], dict[int, np.ndarray]]:
        """The pages' records and their live flags as they stood, by page id."""
        ids = [page.id for page in self.pages]
        return dict(zip(ids, self.pages)), dict(zip(ids, self.alive))

    @functools.cached_property
    def long(self) -> tuple[FrameEntry, ...]:
        return _entries(*self.tables[0], *self._by_id)

    @functools.cached_property
    def mid(self) -> tuple[FrameEntry, ...]:
        return _entries(*self.tables[1], *self._by_id)

    def _key(self) -> tuple:
        return self.short, self.mid, self.long, self.freeze_timestamp, self.config

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemorySnapshot):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def all_frames(self) -> tuple[FrameEntry, ...]:
        """Every retained frame in ascending frame order."""
        return self.long + self.mid + self.short

    @property
    def total_tokens(self) -> int:
        return sum(e.token_count for e in self.all_frames())


def encode_tokens(
    frame_index: int, timestamp: float, raw_tokens: Iterable[tuple], bank: ProbeBank, *,
    alloc: Callable[[int], np.ndarray] | None = None,
) -> FrameEntry:
    """Normalize and score a frame's tokens into a FrameEntry.

    raw_tokens is a traceio.TokenColumns, read by its columns alone, or
    (vector, row, col) triples, stacked once by TokenColumns.of. The frame
    is normalized once, by unit_rows, and its stored rows are then scored
    by max_sim_rows: each row's best probe product over its own norm,
    from a probe product in fixed blocks of SALIENCE_BLOCK_ROWS rows on
    the BLAS where its self-check holds. Both kernels are batch-invariant,
    so every stored score equals max_sim of its stored row bit for bit,
    and a token scores the same alone as inside its frame. Token vectors
    must be 1-D, of one length, the bank's dimension (DimensionError),
    and real numbers (ValidationError).

    alloc, if given, is called with the number of tokens and returns the
    (n, dim) float64 array the vectors are cast into and normalized in;
    the entry's token_matrix is that array, made read-only.

    The entry is built once, from the columns, with the checks FrameEntry
    makes of columns it is given: frame_index an integer (ValidationError),
    timestamp a finite real number, grid coordinates as traceio.coords
    reads them, frame_index non-negative and the scores finite.
    """
    tokens = TokenColumns.of(raw_tokens)
    n = len(tokens)
    if not n:
        raise EmptyFrame(f"frame {frame_index} has no tokens")
    if tokens.vectors.shape[1] != bank.dim:
        raise DimensionError(f"vector has dimension {tokens.vectors.shape[1]}, bank has {bank.dim}")
    units = seal(unit_rows(tokens.vectors, out=None if alloc is None else alloc(n)))
    scores = seal(max_sim_rows(units, bank))
    frame_index = checked_int(frame_index, "frame_index")
    timestamp = checked_real(timestamp, "timestamp")
    # Read-only int64 columns: the same arrays when they are, else new ones.
    rows = seal(tokens.rows.astype(np.int64, copy=False))
    cols = seal(tokens.cols.astype(np.int64, copy=False))
    if frame_index < 0:
        raise ValidationError("frame_index must be non-negative")
    # Scores are clipped to [-1, 1], so only a NaN makes their sum not finite.
    if math.isnan(np.add.reduce(scores)):
        raise ValidationError(f"frame {frame_index}: token scores must be finite")
    return FrameEntry._of(frame_index=frame_index, timestamp=timestamp, token_matrix=units,
                          scores=scores, rows=rows, cols=cols, scene_boundary=False)


def is_scene_boundary(
    frame: FrameEntry, prev: FrameEntry | None, config: TierConfig, *,
    float32: Callable[[np.ndarray], np.ndarray] | None = None,
) -> bool:
    """A frame starts a scene if it has no predecessor or sits far from it.

    Distance is the mean over the frame's tokens of the max cosine against
    the previous frame's tokens, compared to the configured threshold. Only
    its side of the threshold matters, so one pooled_max_sim_units call
    screens it in float32: over a strided sample of the previous frame's
    rows, whose lower bound settles a frame that continues the scene; then
    over all of them, for the frame's least similar rows first, until an
    upper bound settles a frame that starts a scene, or for every row. It
    computes the mean exactly only near the threshold.
    float32, if given, makes that call's float32 casts.
    """
    if prev is None:
        return True
    threshold = config.scene_threshold
    similarity = pooled_max_sim_units(frame.token_matrix, prev.token_matrix,
                                      near=threshold, float32=float32)
    return similarity < threshold


def _grid_keys(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One integer per grid position; coordinates are at most MAX_COORD."""
    return rows * (MAX_COORD + 1) + cols


def temporal_semantic_prune(
    frame: FrameEntry, reference: FrameEntry | None, config: TierConfig, alloc=None,
) -> FrameEntry:
    """Compress a frame leaving the recent FIFO.

    Scene-boundary frames pass through whole. Otherwise each token's
    redundancy is its cosine to the reference token at the same spatial
    position (the first such token; 0 when absent), the keep-score is
    (1 - redundancy) plus semantic_weight times the token's salience, and
    the top ceil(keep_fraction * n) tokens by keep-score survive. Ties
    keep the lower token position. Embeddings and scores pass through
    unchanged; alloc is passed on to FrameEntry.take.

    An encoder emits one patch grid for a stream, so the frame and its
    reference usually have the same rows and cols columns, in raster order.
    Where they do and the grid keys strictly increase (each position once),
    token i aligns with the reference's token i, and the cosines are taken
    on the reference's rows where they lie, with the same bits. Any other
    layout looks each position up in the reference's sorted keys and
    gathers the aligned rows.
    """
    if frame.scene_boundary:
        return frame
    n = frame.token_count
    keep = math.ceil(config.keep_fraction * n)
    if keep >= n:
        return frame
    if reference is None:
        redundancy = np.zeros(n)
    else:
        keys = _grid_keys(frame.rows, frame.cols)
        # Both frames' coordinates are int64 columns, so equal bytes are equal grids.
        if (frame.rows.tobytes() == reference.rows.tobytes()
                and frame.cols.tobytes() == reference.cols.tobytes()
                and np.greater(keys[1:], keys[:-1]).all()):
            # One grid, each position once: token i's reference token is the
            # reference's token i, so the rows align where they lie.
            redundancy = np.einsum("ij,ij->i", frame.token_matrix, reference.token_matrix)
        else:
            redundancy = np.zeros(n)
            ref_keys, first = np.unique(_grid_keys(reference.rows, reference.cols),
                                        return_index=True)
            slot = np.minimum(np.searchsorted(ref_keys, keys), len(ref_keys) - 1)
            hit = ref_keys[slot] == keys
            aligned = reference.token_matrix[first[slot[hit]]]
            # The einsum takes each row alone, so the rows that hit need no
            # gather when they are all of them.
            tokens = frame.token_matrix if hit.all() else frame.token_matrix[hit]
            redundancy[hit] = np.einsum("ij,ij->i", tokens, aligned)
        # np.clip's bits, without its wrapper.
        np.minimum(redundancy, 1.0, out=redundancy)
        np.maximum(redundancy, -1.0, out=redundancy)
    # Descending keep-score (1 - redundancy) + semantic_weight * salience:
    # rounding is symmetric under negation, so these are its negations, but
    # for the sign of a zero, which no comparison sees.
    ranked = ((redundancy - 1.0) - config.semantic_weight * frame.scores).argsort(kind="stable")
    kept = ranked[:keep]
    kept.sort()
    return frame.take(kept, alloc)


def spatial_semantic_select(frame: FrameEntry, config: TierConfig, alloc=None) -> FrameEntry:
    """Compress a frame leaving the mid tier.

    Tokens are bucketed into a grid_size x grid_size grid (coordinates
    scaled by each axis's extent within the frame). The best token per
    non-empty cell is taken first; if that exceeds the long-tier quota the
    cell winners are cut by salience rank, otherwise the remaining slots
    are filled by salience over the leftovers. Ties keep the lower token
    position. alloc is passed on to FrameEntry.take. A frame of at most
    quota tokens is kept whole.

    Each cell's winner is found by sorting, not by a table of cells:
    grid_size may be up to 2**62 and coordinates up to MAX_COORD, so a
    frame's cells may number about 2**32.
    """
    n = frame.token_count
    quota = config.long_quota_per_frame
    if quota >= n:
        return frame
    grid = config.grid_size
    rows, cols = frame.rows, frame.cols
    extent_r = int(np.maximum.reduce(rows)) + 1
    extent_c = int(np.maximum.reduce(cols)) + 1
    # A grid at least as fine as an axis's extent gives each coordinate a
    # cell of its own, so capping it there groups tokens the same way and
    # keeps the products small.
    cell_r = rows * min(grid, extent_r) // extent_r
    cell_c = cols * min(grid, extent_c) // extent_c
    # Salience rank, ties to the lower position: a cell's first token in
    # this order is its winner. A stable sort of the cells in rank order
    # keeps each cell's tokens in rank order, so the winners are the heads
    # of its runs.
    ranked = (-frame.scores).argsort(kind="stable")
    cells = _grid_keys(cell_r, cell_c)[ranked]
    by_cell = cells.argsort(kind="stable")
    runs = cells[by_cell]
    is_winner = np.empty(n, dtype=bool)
    is_winner[by_cell[0]] = True
    is_winner[by_cell[1:]] = runs[1:] != runs[:-1]
    # The winners in rank order, then the leftovers in rank order: the
    # quota takes the best winners, or every winner and the best leftovers.
    chosen = np.concatenate((ranked[is_winner], ranked[~is_winner]))[:quota]
    chosen.sort()
    return frame.take(chosen, alloc)


# Frame indices and the index after the newest one are hashed as int64.
MAX_FRAME_INDEX = 2**63 - 2


def _refs(items: list, k: int) -> int:
    """sys.getrefcount of items[k]."""
    return sys.getrefcount(items[k])


# An object nothing but this list refers to: what _refs reads for it is what
# it reads for any item only its list refers to. It is read at each use, just
# before and just after the count it is compared with, as an interpreter may
# borrow some of the references a call takes, and may start to borrow them
# once it has specialized the call.
_ALONE = [object()]


def _entry(ints: np.ndarray, floats: np.ndarray, slot: int, pages: dict[int, _Page],
           flags: dict[int, np.ndarray] | None = None) -> FrameEntry:
    """The entry of the frame at slot of a tier's ints and floats; pages
    maps a page id to its record, and flags, if given, to its live flags
    as a snapshot keeps them (else the page's own are read). The entry the
    page keeps for the frame is returned where it was built for the
    frame's count; else one is built, and kept unless the kept one has a
    lower count, a later state, which the memory reads next. While all
    the rows of the frame's span are live, its columns are views of the
    page's; else its live rows are gathered."""
    frame_index, count, page_id, start, span, boundary = ints[:, slot].tolist()
    page = pages[page_id]
    kept = page.entries.get(start)
    # A kept entry's token_count, read off its scores without the property's call.
    if kept is not None and kept.scores.shape[0] == count:
        return kept
    columns = (page.rows, page.scores, page.grid_rows, page.grid_cols)
    if count == span:
        columns = [column[start:start + span] for column in columns]
    else:
        alive = page.alive if flags is None else flags[page_id]
        rows = start + alive[start:start + span].nonzero()[0]
        columns = [column.take(rows, axis=0) for column in columns]
    matrix, scores, rows, cols = map(seal, columns)
    entry = FrameEntry._of(frame_index=frame_index, timestamp=floats.item(0, slot),
                           scene_boundary=bool(boundary), token_matrix=matrix,
                           scores=scores, rows=rows, cols=cols)
    if kept is None or count < kept.scores.shape[0]:
        page.entries[start] = entry
    return entry


def _entries(ints: np.ndarray, floats: np.ndarray, pages: dict[int, _Page],
             flags: dict[int, np.ndarray] | None = None) -> tuple[FrameEntry, ...]:
    """Every entry of a tier's ints and floats, oldest first, as _entry reads them."""
    return tuple([_entry(ints, floats, slot, pages, flags) for slot in range(ints.shape[1])])


class TieredMemory:
    """Mutable streaming memory; single writer, frozen for reads.

    The memory owns its tiers. Callers read them as tuples; inside, every
    change to a tier goes through _push, _pop_oldest or selective_forget.
    The mid and long frames' rows live in one RowStore, beside each
    token's score, grid position and live flag, and each of the two tiers
    keeps a FrameTable that says where they lie and keeps the tier's token
    total (FrameTable.tokens); the memory counts only the short tier's
    tokens itself. A token leaves the mid or long tier only through its
    table's removals, which kill its row: pop_oldest on a demotion, and
    evict or drop in forget. An evicted token's frame is trimmed in place:
    its row's live flag is cleared and the frame's count lowered, so the
    frame's tokens are the live rows of its span. A frame's entry is kept
    on the page that holds its rows (_Page.entries) from its push on, and
    built from the rows when first read after a trim or a move; while all
    of a frame's rows are live, its token_matrix is a read-only view of
    them. As rows are never rewritten, that cache has nothing to
    invalidate, and a snapshot shares it through the pages it holds.
    RowStore.compact changes only where rows lie: it moves the live rows
    of the page with the most dead rows. Once forget first ranks a tier,
    its table also keeps the tier's lowest tokens in eviction order
    (FrameTable.low), which pushes, demotions and moves keep up to date,
    until the whole tier is dropped.

    The memory also owns two kinds of ingest buffers, which grow to the
    frames seen and are then reused: two float32 casts for the screen
    (_float32), and a pool of at most short_cap_frames + 2 buffers
    (_frame_rows) that new short frames write their unit rows into. A
    pooled buffer is reused only when nothing but the pool refers to it,
    so a snapshot, an entry or a view of its rows held elsewhere keeps its
    bytes, and a snapshot released after its frames left the short tier
    frees no frame-sized array.
    """

    def __init__(self, config: TierConfig, bank: ProbeBank):
        self.config = config
        self.bank = bank
        self.dim = bank.dim
        self._short: list[FrameEntry] = []
        self._short_tokens = 0
        self._rows = RowStore(self.dim)
        self._tables = {"mid": FrameTable(), "long": FrameTable()}
        self._alloc = {name: functools.partial(self._rows.alloc, group=name)
                       for name in self._tables}
        self.gate_stats = GateState()
        self._last_timestamp: float | None = None
        self._next_frame_index = 0
        self._frozen = False
        self._cast32: tuple[np.ndarray, np.ndarray] | None = None
        self._buffers32 = (np.empty((0, self.dim), dtype=np.float32),) * 2
        self._frame_pool: list[np.ndarray] = []

    @classmethod
    def from_tiers(
        cls, config: TierConfig, bank: ProbeBank, *, short: Iterable[FrameEntry] = (),
        mid: Iterable[FrameEntry] = (), long: Iterable[FrameEntry] = (),
    ) -> "TieredMemory":
        """A memory holding the given frames unchanged, each tier oldest
        first, for test and analysis states. Every counter is derived from
        the frames: each tier's tokens, the next frame index (one past the
        highest held) and the last timestamp. The gate statistics start empty.

        Every frame must have the bank's dimension (DimensionError), and
        unit or zero embedding rows, as ingest makes them: each row's
        float64 squared norm 0 or within vecspace.unit_margin of 1
        (ValidationError), since the scores and the scene screen read rows
        as unit vectors. The frame indices must strictly ascend across
        long, then mid, then short (ValidationError), as they do in a
        memory built by ingest. The mid and long frames' rows are copied
        into the row store's pages, so those tiers hold the same frames
        read from their new rows.
        """
        tiers = {"short": tuple(short), "mid": tuple(mid), "long": tuple(long)}
        held = tiers["long"] + tiers["mid"] + tiers["short"]
        margin = unit_margin(bank.dim)
        for entry in held:
            matrix = entry.token_matrix
            if matrix.shape[1] != bank.dim:
                raise DimensionError(f"frame {entry.frame_index} has dimension "
                                     f"{matrix.shape[1]}, bank has {bank.dim}")
            squares = np.einsum("ij,ij->i", matrix, matrix)
            unit = (squares == 0.0) | (np.abs(squares - 1.0) <= margin)
            if not unit.all():
                raise ValidationError(
                    f"frame {entry.frame_index}: embedding rows must be unit vectors or zero; "
                    f"a row's squared norm is {float(squares[~unit][0])!r}")
        for older, newer in zip(held, held[1:]):
            if newer.frame_index <= older.frame_index:
                raise ValidationError(
                    f"frame {newer.frame_index} follows frame {older.frame_index}; frame "
                    f"indices must strictly ascend across long, mid and short")
        mem = cls(config, bank)
        for name, entries in tiers.items():
            for entry in entries:
                mem._push(name, entry)
        mem._next_frame_index = max((e.frame_index + 1 for e in held), default=0)
        mem._last_timestamp = max((e.timestamp for e in held), default=None)
        return mem

    short = property(lambda self: tuple(self._short),
                     doc="The short tier's frames, oldest first, as a read-only tuple.")
    mid = property(lambda self: self._tier("mid"),
                   doc="The mid tier's frames, oldest first, as a read-only tuple.")
    long = property(lambda self: self._tier("long"),
                    doc="The long tier's frames, oldest first, as a read-only tuple.")

    @property
    def total_tokens(self) -> int:
        return self._short_tokens + self._tables["mid"].tokens + self._tables["long"].tokens

    @property
    def tier_tokens(self) -> dict[str, int]:
        """Tokens held by each tier, keyed "short", "mid" and "long"."""
        return {"short": self._short_tokens, "mid": self._tables["mid"].tokens,
                "long": self._tables["long"].tokens}

    @property
    def row_store(self) -> RowStore:
        """The store that holds the mid and long frames' rows."""
        return self._rows

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def last_timestamp(self) -> float | None:
        return self._last_timestamp

    def recount_tokens(self) -> int:
        """Recount from the tiers' frames; must always equal total_tokens."""
        return sum(e.token_count for tier in (self.short, self.mid, self.long) for e in tier)

    def _tier(self, name: str) -> tuple[FrameEntry, ...]:
        table = self._tables[name]
        return _entries(table.ints[:, :table.size], table.floats[:, :table.size], self._rows.pages)

    def _push(self, name: str, entry: FrameEntry) -> None:
        """Append entry as the tier's newest frame. A mid or long frame's
        rows are held in the row store, with its scores and grid columns:
        the arrays the store's last alloc gave out are committed in place,
        others are copied in. Its page keeps the entry."""
        if name == "short":
            self._short.append(entry)
            self._short_tokens += entry.token_count
        else:
            view, page, start = self._rows.add(entry.token_matrix, name, scores=entry.scores,
                                               grid_rows=entry.rows, grid_cols=entry.cols)
            if view is not entry.token_matrix:
                entry = entry._with(token_matrix=view)
            self._rows.pages[page].entries[start] = entry
            self._tables[name].append(entry.frame_index, entry.scores, page, start,
                                      entry.scene_boundary, entry.timestamp)

    def _pop_oldest(self, name: str) -> FrameEntry:
        """Remove and return the tier's oldest frame. A mid or long frame's
        entry is read before its table kills its rows, which can release
        its page."""
        if name == "short":
            entry = self._short.pop(0)
            self._short_tokens -= entry.token_count
        else:
            table = self._tables[name]
            entry = _entry(table.ints, table.floats, 0, self._rows.pages)
            table.pop_oldest(self._rows)
        return entry

    def _float32(self, matrix: np.ndarray) -> np.ndarray:
        """matrix cast to float32, for the scene-boundary screen. The last
        cast made, the newest frame's, is kept, and the next ingest reuses
        it while that frame's rows are still short[-1]'s: the screen asks
        for the previous frame's cast first. Casts are written in turn into
        two buffers that grow to the longest frame, so the one kept is not
        overwritten and a cast allocates nothing once they have grown."""
        kept = self._cast32
        if kept is not None and kept[0] is matrix:
            return kept[1]
        spare, last = self._buffers32
        if spare.shape[0] < matrix.shape[0]:
            spare = np.empty(matrix.shape, dtype=np.float32)
        self._buffers32 = (last, spare)
        cast = spare[:matrix.shape[0]]
        np.copyto(cast, matrix, casting="same_kind")
        self._cast32 = (matrix, cast)
        return cast

    def _frame_rows(self, n: int) -> np.ndarray:
        """A writable (n, dim) array for a new short frame's unit rows: the
        head of a free buffer of the pool, or of a new one. A buffer is free
        when the pool holds the only reference to it, as every view of it,
        such as a frame's token_matrix or a slice of one, refers to it. The
        pool keeps at most short_cap_frames + 2 buffers: the short frames,
        the new one, and the one a snapshot taken before the last demotion
        may still hold. A free buffer too short for n rows is replaced; with
        none free and the pool full, the array is one the pool does not keep.
        """
        pool = self._frame_pool
        short_one = None
        for k in range(len(pool)):
            if _refs(_ALONE, 0) == _refs(pool, k) == _refs(_ALONE, 0):
                if pool[k].shape[0] >= n:
                    return pool[k][:n]
                short_one = k
        rows = np.empty((n, self.dim))
        if short_one is not None:
            pool[short_one] = rows
        elif len(pool) < self.config.short_cap_frames + 2:
            pool.append(rows)
        # A view, which the caller may make read-only, as it does not own its rows.
        return rows[:n]

    def ingest_frame(
        self, timestamp: float, raw_tokens: Sequence[tuple], *, frame_index: int | None = None
    ) -> IngestReport:
        """Push one frame through the pipeline; returns what happened.

        raw_tokens is a traceio.TokenColumns, such as a RawFrame, or a
        sequence of (vector, spatial_row, spatial_col) triples, which
        encode_tokens stacks once. Timestamps must be
        strictly increasing; the frame must be non-empty and within the
        per-frame token cap. frame_index is the
        frame's identity in the caller's trace; given indices must be
        non-negative and strictly increasing, and a frame without one takes
        the index after the previous frame's.
        """
        if self._frozen:
            raise FrozenMemory("memory is frozen; thaw before ingesting")
        ts = checked_real(timestamp, "timestamp")
        if self._last_timestamp is not None and ts <= self._last_timestamp:
            raise NonMonotoneTimestamp(
                f"timestamp {ts} does not advance past {self._last_timestamp}"
            )
        index = (self._next_frame_index if frame_index is None
                 else checked_int(frame_index, "frame_index"))
        if not self._next_frame_index <= index <= MAX_FRAME_INDEX:
            raise ValidationError(
                f"frame_index {index} is outside [{self._next_frame_index}, {MAX_FRAME_INDEX}]; "
                f"frame indices are non-negative and strictly increasing"
            )
        # Counted before encode_tokens stacks triples.
        tokens = raw_tokens if isinstance(raw_tokens, TokenColumns) else list(raw_tokens)
        n = len(tokens)
        if not n:
            raise EmptyFrame("a frame must carry at least one token")
        if n > self.config.tokens_per_frame_max:
            raise FrameTooLarge(
                f"{n} tokens exceeds tokens_per_frame_max = {self.config.tokens_per_frame_max}"
            )

        entry = encode_tokens(index, ts, tokens, self.bank, alloc=self._frame_rows)
        short, mid, long = self._short, self._tables["mid"], self._tables["long"]
        prev = short[-1] if short else None
        # encode_tokens leaves the flag False.
        if is_scene_boundary(entry, prev, self.config, float32=self._float32):
            entry = entry._with(scene_boundary=True)
        self._push("short", entry)
        self._last_timestamp = ts
        self._next_frame_index = index + 1
        pooled = entry.pooled_score
        self.gate_stats = update_gate(self.gate_stats, pooled)

        dropped_temporal = 0
        while len(short) > self.config.short_cap_frames:
            oldest = self._pop_oldest("short")
            reference = short[-1] if short else None
            kept = temporal_semantic_prune(oldest, reference, self.config, self._alloc["mid"])
            dropped_temporal += oldest.token_count - kept.token_count
            self._push("mid", kept)

        dropped_spatial = 0
        while mid.size > self.config.mid_cap_frames:
            oldest = self._pop_oldest("mid")
            kept = spatial_semantic_select(oldest, self.config, self._alloc["long"])
            dropped_spatial += oldest.token_count - kept.token_count
            self._push("long", kept)

        eviction = selective_forget(self)
        self._rows.compact(self._tables)
        # Every field is made here, as in freeze.
        return assembled(
            IngestReport,
            frame_index=index,
            timestamp=ts,
            scene_boundary=entry.scene_boundary,
            pooled_score=pooled,
            tokens_in=n,
            dropped_temporal=dropped_temporal,
            dropped_spatial=dropped_spatial,
            dropped_budget=eviction.count,
            short_frames=len(short),
            mid_frames=mid.size,
            long_frames=long.size,
            short_tokens=self._short_tokens,
            mid_tokens=mid.tokens,
            long_tokens=long.tokens,
            total_tokens=self._short_tokens + mid.tokens + long.tokens,
        )

    def freeze(self, at: float | None = None) -> MemorySnapshot:
        """Produce an immutable snapshot and block ingest until thawed.

        `at` stamps the snapshot's freeze time; it defaults to the last
        ingest timestamp (0.0 for a never-written memory) and may not
        precede any ingested frame. The snapshot holds the frame tables'
        columns and sizes, and the pages and live flags as they stand, and
        makes no view and builds no entry; no table writes those frames
        again, and the memory writes to copies of the flags it changes later.
        """
        if at is None:
            freeze_ts = self._last_timestamp if self._last_timestamp is not None else 0.0
        else:
            freeze_ts = checked_real(at, "freeze time")
            if self._last_timestamp is not None and freeze_ts < self._last_timestamp:
                raise NonMonotoneTimestamp(
                    f"freeze time {freeze_ts} precedes last ingest {self._last_timestamp}"
                )
        self._frozen = True
        pages, alive = self._rows.share()
        long, mid = self._tables["long"], self._tables["mid"]
        # Every field is made here, so the generated __init__ and its
        # frozen-field stores are skipped, as FrameEntry._of skips them.
        return assembled(
            MemorySnapshot,
            short=tuple(self._short),
            freeze_timestamp=freeze_ts,
            config=self.config,
            # The long, then the mid table: ascending frame order.
            _columns=((long.ints, long.floats, long.size), (mid.ints, mid.floats, mid.size)),
            pages=pages,
            alive=alive,
        )

    def thaw(self) -> None:
        """Re-enable ingest after a freeze."""
        self._frozen = False

    def state_digest(self) -> str:
        """SHA-256 over the full state; equal digests mean equal states."""
        h = hashlib.sha256()
        h.update(json.dumps(self.config.to_json_dict(), sort_keys=True).encode())
        h.update(struct.pack("<dddq", self.gate_stats.ema, GATE_DECAY, GATE_FLOOR,
                             self.gate_stats.observations))
        h.update(struct.pack("<qq", self.total_tokens, self._next_frame_index))
        for tier in (self.short, self.mid, self.long):
            h.update(struct.pack("<q", len(tier)))
            for entry in tier:
                h.update(struct.pack("<qd?q", entry.frame_index, entry.timestamp,
                                     entry.scene_boundary, entry.token_count))
                for column in (entry.rows, entry.cols, entry.scores, entry.token_matrix):
                    h.update(column.tobytes())
        return h.hexdigest()


def new_memory(config: TierConfig, bank: ProbeBank) -> TieredMemory:
    """Fresh empty memory, of the bank's dimension."""
    return TieredMemory(config, bank)


def selective_forget(mem: TieredMemory) -> EvictionReport:
    """Evict lowest-salience tokens until the budget holds.

    Eviction drains the long tier first and cascades to the mid tier;
    the recent FIFO is never touched. Ties are broken toward the older
    frame, then the lower token position. Frames emptied of all tokens
    are dropped from their tier.

    This is the policy alone; the tier's FrameTable does the removing. A
    tier whose token total (FrameTable.tokens) the overflow reaches goes
    whole, unranked (FrameTable.drop). A tier the overflow does not empty
    is ranked, at a cost that follows its victims, not its frames: they
    are the head of its table's low band (FrameTable.evict), which keeps
    the tier's lowest tokens in eviction order between ingests. Either
    way the victims' rows are killed, and no entry is built and no
    embedding row is written.

    The report holds each tier's victims as columns (see EvictionReport).
    A ranked tier's victims come in eviction order; their positions are
    counted, from their pages' live flags as they stood, when the report
    is first read. A whole tier's victims are sorted by the report when
    its tuples are first read.
    """
    budget = mem.config.token_budget
    overflow = mem.total_tokens - budget
    if overflow <= 0:
        return EvictionReport()
    short_tokens = mem._short_tokens
    if short_tokens > budget:
        raise BudgetUnsatisfiable(
            f"recent FIFO alone holds {short_tokens} tokens, budget is {budget}"
        )
    evicted = []  # each tier's (frames, positions, scores)
    for table in (mem._tables["long"], mem._tables["mid"]):
        held = table.tokens
        if overflow <= 0 or not held:
            continue
        if overflow >= held:  # the whole tier goes
            evicted.append(table.drop(mem._rows))
        else:
            evicted.append(table.evict(overflow, mem._rows))
        overflow -= held - table.tokens
    remaining = mem.total_tokens
    if remaining > budget:
        raise BudgetUnsatisfiable(f"budget {budget} unreachable; {remaining} tokens remain")
    return EvictionReport(*evicted)

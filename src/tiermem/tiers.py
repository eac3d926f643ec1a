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
import numbers
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

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
)
from .retrieval import GateState, update_gate
from .traceio import MAX_COORD, read_only, seal
from .vecspace import (
    FramePages,
    ProbeBank,
    RowStore,
    max_sim_rows,
    pooled_max_sim_units,
    unit_rows,
)


@dataclass(frozen=True, eq=False)
class TokenRecord:
    """One retained token, as a view into its frame's columns."""

    embedding: np.ndarray
    score: float
    frame_index: int
    spatial_row: int
    spatial_col: int


_COLUMNS = {"token_matrix": np.float64, "scores": np.float64, "rows": np.int64, "cols": np.int64}


def _column(values, dtype) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read a token column as {np.dtype(dtype)}: {exc}") from exc
    return read_only(arr)


def _statistics(scores: np.ndarray) -> dict:
    """A frame's derived fields, from its non-empty scores column.

    pooled_score has np.mean's bits: the same pairwise np.add.reduce,
    then one division by the count.
    """
    n = scores.shape[0]
    return {"token_count": n, "pooled_score": float(np.add.reduce(scores)) / n,
            "min_score": float(np.minimum.reduce(scores))}


@dataclass(frozen=True, eq=False)
class FrameEntry:
    """A frame's surviving tokens as four read-only columns, plus metadata.

    Row i of token_matrix is token i's unit embedding, scores[i] its
    cached salience and (rows[i], cols[i]) its origin in the frame grid.
    Writable inputs are copied. token_count, pooled_score and min_score
    are derived from the columns at construction, so they can never drift
    out of sync with them.
    """

    frame_index: int
    timestamp: float
    token_matrix: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    scene_boundary: bool = False
    token_count: int = field(init=False)
    pooled_score: float = field(init=False)
    min_score: float = field(init=False)

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, _column(getattr(self, name), dtype))
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
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError(f"frame {self.frame_index}: token scores must be finite")
        for coords in (self.rows, self.cols):
            if coords.min() < 0 or coords.max() > MAX_COORD:
                raise ValidationError(f"spatial coordinates must be in [0, {MAX_COORD}]")
        vars(self).update(_statistics(self.scores))

    def _derived(self, scene_boundary: bool, columns: dict | None = None) -> "FrameEntry":
        """This frame with another scene-boundary flag, or with columns that
        are a non-empty subset of its rows.

        Rows taken from validated columns are still valid, so the checks of
        __post_init__ are not run again; the statistics are.
        """
        columns = columns or {name: getattr(self, name) for name in _COLUMNS}
        entry = object.__new__(FrameEntry)
        vars(entry).update(frame_index=self.frame_index, timestamp=self.timestamp,
                           scene_boundary=scene_boundary, **columns,
                           **_statistics(columns["scores"]))
        return entry

    def __len__(self) -> int:
        return self.token_count

    @property
    def tokens(self) -> tuple[TokenRecord, ...]:
        """Per-token views, built on each access; the pipeline never uses them."""
        return tuple(
            TokenRecord(embedding, score, self.frame_index, row, col)
            for embedding, score, row, col in zip(
                self.token_matrix, self.scores.tolist(), self.rows.tolist(), self.cols.tolist()
            )
        )

    def _moved(self, token_matrix: np.ndarray) -> "FrameEntry":
        """This frame with its embeddings read from another array of the same values."""
        entry = object.__new__(FrameEntry)
        vars(entry).update(vars(self), token_matrix=token_matrix)
        return entry

    def take(self, positions: np.ndarray, alloc=None) -> "FrameEntry":
        """Same frame, keeping the tokens at the given positions in that order.

        positions must be non-empty; each must index an existing token.
        alloc, if given, is called with the number of positions and returns
        the (n, dim) array the kept embeddings are gathered into, such as
        RowStore.alloc.
        """
        if len(positions) == 0:
            raise EmptyFrame(f"frame {self.frame_index}: take keeps no tokens")
        if alloc is None:
            matrix = self.token_matrix[positions]
        else:
            matrix = self.token_matrix.take(positions, axis=0, out=alloc(len(positions)),
                                            mode="clip")
        return self._derived(self.scene_boundary, {
            "token_matrix": seal(matrix), "scores": seal(self.scores[positions]),
            "rows": seal(self.rows[positions]), "cols": seal(self.cols[positions])})


@dataclass(frozen=True)
class TierConfig:
    """Capacities and compression knobs for one memory instance."""

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
        for name in (
            "short_cap_frames",
            "mid_cap_frames",
            "token_budget",
            "grid_size",
            "long_quota_per_frame",
            "tokens_per_frame_max",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("keep_fraction", "semantic_weight", "scene_threshold"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not (0.0 < self.keep_fraction <= 1.0):
            raise ConfigError(f"keep_fraction must be in (0, 1], got {self.keep_fraction}")
        if not (self.semantic_weight >= 0.0 and math.isfinite(self.semantic_weight)):
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
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: invalid JSON") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: expected a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"config file {path}: unknown fields {unknown}")
        return cls(**doc)

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


@dataclass(frozen=True)
class EvictionReport:
    """Tokens removed by budget enforcement, in eviction order.

    Each entry is (frame_index, token position within the frame at call
    time, score).
    """

    evicted: tuple[tuple[int, int, float], ...]

    @property
    def count(self) -> int:
        return len(self.evicted)

    def to_json_dict(self) -> dict:
        return {"evicted": [[f, i, s] for f, i, s in self.evicted]}


@dataclass(frozen=True)
class MemorySnapshot:
    """Immutable view of all tiers at a freeze point.

    pages holds the mid and long frames' rows and the table of where they
    lie, in ascending frame order. freeze hands over the memory's own pages,
    whose rows are never written again; a snapshot built without them packs
    its frames into pages on the first candidate_pages call.
    """

    short: tuple[FrameEntry, ...]
    mid: tuple[FrameEntry, ...]
    long: tuple[FrameEntry, ...]
    freeze_timestamp: float
    config: TierConfig
    pages: FramePages | None = field(default=None, repr=False, compare=False)

    def candidate_pages(self) -> FramePages:
        """The mid and long frames' rows in pages, in ascending frame order."""
        if self.pages is None:
            entries = sorted(self.long + self.mid, key=lambda e: e.frame_index)
            object.__setattr__(self, "pages", FramePages.pack(
                [e.token_matrix for e in entries], [e.frame_index for e in entries]))
        return self.pages

    def all_frames(self) -> tuple[FrameEntry, ...]:
        """Every retained frame in ascending frame order."""
        return self.long + self.mid + self.short

    @property
    def total_tokens(self) -> int:
        return sum(e.token_count for e in self.all_frames())

    @property
    def frame_count(self) -> int:
        return len(self.short) + len(self.mid) + len(self.long)


def encode_tokens(
    frame_index: int, timestamp: float, raw_tokens: Iterable[tuple], bank: ProbeBank
) -> FrameEntry:
    """Normalize and score raw (vector, row, col) triples into a FrameEntry.

    The frame is normalized and scored at once through the same
    batch-invariant kernels max_sim uses, on the re-normalized rows as
    max_sim sees them, so stored scores reproduce bit-exactly.
    """
    raw = list(raw_tokens)
    if not raw:
        raise EmptyFrame(f"frame {frame_index} has no tokens")
    vectors, rows, cols = zip(*raw)
    try:
        matrix = np.array(vectors, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"frame {frame_index}: token vectors differ in shape") from exc
    if matrix.ndim != 2:
        raise DimensionError(f"frame {frame_index}: token vectors must be 1-D")
    units = seal(unit_rows(matrix))
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(timestamp),
        token_matrix=units,
        scores=seal(max_sim_rows(unit_rows(units), bank)),
        rows=rows,
        cols=cols,
    )


def is_scene_boundary(
    frame: FrameEntry, prev: FrameEntry | None, config: TierConfig
) -> bool:
    """A frame starts a scene if it has no predecessor or sits far from it.

    Distance is the mean over the frame's tokens of the max cosine against
    the previous frame's tokens, compared to the configured threshold.
    """
    if prev is None:
        return True
    similarity = pooled_max_sim_units(frame.token_matrix, prev.token_matrix)
    return similarity < config.scene_threshold


def _grid_keys(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """One integer per grid position; coordinates are at most MAX_COORD."""
    return rows * (MAX_COORD + 1) + cols


def temporal_semantic_prune(
    frame: FrameEntry, reference: FrameEntry | None, config: TierConfig, alloc=None
) -> FrameEntry:
    """Compress a frame leaving the recent FIFO.

    Scene-boundary frames pass through whole. Otherwise each token's
    redundancy is its cosine to the reference token at the same spatial
    position (the first such token; 0 when absent), the keep-score is
    (1 - redundancy) plus semantic_weight times the token's salience, and
    the top ceil(keep_fraction * n) tokens by keep-score survive. Ties
    keep the lower token position. Embeddings and scores pass through
    unchanged; alloc is passed on to FrameEntry.take.
    """
    if frame.scene_boundary:
        return frame
    n = frame.token_count
    keep = math.ceil(config.keep_fraction * n)
    if keep >= n:
        return frame
    redundancy = np.zeros(n)
    if reference is not None:
        ref_keys, first = np.unique(_grid_keys(reference.rows, reference.cols), return_index=True)
        keys = _grid_keys(frame.rows, frame.cols)
        slot = np.minimum(np.searchsorted(ref_keys, keys), len(ref_keys) - 1)
        hit = ref_keys[slot] == keys
        aligned = reference.token_matrix[first[slot[hit]]]
        redundancy[hit] = np.clip(
            np.einsum("ij,ij->i", frame.token_matrix[hit], aligned), -1.0, 1.0
        )
    keep_scores = (1.0 - redundancy) + config.semantic_weight * frame.scores
    ranked = np.argsort(-keep_scores, kind="stable")
    return frame.take(np.sort(ranked[:keep]), alloc)


def spatial_semantic_select(frame: FrameEntry, config: TierConfig, alloc=None) -> FrameEntry:
    """Compress a frame leaving the mid tier.

    Tokens are bucketed into a grid_size x grid_size grid (coordinates
    scaled by each axis's extent within the frame). The best token per
    non-empty cell is taken first; if that exceeds the long-tier quota the
    cell winners are cut by salience rank, otherwise the remaining slots
    are filled by salience over the leftovers. Ties keep the lower token
    position. alloc is passed on to FrameEntry.take.
    """
    grid = config.grid_size
    quota = config.long_quota_per_frame
    extent_r = int(frame.rows.max()) + 1
    extent_c = int(frame.cols.max()) + 1
    # A grid at least as fine as an axis's extent gives each coordinate a
    # cell of its own, so capping it there groups tokens the same way and
    # keeps the products small.
    cell_r = frame.rows * min(grid, extent_r) // extent_r
    cell_c = frame.cols * min(grid, extent_c) // extent_c
    # Salience rank, ties to the lower position: a cell's first token in
    # this order is its winner, and winners come out already ranked.
    ranked = np.argsort(-frame.scores, kind="stable")
    _, first = np.unique(_grid_keys(cell_r, cell_c)[ranked], return_index=True)
    is_winner = np.zeros(frame.token_count, dtype=bool)
    is_winner[first] = True
    winners = ranked[is_winner][:quota]
    fill = ranked[~is_winner][: quota - len(winners)]
    if len(winners) + len(fill) == frame.token_count:
        return frame
    return frame.take(np.sort(np.concatenate([winners, fill])), alloc)


# Frame indices and the index after the newest one are hashed as int64.
MAX_FRAME_INDEX = 2**63 - 2


def _frame_index(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"frame_index must be an integer, got {value!r}")
    return int(value)


_TIER_NAMES = ("short", "mid", "long")


class _FrameTable:
    """A paged tier's frames as numpy columns, oldest first, in step with the
    tier's entries: frame_index, token_count, and the page id and first row
    of the frame's rows in the row store, as the rows of ints; min_score
    beside them.

    share() hands out the int columns as they stand, without a copy; the
    next change then writes to a copy of them.
    """

    def __init__(self):
        self.size = 0
        self.ints = np.empty((4, 64), dtype=np.int64)
        self.minima = np.empty(64)
        self._shared = False

    def share(self) -> np.ndarray:
        """The int columns as they stand, for a snapshot to keep."""
        self._shared = True
        return self.ints[:, :self.size]

    def _own(self) -> None:
        """Before a change: stop writing to columns a snapshot keeps."""
        if self._shared:
            self.ints = self.ints.copy()
            self._shared = False

    frame_index = property(lambda self: self.ints[0, :self.size])
    token_count = property(lambda self: self.ints[1, :self.size])
    page = property(lambda self: self.ints[2, :self.size])
    start = property(lambda self: self.ints[3, :self.size])
    min_score = property(lambda self: self.minima[:self.size])

    def put(self, slot: int, entry: FrameEntry, page: int, start: int) -> None:
        """Describe entry at slot; slot == size appends."""
        if slot == self.size:
            if slot == self.minima.shape[0]:
                self.ints = np.concatenate((self.ints, np.empty_like(self.ints)), axis=1)
                self.minima = np.concatenate((self.minima, np.empty_like(self.minima)))
                self._shared = False
            self.size += 1
        if self._shared:
            self._own()
        ints = self.ints
        ints[0, slot] = entry.frame_index
        ints[1, slot] = entry.token_count
        ints[2, slot] = page
        ints[3, slot] = start
        self.minima[slot] = entry.min_score

    def relocate(self, slots: np.ndarray, page: int, starts: np.ndarray) -> None:
        """The frames at slots now start at starts in the page."""
        self._own()
        self.ints[2, slots] = page
        self.ints[3, slots] = starts

    def delete(self, slot: int) -> None:
        self._own()
        last = self.size - 1
        self.ints[:, slot:last] = self.ints[:, slot + 1:last + 1]
        self.minima[slot:last] = self.minima[slot + 1:last + 1]
        self.size = last


def _tier_view(name: str) -> property:
    return property(lambda self: tuple(self._tiers[name]),
                    doc=f"The {name} tier's frames, oldest first, as a read-only tuple.")


class TieredMemory:
    """Mutable streaming memory; single writer, frozen for reads.

    The memory owns its tiers. Callers read them as tuples; inside, every
    change to a tier goes through _push, _pop_oldest or _replace, which
    update that tier's token count with its frames. The mid and long
    frames' rows live in one RowStore: each such entry's token_matrix is a
    read-only view of its rows in a page, and each of the two tiers keeps a
    _FrameTable that says where they lie. _compact changes only where rows
    lie: it replaces moved frames by the same frames read from their new rows.
    """

    def __init__(self, config: TierConfig, bank: ProbeBank, dim: int | None = None):
        if dim is not None and bank.dim != dim:
            raise DimensionError(f"bank dimension {bank.dim}, session dimension {dim}")
        self.config = config
        self.bank = bank
        self.dim = bank.dim if dim is None else int(dim)
        self._tiers: dict[str, list[FrameEntry]] = {name: [] for name in _TIER_NAMES}
        self._tier_tokens = dict.fromkeys(_TIER_NAMES, 0)
        self._rows = RowStore(self.dim)
        self._tables = {"mid": _FrameTable(), "long": _FrameTable()}
        self._alloc = {name: functools.partial(self._rows.alloc, group=name)
                       for name in self._tables}
        self.gate_stats = GateState()
        self._last_timestamp: float | None = None
        self._next_frame_index = 0
        self._frozen = False

    @classmethod
    def from_tiers(
        cls, config: TierConfig, bank: ProbeBank, *, short: Iterable[FrameEntry] = (),
        mid: Iterable[FrameEntry] = (), long: Iterable[FrameEntry] = (),
    ) -> "TieredMemory":
        """A memory holding the given frames unchanged, each tier oldest
        first, for test and analysis states. Every counter is derived from
        the frames: each tier's tokens, the next frame index (one past the
        highest held) and the last timestamp. The gate statistics start empty.

        Every frame must have the bank's dimension (DimensionError), and the
        frame indices must strictly ascend across long, then mid, then short
        (ValidationError), as they do in a memory built by ingest. The mid
        and long frames' rows are copied into the row store's pages, so
        those tiers hold the same frames read from their new rows.
        """
        tiers = {"short": tuple(short), "mid": tuple(mid), "long": tuple(long)}
        held = tiers["long"] + tiers["mid"] + tiers["short"]
        for entry in held:
            if entry.token_matrix.shape[1] != bank.dim:
                raise DimensionError(f"frame {entry.frame_index} has dimension "
                                     f"{entry.token_matrix.shape[1]}, bank has {bank.dim}")
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

    short = _tier_view("short")
    mid = _tier_view("mid")
    long = _tier_view("long")

    @property
    def total_tokens(self) -> int:
        return sum(self._tier_tokens.values())

    @property
    def tier_tokens(self) -> dict[str, int]:
        """Tokens held by each tier, keyed "short", "mid" and "long"."""
        return dict(self._tier_tokens)

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
        """Recount from the tiers; must always equal total_tokens."""
        return sum(e.token_count for tier in self._tiers.values() for e in tier)

    def _hold(self, name: str, slot: int, entry: FrameEntry) -> FrameEntry:
        """entry with its rows in the row store, described at slot of the
        tier's table; the rows the store's last alloc gave out are committed
        in place, other rows are copied in."""
        view, page, start = self._rows.add(entry.token_matrix, name)
        if view is not entry.token_matrix:
            entry = entry._moved(view)
        self._tables[name].put(slot, entry, page, start)
        return entry

    def _push(self, name: str, entry: FrameEntry) -> None:
        """Append entry as the tier's newest frame."""
        if name in self._tables:
            entry = self._hold(name, self._tables[name].size, entry)
        self._tiers[name].append(entry)
        self._tier_tokens[name] += entry.token_count

    def _pop_oldest(self, name: str) -> FrameEntry:
        """Remove and return the tier's oldest frame."""
        entry = self._tiers[name].pop(0)
        self._tier_tokens[name] -= entry.token_count
        if name in self._tables:
            table = self._tables[name]
            self._rows.kill(table.ints.item(2, 0), entry.token_count)
            table.delete(0)
        return entry

    def _replace(self, name: str, slot: int, entry: FrameEntry | None) -> None:
        """Put entry in place of the tier's frame at slot, or drop that frame
        if entry is None."""
        tier = self._tiers[name]
        table = self._tables.get(name)
        old = tier[slot]
        self._tier_tokens[name] -= old.token_count
        old_page = None if table is None else table.ints.item(2, slot)
        if entry is None:
            del tier[slot]
            if table is not None:
                table.delete(slot)
        else:
            if table is not None:
                entry = self._hold(name, slot, entry)
            tier[slot] = entry
            self._tier_tokens[name] += entry.token_count
        if old_page is not None:
            self._rows.kill(old_page, old.token_count)

    def _compact(self) -> None:
        """Move the frames of each crowded page, with one gather, into its
        tier's open page, and release it. Only where the rows lie changes."""
        while (crowded := self._rows.crowded()) is not None:
            page, name = crowded
            table = self._tables[name]
            slots = np.flatnonzero(table.page == page)
            counts = table.token_count[slots]
            new_page, start, run = self._rows.move(page, table.start[slots], counts)
            ends = np.cumsum(counts)
            table.relocate(slots, new_page, ends - counts + start)
            tier = self._tiers[name]
            lo = 0
            for slot, hi in zip(slots.tolist(), ends.tolist()):
                tier[slot] = tier[slot]._moved(run[lo:hi])
                lo = hi

    def ingest_frame(
        self, timestamp: float, raw_tokens: Sequence[tuple], *, frame_index: int | None = None
    ) -> IngestReport:
        """Push one frame through the pipeline; returns what happened.

        raw_tokens is a sequence of (vector, spatial_row, spatial_col).
        Timestamps must be strictly increasing; the frame must be
        non-empty and within the per-frame token cap. frame_index is the
        frame's identity in the caller's trace; given indices must be
        non-negative and strictly increasing, and a frame without one takes
        the index after the previous frame's.
        """
        if self._frozen:
            raise FrozenMemory("memory is frozen; thaw before ingesting")
        ts = float(timestamp)
        if not math.isfinite(ts):
            raise ValidationError(f"timestamp must be finite, got {ts}")
        if self._last_timestamp is not None and ts <= self._last_timestamp:
            raise NonMonotoneTimestamp(
                f"timestamp {ts} does not advance past {self._last_timestamp}"
            )
        index = self._next_frame_index if frame_index is None else _frame_index(frame_index)
        if not self._next_frame_index <= index <= MAX_FRAME_INDEX:
            raise ValidationError(
                f"frame_index {index} is outside [{self._next_frame_index}, {MAX_FRAME_INDEX}]; "
                f"frame indices are non-negative and strictly increasing"
            )
        raw = list(raw_tokens)
        if not raw:
            raise EmptyFrame("a frame must carry at least one token")
        if len(raw) > self.config.tokens_per_frame_max:
            raise FrameTooLarge(
                f"{len(raw)} tokens exceeds tokens_per_frame_max = "
                f"{self.config.tokens_per_frame_max}"
            )

        entry = encode_tokens(index, ts, raw, self.bank)
        short, mid, long = self._tiers.values()
        prev = short[-1] if short else None
        entry = entry._derived(is_scene_boundary(entry, prev, self.config))
        self._push("short", entry)
        self._last_timestamp = ts
        self._next_frame_index = index + 1
        self.gate_stats = update_gate(self.gate_stats, entry.pooled_score)

        dropped_temporal = 0
        while len(short) > self.config.short_cap_frames:
            oldest = self._pop_oldest("short")
            reference = short[-1] if short else None
            kept = temporal_semantic_prune(oldest, reference, self.config, self._alloc["mid"])
            dropped_temporal += oldest.token_count - kept.token_count
            self._push("mid", kept)

        dropped_spatial = 0
        while len(mid) > self.config.mid_cap_frames:
            oldest = self._pop_oldest("mid")
            kept = spatial_semantic_select(oldest, self.config, self._alloc["long"])
            dropped_spatial += oldest.token_count - kept.token_count
            self._push("long", kept)

        eviction = selective_forget(self)
        self._compact()
        tier_tokens = self._tier_tokens
        return IngestReport(
            frame_index=index,
            timestamp=ts,
            scene_boundary=entry.scene_boundary,
            pooled_score=entry.pooled_score,
            tokens_in=len(raw),
            dropped_temporal=dropped_temporal,
            dropped_spatial=dropped_spatial,
            dropped_budget=eviction.count,
            short_frames=len(short),
            mid_frames=len(mid),
            long_frames=len(long),
            short_tokens=tier_tokens["short"],
            mid_tokens=tier_tokens["mid"],
            long_tokens=tier_tokens["long"],
            total_tokens=self.total_tokens,
        )

    def freeze(self, at: float | None = None) -> MemorySnapshot:
        """Produce an immutable snapshot and block ingest until thawed.

        `at` stamps the snapshot's freeze time; it defaults to the last
        ingest timestamp (0.0 for a never-written memory) and may not
        precede any ingested frame.
        """
        if at is None:
            freeze_ts = self._last_timestamp if self._last_timestamp is not None else 0.0
        else:
            freeze_ts = float(at)
            if self._last_timestamp is not None and freeze_ts < self._last_timestamp:
                raise NonMonotoneTimestamp(
                    f"freeze time {freeze_ts} precedes last ingest {self._last_timestamp}"
                )
        self._frozen = True
        return MemorySnapshot(
            short=self.short,
            mid=self.mid,
            long=self.long,
            freeze_timestamp=freeze_ts,
            config=self.config,
            pages=self._frame_pages(),
        )

    def _frame_pages(self) -> FramePages:
        """The store's pages and the long, then mid, tables: ascending frame order."""
        return FramePages(self._rows.held(),
                          (self._tables["long"].share(), self._tables["mid"].share()))

    def thaw(self) -> None:
        """Re-enable ingest after a freeze."""
        self._frozen = False

    def state_digest(self) -> str:
        """SHA-256 over the full state; equal digests mean equal states."""
        h = hashlib.sha256()
        h.update(json.dumps(self.config.to_json_dict(), sort_keys=True).encode())
        h.update(struct.pack("<dddq", self.gate_stats.ema, self.gate_stats.decay,
                             self.gate_stats.floor, self.gate_stats.observations))
        h.update(struct.pack("<qq", self.total_tokens, self._next_frame_index))
        for tier in self._tiers.values():
            h.update(struct.pack("<q", len(tier)))
            for entry in tier:
                h.update(struct.pack("<qd?q", entry.frame_index, entry.timestamp,
                                     entry.scene_boundary, entry.token_count))
                for column in (entry.rows, entry.cols, entry.scores, entry.token_matrix):
                    h.update(column.tobytes())
        return h.hexdigest()


def new_memory(config: TierConfig, bank: ProbeBank, dim: int | None = None) -> TieredMemory:
    """Fresh empty memory; bank dimension must match the session's."""
    return TieredMemory(config, bank, dim=dim)


def selective_forget(mem: TieredMemory) -> EvictionReport:
    """Evict lowest-salience tokens until the budget holds.

    Eviction drains the long tier first and cascades to the mid tier;
    the recent FIFO is never touched. Ties are broken toward the older
    frame, then the lower token position. Frames emptied of all tokens
    are dropped from their tier.
    """
    budget = mem.config.token_budget
    overflow = mem.total_tokens - budget
    if overflow <= 0:
        return EvictionReport(evicted=())
    short_tokens = mem._tier_tokens["short"]
    if short_tokens > budget:
        raise BudgetUnsatisfiable(
            f"recent FIFO alone holds {short_tokens} tokens, budget is {budget}"
        )
    evicted: list[tuple[int, int, float]] = []
    for tier_name in ("long", "mid"):
        tier = mem._tiers[tier_name]
        table = mem._tables[tier_name]
        if overflow <= 0 or not tier:
            continue
        # The overflow lowest frame minima are overflow distinct tokens, all
        # scoring at or below the overflow-th lowest minimum, so the
        # overflow-th lowest token score (the cut-off below) is at or below
        # it too. Every token at or below the cut-off, boundary ties
        # included, therefore lies in a frame whose minimum is at or below
        # that bound: the frames above it hold no victim and change neither
        # the cut-off nor the order of the victims.
        if overflow < len(tier):
            minima = table.min_score
            bound = np.partition(minima, overflow - 1)[overflow - 1]
            slots = np.flatnonzero(minima <= bound)
        else:
            slots = np.arange(len(tier))
        entries = [tier[slot] for slot in slots.tolist()]
        counts = table.token_count[slots]
        starts = np.cumsum(counts) - counts
        scores = np.concatenate([e.scores for e in entries])
        # Only tokens scoring at or below the overflow-th lowest score can be
        # victims; sorting those alone (boundary ties included) gives the
        # same victims in the same order as sorting the whole tier.
        if overflow < len(scores):
            cutoff = np.partition(scores, overflow - 1)[overflow - 1]
            candidates = np.flatnonzero(scores <= cutoff)
        else:
            candidates = np.arange(len(scores))
        owners = np.searchsorted(starts, candidates, side="right") - 1
        positions = candidates - starts[owners]
        frames = table.frame_index[slots][owners]
        order = np.lexsort((positions, frames, scores[candidates]))[:overflow]
        victims = candidates[order]
        overflow -= len(victims)
        evicted += zip(frames[order].tolist(), positions[order].tolist(),
                       scores[victims].tolist())
        alive = np.ones(len(scores), dtype=bool)
        alive[victims] = False
        survivors = np.flatnonzero(alive)
        # survivors[bounds[j]:bounds[j + 1]] are frame j's surviving tokens.
        bounds = np.searchsorted(survivors, starts).tolist() + [len(survivors)]
        # Last frame first, so dropping an emptied frame moves no slot still
        # to be visited.
        for owner in reversed(np.unique(owners[order]).tolist()):
            kept = survivors[bounds[owner]:bounds[owner + 1]]
            mem._replace(tier_name, int(slots[owner]),
                         entries[owner].take(kept - starts[owner], mem._alloc[tier_name])
                         if len(kept) else None)
    remaining = mem.total_tokens
    if remaining > budget:
        raise BudgetUnsatisfiable(f"budget {budget} unreachable; {remaining} tokens remain")
    return EvictionReport(evicted=tuple(evicted))

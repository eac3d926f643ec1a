"""Binary container for embedding streams.

Little-endian fixed layout, canonical on disk: a 20-byte header (magic
"SVMT", version, dimension, frame count), then per frame a u64 index,
f64 timestamp and u32 token count, then per token u16 row, u16 col and
dim f32 components. Vectors are stored and surfaced as float32, so a
trace read back and rewritten is byte-identical.

A frame count of 0 in the header means "read until end of stream",
which doubles as the encoding of a genuinely empty trace.

A frame's tokens are one block of fixed-size records, read with one read
and viewed as columns with one np.frombuffer; no read is ever sized past
the data the source holds, whatever its header claims.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

from .errors import (
    BadMagic,
    DimensionError,
    DimMismatch,
    NonFiniteTimestamp,
    NonMonotoneTimestamp,
    TraceFormatError,
    TruncatedRecord,
    UnsupportedVersion,
    ValidationError,
    checked_int,
    checked_real,
    checked_reals,
)

MAGIC = b"SVMT"
VERSION = 1

_HEADER = struct.Struct("<4sIIQ")
_FRAME = struct.Struct("<QdI")

MAX_COORD = 0xFFFF

# A frame index is a u64 on the wire.
MAX_WIRE_FRAME_INDEX = 2**64 - 1

# Sources that cannot report their length are read in chunks of at most
# this many bytes, so a header claiming more data than the stream holds
# costs at most the stream's real length.
READ_CHUNK_BYTES = 1 << 20


def seal(arr: np.ndarray) -> np.ndarray:
    """arr itself, marked read-only; for arrays just built and held by no one else."""
    arr.setflags(write=False)
    return arr


def assembled(cls: type, **fields):
    """An instance of the dataclass cls with the given fields, all of them,
    set without its __init__ or __post_init__: for values that were
    checked where they were made."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _shares_writable(arr: np.ndarray) -> bool:
    """Whether arr's memory can be written through something it views: a
    writable array or buffer in its base chain. bytes cannot be written,
    nor can a read-only array that owns its memory."""
    base = arr.base
    while base is not None and not isinstance(base, bytes):
        if isinstance(base, np.ndarray):
            if base.flags.writeable:
                return True
            base = base.base
            continue
        try:
            view = memoryview(base)
        except TypeError:  # not a buffer, so nothing shows it is read-only
            return True
        if not view.readonly:
            return True
        base = None if view.obj is base else view.obj
    return False


def read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only array with arr's contents: arr itself if nothing can
    write its memory, else a sealed copy."""
    return seal(arr.copy()) if arr.flags.writeable or _shares_writable(arr) else arr


def held(arr: np.ndarray, values) -> np.ndarray:
    """arr, read from values, as a read-only array: sealed if the read built
    it (from a list or tuple, or as a cast of an array), else read_only. An
    array-like's own array is never sealed: np.asarray may return it."""
    built = arr is not values and isinstance(values, (list, tuple, np.ndarray))
    return seal(arr) if built and arr.flags.owndata else read_only(arr)


def _float32(values, what: str) -> np.ndarray:
    """values (errors.checked_reals) as float32, returned as they are if they
    are; a finite value the cast would make infinite raises ValidationError."""
    arr = checked_reals(values, what)
    if arr.dtype == np.float32:
        return arr
    with np.errstate(over="ignore"):
        cast = arr.astype(np.float32)
    if (np.isinf(cast) != np.isinf(arr)).any():
        raise ValidationError(f"{what} must lie within float32's range")
    return cast


def _token_dtype(dim: int) -> np.dtype:
    """One token's wire record: u16 row, u16 col, dim little-endian f32."""
    try:
        return np.dtype([("row", "<u2"), ("col", "<u2"), ("vec", "<f4", (dim,))])
    except ValueError as exc:
        raise TraceFormatError(f"dim {dim} is too large for a token record") from exc


@dataclass(frozen=True, eq=False)
class RawToken:
    """One token as it crosses the trace boundary: grid cell + f32 vector.
    Only the benchmark harness's now-query picks read one; ROADMAP item 2 deletes it."""

    spatial_row: int
    spatial_col: int
    vector: np.ndarray

    def __post_init__(self):
        arr = _float32(self.vector, "token vector components")
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise ValidationError(f"token vector must be non-empty 1-D, got shape {arr.shape}")
        object.__setattr__(self, "vector", read_only(arr))
        for name in ("spatial_row", "spatial_col"):
            value = checked_int(getattr(self, name), name)
            if not (0 <= value <= MAX_COORD):
                raise ValidationError(f"{name} must be in [0, {MAX_COORD}], got {value}")
            object.__setattr__(self, name, value)


_COORD = np.dtype("<u2")
_BOOLS = frozenset((bool, np.bool_))


def coords(values, name: str) -> np.ndarray:
    """A grid coordinate column as a 1-D array of an integer dtype, every
    value in [0, MAX_COORD]; anything else raises ValidationError, bools
    too."""
    arr = np.asarray(values)
    if arr.size == 0:
        arr = arr.astype(_COORD)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be a 1-D integer column, got {arr.dtype} {arr.shape}")
    # np.asarray reads bools mixed with ints as ints; an array-like's
    # __array__ gives its own dtype.
    if not hasattr(values, "__array__") and not _BOOLS.isdisjoint(map(type, values)):
        raise ValidationError(f"{name} must be integers, not bools")
    # A u16 column, as the reader makes, is in range by its type.
    if arr.dtype != _COORD and (arr.min() < 0 or arr.max() > MAX_COORD):
        raise ValidationError(f"{name} must be in [0, {MAX_COORD}]")
    return arr


@dataclass(frozen=True, eq=False, init=False)
class TokenColumns(Sequence):
    """(vector, row, col) triples, as ingest_frame takes them, held as three
    read-only columns; a RawFrame is one, with float32 and uint16 columns.

    Row i of vectors (n, dim), in its own real dtype (errors.checked_reals),
    is token i's vector and (rows[i], cols[i]) its grid cell, read as
    coords reads them. Writable inputs are copied. A triple (a row view
    and two ints) is built only when indexed or iterated.
    """

    vectors: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    def __init__(self, vectors, rows, cols):
        arr = checked_reals(vectors, "token vectors")
        if arr.ndim != 2:
            raise DimensionError(f"token vectors must form an (n, dim) matrix, got {arr.shape}")
        self._hold(held(arr, vectors), *(held(coords(values, name), values)
                                         for name, values in (("rows", rows), ("cols", cols))))

    def _hold(self, vectors: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
        """Store columns already checked and read-only, once their lengths agree."""
        if rows.shape != (vectors.shape[0],) or cols.shape != rows.shape:
            raise ValidationError(f"{vectors.shape[0]} token vectors, "
                                  f"{rows.shape[0]} rows, {cols.shape[0]} cols")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def of(cls, tokens) -> "TokenColumns":
        """tokens as columns: a TokenColumns as it is, and a sequence of
        (vector, row, col) triples stacked once, column by column."""
        if isinstance(tokens, TokenColumns):
            return tokens
        raw = list(tokens)
        if not raw:
            return cls(np.empty((0, 0)), (), ())
        try:
            vectors, rows, cols = zip(*raw, strict=True)
        except (TypeError, ValueError) as exc:
            raise ValidationError("each token must be a (vector, row, col) triple") from exc
        return cls(vectors, rows, cols)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, i: int) -> tuple[np.ndarray, int, int]:
        return self.vectors[i], int(self.rows[i]), int(self.cols[i])

    def __iter__(self) -> Iterator[tuple[np.ndarray, int, int]]:
        return zip(self.vectors, self.rows.tolist(), self.cols.tolist())


@dataclass(frozen=True, eq=False, init=False)
class RawFrame(TokenColumns):
    """One frame of raw tokens, ready for ingest or serialization: a
    TokenColumns whose vectors are float32, dim >= 1, and whose rows and
    cols are uint16.

    Each column is checked and cast once, and stored as TokenColumns holds
    its own columns, without TokenColumns' checks: a column that needs the
    cast is held as the cast built it, sealed, and one that something else
    can write is copied. ingest_frame takes the frame itself as its tokens.
    """

    frame_index: int
    timestamp: float

    def __init__(self, frame_index: int, timestamp: float, *, vectors, rows, cols):
        frame_index = checked_int(frame_index, "frame_index")
        if not 0 <= frame_index <= MAX_WIRE_FRAME_INDEX:
            raise ValidationError(
                f"frame_index must be in [0, {MAX_WIRE_FRAME_INDEX}], got {frame_index}")
        object.__setattr__(self, "frame_index", frame_index)
        object.__setattr__(self, "timestamp",
                           checked_real(timestamp, f"frame {frame_index} timestamp"))
        cast = held(_float32(vectors, f"frame {frame_index} vectors"), vectors)
        if cast.ndim != 2 or (cast.shape[0] and not cast.shape[1]):
            raise ValidationError(f"vectors must be (tokens, dim), dim >= 1, got {cast.shape}")
        self._hold(cast, *(held(coords(values, name).astype(_COORD, copy=False), values)
                           for name, values in (("rows", rows), ("cols", cols))))

    @property
    def dim(self) -> int | None:
        return self.vectors.shape[1] if len(self) else None

    @property
    def tokens(self) -> tuple[RawToken, ...]:
        """Per-token views, built on each access. Only the benchmark harness's
        now-query picks read them, not the pipeline; ROADMAP item 2 deletes them."""
        return tuple(RawToken(row, col, vector) for vector, row, col in self)

    def ingest_tokens(self) -> "RawFrame":
        """The frame's tokens as ingest_frame takes them: the frame itself."""
        return self


Sink = Union[str, os.PathLike, "BinaryIO"]


def _is_path(sink) -> bool:
    return isinstance(sink, (str, os.PathLike))


def frames_dim(frames: Iterable[RawFrame]) -> int | None:
    """The dimension of the first frame that has tokens; None if none has."""
    return next((frame.dim for frame in frames if frame.dim is not None), None)


def write_trace(sink: Sink, frames: Iterable[RawFrame], dim: int | None = None) -> None:
    """Serialize frames to a file path or binary file object.

    All tokens must share one dimension; an all-empty trace needs `dim`
    passed explicitly. Timestamps must be strictly increasing (a RawFrame
    cannot hold a non-finite one).
    """
    frames = list(frames)
    inferred = frames_dim(frames)
    if inferred is None and dim is None:
        raise ValidationError("cannot infer dim from a trace with no tokens; pass dim")
    if inferred is not None and dim is not None and inferred != dim:
        raise DimMismatch(f"frames carry dimension {inferred}, dim argument says {dim}")
    trace_dim = inferred if inferred is not None else int(dim)
    if trace_dim < 1:
        raise ValidationError(f"dim must be positive, got {trace_dim}")

    last_ts = None
    for frame in frames:
        if last_ts is not None and frame.timestamp <= last_ts:
            raise NonMonotoneTimestamp(
                f"frame {frame.frame_index} timestamp {frame.timestamp} "
                f"does not advance past {last_ts}"
            )
        last_ts = frame.timestamp
        if frame.dim not in (None, trace_dim):
            raise DimMismatch(
                f"frame {frame.frame_index} token has dimension {frame.dim}, trace has {trace_dim}"
            )

    record = _token_dtype(trace_dim)
    own = _is_path(sink)
    fh = open(sink, "wb") if own else sink
    try:
        fh.write(_HEADER.pack(MAGIC, VERSION, trace_dim, len(frames)))
        for frame in frames:
            fh.write(_FRAME.pack(frame.frame_index, frame.timestamp, len(frame)))
            if len(frame):
                block = np.empty(len(frame), dtype=record)
                block["row"], block["col"], block["vec"] = frame.rows, frame.cols, frame.vectors
                fh.write(block.tobytes())
    finally:
        if own:
            fh.close()


class _Source:
    """Exact reads from a binary file object, never sized past its data.

    A seekable source is measured once, and a read that would run past its
    end fails before anything is read. Any other source is read in chunks
    of at most READ_CHUNK_BYTES, so a lying length costs at most the bytes
    the stream really holds.
    """

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.left = None  # bytes left in a seekable source
        try:
            if fh.seekable():
                start = fh.tell()
                self.left = fh.seek(0, os.SEEK_END) - start
                fh.seek(start)
        except (AttributeError, OSError, ValueError):
            self.left = None

    def read(self, n: int, what: str, eof_ok: bool = False) -> bytes | None:
        """n bytes, or None at a clean end of stream when eof_ok."""
        if self.left is not None and n > self.left:
            if eof_ok and self.left == 0:
                return None
            raise TruncatedRecord(f"stream ended inside {what} ({self.left}/{n} bytes)")
        parts, got = [], 0
        while got < n:
            part = self.fh.read(min(n - got, READ_CHUNK_BYTES))
            if not part:
                break
            parts.append(part)
            got += len(part)
        if eof_ok and got == 0 and n:
            return None
        if got != n:
            raise TruncatedRecord(f"stream ended inside {what} ({got}/{n} bytes)")
        if self.left is not None:
            self.left -= n
        return parts[0] if len(parts) == 1 else b"".join(parts)


def read_trace(source: Sink) -> Iterator[RawFrame]:
    """Yield frames lazily from a file path or binary file object.

    Validates magic, version, dimension, and that timestamps are finite
    and strictly increasing.
    """
    own = _is_path(source)
    fh = open(source, "rb") if own else source
    try:
        src = _Source(fh)
        magic, version, dim, frame_count = _HEADER.unpack(src.read(_HEADER.size, "header"))
        if magic != MAGIC:
            raise BadMagic(f"expected magic {MAGIC!r}, got {magic!r}")
        if version != VERSION:
            raise UnsupportedVersion(f"version {version} not supported (want {VERSION})")
        if dim < 1:
            raise TraceFormatError(f"header dim must be positive, got {dim}")
        record = _token_dtype(dim)
        last_ts = None
        read = 0
        while frame_count == 0 or read < frame_count:
            head = src.read(_FRAME.size, "frame header", eof_ok=frame_count == 0)
            if head is None:
                break
            frame_index, timestamp, token_count = _FRAME.unpack(head)
            if not math.isfinite(timestamp):
                raise NonFiniteTimestamp(f"frame {frame_index} timestamp is {timestamp}")
            if last_ts is not None and timestamp <= last_ts:
                raise NonMonotoneTimestamp(
                    f"frame {frame_index} timestamp {timestamp} does not advance past {last_ts}"
                )
            last_ts = timestamp
            data = src.read(token_count * record.itemsize, f"frame {frame_index} tokens")
            block = np.frombuffer(data, dtype=record, count=token_count)
            read += 1
            yield RawFrame(frame_index, timestamp,
                           vectors=block["vec"], rows=block["row"], cols=block["col"])
    finally:
        if own:
            fh.close()


def load_trace(source: Sink) -> list[RawFrame]:
    """Read a whole trace into memory."""
    return list(read_trace(source))

"""Wire-format tests with independently constructed golden bytes."""

import io
import struct

import numpy as np
import pytest

from tiermem import traceio
from tiermem.errors import (
    BadMagic,
    DimMismatch,
    NonFiniteTimestamp,
    NonMonotoneTimestamp,
    TraceFormatError,
    TruncatedRecord,
    UnsupportedVersion,
    ValidationError,
)
from tiermem.traceio import RawFrame, RawToken, TokenColumns, load_trace, read_trace, write_trace


def token(vec, row=0, col=0):
    return RawToken(spatial_row=row, spatial_col=col, vector=np.asarray(vec, np.float32))


def frame(index, ts, tokens):
    tokens = list(tokens)
    vectors = np.stack([t.vector for t in tokens]) if tokens else np.empty((0, 0), np.float32)
    return RawFrame(frame_index=index, timestamp=ts, vectors=vectors,
                    rows=[t.spatial_row for t in tokens], cols=[t.spatial_col for t in tokens])


def write_bytes(frames, dim=None):
    buf = io.BytesIO()
    write_trace(buf, frames, dim=dim)
    return buf.getvalue()


def test_empty_trace_is_exactly_the_header():
    data = write_bytes([], dim=7)
    assert len(data) == 20
    # Golden header assembled independently of the writer.
    assert data == b"SVMT" + struct.pack("<I", 1) + struct.pack("<I", 7) + struct.pack("<Q", 0)


def test_single_token_golden_bytes():
    data = write_bytes([frame(3, 1.5, [token([0.25, -2.0], row=1, col=2)])])
    expected = (
        b"SVMT"
        + struct.pack("<I", 1)  # version
        + struct.pack("<I", 2)  # dim
        + struct.pack("<Q", 1)  # frame count
        + struct.pack("<Q", 3)  # frame index
        + struct.pack("<d", 1.5)  # timestamp
        + struct.pack("<I", 1)  # token count
        + struct.pack("<HH", 1, 2)  # coordinates
        + struct.pack("<ff", 0.25, -2.0)
    )
    assert len(data) == 52
    assert data == expected


def test_roundtrip_structural_equality():
    rng = np.random.default_rng(7)
    frames = [
        frame(
            i,
            float(i) * 0.5,
            [
                token(rng.standard_normal(5).astype(np.float32), row=j, col=j + 1)
                for j in range(int(rng.integers(0, 4)))
            ],
        )
        for i in range(6)
    ]
    back = load_trace_bytes(write_bytes(frames, dim=5))
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.frame_index == b.frame_index
        assert a.timestamp == b.timestamp
        assert len(a.tokens) == len(b.tokens)
        for ta, tb in zip(a.tokens, b.tokens):
            assert (ta.spatial_row, ta.spatial_col) == (tb.spatial_row, tb.spatial_col)
            assert np.array_equal(ta.vector, tb.vector)


def load_trace_bytes(data):
    return list(read_trace(io.BytesIO(data)))


def test_write_read_write_is_byte_identical():
    rng = np.random.default_rng(11)
    frames = [
        frame(i, float(i), [token(rng.standard_normal(3)) for _ in range(2)])
        for i in range(10)
    ]
    first = write_bytes(frames)
    second = write_bytes(load_trace_bytes(first))
    assert first == second


def test_reader_is_lazy():
    frames = [frame(i, float(i), [token([1.0, 0.0])]) for i in range(4)]
    it = read_trace(io.BytesIO(write_bytes(frames)))
    assert next(it).frame_index == 0
    assert next(it).frame_index == 1


def test_file_path_roundtrip(tmp_path):
    path = tmp_path / "stream.svmt"
    frames = [frame(0, 0.0, [token([1.0, 2.0, 3.0])])]
    write_trace(str(path), frames)
    assert load_trace(str(path))[0].tokens[0].vector.tolist() == [1.0, 2.0, 3.0]
    # PathLike works too.
    assert load_trace(path)[0].frame_index == 0


def test_bad_magic():
    data = b"XVMT" + write_bytes([], dim=2)[4:]
    with pytest.raises(BadMagic):
        load_trace_bytes(data)


def test_unsupported_version():
    good = write_bytes([], dim=2)
    data = good[:4] + struct.pack("<I", 9) + good[8:]
    with pytest.raises(UnsupportedVersion):
        load_trace_bytes(data)


def test_zero_dim_header_rejected():
    data = b"SVMT" + struct.pack("<I", 1) + struct.pack("<I", 0) + struct.pack("<Q", 0)
    with pytest.raises(TraceFormatError):
        load_trace_bytes(data)


def test_truncated_mid_token():
    data = write_bytes([frame(0, 0.0, [token([1.0, 2.0])])])
    with pytest.raises(TruncatedRecord):
        load_trace_bytes(data[:-3])


def test_truncated_missing_frames():
    good = write_bytes([frame(0, 0.0, [token([1.0, 2.0])])])
    # Claim two frames but provide one.
    data = good[:12] + struct.pack("<Q", 2) + good[20:]
    with pytest.raises(TruncatedRecord):
        load_trace_bytes(data)


def test_read_rejects_nonmonotone_timestamps():
    a = frame(0, 5.0, [token([1.0, 0.0])])
    b = frame(1, 6.0, [token([0.0, 1.0])])
    data = write_bytes([a, b])
    # Patch the second frame's timestamp below the first's.
    offset = 20 + 20 + 12 + 8  # header, frame 0, its token, frame 1 index
    bad = data[:offset] + struct.pack("<d", 4.0) + data[offset + 8 :]
    with pytest.raises(NonMonotoneTimestamp):
        load_trace_bytes(bad)


def test_write_rejects_nonmonotone_timestamps():
    with pytest.raises(NonMonotoneTimestamp):
        write_bytes(
            [frame(0, 1.0, [token([1.0])]), frame(1, 1.0, [token([1.0])])]
        )


def test_write_rejects_mixed_dims():
    with pytest.raises(DimMismatch):
        write_bytes([frame(0, 0.0, [token([1.0, 2.0])]), frame(1, 1.0, [token([1.0])])])
    with pytest.raises(DimMismatch):
        write_bytes([frame(0, 0.0, [token([1.0, 2.0])])], dim=3)


def test_write_requires_dim_for_tokenless_trace():
    with pytest.raises(ValidationError):
        write_bytes([frame(0, 0.0, [])])


def test_tokenless_frame_roundtrips():
    frames = [frame(0, 0.0, []), frame(1, 1.0, [token([1.0, 0.0])])]
    back = load_trace_bytes(write_bytes(frames, dim=2))
    assert len(back[0].tokens) == 0
    assert back[0].dim is None
    assert len(back[1].tokens) == 1


def test_token_coordinate_bounds():
    with pytest.raises(ValidationError):
        token([1.0], row=70000)
    with pytest.raises(ValidationError):
        RawToken(spatial_row=0, spatial_col=-1, vector=np.ones(1, np.float32))
    with pytest.raises(ValidationError):
        RawToken(spatial_row=0, spatial_col=0, vector=np.zeros((2, 2), np.float32))


@pytest.mark.parametrize("coord", [1.5, True, "a"])
def test_token_coordinates_must_be_integers(coord):
    # 1.5 and True were stored, and "a" ended in a bare TypeError.
    for row, col, name in ((coord, 0, "spatial_row"), (0, coord, "spatial_col")):
        with pytest.raises(ValidationError, match=name):
            RawToken(spatial_row=row, spatial_col=col, vector=np.ones(1, np.float32))
    assert type(RawToken(np.uint16(3), np.int64(4), np.ones(1, np.float32)).spatial_row) is int


# --- columnar frames ----------------------------------------------------------


def test_frame_columns_and_token_views_agree():
    f = frame(4, 2.0, [token([1.0, 2.0], row=3, col=5), token([-1.0, 0.5], row=0, col=65535)])
    assert f.vectors.dtype == np.float32 and f.vectors.shape == (2, 2)
    assert f.rows.tolist() == [3, 0] and f.cols.tolist() == [5, 65535]
    assert len(f) == 2 and f.dim == 2
    for column in (f.vectors, f.rows, f.cols):
        assert not column.flags.writeable
    views = f.tokens
    assert [(t.spatial_row, t.spatial_col) for t in views] == [(3, 5), (0, 65535)]
    assert np.array_equal(views[1].vector, [-1.0, 0.5])
    triples = f.ingest_tokens()
    assert [type(r) for _, r, _ in triples] == [int, int]
    assert [type(c) for _, _, c in triples] == [int, int]
    assert triples[0][0].dtype == np.float32 and triples[0][0].shape == (2,)
    assert triples[-1][1:] == (0, 65535) and len(triples) == 2
    # The triples are the frame's own columns, not a copy of them.
    assert (triples.vectors is f.vectors and triples.rows is f.rows
            and triples.cols is f.cols)
    assert TokenColumns.of(triples) is triples


def test_frame_from_columns_copies_writable_inputs():
    vectors = np.ones((2, 3), np.float32)
    f = RawFrame(0, 0.0, vectors=vectors, rows=[0, 1], cols=np.array([2, 3]))
    vectors[0, 0] = 9.0
    assert f.vectors[0, 0] == 1.0
    assert f.rows.dtype == np.uint16


@pytest.mark.parametrize(
    "columns",
    [
        {"vectors": np.ones((2, 3)), "rows": [0], "cols": [0, 1]},
        {"vectors": np.ones((2, 3)), "rows": [0, 1], "cols": [0]},
        {"vectors": np.ones(3), "rows": [0], "cols": [0]},
        {"vectors": np.ones((1, 0)), "rows": [0], "cols": [0]},
        {"vectors": np.ones((1, 3)), "rows": [65536], "cols": [0]},
        {"vectors": np.ones((1, 3)), "rows": [0], "cols": [-1]},
        {"vectors": np.ones((1, 3)), "rows": [0.5], "cols": [0]},
        # np.asarray reads a mix of bools and ints as ints.
        {"vectors": np.ones((2, 2)), "rows": [True, 1], "cols": [0, 0]},
        {"vectors": np.ones((2, 2)), "rows": [0, 0], "cols": (1, np.bool_(False))},
    ],
)
def test_frame_rejects_malformed_columns(columns):
    with pytest.raises(ValidationError):
        RawFrame(0, 0.0, **columns)


@pytest.mark.parametrize("value", [1e39, -1e39, np.finfo(np.float64).max])
def test_values_beyond_float32_are_refused_not_made_infinite(value):
    # The cast to float32 would make them infinities; it runs under the
    # suite's error::RuntimeWarning filter, so the check must not warn.
    # Non-finite values and float32's own largest value pass as they are.
    with pytest.raises(ValidationError, match="frame 3 vectors .*float32"):
        RawFrame(3, 0.0, vectors=[[value, 0.0]], rows=[0], cols=[0])
    with pytest.raises(ValidationError, match="float32"):
        RawToken(0, 0, [value, 0.0])
    top = float(np.finfo(np.float32).max)
    kept = RawFrame(3, 0.0, vectors=[[top, np.inf, -np.inf, np.nan]], rows=[0], cols=[0])
    assert kept.vectors[0, 0] == top and np.isinf(kept.vectors[0, 1:3]).all()
    assert np.isnan(kept.vectors[0, 3])


def test_read_frames_are_read_only_views():
    back = load_trace_bytes(write_bytes([frame(0, 0.0, [token([1.0, 2.0]), token([3.0, 4.0])])]))
    for column in (back[0].vectors, back[0].rows, back[0].cols):
        assert not column.flags.writeable
    assert back[0].vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_only_copies_only_what_something_else_can_write():
    # The reader's columns view bytes, which nothing can write, so a frame
    # and its ingest columns hold them without a copy.
    back = load_trace_bytes(write_bytes([frame(0, 0.0, [token([1.0, 2.0]), token([3.0, 4.0])])]))[0]
    assert isinstance(back.vectors.base, np.ndarray) and back.vectors.base.base is not None
    tokens = back.ingest_tokens()
    assert tokens.vectors is back.vectors and tokens.rows is back.rows
    kept = [traceio.seal(np.ones(3)), np.frombuffer(b"\0" * 8), np.frombuffer(memoryview(b"\0" * 8))]
    sealed = traceio.seal(np.ones(4))
    kept += [sealed[::2], _read_only(sealed[1:])]
    for arr in kept:
        assert traceio.read_only(arr) is arr
    # A writable array, buffer or memoryview under a read-only view is copied.
    owner = np.ones(4)
    copied = [owner, _read_only(owner), _read_only(owner[::2]),
              np.frombuffer(bytearray(8)), _read_only(np.frombuffer(bytearray(8))),
              np.frombuffer(memoryview(bytearray(8)).toreadonly())]
    for arr in copied:
        held = traceio.read_only(arr)
        assert held is not arr and not held.flags.writeable
        assert np.array_equal(held, arr) and not np.shares_memory(held, arr)


def _read_only(arr):
    view = arr.view()
    view.setflags(write=False)
    return view


def test_frame_holds_the_casts_own_arrays(monkeypatch):
    # A float64 matrix and list or int64 coordinates are cast once, and the
    # frame seals what the cast built: nothing is copied a second time, as
    # TokenColumns holds the sealed casts as they are.
    casts = []
    cast = traceio._float32
    monkeypatch.setattr(traceio, "_float32", lambda *args: casts.append(cast(*args)) or casts[-1])
    read_only = traceio.read_only

    def no_copy(arr):
        if read_only(arr) is not arr:
            raise AssertionError("copied again")
        return arr

    monkeypatch.setattr(traceio, "read_only", no_copy)
    vectors = np.arange(6.0).reshape(2, 3)
    for rows, cols in (([0, 1], [2, 3]), (np.array([0, 1]), (2, 3))):
        f = RawFrame(0, 0.0, vectors=vectors, rows=rows, cols=cols)
        assert f.vectors is casts[-1] and f.vectors.dtype == np.float32
        for column, source in ((f.vectors, vectors), (f.rows, rows), (f.cols, cols)):
            assert not column.flags.writeable and column.base is None
            assert not np.shares_memory(column, source)
        assert f.rows.dtype == f.cols.dtype == np.uint16 and f.cols.tolist() == [2, 3]
    assert vectors.flags.writeable


# --- decode equivalence against a per-token reference -------------------------


def reference_decode(data):
    """Independent per-token struct decoder of the wire format."""
    _, _, dim, count = struct.unpack_from("<4sIIQ", data, 0)
    pos, frames = 20, []
    while (len(frames) < count) if count else (pos < len(data)):
        index, ts, n = struct.unpack_from("<QdI", data, pos)
        pos += 20
        tokens = []
        for _ in range(n):
            row, col = struct.unpack_from("<HH", data, pos)
            tokens.append((row, col, data[pos + 4:pos + 4 + 4 * dim]))
            pos += 4 + 4 * dim
        frames.append((index, ts, tokens))
    return frames


def assert_decodes_like_reference(frames, data):
    want = reference_decode(data)
    assert len(frames) == len(want)
    for f, (index, ts, tokens) in zip(frames, want):
        assert (f.frame_index, f.timestamp) == (index, ts)
        assert len(f) == len(tokens)
        assert f.rows.tolist() == [row for row, _, _ in tokens]
        assert f.cols.tolist() == [col for _, col, _ in tokens]
        assert [v.astype("<f4").tobytes() for v in f.vectors] == [bits for _, _, bits in tokens]


class OneWayStream:
    """A finite, non-seekable binary stream that records each read size."""

    def __init__(self, data):
        self._buf = io.BytesIO(data)
        self.requests = []

    def read(self, n=-1):
        self.requests.append(n)
        return self._buf.read(n)

    def seekable(self):
        return False


class SeekableStream(OneWayStream):
    def seekable(self):
        return True

    def tell(self):
        return self._buf.tell()

    def seek(self, offset, whence=0):
        return self._buf.seek(offset, whence)


def seeded_frames(rng, dim, counts):
    """Frames with arbitrary float32 bit patterns (NaN and inf included)."""
    out = []
    for i, n in enumerate(counts):
        bits = rng.integers(0, 2**32, size=(n, dim), dtype=np.uint64).astype(np.uint32)
        out.append(RawFrame(
            int(rng.integers(0, 2**40)) + i, float(i) + float(rng.random()) * 0.5,
            vectors=bits.view(np.float32),
            rows=rng.integers(0, 65536, n),
            cols=rng.integers(0, 65536, n),
        ))
    return out


@pytest.mark.parametrize("dim", [1, 2, 5, 128])
def test_columnar_reader_matches_per_token_reference(dim, monkeypatch):
    rng = np.random.default_rng([dim, 17])
    counts = [0, 1, 2, 3, 600, 7, 0, 64, 255, 256, 511, 512, 599] + rng.integers(0, 601, 4).tolist()
    frames = seeded_frames(rng, dim, counts)
    data = write_bytes(frames)
    until_eof = data[:12] + struct.pack("<Q", 0) + data[20:]
    for blob in (data, until_eof):
        assert_decodes_like_reference(load_trace_bytes(blob), blob)
        assert write_bytes(load_trace_bytes(blob)) == data
    # A source that cannot seek is read in chunks; small chunks split the
    # frame blocks and the headers across reads.
    monkeypatch.setattr(traceio, "READ_CHUNK_BYTES", 7)
    stream = OneWayStream(until_eof)
    assert_decodes_like_reference(list(read_trace(stream)), until_eof)
    assert max(stream.requests) <= 7


# --- bounded reads -------------------------------------------------------------


def hostile_trace(dim, frame_count, frames=()):
    """A header, then (index, timestamp, token_count, payload) frames."""
    out = b"SVMT" + struct.pack("<IIQ", 1, dim, frame_count)
    for index, ts, count, payload in frames:
        out += struct.pack("<QdI", index, ts, count) + payload
    return out


LYING_HEADERS = [
    pytest.param(hostile_trace(2**32 - 1, 1, [(0, 0.0, 1, b"\0" * 64)]), TraceFormatError,
                 id="huge-dim"),
    pytest.param(hostile_trace(2**28, 1, [(0, 0.0, 1, b"\0" * 64)]), TruncatedRecord,
                 id="1GiB-token"),
    pytest.param(hostile_trace(4, 1, [(0, 0.0, 2**32 - 1, b"\0" * 200)]), TruncatedRecord,
                 id="huge-token-count"),
    pytest.param(hostile_trace(4, 0, [(0, 0.0, 2, b"\0" * 40), (1, 1.0, 2**32 - 1, b"\0" * 7)]),
                 TruncatedRecord, id="huge-token-count-until-eof"),
]


@pytest.mark.parametrize("data, error", LYING_HEADERS)
def test_seekable_reader_checks_length_before_reading(data, error):
    stream = SeekableStream(data)
    with pytest.raises(error):
        list(read_trace(stream))
    assert max(stream.requests) <= len(data)


@pytest.mark.parametrize("data, error", LYING_HEADERS)
def test_one_way_reader_costs_at_most_the_stream_length(data, error):
    stream = OneWayStream(data)
    with pytest.raises(error):
        list(read_trace(stream))
    assert max(stream.requests) <= traceio.READ_CHUNK_BYTES


# --- non-finite timestamps -----------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_reader_rejects_non_finite_timestamps(bad):
    data = write_bytes([frame(0, 5.0, [token([1.0, 0.0])]), frame(1, 6.0, [token([0.0, 1.0])])])
    second_ts = 20 + 20 + 12 + 8  # header, frame 0, its token, frame 1 index
    for offset in (28, second_ts):
        patched = data[:offset] + struct.pack("<d", bad) + data[offset + 8:]
        with pytest.raises(NonFiniteTimestamp):
            load_trace_bytes(patched)
    assert issubclass(NonFiniteTimestamp, TraceFormatError)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "x", None, 1j])
def test_frame_and_writer_reject_non_finite_timestamps(bad):
    with pytest.raises(ValidationError):
        frame(0, bad, [token([1.0])])
    with pytest.raises(ValidationError):
        write_bytes([frame(0, 0.0, [token([1.0])]), frame(1, bad, [])])


# --- frame indices ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [1.5, 2.0, -1, 2**64, True, False, np.bool_(True), "3", None])
def test_frame_rejects_indices_the_wire_cannot_hold(bad):
    with pytest.raises(ValidationError):
        RawFrame(bad, 0.0, vectors=np.ones((1, 2)), rows=[0], cols=[0])


def test_writer_round_trips_every_wire_index_and_never_leaks_struct_errors():
    last = 2**64 - 1
    frames = [frame(0, 0.0, [token([1.0])]), frame(np.uint64(last), 1.0, [token([2.0])])]
    assert type(frames[1].frame_index) is int
    back = load_trace_bytes(write_bytes(frames))
    assert [f.frame_index for f in back] == [0, last]
    # Indices that used to reach struct.pack and fail there with a bare
    # struct.error (or, for True, be written as 1) are refused on the way in.
    for bad in (1.5, last + 1, True):
        with pytest.raises(ValidationError):
            write_bytes([frame(bad, 0.0, [token([1.0])])])

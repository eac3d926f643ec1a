"""Tier pipeline tests: pruning, selection, forgetting, budget."""

import ast
import collections
import copy
import dataclasses
import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tiermem.errors import (
    BudgetUnsatisfiable,
    ConfigError,
    DimensionError,
    EmptyFrame,
    FrameTooLarge,
    FrozenMemory,
    NonMonotoneTimestamp,
    ValidationError,
)
from tiermem.tiers import (
    FrameEntry,
    TierConfig,
    TieredMemory,
    encode_tokens,
    is_scene_boundary,
    new_memory,
    selective_forget,
    spatial_semantic_select,
    temporal_semantic_prune,
)
from tiermem import tiers, vecspace
from tiermem.retrieval import QuerySpec, load_queries_jsonl, retrieve, score_candidates
from tiermem.traceio import MAX_COORD, RawFrame, RawToken, TokenColumns
from tiermem.vecspace import (
    FrameTable,
    ProbeBank,
    RowStore,
    cosine,
    late_interaction,
    max_sim,
    normalize,
    unit_rows,
)
from reference_engine import reference_forget, reference_prune_positions, reference_select_positions


def axis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def tilted(dim, i, j, c):
    """Unit vector with cosine c against axis i, remainder on axis j."""
    v = np.zeros(dim)
    v[i] = c
    v[j] = math.sqrt(max(0.0, 1.0 - c * c))
    return v


def entry_of(frame_index, tokens, ts=None, boundary=False):
    """FrameEntry whose columns stack the given (vector, score, row, col) tokens."""
    vectors, scores, rows, cols = zip(*tokens)
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index if ts is None else ts),
        token_matrix=np.stack(vectors),
        scores=list(scores),
        rows=list(rows),
        cols=list(cols),
        scene_boundary=boundary,
    )


def crafted_token(score, frame_index, row=0, col=0, dim=3, vec=None):
    """One token as a (vector, score, row, col) tuple, read back from a
    one-token entry, so FrameEntry has checked it."""
    v = axis(dim, 0) if vec is None else np.asarray(vec, dtype=np.float64)
    e = entry_of(frame_index, [(v, score, row, col)])
    return e.token_matrix[0], e.scores.item(0), e.rows.item(0), e.cols.item(0)


def crafted_entry(frame_index, scores, ts=None, boundary=False, dim=3):
    n = len(scores)
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index if ts is None else ts),
        token_matrix=np.tile(axis(dim, 0), (n, 1)),
        scores=scores,
        rows=np.zeros(n, dtype=np.int64),
        cols=np.arange(n),
        scene_boundary=boundary,
    )


def small_bank(dim=4):
    return ProbeBank([axis(dim, 0)])


# --- config ---------------------------------------------------------------


def test_config_defaults_valid():
    cfg = TierConfig()
    assert cfg.short_cap_frames == 4
    assert cfg.mid_cap_frames == 16
    assert cfg.token_budget == 2048
    assert cfg.tokens_per_frame_max == 512


def test_config_anchor_must_fit_budget():
    # 4 * 512 = 2048 fits exactly; one more token per frame does not.
    TierConfig(short_cap_frames=4, tokens_per_frame_max=512, token_budget=2048)
    with pytest.raises(ConfigError):
        TierConfig(short_cap_frames=4, tokens_per_frame_max=513, token_budget=2048)


def test_config_tiny_valid():
    TierConfig(
        short_cap_frames=1, mid_cap_frames=1, token_budget=10, tokens_per_frame_max=4
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"short_cap_frames": 0},
        {"mid_cap_frames": -1},
        {"token_budget": 0},
        {"keep_fraction": 0.0},
        {"keep_fraction": 1.5},
        {"semantic_weight": -0.1},
        {"scene_threshold": 1.0},
        {"scene_threshold": -1.0},
        {"grid_size": 0},
        {"long_quota_per_frame": 0},
        {"tokens_per_frame_max": 0},
        {"keep_fraction": "0.5"},
        {"keep_fraction": True},
        {"semantic_weight": "x"},
        {"semantic_weight": False},
        {"scene_threshold": None},
    ],
)
def test_config_rejects_bad_fields(kwargs):
    base = dict(short_cap_frames=1, tokens_per_frame_max=1, token_budget=16)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        TierConfig(**base)


@pytest.mark.parametrize(
    "field, value, stored",
    [("short_cap_frames", np.int64(2), 2), ("keep_fraction", np.float32(0.5), 0.5),
     ("semantic_weight", 1, 1.0)],
)
def test_config_stores_the_int_or_float_its_readers_return(field, value, stored):
    # An integer field takes any integer type but bool, and a real field any
    # finite real; each is stored as a plain int or float.
    cfg = TierConfig(**{field: value})
    assert getattr(cfg, field) == stored and type(getattr(cfg, field)) is type(stored)
    assert type(cfg.to_json_dict()[field]) is type(stored)


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"short_cap_frames": 2, "token_budget": 64, "tokens_per_frame_max": 8}')
    cfg = TierConfig.from_file(path)
    assert cfg.short_cap_frames == 2
    assert cfg.token_budget == 64
    assert cfg.mid_cap_frames == 16  # default fills in
    path.write_text('{"no_such_knob": 1}')
    with pytest.raises(ConfigError):
        TierConfig.from_file(path)
    # The constructor's errors name the file too, not only the field.
    path.write_text('{"short_cap_frames": "x"}')
    with pytest.raises(ConfigError, match=f"^config file {path}: short_cap_frames must be an int"):
        TierConfig.from_file(path)
    path.write_text('{"short_cap_frames": 8, "token_budget": 16}')
    with pytest.raises(ConfigError, match=f"^config file {path}: short_cap_frames \\* tokens_per"):
        TierConfig.from_file(path)


# --- records and entries ---------------------------------------------------


def test_token_record_readonly_and_validated():
    tok = entry_of(0, [crafted_token(0.5, 0)]).tokens[0]
    with pytest.raises(ValueError):
        tok.embedding[0] = 2.0
    with pytest.raises(ValidationError):
        crafted_token(float("nan"), 0)
    with pytest.raises(ValidationError):
        crafted_token(0.0, 0, row=-1)


def test_frame_entry_pooled_is_mean_of_scores():
    entry = crafted_entry(0, [0.2, 0.4, 0.9])
    assert math.isclose(entry.pooled_score, 0.5, abs_tol=1e-12)
    assert entry.token_matrix.shape == (3, 3)
    with pytest.raises(ValueError):
        entry.token_matrix[0, 0] = 2.0


def test_frame_entry_rejects_coordinates_outside_the_trace_range():
    crafted_token(0.0, 0, row=0xFFFF, col=0xFFFF)
    for coords in ({"row": 0x10000}, {"col": 2**70}, {"row": "a"}):
        with pytest.raises(ValidationError):
            crafted_token(0.0, 0, **coords)


def test_frame_entry_rejects_empty_and_foreign_tokens():
    with pytest.raises(EmptyFrame):
        FrameEntry(
            frame_index=0, timestamp=0.0, token_matrix=np.zeros((0, 3)), scores=[], rows=[], cols=[]
        )
    with pytest.raises(ValidationError):
        FrameEntry(
            frame_index=1,
            timestamp=0.0,
            token_matrix=np.zeros((2, 3)),
            scores=[0.0],
            rows=[0, 0],
            cols=[0, 1],
        )


def test_frame_entry_rejects_non_finite_embeddings():
    # An infinite or NaN embedding was held, and scored: against [1, 0, 0, 0],
    # score_candidates gave the frame 0.5. Large finite values are kept.
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=64)
    for bad in (np.inf, -np.inf, np.nan):
        columns = dict(token_matrix=[[0, 0, 0, 0], [0, 1, 0, 0]], scores=[0.5, 0.5],
                       rows=[0, 0], cols=[0, 1])
        columns["token_matrix"][0][0] = bad
        with pytest.raises(ValidationError, match="frame 2: non-finite"):
            FrameEntry(frame_index=2, timestamp=0.0, **columns)
        with pytest.raises(ValidationError, match="frame 2: non-finite"):
            TieredMemory.from_tiers(cfg, small_bank(4),
                                    mid=[FrameEntry(frame_index=2, timestamp=0.0, **columns)])
    huge = FrameEntry(2, 0.0, [[1e300, -1e300, 0, 0], [0, 1, 0, 0]], [0.5, 0.5], [0, 0], [0, 1])
    assert huge.token_matrix[0, 1] == -1e300
    # A memory holds unit rows only, and a 1e300 row is not one.
    with pytest.raises(ValidationError, match="frame 2: embedding rows must be unit vectors or zero"):
        TieredMemory.from_tiers(cfg, small_bank(4), mid=[huge])


def test_from_tiers_holds_only_unit_or_zero_rows():
    # Rows that are not unit length were held, and scored as raw dot
    # products: this mid frame scored 0.75 in score_candidates against the
    # query below, where late_interaction gives 1.0.
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=64)
    bank = small_bank(4)
    query = [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert late_interaction([[0.5, 0, 0, 0], [0, 0, 3, 0]], query) == 1.0
    for tier in ("short", "mid", "long"):
        bad = FrameEntry(2, 0.0, [[0.5, 0, 0, 0], [0, 0, 3, 0]], [0.5, 0.5], [0, 0], [0, 1])
        with pytest.raises(ValidationError, match="frame 2: .* squared norm is 0.25"):
            TieredMemory.from_tiers(cfg, bank, **{tier: [bad]})
    # Unit rows as unit_rows makes them, at every dimension up to 512, and
    # zero rows are held; a row one margin past the bound on either side is not.
    rng = np.random.default_rng(29)
    for dim in (1, 2, 3, 8, 128, 512):
        for scale in (1e-11, 1e-6, 1.0, 1e6, 1e300):
            matrix = unit_rows(scale * rng.standard_normal((64, dim)))
            matrix[0] = 0.0
            entry = FrameEntry(0, 0.0, matrix, np.zeros(64), np.zeros(64, dtype=int), np.arange(64))
            held = TieredMemory.from_tiers(cfg, ProbeBank([axis(dim, 0)]), mid=[entry])
            assert held.mid[0].token_matrix.tobytes() == matrix.tobytes()
        margin = vecspace.unit_margin(dim)
        for squared in (1.0 + 2 * margin, 1.0 - 2 * margin):
            row = np.zeros((1, dim))
            row[0, 0] = math.sqrt(squared)
            entry = FrameEntry(0, 0.0, row, [0.0], [0], [0])
            with pytest.raises(ValidationError, match="frame 0: embedding rows"):
                TieredMemory.from_tiers(cfg, ProbeBank([axis(dim, 0)]), long=[entry])
    query_spec = QuerySpec("q", 1.0, np.array(query, dtype=float), rho=1e9)
    good = FrameEntry(2, 0.0, [[1, 0, 0, 0], [0, 0, 1, 0]], [0.5, 0.5], [0, 0], [0, 1])
    snap = TieredMemory.from_tiers(cfg, bank, mid=[good]).freeze()
    assert dict(score_candidates(snap, query_spec)) == {2: 1.0}


def test_frame_entry_holds_its_casts_without_copying_them():
    # A float32 token matrix and scores and uint16 coordinates are each cast
    # once, and the casts are held sealed, not copied again: the peak stays
    # within a tenth of what the entry holds, and of the float64 matrix.
    rng = np.random.default_rng(13)
    for n, dim in ((512, 128), (4096, 1)):
        matrix = rng.standard_normal((n, dim)).astype(np.float32)
        scores = rng.random(n).astype(np.float32)
        rows, cols = (np.arange(n, dtype=np.uint16) for _ in range(2))
        tracemalloc.start()
        try:
            entry = FrameEntry(0, 0.0, matrix, scores, rows, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = (entry.token_matrix, entry.scores, entry.rows, entry.cols)
        assert [column.dtype for column in columns] == [np.float64, np.float64, np.int64, np.int64]
        assert not any(column.flags.writeable for column in columns)
        assert peak < 1.1 * sum(column.nbytes for column in columns), (n, dim, peak)
        if dim == 128:
            assert peak < 1.1 * matrix.size * 8, peak


def test_encode_tokens_scores_reproduce_bit_exactly():
    bank = ProbeBank([tilted(4, 0, 1, 0.7), axis(4, 2)])
    rng = np.random.default_rng(5)
    entry = encode_tokens(3, 0.0, [(rng.standard_normal(4), i, 0) for i in range(10)], bank)
    assert entry.frame_index == 3
    for embedding, score in zip(entry.token_matrix, entry.scores.tolist()):
        assert score == max_sim(embedding, bank)
        assert math.isclose(float(np.linalg.norm(embedding)), 1.0, abs_tol=1e-12)
    # Batch invariance: a 512-token frame stores, for every token, the
    # same embedding and score bits as that token encoded alone.
    bank = ProbeBank.generated(128, n=5, seed=2)
    raw = [(rng.standard_normal(128), i // 32, i % 32) for i in range(512)]
    frame = encode_tokens(0, 0.0, raw, bank)
    for i, (embedding, score) in enumerate(zip(frame.token_matrix, frame.scores.tolist())):
        alone = encode_tokens(0, 0.0, [raw[i]], bank)
        assert np.array_equal(embedding, alone.token_matrix[0])
        assert score == alone.scores[0] == max_sim(embedding, bank)


@pytest.mark.parametrize("dim", [1, 8, 128])
def test_encode_tokens_scores_match_max_sim_at_every_block_edge(monkeypatch, dim):
    # Frames just short of, at and just past the edges of salience's 64-row
    # blocks, with 1, 5 and 16 probes, on the BLAS block product and on the
    # einsum the failed self-check forces: every stored score is max_sim of
    # its stored row, bit for bit, and the score its token gets encoded
    # alone. A zero row (the zero sentinel) and a row equal to a probe (a
    # cosine of 1 up to rounding, where the clip acts) are among them.
    rng = np.random.default_rng([dim, 151])
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for probes in (1, 5, 16):
            bank = ProbeBank.generated(dim, n=probes, seed=probes)
            for n in (1, 2, 63, 64, 65, 127, 128, 129, 511, 512):
                vectors = rng.standard_normal((n, dim))
                vectors[n // 2] = 0.0
                vectors[n - 1] = bank.matrix[probes - 1]
                raw = [(v, 0, i) for i, v in enumerate(vectors)]
                frame = encode_tokens(0, 0.0, raw, bank)
                want = [max_sim(row, bank).hex() for row in frame.token_matrix]
                alone = [encode_tokens(0, 0.0, [token], bank).scores[0].hex() for token in raw]
                got = [score.hex() for score in frame.scores.tolist()]
                assert got == want == alone, (check_fails, probes, n)


_V4 = np.ones(4)


def _columns(vectors, rows, cols):
    """Column-form tokens, built when called, so inside pytest.raises."""
    return lambda: TokenColumns(vectors, rows, cols)


@pytest.mark.parametrize("frame_index, timestamp, raw, error", [
    (True, 0.0, [(_V4, 0, 0)], ValidationError),  # a bool is not a frame index
    (-1, 0.0, [(_V4, 0, 0)], ValidationError),
    (0, math.nan, [(_V4, 0, 0)], ValidationError),
    (0, 0.0, [(_V4, -1, 0)], ValidationError),
    (0, 0.0, [(_V4, 0, 2**16)], ValidationError),
    (0, 0.0, [(_V4, 0, 0), (np.ones(3), 0, 1)], DimensionError),  # ragged vectors
    (0, 0.0, [(_V4, 0)], ValidationError),  # not a (vector, row, col) triple
    (0, 0.0, [(np.array([1.0, np.inf, 0.0, 0.0]), 0, 0)], ValidationError),
    (0, 0.0, [(_V4, True, 0), (_V4, 1, 0)], ValidationError),  # a bool among int rows
    (0, 0.0, [(_V4, 0, 0), (_V4, 0, np.bool_(True))], ValidationError),
    (0, 0.0, [], EmptyFrame),
    # The same refusals of tokens given as columns.
    pytest.param(0, 0.0, _columns(np.empty((0, 4)), [], []), EmptyFrame, id="columns-empty"),
    pytest.param(0, 0.0, _columns(np.ones((1, 3)), [0], [0]), DimensionError,
                 id="columns-not-the-bank-dim"),
    pytest.param(0, 0.0, _columns(np.ones(4), [0], [0]), DimensionError, id="columns-1-D"),
    pytest.param(0, 0.0, _columns(np.ones((2, 4)), [0, 1], [0]), ValidationError,
                 id="columns-lengths-differ"),
    pytest.param(0, 0.0, _columns(np.array([[np.nan, 0.0, 0.0, 0.0]]), [0], [0]),
                 ValidationError, id="columns-nan-vector"),
    pytest.param(0, 0.0, _columns(np.ones((1, 4)), np.array([65536]), [0]), ValidationError,
                 id="columns-row-65536"),
    pytest.param(0, 0.0, _columns(np.ones((1, 4)), np.array([0.0]), [0]), ValidationError,
                 id="columns-float-rows"),
])
def test_encode_tokens_refuses_what_a_frame_entry_refuses(frame_index, timestamp, raw, error):
    # encode_tokens builds its entry without FrameEntry's checks, so it
    # makes them itself, and raises what constructing the entry raised.
    bank = ProbeBank.generated(4, n=3, seed=1)
    with pytest.raises(error):
        encode_tokens(frame_index, timestamp, raw() if callable(raw) else raw, bank)
    entry = encode_tokens(2, 1.5, [(_V4, 0, 1), (-_V4, np.uint16(3), np.int8(2))], bank)
    assert (entry.frame_index, entry.timestamp, entry.scene_boundary) == (2, 1.5, False)
    for column, want in ((entry.rows, [0, 3]), (entry.cols, [1, 2])):
        assert column.dtype == np.int64 and not column.flags.writeable
        assert column.tolist() == want


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_token_vectors_are_refused_without_a_warning(value):
    # An inf or a NaN in one component, alone or beside finite rows, in
    # float64 and float32 columns: the row's norm is inf or NaN, unit_rows
    # divides it as it is, and the NaN it makes is refused as a score.
    # Under this suite's warning filter a RuntimeWarning would fail here.
    bank = ProbeBank.generated(4, n=5, seed=2)
    for n in (1, 3, 65):
        for dtype in (np.float64, np.float32):
            vectors = np.ones((n, 4), dtype=dtype)
            vectors[n // 2, 1] = value
            tokens = TokenColumns(vectors, np.zeros(n, dtype=int), np.arange(n))
            with pytest.raises(ValidationError, match="token scores must be finite"):
                encode_tokens(0, 0.0, tokens, bank)
            mem = new_memory(TierConfig(), bank)
            with pytest.raises(ValidationError, match="token scores must be finite"):
                mem.ingest_frame(0.0, tokens)
            assert mem.total_tokens == 0


def _column_streams():
    """Seeded streams as (name, config, frames, queries); each frame is
    (timestamp, tokens as columns), each query due after the frame at its
    arrival time. Scenes change every 6 frames, and the small budgets make
    forget evict and past queries score mid and long candidates."""
    dim = 16
    shapes = [
        # name, tokens per frame, frames, vector dtype, raster grid, budget
        ("512-token raster", 512, 14, np.float32, True, 2048),
        ("64-token raster", 64, 40, np.float32, True, 512),
        ("float64 vectors", 64, 40, np.float64, True, 512),
        ("non-raster grid", 64, 40, np.float32, False, 512),
    ]
    for seed, (name, n, count, dtype, raster, budget) in enumerate(shapes, start=31):
        rng = np.random.default_rng(seed)
        config = TierConfig(short_cap_frames=2, mid_cap_frames=4, tokens_per_frame_max=n,
                            token_budget=budget, long_quota_per_frame=8)
        frames = []
        for t in range(count):
            if t % 6 == 0:
                scene = rng.standard_normal((n, dim))
            vectors = (scene + 0.3 * rng.standard_normal((n, dim))).astype(dtype)
            if raster:
                rows, cols = np.divmod(np.arange(n), 16)
            else:  # shuffled cells, some held twice
                rows, cols = rng.integers(0, 6, n), rng.integers(0, 6, n)
            if dtype == np.float32:
                frame = RawFrame(t, float(t), vectors=vectors, rows=rows, cols=cols)
                tokens = frame.ingest_tokens()
            else:
                tokens = TokenColumns(vectors, rows, cols)
            frames.append((float(t), tokens))
        queries = [QuerySpec(f"q{t}-{rho}", float(t), rng.standard_normal((2, dim)), rho=rho)
                   for t in range(4, count, 5) for rho in (0.1, 1e7)]
        yield name, config, frames, queries


def _replay(config, frames, queries, triples):
    """Every report and retrieve result of one replay, with floats as
    float.hex, then the final state digest, token total and long frames."""
    mem = new_memory(config, ProbeBank.generated(16, n=5, seed=4))
    due = collections.defaultdict(list)
    for q in queries:
        due[q.arrival_time].append(q)
    out = []
    for ts, tokens in frames:
        if triples:
            tokens = [(v, r, c) for v, r, c in zip(tokens.vectors, tokens.rows.tolist(),
                                                   tokens.cols.tolist())]
        report = mem.ingest_frame(ts, tokens).to_json_dict()
        out.append({k: v.hex() if isinstance(v, float) else v for k, v in report.items()})
        for q in due[ts]:
            result = retrieve(mem.freeze(at=ts), mem.gate_stats, q)
            mem.thaw()
            out.append((result.gated_short_only, result.anchor_frames, result.retrieved_frames,
                        [(f, s.hex()) for f, s in result.frame_scores.items()],
                        result.gate_affinity.hex(), result.gate_threshold.hex()))
    return out, mem.state_digest(), mem.total_tokens, len(mem.long)


@pytest.mark.parametrize("stream", list(_column_streams()), ids=lambda s: s[0])
def test_ingest_from_columns_matches_ingest_from_triples(stream):
    # The same frames, given as columns and as (vector, row, col) triples,
    # give the same reports, scores (to the bit) and state.
    name, config, frames, queries = stream
    columns = _replay(config, frames, queries, triples=False)
    assert columns == _replay(config, frames, queries, triples=True)
    records, _, total, long_frames = columns
    reports = [r for r in records if isinstance(r, dict)]
    assert any(r["dropped_budget"] for r in reports), name  # forget evicted
    assert total <= config.token_budget and long_frames, name
    assert any(isinstance(r, tuple) and r[3] for r in records), name  # candidates scored


class _Untouchable(TokenColumns):
    """Columns whose tokens may not be read one at a time."""

    def __iter__(self):
        raise AssertionError("iterated")

    def __getitem__(self, i):
        raise AssertionError("indexed")


def test_columns_are_read_as_columns_alone():
    # encode_tokens and ingest_frame do no per-token work on columns.
    rng = np.random.default_rng(8)
    tokens = _Untouchable(rng.standard_normal((6, 4)).astype(np.float32),
                          np.zeros(6, np.uint16), np.arange(6, dtype=np.uint16))
    bank = ProbeBank.generated(4, n=3, seed=1)
    entry = encode_tokens(0, 0.0, tokens, bank)
    assert entry.token_count == 6 and entry.cols.tolist() == list(range(6))
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=6, token_budget=12), bank)
    assert mem.ingest_frame(0.0, tokens).tokens_in == 6
    assert mem.total_tokens == 6 and np.array_equal(mem.short[0].token_matrix, entry.token_matrix)


def test_token_columns_never_alias_the_callers_arrays():
    # Writable columns are copied: ingest leaves the caller's arrays
    # writable, and writing to them after ingest changes nothing held.
    rng = np.random.default_rng(9)
    vectors, rows, cols = rng.standard_normal((5, 4)), np.arange(5, dtype=np.int64), [0] * 5
    tokens = TokenColumns(vectors, rows, cols)
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=5, token_budget=10),
                     ProbeBank.generated(4, n=3, seed=1))
    mem.ingest_frame(0.0, tokens)
    digest = mem.state_digest()
    assert vectors.flags.writeable and rows.flags.writeable
    vectors[:] = 7.0
    rows[:] = 3
    assert mem.state_digest() == digest
    assert not tokens.vectors.flags.writeable and tokens.vectors[0, 0] != 7.0


def _read_only_view(base):
    view = base.view()
    view.setflags(write=False)
    return view


class _ArrayLike:
    """An array-like whose np.asarray is its own writable array."""

    def __init__(self, array):
        self.array = array

    def __array__(self, dtype=None, copy=None):
        return self.array


def test_read_only_views_of_writable_arrays_are_copied():
    # A read-only view does not stop its writable base from being written:
    # TokenColumns, RawFrame and FrameEntry copy it, and an array-like's
    # own array is copied too, never sealed.
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=4),
                     ProbeBank.generated(4, n=3, seed=1))
    base = np.array([0, 1])
    mem.ingest_frame(0.0, TokenColumns(np.ones((2, 4)), _read_only_view(base), [0, 0]))
    digest = mem.state_digest()
    base[:] = 7
    assert mem.state_digest() == digest and mem.short[0].rows.tolist() == [0, 1]

    vectors, rows = np.ones((2, 4)), np.array([0, 1])
    for held in (TokenColumns(_read_only_view(vectors), _read_only_view(rows), [0, 0]),
                 TokenColumns(_ArrayLike(vectors), _ArrayLike(rows), [0, 0]),
                 RawFrame(0, 0.0, vectors=_read_only_view(vectors.astype(np.float32)),
                          rows=_read_only_view(rows.astype(np.uint16)), cols=[0, 0]),
                 FrameEntry(0, 0.0, _read_only_view(vectors), _read_only_view(np.ones(2)),
                            _read_only_view(rows), [0, 0])):
        columns = [held.token_matrix if isinstance(held, FrameEntry) else held.vectors, held.rows]
        for column, source in zip(columns, (vectors, rows)):
            assert not column.flags.writeable and not np.shares_memory(column, source)
        assert vectors.flags.writeable and rows.flags.writeable


# --- scene boundaries -------------------------------------------------------


def test_scene_boundary_rules():
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=4, token_budget=16)
    bank = small_bank()
    a = encode_tokens(0, 0.0, [(axis(4, 0), 0, 0), (axis(4, 1), 0, 1)], bank)
    same = encode_tokens(1, 1.0, [(axis(4, 0), 0, 0), (axis(4, 1), 0, 1)], bank)
    ortho = encode_tokens(2, 2.0, [(axis(4, 2), 0, 0), (axis(4, 3), 0, 1)], bank)
    assert is_scene_boundary(a, None, cfg) is True
    assert is_scene_boundary(same, a, cfg) is False
    assert is_scene_boundary(ortho, a, cfg) is True


def count_float64_kernel_calls(monkeypatch) -> list:
    """A list that gains an item at each float64 query_max_sims call: the
    scene screen's exact path. Its float32 steps take the kernel too."""
    calls = []
    exact_kernel = vecspace.query_max_sims

    def counted(query, *blocks, **kwargs):
        if query.dtype == np.float64:
            calls.append(1)
        return exact_kernel(query, *blocks, **kwargs)

    monkeypatch.setattr(vecspace, "query_max_sims", counted)
    return calls


def test_scene_boundary_at_its_own_similarity_falls_back_to_float64(monkeypatch):
    calls = count_float64_kernel_calls(monkeypatch)
    rng = np.random.default_rng(61)
    bank = ProbeBank.generated(16, n=3, seed=1)
    base = rng.standard_normal((40, 16))
    prev = encode_tokens(0, 0.0, [(v, 0, i) for i, v in enumerate(base)], bank)
    noisy = base + 0.4 * rng.standard_normal((40, 16))
    frame = encode_tokens(1, 1.0, [(v, 0, i) for i, v in enumerate(noisy)], bank)
    exact = vecspace.pooled_max_sim_units(frame.token_matrix, prev.token_matrix)
    calls.clear()
    for threshold, boundary in ((exact, False), (float(np.nextafter(exact, 1.0)), True)):
        assert is_scene_boundary(frame, prev, TierConfig(scene_threshold=threshold)) is boundary
    assert len(calls) == 2
    calls.clear()
    for threshold, boundary in ((exact - 0.05, False), (exact + 0.05, True)):
        assert is_scene_boundary(frame, prev, TierConfig(scene_threshold=threshold)) is boundary
    assert calls == []


def test_scene_boundary_fallback_runs_no_blas_self_check(monkeypatch):
    # The exact fallback takes the BLAS product of the frame and its
    # predecessor as they are: previous frames of any length add nothing to
    # the self-check's cache, and the flags are those of that product.
    # Encode runs salience's own self-check, so the cache is read after it.
    calls = count_float64_kernel_calls(monkeypatch)
    rng = np.random.default_rng(73)
    bank = ProbeBank.generated(128, n=3, seed=3)
    for n in (61, 203, 337, 509):
        base = rng.standard_normal((n, 128))
        prev = encode_tokens(0, 0.0, [(v, 0, i % 16) for i, v in enumerate(base)], bank)
        noisy = base[rng.integers(0, n, 40)] + 0.4 * rng.standard_normal((40, 128))
        frame = encode_tokens(1, 1.0, [(v, 0, i) for i, v in enumerate(noisy)], bank)
        cached = vecspace.blas_rows_invariant.cache_info().currsize
        product = prev.token_matrix @ frame.token_matrix.T
        exact = float(np.mean(np.clip(np.max(product, axis=0), -1.0, 1.0)))
        calls.clear()
        for threshold, boundary in ((exact, False), (float(np.nextafter(exact, 1.0)), True)):
            assert is_scene_boundary(frame, prev, TierConfig(scene_threshold=threshold)) is boundary
        assert len(calls) == 2, n
        assert vecspace.blas_rows_invariant.cache_info().currsize == cached, n


def test_scene_boundary_is_one_call_of_the_traced_kernel_per_ingest(monkeypatch):
    # The benchmark traces the scene-boundary test by wrapping
    # tiers.pooled_max_sim_units by name, so the whole test must run inside
    # exactly one call of it per ingest that has a predecessor.
    def flags(cfg):
        rng = np.random.default_rng(67)
        mem = new_memory(cfg, ProbeBank.generated(16, n=3, seed=2))
        base = rng.standard_normal((8, 16))
        out = []
        for t in range(40):
            if t % 9 == 0:
                base = rng.standard_normal((8, 16))
            vectors = base + rng.choice([0.05, 0.3, 1.0]) * rng.standard_normal((8, 16))
            out.append(mem.ingest_frame(float(t), [(v, 0, i) for i, v in enumerate(vectors)])
                       .scene_boundary)
        return out

    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, token_budget=64,
                     tokens_per_frame_max=8, scene_threshold=0.9)
    plain = flags(cfg)
    calls = []
    kernel = tiers.pooled_max_sim_units
    monkeypatch.setattr(tiers, "pooled_max_sim_units",
                        lambda *args, **kwargs: calls.append(1) or kernel(*args, **kwargs))
    assert flags(cfg) == plain
    assert len(calls) == len(plain) - 1
    assert set(plain[1:]) == {True, False}


def test_scene_boundary_casts_each_frame_to_float32_once(monkeypatch):
    # The screen's float32 cast of a frame is made when the frame is new and
    # reused one ingest later, when the frame is short[-1]: the previous
    # frame's cast is the very array made for it, with astype's bits, and
    # the flags are those of the screen casting both frames itself.
    rng = np.random.default_rng(71)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, token_budget=96,
                     tokens_per_frame_max=12, scene_threshold=0.9)
    mem = new_memory(cfg, ProbeBank.generated(16, n=3, seed=2))
    kernel = tiers.pooled_max_sim_units
    calls = []

    def recording(frame, prev, *, near, float32):
        made = []

        def cast(matrix):
            made.append((matrix, float32(matrix)))
            assert made[-1][1].tobytes() == matrix.astype(np.float32).tobytes()
            return made[-1][1]

        similarity = kernel(frame, prev, near=near, float32=cast)
        calls.append((frame, prev, made))
        assert (similarity < near) == (kernel(frame, prev, near=near) < near)
        return similarity

    monkeypatch.setattr(tiers, "pooled_max_sim_units", recording)
    base = rng.standard_normal((12, 16))
    flags = []
    for t in range(30):
        if t % 7 == 0:
            base = rng.standard_normal((12, 16))
        n = int(rng.integers(1, 13))
        vectors = base[:n] + rng.choice([0.05, 1.0]) * rng.standard_normal((n, 16))
        report = mem.ingest_frame(float(t), [(v, 0, i) for i, v in enumerate(vectors)])
        flags.append(report.scene_boundary)
    assert len(calls) == 29 and set(flags[1:]) == {True, False}
    for (frame, prev, made), (_, _, before) in zip(calls[1:], calls):
        (asked_prev, prev32), (asked_frame, _) = made
        assert asked_prev is prev and asked_frame is frame
        assert prev32 is before[1][1]  # cast one ingest earlier, as the new frame
    # A memory built from another's tiers keeps no cast: it casts short[-1] anew.
    newest32 = calls[-1][2][1][1]
    rebuilt = TieredMemory.from_tiers(cfg, mem.bank, short=mem.short, mid=mem.mid, long=mem.long)
    rebuilt.ingest_frame(30.0, [(v, 0, i) for i, v in enumerate(base[:4])])
    (asked_prev, prev32), _ = calls[-1][2]
    assert asked_prev is mem.short[-1].token_matrix and prev32 is not newest32


# Every form a frame's vectors may take, as five-component vectors: numpy
# views of either float dtype, lists of floats or of ints, a mix, and
# Python ints beyond int64.
_RNG = np.random.default_rng(71)
_F32 = _RNG.standard_normal((7, 5)).astype(np.float32)
VECTOR_FORMS = {
    "float32 views": list(_F32),
    "float64 views": list(_F32.astype(np.float64)),
    "float lists": _RNG.standard_normal((7, 5)).tolist(),
    "int lists": _RNG.integers(-9, 10, (7, 5)).tolist(),
    "mixed": [_F32[0], [1, 2, 3, 4, 5], _F32[2].astype(np.float64).tolist()],
    "ints beyond int64": [[2**70, 0, 0, 0, 0], [3, 2**70, -(2**70), 1, 0]],
}
# One vector each that is not five real numbers.
NOT_REAL = {
    "numeric string": ["1.5", 2.0, 3.0, 4.0, 5.0],
    "bools": [True, False, True, True, False],
    "complex": np.ones(5) * 1j,
    "object": [1, 2, object(), 4, 5],
    "beyond float64": [10**400, 0, 0, 0, 0],
    "letters": "abcde",
    "letter list": ["a"] * 5,
}
RAGGED = [[1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0]]
_BANK5 = ProbeBank.generated(5, n=3, seed=3)


def test_encode_tokens_stacks_every_vector_form_to_the_same_bits():
    for name, vectors in VECTOR_FORMS.items():
        entry = encode_tokens(0, 0.0, [(v, 0, i) for i, v in enumerate(vectors)], _BANK5)
        want = unit_rows(np.array(vectors, dtype=np.float64))
        assert entry.token_matrix.tobytes() == want.tobytes(), name
    for ragged in ([_F32[0], _F32[1][:4]], RAGGED, [[[1.0]], [[2.0]]], [1.0, 2.0]):
        with pytest.raises(DimensionError):
            encode_tokens(0, 0.0, [(v, 0, i) for i, v in enumerate(ragged)], _BANK5)
    # NOT_REAL's values fail in test_every_vector_reader_takes_real_numbers_only,
    # and a failed ingest leaves the memory as it was.
    mem = new_memory(TierConfig(), ProbeBank.generated(4, n=3, seed=3))
    with pytest.raises(ValidationError, match="must be real numbers"):
        mem.ingest_frame(0.0, [("abcd", 0, 0)])
    assert mem.total_tokens == 0


def _json(value) -> str:
    """value as JSON: numpy arrays as lists, and a JSON object in place of
    what JSON cannot hold (a complex number, a Python object)."""
    return json.dumps(value, default=lambda o: (o.tolist() if isinstance(o, np.ndarray)
                                                else {"a": 1}))


def _entry(matrix, scores) -> FrameEntry:
    n = len(scores)
    return FrameEntry(frame_index=0, timestamp=0.0, token_matrix=matrix, scores=scores,
                      rows=np.zeros(n, dtype=int), cols=np.arange(n))


def _query_file_tokens(matrix, tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(_json({"arrival_time": 0.0, "tokens": matrix}) + "\n")
    return load_queries_jsonl(path)[0].tokens


def _probe_file_matrix(vector, tmp_path):
    path = tmp_path / "probes.json"
    path.write_text(_json({"dim": 5, "probes": [{"vector": vector}]}))
    return ProbeBank.from_file(path).matrix


# Each entry point that reads an array of reals a caller or a file gives:
# (1 if it takes a vector or 2 if a matrix, a call that returns what it read).
READERS = {
    "encode_tokens": (2, lambda m, _: encode_tokens(
        0, 0.0, [(v, 0, i) for i, v in enumerate(m)], _BANK5).token_matrix),
    "FrameEntry token_matrix": (2, lambda m, _: _entry(m, np.zeros(len(m))).token_matrix),
    "FrameEntry scores": (1, lambda v, _: _entry(np.ones((len(v), 5)), v).scores),
    "RawFrame vectors": (2, lambda m, _: RawFrame(
        0, 0.0, vectors=m, rows=np.zeros(len(m), dtype=int), cols=np.arange(len(m))).vectors),
    "RawToken vector": (1, lambda v, _: RawToken(0, 0, v).vector),
    "QuerySpec tokens": (2, lambda m, _: QuerySpec("q", 0.0, m).tokens),
    "query file tokens": (2, _query_file_tokens),
    "ProbeBank": (1, lambda v, _: ProbeBank([v]).matrix),
    "probe file": (1, _probe_file_matrix),
    "normalize": (1, lambda v, _: normalize(v)),
    "cosine": (1, lambda v, _: np.float64(cosine(v, np.ones(5)))),
    "max_sim": (1, lambda v, _: np.float64(max_sim(v, _BANK5))),
    "late_interaction": (2, lambda m, _: np.float64(late_interaction(m, [np.ones(5)]))),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_vector_reader_takes_real_numbers_only(reader, tmp_path):
    # Every form keeps the bits it gives when read as float64 first; every
    # value that is not real numbers fails with ValidationError and ragged
    # rows with DimensionError, never with a bare numpy or Python error.
    rank, read = READERS[reader]
    for name, matrix in VECTOR_FORMS.items():
        for value in ([matrix] if rank == 2 else matrix):
            want = read(np.asarray(value, dtype=np.float64), tmp_path)
            assert read(value, tmp_path).tobytes() == want.tobytes(), name
    for not_real in NOT_REAL.values():
        with pytest.raises(ValidationError, match="must be real numbers"):
            read([not_real] if rank == 2 else not_real, tmp_path)
    with pytest.raises(DimensionError, match="differ in shape"):
        read(RAGGED, tmp_path)


# --- temporal pruning -------------------------------------------------------


def test_prune_spares_scene_boundary():
    entry = crafted_entry(0, [0.1] * 8, boundary=True)
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=8, token_budget=64)
    out = temporal_semantic_prune(entry, crafted_entry(1, [0.5]), cfg)
    assert out is entry


def test_prune_by_redundancy_hand_case():
    # Four tokens with cosine (0.9, 0.1, 0.5, 0.5) to their aligned
    # reference tokens; beta=0 so keep-score is 1 - redundancy:
    # (0.1, 0.9, 0.5, 0.5). Keep 2: index 1 wins, then the 0.5 tie
    # breaks to index 2.
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        keep_fraction=0.5,
        semantic_weight=0.0,
    )
    redundancies = [0.9, 0.1, 0.5, 0.5]
    dim = 8
    frame_tokens = tuple(
        crafted_token(0.0, 0, row=0, col=i, dim=dim, vec=tilted(dim, i, 4 + i % 4, r))
        for i, r in enumerate(redundancies)
    )
    ref_tokens = tuple(
        crafted_token(0.0, 1, row=0, col=i, dim=dim, vec=axis(dim, i)) for i in range(4)
    )
    frame = entry_of(0, frame_tokens)
    reference = entry_of(1, ref_tokens)
    out = temporal_semantic_prune(frame, reference, cfg)
    assert out.cols.tolist() == [1, 2]
    for embedding, score, col in zip(out.token_matrix, out.scores.tolist(), out.cols.tolist()):
        original_embedding, original_score, _, _ = frame_tokens[col]
        assert np.array_equal(embedding, original_embedding)
        assert score == original_score


def test_prune_semantic_weight_spares_salient_token():
    # Token A: salience 0.2, fully redundant (keep-score 0.2).
    # Token B: salience 0.0, redundancy 0.9 (keep-score 0.1). A survives.
    dim = 4
    bank = small_bank(dim)
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=4,
        token_budget=64,
        keep_fraction=0.5,
        semantic_weight=1.0,
    )
    vec_a = tilted(dim, 0, 1, 0.2)
    vec_b = axis(dim, 2)
    frame = encode_tokens(0, 0.0, [(vec_a, 0, 0), (vec_b, 0, 1)], bank)
    ref_b = tilted(dim, 2, 3, 0.9)
    reference = encode_tokens(1, 1.0, [(vec_a, 0, 0), (ref_b, 0, 1)], bank)
    assert math.isclose(frame.scores[0], 0.2, abs_tol=1e-12)
    assert math.isclose(frame.scores[1], 0.0, abs_tol=1e-12)
    out = temporal_semantic_prune(frame, reference, cfg)
    assert out.token_count == 1
    assert out.cols[0] == 0


def test_prune_missing_reference_position_means_no_redundancy():
    # No aligned token in the reference: redundancy 0, keep-score 1.
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=4,
        token_budget=64,
        keep_fraction=0.5,
        semantic_weight=0.0,
    )
    frame = entry_of(
        0,
        (
            crafted_token(0.0, 0, col=0, vec=axis(3, 0)),
            crafted_token(0.0, 0, col=1, vec=axis(3, 1)),
        ),
    )
    reference = entry_of(1, (crafted_token(0.0, 1, col=1, vec=axis(3, 1)),))
    out = temporal_semantic_prune(frame, reference, cfg)
    # Token 0 has no aligned reference (keep-score 1.0); token 1 is
    # identical to its reference (keep-score 0.0).
    assert out.cols.tolist() == [0]


def test_prune_keep_fraction_one_is_identity():
    cfg = TierConfig(
        short_cap_frames=1, tokens_per_frame_max=8, token_budget=64, keep_fraction=1.0
    )
    entry = crafted_entry(0, [0.1, 0.2, 0.3])
    assert temporal_semantic_prune(entry, None, cfg) is entry


# --- spatial selection ------------------------------------------------------


def test_select_distinct_cells_all_kept():
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        grid_size=4,
        long_quota_per_frame=4,
    )
    tokens = tuple(
        crafted_token(0.1 * i, 0, row=r, col=c)
        for i, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])
    )
    entry = entry_of(0, tokens)
    out = spatial_semantic_select(entry, cfg)
    assert out.token_count == 4


def test_select_single_cell_keeps_top_scores():
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        grid_size=4,
        long_quota_per_frame=2,
    )
    scores = [0.3, 0.9, 0.1, 0.5, 0.2, 0.8, 0.4, 0.6]
    tokens = tuple(crafted_token(s, 0, row=0, col=0) for s in scores)
    entry = entry_of(0, tokens)
    out = spatial_semantic_select(entry, cfg)
    assert sorted(out.scores.tolist()) == [0.8, 0.9]


def test_select_quota_cuts_cell_winners_by_score():
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        grid_size=4,
        long_quota_per_frame=1,
    )
    tokens = (
        crafted_token(0.9, 0, row=0, col=0),
        crafted_token(0.5, 0, row=0, col=1),
        crafted_token(0.1, 0, row=1, col=0),
    )
    entry = entry_of(0, tokens)
    out = spatial_semantic_select(entry, cfg)
    assert out.token_count == 1
    assert out.scores[0] == 0.9


def test_select_covers_cells_before_filling():
    # Cell (0,0) has two strong tokens, cell at the far corner one weak
    # token; quota 2 must still cover both cells.
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        grid_size=2,
        long_quota_per_frame=2,
    )
    tokens = (
        crafted_token(0.9, 0, row=0, col=0),
        crafted_token(0.8, 0, row=0, col=0),
        crafted_token(0.1, 0, row=3, col=3),
    )
    entry = entry_of(0, tokens)
    out = spatial_semantic_select(entry, cfg)
    assert sorted(out.scores.tolist()) == [0.1, 0.9]


def test_select_tie_keeps_lower_position():
    cfg = TierConfig(
        short_cap_frames=1,
        tokens_per_frame_max=8,
        token_budget=64,
        grid_size=1,
        long_quota_per_frame=1,
    )
    tokens = (
        crafted_token(0.5, 0, row=0, col=0),
        crafted_token(0.5, 0, row=0, col=1),
    )
    entry = entry_of(0, tokens)
    out = spatial_semantic_select(entry, cfg)
    assert out.token_count == 1
    assert out.cols[0] == 0


def test_select_grid_finer_than_frame_groups_like_its_extent():
    tokens = tuple(
        crafted_token(s, 0, row=r, col=c)
        for s, (r, c) in zip([0.2, 0.9, 0.4, 0.7], [(0, 0), (0, 2), (1, 1), (1, 2)])
    )
    entry = entry_of(0, tokens)
    at_extent = spatial_semantic_select(
        entry, TierConfig(short_cap_frames=1, tokens_per_frame_max=8, token_budget=64,
                          grid_size=3, long_quota_per_frame=2))
    far_finer = spatial_semantic_select(
        entry, TierConfig(short_cap_frames=1, tokens_per_frame_max=8, token_budget=64,
                          grid_size=2**62, long_quota_per_frame=2))
    assert far_finer.cols.tolist() == at_extent.cols.tolist() == [2, 2]


def test_select_on_huge_grids_and_coordinates_matches_the_reference():
    # Cell winners are found by sorting, never by a table of cells: at
    # grid_size 2**62 and coordinates up to 65535 a frame's cells could
    # number 2**32. Frames of up to 600 tokens with tied scores and repeated
    # cells, whose coordinates reach 65535, against the plain-list reference.
    rng = np.random.default_rng(37)
    for trial in range(60):
        n = int(rng.choice([1, 2, 17, 64, 600]))
        spread = int(rng.choice([2, 300, 65536]))
        rows = rng.integers(0, spread, size=n)
        cols = rng.integers(0, spread, size=n)
        rows[rng.integers(n)] = MAX_COORD
        if trial % 3 == 0:
            cols[:] = rows  # one axis repeats the other
        frame = FrameEntry(trial, float(trial), np.tile(axis(3, 0), (n, 1)),
                           rng.choice([0.0, 0.25, 0.5, rng.random()], size=n), rows, cols)
        for grid in (2**62, 2**31 + 1, 65536, 65535, 3):
            quota = int(rng.integers(1, 40))
            config = TierConfig(short_cap_frames=1, tokens_per_frame_max=n, token_budget=2048,
                                grid_size=grid, long_quota_per_frame=quota)
            want = reference_select_positions(plain(frame), grid, quota)
            assert_same_tokens(spatial_semantic_select(frame, config),
                               frame.take(np.array(want, dtype=int)))


# --- selective forgetting ---------------------------------------------------


def forget_memory(budget, **tiers):
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=1, token_budget=budget)
    return TieredMemory.from_tiers(cfg, small_bank(3), **tiers)


def test_forget_evicts_lowest_score():
    mem = forget_memory(2, long=[crafted_entry(0, [0.1, 0.5, 0.3])])
    report = selective_forget(mem)
    assert report.evicted == ((0, 0, 0.1),)
    assert mem.long[0].scores.tolist() == [0.5, 0.3]
    assert mem.total_tokens == 2


def test_forget_tie_breaks_to_older_frame():
    mem = forget_memory(1, long=[crafted_entry(3, [0.2]), crafted_entry(7, [0.2])])
    report = selective_forget(mem)
    assert report.evicted == ((3, 0, 0.2),)
    # Frame 3 lost its only token and is gone entirely.
    assert [e.frame_index for e in mem.long] == [7]


def test_forget_cascades_to_mid_when_long_empty():
    mem = forget_memory(1, mid=[crafted_entry(2, [0.4, 0.3])])
    report = selective_forget(mem)
    assert report.evicted == ((2, 1, 0.3),)
    assert mem.mid[0].scores.tolist() == [0.4]


def test_forget_drains_long_before_mid():
    mem = forget_memory(2, mid=[crafted_entry(1, [0.05])], long=[crafted_entry(0, [0.9, 0.8, 0.7])])
    report = selective_forget(mem)
    # Long loses its two lowest despite mid holding a far weaker token.
    assert report.evicted == ((0, 2, 0.7), (0, 1, 0.8))
    assert mem.total_tokens == 2


def test_forget_noop_under_budget():
    mem = forget_memory(8, long=[crafted_entry(0, [0.5])])
    assert selective_forget(mem).count == 0


def test_forget_never_touches_short_and_raises_when_stuck():
    mem = forget_memory(2, short=[crafted_entry(5, [0.1, 0.1, 0.1])])
    with pytest.raises(BudgetUnsatisfiable, match="recent FIFO"):
        selective_forget(mem)


# --- memory construction and ingest ----------------------------------------


def test_new_memory_empty_state():
    mem = new_memory(TierConfig(), ProbeBank.generated(16, n=5, seed=0))
    assert mem.total_tokens == 0
    assert mem.short == () and mem.mid == () and mem.long == ()
    assert mem.gate_stats.observations == 0


def tier_recount(mem):
    return {"short": sum(e.token_count for e in mem.short),
            "mid": sum(e.token_count for e in mem.mid),
            "long": sum(e.token_count for e in mem.long)}


def test_from_tiers_derives_every_counter():
    rng = np.random.default_rng(17)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, token_budget=40, tokens_per_frame_max=6)
    mem = new_memory(cfg, small_bank(4))
    for t in range(30):
        n = int(rng.integers(1, 7))
        mem.ingest_frame(0.5 * t, [(rng.standard_normal(4), i, 0) for i in range(n)],
                         frame_index=3 * t)
    assert mem.short and mem.mid and mem.long
    rebuilt = TieredMemory.from_tiers(cfg, small_bank(4), short=mem.short, mid=mem.mid,
                                      long=mem.long)
    assert all(a is b for a, b in zip(rebuilt.short, mem.short, strict=True))
    # Mid and long rows are copied into the rebuilt memory's pages.
    for name in ("mid", "long"):
        for a, b in zip(getattr(rebuilt, name), getattr(mem, name), strict=True):
            assert (a.frame_index, a.timestamp, a.scene_boundary) == (
                b.frame_index, b.timestamp, b.scene_boundary)
            for column in ("token_matrix", "scores", "rows", "cols"):
                assert np.array_equal(getattr(a, column), getattr(b, column))
    assert rebuilt.tier_tokens == tier_recount(mem) == mem.tier_tokens
    assert rebuilt.total_tokens == rebuilt.recount_tokens() == mem.total_tokens
    assert rebuilt.last_timestamp == mem.last_timestamp == 14.5
    # The digest covers the total and the next frame index; only the gate
    # statistics, which from_tiers starts empty, differ.
    rebuilt.gate_stats = mem.gate_stats
    assert rebuilt.state_digest() == mem.state_digest()
    with pytest.raises(NonMonotoneTimestamp):
        rebuilt.ingest_frame(14.5, [(axis(4, 0), 0, 0)])
    assert rebuilt.ingest_frame(15.0, [(axis(4, 0), 0, 0)]).frame_index == 3 * 29 + 1
    empty = TieredMemory.from_tiers(cfg, small_bank(4))
    assert empty.state_digest() == new_memory(cfg, small_bank(4)).state_digest()
    assert empty.last_timestamp is None


def test_tier_counts_match_a_recount_after_forget():
    states = [
        {"long": [crafted_entry(0, [0.1, 0.5, 0.3])]},
        {"long": [crafted_entry(3, [0.2]), crafted_entry(7, [0.2])]},
        {"mid": [crafted_entry(1, [0.05, 0.6])], "long": [crafted_entry(0, [0.9, 0.8, 0.7])]},
        {"short": [crafted_entry(4, [0.1])], "mid": [crafted_entry(2, [0.3, 0.2, 0.1])],
         "long": [crafted_entry(0, [0.4]), crafted_entry(1, [0.2, 0.5])]},
    ]
    for tiers in states:
        mem = forget_memory(1, **tiers)
        assert selective_forget(mem).count > 0
        assert mem.tier_tokens == tier_recount(mem)
        assert mem.total_tokens == mem.recount_tokens() == 1


def test_tiers_are_read_only_to_callers():
    mem = forget_memory(4, long=[crafted_entry(0, [0.5])])
    for name in ("short", "mid", "long"):
        tier = getattr(mem, name)
        assert isinstance(tier, tuple)
        with pytest.raises(AttributeError):
            tier.append(crafted_entry(9, [0.1]))
        with pytest.raises(AttributeError):
            setattr(mem, name, [])
    assert mem.tier_tokens == {"short": 0, "mid": 0, "long": 1}


def test_first_ingest():
    cfg = TierConfig(short_cap_frames=2, tokens_per_frame_max=4, token_budget=64)
    mem = new_memory(cfg, small_bank())
    report = mem.ingest_frame(0.0, [(axis(4, 0), 0, 0), (axis(4, 1), 0, 1)])
    assert report.scene_boundary is True
    assert (report.short_frames, report.mid_frames, report.long_frames) == (1, 0, 0)
    assert report.dropped_temporal == report.dropped_spatial == report.dropped_budget == 0
    assert mem.total_tokens == 2
    assert mem.gate_stats.observations == 1
    assert mem.gate_stats.ema == mem.short[0].pooled_score


def test_ingest_timestamp_and_size_guards():
    cfg = TierConfig(short_cap_frames=2, tokens_per_frame_max=2, token_budget=64)
    mem = new_memory(cfg, small_bank())
    mem.ingest_frame(1.0, [(axis(4, 0), 0, 0)])
    with pytest.raises(NonMonotoneTimestamp):
        mem.ingest_frame(1.0, [(axis(4, 0), 0, 0)])
    with pytest.raises(NonMonotoneTimestamp):
        mem.ingest_frame(0.5, [(axis(4, 0), 0, 0)])
    with pytest.raises(FrameTooLarge):
        mem.ingest_frame(2.0, [(axis(4, 0), 0, i) for i in range(3)])
    with pytest.raises(EmptyFrame):
        mem.ingest_frame(2.0, [])
    v = axis(4, 0)
    # Coordinates that are not integers were truncated (1.5 -> 1, 2.9 -> 2),
    # and a token that is not a (vector, row, col) triple ended in a bare
    # ValueError, or had its fourth item ignored; a bool among int rows
    # was read as 1.
    malformed = ([(v, 1.5, 0)], [(v, 0, 2.9)], [(v, 0, 0), (v, 0, 2.9)], [(v, "1", 0)],
                 [(v, None, 0)], [(v, 0)], [(v, 0, 0), (v, 0)], [(v, 0, 0, 0)],
                 [(v, 0, 0), (v, 0, 1, 2)], [v], [3], [(v, True, 0), (v, 1, 0)])
    for tokens in malformed:
        with pytest.raises(ValidationError):
            mem.ingest_frame(2.0, tokens)
    # A bool was taken as 1.0; strings and None ended in bare errors.
    for ts in (float("nan"), float("inf"), True, "x", None, 1j):
        with pytest.raises(ValidationError):
            mem.ingest_frame(ts, [(v, 0, 0)])
    # The failed calls left no trace.
    assert (mem.total_tokens, mem.last_timestamp) == (1, 1.0)
    mem.ingest_frame(np.float32(2.5), [(v, np.int64(1), np.uint16(2))])
    assert (mem.last_timestamp, mem.short[-1].rows.tolist()) == (2.5, [1])


@pytest.mark.parametrize(
    "build, field",
    [(lambda v: encode_tokens(0, "3", [(v, 0, 0)], small_bank()), "timestamp"),
     (lambda v: FrameEntry(frame_index=0, timestamp="3", token_matrix=[v], scores=[0.5],
                           rows=[0], cols=[0]), "timestamp"),
     (lambda v: FrameEntry(frame_index=1.5, timestamp=0.0, token_matrix=[v], scores=[0.5],
                           rows=[0], cols=[0]), "frame_index")],
)
def test_frame_index_and_timestamp_must_be_numbers(build, field):
    # A numeric string was read as a timestamp, and a fractional index kept.
    with pytest.raises(ValidationError, match=field):
        build(axis(4, 0))


def test_ingest_takes_the_callers_strictly_increasing_frame_index():
    cfg = TierConfig(short_cap_frames=1, mid_cap_frames=1, tokens_per_frame_max=1, token_budget=8)
    mem = new_memory(cfg, small_bank())
    token = [(axis(4, 0), 0, 0)]
    assert mem.ingest_frame(0.0, token, frame_index=1000).frame_index == 1000
    assert mem.ingest_frame(1.0, token).frame_index == 1001  # no index: the next one
    assert mem.ingest_frame(2.0, token, frame_index=np.int64(1005)).frame_index == 1005
    for bad in (1005, 1004, -1, True, 1006.0, "1007", 2**63 - 1):
        with pytest.raises(ValidationError):
            mem.ingest_frame(3.0, token, frame_index=bad)
    # A rejected frame leaves the memory as it was.
    assert (mem.total_tokens, mem.last_timestamp) == (3, 2.0)
    assert [e.frame_index for e in mem.long + mem.mid + mem.short] == [1000, 1001, 1005]
    assert mem.ingest_frame(3.0, token, frame_index=2**63 - 2).frame_index == 2**63 - 2
    assert len(mem.state_digest()) == 64


def test_demotion_prunes_half():
    # Frame 0 is a scene start and passes through whole; frame 1 repeats
    # frame 0, so when it demotes it keeps ceil(0.5 * 4) = 2 tokens.
    cfg = TierConfig(
        short_cap_frames=2,
        mid_cap_frames=16,
        tokens_per_frame_max=4,
        token_budget=64,
        keep_fraction=0.5,
    )
    mem = new_memory(cfg, small_bank())
    rng = np.random.default_rng(13)
    frame0 = [(rng.standard_normal(4), 0, i) for i in range(4)]
    mem.ingest_frame(0.0, frame0)
    mem.ingest_frame(1.0, frame0)  # identical content, not a boundary
    mem.ingest_frame(2.0, [(rng.standard_normal(4), 0, i) for i in range(4)])
    assert [e.frame_index for e in mem.mid] == [0]
    assert mem.mid[0].token_count == 4  # boundary frame spared
    mem.ingest_frame(3.0, [(rng.standard_normal(4), 0, i) for i in range(4)])
    assert [e.frame_index for e in mem.mid] == [0, 1]
    assert mem.mid[1].token_count == 2


def test_frozen_memory_rejects_ingest():
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=8), small_bank())
    mem.ingest_frame(0.0, [(axis(4, 0), 0, 0)])
    snap = mem.freeze()
    with pytest.raises(FrozenMemory):
        mem.ingest_frame(1.0, [(axis(4, 0), 0, 0)])
    mem.thaw()
    mem.ingest_frame(1.0, [(axis(4, 0), 0, 0)])
    assert snap.total_tokens == 1


def test_freeze_timestamp_rules():
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=8), small_bank())
    assert mem.freeze().freeze_timestamp == 0.0
    mem.thaw()
    mem.ingest_frame(5.0, [(axis(4, 0), 0, 0)])
    assert mem.freeze().freeze_timestamp == 5.0
    mem.thaw()
    assert mem.freeze(at=7.5).freeze_timestamp == 7.5
    mem.thaw()
    with pytest.raises(NonMonotoneTimestamp):
        mem.freeze(at=4.0)
    # A NaN freeze time stamped the snapshot NaN, and True was taken as 1.0.
    for at in (float("nan"), float("inf"), True, "6", 1j):
        with pytest.raises(ValidationError):
            mem.freeze(at=at)
    assert not mem.frozen
    assert mem.freeze(at=np.int64(6)).freeze_timestamp == 6.0


def test_double_freeze_identical():
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=8), small_bank())
    mem.ingest_frame(0.0, [(axis(4, 0), 0, 0)])
    assert mem.freeze() == mem.freeze()


def test_snapshot_equality_with_frames_in_every_tier():
    # A snapshot is equal to itself, two freezes of one state are equal with
    # equal hashes, and a freeze at the same time after a further ingest is
    # not equal to them.
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=6,
                     token_budget=40, long_quota_per_frame=2)
    mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=5))
    rng = np.random.default_rng(71)
    ts = ingest_random(mem, rng, 12, 6, 0)
    first = mem.freeze(at=100.0)
    assert first.short and first.mid and first.long
    assert first == first and hash(first) == hash(first)
    mem.thaw()
    second = mem.freeze(at=100.0)
    mem.thaw()
    assert second == first and hash(second) == hash(first)
    ingest_random(mem, rng, 1, 6, ts)
    later = mem.freeze(at=100.0)
    assert later != first and later != second
    assert first == second and hash(first) == hash(second)


def test_snapshot_all_frames_ascending():
    cfg = TierConfig(
        short_cap_frames=1,
        mid_cap_frames=1,
        tokens_per_frame_max=2,
        token_budget=16,
    )
    mem = new_memory(cfg, small_bank())
    rng = np.random.default_rng(3)
    for t in range(5):
        mem.ingest_frame(float(t), [(rng.standard_normal(4), 0, 0)])
    snap = mem.freeze()
    indices = [e.frame_index for e in snap.all_frames()]
    assert indices == sorted(indices)
    assert snap.freeze_timestamp == 4.0


# --- per-token reference ---------------------------------------------------
#
# The stages as one Python loop per token over plain lists
# (tests/reference_engine.py). The columnar stages must pick the same
# tokens, including on tied scores and repeated grid positions.


def plain(entry):
    """A frame's columns as the references read them: (vectors, scores,
    rows, cols) lists, or None for no frame."""
    if entry is None:
        return None
    return (entry.token_matrix.tolist(), entry.scores.tolist(), entry.rows.tolist(),
            entry.cols.tolist())


def pruned(frame, reference, config):
    """frame as temporal pruning should leave it, by the reference."""
    positions = reference_prune_positions(plain(frame), plain(reference), config.keep_fraction,
                                          config.semantic_weight)
    return frame.take(np.array(positions, dtype=int))


def forget_reference(mem, overflow):
    """Forget's victims by the reference, from the long, then the mid tier."""
    return reference_forget([[(e.frame_index, e.scores.tolist()) for e in tier]
                             for tier in (mem.long, mem.mid)], overflow)


def test_reference_engine_imports_nothing_else_from_tiermem():
    # The references stay independent of the code they check: from tiermem
    # they may take max_sim and late_interaction, which define a token's
    # salience and a frame's score, and nothing else.
    tree = ast.parse(Path(__file__).with_name("reference_engine.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.partition(".")[0] == "tiermem"]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").partition(".")[0] == "tiermem"):
            taken |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib"), node.id
    assert taken <= {"max_sim", "late_interaction"}, taken


def random_entry(rng, frame_index, dim=4):
    n = int(rng.integers(1, 13))
    vectors = rng.standard_normal((n, dim))
    repeats = rng.uniform(size=n) < 0.3
    vectors[repeats] = vectors[0]  # tied redundancy
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index),
        token_matrix=np.stack([normalize(v) for v in vectors]),
        scores=rng.choice([0.0, 0.25, 0.5], size=n),  # tied salience
        rows=rng.integers(0, 3, size=n),  # repeated grid positions
        cols=rng.integers(0, 3, size=n),
        scene_boundary=False,
    )


def grid_entry(rng, frame_index, keys, dim=4):
    """A frame of random unit tokens at the given keys of a 3 x 3 grid, in order."""
    n = len(keys)
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index),
        token_matrix=np.stack([normalize(v) for v in rng.standard_normal((n, dim))]),
        scores=rng.choice([0.0, 0.25, 0.5], size=n),  # tied salience
        rows=keys // 3,
        cols=keys % 3,
        scene_boundary=False,
    )


def assert_same_tokens(got, want):
    for name in ("token_matrix", "scores", "rows", "cols"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_columnar_stages_match_per_token_reference():
    for seed in range(200):
        rng = np.random.default_rng([seed, 31])
        config = TierConfig(
            short_cap_frames=1,
            tokens_per_frame_max=16,
            token_budget=64,
            keep_fraction=float(rng.choice([0.25, 0.5, 0.75])),
            semantic_weight=float(rng.choice([0.0, 0.5, 1.0])),
            grid_size=int(rng.integers(1, 4)),
            long_quota_per_frame=int(rng.integers(1, 8)),
        )
        frame, reference = random_entry(rng, 0), random_entry(rng, 1)
        for ref in (reference, None):
            want = pruned(frame, ref, config)
            assert_same_tokens(temporal_semantic_prune(frame, ref, config), want)
        positions = reference_select_positions(plain(frame), config.grid_size,
                                               config.long_quota_per_frame)
        want = frame.take(np.array(positions, dtype=int))
        assert_same_tokens(spatial_semantic_select(frame, config), want)

        mem = forget_memory(int(rng.integers(1, 40)),
                            long=[random_entry(rng, f, dim=3) for f in (0, 2, 5)],
                            mid=[random_entry(rng, f, dim=3) for f in (6, 7)])
        before = {e.frame_index: e for e in mem.long + mem.mid}
        expected = forget_reference(mem, mem.total_tokens - mem.config.token_budget)
        assert selective_forget(mem).evicted == tuple(expected)
        for f, original in before.items():
            kept = [i for i in range(original.token_count) if (f, i) not in {v[:2] for v in expected}]
            survivors = [e for e in mem.long + mem.mid if e.frame_index == f]
            if kept:
                assert_same_tokens(survivors[0], original.take(np.array(kept)))
            else:
                assert survivors == []

        # Random grids almost never coincide, so frames on one grid come
        # apart: raster-ordered unique positions, which prune aligns in
        # place; that grid with one position repeated, where a token aligns
        # with the first reference token at its position; and a reference
        # holding the frame's positions in another order.
        raster = np.sort(rng.choice(9, size=int(rng.integers(2, 10)), replace=False))
        repeated = raster.copy()
        twice = int(rng.integers(1, len(raster)))
        repeated[twice] = repeated[twice - 1]
        permuted = rng.permutation(raster)
        if np.array_equal(permuted, raster):
            permuted = permuted[::-1]
        for frame_keys, ref_keys in ((raster, raster), (repeated, repeated), (raster, permuted)):
            on_grid, ref = grid_entry(rng, 0, frame_keys), grid_entry(rng, 1, ref_keys)
            want = pruned(on_grid, ref, config)
            assert_same_tokens(temporal_semantic_prune(on_grid, ref, config), want)


def test_forget_small_overflow_in_a_large_tied_tier_matches_reference():
    # Many tokens share the cut-off score, so the candidates picked by
    # partition must include every boundary tie for the sort to pick the
    # reference's victims.
    for seed in range(40):
        rng = np.random.default_rng([seed, 43])
        long = [random_entry(rng, f, dim=3) for f in range(0, 60, 2)]
        mid = [random_entry(rng, f, dim=3) for f in range(60, 70)]
        overflow = int(rng.integers(1, 12))
        mem = forget_memory(sum(e.token_count for e in long + mid) - overflow, long=long, mid=mid)
        expected = forget_reference(mem, overflow)
        assert selective_forget(mem).evicted == tuple(expected)
        assert mem.total_tokens == mem.recount_tokens() == mem.config.token_budget


def public_copy(entry):
    """The same frame built through the public, validating constructor."""
    return FrameEntry(
        frame_index=entry.frame_index,
        timestamp=entry.timestamp,
        token_matrix=entry.token_matrix,
        scores=entry.scores,
        rows=entry.rows,
        cols=entry.cols,
        scene_boundary=entry.scene_boundary,
    )


def assert_same_entry(got, want):
    assert_same_tokens(got, want)
    for name in ("frame_index", "timestamp", "scene_boundary", "token_count"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("pooled_score", "min_score"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    for name in ("token_matrix", "scores", "rows", "cols"):
        assert not getattr(got, name).flags.writeable, name


def test_taken_entries_equal_public_construction():
    for seed in range(60):
        rng = np.random.default_rng([seed, 47])
        n = int(rng.integers(1, 600))
        entry = FrameEntry(
            frame_index=seed,
            timestamp=float(seed),
            token_matrix=rng.standard_normal((n, 4)),
            scores=rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n),
            rows=rng.integers(0, 9, size=n),
            cols=rng.integers(0, 9, size=n),
            scene_boundary=bool(seed % 2),
        )
        subset = np.flatnonzero(rng.uniform(size=n) < rng.uniform())
        for positions in (subset, rng.integers(n, size=int(rng.integers(1, 2 * n))), np.array([n - 1])):
            if not len(positions):
                continue
            got = entry.take(positions)
            assert_same_entry(got, public_copy(got))
            assert got.token_count == len(positions)
            assert got.pooled_score.hex() == float(np.mean(entry.scores[positions])).hex()
            assert got.min_score == entry.scores[positions].min()
    with pytest.raises(EmptyFrame):
        entry.take(np.array([], dtype=int))


def test_pipeline_entries_equal_public_construction():
    # Entries the pipeline derives (scene-boundary flag, prune, select and
    # forget) are built without re-validation; each must still equal its
    # validated twin, and both flag values must occur.
    flags = set()
    for seed in range(6):
        rng = np.random.default_rng([seed, 29])
        cfg = random_config(rng)
        mem = new_memory(cfg, small_bank(5))
        for t in range(50):
            n = int(rng.integers(1, cfg.tokens_per_frame_max + 1))
            base = rng.standard_normal(5)
            mem.ingest_frame(float(t), [
                (base + rng.standard_normal(5) * rng.choice([0.01, 2.0]),
                 int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                for _ in range(n)
            ])
            newest = mem.short[-1]
            flags.add(newest.scene_boundary)
            prev = mem.short[-2] if len(mem.short) > 1 else None
            if prev is not None:
                assert newest.scene_boundary == is_scene_boundary(newest, prev, cfg)
            for entry in mem.short + mem.mid + mem.long:
                assert_same_entry(entry, public_copy(entry))
    assert flags == {True, False}


def test_forget_on_tie_heavy_tiers_matches_reference():
    # Tie-heavy tiers (few score levels, so many tokens and frame minima
    # share the cut-off score) alternate with distinct scores (so a cut one
    # token too low misses a victim); small frames, so victims empty whole
    # frames; and overflows from 1 up past the long tier's tokens, so
    # eviction also spills into the mid tier.
    seen = set()
    for seed in range(150):
        rng = np.random.default_rng([seed, 67])
        if seed % 2:
            levels = rng.choice([0.0, 0.25, 0.5, 0.75], size=int(rng.integers(1, 4)), replace=False)
        else:
            levels = rng.uniform(size=200)

        def tied_entry(f):
            n = int(rng.integers(1, 6))
            return FrameEntry(frame_index=f, timestamp=float(f),
                              token_matrix=np.tile(axis(3, 0), (n, 1)),
                              scores=rng.choice(levels, size=n), rows=np.zeros(n, dtype=int),
                              cols=np.arange(n))

        n_long = int(rng.integers(1, 40))
        long = [tied_entry(f) for f in range(n_long)]
        mid = [tied_entry(f) for f in range(n_long, n_long + int(rng.integers(0, 6)))]
        long_tokens = sum(e.token_count for e in long)
        total = long_tokens + sum(e.token_count for e in mid)
        overflow = int(rng.integers(1, total))
        mem = forget_memory(total - overflow, long=long, mid=mid)
        before = {e.frame_index: e for e in mem.long + mem.mid}
        minima = sorted(e.min_score for e in mem.long)
        if overflow < n_long and minima.count(minima[overflow - 1]) > 1:
            seen.add("tied frame minima")
        seen.add("overflow >= frames" if overflow >= n_long else "overflow < frames")
        if overflow > long_tokens and mem.mid:
            seen.add("spill into mid")

        expected = forget_reference(mem, overflow)
        assert selective_forget(mem).evicted == tuple(expected)
        lost = {}
        for f, i, _ in expected:
            lost.setdefault(f, set()).add(i)
        for tier in (mem.long, mem.mid):
            assert [e.frame_index for e in tier] == sorted(e.frame_index for e in tier)
        survivors = {e.frame_index: e for e in mem.long + mem.mid}
        for f, original in before.items():
            kept = [i for i in range(original.token_count) if i not in lost.get(f, ())]
            if kept:
                want = original.take(np.array(kept))
                assert_same_entry(survivors[f], want)
                assert survivors[f] is original or f in lost
            else:
                assert f not in survivors
                seen.add("emptied")
        assert mem.total_tokens == mem.recount_tokens() == mem.config.token_budget
        assert mem.tier_tokens["long"] == sum(e.token_count for e in mem.long)
        assert mem.tier_tokens["mid"] == sum(e.token_count for e in mem.mid)
    assert seen == {"tied frame minima", "overflow < frames", "overflow >= frames",
                    "spill into mid", "emptied"}


def test_forget_drops_whole_tiers_as_the_reference_does(monkeypatch):
    # Overflows at the edges of a whole tier: the long tier's tokens less
    # one (a partial eviction), all of them (the long tier goes whole), one
    # more (it goes whole and the mid tier loses a token), and both tiers'
    # tokens (both go whole). The memories come from ingests whose forgets
    # trimmed frames in place, so spans hold dead rows, and some pages were
    # compacted. The victims, the survivors, the tiers' counts and the
    # pages still held match the reference and the budget.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    dim = 6
    seen = set()

    def built(seed, cfg):
        """The seed's memory, after ingests that end with a frame that fills
        the short tier, so the budget may fall to that tier's tokens."""
        rng = np.random.default_rng([seed, 157])
        mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=seed))
        del moves[:]
        ingest_random(mem, rng, 40, dim, 0)
        mem.ingest_frame(40.0, [(rng.standard_normal(dim), i % 4, i // 4) for i in range(12)])
        return mem

    for seed in range(12):
        rng = np.random.default_rng([seed, 163])
        cfg = TierConfig(short_cap_frames=1, mid_cap_frames=3, tokens_per_frame_max=12,
                         token_budget=int(rng.integers(40, 90)), keep_fraction=0.75,
                         long_quota_per_frame=int(rng.integers(2, 10)))
        tokens = built(seed, cfg).tier_tokens
        long, mid = tokens["long"], tokens["mid"]
        assert long > 1 and mid > 1
        for overflow in (long - 1, long, long + 1, long + mid):
            mem = built(seed, cfg)
            seen.update({"compacted"} if moves else ())
            tables = mem._tables
            counts, spans = tables["long"].ints[[1, 4], :tables["long"].size]
            if (counts < spans).any() and overflow >= long:
                seen.add("trimmed frames go whole")
            seen.add({long - 1: "partial", long: "long whole", long + 1: "cascade",
                      long + mid: "both whole"}[overflow])
            mem.config = dataclasses.replace(cfg, token_budget=mem.total_tokens - overflow)
            before = {e.frame_index: e for e in mem.long + mem.mid}
            expected = forget_reference(mem, overflow)
            report = selective_forget(mem)
            assert report.count == overflow
            assert report.evicted == tuple(expected), (seed, overflow)
            lost = collections.defaultdict(set)
            for f, i, _ in expected:
                lost[f].add(i)
            survivors = {e.frame_index: e for e in mem.long + mem.mid}
            for f, original in before.items():
                kept = [i for i in range(original.token_count) if i not in lost[f]]
                if kept:
                    assert_same_entry(survivors[f], original.take(np.array(kept)))
                else:
                    assert f not in survivors
            assert mem.tier_tokens == tier_recount(mem)
            assert mem.total_tokens == mem.recount_tokens() == mem.config.token_budget
            assert mem.tier_tokens["long"] == max(0, long - overflow)
            assert mem.tier_tokens["mid"] == min(mid, long + mid - overflow)
            # Every page held holds live rows, each of them a token of a
            # frame its tier's table places there.
            for page, group, _, _, live in mem.row_store.page_usage():
                counts, pages = tables[group].ints[1:3, :tables[group].size]
                assert 0 < live == int(counts[pages == page].sum()), (seed, overflow)
            for group in ("mid", "long"):
                held = sum(live for _, g, _, _, live in mem.row_store.page_usage() if g == group)
                assert held == mem.tier_tokens[group]
    assert seen == {"compacted", "trimmed frames go whole", "partial", "long whole", "cascade",
                    "both whole"}


def test_eviction_report_read_after_later_ingests_is_as_of_its_call(monkeypatch):
    # Forget's report holds copies of its victims' columns: read only after
    # later ingests have trimmed frames in place, compacted pages and
    # released pages, it lists what the reference lists as of its call, and
    # it equals the report of a twin memory that was read at once.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    real_forget = tiers.selective_forget
    calls = []

    def recorded(mem):
        counts = {e.frame_index: e.token_count for e in mem.long + mem.mid}
        expected = forget_reference(mem, mem.total_tokens - mem.config.token_budget)
        report = real_forget(mem)
        held = {page_id for page_id, *_ in mem.row_store.page_usage()}
        lost = collections.Counter(f for f, _, _ in expected)
        calls.append((report, expected, len(moves), held,
                      any(n < counts[f] for f, n in lost.items())))
        return report

    monkeypatch.setattr(tiers, "selective_forget", recorded)
    seen = set()
    for seed in range(8):
        rng = np.random.default_rng([seed, 137])
        dim = 6
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                         token_budget=int(rng.integers(40, 120)), keep_fraction=0.75,
                         long_quota_per_frame=int(rng.integers(2, 14)))
        bank = ProbeBank.generated(dim, n=3, seed=seed)
        calls.clear()
        ingest_random(new_memory(cfg, bank), copy.deepcopy(rng), 60, dim, 0)
        twin = [report for report, *_ in calls]
        for report in twin:
            report.evicted
        calls.clear()
        mem = new_memory(cfg, bank)
        ingest_random(mem, rng, 60, dim, 0)
        released = {page_id for page_id, *_ in mem.row_store.page_usage()}
        trims = [trimmed for *_, trimmed in calls]
        for k, ((report, expected, moved, held, _), early) in enumerate(zip(calls, twin, strict=True)):
            if not expected:
                assert report.count == 0 and report.evicted == ()
                continue
            seen.update({"trimmed in place"} if any(trims[k + 1:]) else ())
            seen.update({"compacted"} if len(moves) > moved else ())
            seen.update({"released"} if held - released else ())
            assert report.count == len(expected)
            assert report.evicted == tuple(expected)
            assert report.to_json_dict() == {"evicted": [list(v) for v in expected]}
            assert report == early and hash(report) == hash(early)
    assert seen == {"trimmed in place", "compacted", "released"}


def test_ingest_reads_only_the_eviction_count(monkeypatch):
    # ingest_frame reports how many tokens forget dropped and never builds
    # the victims' tuples; the count still conserves every token.
    def unread(report):
        raise AssertionError("ingest read the evicted tuples")

    monkeypatch.setattr(tiers.EvictionReport, "evicted", property(unread))
    dim, n = 8, 16
    for budget in (150, 48):  # eviction from the long tier, and from mid alone
        rng = np.random.default_rng([budget, 139])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=budget,
                         tokens_per_frame_max=n, long_quota_per_frame=4)
        mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=budget))
        reports = [mem.ingest_frame(float(t), [(rng.standard_normal(dim), i // 4, i % 4)
                                               for i in range(n)]) for t in range(60)]
        assert all(r.dropped_budget > 0 for r in reports[20:])
        dropped = sum(r.dropped_temporal + r.dropped_spatial + r.dropped_budget for r in reports)
        assert sum(r.tokens_in for r in reports) == mem.total_tokens + dropped
        assert mem.total_tokens == mem.recount_tokens() <= budget


# --- whole-pipeline invariants ----------------------------------------------


def random_config(rng):
    short = int(rng.integers(1, 5))
    tpm = int(rng.integers(1, 9))
    return TierConfig(
        short_cap_frames=short,
        mid_cap_frames=int(rng.integers(1, 7)),
        token_budget=short * tpm + int(rng.integers(0, 33)),
        keep_fraction=float(rng.choice([0.25, 0.5, 0.75, 1.0])),
        semantic_weight=float(rng.uniform(0.0, 2.0)),
        scene_threshold=float(rng.uniform(-0.5, 0.95)),
        grid_size=int(rng.integers(1, 5)),
        long_quota_per_frame=int(rng.integers(1, 9)),
        tokens_per_frame_max=tpm,
    )


def check_invariants(mem):
    cfg = mem.config
    assert mem.total_tokens <= cfg.token_budget
    assert mem.total_tokens == mem.recount_tokens()
    assert len(mem.short) <= cfg.short_cap_frames
    assert len(mem.mid) <= cfg.mid_cap_frames
    ordered = [e.frame_index for e in mem.long + mem.mid + mem.short]
    assert ordered == sorted(ordered)
    assert len(set(ordered)) == len(ordered)


def test_pipeline_invariants_fuzz():
    for seed in range(8):
        rng = np.random.default_rng([seed, 77])
        cfg = random_config(rng)
        dim = int(rng.integers(3, 9))
        bank = ProbeBank.generated(dim, n=3, seed=seed)
        mem = new_memory(cfg, bank)
        ts = 0.0
        for _ in range(40):
            ts += float(rng.uniform(0.1, 2.0))
            count = int(rng.integers(1, cfg.tokens_per_frame_max + 1))
            tokens = []
            for i in range(count):
                vec = rng.standard_normal(dim)
                if rng.uniform() < 0.02:
                    vec = np.zeros(dim)  # degenerate token takes the sentinel path
                tokens.append((vec, int(rng.integers(0, 4)), int(rng.integers(0, 4))))
            mem.ingest_frame(ts, tokens)
            check_invariants(mem)


def test_retained_tokens_keep_ingest_scores_bit_exactly():
    cfg = TierConfig(
        short_cap_frames=2,
        mid_cap_frames=2,
        token_budget=40,
        tokens_per_frame_max=6,
        long_quota_per_frame=2,
        scene_threshold=-0.5,  # random frames never count as boundaries
    )
    dim = 8
    bank = ProbeBank.generated(dim, n=4, seed=1)
    mem = new_memory(cfg, bank)
    rng = np.random.default_rng(101)
    for t in range(30):
        mem.ingest_frame(float(t), [(rng.standard_normal(dim), 0, i) for i in range(6)])
    assert mem.long, "stream long enough to reach the long tier"
    for tier in (mem.short, mem.mid, mem.long):
        for entry in tier:
            for embedding, score in zip(entry.token_matrix, entry.scores.tolist()):
                assert score == max_sim(embedding, bank)


def test_ingest_deterministic_digest():
    def run(seed):
        cfg = TierConfig(
            short_cap_frames=2, mid_cap_frames=3, token_budget=24, tokens_per_frame_max=4
        )
        bank = ProbeBank.generated(6, n=3, seed=9)
        mem = new_memory(cfg, bank)
        rng = np.random.default_rng(seed)
        for t in range(25):
            mem.ingest_frame(
                float(t), [(rng.standard_normal(6), 0, i) for i in range(4)]
            )
        return mem.state_digest()

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_tier_token_counts_match_a_recount_after_every_ingest():
    evicted = 0
    for seed in range(6):
        rng = np.random.default_rng([seed, 83])
        cfg = random_config(rng)
        mem = new_memory(cfg, small_bank(5))
        for t in range(60):
            n = int(rng.integers(1, cfg.tokens_per_frame_max + 1))
            report = mem.ingest_frame(float(t), [
                (rng.standard_normal(5), int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                for _ in range(n)
            ])
            evicted += report.dropped_budget
            recount = {tier: sum(e.token_count for e in getattr(mem, tier))
                       for tier in ("short", "mid", "long")}
            assert mem.tier_tokens == recount
            assert (report.short_tokens, report.mid_tokens, report.long_tokens) == (
                recount["short"], recount["mid"], recount["long"])
            assert mem.total_tokens == mem.recount_tokens()
    assert evicted > 0


def test_report_counts_match_state():
    cfg = TierConfig(
        short_cap_frames=2, mid_cap_frames=2, token_budget=16, tokens_per_frame_max=4
    )
    mem = new_memory(cfg, small_bank())
    rng = np.random.default_rng(8)
    for t in range(12):
        report = mem.ingest_frame(
            float(t), [(rng.standard_normal(4), 0, i) for i in range(4)]
        )
        assert report.total_tokens == mem.total_tokens
        assert (
            report.short_tokens + report.mid_tokens + report.long_tokens
            == report.total_tokens
        )
        assert report.short_frames == len(mem.short)
        assert report.mid_frames == len(mem.mid)
        assert report.long_frames == len(mem.long)


# --- paged row store --------------------------------------------------------


def test_from_tiers_rejects_foreign_dimensions_and_unordered_frames():
    with pytest.raises(DimensionError):
        forget_memory(8, long=[crafted_entry(0, [0.5], dim=4)])
    with pytest.raises(DimensionError):
        forget_memory(8, short=[crafted_entry(0, [0.5], dim=2)])
    for tiers in ({"long": [crafted_entry(3, [0.5])], "mid": [crafted_entry(2, [0.5])]},
                  {"mid": [crafted_entry(4, [0.5])], "short": [crafted_entry(4, [0.5])]},
                  {"long": [crafted_entry(5, [0.5]), crafted_entry(1, [0.5])]},
                  {"long": [crafted_entry(6, [0.5])], "short": [crafted_entry(0, [0.5])]}):
        with pytest.raises(ValidationError):
            forget_memory(8, **tiers)


def ingest_random(mem, rng, count, dim, first_ts):
    """count frames of 1 to tokens_per_frame_max random tokens on a 5 x 5 grid."""
    for t in range(first_ts, first_ts + count):
        n = int(rng.integers(1, mem.config.tokens_per_frame_max + 1))
        mem.ingest_frame(float(t), [(rng.standard_normal(dim), int(rng.integers(0, 5)),
                                     int(rng.integers(0, 5))) for _ in range(n)])
    return first_ts + count


def entry_state(entry):
    """Everything a reader can see of an entry, its four columns as bytes."""
    return (entry.frame_index, entry.timestamp, entry.scene_boundary, entry.token_count,
            entry.pooled_score, entry.min_score, entry.token_matrix.tobytes(),
            entry.scores.tobytes(), entry.rows.tobytes(), entry.cols.tobytes())


def frame_table(snap):
    """A snapshot's long, then mid frames' int rows: frame_index, count,
    page, start and span."""
    return np.concatenate([ints[:5] for ints, _ in snap.tables], axis=1)


def trimmed_in_place(before, after):
    """Frames of the snapshot before that lost tokens by the snapshot after
    and still start at the same row of the same page."""
    where = {frame: (page, start, count) for frame, count, page, start
             in frame_table(after)[:4].T.tolist()}
    return [frame for frame, count, page, start in frame_table(before)[:4].T.tolist()
            if frame in where and where[frame][:2] == (page, start) and where[frame][2] < count]


def test_a_gate_closed_query_reads_columns_and_builds_no_entry(monkeypatch):
    # A past query scores the mid and long frames from the frame tables'
    # columns and the pages, trimmed frames among them: neither retrieve
    # nor score_candidates alone builds an entry for any of them.
    rng = np.random.default_rng(113)
    dim = 6
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                     token_budget=90, keep_fraction=0.75, long_quota_per_frame=8)
    mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=5))
    ts = ingest_random(mem, rng, 40, dim, 0)
    snap = mem.freeze()
    assert all(size for _, _, size in snap._columns)  # long and mid frames
    table = frame_table(snap)
    assert (table[1] < table[4]).any() and (table[1] == table[4]).any()
    query = QuerySpec("past", float(ts), rng.standard_normal((2, dim)), rho=1e7)

    def refused(*args):
        raise AssertionError("a query built a frame entry")

    monkeypatch.setattr(tiers, "_entry", refused)
    result = retrieve(snap, mem.gate_stats, query)
    scores = score_candidates(snap, query)
    monkeypatch.undo()
    assert not result.gated_short_only
    assert list(scores) == sorted(entry.frame_index for entry in snap.long + snap.mid)
    assert result.frame_scores.scores.tobytes() == scores.scores.tobytes()


def test_snapshot_stays_valid_after_thaw_and_later_ingest(monkeypatch):
    # Pages of 8 rows, so frames longer than a page get pages of their own,
    # and demotions, trims in place, drops and compaction change the pages
    # between the freeze and the later reads. A twin memory fed the same
    # frames and never ingested into again says what the snapshot must read.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    seen = set()
    for seed in range(16):
        rng = np.random.default_rng([seed, 89])
        dim = 6
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                         token_budget=int(rng.integers(40, 120)), keep_fraction=0.75,
                         long_quota_per_frame=int(rng.integers(2, 14)))
        bank = ProbeBank.generated(dim, n=3, seed=seed)
        mem, twin = new_memory(cfg, bank), new_memory(cfg, bank)
        count = int(rng.integers(8, 40))
        ingest_random(twin, copy.deepcopy(rng), count, dim, 0)
        ts = ingest_random(mem, rng, count, dim, 0)
        snap, want = mem.freeze(), twin.freeze()
        wanted = [entry_state(e) for e in want.long + want.mid]
        held = {page_id for page_id, *_ in mem.row_store.page_usage()}
        if any(rows > 8 for _, _, rows, _, _ in mem.row_store.page_usage()):
            seen.add("page of its own")
        queries = [QuerySpec(query_id=f"q{i}", arrival_time=0.0, tokens=rng.standard_normal((2, dim)))
                   for i in range(3)]
        alone = [{e.frame_index: score_candidates(
                      TieredMemory.from_tiers(cfg, bank, long=[e]).freeze(), q)[e.frame_index]
                  for e in want.long + want.mid} for q in queries]
        assert [score_candidates(want, q) for q in queries] == alone
        # Half the snapshots read their entries and pages before the later
        # ingest, half only after it; half of each after the memory read its
        # own entries at every later ingest.
        if seed % 2:
            early = [score_candidates(snap, q) for q in queries]
            assert [entry_state(e) for e in snap.long + snap.mid] == wanted
        mem.thaw()
        moved = len(moves)
        for _ in range(int(rng.integers(10, 40)) + 5):
            ts = ingest_random(mem, rng, 1, dim, ts)
            later = mem.freeze()
            mem.thaw()
            if trimmed_in_place(snap, later):
                seen.add("trimmed in place")
            if seed % 4 >= 2:  # the memory builds its entries of trimmed frames first
                assert mem.long + mem.mid == later.long + later.mid
        if len(moves) > moved:
            seen.add("compacted")
        if held - {page_id for page_id, *_ in mem.row_store.page_usage()}:
            seen.add("released")
        assert [entry_state(e) for e in snap.long + snap.mid] == wanted
        late = [score_candidates(snap, q) for q in queries]
        assert late == alone
        if seed % 2:
            assert early == late
        rebuilt = TieredMemory.from_tiers(cfg, bank, short=mem.short, mid=mem.mid, long=mem.long)
        rebuilt.gate_stats = mem.gate_stats
        assert rebuilt.state_digest() == mem.state_digest()
    assert seen == {"page of its own", "trimmed in place", "compacted", "released"}


def test_snapshot_held_across_later_ingests_reads_the_entries_of_unchanged_frames(monkeypatch):
    # A frame's entry is kept on the page that holds its rows, for its
    # first row and count, so a snapshot held across trims, demotions and
    # compaction reads the memory's own entry object for every frame still
    # where it was, with the count it had, at the freeze. It builds entries
    # only for frames trimmed or moved since, and the memory's tiers then
    # read the same entry objects as before the snapshot's read.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng([seed, 131])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                         token_budget=60, keep_fraction=0.75, long_quota_per_frame=6)
        mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=seed))
        ts = ingest_random(mem, rng, 20, 6, 0)
        snap = mem.freeze()
        held = {frame: where for frame, *where in frame_table(snap)[:4].T.tolist()}
        mid = set(snap.tables[1][0][0].tolist())
        mem.thaw()
        moved = len(moves)
        for _ in range(int(rng.integers(1, 8))):
            ts = ingest_random(mem, rng, 1, 6, ts)
            later = mem.freeze()
            mem.thaw()
            if trimmed_in_place(snap, later):
                seen.add("trimmed")
            if mid & {e.frame_index for e in later.long}:
                seen.add("demoted")
        if len(moves) > moved:
            seen.add("compacted")
        now = {frame: where for frame, *where in frame_table(mem.freeze())[:4].T.tolist()}
        mem.thaw()
        before = {e.frame_index: e for e in mem.long + mem.mid}
        read = snap.long + snap.mid
        for entry in read:
            frame = entry.frame_index
            if now.get(frame) == held[frame]:
                seen.add("unchanged")
                assert entry is before[frame]
            elif entry is not before.get(frame):
                seen.add("built")
        after = mem.long + mem.mid
        assert len(after) == len(before) and all(a is before[a.frame_index] for a in after)
    assert seen == {"trimmed", "demoted", "compacted", "unchanged", "built"}


def test_tiers_read_back_the_entries_their_pushes_kept(monkeypatch):
    # A push keeps the entry it was given on the frame's page, so while no
    # frame is trimmed or moved, reading the tiers, or a snapshot's, builds
    # no entry and hands out the pushed objects.
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                     token_budget=10_000)
    mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=3))
    ingest_random(mem, np.random.default_rng(7), 20, 6, 0)
    snap = mem.freeze()

    def refused(cls, **values):
        raise AssertionError("a read built an entry")

    monkeypatch.setattr(FrameEntry, "_of", classmethod(refused))
    held = mem.long + mem.mid
    assert len(mem.mid) == 3 and len(held) == 18
    assert all(a is b for a, b in zip(snap.long + snap.mid, held, strict=True))


def test_entry_kept_on_a_page_goes_with_the_page(monkeypatch):
    # The entry read for a trimmed long frame, a gather of its live rows,
    # is kept on its page; once compaction has moved the frame out and
    # released the page, the entry is freed, unless a snapshot still holds
    # the page, and then with the snapshot.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moved = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, page, *args: moved.append(page) or real_move(store, page, *args))
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng([seed, 191])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                         token_budget=60, keep_fraction=0.75, long_quota_per_frame=6)
        mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=seed))
        ts = ingest_random(mem, rng, 12, 6, 0)
        table = mem._tables["long"]
        for _ in range(100):
            trimmed = (table.ints[1, :table.size] < table.ints[4, :table.size]).nonzero()[0]
            if len(trimmed):  # a long frame trimmed in place
                break
            ts = ingest_random(mem, rng, 1, 6, ts)
        frame, page, start = table.ints[[0, 2, 3], trimmed[0]].tolist()
        entry = next(e for e in mem.long if e.frame_index == frame)
        assert mem.row_store.pages[page].entries[start] is entry
        gone = weakref.ref(entry)
        del entry
        snap = mem.freeze() if seed % 2 else None
        mem.thaw()
        for _ in range(60):
            if page not in mem.row_store.pages:
                break
            assert gone() is not None
            ts = ingest_random(mem, rng, 1, 6, ts)
        if page in moved:  # compaction released the page
            seen.add("held by a snapshot" if snap is not None else "released")
            assert (gone() is None) == (snap is None)
            del snap
            assert gone() is None
    assert seen == {"held by a snapshot", "released"}


def test_snapshot_table_views_are_read_only_and_keep_their_frames(monkeypatch):
    # A snapshot's views of the frame tables cannot be written through. The
    # memory's later trims, demotions and compaction write to copies, so the
    # views and the entries read from them stay as they were at the freeze,
    # whether the snapshot reads its entries before the later ingests or
    # only after them.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    seen = set()
    for seed in range(6):
        rng = np.random.default_rng([seed, 173])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=10,
                         token_budget=60, keep_fraction=0.75, long_quota_per_frame=6)
        mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=seed))
        ts = ingest_random(mem, rng, 20, 6, 0)
        snap = mem.freeze()
        for ints, floats in snap.tables:
            assert ints.shape[1] and ints.shape[1] == floats.shape[1]
            for view in (ints, floats):
                with pytest.raises(ValueError):
                    view[0, 0] = 1
        columns = [(ints.copy(), floats.copy()) for ints, floats in snap.tables]
        wanted = [entry_state(e) for e in mem.long + mem.mid]
        if seed % 2:
            assert [entry_state(e) for e in snap.long + snap.mid] == wanted
        mid = set(snap.tables[1][0][0].tolist())  # read without an entry
        mem.thaw()
        moved = len(moves)
        for _ in range(20):
            ts = ingest_random(mem, rng, 1, 6, ts)
            later = mem.freeze()
            mem.thaw()
            if trimmed_in_place(snap, later):
                seen.add("trimmed")
            if mid & {e.frame_index for e in later.long}:
                seen.add("demoted")
        if len(moves) > moved:
            seen.add("compacted")
        for (ints, floats), (want_ints, want_floats) in zip(snap.tables, columns):
            assert np.array_equal(ints, want_ints) and np.array_equal(floats, want_floats)
        assert [entry_state(e) for e in snap.long + snap.mid] == wanted
    assert seen == {"trimmed", "demoted", "compacted"}


def test_snapshot_rows_are_views_of_its_pages():
    # Untrimmed frames read their rows in place; a frame trimmed in place
    # reads the live rows of its span. Checked at every freeze of the stream.
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=400, tokens_per_frame_max=32)
    mem = new_memory(cfg, small_bank(8))
    rng = np.random.default_rng(97)
    kinds = set()
    for t in range(80):
        ingest_random(mem, rng, 1, 8, t)
        snap = mem.freeze()
        mem.thaw()
        table = frame_table(snap)
        entries = {e.frame_index: e for e in snap.long + snap.mid}
        assert table[0].tolist() == sorted(entries)
        pages = {page.id: page.rows for page in snap.pages}
        alive = {page.id: flags for page, flags in zip(snap.pages, snap.alive)}
        for frame_index, count, page, start, span in table.T.tolist():
            matrix = entries[frame_index].token_matrix
            assert not matrix.flags.writeable
            placed = pages[page][start:start + span]
            if count == span:  # untrimmed: a view of its rows
                kinds.add("view")
                assert any(np.shares_memory(matrix, rows) for rows in pages.values())
                assert matrix.shape == placed.shape and matrix.ctypes.data == placed.ctypes.data
            else:  # trimmed in place: the live rows of its span, in order
                kinds.add("trimmed")
                live = placed[alive[page][start:start + span]]
                assert matrix.shape == live.shape == (count, 8)
                assert matrix.tobytes() == live.tobytes()
    assert len(entries) > 20 and kinds == {"view", "trimmed"}


def test_every_array_a_snapshot_reaches_is_read_only():
    # A write through a snapshot raises ValueError wherever it lands: the
    # entries' columns, the table views, the pages' rows, scores and grid
    # columns, the live flags and the scores of a past query. Each
    # snapshot is checked when taken and again after the next ingest,
    # which trims frames it holds in place.
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=10,
                     token_budget=60, keep_fraction=0.75, long_quota_per_frame=6)
    mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=4))
    rng = np.random.default_rng(181)
    ts = ingest_random(mem, rng, 12, 6, 0)
    held, trimmed = None, False
    for _ in range(12):
        ts = ingest_random(mem, rng, 1, 6, ts)
        snap = mem.freeze()
        mem.thaw()
        trimmed = trimmed or held is not None and bool(trimmed_in_place(held, snap))
        for s in [x for x in (snap, held) if x is not None]:
            past = QuerySpec(query_id="past", arrival_time=0.0,
                             tokens=rng.standard_normal((2, 6)), rho=1e7)
            scores = retrieve(s, mem.gate_stats, past).frame_scores
            arrays = [scores.frames, scores.scores, *s.alive]
            arrays += [column for e in s.all_frames()
                       for column in (e.token_matrix, e.scores, e.rows, e.cols)]
            arrays += [view for pair in s.tables for view in pair if view.size]
            arrays += [column for page in s.pages
                       for column in (page.rows, page.scores, page.grid_rows, page.grid_cols)]
            assert s.mid and s.long and s.pages
            for array in arrays:
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 0
        held = snap
    assert trimmed


def count_calls(monkeypatch, targets):
    """Count the calls of each (owner, name) in targets, by name."""
    calls = collections.Counter()
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        is_classmethod = isinstance(vars(owner).get(name), classmethod)
        monkeypatch.setattr(owner, name, staticmethod(counted) if is_classmethod else counted)
    return calls


def test_forget_and_freeze_build_no_entry_and_write_no_row(monkeypatch):
    # Forget marks its victims dead where they lie: it allocates and writes
    # no row and builds no entry. A freeze builds no entry either.
    calls = count_calls(monkeypatch, [
        (RowStore, "alloc"), (RowStore, "add"), (FrameEntry, "take"), (FrameEntry, "_with"),
        (FrameEntry, "_of"), (FrameEntry, "__post_init__")])
    during = {"forget": collections.Counter(), "freeze": collections.Counter()}

    def watched(fn, what):
        def call(*args, **kwargs):
            before = calls.copy()
            try:
                return fn(*args, **kwargs)
            finally:
                during[what].update(calls - before)
        return call

    monkeypatch.setattr(tiers, "selective_forget", watched(tiers.selective_forget, "forget"))
    monkeypatch.setattr(TieredMemory, "freeze", watched(TieredMemory.freeze, "freeze"))
    dim, n = 8, 16
    # Past the fill point every ingest evicts: from the long tier at budget
    # 200, and from the mid tier alone at 48, where forget empties long.
    for budget, tier in ((150, "long"), (48, "mid")):
        for seed in range(4):
            rng = np.random.default_rng([seed, budget, 113])
            cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=budget,
                             tokens_per_frame_max=n, long_quota_per_frame=4)
            mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=seed))
            evicting = 0
            for t in range(60):
                report = mem.ingest_frame(float(t), [(rng.standard_normal(dim), i // 4, i % 4)
                                                     for i in range(n)])
                if t >= 20:
                    assert report.dropped_budget > 0, (budget, seed, t)
                    evicting += 1
                if t % 3 == 0:
                    mem.freeze()
                    mem.thaw()
            trimmed = [e for e in getattr(mem, tier) if len(e) < {"long": 4, "mid": 8}[tier]]
            assert evicting == 40 and trimmed, (budget, seed)
            if tier == "mid":
                assert not mem.long
    assert calls["take"] and calls["add"] and calls["_of"]  # the counters count
    assert not during["forget"] and not during["freeze"], during


def test_frame_forgotten_between_freezes_is_released_by_the_ingest(monkeypatch):
    # The short tier fills the budget, so each ingest demotes a frame to mid
    # and forgets it whole. No snapshot ever held that frame: its page must
    # be freed by the ingest that drops it, not later, when the snapshot
    # taken before it is released (inside the caller's next query).
    pages = []
    new_page = RowStore._new_page

    def recorded(self, group, rows):
        page = new_page(self, group, rows)
        pages.append(weakref.ref(page.rows))
        return page

    monkeypatch.setattr(RowStore, "_new_page", recorded)
    dim, n = 8, 16
    rng = np.random.default_rng(29)
    cfg = TierConfig(short_cap_frames=2, token_budget=2 * n, tokens_per_frame_max=n)
    mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=29))
    snap = None
    for t in range(8):
        report = mem.ingest_frame(float(t), [(rng.standard_normal(dim), i // 4, i % 4)
                                             for i in range(n)])
        if t >= 2:
            assert report.dropped_budget and report.mid_frames == report.long_frames == 0
            assert pages and not any(page() for page in pages), t
        if snap is not None:
            assert not snap.mid and not snap.long
        snap = mem.freeze()
        mem.thaw()


def test_held_pages_are_whole_blocks_zero_past_their_written_rows(monkeypatch):
    # The kernel scores whole blocks, so the rows past those written must be
    # finite: they stay zero through demotions, trims, drops and compaction.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    for seed in range(6):
        rng = np.random.default_rng([seed, 101])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=20,
                         token_budget=int(rng.integers(40, 120)), keep_fraction=0.75,
                         long_quota_per_frame=int(rng.integers(2, 14)))
        mem = new_memory(cfg, ProbeBank.generated(6, n=3, seed=seed))
        for t in range(40):
            ingest_random(mem, rng, 1, 6, t)
            for page_id, *_ in mem.row_store.page_usage():
                page = mem.row_store.pages[page_id]
                assert page.rows.shape[0] % 8 == 0
                assert not page.rows[page.used:].any(), (seed, t, page.id)


def test_dead_rows_stay_bounded_under_steady_forgetting(monkeypatch):
    # The steady_forget shape at a small scale: segments of similar frames,
    # and past the fill point every ingest forgets from the long tier.
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    dim = 16
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=16, token_budget=1024,
                     tokens_per_frame_max=32)
    mem = new_memory(cfg, ProbeBank.generated(dim, n=5, seed=3))
    rng = np.random.default_rng(101)
    evicted = 0
    for t in range(400):
        if t % 30 == 0:
            base = rng.standard_normal((32, dim))
        frame = base + 0.05 * rng.standard_normal((32, dim))
        report = mem.ingest_frame(float(t), [(v, i // 8, i % 8) for i, v in enumerate(frame)])
        evicted += report.dropped_budget
        usage = mem.row_store.page_usage()
        assert all(live > 0 for *_, live in usage)
        dead = sum(used - live for *_, used, live in usage)
        assert dead <= vecspace.COMPACT_DEAD_FRACTION * sum(used for *_, used, _ in usage)
    assert evicted > 1000 and moves


def test_streamed_forget_matches_the_reference_on_every_ingest(monkeypatch):
    # Seeded streams, each run until it has made at least 20 times as many
    # ingests past its fill point (the first ingest that evicts) as up to
    # it: dims 2 to 8, 1 to 17 tokens a frame, most of them repeats of a few
    # vectors, so salience ties within and across frames, and each snapshot
    # held across the next ingests. Every forget must evict the reference's
    # victims of the tiers just before it ran, and leave every frame it
    # touched as that frame's pre-forget entry keeping its other tokens.
    # Small pages make compaction fire; the budgets make forget drop whole
    # tiers and spill into the mid tier, ranked there too.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = []
    real_move = RowStore.move
    monkeypatch.setattr(RowStore, "move", lambda store, *args: moves.append(args) or real_move(store, *args))
    real_forget = tiers.selective_forget
    seen = collections.Counter()

    def checked_forget(mem):
        overflow = mem.total_tokens - mem.config.token_budget
        before = {e.frame_index: (name, e) for name in ("long", "mid") for e in getattr(mem, name)}
        tokens = mem.tier_tokens
        expected = tuple(forget_reference(mem, overflow))
        report = real_forget(mem)
        assert report.evicted == expected
        lost = collections.defaultdict(list)
        for f, i, _ in expected:
            lost[f].append(i)
        survivors = {e.frame_index: e for e in mem.long + mem.mid}
        for f, (name, entry) in before.items():
            kept = np.setdiff1d(np.arange(entry.token_count), lost[f])
            if lost[f]:
                seen[f"{name} ranked" if mem.tier_tokens[name] else f"{name} whole"] += 1
            if not len(kept):
                assert f not in survivors
                continue
            want, got = entry.take(kept), survivors[f]
            for column in ("scores", "rows", "cols", "token_matrix"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column
        return report

    monkeypatch.setattr(tiers, "selective_forget", checked_forget)
    for seed in range(10):
        rng = np.random.default_rng([seed, 211])
        dim = int(rng.integers(2, 9))
        short = int(rng.integers(1, 4))
        cfg = TierConfig(short_cap_frames=short, mid_cap_frames=int(rng.integers(1, 7)),
                         tokens_per_frame_max=17,
                         token_budget=short * 17 + (int(rng.integers(1, 100)) if seed % 3 else 0),
                         keep_fraction=float(rng.choice([0.5, 0.75, 1.0])),
                         grid_size=int(rng.integers(1, 4)),
                         long_quota_per_frame=int(rng.integers(1, 9)))
        mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=seed))
        pool = rng.standard_normal((int(rng.integers(2, 6)), dim))
        fill, held, t = None, [], 0
        while fill is None or t < 21 * fill:
            # At budget short_cap_frames * 17, a short tier of 17-token
            # frames fills the budget, and both other tiers go whole.
            n = 17 if seed % 3 == 0 and rng.uniform() < 0.5 else int(rng.integers(1, 18))
            vectors = pool[rng.integers(0, len(pool), size=n)]
            fresh = rng.uniform(size=n) < 0.2
            vectors[fresh] = rng.standard_normal((int(fresh.sum()), dim))
            report = mem.ingest_frame(float(t), [(v, int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                                                 for v in vectors])
            t += 1
            if fill is None and report.dropped_budget:
                fill = t
            if t % 4 == 0:
                # Each snapshot is held across the next three freezes, and
                # must still show its frames as they stood.
                if len(held) == 3:
                    snap, state = held.pop(0)
                    assert [entry_state(e) for e in snap.all_frames()] == state, (seed, t)
                snap = mem.freeze()
                held.append((snap, [entry_state(e) for e in snap.all_frames()]))
                mem.thaw()
        seen["streams"] += 1
    assert moves and seen["streams"] == 10
    assert {"long ranked", "long whole", "mid ranked", "mid whole"} <= set(seen), seen


def ingest_from_pool(mem, rng, pool, t):
    """Ingest frame t: 1 to tokens_per_frame_max tokens, most of them
    vectors of pool, so scores tie, on a 5 x 5 grid."""
    n = int(rng.integers(1, mem.config.tokens_per_frame_max + 1))
    vectors = pool[rng.integers(0, len(pool), size=n)]
    fresh = rng.uniform(size=n) < 0.3
    vectors[fresh] = rng.standard_normal((int(fresh.sum()), pool.shape[1]))
    return mem.ingest_frame(float(t), [(v, int(rng.integers(0, 5)), int(rng.integers(0, 5)))
                                       for v in vectors])


TABLE_CHANGES = ("append", "pop_oldest", "evict", "drop", "relocate")


def counted_table_changes(monkeypatch, calls):
    """Count each FrameTable change by name in calls."""
    def counted(name, real):
        def change(table, *args):
            calls[name] += 1
            return real(table, *args)
        return change

    for name in TABLE_CHANGES:
        monkeypatch.setattr(FrameTable, name, counted(name, getattr(FrameTable, name)))


def test_snapshots_keep_their_columns_through_every_table_change(monkeypatch):
    # Streams that append, demote, evict from, compact and drop each
    # table, with a freeze after every ingest and every snapshot held to
    # the end. No table writes a frame's columns once written: each
    # snapshot's columns stay as they were copied at its freeze, and its
    # mid and long entries, first read at the end, are the frames the
    # memory held at the freeze.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    calls = collections.Counter()
    counted_table_changes(monkeypatch, calls)
    for seed in range(3):
        rng = np.random.default_rng([seed, 307])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=8,
                         token_budget=16 + 6 * seed, keep_fraction=0.75,
                         long_quota_per_frame=4)
        mem = new_memory(cfg, ProbeBank.generated(4, n=3, seed=seed))
        pool = rng.standard_normal((3, 4))
        held = []
        for t in range(150):
            ingest_from_pool(mem, rng, pool, t)
            snap = mem.freeze()
            columns = [(ints[:, :size].copy(), floats[:, :size].copy())
                       for ints, floats, size in snap._columns]
            held.append((snap, columns, [[entry_state(e) for e in tier]
                                         for tier in (mem.mid, mem.long)]))
            mem.thaw()
        for t, (snap, columns, tiers_then) in enumerate(held):
            for (ints, floats, size), (want_ints, want_floats) in zip(snap._columns, columns):
                assert ints[:, :size].tobytes() == want_ints.tobytes(), (seed, t)
                assert floats[:, :size].tobytes() == want_floats.tobytes(), (seed, t)
            assert [[entry_state(e) for e in tier] for tier in (snap.mid, snap.long)] == tiers_then
    assert all(calls[name] for name in TABLE_CHANGES), calls


def band_as_ranked(table, store):
    """Every live token of the table's frames whose score is at most its
    cut, as (score, frame index, page, row), in (score, frame index, row)
    order: the band forget would build from the rows as they lie."""
    tokens = []
    for frame, count, page, start, span in table.ints[:5, :table.size].T.tolist():
        held = store.pages[page]
        rows = start + held.alive[start:start + span].nonzero()[0]
        assert len(rows) == count
        tokens += [(score, frame, page, row) for score, row
                   in zip(held.scores[rows].tolist(), rows.tolist()) if score <= table.cut]
    return sorted(tokens, key=lambda token: (token[0], token[1], token[3]))


def band_of(table):
    """The table's band as (score, frame index, page, row) tuples, in its order."""
    scores, keys = table.low
    return list(zip(scores.tolist(), *keys.tolist()))


def counted_band_moves(monkeypatch, moves):
    """Wrap FrameTable.relocate to count, in moves, the relocations that
    found a band ("band held") and those where it held keys of the page
    the frames left ("band moved"); each must leave the band in place."""
    real_relocate = FrameTable.relocate

    def relocate(table, slots, *args):
        band = table.low
        left = table.ints[2, slots[0]]
        real_relocate(table, slots, *args)
        if band is not None:
            assert table.low is not None
            moves["band held"] += 1
            moves["band moved"] += bool((band[1][1] == left).any())

    monkeypatch.setattr(FrameTable, "relocate", relocate)


def test_compaction_keeps_the_band_and_the_next_forget_matches_the_reference(monkeypatch):
    # Where compaction moves a page that holds band tokens, relocate keeps
    # the band, its keys naming the rows where the tokens now lie, and the
    # next forget, which takes its victims off that band, evicts the
    # reference's victims.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves, checked = collections.Counter(), collections.Counter()
    counted_band_moves(monkeypatch, moves)
    real_forget = tiers.selective_forget

    def checked_forget(mem):
        expected = tuple(forget_reference(mem, mem.total_tokens - mem.config.token_budget))
        band_moved = moves["band moved"]
        report = real_forget(mem)
        if band_moved:
            assert report.evicted == expected
            checked["after a band move"] += 1
        moves.clear()
        return report

    monkeypatch.setattr(tiers, "selective_forget", checked_forget)
    for seed in range(3):
        rng = np.random.default_rng([seed, 401])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, tokens_per_frame_max=8,
                         token_budget=60, keep_fraction=0.75, long_quota_per_frame=6)
        mem = new_memory(cfg, ProbeBank.generated(4, n=3, seed=seed))
        pool = rng.standard_normal((3, 4))
        for t in range(200):
            ingest_from_pool(mem, rng, pool, t)
    assert checked["after a band move"] >= 3, checked


def test_band_is_the_tiers_lowest_live_tokens_through_compaction(monkeypatch):
    # Random streams whose forgets trim frames and whose compaction moves
    # pages often (pages of 8 rows). After every ingest each table's band,
    # where it has one, is exactly its live tokens at or below its cut, in
    # (score, frame index, row) order, each key naming the token's row; and
    # the band outlives relocations that move its keys.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    moves = collections.Counter()
    counted_band_moves(monkeypatch, moves)
    banded = 0
    for seed in range(4):
        rng = np.random.default_rng([seed, 409])
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=int(rng.integers(2, 5)),
                         tokens_per_frame_max=8, token_budget=int(rng.integers(40, 80)),
                         keep_fraction=0.75, long_quota_per_frame=int(rng.integers(3, 7)))
        mem = new_memory(cfg, ProbeBank.generated(4, n=3, seed=seed))
        pool = rng.standard_normal((3, 4))
        for t in range(250):
            ingest_from_pool(mem, rng, pool, t)
            for name, table in mem._tables.items():
                if table.low is not None:
                    assert band_of(table) == band_as_ranked(table, mem.row_store), (seed, t, name)
                    banded += 1
    assert banded and moves["band moved"] >= 10, (banded, moves)


def test_each_table_keeps_its_tiers_token_total_through_every_removal(monkeypatch):
    # Random streams (pages of 8 rows) whose ingests demote frames, drop
    # whole tiers, evict ranked tokens and compact pages. After every
    # ingest each table's tokens equals the sum of its counts and the live
    # rows of its group's held pages, and tier_tokens equals a recount of
    # the tiers' frames.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    calls = collections.Counter()
    counted_table_changes(monkeypatch, calls)
    for seed in range(6):
        rng = np.random.default_rng([seed, 419])
        # At budget 16, two 8-token short frames fill it: both other tiers go whole.
        cfg = TierConfig(short_cap_frames=2, mid_cap_frames=int(rng.integers(2, 5)),
                         tokens_per_frame_max=8,
                         token_budget=16 if seed % 3 == 0 else int(rng.integers(40, 80)),
                         keep_fraction=0.75, long_quota_per_frame=int(rng.integers(3, 7)))
        mem = new_memory(cfg, ProbeBank.generated(4, n=3, seed=seed))
        pool = rng.standard_normal((3, 4))
        for t in range(200):
            ingest_from_pool(mem, rng, pool, t)
            live = collections.Counter()
            for _, group, _, _, rows in mem.row_store.page_usage():
                live[group] += rows
            for name, table in mem._tables.items():
                counts = int(table.ints[1, :table.size].sum())
                assert table.tokens == counts == live[name], (seed, t, name)
            recount = {name: sum(e.token_count for e in getattr(mem, name))
                       for name in ("short", "mid", "long")}
            assert mem.tier_tokens == recount, (seed, t)
    assert all(calls[name] for name in ("pop_oldest", "evict", "drop", "relocate")), calls


def test_forget_calls_do_not_grow_with_the_tier():
    # Two evicting forgets in a row, each of an overflow of 4, from long
    # tiers of about 100 and about 1000 four-token frames whose 8 lowest
    # tokens lie in their two oldest frames. What the first builds for
    # ranking is there for the second, which makes as many Python-level
    # calls (cProfile's total_calls) at both sizes: no per-frame loop.
    import cProfile
    import pstats

    calls = []
    for frames in (100, 1000):
        rng = np.random.default_rng(frames)
        long = [crafted_entry(f, 0.5 + 0.4 * rng.permutation(4) / 4 + 0.1 * f / frames)
                for f in range(frames)]
        long[:2] = [crafted_entry(f, 0.01 * np.arange(4 * f + 1, 4 * f + 5)) for f in (0, 1)]
        mem = forget_memory(4 * frames - 4, long=long)
        assert selective_forget(mem).count == 4
        mem.config = dataclasses.replace(mem.config, token_budget=4 * frames - 8)
        profile = cProfile.Profile()
        profile.enable()
        report = selective_forget(mem)
        profile.disable()
        assert report.evicted == tuple((1, i, 0.01 * (5 + i)) for i in range(4))
        calls.append(pstats.Stats(profile).total_calls)
    assert calls[0] == calls[1], calls


def test_long_stream_structures_stay_within_their_bounds():
    # 50 times the fill point of a small stream (segments of similar 4-token
    # frames, budget 256), with a freeze, a query and a thaw every third
    # frame, each snapshot held across the ingests until the next freeze, as
    # a serving loop holds it. After every ingest:
    # - the rows written to the held pages (used) obey compaction's bound:
    #   at most COMPACT_DEAD_FRACTION of them are dead, and the live ones
    #   are the mid and long tokens, at most the budget, so used is at most
    #   budget / (1 - fraction).
    #   The rows the pages allocate at once (a frame, or the live rows of a
    #   page compaction moves) are at most the budget, at most half a page,
    #   so a page is closed only past half full, and at most the two tiers'
    #   open pages are emptier: the pages hold at most 2 * used + 2 pages
    #   of rows, and there are at most 2 + 2 * budget / (1 - fraction) /
    #   SCORE_BLOCK_ROWS of them;
    # - each frame table holds at most twice its largest size, or its
    #   initial capacity;
    # - the frame pool holds at most short_cap_frames + 2 buffers;
    # - a recount of the tiers gives total_tokens.
    # A now query's snapshot makes its table views only after the ingests
    # that follow it, which trim its frames: the views show the frames as
    # they stood at the freeze.
    dim, n = 8, 4
    cfg = TierConfig(token_budget=256, tokens_per_frame_max=n)
    mem = new_memory(cfg, ProbeBank.generated(dim, n=5, seed=3))
    block = vecspace.SCORE_BLOCK_ROWS
    assert cfg.token_budget <= block // 2
    initial = FrameTable().ints.shape[1]
    largest = {"mid": 0, "long": 0}
    rng = np.random.default_rng(131)
    fill, pending, seen = None, None, collections.Counter()
    t = 0
    while fill is None or t < 50 * fill:
        if t % 12 == 0:
            base = rng.standard_normal((n, dim))
        frame = base + 0.05 * rng.standard_normal((n, dim))
        report = mem.ingest_frame(float(t), [(v, i // 2, i % 2) for i, v in enumerate(frame)])
        t += 1
        if fill is None and report.dropped_budget:
            fill = t
        usage = mem.row_store.page_usage()
        used = sum(u for *_, u, _ in usage)
        held = mem.tier_tokens["mid"] + mem.tier_tokens["long"]
        assert used - held <= vecspace.COMPACT_DEAD_FRACTION * used, t
        assert held <= cfg.token_budget, t
        assert sum(rows for _, _, rows, _, _ in usage) <= 2 * used + 2 * block, t
        assert len(usage) <= 2 + 2 * cfg.token_budget / (1 - vecspace.COMPACT_DEAD_FRACTION) / block, t
        assert mem.recount_tokens() == mem.total_tokens, t
        for name, table in mem._tables.items():
            largest[name] = max(largest[name], table.size)
            assert table.ints.shape[1] <= max(initial, 2 * largest[name]), (t, name)
        assert len(mem._frame_pool) <= cfg.short_cap_frames + 2, t
        if pending is not None:
            snap, wanted = pending
            counts = {f: c for table in mem._tables.values()
                      for f, c in table.ints[:2, :table.size].T.tolist()}
            for (ints, floats), (want_ints, want_floats) in zip(snap.tables, wanted):
                assert ints.tobytes() == want_ints.tobytes(), t
                assert floats.tobytes() == want_floats.tobytes(), t
                seen["trimmed"] += any(counts.get(f, c) < c for f, c in ints[:2].T.tolist())
            pending = None
        if t % 3 == 0:
            snap = mem.freeze()
            wanted = [(mem._tables[name].ints[:, :mem._tables[name].size].copy(),
                       mem._tables[name].floats[:, :mem._tables[name].size].copy())
                      for name in ("long", "mid")]
            gated = t % 2 == 1
            query = QuerySpec(query_id="q", arrival_time=float(t), tokens=frame[:2],
                              rho=0.1 if gated else 1e7)
            result = retrieve(snap, mem.gate_stats, query)
            assert result.gated_short_only == gated, t
            if gated:
                seen["gated"] += 1
                pending = snap, wanted
            mem.thaw()
    assert fill and seen["gated"] and seen["trimmed"] and largest["long"] > initial


# --- the memory's own buffers -----------------------------------------------


def dense_scene(rng, dim, count=512, seed_rows=None):
    """Ingest arguments of a 512-token frame on a 16 x 32 grid, near the
    rows of seed_rows (a new scene when None)."""
    rows = rng.standard_normal((count, dim)) if seed_rows is None else (
        seed_rows + 0.1 * rng.standard_normal((count, dim)))
    return [(v, i // 32, i % 32) for i, v in enumerate(rows)], rows


def in_pool(mem, entry):
    """Whether the entry's rows lie in a buffer of the memory's pool."""
    return any(entry.token_matrix.base is buffer for buffer in mem._frame_pool)


def test_frame_pool_keeps_the_bytes_of_every_held_frame():
    # A snapshot, an entry read from the short tier and a slice of a
    # dropped entry's rows, each of other frames, keep their bytes while
    # the pool serves 2 * (short_cap_frames + 2) later frames of that shape.
    dim = 16
    cfg = TierConfig()
    mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=5))
    rng = np.random.default_rng(83)
    _, base = dense_scene(rng, dim)

    def ingest(t):
        mem.ingest_frame(float(t), dense_scene(rng, dim, seed_rows=base)[0])
        assert in_pool(mem, mem.short[-1]) or len(mem._frame_pool) == cfg.short_cap_frames + 2

    for t in range(cfg.short_cap_frames + 2):
        ingest(t)
    snap = mem.freeze()
    mem.thaw()
    ingest(t + 1)
    held = mem.short[-1]
    ingest(t + 2)
    head = mem.short[-1].token_matrix[:3]
    assert in_pool(mem, held) and head.base is mem.short[-1].token_matrix.base
    want = ([entry_state(e) for e in snap.short], entry_state(held), head.tobytes())
    for t in range(t + 3, t + 3 + 2 * (cfg.short_cap_frames + 2)):
        if t % 5 == 0:
            _, base = dense_scene(rng, dim)
        ingest(t)
    assert ([entry_state(e) for e in snap.short], entry_state(held), head.tobytes()) == want
    assert len(mem._frame_pool) <= cfg.short_cap_frames + 2


def test_frame_pool_serves_a_freeze_per_frame_loop_from_its_bound():
    # As a caller that keeps each snapshot until its next query, with a
    # query after every other frame: a snapshot then still holds the frame
    # that left the short tier an ingest ago. The pool holds at most
    # short_cap_frames + 2 buffers, and once it has filled every new frame
    # is written into one of them.
    dim = 16
    cfg = TierConfig()
    mem = new_memory(cfg, ProbeBank.generated(dim, n=3, seed=7))
    rng = np.random.default_rng(89)
    _, base = dense_scene(rng, dim)
    query = QuerySpec(query_id="now", arrival_time=0.0, tokens=base[:2], rho=0.1)
    buffers = set()
    snap = None
    for t in range(40):
        if t % 9 == 0:
            _, base = dense_scene(rng, dim)
        mem.ingest_frame(float(t), dense_scene(rng, dim, seed_rows=base)[0])
        assert len(mem._frame_pool) <= cfg.short_cap_frames + 2
        if t >= cfg.short_cap_frames + 2:
            assert in_pool(mem, mem.short[-1]), t
            buffers.add(id(mem.short[-1].token_matrix.base))
        if t % 2 == 0:
            snap = mem.freeze(at=float(t))
            retrieve(snap, mem.gate_stats, query)
            mem.thaw()
    assert len(buffers) == cfg.short_cap_frames + 2


def test_ingest_buffers_across_frame_lengths_match_the_frame_alone():
    # Frames of changing lengths, with a snapshot held over each ingest: the
    # pool replaces a free buffer too short for a frame and writes a shorter
    # frame into the head of a longer free one, and the float32 casts grow
    # and are written into their buffers' heads. Each frame is stored as
    # encode_tokens makes it from the frame alone, and flagged as
    # is_scene_boundary flags it with its own casts.
    dim = 32
    cfg = TierConfig(short_cap_frames=2, token_budget=8192)
    bank = ProbeBank.generated(dim, n=3, seed=13)
    mem = new_memory(cfg, bank)
    rng = np.random.default_rng(97)
    _, base = dense_scene(rng, dim)
    encoded, bases, flags, snap = [], [], [], None
    for t, n in enumerate((5, 300, 2, 512, 7, 300)):
        if t == 4:
            _, base = dense_scene(rng, dim)  # a new scene, cast into a longer buffer's head
        raw, _ = dense_scene(rng, dim, count=n, seed_rows=base[:n])
        entry = encode_tokens(t, float(t), raw, bank)
        report = mem.ingest_frame(float(t), raw)
        prev = encoded[-1] if encoded else None
        assert report.scene_boundary == is_scene_boundary(entry, prev, cfg), t
        stored = mem.short[-1]
        assert stored.token_matrix.tobytes() == entry.token_matrix.tobytes(), t
        assert stored.scores.tobytes() == entry.scores.tobytes(), t
        assert in_pool(mem, stored), t
        encoded.append(entry)
        bases.append(id(stored.token_matrix.base))
        flags.append(report.scene_boundary)
        snap = mem.freeze()
        mem.thaw()
    assert flags[2] is False and flags[4] is True
    # The 7-token frame took the head of the 300-token frame's buffer, freed
    # when that frame left the short tier; the 512- and last 300-token frames
    # each replaced a free buffer that was too short.
    assert bases[4] == bases[1] and len(mem._frame_pool) == 3
    for held in snap.short:
        want = encoded[held.frame_index]
        assert held.token_matrix.tobytes() == want.token_matrix.tobytes()
        assert held.scores.tobytes() == want.scores.tobytes()


def test_frame_buffers_are_sized_by_the_frames_seen():
    cfg = TierConfig(tokens_per_frame_max=2**40, token_budget=2**44)
    tracemalloc.start()
    try:
        mem = new_memory(cfg, ProbeBank.generated(8, n=3, seed=11))
        mem.ingest_frame(0.0, [(np.arange(8.0) + i, 0, i) for i in range(4)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mem.total_tokens == 4
    assert peak < 2**20


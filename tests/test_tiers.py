"""Tier pipeline tests: pruning, selection, forgetting, budget."""

import math

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
    TokenRecord,
    encode_tokens,
    is_scene_boundary,
    new_memory,
    selective_forget,
    spatial_semantic_select,
    temporal_semantic_prune,
)
from tiermem import vecspace
from tiermem.retrieval import QuerySpec, score_candidates
from tiermem.vecspace import (
    ProbeBank,
    RowStore,
    late_interaction_scores,
    max_sim,
    normalize,
)


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
    """FrameEntry whose columns stack the given tokens."""
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index if ts is None else ts),
        token_matrix=np.stack([t.embedding for t in tokens]),
        scores=[t.score for t in tokens],
        rows=[t.spatial_row for t in tokens],
        cols=[t.spatial_col for t in tokens],
        scene_boundary=boundary,
    )


def crafted_token(score, frame_index, row=0, col=0, dim=3, vec=None):
    v = axis(dim, 0) if vec is None else np.asarray(vec, dtype=np.float64)
    return entry_of(frame_index, [TokenRecord(v, score, frame_index, row, col)]).tokens[0]


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


# --- records and entries ---------------------------------------------------


def test_token_record_readonly_and_validated():
    tok = crafted_token(0.5, 0)
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


def test_encode_tokens_scores_reproduce_bit_exactly():
    bank = ProbeBank([tilted(4, 0, 1, 0.7), axis(4, 2)])
    rng = np.random.default_rng(5)
    records = encode_tokens(3, 0.0, [(rng.standard_normal(4), i, 0) for i in range(10)], bank).tokens
    for tok in records:
        assert tok.score == max_sim(tok.embedding, bank)
        assert math.isclose(float(np.linalg.norm(tok.embedding)), 1.0, abs_tol=1e-12)
        assert tok.frame_index == 3
    # Batch invariance: a 512-token frame stores, for every token, the
    # same embedding and score bits as that token encoded alone.
    bank = ProbeBank.generated(128, n=5, seed=2)
    raw = [(rng.standard_normal(128), i // 32, i % 32) for i in range(512)]
    frame = encode_tokens(0, 0.0, raw, bank)
    for i, tok in enumerate(frame.tokens):
        alone = encode_tokens(0, 0.0, [raw[i]], bank)
        assert np.array_equal(tok.embedding, alone.token_matrix[0])
        assert tok.score == alone.scores[0] == max_sim(tok.embedding, bank)


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
    assert [t.spatial_col for t in out.tokens] == [1, 2]
    for kept in out.tokens:
        original = frame_tokens[kept.spatial_col]
        assert np.array_equal(kept.embedding, original.embedding)
        assert kept.score == original.score


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
    assert math.isclose(frame.tokens[0].score, 0.2, abs_tol=1e-12)
    assert math.isclose(frame.tokens[1].score, 0.0, abs_tol=1e-12)
    out = temporal_semantic_prune(frame, reference, cfg)
    assert len(out.tokens) == 1
    assert out.tokens[0].spatial_col == 0


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
    assert [t.spatial_col for t in out.tokens] == [0]


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
    assert sorted(t.score for t in out.tokens) == [0.8, 0.9]


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
    assert out.tokens[0].score == 0.9


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
    assert sorted(t.score for t in out.tokens) == [0.1, 0.9]


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
    assert out.tokens[0].spatial_col == 0


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
    assert [t.spatial_col for t in far_finer.tokens] == [t.spatial_col for t in at_extent.tokens] == [2, 2]


# --- selective forgetting ---------------------------------------------------


def forget_memory(budget, **tiers):
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=1, token_budget=budget)
    return TieredMemory.from_tiers(cfg, small_bank(3), **tiers)


def test_forget_evicts_lowest_score():
    mem = forget_memory(2, long=[crafted_entry(0, [0.1, 0.5, 0.3])])
    report = selective_forget(mem)
    assert report.evicted == ((0, 0, 0.1),)
    assert [t.score for t in mem.long[0].tokens] == [0.5, 0.3]
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
    assert [t.score for t in mem.mid[0].tokens] == [0.4]


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


def test_new_memory_dim_mismatch():
    bank = ProbeBank.generated(64, n=5, seed=0)
    with pytest.raises(DimensionError):
        new_memory(TierConfig(), bank, dim=128)


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
    # The failed calls left no trace.
    assert mem.total_tokens == 1


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


def test_double_freeze_identical():
    mem = new_memory(TierConfig(short_cap_frames=1, tokens_per_frame_max=2, token_budget=8), small_bank())
    mem.ingest_frame(0.0, [(axis(4, 0), 0, 0)])
    assert mem.freeze() == mem.freeze()


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
# The stages as one Python loop per token, the way the engine computed them
# before frames became columns. The columnar stages must pick the same
# tokens, including on tied scores and repeated grid positions.


def reference_prune_positions(frame, reference, config):
    tokens = frame.tokens
    keep = math.ceil(config.keep_fraction * len(tokens))
    by_position = {}
    for tok in reference.tokens if reference is not None else ():
        by_position.setdefault((tok.spatial_row, tok.spatial_col), tok)
    keep_scores = []
    for tok in tokens:
        ref = by_position.get((tok.spatial_row, tok.spatial_col))
        redundancy = 0.0 if ref is None else float(np.clip(np.dot(tok.embedding, ref.embedding), -1.0, 1.0))
        keep_scores.append((1.0 - redundancy) + config.semantic_weight * tok.score)
    return sorted(sorted(range(len(tokens)), key=lambda i: (-keep_scores[i], i))[:keep])


def reference_select_positions(frame, config):
    tokens, grid, quota = frame.tokens, config.grid_size, config.long_quota_per_frame
    extent_r = max(t.spatial_row for t in tokens) + 1
    extent_c = max(t.spatial_col for t in tokens) + 1
    best_in_cell = {}
    for i, tok in enumerate(tokens):
        cell = (min(tok.spatial_row * grid // extent_r, grid - 1),
                min(tok.spatial_col * grid // extent_c, grid - 1))
        if cell not in best_in_cell or tok.score > tokens[best_in_cell[cell]].score:
            best_in_cell[cell] = i
    selected = sorted(best_in_cell.values(), key=lambda i: (-tokens[i].score, i))[:quota]
    leftovers = sorted((i for i in range(len(tokens)) if i not in selected),
                       key=lambda i: (-tokens[i].score, i))
    return sorted(selected + leftovers[: max(0, quota - len(selected))])


def reference_forget(tiers, overflow):
    evicted = []
    for tier in tiers:
        candidates = sorted((tok.score, e.frame_index, i) for e in tier for i, tok in enumerate(e.tokens))
        victims = candidates[: max(0, overflow)]
        overflow -= len(victims)
        evicted += [(f, i, score) for score, f, i in victims]
    return evicted


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
            want = frame.take(np.array(reference_prune_positions(frame, ref, config), dtype=int))
            assert_same_tokens(temporal_semantic_prune(frame, ref, config), want)
        want = frame.take(np.array(reference_select_positions(frame, config), dtype=int))
        assert_same_tokens(spatial_semantic_select(frame, config), want)

        mem = forget_memory(int(rng.integers(1, 40)),
                            long=[random_entry(rng, f, dim=3) for f in (0, 2, 5)],
                            mid=[random_entry(rng, f, dim=3) for f in (6, 7)])
        before = {e.frame_index: e for e in mem.long + mem.mid}
        expected = reference_forget((mem.long, mem.mid), mem.total_tokens - mem.config.token_budget)
        assert selective_forget(mem).evicted == tuple(expected)
        for f, original in before.items():
            kept = [i for i in range(original.token_count) if (f, i) not in {v[:2] for v in expected}]
            survivors = [e for e in mem.long + mem.mid if e.frame_index == f]
            if kept:
                assert_same_tokens(survivors[0], original.take(np.array(kept)))
            else:
                assert survivors == []


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
        expected = reference_forget((mem.long, mem.mid), overflow)
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


def test_forget_frame_minimum_prefilter_matches_reference():
    # Tie-heavy tiers (few score levels, so many frames share their minimum
    # with the prefilter's bound) alternate with distinct scores (so a bound
    # one frame too low misses a victim); small frames, so victims empty
    # whole frames; and overflows from 1 up past the long tier's tokens,
    # so the prefilter is bypassed and eviction spills into the mid tier.
    seen = set()
    for seed in range(150):
        rng = np.random.default_rng([seed, 67])
        if seed % 2:
            levels = rng.choice([0.0, 0.25, 0.5, 0.75], size=int(rng.integers(1, 4)), replace=False)
        else:
            levels = rng.uniform(size=200)

        def tied_entry(f):
            n = int(rng.integers(1, 6))
            return FrameEntry(frame_index=f, timestamp=float(f), token_matrix=np.ones((n, 3)),
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
            seen.add("tied bound")
        seen.add("overflow >= frames" if overflow >= n_long else "prefiltered")
        if overflow > long_tokens and mem.mid:
            seen.add("spill into mid")

        expected = reference_forget((mem.long, mem.mid), overflow)
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
    assert seen == {"tied bound", "prefiltered", "overflow >= frames", "spill into mid", "emptied"}


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
            for tok in entry.tokens:
                assert tok.score == max_sim(tok.embedding, bank)


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


def test_snapshot_stays_valid_after_thaw_and_later_ingest(monkeypatch):
    # Pages of 8 rows, so frames longer than a page get pages of their own,
    # and demotions, trims and drops release and compact pages between the
    # freeze and the later reads.
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
        mem = new_memory(cfg, bank)
        ts = ingest_random(mem, rng, int(rng.integers(8, 40)), dim, 0)
        snap = mem.freeze()
        frames = snap.long + snap.mid
        held = {page_id for page_id, *_ in mem.row_store.page_usage()}
        if any(rows > 8 for _, _, rows, _, _ in mem.row_store.page_usage()):
            seen.add("page of its own")
        queries = [QuerySpec(query_id=f"q{i}", arrival_time=0.0, tokens=rng.standard_normal((2, dim)))
                   for i in range(3)]
        alone = [{e.frame_index: late_interaction_scores([e.token_matrix], q.unit_tokens)[0]
                  for e in frames} for q in queries]
        rows = [e.token_matrix.tobytes() for e in frames]
        # Half the snapshots read their pages before the later ingest, half after.
        early = [score_candidates(snap, q) for q in queries] if seed % 2 else None
        mem.thaw()
        moved = len(moves)
        ts = ingest_random(mem, rng, int(rng.integers(10, 40)), dim, ts)
        mem.freeze()
        mem.thaw()
        ingest_random(mem, rng, 5, dim, ts)
        if len(moves) > moved:
            seen.add("compacted")
        if held - {page_id for page_id, *_ in mem.row_store.page_usage()}:
            seen.add("released")
        assert [e.token_matrix.tobytes() for e in frames] == rows
        late = [score_candidates(snap, q) for q in queries]
        assert late == alone
        if early is not None:
            assert early == late
        rebuilt = TieredMemory.from_tiers(cfg, bank, short=mem.short, mid=mem.mid, long=mem.long)
        rebuilt.gate_stats = mem.gate_stats
        assert rebuilt.state_digest() == mem.state_digest()
    assert seen == {"page of its own", "compacted", "released"}


def test_snapshot_rows_are_views_of_its_pages():
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=400, tokens_per_frame_max=32)
    mem = new_memory(cfg, small_bank(8))
    rng = np.random.default_rng(97)
    ingest_random(mem, rng, 80, 8, 0)
    snap = mem.freeze()
    paged = snap.candidate_pages()
    entries = {e.frame_index: e for e in snap.long + snap.mid}
    assert paged.frame_index.tolist() == sorted(entries) and len(entries) > 20
    pages = dict(zip(paged.page_ids.tolist(), paged.pages))
    for frame_index, count, page, start in paged.table.T.tolist():
        matrix = entries[frame_index].token_matrix
        assert any(np.shares_memory(matrix, rows) for rows in paged.pages)
        placed = pages[page][start:start + count]
        assert matrix.shape == placed.shape and matrix.ctypes.data == placed.ctypes.data
        assert not matrix.flags.writeable


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
            for page in mem.row_store.held():
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

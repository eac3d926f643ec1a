"""Query-path tests: gate, candidate scoring, adaptive selection."""

import json
import math

import numpy as np
import pytest

from tiermem.errors import (
    ConfigError,
    DimensionError,
    UnknownVariant,
    ValidationError,
)
from tiermem.retrieval import (
    GateState,
    QuerySpec,
    adaptive_select,
    gate_check,
    load_queries_jsonl,
    rank_top_k,
    retrieve,
    score_candidates,
    update_gate,
)
from tiermem import retrieval, vecspace
from tiermem.tiers import FrameEntry, MemorySnapshot, TierConfig
from tiermem.vecspace import late_interaction, late_interaction_scores, normalize


def axis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def entry(frame_index, vectors, scores=None):
    n = len(vectors)
    return FrameEntry(
        frame_index=frame_index,
        timestamp=float(frame_index),
        token_matrix=np.stack([normalize(np.asarray(v, dtype=np.float64)) for v in vectors]),
        scores=np.zeros(n) if scores is None else scores,
        rows=np.zeros(n, dtype=np.int64),
        cols=np.arange(n),
    )


def snap(short=(), mid=(), long=()):
    return MemorySnapshot(
        short=tuple(short),
        mid=tuple(mid),
        long=tuple(long),
        freeze_timestamp=100.0,
        config=TierConfig(short_cap_frames=1, tokens_per_frame_max=64, token_budget=64),
    )


def query(vectors, rho=0.1, top_k=5, lam=0.5, qid="q"):
    return QuerySpec(
        query_id=qid,
        arrival_time=100.0,
        tokens=np.asarray(vectors, dtype=np.float64),
        rho=rho,
        top_k=top_k,
        dispersion_lambda=lam,
    )


# --- gate state -------------------------------------------------------------


def test_gate_state_validation():
    with pytest.raises(ConfigError):
        GateState(decay=1.0)
    with pytest.raises(ConfigError):
        GateState(decay=0.0)
    with pytest.raises(ConfigError):
        GateState(floor=0.0)
    with pytest.raises(ValidationError):
        GateState(ema=float("inf"))


def test_update_gate_first_observation_seeds():
    g = update_gate(GateState(), 0.06)
    assert g.ema == 0.06
    assert g.observations == 1


def test_update_gate_hand_value():
    g = GateState(ema=0.06, decay=0.9, observations=1)
    g = update_gate(g, 0.16)
    # 0.9 * 0.06 + 0.1 * 0.16
    assert math.isclose(g.ema, 0.07, abs_tol=1e-12)
    assert g.observations == 2


def test_update_gate_constant_stream_is_fixed_point():
    g = GateState()
    for _ in range(20):
        g = update_gate(g, 0.42)
    assert math.isclose(g.ema, 0.42, abs_tol=1e-12)


def test_update_gate_rejects_non_finite():
    with pytest.raises(ValidationError):
        update_gate(GateState(), float("nan"))


# --- query spec -------------------------------------------------------------


def test_query_spec_defaults_and_normalization():
    q = query([[3.0, 4.0]])
    assert q.rho == 0.1 and q.top_k == 5 and q.dispersion_lambda == 0.5
    assert np.allclose(q.unit_tokens, [[0.6, 0.8]])
    assert q.dim == 2
    with pytest.raises(ValueError):
        q.tokens[0, 0] = 9.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tokens": np.zeros((0, 4))},
        {"tokens": np.array([1.0, 2.0])},
        {"tokens": np.array([[float("nan"), 0.0]])},
        {"rho": -0.5},
        {"top_k": 0},
        {"arrival_time": float("inf")},
        {"dispersion_lambda": float("nan")},
    ],
)
def test_query_spec_validation(kwargs):
    base = dict(query_id="q", arrival_time=0.0, tokens=np.array([[1.0, 0.0]]))
    base.update(kwargs)
    with pytest.raises(ValidationError):
        QuerySpec(**base)


def test_query_spec_ground_truth_coerced():
    q = QuerySpec(
        query_id="q",
        arrival_time=0.0,
        tokens=np.array([[1.0, 0.0]]),
        ground_truth_frames=[3, 3, 5],
    )
    assert q.ground_truth_frames == frozenset({3, 5})


# --- gate check -------------------------------------------------------------


def test_gate_fires_on_matching_short_tier():
    s = snap(short=[entry(9, [axis(4, 0)])])
    fired, affinity, threshold = gate_check(s, GateState(), query([axis(4, 0)], rho=0.1))
    assert fired is True
    assert math.isclose(affinity, 1.0, abs_tol=1e-12)
    assert math.isclose(threshold, 0.1 * 1e-6, abs_tol=1e-18)


def test_gate_zero_rho_always_fires_on_nonnegative_affinity():
    s = snap(short=[entry(9, [axis(4, 0)])])
    fired, affinity, threshold = gate_check(s, GateState(), query([axis(4, 1)], rho=0.0))
    assert threshold == 0.0
    assert math.isclose(affinity, 0.0, abs_tol=1e-12)
    assert fired is True


def test_gate_empty_short_never_fires():
    s = snap(mid=[entry(0, [axis(4, 0)])])
    fired, affinity, _ = gate_check(s, GateState(), query([axis(4, 0)]))
    assert fired is False and affinity == 0.0


def test_gate_threshold_scales_with_ema():
    s = snap(short=[entry(9, [axis(4, 0), axis(4, 1)])])
    gate = GateState(ema=0.8, observations=1)
    # Affinity is mean of per-token maxima: (1.0 + 0.0) / 2 = 0.5.
    fired, affinity, threshold = gate_check(s, gate, query([axis(4, 0)], rho=1.0))
    assert math.isclose(affinity, 0.5, abs_tol=1e-12)
    assert math.isclose(threshold, 0.8, abs_tol=1e-12)
    assert fired is False


def test_gate_pooling_variants():
    s = snap(short=[entry(9, [axis(4, 0), axis(4, 1)])])
    gate = GateState(ema=0.8, observations=1)
    q = query([axis(4, 0)], rho=1.0)
    fired_mean, affinity_mean, _ = gate_check(s, gate, q, pooling="mean")
    fired_max, affinity_max, _ = gate_check(s, gate, q, pooling="max")
    assert (fired_mean, fired_max) == (False, True)
    assert math.isclose(affinity_mean, 0.5, abs_tol=1e-12)
    assert math.isclose(affinity_max, 1.0, abs_tol=1e-12)
    with pytest.raises(UnknownVariant):
        gate_check(s, gate, q, pooling="median")


def per_frame_product(query_units, frame):
    k, dim = query_units.shape
    if vecspace.blas_rows_invariant(dim, k, vecspace.SCORE_BLOCK_ROWS):
        return query_units @ frame.T
    return np.einsum("kj,ij->ki", query_units, frame)


@pytest.mark.parametrize("pooling", ["mean", "max"])
def test_gate_affinity_matches_a_per_frame_reference(monkeypatch, pooling):
    # Each short frame's token maxima come from one product over its own
    # rows, taken in frame order; whether the self-check picks BLAS or the
    # einsum, the reference takes the same product.
    rng = np.random.default_rng(71)
    for trial in range(24):
        if trial == 12:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        dim = int(rng.integers(2, 40))
        short = [entry(9 + i, [rng.standard_normal(dim) for _ in range(int(rng.integers(1, 40)))])
                 for i in range(int(rng.integers(1, 5)))]
        q = query([rng.standard_normal(dim) for _ in range(int(rng.integers(1, 4)))])
        maxima = np.concatenate([np.clip(np.max(per_frame_product(q.unit_tokens, e.token_matrix),
                                                axis=0), -1.0, 1.0) for e in short])
        want = np.mean(maxima) if pooling == "mean" else np.max(maxima)
        _, affinity, _ = gate_check(snap(short=short), GateState(), q, pooling=pooling)
        assert affinity == float(want), trial


def test_gate_dimension_mismatch():
    with pytest.raises(DimensionError):
        gate_check(snap(short=[entry(9, [axis(4, 0)])]), GateState(), query([axis(3, 0)]))


# --- candidate scoring ------------------------------------------------------


def test_score_candidates_hand_values():
    s = snap(
        short=[entry(9, [axis(4, 3)])],
        mid=[entry(5, [axis(4, 0), axis(4, 1)])],
        long=[entry(1, [axis(4, 2)]), entry(3, [axis(4, 0)])],
    )
    scores = score_candidates(s, query([axis(4, 0)]))
    assert set(scores) == {1, 3, 5}  # short-tier frame 9 absent
    assert math.isclose(scores[5], 0.5, abs_tol=1e-12)  # maxima 1.0 and 0.0
    assert math.isclose(scores[1], 0.0, abs_tol=1e-12)  # orthogonal
    assert math.isclose(scores[3], 1.0, abs_tol=1e-12)  # exact match


def test_score_candidates_match_each_frame_scored_alone(monkeypatch):
    # Mixed token counts, frames straddling the edges of 5-row blocks, one
    # frame longer than a block, and identical frames at different offsets.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 5)
    rng = np.random.default_rng(47)
    twin = [rng.standard_normal(6) for _ in range(3)]
    frames = [entry(i, [rng.standard_normal(6) for _ in range(int(rng.integers(1, 8)))])
              for i in range(12)]
    frames[2], frames[7], frames[11] = entry(2, twin), entry(7, twin), entry(11, twin)
    frames[5] = entry(5, [rng.standard_normal(6) for _ in range(13)])
    s = snap(short=[entry(20, [rng.standard_normal(6)])], mid=frames[8:], long=frames[:8])
    q = query([rng.standard_normal(6) for _ in range(2)])
    scores = score_candidates(s, q)
    assert list(scores) == list(range(12))
    for e in frames:
        alone = late_interaction_scores([e.token_matrix], q.unit_tokens)[0]
        assert scores[e.frame_index] == alone
    assert scores[2] == scores[7] == scores[11]


def test_late_interaction_agrees_with_score_candidates():
    rng = np.random.default_rng(59)
    for n in (1, 4, 33):
        rows = [normalize(rng.standard_normal(8)) for _ in range(n)]
        vectors = [rng.standard_normal(8) for _ in range(3)]
        scores = score_candidates(snap(long=[entry(0, rows)]), query(vectors))
        assert scores == {0: late_interaction(rows, vectors)}


def test_score_candidates_dimension_mismatch():
    s = snap(long=[entry(0, [axis(4, 0)])])
    with pytest.raises(DimensionError):
        score_candidates(s, query([axis(3, 0)]))


# --- selection --------------------------------------------------------------


def test_adaptive_select_separated_scores_filter_hard():
    # mean 0.3, population sd sqrt(0.12) ~ 0.3464, threshold ~ 0.4732.
    scores = {1: 0.9, 2: 0.1, 3: 0.1, 4: 0.1}
    assert adaptive_select(scores, 4, 0.5) == [1]


def test_adaptive_select_flat_scores_fall_back_to_top_k():
    scores = {1: 0.4, 2: 0.4, 3: 0.4, 4: 0.4}
    assert adaptive_select(scores, 2, 0.5) == [3, 4]  # most recent two


def test_adaptive_select_empty():
    assert adaptive_select({}, 3, 0.5) == []


def test_adaptive_select_overflow_cut_by_rank():
    scores = {1: 0.9, 2: 0.85, 3: 0.8, 4: 0.1}
    # mean 0.6625, sd ~ 0.3267; threshold at lambda=0 is the mean, which
    # three frames clear; K=2 keeps the best two.
    assert adaptive_select(scores, 2, 0.0) == [1, 2]


def test_adaptive_select_clamps_to_one():
    scores = {1: 0.9, 2: 0.1, 3: 0.2}
    assert adaptive_select(scores, 3, 100.0) == [1]


def test_adaptive_select_result_in_temporal_order():
    scores = {7: 0.8, 2: 0.9, 5: 0.7, 1: 0.05}
    assert adaptive_select(scores, 3, 0.0) == [2, 5, 7]


def test_adaptive_select_rejects_bad_k():
    with pytest.raises(ValidationError):
        adaptive_select({1: 0.5}, 0, 0.5)


def test_rank_top_k_tie_breaks_to_recent():
    assert rank_top_k({1: 0.5, 2: 0.5, 3: 0.1}, 2) == [2, 1]


def reference_rank_top_k(scores, k):
    """rank_top_k as it was written before it ran on arrays."""
    ranked = sorted(scores, key=lambda f: (-scores[f], -f))
    return ranked[: max(0, int(k))]


def reference_adaptive_select(scores, k, dispersion_lambda):
    """adaptive_select as it was written before it ran on arrays."""
    if not scores:
        return []
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    mean = float(np.mean(values))
    sd = float(np.std(values))
    if sd < retrieval.SD_FLOOR:
        chosen = reference_rank_top_k(scores, k)
    else:
        threshold = mean + dispersion_lambda * sd
        chosen = [f for f, s in scores.items() if s >= threshold]
        if len(chosen) > k:
            chosen = reference_rank_top_k({f: scores[f] for f in chosen}, k)
        elif not chosen:
            chosen = reference_rank_top_k(scores, 1)
    return sorted(chosen)


def test_adaptive_select_matches_the_sorted_reference():
    rng = np.random.default_rng(73)
    kinds = set()
    for case in range(3000):
        n = int(rng.integers(0, 40))
        frames = np.sort(rng.choice(10 * n + 1, size=n, replace=False))
        kind = case % 4
        if kind == 0:  # spread scores
            values = rng.standard_normal(n)
        elif kind == 1:  # tie-heavy
            values = rng.integers(0, 3, n) / 4.0
        else:  # constant, or a spread below SD_FLOOR
            values = np.full(n, 0.25) + (kind == 3) * rng.standard_normal(n) * 1e-11
        scores = dict(zip(frames.tolist(), values.tolist()))
        k = int(rng.integers(1, 9))
        lam = float(rng.choice([0.0, 0.5, 1.0, 100.0]))  # 100: nothing clears the threshold
        got = adaptive_select(scores, k, lam)
        assert got == reference_adaptive_select(scores, k, lam), case
        assert all(type(f) is int for f in got)
        assert rank_top_k(scores, k) == reference_rank_top_k(scores, k), case
        if n and float(np.std(values)) < retrieval.SD_FLOOR:
            kinds.add("flat")
        elif n and lam == 100.0:
            kinds.add("none above")
        elif n and len(set(values.tolist())) < n:
            kinds.add("ties")
    assert kinds == {"flat", "none above", "ties"}


# --- retrieve ---------------------------------------------------------------


def test_retrieve_gate_fired_skips_scoring(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return score_candidates(*args, **kwargs)

    monkeypatch.setattr(retrieval, "score_candidates", counting)
    s = snap(
        short=[entry(9, [axis(4, 0)])],
        mid=[entry(5, [axis(4, 1)])],
    )
    result = retrieve(s, GateState(), query([axis(4, 0)], rho=0.1))
    assert result.gated_short_only is True
    assert result.retrieved_frames == ()
    assert result.frame_scores == {}
    assert result.anchor_frames == (9,)
    assert calls == []  # bypass really bypassed
    retrieve(s, GateState(), query([axis(4, 0)], rho=0.1), gate_mode="never")
    assert len(calls) == 1  # the counting hook sees the calls retrieve makes


def test_retrieve_gate_missed_runs_retrieval():
    s = snap(
        short=[entry(9, [axis(4, 0)])],
        mid=[entry(5, [axis(4, 1)])],
        long=[entry(2, [axis(4, 2)])],
    )
    gate = GateState(ema=0.9, observations=1)
    result = retrieve(s, gate, query([axis(4, 1)], rho=2.0))
    assert result.gated_short_only is False
    assert result.anchor_frames == (9,)
    assert result.retrieved_frames == (5,)
    assert math.isclose(result.frame_scores[5], 1.0, abs_tol=1e-12)


def test_retrieve_gate_modes():
    s = snap(
        short=[entry(9, [axis(4, 0)])],
        mid=[entry(5, [axis(4, 0)])],
    )
    q = query([axis(4, 0)], rho=0.1)  # EMA gate would fire
    never = retrieve(s, GateState(), q, gate_mode="never")
    assert never.gated_short_only is False
    assert never.retrieved_frames == (5,)
    always = retrieve(s, GateState(ema=0.9, observations=1), query([axis(4, 1)], rho=2.0),
                      gate_mode="always")
    assert always.gated_short_only is True
    with pytest.raises(UnknownVariant):
        retrieve(s, GateState(), q, gate_mode="sometimes")


def test_retrieve_always_mode_with_empty_short_falls_through():
    s = snap(mid=[entry(5, [axis(4, 0)])])
    result = retrieve(s, GateState(), query([axis(4, 0)]), gate_mode="always")
    assert result.gated_short_only is False
    assert result.retrieved_frames == (5,)
    assert result.anchor_frames == ()


def test_retrieve_is_repeatable_and_serializable():
    rng = np.random.default_rng(17)
    s = snap(
        short=[entry(9, [rng.standard_normal(6) for _ in range(3)])],
        mid=[entry(i, [rng.standard_normal(6) for _ in range(3)]) for i in (5, 6)],
        long=[entry(i, [rng.standard_normal(6) for _ in range(2)]) for i in (1, 2)],
    )
    gate = GateState(ema=0.5, observations=4)
    q = query([rng.standard_normal(6) for _ in range(2)], rho=2.0, top_k=3)
    a = retrieve(s, gate, q)
    b = retrieve(s, gate, q)
    assert a.to_json_dict() == b.to_json_dict()
    json.dumps(a.to_json_dict())  # round-trippable


def test_retrieve_scale_invariant_in_query():
    rng = np.random.default_rng(23)
    s = snap(
        short=[entry(9, [rng.standard_normal(6) for _ in range(3)])],
        mid=[entry(i, [rng.standard_normal(6) for _ in range(4)]) for i in (4, 5)],
        long=[entry(i, [rng.standard_normal(6) for _ in range(2)]) for i in (1, 2)],
    )
    gate = GateState(ema=0.5, observations=4)
    vectors = [rng.standard_normal(6) for _ in range(2)]
    base = retrieve(s, gate, query(vectors, rho=2.0, top_k=3))
    scaled = retrieve(s, gate, query([37.0 * v for v in vectors], rho=2.0, top_k=3))
    assert base.retrieved_frames == scaled.retrieved_frames
    assert base.gated_short_only == scaled.gated_short_only


def test_retrieve_monotone_in_rho():
    rng = np.random.default_rng(31)
    for trial in range(20):
        s = snap(
            short=[entry(9, [rng.standard_normal(5) for _ in range(3)])],
            mid=[entry(4, [rng.standard_normal(5) for _ in range(3)])],
        )
        gate = GateState(ema=float(rng.uniform(0.05, 0.9)), observations=3)
        vectors = [rng.standard_normal(5) for _ in range(2)]
        fired_flags = [
            retrieve(s, gate, query(vectors, rho=r)).gated_short_only
            for r in (0.0, 0.3, 1.0, 3.0, 10.0)
        ]
        # Raising rho can only switch the gate off, never on.
        for earlier, later in zip(fired_flags, fired_flags[1:]):
            assert earlier or not later


def test_retrieve_respects_top_k_and_nonempty_guarantee():
    rng = np.random.default_rng(37)
    for trial in range(20):
        mid = [
            entry(i, [rng.standard_normal(5) for _ in range(3)])
            for i in range(3, 3 + int(rng.integers(1, 6)))
        ]
        s = snap(short=[entry(20, [rng.standard_normal(5) for _ in range(2)])], mid=mid)
        gate = GateState(ema=0.99, observations=5)
        k = int(rng.integers(1, 4))
        result = retrieve(s, gate, query([rng.standard_normal(5)], rho=50.0, top_k=k))
        assert result.gated_short_only is False
        assert 1 <= len(result.retrieved_frames) <= k


def test_score_candidates_ranking_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(10):
        frames = [
            entry(i, [rng.standard_normal(6) for _ in range(4)]) for i in range(8)
        ]
        s = snap(short=[entry(9, [rng.standard_normal(6)])], mid=frames[4:], long=frames[:4])
        vectors = [rng.standard_normal(6) for _ in range(3)]
        scores = score_candidates(s, query(vectors, top_k=3))
        brute = {
            e.frame_index: late_interaction([t.embedding for t in e.tokens], vectors)
            for e in frames
        }
        assert set(rank_top_k(scores, 3)) == set(
            sorted(brute, key=lambda f: (-brute[f], -f))[:3]
        )
        for f in brute:
            assert math.isclose(scores[f], brute[f], abs_tol=1e-9)


# --- query file -------------------------------------------------------------


def test_load_queries_jsonl(tmp_path):
    path = tmp_path / "queries.jsonl"
    lines = [
        json.dumps(
            {
                "id": "alpha",
                "arrival_time": 12.5,
                "rho": 2.0,
                "top_k": 3,
                "lambda": 0.25,
                "tokens": [[1.0, 0.0], [0.0, 1.0]],
                "ground_truth_frames": [4, 7],
            }
        ),
        "",
        json.dumps({"arrival_time": 3.0, "tokens": [[0.0, 2.0]]}),
    ]
    path.write_text("\n".join(lines) + "\n")
    queries = load_queries_jsonl(path)
    assert len(queries) == 2
    assert queries[0].query_id == "alpha"
    assert queries[0].rho == 2.0
    assert queries[0].ground_truth_frames == frozenset({4, 7})
    assert queries[1].query_id == "q3"  # line-numbered default id
    assert queries[1].rho == 0.1 and queries[1].top_k == 5
    assert queries[1].dispersion_lambda == 0.5
    assert queries[1].ground_truth_frames is None


def test_load_queries_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValidationError):
        load_queries_jsonl(path)
    path.write_text(json.dumps({"tokens": [[1.0]]}) + "\n")
    with pytest.raises(ValidationError):
        load_queries_jsonl(path)
    path.write_text(json.dumps({"arrival_time": 0.0}) + "\n")
    with pytest.raises(ValidationError):
        load_queries_jsonl(path)
    path.write_text(json.dumps({"arrival_time": 0.0, "tokens": [[1.0, 0.0]]}) + "\n")
    with pytest.raises(DimensionError):
        load_queries_jsonl(path, dim=3)

"""Query-path tests: gate, candidate scoring, adaptive selection."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from tiermem.errors import (
    DimensionError,
    UnknownVariant,
    ValidationError,
)
from tiermem.retrieval import (
    FrameScores,
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
from tiermem.tiers import FrameEntry, TierConfig, TieredMemory
from tiermem.vecspace import ProbeBank, late_interaction, normalize
from reference_engine import reference_adaptive_select, reference_rank_top_k


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
    short, mid, long = tuple(short), tuple(mid), tuple(long)
    dim = (long + mid + short)[0].token_matrix.shape[1]
    cfg = TierConfig(short_cap_frames=1, tokens_per_frame_max=64, token_budget=64)
    mem = TieredMemory.from_tiers(cfg, ProbeBank.generated(dim, n=1, seed=0),
                                  short=short, mid=mid, long=long)
    return mem.freeze(at=100.0)


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
    for ema in (float("inf"), float("nan"), True, "0.5", None):
        with pytest.raises(ValidationError):
            GateState(ema=ema)
    for observations in (-1, 1.5, True, "1", None):
        with pytest.raises(ValidationError):
            GateState(observations=observations)
    gate = GateState(ema=np.float32(0.5), observations=np.int64(2))
    assert (gate.ema, gate.observations) == (0.5, 2)
    assert type(gate.ema) is float and type(gate.observations) is int


def test_update_gate_first_observation_seeds():
    g = update_gate(GateState(), 0.06)
    assert g.ema == 0.06
    assert g.observations == 1


def test_update_gate_hand_value():
    g = GateState(ema=0.06, observations=1)
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
    for score in (float("nan"), float("inf"), "0.5", True, None):
        with pytest.raises(ValidationError):
            update_gate(GateState(), score)


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
        {"top_k": 2.5},
        {"top_k": 2.0},
        {"top_k": True},
        {"top_k": "3"},
        {"top_k": None},
        {"rho": "x"},
        {"rho": True},
        {"rho": None},
        {"dispersion_lambda": "0.5"},
        {"dispersion_lambda": False},
        {"arrival_time": "1"},
        {"arrival_time": True},
        {"arrival_time": 1j},
    ],
)
def test_query_spec_validation(kwargs):
    base = dict(query_id="q", arrival_time=0.0, tokens=np.array([[1.0, 0.0]]))
    base.update(kwargs)
    with pytest.raises(ValidationError):
        QuerySpec(**base)


def test_query_spec_takes_any_integral_top_k_and_real_knobs():
    q = QuerySpec(query_id="q", arrival_time=np.float32(1.5), tokens=np.array([[1.0, 0.0]]),
                  rho=np.float64(0.2), top_k=np.int64(3), dispersion_lambda=1)
    assert q.top_k == 3 and type(q.top_k) is int
    # A query the gate answers still ends without error.
    s = snap(short=[entry(9, [axis(2, 0)])], mid=[entry(5, [axis(2, 1)])])
    assert retrieve(s, GateState(), q).gated_short_only is True


def test_query_spec_ground_truth_coerced():
    q = QuerySpec(
        query_id="q",
        arrival_time=0.0,
        tokens=np.array([[1.0, 0.0]]),
        ground_truth_frames=[3, 3, 5],
    )
    assert q.ground_truth_frames == frozenset({3, 5})


@pytest.mark.parametrize("frame", [1.5, "3", True])
def test_query_spec_ground_truth_frames_must_be_integers(frame):
    # int() turned {1.5, "3"} into {1, 3}.
    with pytest.raises(ValidationError, match="ground_truth_frames"):
        QuerySpec(query_id="q", arrival_time=0.0, tokens=np.array([[1.0, 0.0]]),
                  ground_truth_frames=[0, frame])


def test_query_ground_truth_frames_must_be_non_negative(tmp_path):
    # A frame index is non-negative everywhere else, so a negative one is
    # refused, from the API and from a query file, whose error names the
    # line; frame 0 is a frame like any other.
    with pytest.raises(ValidationError, match="ground_truth_frames must be non-negative"):
        QuerySpec(query_id="q", arrival_time=0.0, tokens=np.array([[1.0, 0.0]]),
                  ground_truth_frames=[0, -1])
    ok = QuerySpec(query_id="q", arrival_time=0.0, tokens=np.array([[1.0, 0.0]]),
                   ground_truth_frames=[0])
    assert ok.ground_truth_frames == frozenset({0})
    path = tmp_path / "negative.jsonl"
    path.write_text(json.dumps({"arrival_time": 0.0, "tokens": [[1.0, 0.0]],
                                "ground_truth_frames": [2, -1]}) + "\n")
    with pytest.raises(ValidationError,
                       match=f"{path}:1: ground_truth_frames must be non-negative frame "
                             f"indices, got -1"):
        load_queries_jsonl(path)


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
    with pytest.raises(UnknownVariant,
                       match=r"^gate pooling must be one of \('mean', 'max'\), got 'median'$"):
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
        alone = score_candidates(snap(long=[e]), q)
        assert scores[e.frame_index] == alone[e.frame_index]
    assert scores[2] == scores[7] == scores[11]


def test_late_interaction_agrees_with_score_candidates(monkeypatch):
    # One frame scored alone: from its rows at the top of zeroed blocks, and
    # in place in a snapshot's pages. Frames fill less than, exactly and more
    # than one block, and more than two; on the BLAS block product where the
    # self-check passes, and on the einsum fallback.
    rng = np.random.default_rng(59)
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for dim in (8, 128):
            for n in (1, 4, 33, 511, 512, 513, 1100):
                rows = rng.standard_normal((n, dim))
                for k in range(1, 6):
                    vectors = rng.standard_normal((k, dim))
                    scores = score_candidates(snap(long=[entry(0, rows)]), query(vectors))
                    alone = np.float64(late_interaction(rows, vectors))
                    assert list(scores) == [0], (check_fails, dim, n, k)
                    assert scores.scores.tobytes() == alone.tobytes(), (check_fails, dim, n, k)


def test_score_candidates_dimension_mismatch():
    s = snap(long=[entry(0, [axis(4, 0)])])
    with pytest.raises(DimensionError):
        score_candidates(s, query([axis(3, 0)]))


def test_score_candidates_return_a_read_only_map_in_frame_order():
    rng = np.random.default_rng(101)
    frames = [entry(i, [rng.standard_normal(5) for _ in range(int(rng.integers(1, 6)))])
              for i in range(0, 30, 3)]
    s = snap(short=[entry(40, [rng.standard_normal(5)])], mid=frames[6:], long=frames[:6])
    q = query([rng.standard_normal(5) for _ in range(2)])
    scores = score_candidates(s, q)
    assert isinstance(scores, FrameScores) and not isinstance(scores, dict)
    plain = dict(zip(scores.frames.tolist(), scores.scores.tolist()))
    assert scores == plain and plain == scores and len(scores) == len(plain) == 10
    assert list(scores) == list(scores.keys()) == sorted(plain) == list(range(0, 30, 3))
    assert list(scores.items()) == sorted(plain.items())
    assert 3 in scores and 4 not in scores and scores.get(4) is None
    assert scores[27] == plain[27]
    with pytest.raises(KeyError):
        scores[4]
    with pytest.raises(TypeError):
        scores[3] = 0.0
    with pytest.raises(ValueError):
        scores.scores[0] = 0.0
    with pytest.raises(ValueError):
        scores.frames[0] = 1
    gate = GateState(ema=0.9, observations=1)
    result = retrieve(s, gate, q, gate_mode="never")
    assert result.frame_scores == plain
    as_dict = dataclasses.replace(result, frame_scores=plain)
    assert json.dumps(result.to_json_dict()) == json.dumps(as_dict.to_json_dict())
    gated = retrieve(s, gate, q, gate_mode="always")
    assert gated.frame_scores == {} and len(gated.frame_scores) == 0
    with pytest.raises(TypeError):
        gated.frame_scores[3] = 0.0


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
    for k in (0, 2.5, 2.0, True, "3", None):
        with pytest.raises(ValidationError):
            adaptive_select({1: 0.5}, k, 0.5)
    assert adaptive_select({1: 0.5}, np.int64(2), 0.5) == [1]


def test_adaptive_select_rejects_a_lambda_that_is_not_a_finite_real():
    scores = {1: 0.1, 2: 0.9, 3: 0.5}
    for lam in (float("nan"), float("inf"), True, "x", None):
        for table in (scores, {}):
            with pytest.raises(ValidationError):
                adaptive_select(table, 2, lam)
    assert adaptive_select(scores, 2, np.float32(0.5)) == adaptive_select(scores, 2, 0.5) == [2]
    assert adaptive_select(scores, 2, 0) == [2, 3]


def test_rank_top_k_tie_breaks_to_recent():
    assert rank_top_k({1: 0.5, 2: 0.5, 3: 0.1}, 2) == [2, 1]


def test_rank_top_k_takes_only_a_non_negative_integer_k():
    scores = {1: 0.5, 2: 0.5, 3: 0.1}
    assert rank_top_k(scores, 0) == []
    assert rank_top_k(scores, np.int64(1)) == [2]
    assert rank_top_k(scores, 10) == [2, 1, 3]
    for k in (1.9, True, False, "2", None, 2.0):
        with pytest.raises(ValidationError):
            rank_top_k(scores, k)
    for k in (-1, -3, np.int64(-2)):
        with pytest.raises(ValidationError):
            rank_top_k(scores, k)


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
        assert got == reference_adaptive_select(scores, k, lam, retrieval.SD_FLOOR), case
        assert all(type(f) is int for f in got)
        assert rank_top_k(scores, k) == reference_rank_top_k(scores, k), case
        table = FrameScores(frames.copy(), values.copy())  # as score_candidates returns
        assert table == scores
        assert adaptive_select(table, k, lam) == got, case
        assert rank_top_k(table, k) == reference_rank_top_k(scores, k), case
        if n and float(np.std(values)) < retrieval.SD_FLOOR:
            kinds.add("flat")
        elif n and lam == 100.0:
            kinds.add("none above")
        elif n and len(set(values.tolist())) < n:
            kinds.add("ties")
    assert kinds == {"flat", "none above", "ties"}


def test_selection_statistics_have_the_bits_of_np_mean_and_np_std():
    # adaptive_select makes the ufunc calls np.mean and np.std make, without
    # their wrappers: its mean and sd must keep their bits on one score,
    # equal scores, infinities, NaN, squares that overflow, subnormals and
    # many random scores, and its picks must stay the sorted reference's
    # wherever that one is defined.
    rng = np.random.default_rng(97)
    tiny = math.ulp(0.0)
    cases = [
        np.array([0.375]),
        np.full(17, -0.2),
        np.array([0.1, math.inf, 0.3]),
        np.array([-math.inf, 0.5, 0.25]),
        np.array([math.inf, -math.inf]),
        np.array([0.2, math.nan, 0.4]),
        np.array([1e200, -3e200, 2e200]),  # every square overflows
        rng.uniform(0.9e200, 1.1e200, 50),
        np.array([tiny, 3 * tiny, 0.0, -tiny, 7 * tiny]),
        rng.uniform(-1.0, 1.0, 9) * 2.0**-1060,  # subnormal, with subnormal deviations
        rng.standard_normal(10_000),
    ]
    cases += [rng.standard_normal(int(n)) * 10.0 ** rng.integers(-300, 300)
              for n in rng.integers(1, 300, 40)]
    for case, values in enumerate(cases):
        with np.errstate(all="ignore"):
            got = retrieval._mean_sd(values)
            want = float(np.mean(values)), float(np.std(values))
        assert [x.hex() for x in got] == [x.hex() for x in want], case
        if np.isnan(values).any():
            continue  # the reference's sort by score has no order for NaN
        frames = np.arange(len(values), dtype=np.int64) * 3
        scores = dict(zip(frames.tolist(), values.tolist()))
        for k, lam in ((1, 0.5), (5, 0.0), (5, 1.0)):
            with np.errstate(all="ignore"):
                picked = adaptive_select(FrameScores(frames.copy(), values.copy()), k, lam)
                assert picked == reference_adaptive_select(scores, k, lam, retrieval.SD_FLOOR), case


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


def test_retrieve_selects_once_per_gate_closed_query_through_the_module(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return adaptive_select(*args, **kwargs)

    monkeypatch.setattr(retrieval, "adaptive_select", counting)
    s = snap(
        short=[entry(9, [axis(4, 0)])],
        mid=[entry(5, [axis(4, 1)])],
        long=[entry(2, [axis(4, 2)])],
    )
    gated = retrieve(s, GateState(), query([axis(4, 0)], rho=0.1))
    assert gated.gated_short_only is True and calls == []
    result = retrieve(s, GateState(ema=0.9, observations=1), query([axis(4, 1)], rho=2.0, top_k=3))
    assert result.gated_short_only is False
    assert len(calls) == 1
    scores, k, lam = calls[0]
    assert scores is result.frame_scores and (k, lam) == (3, 0.5)
    retrieve(s, GateState(), query([axis(4, 0)], rho=0.1), gate_mode="never")
    assert len(calls) == 2


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
    with pytest.raises(
            UnknownVariant,
            match=r"^gate mode must be one of \('ema', 'never', 'always'\), got 'sometimes'$"):
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
            e.frame_index: late_interaction(e.token_matrix, vectors)
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


def test_load_queries_jsonl_numbers_lines_as_text_mode(tmp_path):
    # Lines end in \n, \r\n or \r, some blank, the last unterminated; a
    # query without an id is named by its line number, which must be the one
    # text mode (universal newlines) gives it, and so must an error's.
    path = tmp_path / "mixed.jsonl"

    def doc(t):
        return json.dumps({"arrival_time": t, "tokens": [[1.0, 0.0]]}).encode()

    ends = [b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r\n", b"\r\n\r", b"\n\r", b" \r\n"]
    data = b"".join(doc(t) + end for t, end in enumerate(ends)) + doc(99)

    def text_mode_lines(data):
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            return list(enumerate(fh, start=1))

    want = [f"q{n}" for n, line in text_mode_lines(data) if line.strip()]
    queries = load_queries_jsonl(path)
    assert [q.query_id for q in queries] == want
    assert [q.arrival_time for q in queries] == [*range(len(ends)), 99]
    for bad in (b"\r\rnot json\r\n", b"\n\r\nnot json", b"\rnot json\r" + doc(0)):
        lineno = next(n for n, line in text_mode_lines(data + bad) if line.startswith("not json"))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:{lineno}: ")):
            load_queries_jsonl(path)


def test_load_queries_jsonl_holds_one_line_at_a_time(tmp_path):
    # A multi-MB query file is read a line at a time: the peak is what the
    # queries keep plus one line, not the file and its split lines at once.
    rng = np.random.default_rng(89)
    path = tmp_path / "many.jsonl"
    with open(path, "w") as fh:
        for t in range(1500):
            tokens = rng.standard_normal((2, 128)).tolist()
            fh.write(json.dumps({"arrival_time": t, "tokens": tokens}) + "\n")
    size = path.stat().st_size
    assert size > 3_000_000
    tracemalloc.start()
    try:
        queries = load_queries_jsonl(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(queries) == 1500
    assert peak < 1.5 * size, (peak, size)


@pytest.mark.parametrize(
    "field, value",
    [("arrival_time", "NaN"), ("rho", "NaN"), ("lambda", "NaN"), ("rho", "Infinity"),
     ("arrival_time", "-Infinity")],
)
def test_load_queries_jsonl_rejects_non_finite_reals_naming_the_line(tmp_path, field, value):
    # Python's JSON reader takes NaN and Infinity; they fail where they are read.
    path = tmp_path / "nan.jsonl"
    doc = {"id": "q", "arrival_time": 1.0, "tokens": [[1.0, 0.0]], field: "PLACEHOLDER"}
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', value) + "\n")
    with pytest.raises(ValidationError, match=f"{path}:1: {field} must be a finite real"):
        load_queries_jsonl(path)


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

"""Benchmark driver tests."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tiermem.bench import (
    HIST_LEVELS,
    MAX_HIST_BINS,
    PRIOR_VARIANTS,
    STAGE_VARIANTS,
    RunReport,
    _rank_correlation,
    VariantFlags,
    emit_score_histograms,
    histogram_csv,
    oracle_scores,
    parse_variant,
    probe_digest,
    report_json,
    resolve_prior_bank,
    run_growth_sweep,
    run_ingest,
    run_oracle,
    run_query_replay,
    sweep_csv,
    write_report,
)
from tiermem.errors import EmptyInputError, NonMonotoneTimestamp, UnknownVariant, ValidationError
from tiermem.retrieval import GATE_MODES, GATE_POOLINGS, QuerySpec, rank_top_k, score_candidates
from tiermem.synth import StreamSpec, event_direction, generate_stream, query_for_event
from tiermem.tiers import TierConfig, new_memory
from tiermem.traceio import RawFrame
from tiermem.vecspace import ProbeBank, late_interaction


def make_frame(index, ts, vectors, dim=None):
    return RawFrame(frame_index=index, timestamp=float(ts),
                    vectors=np.asarray(vectors, dtype=np.float32),
                    rows=np.arange(len(vectors)), cols=np.zeros(len(vectors), dtype=np.int64))


def axis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def query(tokens, arrival, *, k=5, rho=0.1, lam=0.5, gt=None, qid="q"):
    return QuerySpec(
        query_id=qid,
        arrival_time=float(arrival),
        tokens=np.asarray(tokens, dtype=np.float64),
        rho=rho,
        top_k=k,
        dispersion_lambda=lam,
        ground_truth_frames=gt,
    )


def no_compression_config(frames, tokens_per_frame):
    # Caps and budget sit above the raw stream size, so nothing is dropped.
    return TierConfig(
        short_cap_frames=4,
        mid_cap_frames=frames + 4,
        token_budget=max(4096, 2 * frames * tokens_per_frame),
        keep_fraction=1.0,
        long_quota_per_frame=tokens_per_frame,
        tokens_per_frame_max=tokens_per_frame,
    )


def planted_spec(dim=32, frames=40, tpf=8, event_frame=10, sigma=0.0, strength=1.0, seed=7):
    return StreamSpec(
        dim=dim,
        frames=frames,
        tokens_per_frame=tpf,
        events=((event_frame, 1, strength),),
        noise_sigma=sigma,
        rng_seed=seed,
    )


def aligned_bank(spec, extra_seed=0):
    """Probe bank whose first probe is the planted event direction."""
    generated = ProbeBank.generated(spec.dim, n=4, seed=extra_seed)
    probes = np.vstack([event_direction(spec, 0)[None, :], generated.matrix])
    return ProbeBank(probes)


def unread():
    """A trace that fails the test if a driver reads it."""
    raise AssertionError("the trace was read")
    yield


# -- variants ---------------------------------------------------------------


def test_parse_variant_defaults_and_full():
    assert parse_variant(None) == VariantFlags()
    assert parse_variant("") == VariantFlags()
    assert parse_variant("gate=always") == VariantFlags(gate="always")
    flags = parse_variant("gate=never,prior=random,stage=s2")
    assert (flags.gate, flags.prior, flags.stage) == ("never", "random", "s2")


@pytest.mark.parametrize(
    "text",
    ["gate=sometimes", "prior=oracle", "stage=s3", "mode=ema", "gateema", "gate=ema,x=1"],
)
def test_parse_variant_rejects_unknown(text):
    with pytest.raises(UnknownVariant):
        parse_variant(text)


def test_variant_flags_validate_direct_construction():
    with pytest.raises(UnknownVariant):
        VariantFlags(stage="stage1")


@pytest.mark.parametrize(
    "check, what, allowed",
    [(lambda name: VariantFlags(gate=name), "gate", GATE_MODES),
     (lambda name: VariantFlags(prior=name), "prior", PRIOR_VARIANTS),
     (lambda name: VariantFlags(stage=name), "stage", STAGE_VARIANTS),
     (lambda name: resolve_prior_bank(ProbeBank.generated(8, n=3, seed=0), name), "prior",
      PRIOR_VARIANTS),
     (lambda name: run_query_replay(unread(), [], TierConfig(), ProbeBank.generated(8, n=3, seed=0),
                                    gate_pooling=name), "gate pooling", GATE_POOLINGS),
     (lambda name: histogram_csv(RunReport("hist", {}, {}, None, {}, (), {}), name), "level",
      HIST_LEVELS)],
)
def test_every_name_set_is_checked_in_one_form(check, what, allowed):
    # Each fixed set of names refuses an outsider before any work, in one form.
    with pytest.raises(UnknownVariant) as raised:
        check("bogus")
    assert str(raised.value) == f"{what} must be one of {allowed}, got 'bogus'"


def test_resolve_prior_bank():
    bank = ProbeBank.generated(16, n=5, seed=3)
    assert resolve_prior_bank(bank, "bank") is bank
    single = resolve_prior_bank(bank, "single")
    assert len(single) == 1
    assert np.array_equal(single.matrix[0], bank.matrix[0])
    rand1 = resolve_prior_bank(bank, "random", seed=3)
    rand2 = resolve_prior_bank(bank, "random", seed=3)
    assert np.array_equal(rand1.matrix, rand2.matrix)
    assert not np.array_equal(rand1.matrix, bank.matrix)
    assert (rand1.dim, len(rand1)) == (bank.dim, len(bank))
    # The random prior must not collapse onto a bank generated from the
    # same seed, or the ablation would compare a bank against itself.
    assert not np.array_equal(rand1.matrix, ProbeBank.generated(16, n=5, seed=3).matrix)


# -- run_ingest -------------------------------------------------------------


def test_run_ingest_empty_trace():
    bank = ProbeBank.generated(8, n=3, seed=0)
    report = run_ingest([], TierConfig(), bank)
    assert report.kind == "ingest"
    assert report.rows == ()
    assert report.summary["frames"] == 0
    assert report.summary["final_total_tokens"] == 0
    assert report.summary["peak_total_tokens"] == 0


def test_run_ingest_rows_and_summary():
    spec = StreamSpec(dim=16, frames=12, tokens_per_frame=6, noise_sigma=0.2, rng_seed=1)
    bank = ProbeBank.generated(16, n=5, seed=0)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=3, token_budget=30,
                     tokens_per_frame_max=6, scene_threshold=-0.5)
    report = run_ingest(generate_stream(spec), cfg, bank)
    assert report.summary["frames"] == 12
    assert len(report.rows) == 12
    for row in report.rows:
        assert row["total_tokens"] <= cfg.token_budget
        assert row["total_tokens"] == (
            row["short_tokens"] + row["mid_tokens"] + row["long_tokens"]
        )
    assert report.summary["final_total_tokens"] == report.rows[-1]["total_tokens"]
    assert report.summary["peak_total_tokens"] >= report.summary["final_total_tokens"]
    assert report.summary["dropped_temporal"] > 0
    assert len(report.summary["state_digest"]) == 64
    assert report.inputs["probe_digest"] == probe_digest(bank)


# Each driver as (frames, queries, config, bank, seed=, inputs=) -> RunReport,
# and whether it is given a bank.
DRIVERS = {
    "ingest": (lambda frames, queries, cfg, bank, **kw: run_ingest(frames, cfg, bank, **kw), True),
    "oracle": (lambda frames, queries, cfg, bank, **kw:
               run_oracle(frames, queries, exclude_most_recent=1, **kw), False),
    "replay": (lambda frames, queries, cfg, bank, **kw:
               run_query_replay(frames, queries, cfg, bank, compare_oracle=True, **kw), True),
    "sweep": (lambda frames, queries, cfg, bank, **kw:
              run_growth_sweep([4, 8, 16], cfg, bank, tokens_per_frame=4, **kw), True),
    "hist": (lambda frames, queries, cfg, bank, **kw:
             emit_score_histograms(frames, cfg, bank, bins=5, **kw), True),
}


@pytest.mark.parametrize("kind", list(DRIVERS))
def test_every_driver_is_deterministic_modulo_timings(kind):
    spec = planted_spec(dim=16, frames=20, tpf=4, event_frame=4, sigma=0.2)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=24,
                     tokens_per_frame_max=4)
    queries = [query_for_event(spec, 0, jitter=0.1, rng_seed=s, rho=2.0, query_id=f"q{s}")
               for s in range(3)]
    driver, banked = DRIVERS[kind]
    a, b = (driver(generate_stream(spec), queries, cfg, bank, seed=11, inputs={"source": "test"})
            for _ in range(2))
    assert report_json(a, include_timings=False) == report_json(b, include_timings=False)
    assert "timings" not in a.to_json_dict(include_timings=False)
    assert list(a.timings) == ["wall_seconds"]
    # The envelope: the checked seed, and the probe fields leading the
    # inputs exactly when the driver is given a bank.
    assert a.kind == kind and a.rows
    assert a.seeds == {"seed": 11}
    assert a.inputs["source"] == "test"
    probe = {"probe_digest": probe_digest(bank), "probe_dim": 16, "probe_count": 5}
    if banked:
        assert list(a.inputs.items())[:3] == list(probe.items())
    else:
        assert not set(probe) & set(a.inputs)


# -- run_oracle -------------------------------------------------------------


def test_oracle_single_frame_top1():
    frame = make_frame(0, 0.0, [axis(4, 0), axis(4, 1)])
    report = run_oracle([frame], [query([axis(4, 0)], arrival=0.0, k=1)])
    assert report.rows[0]["top_k"] == [0]
    # Hand value: token scores are 1.0 and 0.0, frame score is their mean.
    assert report.rows[0]["scores"] == [[0, 0.5]]


def test_oracle_orthogonal_query_ties_break_recent_first():
    frames = [make_frame(i, float(i), [axis(4, 0)]) for i in range(6)]
    report = run_oracle(frames, [query([axis(4, 2)], arrival=5.0, k=3)])
    row = report.rows[0]
    assert all(score == 0.0 for _, score in row["scores"])
    assert row["top_k"] == [5, 4, 3]


def test_oracle_respects_arrival_and_exclusion():
    frames = [make_frame(i, float(i), [axis(4, i % 4)]) for i in range(8)]
    q = query([axis(4, 3)], arrival=5.0, k=1)
    report = run_oracle(frames, [q])
    assert report.rows[0]["candidates"] == 6
    assert report.rows[0]["top_k"] == [3]
    shifted = run_oracle(frames, [q], exclude_most_recent=3)
    assert shifted.rows[0]["candidates"] == 3
    assert shifted.rows[0]["top_k"] == [2]
    assert shifted.summary["exclude_most_recent"] == 3


def test_engine_ranking_matches_oracle_without_compression():
    spec = StreamSpec(dim=16, frames=24, tokens_per_frame=6, noise_sigma=0.3, rng_seed=11)
    frames = generate_stream(spec)
    cfg = no_compression_config(spec.frames, spec.tokens_per_frame)
    bank = ProbeBank.generated(16, n=5, seed=1)
    mem = new_memory(cfg, bank)
    for f in frames:
        mem.ingest_frame(f.timestamp, f.ingest_tokens())
    snap = mem.freeze()
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = query(rng.standard_normal((2, 16)), arrival=23.0, k=5)
        engine = rank_top_k(score_candidates(snap, q), 5)
        oracle = oracle_scores(frames, q.tokens.tolist(), 23.0,
                               exclude_most_recent=len(snap.short))
        ranked = sorted(oracle.items(), key=lambda kv: (-kv[1], -kv[0]))
        assert engine == [f for f, _ in ranked[:5]]


# -- run_query_replay -------------------------------------------------------


def test_replay_planted_event_full_recall():
    spec = planted_spec(event_frame=10, sigma=0.0, strength=1.0)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=8, token_budget=128,
                     long_quota_per_frame=4, tokens_per_frame_max=8)
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0)
    report = run_query_replay(generate_stream(spec), [q], cfg, bank)
    row = report.rows[0]
    assert row["recall"] == 1.0
    assert row["result"]["gated_short_only"] is False
    assert report.summary["mean_recall"] == 1.0


@pytest.mark.parametrize(
    "renumber", [lambda i: i + 1000, lambda i: 3 * i + 5], ids=["shifted", "gapped"]
)
def test_replay_and_ingest_report_trace_frame_indices(renumber):
    # One identity from trace to report: renumbering the trace renumbers
    # every frame the reports name, and changes nothing else.
    spec = planted_spec(event_frame=10, sigma=0.05)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=8, token_budget=128,
                     long_quota_per_frame=4, tokens_per_frame_max=8)
    frames = generate_stream(spec)
    renumbered = [RawFrame(renumber(f.frame_index), f.timestamp,
                           vectors=f.vectors, rows=f.rows, cols=f.cols) for f in frames]
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0)
    moved = dataclasses.replace(q, ground_truth_frames=frozenset(map(renumber, q.ground_truth_frames)))

    want = run_query_replay(frames, [q], cfg, bank, compare_oracle=True).rows[0]
    got = run_query_replay(renumbered, [moved], cfg, bank, compare_oracle=True).rows[0]
    assert got["selected_frames"] == [renumber(f) for f in want["selected_frames"]]
    assert got["oracle_top_k"] == [renumber(f) for f in want["oracle_top_k"]]
    for key in ("anchor_frames", "retrieved_frames"):
        assert got["result"][key] == [renumber(f) for f in want["result"][key]]
    assert got["result"]["frame_scores"] == [
        [renumber(f), score] for f, score in want["result"]["frame_scores"]]
    for key in ("max_selected_timestamp", "recall", "oracle_overlap", "rank_correlation"):
        assert got[key] == want[key], key
    assert got["recall"] == 1.0 and got["result"]["retrieved_frames"]

    ingest = run_ingest(renumbered, cfg, bank)
    assert [r["frame_index"] for r in ingest.rows] == [f.frame_index for f in renumbered]
    hist = emit_score_histograms(renumbered, cfg, bank)
    assert hist.summary["designated_frame"] == renumber(
        emit_score_histograms(frames, cfg, bank).summary["designated_frame"])


def test_replay_always_gate_never_retrieves():
    spec = planted_spec()
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=8, token_budget=128,
                     long_quota_per_frame=4, tokens_per_frame_max=8)
    queries = [query_for_event(spec, 0, jitter=0.0, rho=2.0, query_id=f"q{i}") for i in range(3)]
    report = run_query_replay(generate_stream(spec), queries, cfg, bank, "gate=always")
    assert all(r["result"]["gated_short_only"] for r in report.rows)
    assert all(r["result"]["retrieved_frames"] == [] for r in report.rows)
    assert report.summary["gated_fraction"] == 1.0


def test_replay_never_gate_still_scores_candidates():
    # Query aimed at the short tier: the ema gate would fire, never must not.
    spec = planted_spec(event_frame=38, sigma=0.1)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=8, token_budget=128,
                     long_quota_per_frame=4, tokens_per_frame_max=8)
    q = query_for_event(spec, 0, jitter=0.0, rho=0.1)
    report = run_query_replay(generate_stream(spec), [q], cfg, bank, "gate=never")
    row = report.rows[0]
    assert row["result"]["gated_short_only"] is False
    assert len(row["result"]["frame_scores"]) > 0
    assert len(row["result"]["retrieved_frames"]) >= 1


def test_replay_causality_and_truncation():
    spec = StreamSpec(dim=8, frames=30, tokens_per_frame=3, noise_sigma=0.3, rng_seed=4)
    bank = ProbeBank.generated(8, n=4, seed=0)
    cfg = TierConfig(short_cap_frames=3, mid_cap_frames=6, token_budget=45,
                     tokens_per_frame_max=3, scene_threshold=-0.5)
    queries = [
        query([axis(8, 1)], arrival=29.0, qid="late"),
        query([axis(8, 0)], arrival=9.5, qid="early"),
    ]
    report = run_query_replay(generate_stream(spec), queries, cfg, bank, "gate=never")
    assert [r["query_id"] for r in report.rows] == ["early", "late"]
    early = report.rows[0]
    assert early["frames_ingested"] == 10
    assert early["freeze_timestamp"] == 9.5
    for row in report.rows:
        assert row["max_selected_timestamp"] <= row["freeze_timestamp"]


def test_replay_stage1_forwards_whole_memory():
    spec = planted_spec(frames=30)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=4, mid_cap_frames=8, token_budget=128,
                     long_quota_per_frame=4, tokens_per_frame_max=8)
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0)
    report = run_query_replay(generate_stream(spec), [q], cfg, bank, "stage=s1")
    row = report.rows[0]
    result = row["result"]
    assert result["gated_short_only"] is False
    assert result["frame_scores"] == []
    # Anchor plus retrieved covers every frame still held in memory.
    ingest = run_ingest(generate_stream(spec), cfg, bank)
    held = ingest.summary["final_short_frames"] + ingest.summary["final_mid_frames"] \
        + ingest.summary["final_long_frames"]
    assert len(row["selected_frames"]) == held


def test_replay_stage2_fifo_ignores_compression_and_budget():
    spec = StreamSpec(dim=8, frames=10, tokens_per_frame=4, noise_sigma=0.2, rng_seed=6)
    bank = ProbeBank.generated(8, n=4, seed=1)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=2, token_budget=8,
                     tokens_per_frame_max=4)
    q = query([axis(8, 0)], arrival=9.0, k=3)
    report = run_query_replay(generate_stream(spec), [q], cfg, bank, "gate=never,stage=s2")
    row = report.rows[0]
    # All 8 pre-short frames stay scoreable: nothing was pruned or evicted.
    assert len(row["result"]["frame_scores"]) == 8
    assert row["result"]["anchor_frames"] == [8, 9]


def test_replay_stage2_recalls_distant_event_exactly():
    spec = planted_spec(dim=16, frames=20, tpf=4, event_frame=3, sigma=0.0)
    bank = aligned_bank(spec)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=2, token_budget=8,
                     tokens_per_frame_max=4)
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0, top_k=1)
    report = run_query_replay(generate_stream(spec), [q], cfg, bank, "gate=never,stage=s2")
    assert report.rows[0]["recall"] == 1.0


def test_replay_stage2_rejects_timestamps_that_do_not_increase():
    # s2 holds the stream contracts stage=full holds.
    frames = [make_frame(i, ts, [axis(4, i % 4)]) for i, ts in enumerate([0.0, 1.0, 1.0, 2.0])]
    q = query([axis(4, 0)], arrival=5.0)
    bank = ProbeBank.generated(4, n=2, seed=0)
    for stage in ("full", "s2"):
        with pytest.raises(NonMonotoneTimestamp):
            run_query_replay(frames, [q], TierConfig(), bank, f"stage={stage}")


def test_replay_stage2_scores_frames_longer_than_the_frame_cap():
    # A frame past tokens_per_frame_max is held whole, as every other frame.
    rng = np.random.default_rng(5)
    counts = [3, 3, 9, 3, 3, 3, 3]
    frames = [make_frame(i, i, rng.standard_normal((n, 6))) for i, n in enumerate(counts)]
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=2, token_budget=16,
                     tokens_per_frame_max=4)
    q = query([axis(6, 0)], arrival=10.0)
    row = run_query_replay(frames, [q], cfg, ProbeBank.generated(6, n=2, seed=0),
                           "gate=never,stage=s2").rows[0]
    assert [f for f, _ in row["result"]["frame_scores"]] == [0, 1, 2, 3, 4]
    assert row["result"]["anchor_frames"] == [5, 6]
    want = late_interaction(frames[2].vectors, q.tokens)
    assert row["result"]["frame_scores"][2][1] == want


def test_replay_compare_oracle_agrees_without_compression():
    spec = planted_spec(dim=16, frames=24, tpf=8, event_frame=5, sigma=0.3, seed=13)
    bank = aligned_bank(spec)
    cfg = no_compression_config(spec.frames, spec.tokens_per_frame)
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0, top_k=1)
    report = run_query_replay(
        generate_stream(spec), [q], cfg, bank, "gate=never", compare_oracle=True
    )
    row = report.rows[0]
    assert row["oracle_top_k"] == [5]
    assert row["oracle_overlap"] == 1.0
    assert row["rank_correlation"] is not None
    assert row["rank_correlation"] > 0.99
    assert report.summary["mean_oracle_overlap"] == 1.0


def test_replay_rejects_bad_variant_and_pooling():
    bank = ProbeBank.generated(8, n=3, seed=0)
    with pytest.raises(UnknownVariant):
        run_query_replay([], [], TierConfig(), bank, "stage=s9")
    with pytest.raises(UnknownVariant):
        run_query_replay([], [], TierConfig(), bank, gate_pooling="median")


def test_replay_empty_queries():
    bank = ProbeBank.generated(8, n=3, seed=0)
    report = run_query_replay([], [], TierConfig(), bank)
    assert report.rows == ()
    assert report.summary["mean_recall"] is None
    assert report.summary["gated_fraction"] is None


# -- run_growth_sweep -------------------------------------------------------


def test_growth_sweep_rows_and_csv():
    bank = ProbeBank.generated(16, n=5, seed=0)
    cfg = TierConfig(short_cap_frames=2, mid_cap_frames=4, token_budget=64,
                     tokens_per_frame_max=8, scene_threshold=-0.5)
    report = run_growth_sweep([2, 4, 8, 16], cfg, bank, seed=5, tokens_per_frame=8)
    assert [r["length"] for r in report.rows] == [2, 4, 8, 16]
    finals = [r["final_tokens"] for r in report.rows]
    assert all(f <= cfg.token_budget for f in finals)
    assert finals == sorted(finals)
    for row in report.rows:
        assert row["peak_tokens"] >= row["final_tokens"]
    csv = sweep_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "length,final_tokens,peak_tokens"
    assert len(lines) == 5
    assert lines[1] == f"2,{report.rows[0]['final_tokens']},{report.rows[0]['peak_tokens']}"
    # A report of another kind is refused by name, not with a bare KeyError.
    with pytest.raises(ValidationError, match="got kind 'sweep'"):
        histogram_csv(report, "frame")


def test_growth_sweep_validates_lengths():
    bank = ProbeBank.generated(8, n=3, seed=0)
    with pytest.raises(EmptyInputError):
        run_growth_sweep([], TierConfig(), bank)
    with pytest.raises(ValidationError):
        run_growth_sweep([4, 2], TierConfig(), bank)
    with pytest.raises(ValidationError):
        run_growth_sweep([0, 2], TierConfig(), bank)


# -- emit_score_histograms --------------------------------------------------


def hist_config(tpf):
    return TierConfig(short_cap_frames=2, mid_cap_frames=4,
                      token_budget=max(64, 4 * tpf), tokens_per_frame_max=tpf)


def test_histograms_planted_block_right_skew():
    spec = planted_spec(dim=32, frames=24, tpf=16, event_frame=9, sigma=0.25, seed=3)
    bank = aligned_bank(spec)
    report = emit_score_histograms(generate_stream(spec), hist_config(16), bank, bins=10)
    assert report.summary["designated_frame"] == 9
    assert report.summary["token_mean"] > report.summary["token_median"]
    assert report.summary["token_right_skewed"] is True
    assert report.summary["token_count"] == 16
    assert report.summary["frame_count"] == 24
    token_rows = [r for r in report.rows if r["level"] == "token"]
    assert len(token_rows) == 10
    assert sum(r["count"] for r in token_rows) == 16
    csv = histogram_csv(report, "token")
    assert len(csv.splitlines()) == 11
    assert csv.splitlines()[0] == "lo,hi,count"


def test_histograms_degenerate_single_bin():
    spec = StreamSpec(dim=8, frames=6, tokens_per_frame=4, noise_sigma=0.0, rng_seed=2)
    bank = ProbeBank.generated(8, n=3, seed=0)
    report = emit_score_histograms(generate_stream(spec), hist_config(4), bank, bins=12)
    token_rows = [r for r in report.rows if r["level"] == "token"]
    frame_rows = [r for r in report.rows if r["level"] == "frame"]
    assert len(token_rows) == 1
    assert len(frame_rows) == 1
    assert token_rows[0]["count"] == 4
    assert token_rows[0]["lo"] == token_rows[0]["hi"]
    assert len(histogram_csv(report, "token").splitlines()) == 2


def test_histograms_frame_override_and_validation():
    spec = StreamSpec(dim=8, frames=5, tokens_per_frame=4, noise_sigma=0.3, rng_seed=8)
    bank = ProbeBank.generated(8, n=3, seed=0)
    frames = generate_stream(spec)
    report = emit_score_histograms(frames, hist_config(4), bank, bins=4, frame_index=2)
    assert report.summary["designated_frame"] == 2
    with pytest.raises(ValidationError):
        emit_score_histograms(frames, hist_config(4), bank, frame_index=99)
    with pytest.raises(ValidationError):
        emit_score_histograms(frames, hist_config(4), bank, bins=0)
    with pytest.raises(EmptyInputError):
        emit_score_histograms([], hist_config(4), bank)
    with pytest.raises(UnknownVariant,
                       match=r"^level must be one of \('frame', 'token'\), got 'pooled'$"):
        histogram_csv(report, "pooled")
    with pytest.raises(ValidationError, match="got kind 'hist'"):
        sweep_csv(report)


def test_histogram_bins_are_bounded():
    bank = ProbeBank.generated(8, n=3, seed=0)
    # Past the bound, the count is refused before the trace is read.
    with pytest.raises(ValidationError, match=f"bins must be in \\[1, {MAX_HIST_BINS}\\]"):
        emit_score_histograms(unread(), hist_config(4), bank, bins=MAX_HIST_BINS + 1)
    # At the bound, each level of a tiny stream gets that many rows.
    spec = StreamSpec(dim=8, frames=3, tokens_per_frame=4, noise_sigma=0.3, rng_seed=8)
    report = emit_score_histograms(generate_stream(spec), hist_config(4), bank,
                                   bins=MAX_HIST_BINS)
    for level, count in (("frame", 3), ("token", 4)):
        rows = [r for r in report.rows if r["level"] == level]
        assert len(rows) == MAX_HIST_BINS and sum(r["count"] for r in rows) == count


# -- report plumbing --------------------------------------------------------


def test_report_json_is_canonical_and_writable(tmp_path):
    report = RunReport(
        kind="demo",
        config={"b": 2, "a": 1},
        seeds={"seed": 0},
        variant=None,
        inputs={},
        rows=({"x": 1.5},),
        summary={"ok": True},
        timings={"wall_seconds": 0.25},
    )
    text = report_json(report)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["config"] == {"a": 1, "b": 2}
    assert doc["timings"] == {"wall_seconds": 0.25}
    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text() == text
    assert json.loads(report_json(report, include_timings=False)).get("timings") is None


def test_report_json_of_a_config_built_from_numpy_scalars():
    # A np.float32 keep_fraction was stored as given, and report_json then
    # raised "Object of type float32 is not JSON serializable".
    frames = generate_stream(StreamSpec(dim=8, frames=6, tokens_per_frame=4, rng_seed=2))
    bank = ProbeBank.generated(8, n=3, seed=0)
    numpy_config = TierConfig(keep_fraction=np.float32(0.5), short_cap_frames=np.int64(2))
    plain_config = TierConfig(keep_fraction=0.5, short_cap_frames=2)
    text, plain = (report_json(run_ingest(frames, cfg, bank), include_timings=False)
                   for cfg in (numpy_config, plain_config))
    assert text == plain
    config = json.loads(text)["config"]
    assert type(config["keep_fraction"]) is float and type(config["short_cap_frames"]) is int


def _bench_inputs():
    frames = generate_stream(StreamSpec(dim=8, frames=6, tokens_per_frame=4, rng_seed=2))
    return frames, ProbeBank.generated(8, n=3, seed=0)


@pytest.mark.parametrize(
    "run, field",
    [(lambda frames, bank: run_growth_sweep([2.5, 4], hist_config(4), bank), "sweep length"),
     (lambda frames, bank: run_growth_sweep([2, 4], hist_config(4), bank, tokens_per_frame=2.5),
      "tokens_per_frame"),
     (lambda frames, bank: run_growth_sweep([2, 4], hist_config(4), bank, seed=1.5), "seed"),
     (lambda frames, bank: emit_score_histograms(frames, hist_config(4), bank, frame_index=3.7),
      "frame_index"),
     (lambda frames, bank: emit_score_histograms(frames, hist_config(4), bank, bins=2.5), "bins"),
     (lambda frames, bank: run_oracle(frames, [query([axis(8, 0)], 5)], exclude_most_recent=1.5),
      "exclude_most_recent"),
     (lambda frames, bank: run_oracle(frames, [query([axis(8, 0)], 5)], exclude_most_recent=-3),
      "exclude_most_recent must be >= 0"),
     (lambda frames, bank: resolve_prior_bank(bank, "random", seed=1.5), "seed"),
     (lambda frames, bank: run_ingest(unread(), hist_config(4), bank, seed=1.5), "seed"),
     (lambda frames, bank: run_oracle(unread(), [query([axis(8, 0)], 5)], seed=1.5), "seed"),
     (lambda frames, bank: emit_score_histograms(unread(), hist_config(4), bank, seed=1.5),
      "seed"),
     (lambda frames, bank: run_query_replay(unread(), [], hist_config(4), bank, seed=1.5), "seed"),
     (lambda frames, bank: run_query_replay(unread(), [], hist_config(4), bank, "prior=single",
                                            seed=1.5), "seed")],
)
def test_driver_numbers_must_be_integers(run, field):
    # Each was truncated by int() or ended in a bare TypeError; a negative
    # exclude_most_recent was taken as 0. A seed is refused before the
    # trace is read.
    with pytest.raises(ValidationError, match=field):
        run(*_bench_inputs())


# --- rank correlation ---------------------------------------------------------


def test_rank_correlation_hand_tie_cases():
    # Engine ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): deviations
    # (-1.5, 0, 0, 1.5) and (-1.5, -0.5, 0.5, 1.5) give 4.5 / sqrt(4.5 * 5).
    engine = {1: 0.1, 2: 0.2, 3: 0.2, 4: 0.4}
    oracle = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 9: 0.0}  # frame 9 is not shared
    assert math.isclose(_rank_correlation(engine, oracle), math.sqrt(0.9), abs_tol=1e-15)
    # Ties on both sides: ranks (1.5, 1.5, 3.5, 3.5) against (4, 2.5, 2.5, 1),
    # deviations (-1, -1, 1, 1) and (1.5, 0, 0, -1.5): -3 / sqrt(4 * 4.5).
    engine = {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0}
    oracle = {1: 9.0, 2: 5.0, 3: 5.0, 4: 1.0}
    assert math.isclose(_rank_correlation(engine, oracle), -3.0 / math.sqrt(18.0), abs_tol=1e-15)
    # Monotone with ties in the same places is exactly 1.
    assert _rank_correlation({1: 0.5, 2: 0.5, 3: 0.7}, {1: 2.0, 2: 2.0, 3: 8.0}) == 1.0
    # Constant sides and fewer than two shared frames have no correlation.
    assert _rank_correlation({1: 0.3, 2: 0.3}, {1: 1.0, 2: 2.0}) is None
    assert _rank_correlation({1: 0.3}, {1: 1.0}) is None


def test_rank_correlation_matches_spearman_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(2, 30))
        xs = rng.integers(0, int(rng.integers(2, 6)), n) * 0.25
        ys = rng.standard_normal(n) if trial % 2 else rng.integers(0, 4, n) * 1.0
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        got = _rank_correlation(dict(enumerate(xs)), dict(enumerate(ys)))
        assert got == float(stats.spearmanr(xs, ys).statistic)


def test_import_loads_no_third_party_module_but_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys; before = set(sys.modules); import tiermem; "
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(tops - set(sys.stdlib_module_names) - {'tiermem', 'numpy'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

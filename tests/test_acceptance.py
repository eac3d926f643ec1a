"""Acceptance suite.

Nine end-to-end criteria covering the budget invariant, oracle
equivalence, growth behavior, planted-signal retrieval, gate and prior
ablation directionality, determinism, the wire format, and throughput.
Each test prints exactly one pass/fail line (routed past pytest's
capture so the verdicts always appear in the run log).
"""

import json
import struct
import sys
import time

import numpy as np
import pytest

from tiermem.bench import (
    VariantFlags,
    resolve_prior_bank,
    run_growth_sweep,
    run_oracle,
    run_query_replay,
)
from tiermem.cli import main
from tiermem.retrieval import QuerySpec, rank_top_k, score_candidates
from tiermem.synth import StreamSpec, event_block, event_direction, generate_stream, grid_side, query_for_event
from tiermem.tiers import TierConfig, new_memory
from tiermem.traceio import load_trace, read_trace, write_trace
from tiermem.vecspace import ProbeBank


# pytest's default fd-level capture swallows writes to sys.__stdout__, so
# verdict lines go through the terminal reporter, which owns the real tty.
_REPORTER = None


@pytest.fixture(autouse=True)
def _grab_terminal_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {verdict} ({detail})"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{criterion}: {detail}"


def ingest_stream(spec: StreamSpec, config: TierConfig, bank: ProbeBank):
    mem = new_memory(config, bank)
    for frame in generate_stream(spec):
        mem.ingest_frame(frame.timestamp, frame.ingest_tokens())
    return mem


def aligned_bank(directions, dim, seed=0):
    """Probe bank holding the given unit directions plus generated filler."""
    filler = ProbeBank.generated(dim, n=4, seed=seed)
    return ProbeBank(np.vstack([np.asarray(directions).reshape(-1, dim), filler.matrix]))


# -- 1: budget invariant under fuzz ------------------------------------------


def random_config(rng) -> TierConfig:
    short = int(rng.integers(1, 5))
    tpm = int(rng.integers(1, 13))
    budget = short * tpm + int(rng.integers(0, 201))
    return TierConfig(
        short_cap_frames=short,
        mid_cap_frames=int(rng.integers(1, 7)),
        token_budget=budget,
        keep_fraction=float(rng.uniform(0.05, 1.0)),
        semantic_weight=float(rng.uniform(0.0, 2.0)),
        scene_threshold=float(rng.uniform(-0.9, 0.95)),
        grid_size=int(rng.integers(1, 6)),
        long_quota_per_frame=int(rng.integers(1, tpm + 1)),
        tokens_per_frame_max=tpm,
    )


def test_c1_budget_invariant_fuzz():
    configs = 20
    frames_per_config = 500
    started = time.perf_counter()
    violations = 0
    ingests = 0
    for c in range(configs):
        rng = np.random.default_rng(1000 + c)
        config = random_config(rng)
        dim = int(rng.integers(4, 33))
        mem = new_memory(config, ProbeBank.generated(dim, n=4, seed=c))
        ts = 0.0
        for _ in range(frames_per_config):
            ts += float(rng.uniform(0.01, 1.5))
            count = int(rng.integers(1, config.tokens_per_frame_max + 1))
            vectors = rng.standard_normal((count, dim))
            if rng.uniform() < 0.02:
                vectors[0] = 0.0  # zero-vector tokens must not break anything
            report = mem.ingest_frame(
                ts, [(vectors[i], i, 0) for i in range(count)]
            )
            ingests += 1
            if report.total_tokens > config.token_budget:
                violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and ingests == 10000 and elapsed < 60.0
    _report(
        "C1 budget-invariant-fuzz",
        ok,
        f"{violations} violations over {ingests} ingests, {configs} configs, {elapsed:.1f}s",
    )


# -- 2: oracle equivalence with compression disabled --------------------------


def test_c2_oracle_equivalence():
    matches = 0
    total = 100
    for i in range(total):
        rng = np.random.default_rng(2000 + i)
        dim = int(rng.choice([8, 16]))
        n_frames = int(rng.integers(6, 21))
        tpf = int(rng.integers(2, 7))
        spec = StreamSpec(
            dim=dim, frames=n_frames, tokens_per_frame=tpf, noise_sigma=0.4, rng_seed=i
        )
        frames = generate_stream(spec)
        config = TierConfig(
            short_cap_frames=2,
            mid_cap_frames=n_frames + 2,
            token_budget=2 * n_frames * tpf + 64,
            keep_fraction=1.0,
            long_quota_per_frame=tpf,
            tokens_per_frame_max=tpf,
        )
        mem = new_memory(config, ProbeBank.generated(dim, n=5, seed=i))
        for f in frames:
            mem.ingest_frame(f.timestamp, f.ingest_tokens())
        snap = mem.freeze()
        k = int(rng.integers(1, 5))
        query = QuerySpec(
            query_id=f"c2-{i}",
            arrival_time=float(n_frames - 1),
            tokens=rng.standard_normal((int(rng.integers(1, 4)), dim)),
            top_k=k,
        )
        engine = set(rank_top_k(score_candidates(snap, query), k))
        oracle = run_oracle(frames, [query], exclude_most_recent=len(snap.short))
        if engine == set(oracle.rows[0]["top_k"]):
            matches += 1
    _report("C2 oracle-equivalence", matches == total, f"{matches}/{total} exact top-K set matches")


# -- 3: sub-linear growth ------------------------------------------------------


def test_c3_growth_sweep():
    lengths = [8, 16, 32, 64, 128]
    config = TierConfig()  # B=2048, 512 tokens/frame
    bank = ProbeBank.generated(32, n=5, seed=0)
    report = run_growth_sweep(lengths, config, bank, seed=0, tokens_per_frame=512)
    finals = {row["length"]: row["final_tokens"] for row in report.rows}
    peaks = {row["length"]: row["peak_tokens"] for row in report.rows}
    under_budget = all(f <= config.token_budget for f in finals.values())
    ratio = finals[128] / finals[8]
    peak_gap_ok = all(peaks[n] - finals[n] <= config.tokens_per_frame_max for n in finals)
    ok = under_budget and ratio <= 3.0 and peak_gap_ok
    _report(
        "C3 growth-sweep",
        ok,
        f"finals<=B={under_budget}, ratio(128/8)={ratio:.2f}, peak-final<=512={peak_gap_ok}",
    )


# -- 4: planted-signal retrieval ----------------------------------------------


def c4_spec(sigma, seed):
    return StreamSpec(
        dim=32,
        frames=128,
        tokens_per_frame=16,
        events=((30, 77, 1.0),),
        noise_sigma=sigma,
        rng_seed=seed,
    )


def c4_config():
    # Budget must exceed the worst-case short+mid footprint (64 + 16*16 = 320,
    # when noise marks every mid frame a boundary), or the long tier drains.
    return TierConfig(
        short_cap_frames=4,
        mid_cap_frames=16,
        token_budget=512,
        long_quota_per_frame=4,
        tokens_per_frame_max=16,
    )


def test_c4_planted_signal():
    spec = c4_spec(sigma=0.0, seed=0)
    bank = aligned_bank(event_direction(spec, 0), spec.dim)
    q = query_for_event(spec, 0, jitter=0.0, rho=2.0, top_k=5)
    clean = run_query_replay(generate_stream(spec), [q], c4_config(), bank)
    clean_recall = clean.rows[0]["recall"]

    trials = 50
    recalls = []
    for s in range(trials):
        spec = c4_spec(sigma=0.3, seed=s)
        bank = aligned_bank(event_direction(spec, 0), spec.dim)
        q = query_for_event(spec, 0, jitter=0.0, rho=2.0, top_k=5)
        result = run_query_replay(generate_stream(spec), [q], c4_config(), bank)
        recalls.append(result.rows[0]["recall"])
    mean_recall = sum(recalls) / len(recalls)
    baseline = 5 / 128  # expected recall of a uniform-random 5-frame pick
    margin = mean_recall - baseline
    ok = clean_recall == 1.0 and margin >= 0.3
    _report(
        "C4 planted-signal",
        ok,
        f"clean recall={clean_recall}, noisy mean recall={mean_recall:.3f} vs "
        f"baseline {baseline:.3f} (margin {margin:.3f} >= 0.3)",
    )


# -- 5: gate directionality -----------------------------------------------------


def test_c5_gate_directionality():
    trials = 50
    combined = {"ema": [], "always": [], "never": []}
    distant_recalls = {"ema": [], "always": [], "never": []}
    for s in range(trials):
        spec = StreamSpec(
            dim=32,
            frames=40,
            tokens_per_frame=16,
            events=((8, 100 + s, 1.0), (38, 200 + s, 1.0)),
            noise_sigma=0.2,
            rng_seed=s,
        )
        bank = aligned_bank(
            [event_direction(spec, 0), event_direction(spec, 1)], spec.dim, seed=s
        )
        config = TierConfig(
            short_cap_frames=4,
            mid_cap_frames=8,
            token_budget=512,
            long_quota_per_frame=4,
            tokens_per_frame_max=16,
        )
        queries = [
            query_for_event(spec, 0, jitter=0.0, rho=2.0, query_id="distant"),
            query_for_event(spec, 1, jitter=0.0, rho=0.1, query_id="recent"),
        ]
        frames = generate_stream(spec)
        for gate in combined:
            report = run_query_replay(frames, queries, config, bank, VariantFlags(gate=gate))
            for row in report.rows:
                combined[gate].append(row["recall"])
                if row["query_id"] == "distant":
                    distant_recalls[gate].append(row["recall"])
    mean = {g: sum(v) / len(v) for g, v in combined.items()}
    distant = {g: sum(v) / len(v) for g, v in distant_recalls.items()}
    ok = (
        mean["ema"] >= mean["always"]
        and mean["ema"] >= mean["never"]
        and distant["always"] < distant["ema"]
    )
    _report(
        "C5 gate-directionality",
        ok,
        f"combined ema={mean['ema']:.3f} always={mean['always']:.3f} "
        f"never={mean['never']:.3f}; distant ema={distant['ema']:.3f} "
        f"always={distant['always']:.3f} (strict)",
    )


# -- 6: prior ablation ----------------------------------------------------------


def test_c6_prior_ablation():
    trials = 20
    event_frame = 10
    kept = {"bank": 0, "random": 0}
    for s in range(trials):
        spec = StreamSpec(
            dim=32,
            frames=60,
            tokens_per_frame=16,
            events=((event_frame, 300 + s, 1.0),),
            noise_sigma=0.05,
            rng_seed=s,
        )
        side = grid_side(spec.tokens_per_frame)
        blocks = {(j // side, j % side) for j in event_block(spec)}
        config = TierConfig(
            short_cap_frames=4,
            mid_cap_frames=8,
            token_budget=512,
            long_quota_per_frame=4,
            tokens_per_frame_max=16,
        )
        aligned = aligned_bank(event_direction(spec, 0), spec.dim, seed=s)
        for prior in kept:
            mem = ingest_stream(spec, config, resolve_prior_bank(aligned, prior, seed=s))
            for entry in mem.long:
                if entry.frame_index == event_frame:
                    kept[prior] += sum(
                        1
                        for cell in zip(entry.rows.tolist(), entry.cols.tolist())
                        if cell in blocks
                    )
    ok = kept["bank"] >= 2 * kept["random"] and kept["bank"] > 0
    _report(
        "C6 prior-ablation",
        ok,
        f"long-tier event-block tokens over {trials} seeds: aligned={kept['bank']}, "
        f"random={kept['random']} (need >= 2x)",
    )


# -- 7: CLI determinism ----------------------------------------------------------


def test_c7_cli_determinism(tmp_path):
    spec_doc = {
        "dim": 16,
        "frames": 24,
        "tokens_per_frame": 6,
        "events": [[7, 1, 0.9]],
        "noise_sigma": 0.2,
        "rng_seed": 5,
    }
    spec_path = tmp_path / "stream.json"
    spec_path.write_text(json.dumps(spec_doc))
    direction = [0.0] * 16
    direction[2] = 1.0
    queries_path = tmp_path / "queries.jsonl"
    queries_path.write_text(
        json.dumps({"id": "q0", "arrival_time": 23.0, "tokens": [direction], "rho": 2.0}) + "\n"
    )
    reports = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        code = main(
            [
                "replay",
                "--synth-spec", str(spec_path),
                "--queries", str(queries_path),
                "--report", str(path),
                "--compare-oracle",
                "--seed", "9",
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        doc.pop("timings")
        reports.append(json.dumps(doc, sort_keys=True))
    ok = reports[0] == reports[1]
    _report("C7 cli-determinism", ok, "two identical invocations, byte-equal minus timings")


# -- 8: wire format ----------------------------------------------------------------


def test_c8_trace_format(tmp_path):
    # Layout arithmetic, built independently with struct.
    empty = struct.pack("<4sII", b"SVMT", 1, 3) + struct.pack("<Q", 0)
    assert len(empty) == 20
    tokenless = empty[:12] + struct.pack("<Q", 1) + struct.pack("<QdI", 0, 0.0, 0)
    assert len(tokenless) == 40
    golden = (
        struct.pack("<4sII", b"SVMT", 1, 2)
        + struct.pack("<Q", 1)
        + struct.pack("<QdI", 3, 1.5, 1)
        + struct.pack("<HH", 1, 2)
        + np.array([0.25, -2.0], dtype="<f4").tobytes()
    )
    assert len(golden) == 52

    golden_path = tmp_path / "golden.trace"
    golden_path.write_bytes(golden)
    frames = load_trace(golden_path)
    rewritten = tmp_path / "rewritten.trace"
    write_trace(rewritten, frames, dim=2)
    byte_identical = rewritten.read_bytes() == golden

    spec = StreamSpec(dim=8, frames=128, tokens_per_frame=4, noise_sigma=0.3, rng_seed=1)
    first = tmp_path / "first.trace"
    second = tmp_path / "second.trace"
    write_trace(first, generate_stream(spec), dim=8)
    write_trace(second, read_trace(str(first)), dim=8)
    round_trip = first.read_bytes() == second.read_bytes()

    sizes_ok = len(empty) == 20 and len(tokenless) == 40 and len(golden) == 52
    ok = byte_identical and round_trip and sizes_ok
    _report(
        "C8 trace-format",
        ok,
        f"golden round-trip={byte_identical}, 128-frame round-trip={round_trip}, "
        f"byte counts 20/40/52 verified={sizes_ok}",
    )


# -- 9: throughput -------------------------------------------------------------------


def test_c9_throughput():
    spec = StreamSpec(dim=128, frames=128, tokens_per_frame=512, noise_sigma=0.25, rng_seed=0)
    frames = generate_stream(spec)  # generation is not part of the timed pipeline
    bank = ProbeBank.generated(128, n=5, seed=0)
    rng = np.random.default_rng(1)
    queries = [
        QuerySpec(
            query_id=f"q{i}",
            arrival_time=127.0,
            tokens=rng.standard_normal((2, 128)),
            rho=1000.0,  # keep the gate closed so every query pays for retrieval
            top_k=5,
        )
        for i in range(10)
    ]
    started = time.perf_counter()
    report = run_query_replay(frames, queries, TierConfig(), bank)
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0 and report.summary["queries"] == 10
    _report(
        "C9 throughput",
        ok,
        f"128 frames x 512 tokens x d=128 ingest + 10 queries in {elapsed:.2f}s (< 10s)",
    )

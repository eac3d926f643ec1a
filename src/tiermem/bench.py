"""Benchmark drivers: ingest runs, query replay, a brute-force oracle,
growth sweeps, and score histograms.

Every driver returns a RunReport, built by `_report`, whose JSON form is
canonical: two runs over the same inputs serialize byte-identically once
the "timings" block is excluded. Reports embed the resolved config and seeds so a run can be
re-executed from its report alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyInputError, UnknownVariant, ValidationError, checked_choice, checked_int
from .retrieval import (
    GATE_MODES,
    GATE_POOLINGS,
    NO_SCORES,
    QuerySpec,
    RetrievalResult,
    retrieve,
)
from .synth import StreamSpec, generate_stream
from .tiers import (
    IngestReport,
    MemorySnapshot,
    TierConfig,
    TieredMemory,
    encode_tokens,
    new_memory,
)
from .traceio import RawFrame
from .vecspace import ProbeBank

PRIOR_VARIANTS = ("bank", "random", "single")
STAGE_VARIANTS = ("full", "s1", "s2")
HIST_LEVELS = ("frame", "token")

# The most bins a score histogram may have: np.histogram allocates by the
# bin count, and the report holds one row per bin at each of two levels.
MAX_HIST_BINS = 1024

# Seed salt for the random-vectors prior so it never coincides with a
# probe bank generated from the same user seed.
_RANDOM_PRIOR_SALT = 0x5EED


@dataclass(frozen=True)
class VariantFlags:
    """Ablation switches for replay runs.

    gate picks the recency-gate policy, prior picks the salience prior
    used during ingest, stage disables one of the two pipeline stages.
    """

    gate: str = "ema"
    prior: str = "bank"
    stage: str = "full"

    def __post_init__(self):
        checked_choice(self.gate, GATE_MODES, "gate")
        checked_choice(self.prior, PRIOR_VARIANTS, "prior")
        checked_choice(self.stage, STAGE_VARIANTS, "stage")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_variant(text: str | None) -> VariantFlags:
    """Parse "gate=ema,prior=bank,stage=full"; missing keys keep defaults."""
    flags = dataclasses.asdict(VariantFlags())
    if text:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise UnknownVariant(f"variant flag {part!r} is not key=value")
            key = key.strip()
            if key not in flags:
                raise UnknownVariant(f"unknown variant key {key!r}")
            flags[key] = value.strip()
    return VariantFlags(**flags)


def resolve_prior_bank(bank: ProbeBank, prior: str, seed: int = 0) -> ProbeBank:
    """Materialize the salience prior a variant asks for.

    "bank" uses the given bank unchanged, "random" replaces it with
    seeded random directions of the same shape, "single" keeps only the
    first probe.
    """
    if checked_choice(prior, PRIOR_VARIANTS, "prior") == "bank":
        return bank
    if prior == "random":
        seed = checked_int(seed, "seed") + _RANDOM_PRIOR_SALT
        return ProbeBank.generated(bank.dim, n=len(bank), seed=seed)
    return ProbeBank(bank.matrix[:1], labels=bank.labels[:1])


def probe_digest(bank: ProbeBank) -> str:
    """Stable fingerprint of a probe bank (vectors and labels)."""
    h = hashlib.sha256()
    h.update(bank.matrix.tobytes())
    h.update("\x00".join(bank.labels).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class RunReport:
    """Machine-readable result of one benchmark driver run.

    rows carry per-frame or per-query records, summary the aggregate
    view. Only timings may differ between two runs on equal inputs.
    """

    kind: str
    config: dict
    seeds: dict
    variant: dict | None
    inputs: dict
    rows: tuple
    summary: dict
    timings: dict = field(default_factory=dict)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        doc["rows"] = list(self.rows)
        if not include_timings:
            del doc["timings"]
        return doc


def report_json(report: RunReport, include_timings: bool = True) -> str:
    """Canonical JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(report.to_json_dict(include_timings), sort_keys=True, indent=2) + "\n"


def write_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


def _report(kind: str, started: float, seed: int, rows, summary: dict, inputs: dict, *,
            bank: ProbeBank | None = None, config: TierConfig | None = None,
            variant: VariantFlags | None = None) -> RunReport:
    """The report of one driver run that began at perf_counter `started`,
    with a checked `seed`. A bank's fingerprint leads the inputs."""
    if bank is not None:
        inputs = {"probe_digest": probe_digest(bank), "probe_dim": bank.dim,
                  "probe_count": len(bank), **inputs}
    return RunReport(
        kind=kind,
        config=config.to_json_dict() if config is not None else {},
        seeds={"seed": seed},
        variant=variant.to_json_dict() if variant is not None else None,
        inputs=inputs,
        rows=tuple(rows),
        summary=summary,
        timings={"wall_seconds": time.perf_counter() - started},
    )


def _ingest_all(
    frames: Sequence[RawFrame], config: TierConfig, bank: ProbeBank
) -> tuple[TieredMemory, list[IngestReport], int]:
    """Feed a whole trace into a fresh memory; returns peak occupancy too."""
    mem = new_memory(config, bank)
    reports: list[IngestReport] = []
    peak = 0
    for frame in frames:
        report = mem.ingest_frame(frame.timestamp, frame, frame_index=frame.frame_index)
        reports.append(report)
        if report.total_tokens > peak:
            peak = report.total_tokens
    return mem, reports, peak


def run_ingest(
    trace: Iterable[RawFrame],
    config: TierConfig,
    bank: ProbeBank,
    *,
    seed: int = 0,
    variant: VariantFlags | None = None,
    inputs: dict | None = None,
) -> RunReport:
    """Ingest a full trace and record the per-frame occupancy trajectory."""
    seed = checked_int(seed, "seed")
    frames = list(trace)
    started = time.perf_counter()
    mem, reports, peak = _ingest_all(frames, config, bank)
    summary = {
        "frames": len(reports),
        "final_total_tokens": mem.total_tokens,
        "peak_total_tokens": peak,
        "final_short_frames": len(mem.short),
        "final_mid_frames": len(mem.mid),
        "final_long_frames": len(mem.long),
        **{f"final_{tier}_tokens": count for tier, count in mem.tier_tokens.items()},
        "dropped_temporal": sum(r.dropped_temporal for r in reports),
        "dropped_spatial": sum(r.dropped_spatial for r in reports),
        "dropped_budget": sum(r.dropped_budget for r in reports),
        "scene_boundaries": sum(1 for r in reports if r.scene_boundary),
        "state_digest": mem.state_digest(),
    }
    return _report("ingest", started, seed, [r.to_json_dict() for r in reports], summary,
                   {"frames": len(frames), **(inputs or {})},
                   bank=bank, config=config, variant=variant)


# --------------------------------------------------------------------------
# Brute-force oracle. Deliberately pure Python over plain lists: it shares
# no scoring or ranking code with the engine so it can cross-check it.


def _pure_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    if na <= 0.0 or nb <= 0.0:
        return 0.0
    value = dot / math.sqrt(na * nb)
    return max(-1.0, min(1.0, value))


def _pure_frame_score(tokens: Sequence[Sequence[float]], query: Sequence[Sequence[float]]) -> float:
    total = 0.0
    for tok in tokens:
        best = -1.0
        for q in query:
            c = _pure_cosine(tok, q)
            if c > best:
                best = c
        total += best
    return total / len(tokens)


def _oracle_rank(scores: Mapping[int, float], k: int) -> list[int]:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], -kv[0]))
    return [frame for frame, _ in ordered[:k]]


def oracle_scores(
    frames: Sequence[RawFrame],
    query_tokens: Sequence[Sequence[float]],
    arrival_time: float,
    exclude_most_recent: int = 0,
) -> dict[int, float]:
    """Score every frame visible at arrival_time, optionally dropping the
    newest few (to mirror an engine whose recent frames are not retrieval
    candidates)."""
    visible = [f for f in frames if f.timestamp <= arrival_time]
    if exclude_most_recent > 0:
        visible = visible[: max(0, len(visible) - exclude_most_recent)]
    out: dict[int, float] = {}
    for f in visible:
        if len(f):
            out[f.frame_index] = _pure_frame_score(f.vectors.tolist(), query_tokens)
    return out


def run_oracle(
    trace: Iterable[RawFrame],
    queries: Sequence[QuerySpec],
    *,
    exclude_most_recent: int = 0,
    seed: int = 0,
    inputs: dict | None = None,
) -> RunReport:
    """Exact top-K per query over the uncompressed trace."""
    exclude_most_recent = checked_int(exclude_most_recent, "exclude_most_recent")
    if exclude_most_recent < 0:
        raise ValidationError(f"exclude_most_recent must be >= 0, got {exclude_most_recent}")
    seed = checked_int(seed, "seed")
    frames = list(trace)
    started = time.perf_counter()
    rows = []
    for q in queries:
        scores = oracle_scores(frames, q.tokens.tolist(), q.arrival_time, exclude_most_recent)
        rows.append(
            {
                "query_id": q.query_id,
                "arrival_time": q.arrival_time,
                "candidates": len(scores),
                "top_k": _oracle_rank(scores, q.top_k),
                "scores": [[frame, scores[frame]] for frame in sorted(scores)],
            }
        )
    return _report("oracle", started, seed, rows,
                   {"queries": len(queries), "exclude_most_recent": exclude_most_recent},
                   {"frames": len(frames), "queries": len(queries), **(inputs or {})})


# --------------------------------------------------------------------------
# Query replay.


def _keep_everything(config: TierConfig, frames: Sequence[RawFrame]) -> TierConfig:
    """stage=s2: config with its caps and budget above the stream and
    keep_fraction 1, so no frame is pruned, selected away or forgotten."""
    longest = max([1, *map(len, frames)])
    return dataclasses.replace(
        config,
        keep_fraction=1.0,
        mid_cap_frames=max(1, len(frames)),
        tokens_per_frame_max=longest,
        token_budget=max(sum(map(len, frames)), config.short_cap_frames * longest),
    )


def _stage1_result(snapshot: MemorySnapshot) -> RetrievalResult:
    """stage=s1: no retrieval pass; the whole compressed memory is forwarded,
    its mid and long frames read from the snapshot's table views without an entry."""
    return RetrievalResult(
        gated_short_only=False,
        anchor_frames=tuple(e.frame_index for e in snapshot.short),
        retrieved_frames=tuple(sorted(
            np.concatenate([ints[0] for ints, _ in snapshot.tables]).tolist())),
        frame_scores=NO_SCORES,
        gate_affinity=0.0,
        gate_threshold=0.0,
    )


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of the ranks they span."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(arr)]
    ranks = np.empty(len(arr))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_correlation(engine: Mapping[int, float], oracle: Mapping[int, float]) -> float | None:
    """Spearman's rho: the Pearson correlation of average ranks."""
    shared = sorted(set(engine) & set(oracle))
    if len(shared) < 2:
        return None
    xs = [engine[f] for f in shared]
    ys = [oracle[f] for f in shared]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return None
    ranks = np.column_stack([_average_ranks(xs), _average_ranks(ys)])
    rho = np.corrcoef(ranks, rowvar=False)[1, 0]
    if math.isnan(rho):
        return None
    return float(rho)


def run_query_replay(
    trace: Iterable[RawFrame],
    queries: Sequence[QuerySpec],
    config: TierConfig,
    bank: ProbeBank,
    variant: VariantFlags | str | None = None,
    *,
    gate_pooling: str = "mean",
    compare_oracle: bool = False,
    seed: int = 0,
    inputs: dict | None = None,
) -> RunReport:
    """Pseudo-streaming replay: for each query, ingest exactly the frames
    whose timestamp is at or before its arrival, freeze at the arrival
    time, answer, thaw, continue.

    Queries are replayed in arrival order regardless of input order.
    stage=s2 replays on a memory that keeps every frame verbatim, and it
    enforces the same stream contracts as stage=full.
    """
    if isinstance(variant, str) or variant is None:
        variant = parse_variant(variant)
    checked_choice(gate_pooling, GATE_POOLINGS, "gate pooling")
    seed = checked_int(seed, "seed")
    prior = resolve_prior_bank(bank, variant.prior, seed)
    frames = list(trace)
    timestamps = {f.frame_index: f.timestamp for f in frames}

    order = sorted(range(len(queries)), key=lambda i: (queries[i].arrival_time, i))
    mem = new_memory(_keep_everything(config, frames) if variant.stage == "s2" else config, prior)

    started = time.perf_counter()
    cursor = 0
    rows = []
    for i in order:
        q = queries[i]
        while cursor < len(frames) and frames[cursor].timestamp <= q.arrival_time:
            frame = frames[cursor]
            mem.ingest_frame(frame.timestamp, frame, frame_index=frame.frame_index)
            cursor += 1

        snapshot = mem.freeze(at=q.arrival_time)
        if variant.stage == "s1":
            result = _stage1_result(snapshot)
        else:
            result = retrieve(snapshot, mem.gate_stats, q, gate_mode=variant.gate, gate_pooling=gate_pooling)
        mem.thaw()

        selected = result.selected_frames()
        row = {
            "query_id": q.query_id,
            "arrival_time": q.arrival_time,
            "rho": q.rho,
            "top_k": q.top_k,
            "dispersion_lambda": q.dispersion_lambda,
            "frames_ingested": cursor,
            "freeze_timestamp": snapshot.freeze_timestamp,
            "result": result.to_json_dict(),
            "selected_frames": [int(f) for f in selected],
            "max_selected_timestamp": (
                max(timestamps[f] for f in selected) if selected else None
            ),
            "recall": (
                len(set(selected) & q.ground_truth_frames) / len(q.ground_truth_frames)
                if q.ground_truth_frames
                else None
            ),
        }
        if compare_oracle:
            oracle = oracle_scores(frames, q.tokens.tolist(), q.arrival_time)
            oracle_top = _oracle_rank(oracle, q.top_k)
            row["oracle_top_k"] = oracle_top
            row["oracle_overlap"] = (
                len(set(selected) & set(oracle_top)) / len(oracle_top) if oracle_top else None
            )
            row["rank_correlation"] = _rank_correlation(result.frame_scores, oracle)
        rows.append(row)

    recalls = [r["recall"] for r in rows if r["recall"] is not None]
    summary = {
        "queries": len(rows),
        "frames": len(frames),
        "gated_fraction": (
            sum(1 for r in rows if r["result"]["gated_short_only"]) / len(rows) if rows else None
        ),
        "mean_recall": (sum(recalls) / len(recalls)) if recalls else None,
    }
    if compare_oracle:
        overlaps = [r["oracle_overlap"] for r in rows if r.get("oracle_overlap") is not None]
        corrs = [r["rank_correlation"] for r in rows if r.get("rank_correlation") is not None]
        summary["mean_oracle_overlap"] = (sum(overlaps) / len(overlaps)) if overlaps else None
        summary["mean_rank_correlation"] = (sum(corrs) / len(corrs)) if corrs else None
    inputs = {"frames": len(frames), "queries": len(queries), "gate_pooling": gate_pooling,
              "compare_oracle": bool(compare_oracle), **(inputs or {})}
    return _report("replay", started, seed, rows, summary, inputs,
                   bank=bank, config=config, variant=variant)


# --------------------------------------------------------------------------
# Growth sweep and score histograms.


def run_growth_sweep(
    lengths: Sequence[int],
    config: TierConfig,
    bank: ProbeBank,
    seed: int = 0,
    *,
    tokens_per_frame: int | None = None,
    noise_sigma: float = 0.25,
    inputs: dict | None = None,
) -> RunReport:
    """One synthetic ingest run per stream length; reports final and peak
    token occupancy for each."""
    seed = checked_int(seed, "seed")
    lengths = [checked_int(x, "sweep length") for x in lengths]
    if not lengths:
        raise EmptyInputError("growth sweep needs at least one length")
    if any(x < 1 for x in lengths):
        raise ValidationError("sweep lengths must be positive")
    if lengths != sorted(lengths):
        raise ValidationError("sweep lengths must be ascending")
    tpf = (config.tokens_per_frame_max if tokens_per_frame is None
           else checked_int(tokens_per_frame, "tokens_per_frame"))

    started = time.perf_counter()
    rows = []
    for length in lengths:
        spec = StreamSpec(
            dim=bank.dim,
            frames=length,
            tokens_per_frame=tpf,
            noise_sigma=noise_sigma,
            rng_seed=seed,
        )
        mem, _, peak = _ingest_all(generate_stream(spec), config, bank)
        rows.append({"length": length, "final_tokens": mem.total_tokens, "peak_tokens": peak})

    finals = [r["final_tokens"] for r in rows]
    summary = {
        "budget": config.token_budget,
        "lengths": lengths,
        "tokens_per_frame": tpf,
        "noise_sigma": noise_sigma,
        "max_final_tokens": max(finals),
        "final_ratio": (finals[-1] / finals[0]) if finals[0] else None,
    }
    return _report("sweep", started, seed, rows, summary, inputs or {}, bank=bank, config=config)


def sweep_csv(report: RunReport) -> str:
    if report.kind != "sweep":
        raise ValidationError(f"sweep_csv takes a sweep report, got kind {report.kind!r}")
    lines = ["length,final_tokens,peak_tokens"]
    for row in report.rows:
        lines.append(f"{row['length']},{row['final_tokens']},{row['peak_tokens']}")
    return "\n".join(lines) + "\n"


def _bin_values(values: Sequence[float], bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins over [min, max]; a zero-width range collapses to
    one bin holding everything."""
    lo = min(values)
    hi = max(values)
    if hi - lo <= 0.0:
        return [(float(lo), float(hi), len(values))]
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def emit_score_histograms(
    trace: Iterable[RawFrame],
    config: TierConfig,
    bank: ProbeBank,
    *,
    bins: int = 20,
    frame_index: int | None = None,
    seed: int = 0,
    inputs: dict | None = None,
) -> RunReport:
    """Distributions of the salience prior: pooled per-frame scores over
    the whole stream, and per-token scores within one designated frame
    (default: the frame with the highest pooled score)."""
    bins = checked_int(bins, "bins")
    if not 1 <= bins <= MAX_HIST_BINS:
        raise ValidationError(f"bins must be in [1, {MAX_HIST_BINS}], got {bins}")
    seed = checked_int(seed, "seed")
    frames = list(trace)
    if not frames:
        raise EmptyInputError("histograms need at least one frame")

    started = time.perf_counter()
    _, reports, _ = _ingest_all(frames, config, bank)
    pooled = [r.pooled_score for r in reports]

    if frame_index is None:
        best = max(range(len(pooled)), key=lambda i: (pooled[i], -i))
        designated = reports[best].frame_index
    else:
        designated = checked_int(frame_index, "frame_index")
        if designated not in {f.frame_index for f in frames}:
            raise ValidationError(f"frame {designated} is not in the trace")
    raw = next(f for f in frames if f.frame_index == designated)
    token_scores = encode_tokens(designated, raw.timestamp, raw, bank).scores.tolist()

    frame_bins = _bin_values(pooled, bins)
    token_bins = _bin_values(token_scores, bins)

    rows = [
        {"level": level, "lo": lo, "hi": hi, "count": count}
        for level, bins_ in zip(HIST_LEVELS, (frame_bins, token_bins))
        for lo, hi, count in bins_
    ]
    summary = {
        "bins": bins,
        "designated_frame": designated,
        "frame_count": len(pooled),
        "token_count": len(token_scores),
        "frame_mean": float(statistics.fmean(pooled)),
        "frame_median": float(statistics.median(pooled)),
        "token_mean": float(statistics.fmean(token_scores)),
        "token_median": float(statistics.median(token_scores)),
    }
    summary["frame_right_skewed"] = summary["frame_mean"] > summary["frame_median"]
    summary["token_right_skewed"] = summary["token_mean"] > summary["token_median"]
    return _report("hist", started, seed, rows, summary, {"frames": len(frames), **(inputs or {})},
                   bank=bank, config=config)


def histogram_csv(report: RunReport, level: str) -> str:
    """Render one histogram level as CSV: header plus one row per bin."""
    checked_choice(level, HIST_LEVELS, "level")
    if report.kind != "hist":
        raise ValidationError(f"histogram_csv takes a hist report, got kind {report.kind!r}")
    lines = ["lo,hi,count"]
    for row in report.rows:
        if row["level"] == level:
            lines.append(f"{row['lo']!r},{row['hi']!r},{row['count']}")
    return "\n".join(lines) + "\n"

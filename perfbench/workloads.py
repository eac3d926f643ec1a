"""The benchmark's workloads and the seeded generator of their inputs.

Each workload is one stream shape, one `TierConfig` and one query schedule.
`generate` builds a workload's inputs from a seed with `tiermem.synth` and
writes them as a trace file plus a JSON-lines query file, which is all the
measured process is given. Importing this module imports nothing heavy, so
the launcher can read `WORKLOADS` before it pins the BLAS thread count.

Query kinds, told apart by the query id prefix:

- "now": low rho, tokens copied from the newest frame, so the recency gate
  is expected to fire and answer from the short tier.
- "past": aimed at a planted event with rho large enough that the gate
  stays closed, so every mid/long frame is scored.
"""

from __future__ import annotations

import json

DIM = 128
PROBES = 5
NOISE_SIGMA = 0.05  # at 0.08 and above every frame becomes a scene boundary
SEGMENT_FRAMES = (24, 48)  # a segment change every few dozen frames
QUERY_TOKENS = 2
NOW_RHO = 0.1
# The gate threshold is rho * max(ema, 1e-6) and an affinity is at most 1, so
# rho 1e7 keeps the gate closed even when the salience average is not positive.
PAST_RHO = 1e7
PAST_JITTER = 0.05
TOP_K = 5
DISPERSION_LAMBDA = 0.5
MIN_P95_SAMPLES = 200
# Planted events are directions the probe bank rates salient: max cosine to a
# probe at least this, where a typical token scores about 0.1. The probes ask
# what is happening and what changed, so an event should register with them;
# and with unfiltered random events, recall_past on steady_forget hinged on
# which few of ~100 random directions happened to clear the forget threshold.
EVENT_MIN_SALIENCE = 0.2
GOLDEN = 0.6180339887498949

# Shape, config and query schedule of each workload. pass_s is one pass's
# time on the reference host; it sets how many timed pairs of passes a run
# of a given length makes, the same number on every host. Events are planted at
# frames event_start, event_start + event_every, ...; "now" queries come
# after every now_every-th frame from now_from on. Past queries:
#   recent: each event is queried `variants` times after each of the
#           frames event+1 .. event+3, while it is still in the short tier;
#   spread: `count` queries at evenly spaced frames from `first` on, each
#           aimed at an event at least 4 frames old, so the target sits in
#           the mid or long tier. Targets step through the eligible events
#           by the golden ratio, which spreads their ages evenly and keeps
#           the age mix, and with it recall, the same for every seed.
# Why each workload exists is recorded in BENCHMARK.json; which layer metric
# should move which end-to-end metric on which workload, in DESIGN.md.
WORKLOADS = {
    # The short FIFO alone fills the default budget (4 x 512 = 2048), so mid and
    # long are forgotten on every ingest and no candidate is ever scored. Its
    # past queries therefore aim at events still in the short tier.
    "ingest_dense": {
        "frames": 256,
        "tokens_per_frame": 512,
        "pass_s": 8.5,
        "config": {},
        "event_start": 8,
        "event_every": 16,
        "now_from": 4,
        "now_every": 1,
        "past": {"kind": "recent", "variants": 5},
        "checks": {"prune_drops": True},
        # Spans that must record calls, so a renamed or inlined stage fails loudly.
        "expected_spans": (
            "tiers.encode_tokens",
            "tiers.scene_boundary",
            "tiers.temporal_semantic_prune",
            "tiers.selective_forget",
            "retrieval.gate_check",
        ),
    },
    # At budget 16384 this stream overflows and forget mixes into the query
    # layer; 32768 keeps every frame, so forget evicts nothing.
    "query_wide": {
        "frames": 768,
        "tokens_per_frame": 64,
        "pass_s": 7.5,
        "config": {"token_budget": 32768, "mid_cap_frames": 64},
        "event_start": 5,
        "event_every": 10,
        "now_from": 3,
        "now_every": 3,
        "past": {"kind": "spread", "first": 640, "count": 208},
        "checks": {"forget_evicts": False},
        "expected_spans": ("tiers.spatial_semantic_select", "retrieval.score_candidates"),
    },
    # Fills at about frame 440; from there every ingest evicts, and recall_past
    # shows whether salience-ordered forgetting keeps the evidence.
    "steady_forget": {
        "frames": 768,
        "tokens_per_frame": 64,
        "pass_s": 7.0,
        "config": {"token_budget": 8192, "mid_cap_frames": 64},
        "event_start": 5,
        "event_every": 10,
        "now_from": 4,
        "now_every": 1,
        "past": {"kind": "spread", "first": 480, "count": 208},
        "checks": {"forget_evicts": True},
        "expected_spans": (
            "tiers.spatial_semantic_select",
            "tiers.selective_forget",
            "retrieval.score_candidates",
        ),
    },
}


def _segments(rng, frames: int) -> tuple:
    segments, start = [], 0
    while start < frames:
        end = min(frames, start + int(rng.integers(SEGMENT_FRAMES[0], SEGMENT_FRAMES[1] + 1)))
        segments.append((start, end, len(segments)))
        start = end
    return tuple(segments)


def _past_schedule(shape: dict, event_frames: list[int]) -> list[tuple[int, int]]:
    """(frame position, event ordinal) of every past query, in issue order."""
    past = shape["past"]
    if past["kind"] == "recent":
        return [
            (frame + lag, ordinal)
            for ordinal, frame in enumerate(event_frames)
            for lag in (1, 2, 3)
            for _ in range(past["variants"])
            if frame + lag < shape["frames"]
        ]
    first, count, frames = past["first"], past["count"], shape["frames"]
    schedule = []
    for i in range(count):
        t = first + i * (frames - first) // count
        eligible = [k for k, frame in enumerate(event_frames) if frame <= t - 4]
        schedule.append((t, eligible[int(len(eligible) * (i * GOLDEN % 1.0))]))
    return schedule


def _salient_event_seeds(tiermem, rng, seed: int, count: int) -> list[int]:
    import numpy as np

    bank = tiermem.ProbeBank.generated(DIM, n=PROBES, seed=seed)
    seeds: list[int] = []
    while len(seeds) < count:
        candidate = int(rng.integers(2**31))
        one = tiermem.StreamSpec(dim=DIM, frames=1, tokens_per_frame=1,
                                 events=((0, candidate, 1.0),), rng_seed=seed)
        if float(np.max(bank.matrix @ tiermem.event_direction(one, 0))) >= EVENT_MIN_SALIENCE:
            seeds.append(candidate)
    return seeds


def generate(name: str, seed: int, trace_path, queries_path) -> dict:
    """Write workload `name`'s trace and queries for `seed`; return a summary.

    Everything derives from (seed, workload), so one seed gives one input.
    """
    import numpy as np
    import tiermem

    shape = WORKLOADS[name]
    ordinal = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, ordinal])
    frames_n = shape["frames"]
    event_frames = list(range(shape["event_start"], frames_n, shape["event_every"]))
    spec = tiermem.StreamSpec(
        dim=DIM,
        frames=frames_n,
        tokens_per_frame=shape["tokens_per_frame"],
        segments=_segments(rng, frames_n),
        events=tuple((frame, s, 1.0) for frame, s in
                     zip(event_frames, _salient_event_seeds(tiermem, rng, seed, len(event_frames)))),
        noise_sigma=NOISE_SIGMA,
        rng_seed=seed,
    )
    frames = tiermem.generate_stream(spec)
    tiermem.write_trace(trace_path, frames)

    queries = []
    for t in range(shape["now_from"], frames_n, shape["now_every"]):
        picks = rng.choice(shape["tokens_per_frame"], size=QUERY_TOKENS, replace=False)
        tokens = [frames[t].tokens[int(j)].vector.astype(float).tolist() for j in picks]
        queries.append({"id": f"now-{len(queries)}", "arrival_time": float(t),
                        "tokens": tokens, "rho": NOW_RHO})
    for i, (t, event) in enumerate(_past_schedule(shape, event_frames)):
        q = tiermem.query_for_event(
            spec, event, jitter=PAST_JITTER, rng_seed=seed * 1_000_003 + i,
            n_tokens=QUERY_TOKENS, arrival_time=float(t), rho=PAST_RHO,
            top_k=TOP_K, dispersion_lambda=DISPERSION_LAMBDA, query_id=f"past-{i}",
        )
        queries.append({
            "id": q.query_id, "arrival_time": q.arrival_time, "tokens": q.tokens.tolist(),
            "rho": q.rho, "top_k": q.top_k, "lambda": q.dispersion_lambda,
            "ground_truth_frames": sorted(q.ground_truth_frames),
        })
    # Replay order: by frame position, then generation order.
    queries.sort(key=lambda q: q["arrival_time"])
    with open(queries_path, "w", encoding="utf-8") as fh:
        for q in queries:
            fh.write(json.dumps(q) + "\n")
    return {"frames": frames_n, "queries": len(queries)}

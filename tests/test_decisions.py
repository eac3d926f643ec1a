"""Decision golden: the engine's discrete choices on seeded streams.

For each stream and seed the golden file records, per ingest, the
scene-boundary flag and the tokens dropped by each stage plus a hash of
the retained (frame, row, col) layout of every tier; per query, the gate
decision, the candidate frames and the selected frames; and at the end of
the stream, the retained (frame, row, col) set of every tier. Scores and
state digests are left out on purpose: they may move in their last bits
when a kernel's summation order changes, while every decision must not.

Regenerate only for a deliberate behaviour change:

    PYTHONPATH=src python tests/test_decisions.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tiermem.retrieval import QuerySpec, retrieve
from tiermem.synth import StreamSpec, generate_stream, query_for_event
from tiermem.tiers import TierConfig, new_memory
from tiermem.vecspace import ProbeBank

GOLDEN = Path(__file__).parent / "data" / "decisions_golden.json"
SEEDS = (1, 2)

# dense512: the default config at its 512-token cap, where the short tier
# alone fills the budget. long64: small frames that reach the long tier,
# forget on every ingest once full, and leave candidates to score.
# ties64: noise-free frames, so salience and redundancy tie everywhere.
STREAMS = {
    "dense512": {
        "dim": 64, "frames": 16, "tokens_per_frame": 512, "noise_sigma": 0.05,
        "config": {},
    },
    "long64": {
        "dim": 32, "frames": 96, "tokens_per_frame": 64, "noise_sigma": 0.05,
        "config": {"short_cap_frames": 4, "mid_cap_frames": 12, "token_budget": 1024,
                   "long_quota_per_frame": 12, "tokens_per_frame_max": 64},
    },
    "ties64": {
        "dim": 16, "frames": 48, "tokens_per_frame": 64, "noise_sigma": 0.0,
        "config": {"short_cap_frames": 2, "mid_cap_frames": 6, "token_budget": 512,
                   "long_quota_per_frame": 8, "tokens_per_frame_max": 64},
    },
}


def _spec(shape: dict, seed: int) -> StreamSpec:
    frames = shape["frames"]
    third = frames // 3
    return StreamSpec(
        dim=shape["dim"],
        frames=frames,
        tokens_per_frame=shape["tokens_per_frame"],
        segments=((0, third, seed), (third, 2 * third, seed + 10), (2 * third, frames, seed + 20)),
        events=tuple((f, 100 * seed + f, 1.0) for f in range(3, frames - 4, 7)),
        noise_sigma=shape["noise_sigma"],
        rng_seed=seed,
    )


def _queries(spec: StreamSpec, frames) -> dict[int, list]:
    """Past queries aimed at events, and now queries copied from the newest frame."""
    by_time: dict[int, list] = {}
    for ordinal, (event_frame, _, _) in enumerate(spec.events):
        t = min(spec.frames - 1, event_frame + 6 + ordinal % 5)
        for rho in (1.0, 1e7):
            q = query_for_event(spec, ordinal, jitter=0.05, rng_seed=ordinal, n_tokens=2,
                                arrival_time=float(t), rho=rho, top_k=4,
                                query_id=f"past{ordinal}-rho{rho:g}")
            by_time.setdefault(t, []).append(q)
    for t in range(5, spec.frames, 9):
        tokens = [frames[t].tokens[j].vector for j in (0, len(frames[t].tokens) - 1)]
        by_time.setdefault(t, []).append(
            QuerySpec(query_id=f"now{t}", arrival_time=float(t), tokens=tokens, rho=0.1))
    return by_time


def _layout(tier) -> list:
    return [[e.frame_index, [[t.spatial_row, t.spatial_col] for t in e.tokens]] for e in tier]


def record(name: str, seed: int) -> dict:
    shape = STREAMS[name]
    spec = _spec(shape, seed)
    frames = generate_stream(spec)
    queries = _queries(spec, frames)
    mem = new_memory(TierConfig(**shape["config"]), ProbeBank.generated(spec.dim, n=5, seed=seed))
    ingests, answers = [], []
    for frame in frames:
        r = mem.ingest_frame(frame.timestamp, frame.ingest_tokens())
        tiers = json.dumps([_layout(mem.short), _layout(mem.mid), _layout(mem.long)])
        ingests.append([int(r.scene_boundary), r.dropped_temporal, r.dropped_spatial,
                        r.dropped_budget, hashlib.sha256(tiers.encode()).hexdigest()[:16]])
        for q in queries.get(frame.frame_index, ()):
            result = retrieve(mem.freeze(at=q.arrival_time), mem.gate_stats, q)
            mem.thaw()
            answers.append([q.query_id, int(result.gated_short_only), sorted(result.frame_scores),
                            list(result.selected_frames())])
    return {
        "ingests": ingests,
        "queries": answers,
        "final": {"short": _layout(mem.short), "mid": _layout(mem.mid), "long": _layout(mem.long)},
    }


def _record_all() -> dict:
    return {f"{name}/{seed}": record(name, seed) for name in STREAMS for seed in SEEDS}


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_match_golden(name, seed):
    golden = json.loads(GOLDEN.read_text())[f"{name}/{seed}"]
    got = json.loads(json.dumps(record(name, seed)))
    for i, (want, have) in enumerate(zip(golden["ingests"], got["ingests"])):
        assert have == want, f"ingest {i}: [boundary, temporal, spatial, budget, layout]"
    assert len(got["ingests"]) == len(golden["ingests"])
    assert got["queries"] == golden["queries"]
    assert got["final"] == golden["final"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record_all(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

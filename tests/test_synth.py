"""Synthetic stream generator tests."""

import json
import math

import numpy as np
import pytest

from tiermem.errors import NoSuchEvent, SpecError, ValidationError
from tiermem.synth import (
    MAX_SPEC_DIM,
    MAX_SPEC_FRAME_VALUES,
    MAX_SPEC_STREAM_VALUES,
    StreamSpec,
    event_block,
    event_direction,
    generate_stream,
    grid_side,
    load_stream_spec,
    query_for_event,
    segment_direction,
)
from tiermem import synth
from tiermem.tiers import TierConfig, new_memory
from tiermem.vecspace import ProbeBank, late_interaction, normalize


def spec(**kwargs):
    base = dict(dim=16, frames=8, tokens_per_frame=4, noise_sigma=0.1, rng_seed=5)
    base.update(kwargs)
    return StreamSpec(**base)


def token_bytes(frames):
    return b"".join(f.vectors.tobytes() for f in frames)


def test_generation_is_bitwise_deterministic():
    s = spec(events=((3, 9, 0.7),))
    assert token_bytes(generate_stream(s)) == token_bytes(generate_stream(s))
    assert token_bytes(generate_stream(s)) != token_bytes(generate_stream(spec(rng_seed=6, events=((3, 9, 0.7),))))


def test_prefix_consistency_across_lengths():
    short = generate_stream(spec(frames=8))
    long = generate_stream(spec(frames=16))
    assert token_bytes(short) == token_bytes(long[:8])


def test_zero_noise_makes_identical_tokens():
    frames = generate_stream(spec(noise_sigma=0.0))
    first = frames[0].vectors[0]
    for f in frames:
        for vector in f.vectors:
            assert np.array_equal(vector, first)


def test_full_strength_event_plants_exact_direction():
    s = spec(tokens_per_frame=16, events=((5, 2, 1.0),))
    frames = generate_stream(s)
    direction32 = event_direction(s, 0).astype(np.float32)
    block = event_block(s)
    assert block == range(4)
    for j in block:
        assert np.array_equal(frames[5].vectors[j], direction32)
    # Tokens outside the block follow the segment base, not the event.
    outside = frames[5].vectors[block.stop].astype(np.float64)
    assert abs(float(np.dot(outside, event_direction(s, 0)))) < 0.9


def test_partial_strength_event_shifts_block():
    s = spec(tokens_per_frame=8, noise_sigma=0.05, events=((4, 2, 0.8),))
    frames = generate_stream(s)
    direction = event_direction(s, 0)
    block_token = frames[4].vectors[0].astype(np.float64)
    plain_token = frames[3].vectors[0].astype(np.float64)
    assert float(np.dot(block_token, direction)) > 0.6
    assert abs(float(np.dot(plain_token, direction))) < 0.5


def test_event_blocks_per_frame_size():
    assert event_block(spec(tokens_per_frame=1)) == range(1)
    assert event_block(spec(tokens_per_frame=3)) == range(1)
    assert event_block(spec(tokens_per_frame=8)) == range(2)
    assert event_block(spec(tokens_per_frame=16)) == range(4)


def test_spatial_layout_row_major_square():
    assert grid_side(5) == 3
    frames = generate_stream(spec(tokens_per_frame=5, frames=1))
    coords = list(zip(frames[0].rows.tolist(), frames[0].cols.tolist()))
    assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]


def test_query_for_event_exact_at_zero_jitter():
    s = spec(frames=32, events=((10, 4, 1.0),))
    q = query_for_event(s, 0, jitter=0.0)
    assert q.ground_truth_frames == frozenset({10})
    assert q.arrival_time == 31.0
    assert np.array_equal(q.tokens[0], event_direction(s, 0))
    jittered = query_for_event(s, 0, jitter=0.3, rng_seed=1, n_tokens=3)
    assert jittered.tokens.shape == (3, 16)
    assert not np.array_equal(jittered.tokens[0], event_direction(s, 0))


def test_query_jitter_is_drawn_and_normalized_per_token():
    # One (tokens, dim) draw and one unit_rows give every token the bits of
    # its own draw and normalize, and jitter that overflows is still refused.
    for dim in (1, 2, 8, 128):
        s = spec(dim=dim, events=((1, 3, 1.0),))
        direction = event_direction(s, 0)
        for n_tokens, seed, jitter in ((1, 0, 1e-300), (2, 1, 0.3), (7, 2, 1e200), (64, 3, 2.5)):
            q = query_for_event(s, 0, jitter=jitter, rng_seed=seed, n_tokens=n_tokens)
            rng = np.random.default_rng([seed, synth._TAG_QUERY, 0])
            want = [normalize(direction + jitter * rng.standard_normal(dim))
                    for _ in range(n_tokens)]
            assert q.tokens.tobytes() == np.stack(want).tobytes(), (dim, n_tokens, jitter)
        # The overflow warns, as a per-token draw did, and the query refuses
        # the tokens it leaves.
        with pytest.raises(ValidationError, match="non-finite"), pytest.warns(RuntimeWarning):
            query_for_event(s, 0, jitter=float(np.finfo(np.float64).max), n_tokens=64)


def test_integer_helpers_refuse_what_is_not_a_positive_integer():
    # segment_direction raised a bare TypeError for 0.5 and "a" and took
    # True as 1; grid_side raised a bare ValueError for -1 and gave 2 for 2.5.
    s = spec(frames=4, segments=((0, 2, 1), (2, 4, 2)))
    for ordinal in (0.5, "a", True, None):
        with pytest.raises(ValidationError, match="segment ordinal"):
            segment_direction(s, ordinal)
    assert np.array_equal(segment_direction(s, np.int64(1)), segment_direction(s, 1))
    with pytest.raises(SpecError):
        segment_direction(s, 2)
    for n in (-1, 0, 2.5, True, "4"):
        with pytest.raises(ValidationError, match="tokens_per_frame"):
            grid_side(n)
    sides = range(1, 5000)
    assert [grid_side(n) for n in sides] == [math.ceil(math.sqrt(n)) for n in sides]
    assert grid_side(np.uint16(10)) == 4 and grid_side(10**40) == 10**20


def test_query_for_event_out_of_range():
    s = spec(events=((1, 0, 1.0),))
    with pytest.raises(NoSuchEvent):
        query_for_event(s, 1)
    with pytest.raises(NoSuchEvent):
        event_direction(s, -1)


def test_event_query_separates_event_frame_exactly():
    # Zero noise, zero jitter: the event frame scores strictly above
    # every other frame under the late-interaction formula.
    s = spec(dim=32, frames=24, tokens_per_frame=8, noise_sigma=0.0, events=((7, 3, 1.0),))
    frames = generate_stream(s)
    q = query_for_event(s, 0, jitter=0.0)
    scores = {
        f.frame_index: late_interaction(f.vectors, list(q.tokens))
        for f in frames
    }
    best = max(scores, key=scores.get)
    assert best == 7
    runner_up = max(v for k, v in scores.items() if k != 7)
    assert scores[7] > runner_up + 0.05


def test_segment_transitions_are_scene_boundaries():
    s = StreamSpec(
        dim=64,
        frames=12,
        tokens_per_frame=4,
        segments=((0, 6, 11), (6, 12, 12)),
        noise_sigma=0.05,
        rng_seed=3,
    )
    frames = generate_stream(s)
    cfg = TierConfig(short_cap_frames=12, tokens_per_frame_max=4, token_budget=48)
    mem = new_memory(cfg, ProbeBank.generated(64, n=5, seed=0))
    flags = {}
    for f in frames:
        report = mem.ingest_frame(f.timestamp, list(f))
        flags[f.frame_index] = report.scene_boundary
    assert flags[0] is True
    assert flags[6] is True
    assert not any(flags[i] for i in set(range(12)) - {0, 6})


def test_segment_directions_are_seed_stable():
    s = StreamSpec(dim=16, frames=4, tokens_per_frame=2, segments=((0, 2, 7), (2, 4, 7)))
    assert np.array_equal(segment_direction(s, 0), segment_direction(s, 1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"frames": 0},
        {"tokens_per_frame": 0},
        {"noise_sigma": -0.1},
        {"rng_seed": -1},
        {"segments": ((0, 4, 0), (5, 8, 1))},  # gap
        {"segments": ((0, 5, 0), (4, 8, 1))},  # overlap
        {"segments": ((1, 8, 0),)},  # late start
        {"segments": ((0, 7, 0),)},  # short cover
        {"segments": ((0, 0, 0), (0, 8, 1))},  # empty segment
        {"events": ((8, 0, 1.0),)},  # frame out of range
        {"events": ((2, 0, 0.0),)},  # zero strength
        {"events": ((2, 0, 1.5),)},  # overdriven strength
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(SpecError):
        spec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"segments": ((0, 2.5, 0), (2.5, 8, 1))}, "segments"),
     ({"events": ((1.9, 0, 1.0),)}, "events"),
     ({"dim": 4.0}, "dim"), ({"dim": True}, "dim"), ({"dim": "4"}, "dim"),
     ({"rng_seed": 1.5}, "rng_seed"), ({"events": 5}, "events"), ({"segments": (4,)}, "segments")],
)
def test_spec_numbers_must_be_integers(kwargs, field):
    # Fractions were truncated (an event at frame 1.9 stored at frame 1), and
    # other types ended in a bare TypeError.
    with pytest.raises(ValidationError, match=field):
        spec(**kwargs)


def test_spec_takes_numpy_entries():
    s = spec(segments=np.array([[0, 4, 0], [4, 8, 1]]),
             events=[(np.int64(2), np.uint8(1), np.float32(0.5))])
    assert s.segments == ((0, 4, 0), (4, 8, 1)) and s.events == ((2, 1, 0.5),)
    assert type(s.segments[0][0]) is int and type(s.events[0][2]) is float


@pytest.mark.parametrize(
    "kwargs, field",
    [({"n_tokens": 2.5}, "n_tokens"), ({"jitter": "0.1"}, "jitter"),
     ({"arrival_time": "3"}, "arrival_time"), ({"jitter": 0.1, "rng_seed": 1.5}, "rng_seed"),
     ({"jitter": 0.1, "rng_seed": -1}, "rng_seed"), ({"event_ordinal": 0.5}, "event ordinal")],
)
def test_query_for_event_numbers_are_checked(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        query_for_event(spec(events=((2, 0, 1.0),)), **{"event_ordinal": 0, **kwargs})


def test_spec_size_bounds():
    # Each bound admits its limit and rejects one past it, before anything
    # is generated; the largest benchmark stream (256 x 512 x 128) is
    # accepted.
    StreamSpec(dim=128, frames=256, tokens_per_frame=512)
    StreamSpec(dim=MAX_SPEC_DIM, frames=1, tokens_per_frame=1)
    with pytest.raises(SpecError, match="dim"):
        StreamSpec(dim=MAX_SPEC_DIM + 1, frames=1, tokens_per_frame=1)
    StreamSpec(dim=64, frames=1, tokens_per_frame=MAX_SPEC_FRAME_VALUES // 64)
    with pytest.raises(SpecError, match="tokens_per_frame x dim"):
        StreamSpec(dim=64, frames=1, tokens_per_frame=MAX_SPEC_FRAME_VALUES // 64 + 1)
    StreamSpec(dim=64, frames=MAX_SPEC_STREAM_VALUES // 256, tokens_per_frame=4)
    with pytest.raises(SpecError, match="frames x tokens_per_frame x dim"):
        StreamSpec(dim=64, frames=MAX_SPEC_STREAM_VALUES // 256 + 1, tokens_per_frame=4)
    for huge in ({"dim": 2**40}, {"frames": 2**40}, {"tokens_per_frame": 2**40}):
        with pytest.raises(SpecError):
            spec(**huge)


def test_load_stream_spec(tmp_path):
    path = tmp_path / "spec.json"
    doc = {
        "dim": 8,
        "frames": 6,
        "tokens_per_frame": 3,
        "segments": [[0, 3, 1], [3, 6, 2]],
        "events": [[4, 9, 0.5]],
        "noise_sigma": 0.2,
        "rng_seed": 44,
    }
    path.write_text(json.dumps(doc))
    s = load_stream_spec(path)
    assert s.to_json_dict() == doc
    path.write_text(json.dumps({"dim": 8, "frames": 6, "tokens_per_frame": 3}))
    s = load_stream_spec(path)
    assert s.segments == ((0, 6, 0),)
    assert s.events == ()
    assert s.noise_sigma == 0.0


@pytest.mark.parametrize("field", ["noise_sigma", "events"])
def test_load_stream_spec_rejects_nan_naming_the_file(tmp_path, field):
    path = tmp_path / "nan.json"
    doc = {"dim": 8, "frames": 6, "tokens_per_frame": 3,
           field: float("nan") if field == "noise_sigma" else [[2, 0, float("nan")]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"stream spec {path}: {field}"):
        load_stream_spec(path)


def test_load_stream_spec_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    with pytest.raises(SpecError):
        load_stream_spec(path)
    path.write_text(json.dumps({"dim": 8, "frames": 6}))
    with pytest.raises(SpecError):
        load_stream_spec(path)
    path.write_text(json.dumps({"dim": 8, "frames": 6, "tokens_per_frame": 2, "bogus": 1}))
    with pytest.raises(SpecError):
        load_stream_spec(path)


def test_noise_that_overflows_the_vectors_is_a_spec_error():
    # base + noise_sigma * noise overflows to inf, which no trace reader
    # takes back: refused, naming the frame and noise_sigma, with no
    # RuntimeWarning on the way (this suite makes one an error).
    with pytest.raises(SpecError, match=r"^frame 0: noise_sigma 1e\+308 "):
        generate_stream(spec(dim=4, frames=3, tokens_per_frame=2, noise_sigma=1e308))
    # Noise that stays finite, however large, still makes unit vectors.
    for f in generate_stream(spec(dim=4, frames=3, tokens_per_frame=2, noise_sigma=1e300)):
        norms = np.linalg.norm(f.vectors.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)


def test_tokens_are_unit_norm_float32():
    frames = generate_stream(spec(noise_sigma=0.3))
    for f in frames:
        assert f.vectors.dtype == np.float32
        for vector in f.vectors:
            assert math.isclose(float(np.linalg.norm(vector.astype(np.float64))), 1.0, abs_tol=1e-6)

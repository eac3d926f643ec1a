"""Deterministic synthetic streams with planted, queryable events.

A stream is a sequence of segments, each built around a seeded unit base
direction; every token is the base plus gaussian noise, renormalized.
Event frames overwrite a contiguous leading block of tokens with a blend
toward a seeded event direction, which gives retrieval tests an exact
ground truth. All randomness derives from (rng_seed, purpose tag, key)
triples, so frame i's content does not depend on the stream length.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import NoSuchEvent, SpecError, checked_int, checked_real, json_int, json_object
from .retrieval import QuerySpec
from .traceio import RawFrame, seal
from .vecspace import normalize, unit_rows

# Seed-sequence tags keeping the per-purpose RNG streams disjoint.
_TAG_SEGMENT = 0
_TAG_EVENT = 1
_TAG_FRAME = 2
_TAG_QUERY = 3

# Size bounds on a spec, checked before anything is generated: the
# embedding dimension, one frame's tokens_per_frame x dim vector
# components (8 MB as the float64 noise block) and the whole stream's
# frames x tokens_per_frame x dim (256 MB as float32 trace vectors).
MAX_SPEC_DIM = 2**16
MAX_SPEC_FRAME_VALUES = 2**20
MAX_SPEC_STREAM_VALUES = 2**26


def check_frame_shape(dim: int, tokens_per_frame: int) -> None:
    """Raise SpecError unless frames of this shape are within the size bounds."""
    if dim > MAX_SPEC_DIM:
        raise SpecError(f"dim {dim} exceeds {MAX_SPEC_DIM}")
    if tokens_per_frame * dim > MAX_SPEC_FRAME_VALUES:
        raise SpecError(
            f"tokens_per_frame x dim = {tokens_per_frame * dim} exceeds {MAX_SPEC_FRAME_VALUES}"
        )


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for one synthetic stream.

    segments is a list of (start_frame, end_frame, direction_seed) that
    must partition [0, frames); events is a list of
    (frame_index, event_seed, strength) with strength in (0, 1].
    """

    dim: int
    frames: int
    tokens_per_frame: int
    segments: tuple[tuple[int, int, int], ...] = ()
    events: tuple[tuple[int, int, float], ...] = ()
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("dim", "frames", "tokens_per_frame", "rng_seed"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        object.__setattr__(self, "noise_sigma", checked_real(self.noise_sigma, "noise_sigma"))
        if self.dim < 1 or self.frames < 1 or self.tokens_per_frame < 1:
            raise SpecError("dim, frames, and tokens_per_frame must be positive")
        check_frame_shape(self.dim, self.tokens_per_frame)
        values = self.frames * self.tokens_per_frame * self.dim
        if values > MAX_SPEC_STREAM_VALUES:
            raise SpecError(
                f"frames x tokens_per_frame x dim = {values} exceeds {MAX_SPEC_STREAM_VALUES}"
            )
        if self.noise_sigma < 0.0:
            raise SpecError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.rng_seed < 0:
            raise SpecError(f"rng_seed must be non-negative, got {self.rng_seed}")
        segments = _triples(self.segments, (checked_int,) * 3, "segments")
        if not segments:
            segments = ((0, self.frames, 0),)
        cursor = 0
        for start, end, seed in segments:
            if start != cursor:
                raise SpecError(
                    f"segments must partition [0, {self.frames}) in order; "
                    f"expected start {cursor}, got {start}"
                )
            if end <= start:
                raise SpecError(f"segment [{start}, {end}) is empty")
            if seed < 0:
                raise SpecError("segment direction seeds must be non-negative")
            cursor = end
        if cursor != self.frames:
            raise SpecError(
                f"segments cover [0, {cursor}) but the stream has {self.frames} frames"
            )
        object.__setattr__(self, "segments", segments)
        events = _triples(self.events, (checked_int, checked_int, checked_real), "events")
        for frame, seed, strength in events:
            if not (0 <= frame < self.frames):
                raise SpecError(f"event frame {frame} outside [0, {self.frames})")
            if seed < 0:
                raise SpecError("event seeds must be non-negative")
            if not (0.0 < strength <= 1.0):
                raise SpecError(f"event strength must be in (0, 1], got {strength}")
        object.__setattr__(self, "events", events)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "frames": self.frames,
            "tokens_per_frame": self.tokens_per_frame,
            "segments": [list(s) for s in self.segments],
            "events": [list(e) for e in self.events],
            "noise_sigma": self.noise_sigma,
            "rng_seed": self.rng_seed,
        }


def load_stream_spec(path) -> StreamSpec:
    """Read a StreamSpec from a JSON file; optional fields take defaults."""
    where = f"stream spec {path}:"
    with open(path, "rb") as fh:
        doc = json_object(fh.read(), where, SpecError, [f.name for f in fields(StreamSpec)],
                          [f.name for f in fields(StreamSpec) if f.default is MISSING])
    return StreamSpec(
        dim=json_int(doc["dim"], f"{where} dim"),
        frames=json_int(doc["frames"], f"{where} frames"),
        tokens_per_frame=json_int(doc["tokens_per_frame"], f"{where} tokens_per_frame"),
        segments=_triples(doc.get("segments", []), (json_int,) * 3, f"{where} segments"),
        events=_triples(doc.get("events", []), (json_int, json_int, checked_real),
                        f"{where} events"),
        noise_sigma=checked_real(doc.get("noise_sigma", 0.0), f"{where} noise_sigma"),
        rng_seed=json_int(doc.get("rng_seed", 0), f"{where} rng_seed"),
    )


def _triples(entries, readers: tuple, what: str) -> tuple:
    """Entries of three numbers, the k-th read by readers[k]; `what` names
    the list."""
    try:
        entries = [tuple(entry) for entry in entries]
    except TypeError:
        raise SpecError(f"{what} must be a list of three-number entries") from None
    for i, entry in enumerate(entries):
        if len(entry) != 3:
            raise SpecError(f"{what}[{i}] must be three numbers, got {list(entry)}")
    return tuple(tuple(read(v, f"{what}[{i}]") for read, v in zip(readers, entry))
                 for i, entry in enumerate(entries))


def _seeded_unit(dim: int, seed_parts: list[int]) -> np.ndarray:
    rng = np.random.default_rng(seed_parts)
    return normalize(rng.standard_normal(dim))


def segment_direction(spec: StreamSpec, segment_ordinal: int) -> np.ndarray:
    """The unit base direction of one segment."""
    if not (0 <= checked_int(segment_ordinal, "segment ordinal") < len(spec.segments)):
        raise SpecError(f"segment ordinal {segment_ordinal} out of range")
    seed = spec.segments[segment_ordinal][2]
    return _seeded_unit(spec.dim, [spec.rng_seed, _TAG_SEGMENT, seed])


def event_direction(spec: StreamSpec, event_ordinal: int) -> np.ndarray:
    """The unit direction planted by one event."""
    event_ordinal = checked_int(event_ordinal, "event ordinal")
    if not (0 <= event_ordinal < len(spec.events)):
        raise NoSuchEvent(
            f"event ordinal {event_ordinal} out of range (spec has {len(spec.events)})"
        )
    seed = spec.events[event_ordinal][1]
    return _seeded_unit(spec.dim, [spec.rng_seed, _TAG_EVENT, seed])


def event_block(spec: StreamSpec) -> range:
    """Token positions an event overwrites within its frame: the leading
    quarter of its tokens, and at least one."""
    return range(max(1, spec.tokens_per_frame // 4))


def grid_side(tokens_per_frame: int) -> int:
    """Side of the square spatial grid tokens are laid out on."""
    if checked_int(tokens_per_frame, "tokens_per_frame") < 1:
        raise SpecError(f"tokens_per_frame must be positive, got {tokens_per_frame}")
    return math.isqrt(tokens_per_frame - 1) + 1


def generate_stream(spec: StreamSpec) -> list[RawFrame]:
    """Materialize the stream as trace frames (float32 tokens).

    Timestamps are the frame index as seconds; spatial coordinates go
    row-major over a ceil(sqrt(tokens_per_frame)) square grid.
    """
    directions = [segment_direction(spec, i) for i in range(len(spec.segments))]
    segment_of = np.empty(spec.frames, dtype=np.int64)
    for ordinal, (start, end, _) in enumerate(spec.segments):
        segment_of[start:end] = ordinal
    events_by_frame: dict[int, list[int]] = {}
    for ordinal, (frame, _, _) in enumerate(spec.events):
        events_by_frame.setdefault(frame, []).append(ordinal)
    block = event_block(spec)
    lead = slice(block.start, block.stop)
    side = grid_side(spec.tokens_per_frame)

    positions = np.arange(spec.tokens_per_frame)
    grid_rows, grid_cols = seal(positions // side), seal(positions % side)

    frames: list[RawFrame] = []
    for i in range(spec.frames):
        base = directions[segment_of[i]]
        if spec.noise_sigma > 0.0:
            # One draw of the whole (tokens, dim) block is the same number
            # stream as a draw per token, and unit_rows the same bits per row.
            rng = np.random.default_rng([spec.rng_seed, _TAG_FRAME, i])
            noise = rng.standard_normal((spec.tokens_per_frame, spec.dim))
            matrix = unit_rows(base + spec.noise_sigma * noise)
        else:
            matrix = np.tile(base, (spec.tokens_per_frame, 1))
        for ordinal in events_by_frame.get(i, ()):
            _, _, strength = spec.events[ordinal]
            direction = event_direction(spec, ordinal)
            if strength == 1.0:
                matrix[lead] = direction
            else:
                matrix[lead] = unit_rows((1.0 - strength) * matrix[lead] + strength * direction)
        frames.append(RawFrame(i, float(i), vectors=seal(matrix.astype(np.float32)),
                               rows=grid_rows, cols=grid_cols))
    return frames


def query_for_event(
    spec: StreamSpec,
    event_ordinal: int,
    jitter: float = 0.0,
    rng_seed: int = 0,
    n_tokens: int = 1,
    arrival_time: float | None = None,
    rho: float = 0.1,
    top_k: int = 5,
    dispersion_lambda: float = 0.5,
    query_id: str | None = None,
) -> QuerySpec:
    """Build a query aimed at one planted event.

    With jitter 0 the query tokens equal the event direction exactly;
    otherwise each token is the direction plus seeded gaussian jitter,
    renormalized. Ground truth is the event's frame. arrival_time
    defaults to the end of the stream.
    """
    direction = event_direction(spec, event_ordinal)
    jitter = checked_real(jitter, "jitter")
    n_tokens = checked_int(n_tokens, "n_tokens")
    rng_seed = checked_int(rng_seed, "rng_seed")
    if jitter < 0.0:
        raise SpecError(f"jitter must be >= 0, got {jitter}")
    if n_tokens < 1:
        raise SpecError(f"n_tokens must be >= 1, got {n_tokens}")
    if rng_seed < 0:
        raise SpecError(f"rng_seed must be non-negative, got {rng_seed}")
    if jitter == 0.0:
        tokens = np.tile(direction, (n_tokens, 1))
    else:
        rng = np.random.default_rng([rng_seed, _TAG_QUERY, event_ordinal])
        tokens = unit_rows(direction + jitter * rng.standard_normal((n_tokens, spec.dim)))
    frame = spec.events[event_ordinal][0]
    return QuerySpec(
        query_id=query_id if query_id is not None else f"event{event_ordinal}",
        arrival_time=spec.frames - 1 if arrival_time is None else arrival_time,
        tokens=tokens,
        rho=rho,
        top_k=top_k,
        dispersion_lambda=dispersion_lambda,
        ground_truth_frames=frozenset({frame}),
    )

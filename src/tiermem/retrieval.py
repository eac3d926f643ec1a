"""Query-time stage: recency gate, frame scoring, adaptive selection.

Everything here is read-only over a frozen memory snapshot plus an
immutable gate state. The gate compares the query's affinity to the
short tier against a running statistic maintained during ingest; when
it fires, the short tier alone is returned. Otherwise every mid/long
frame is scored with the late-interaction formula and a dispersion-aware
threshold picks the result set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    UnknownVariant,
    ValidationError,
    json_float,
    json_int,
)
from .vecspace import late_interaction_pages, query_max_sims, unit_rows

if TYPE_CHECKING:
    from .tiers import MemorySnapshot

GATE_MODES = ("ema", "never", "always")
GATE_POOLINGS = ("mean", "max")

# Standard deviations below this are treated as "no dispersion" and the
# selection falls back to plain top-K.
SD_FLOOR = 1e-9


@dataclass(frozen=True)
class GateState:
    """Exponential moving average of per-frame pooled salience scores.

    Updated once per ingested frame, so the statistic is query-agnostic
    and calibrated to the stream it accompanies.
    """

    ema: float = 0.0
    decay: float = 0.9
    floor: float = 1e-6
    observations: int = 0

    def __post_init__(self):
        if not (0.0 < self.decay < 1.0):
            raise ConfigError(f"decay must be in (0, 1), got {self.decay}")
        if not (self.floor > 0.0):
            raise ConfigError(f"floor must be positive, got {self.floor}")
        if not math.isfinite(self.ema):
            raise ValidationError(f"ema must be finite, got {self.ema}")
        if self.observations < 0:
            raise ValidationError("observations must be non-negative")


def update_gate(gate: GateState, frame_pooled_score: float) -> GateState:
    """Fold one frame's pooled score into the running average.

    The first observation seeds the average directly; afterwards
    ema <- decay * ema + (1 - decay) * score.
    """
    x = float(frame_pooled_score)
    if not math.isfinite(x):
        raise ValidationError(f"pooled score must be finite, got {x}")
    if gate.observations == 0:
        ema = x
    else:
        ema = gate.decay * gate.ema + (1.0 - gate.decay) * x
    return GateState(
        ema=ema, decay=gate.decay, floor=gate.floor, observations=gate.observations + 1
    )


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One query: token embeddings plus retrieval knobs.

    rho scales the gate threshold (small for queries about the present,
    large for queries reaching into the past). top_k caps the retrieved
    set; dispersion_lambda shapes the adaptive threshold.
    ground_truth_frames is harness metadata, unused by retrieval itself.
    """

    query_id: str
    arrival_time: float
    tokens: np.ndarray
    rho: float = 0.1
    top_k: int = 5
    dispersion_lambda: float = 0.5
    ground_truth_frames: frozenset[int] | None = None
    unit_tokens: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValidationError(
                f"query {self.query_id!r}: tokens must be a non-empty 2-D array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"query {self.query_id!r}: non-finite token values")
        if not math.isfinite(self.arrival_time):
            raise ValidationError(f"query {self.query_id!r}: non-finite arrival_time")
        if self.rho < 0.0 or not math.isfinite(self.rho):
            raise ValidationError(f"query {self.query_id!r}: rho must be >= 0")
        if self.top_k < 1:
            raise ValidationError(f"query {self.query_id!r}: top_k must be >= 1")
        if not math.isfinite(self.dispersion_lambda):
            raise ValidationError(f"query {self.query_id!r}: non-finite dispersion_lambda")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)
        units = unit_rows(arr)
        units.setflags(write=False)
        object.__setattr__(self, "unit_tokens", units)
        if self.ground_truth_frames is not None:
            object.__setattr__(
                self, "ground_truth_frames", frozenset(int(i) for i in self.ground_truth_frames)
            )

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieve call.

    anchor_frames is always the short tier, in order. retrieved_frames
    is empty when the gate fired (gated_short_only) and otherwise holds
    at most top_k mid/long frames in ascending frame order.
    """

    gated_short_only: bool
    anchor_frames: tuple[int, ...]
    retrieved_frames: tuple[int, ...]
    frame_scores: Mapping[int, float]
    gate_affinity: float
    gate_threshold: float

    def selected_frames(self) -> tuple[int, ...]:
        """Anchor plus retrieved, deduplicated, ascending frame order."""
        return tuple(sorted(set(self.anchor_frames) | set(self.retrieved_frames)))

    def to_json_dict(self) -> dict:
        return {
            "gated_short_only": self.gated_short_only,
            "anchor_frames": [int(i) for i in self.anchor_frames],
            "retrieved_frames": [int(i) for i in self.retrieved_frames],
            "frame_scores": [
                [int(i), float(s)] for i, s in sorted(self.frame_scores.items())
            ],
            "gate_affinity": float(self.gate_affinity),
            "gate_threshold": float(self.gate_threshold),
        }


def gate_check(
    snapshot: "MemorySnapshot",
    gate: GateState,
    query: QuerySpec,
    pooling: str = "mean",
) -> tuple[bool, float, float]:
    """Decide whether the short tier alone satisfies the query.

    Affinity pools, by mean or max, each short-tier token's max cosine
    against the query, the tokens taken in frame order; each frame's maxima
    come from one query_max_sims over its own rows. The threshold is rho
    times the running average (floored). An empty short tier never
    satisfies anything. Returns (fired, affinity, threshold).
    """
    if pooling not in GATE_POOLINGS:
        raise UnknownVariant(f"gate pooling must be one of {GATE_POOLINGS}, got {pooling!r}")
    threshold = query.rho * max(gate.ema, gate.floor)
    if not snapshot.short:
        return False, 0.0, threshold
    per_token = np.empty(sum(entry.token_count for entry in snapshot.short))
    lo = 0
    for entry in snapshot.short:
        hi = lo + entry.token_count
        query_max_sims(query.unit_tokens, entry.token_matrix, out=per_token[lo:hi])
        lo = hi
    affinity = float(np.mean(per_token) if pooling == "mean" else np.max(per_token))
    return affinity >= threshold, affinity, threshold


def score_candidates(snapshot: "MemorySnapshot", query: QuerySpec) -> dict[int, float]:
    """Late-interaction score for every mid/long frame, keyed by frame index
    in ascending order. All frames are scored in place in their pages in one
    batch-invariant pass, so each score has the bits the frame would get
    scored alone."""
    pages = snapshot.candidate_pages()
    scores = late_interaction_pages(pages, query.unit_tokens)
    return dict(zip(pages.frame_index.tolist(), scores.tolist()))


def _top_k(frames: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The k frames with the highest values, ties going to the more recent
    frame, best first."""
    return frames[np.lexsort((-frames, -values))[:k]]


def _columns(scores: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """The frame indices and scores of a score map, as arrays in its order."""
    n = len(scores)
    return (np.fromiter(scores.keys(), dtype=np.int64, count=n),
            np.fromiter(scores.values(), dtype=np.float64, count=n))


def rank_top_k(scores: Mapping[int, float], k: int) -> list[int]:
    """Top k frame indices by score, ties going to the more recent frame.

    Returned in rank order (best first), not temporal order.
    """
    return _top_k(*_columns(scores), max(0, int(k))).tolist()


def adaptive_select(
    scores: Mapping[int, float], k: int, dispersion_lambda: float
) -> list[int]:
    """Pick frames whose score clears mean + lambda * sd, clamped to [1, k].

    Degenerate dispersion (sd below SD_FLOOR) falls back to plain top-k.
    Overflow past k keeps the best-scoring frames; the result is returned
    in ascending frame order.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not scores:
        return []
    frames, values = _columns(scores)
    mean = float(np.mean(values))
    sd = float(np.std(values))
    if not sd < SD_FLOOR:  # a NaN spread filters too, and no frame clears it
        above = values >= mean + dispersion_lambda * sd
        if above.any():
            frames, values = frames[above], values[above]
        else:
            k = 1
    return np.sort(_top_k(frames, values, k)).tolist()


def retrieve(
    snapshot: "MemorySnapshot",
    gate: GateState,
    query: QuerySpec,
    gate_mode: str = "ema",
    gate_pooling: str = "mean",
) -> RetrievalResult:
    """Run the full query path against a frozen snapshot.

    gate_mode "ema" is the normal behavior; "never" forces retrieval to
    run regardless of affinity, "always" trusts the short tier whenever
    it is non-empty. Both overrides exist for ablation runs.
    """
    if gate_mode not in GATE_MODES:
        raise UnknownVariant(f"gate mode must be one of {GATE_MODES}, got {gate_mode!r}")
    anchor = tuple(entry.frame_index for entry in snapshot.short)
    fired, affinity, threshold = gate_check(snapshot, gate, query, pooling=gate_pooling)
    if gate_mode == "never":
        fired = False
    elif gate_mode == "always":
        fired = bool(snapshot.short)
    if fired:
        return RetrievalResult(
            gated_short_only=True,
            anchor_frames=anchor,
            retrieved_frames=(),
            frame_scores={},
            gate_affinity=affinity,
            gate_threshold=threshold,
        )
    scores = score_candidates(snapshot, query)
    chosen = adaptive_select(scores, query.top_k, query.dispersion_lambda)
    return RetrievalResult(
        gated_short_only=False,
        anchor_frames=anchor,
        retrieved_frames=tuple(chosen),
        frame_scores=scores,
        gate_affinity=affinity,
        gate_threshold=threshold,
    )


def _token_matrix(value, what: str) -> np.ndarray:
    """Query tokens from JSON: a rectangular array of numbers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ValidationError(f"{what} must be a rectangular array of numbers") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be a rectangular array of numbers")
    return arr.astype(np.float64)


def load_queries_jsonl(path, dim: int | None = None) -> list[QuerySpec]:
    """Read queries from a JSON-lines file.

    Each line: { "id": str, "arrival_time": float, "tokens": [[float,...]],
    "rho": float, "top_k": int, "lambda": float,
    "ground_truth_frames": [int,...] } with rho/top_k/lambda optional.
    """
    queries: list[QuerySpec] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(doc, dict):
                raise ValidationError(f"{path}:{lineno}: expected an object")
            if "arrival_time" not in doc:
                raise ValidationError(f"{path}:{lineno}: missing arrival_time")
            if "tokens" not in doc:
                raise ValidationError(f"{path}:{lineno}: missing tokens")
            where = f"{path}:{lineno}:"
            gt = doc.get("ground_truth_frames")
            if gt is not None and not isinstance(gt, list):
                raise ValidationError(f"{where} ground_truth_frames must be a list")
            query = QuerySpec(
                query_id=str(doc.get("id", f"q{lineno}")),
                arrival_time=json_float(doc["arrival_time"], f"{where} arrival_time"),
                tokens=_token_matrix(doc["tokens"], f"{where} tokens"),
                rho=json_float(doc.get("rho", 0.1), f"{where} rho"),
                top_k=json_int(doc.get("top_k", 5), f"{where} top_k"),
                dispersion_lambda=json_float(doc.get("lambda", 0.5), f"{where} lambda"),
                ground_truth_frames=(
                    frozenset(json_int(i, f"{where} ground_truth_frames") for i in gt)
                    if gt is not None else None
                ),
            )
            if dim is not None and query.dim != dim:
                raise DimensionError(
                    f"{path}:{lineno}: query dimension {query.dim}, expected {dim}"
                )
            queries.append(query)
    return queries

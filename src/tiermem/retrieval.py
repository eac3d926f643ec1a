"""Query-time stage: recency gate, frame scoring, adaptive selection.

Everything here is read-only over a frozen memory snapshot plus an
immutable gate state. The gate compares the query's affinity to the
short tier against a running statistic maintained during ingest; when
it fires, the short tier alone is returned. Otherwise every mid/long
frame is scored with the late-interaction formula and a dispersion-aware
threshold picks the result set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

import numpy as np

from .errors import (
    DimensionError,
    ValidationError,
    checked_choice,
    checked_int,
    checked_real,
    checked_reals,
    json_int,
    json_object,
)
from .traceio import assembled, seal
from .vecspace import late_interaction_pages, query_max_sims, unit_rows

if TYPE_CHECKING:
    from .tiers import MemorySnapshot

GATE_MODES = ("ema", "never", "always")
GATE_POOLINGS = ("mean", "max")

# Standard deviations below this are treated as "no dispersion" and the
# selection falls back to plain top-K.
SD_FLOOR = 1e-9


# The weight update_gate keeps of the running average at each frame, and
# the floor under it in the gate threshold.
GATE_DECAY = 0.9
GATE_FLOOR = 1e-6


@dataclass(frozen=True)
class GateState:
    """Exponential moving average of per-frame pooled salience scores.

    Updated once per ingested frame, so the statistic is query-agnostic
    and calibrated to the stream it accompanies.
    """

    ema: float = 0.0
    observations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ema", checked_real(self.ema, "ema"))
        observations = checked_int(self.observations, "observations")
        if observations < 0:
            raise ValidationError("observations must be non-negative")
        object.__setattr__(self, "observations", observations)


def update_gate(gate: GateState, frame_pooled_score: float) -> GateState:
    """Fold one frame's pooled score into the running average.

    The first observation seeds the average directly; afterwards
    ema <- GATE_DECAY * ema + (1 - GATE_DECAY) * score.
    """
    x = checked_real(frame_pooled_score, "pooled score")
    if gate.observations == 0:
        ema = x
    else:
        ema = GATE_DECAY * gate.ema + (1.0 - GATE_DECAY) * x
    # gate's count was checked when it was made; only the new average can
    # fail GateState's checks, if it overflows.
    return assembled(GateState, ema=checked_real(ema, "ema"), observations=gate.observations + 1)


def _frame_indices(values, what: str, read: Callable) -> frozenset[int]:
    """The set of values, each read as an integer by read (errors.checked_int
    or json_int), refused with ValidationError if any is negative."""
    indices = frozenset(read(i, what) for i in values)
    if indices and min(indices) < 0:
        raise ValidationError(f"{what} must be non-negative frame indices, got {min(indices)}")
    return indices


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """One query: token embeddings plus retrieval knobs.

    rho scales the gate threshold (small for queries about the present,
    large for queries reaching into the past). top_k caps the retrieved
    set; dispersion_lambda shapes the adaptive threshold.
    ground_truth_frames is harness metadata, unused by retrieval itself:
    frame indices, each non-negative as a frame's index is.
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
        where = f"query {self.query_id!r}:"
        arr = np.array(checked_reals(self.tokens, f"{where} tokens"), dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValidationError(
                f"{where} tokens must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{where} non-finite token values")
        for name in ("arrival_time", "rho", "dispersion_lambda"):
            object.__setattr__(self, name, checked_real(getattr(self, name), f"{where} {name}"))
        if self.rho < 0.0:
            raise ValidationError(f"{where} rho must be >= 0")
        top_k = checked_int(self.top_k, f"{where} top_k")
        if top_k < 1:
            raise ValidationError(f"{where} top_k must be >= 1")
        object.__setattr__(self, "top_k", top_k)
        object.__setattr__(self, "tokens", seal(arr))
        object.__setattr__(self, "unit_tokens", seal(unit_rows(arr)))
        if self.ground_truth_frames is not None:
            truth = _frame_indices(self.ground_truth_frames, f"{where} ground_truth_frames",
                                   checked_int)
            object.__setattr__(self, "ground_truth_frames", truth)

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


class FrameScores(Mapping[int, float]):
    """Candidate scores keyed by frame index, in ascending frame order.

    A read-only Mapping over two arrays of equal length, frames (int64,
    ascending) and scores (float64), which ranking reads directly. The dict
    behind key reads and iteration is built on the first of them.
    """

    __slots__ = ("frames", "scores", "_dict")

    def __init__(self, frames: np.ndarray, scores: np.ndarray):
        for column in (frames, scores):
            column.setflags(write=False)
        self.frames = frames
        self.scores = scores
        self._dict = None

    def _as_dict(self) -> dict[int, float]:
        if self._dict is None:
            self._dict = dict(zip(self.frames.tolist(), self.scores.tolist()))
        return self._dict

    def __getitem__(self, frame_index: int) -> float:
        return self._as_dict()[frame_index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._as_dict())

    def __len__(self) -> int:
        return len(self.frames)

    def __repr__(self) -> str:
        return f"FrameScores({self._as_dict()!r})"


NO_SCORES = FrameScores(np.empty(0, dtype=np.int64), np.empty(0))


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of one retrieve call.

    anchor_frames is always the short tier, in order. retrieved_frames
    is empty when the gate fired (gated_short_only) and otherwise holds
    at most top_k mid/long frames in ascending frame order. frame_scores
    is score_candidates' read-only map, empty when the gate fired.
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
    against the query, the tokens taken in frame order: one query_max_sims
    over the short frames' token matrices, which gives each frame's rows
    the bits they get alone. The mean has np.mean's bits: a pairwise sum,
    then one division. The threshold is rho times the running average,
    floored at GATE_FLOOR. An empty short tier never satisfies anything.
    Returns (fired, affinity, threshold).
    """
    checked_choice(pooling, GATE_POOLINGS, "gate pooling")
    threshold = query.rho * max(gate.ema, GATE_FLOOR)
    short = snapshot.short
    if not short:
        return False, 0.0, threshold
    maxima = query_max_sims(query.unit_tokens, *[entry.token_matrix for entry in short])
    if pooling == "mean":
        affinity = float(np.add.reduce(maxima)) / maxima.shape[0]
    else:
        affinity = float(np.maximum.reduce(maxima))
    return affinity >= threshold, affinity, threshold


def score_candidates(snapshot: "MemorySnapshot", query: QuerySpec) -> FrameScores:
    """Late-interaction score for every mid/long frame, keyed by frame index
    in ascending order. All frames are scored in place in their pages in one
    batch-invariant pass, so each score has the bits the frame would get
    scored alone."""
    table = np.concatenate([ints[:5] for ints, _ in snapshot.tables], axis=1)
    scores = late_interaction_pages(snapshot.pages, snapshot.alive, table, query.unit_tokens)
    return FrameScores(table[0], scores)


def _top_k(frames: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The k frames with the highest values, ties going to the more recent
    frame, best first."""
    return frames[np.lexsort((-frames, -values))[:k]]


def _columns(scores: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """The frame indices and scores of a score map, as arrays in its order."""
    if isinstance(scores, FrameScores):
        return scores.frames, scores.scores
    n = len(scores)
    return (np.fromiter(scores.keys(), dtype=np.int64, count=n),
            np.fromiter(scores.values(), dtype=np.float64, count=n))


def rank_top_k(scores: Mapping[int, float], k: int) -> list[int]:
    """Top k frame indices by score, ties going to the more recent frame.

    Returned in rank order (best first), not temporal order. k is an
    integer (not a bool) and at least 0; k = 0 returns [].
    """
    k = checked_int(k, "k")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    return _top_k(*_columns(scores), k).tolist()


def adaptive_select(
    scores: Mapping[int, float], k: int, dispersion_lambda: float
) -> list[int]:
    """Pick frames whose score clears mean + lambda * sd, clamped to [1, k].

    Degenerate dispersion (sd below SD_FLOOR) falls back to plain top-k.
    Overflow past k keeps the best-scoring frames; the result is returned
    in ascending frame order.
    """
    k = checked_int(k, "k")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    dispersion_lambda = checked_real(dispersion_lambda, "dispersion_lambda")
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
    checked_choice(gate_mode, GATE_MODES, "gate mode")
    anchor = tuple([entry.frame_index for entry in snapshot.short])
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
            frame_scores=NO_SCORES,
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


def load_queries_jsonl(path, dim: int | None = None) -> list[QuerySpec]:
    """Read queries from a JSON-lines file.

    Each line: { "id": str, "arrival_time": float, "tokens": [[float,...]],
    "rho": float, "top_k": int, "lambda": float,
    "ground_truth_frames": [int,...] }, arrival_time and tokens required;
    blank lines are skipped.
    """
    queries: list[QuerySpec] = []
    with open(path, "rb") as fh:
        # The file yields pieces ending at \n, one at a time; splitting each
        # at \n, \r\n and \r numbers lines as text mode does, as a \r\n
        # never straddles two pieces.
        lines = (line for piece in fh for line in piece.splitlines())
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}:"
            doc = json_object(line, where, ValidationError,
                              ("id", "arrival_time", "tokens", "rho", "top_k", "lambda",
                               "ground_truth_frames"), ("arrival_time", "tokens"))
            gt = doc.get("ground_truth_frames")
            if gt is not None and not isinstance(gt, list):
                raise ValidationError(f"{where} ground_truth_frames must be a list")
            query = QuerySpec(
                query_id=str(doc.get("id", f"q{lineno}")),
                arrival_time=checked_real(doc["arrival_time"], f"{where} arrival_time"),
                tokens=checked_reals(doc["tokens"], f"{where} tokens"),
                rho=checked_real(doc.get("rho", 0.1), f"{where} rho"),
                top_k=json_int(doc.get("top_k", 5), f"{where} top_k"),
                dispersion_lambda=checked_real(doc.get("lambda", 0.5), f"{where} lambda"),
                ground_truth_frames=(
                    _frame_indices(gt, f"{where} ground_truth_frames", json_int)
                    if gt is not None else None
                ),
            )
            if dim is not None and query.dim != dim:
                raise DimensionError(f"{where} query dimension {query.dim}, expected {dim}")
            queries.append(query)
    return queries

"""Per-token references of the engine's stages, from plain lists.

Each stage is written as one Python loop per token over plain lists, the
way the paper states it, and shares no code with the columnar stages it
checks. A frame is a (vectors, scores, rows, cols) tuple of lists: row i
of vectors is token i's unit embedding, scores[i] its salience and
(rows[i], cols[i]) its grid cell. From tiermem this module may import only
max_sim and late_interaction, which define a token's salience and a
frame's score (tests/test_tiers.py checks its imports).

The name does not match pytest's test file pattern, so pytest does not
collect it; the tests import what they check.
"""

import math
import struct

import numpy as np


def reference_prune_positions(frame, reference, keep_fraction, semantic_weight):
    """The positions of the tokens temporal pruning keeps, ascending.

    A token's redundancy is its cosine to the first reference token at its
    grid cell (0 without one, or without a reference), and its keep-score
    (1 - redundancy) + semantic_weight * score; the ceil(keep_fraction * n)
    best keep-scores survive, ties to the lower position.
    """
    vectors, scores, rows, cols = frame
    keep = math.ceil(keep_fraction * len(scores))
    by_cell = {}
    if reference is not None:
        ref_vectors, _, ref_rows, ref_cols = reference
        for vector, row, col in zip(ref_vectors, ref_rows, ref_cols):
            by_cell.setdefault((row, col), vector)
    keep_scores = []
    for vector, score, row, col in zip(vectors, scores, rows, cols):
        ref = by_cell.get((row, col))
        redundancy = 0.0 if ref is None else float(np.clip(np.dot(vector, ref), -1.0, 1.0))
        keep_scores.append((1.0 - redundancy) + semantic_weight * score)
    return sorted(sorted(range(len(scores)), key=lambda i: (-keep_scores[i], i))[:keep])


def reference_select_positions(frame, grid, quota):
    """The positions of the tokens spatial selection keeps, ascending.

    Each token falls in a grid x grid cell by its coordinates scaled to the
    frame's extent; the best token of each cell is taken first, cut to the
    quota by score, and the rest of the quota is filled by score, ties to
    the lower position.
    """
    _, scores, rows, cols = frame
    extent_r = max(rows) + 1
    extent_c = max(cols) + 1
    best_in_cell = {}
    for i, (score, row, col) in enumerate(zip(scores, rows, cols)):
        cell = (min(row * grid // extent_r, grid - 1), min(col * grid // extent_c, grid - 1))
        if cell not in best_in_cell or score > scores[best_in_cell[cell]]:
            best_in_cell[cell] = i
    selected = sorted(best_in_cell.values(), key=lambda i: (-scores[i], i))[:quota]
    leftovers = sorted((i for i in range(len(scores)) if i not in selected),
                       key=lambda i: (-scores[i], i))
    return sorted(selected + leftovers[: max(0, quota - len(selected))])


def reference_forget(tiers, overflow):
    """Forget's victims as (frame_index, position, score), in eviction order.

    tiers lists the tiers to drain, in order, each as (frame_index, scores)
    pairs; each tier gives up its lowest scores, ties to the older frame,
    then the lower position, until overflow tokens are gone.
    """
    evicted = []
    for tier in tiers:
        candidates = sorted((score, frame_index, i) for frame_index, scores in tier
                            for i, score in enumerate(scores))
        victims = candidates[: max(0, overflow)]
        overflow -= len(victims)
        evicted += [(f, i, score) for score, f, i in victims]
    return evicted


def reference_rank_top_k(scores, k):
    """rank_top_k over a {frame: score} dict: best first, ties to the more
    recent frame."""
    ranked = sorted(scores, key=lambda f: (-scores[f], -f))
    return ranked[: max(0, int(k))]


def reference_adaptive_select(scores, k, dispersion_lambda, sd_floor):
    """adaptive_select over a {frame: score} dict, in ascending frame order:
    the frames at or above mean + dispersion_lambda * sd, cut to the k best,
    or the best one when none clears it; plain top-k below sd_floor."""
    if not scores:
        return []
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    mean = float(np.mean(values))
    sd = float(np.std(values))
    if sd < sd_floor:
        chosen = reference_rank_top_k(scores, k)
    else:
        threshold = mean + dispersion_lambda * sd
        chosen = [f for f, s in scores.items() if s >= threshold]
        if len(chosen) > k:
            chosen = reference_rank_top_k({f: scores[f] for f in chosen}, k)
        elif not chosen:
            chosen = reference_rank_top_k(scores, 1)
    return sorted(chosen)


def reference_decode(data):
    """Independent per-token struct decoder of the trace wire format: a
    list of (frame_index, timestamp, [(row, col, vector bytes), ...])."""
    _, _, dim, count = struct.unpack_from("<4sIIQ", data, 0)
    pos, frames = 20, []
    while (len(frames) < count) if count else (pos < len(data)):
        index, ts, n = struct.unpack_from("<QdI", data, pos)
        pos += 20
        tokens = []
        for _ in range(n):
            row, col = struct.unpack_from("<HH", data, pos)
            tokens.append((row, col, data[pos + 4:pos + 4 + 4 * dim]))
            pos += 4 + 4 * dim
        frames.append((index, ts, tokens))
    return frames

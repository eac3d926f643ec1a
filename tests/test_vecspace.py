"""Vector primitive tests with hand-computed expected values."""

import itertools
import json
import math

import numpy as np
import pytest

from tiermem.errors import DimensionError, EmptyInputError, ValidationError
from tiermem.vecspace import (
    DEFAULT_PROBE_LABELS,
    ProbeBank,
    RowStore,
    cosine,
    late_interaction,
    late_interaction_scores,
    max_sim,
    normalize,
    pooled_max_sim_units,
    segment_means,
    token_max_sims,
    unit_rows,
)
from tiermem import vecspace


def test_normalize_unit_norm():
    v = normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=0, abs_tol=1e-12)


def test_normalize_zero_vector_is_sentinel():
    v = normalize([0.0, 0.0, 0.0])
    assert not v.any()
    assert cosine([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0


def test_normalize_rejects_matrix():
    with pytest.raises(DimensionError):
        normalize(np.zeros((2, 2)))


def test_normalize_dim_check():
    with pytest.raises(DimensionError):
        normalize([1.0, 0.0], dim=3)


def test_cosine_hand_value():
    # (0.6, 0.8) . (0.8, 0.6) = 0.48 + 0.48, both already unit norm.
    assert math.isclose(cosine([0.6, 0.8], [0.8, 0.6]), 0.96, abs_tol=1e-12)


def test_cosine_scale_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        s = float(rng.uniform(0.1, 100.0))
        assert math.isclose(cosine(a, b), cosine(s * a, b), abs_tol=1e-12)


def test_cosine_bounds_and_self():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        c = cosine(a, b)
        assert -1.0 <= c <= 1.0
    assert math.isclose(cosine([1.0, 2.0], [1.0, 2.0]), 1.0, abs_tol=1e-12)


def test_cosine_dim_mismatch():
    with pytest.raises(DimensionError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


def test_max_sim_hand_value():
    bank = ProbeBank([[0.6, 0.8], [1.0, 0.0]])
    # cos against probe 0 = 0.96, against probe 1 = 0.8.
    assert math.isclose(max_sim([0.8, 0.6], bank), 0.96, abs_tol=1e-12)


def test_max_sim_matches_cosine_loop():
    rng = np.random.default_rng(3)
    bank = ProbeBank([rng.standard_normal(12) for _ in range(5)])
    for _ in range(50):
        v = rng.standard_normal(12)
        by_loop = max(cosine(v, p) for p in bank.matrix)
        assert math.isclose(max_sim(v, bank), by_loop, abs_tol=1e-12)


def test_max_sim_dim_mismatch():
    bank = ProbeBank([[1.0, 0.0, 0.0]])
    with pytest.raises(DimensionError):
        max_sim([1.0, 0.0], bank)


def test_late_interaction_hand_value():
    # Token (1,0) scores 1 against the query, token (0,1) scores 0; mean 0.5.
    got = late_interaction([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])
    assert math.isclose(got, 0.5, abs_tol=1e-12)


def test_late_interaction_query_order_invariant():
    rng = np.random.default_rng(19)
    frame = [rng.standard_normal(8) for _ in range(6)]
    query = [rng.standard_normal(8) for _ in range(4)]
    base = late_interaction(frame, query)
    for _ in range(10):
        perm = rng.permutation(len(query))
        shuffled = [query[i] for i in perm]
        assert math.isclose(late_interaction(frame, shuffled), base, abs_tol=1e-12)


def test_late_interaction_duplicate_query_tokens_no_effect():
    rng = np.random.default_rng(23)
    frame = [rng.standard_normal(8) for _ in range(5)]
    query = [rng.standard_normal(8) for _ in range(3)]
    base = late_interaction(frame, query)
    assert math.isclose(late_interaction(frame, query + [query[0]]), base, abs_tol=1e-12)


def test_late_interaction_single_query_token_is_mean_cosine():
    rng = np.random.default_rng(29)
    frame = [rng.standard_normal(8) for _ in range(7)]
    q = rng.standard_normal(8)
    expected = float(np.mean([cosine(t, q) for t in frame]))
    assert math.isclose(late_interaction(frame, [q]), expected, abs_tol=1e-12)


def test_late_interaction_empty_inputs():
    with pytest.raises(EmptyInputError):
        late_interaction([], [[1.0, 0.0]])
    with pytest.raises(EmptyInputError):
        late_interaction([[1.0, 0.0]], [])


def test_late_interaction_dim_mismatch():
    with pytest.raises(DimensionError):
        late_interaction([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


def test_pooled_kernel_matches_public_path():
    rng = np.random.default_rng(31)
    frame = [rng.standard_normal(8) for _ in range(6)]
    query = [rng.standard_normal(8) for _ in range(3)]
    fm = np.stack([normalize(t) for t in frame])
    qm = np.stack([normalize(t) for t in query])
    assert math.isclose(
        pooled_max_sim_units(fm, qm), late_interaction(frame, query), abs_tol=1e-12
    )


def test_token_max_sims_max_then_clip_equals_clip_then_max_bit_for_bit():
    rng = np.random.default_rng(59)
    for n, k, d in [(1, 1, 1), (7, 3, 5), (64, 9, 16), (512, 512, 128)]:
        frame = rng.standard_normal((n, d)) * 2.0
        query = rng.standard_normal((k, d)) * 2.0
        frame[rng.random(n) < 0.1, 0] = np.nan
        product = frame @ query.T
        assert (np.abs(product) > 1.0).any()
        clipped_first = np.max(np.clip(product, -1.0, 1.0), axis=1)
        got = token_max_sims(frame, query)
        assert got.tobytes() == clipped_first.tobytes(), (n, k, d)


def test_unit_rows_equals_the_masked_divide_bit_for_bit():
    def masked_divide(matrix):
        m = np.ascontiguousarray(matrix, dtype=np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]
        dead = norms < vecspace.ZERO_NORM_EPS
        return np.divide(m, norms, out=np.zeros_like(m), where=~dead)

    rng = np.random.default_rng(61)
    for n, d in [(1, 1), (9, 3), (64, 16), (512, 128)]:
        for dtype in (np.float64, np.float32):
            m = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
            kinds = rng.integers(6, size=n)
            m[kinds == 0] = 0.0  # zero norm
            m[kinds == 1] = -0.0
            m[kinds == 2] *= 1e-14  # below ZERO_NORM_EPS, not zero
            m[kinds == 3, 0] = np.nan
            m[kinds == 4, 0] = np.inf
            m = m.astype(dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                want, got = masked_divide(m), unit_rows(m)
            assert got.tobytes() == want.tobytes(), (n, d, dtype)
            assert got.flags.c_contiguous and got.dtype == np.float64


def test_segment_means_match_np_mean_bit_for_bit():
    rng = np.random.default_rng(53)
    for length in range(1, 601):
        counts = np.array([length, 1, length, 3])
        values = rng.standard_normal(int(counts.sum())) * 10.0 ** rng.integers(-4, 4, counts.sum())
        starts = np.cumsum(counts) - counts
        want = [np.mean(values[s:s + c]) for s, c in zip(starts, counts)]
        assert segment_means(values, counts).tolist() == [float(w) for w in want], length


def test_segment_means_take_explicit_starts():
    # Segments anywhere in the values, out of order and overlapping.
    rng = np.random.default_rng(61)
    values = rng.standard_normal(500)
    counts = rng.integers(1, 40, 60)
    starts = rng.integers(0, 500 - counts)
    want = [np.mean(values[s:s + c]) for s, c in zip(starts, counts)]
    assert segment_means(values, counts, starts).tolist() == [float(w) for w in want]


def test_row_store_pages_hold_whole_frames_and_never_rewrite_rows(monkeypatch):
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 4)
    store = RowStore(2)
    a, page_a, start_a = store.add(np.ones((3, 2)))
    b, page_b, start_b = store.add(np.full((2, 2), 2.0))  # no room left beside a
    c, page_c, start_c = store.add(np.full((6, 2), 3.0))  # longer than a page
    assert (start_a, start_b, start_c) == (0, 0, 0) and len({page_a, page_b, page_c}) == 3
    assert [rows for _, _, rows, _, _ in store.page_usage()] == [4, 4, 8]  # whole blocks
    assert not (a.flags.writeable or b.flags.writeable or c.flags.writeable)
    d, page_d, start_d = store.add(np.full((2, 2), 4.0))
    assert (page_d, start_d) == (page_b, 2)
    store.kill(page_a, 3)  # a's and c's frames left: their pages are released
    store.kill(page_c, 6)
    assert [page for page, *_ in store.page_usage()] == [page_b]
    assert a.tolist() == [[1.0, 1.0]] * 3  # rows a view holds stay readable
    assert store.crowded() is None
    store.kill(page_b, 2)  # half of page b is dead
    assert store.crowded() == (page_b, None)
    page_e, start_e, e = store.move(page_b, np.array([2]), np.array([2]))
    assert page_e not in (page_b, page_c) and start_e == 0 and not e.flags.writeable
    assert e.tolist() == d.tolist() == [[4.0, 4.0]] * 2 and b.tolist() == [[2.0, 2.0]] * 2
    assert [(rows, used, live) for _, _, rows, used, live in store.page_usage()] == [(4, 2, 2)]
    assert store.crowded() is None


def test_late_interaction_scores_reject_bad_frames():
    query = unit_rows(np.eye(3))
    assert late_interaction_scores([], query).shape == (0,)
    with pytest.raises(DimensionError):
        late_interaction_scores([np.eye(3), np.eye(2)], query)
    with pytest.raises(EmptyInputError):
        late_interaction_scores([np.eye(3), np.zeros((0, 3))], query)


def block_reference(frame, query, block_rows):
    """A frame's score from its rows at the top of zeroed blocks of
    block_rows rows, with one BLAS product per block."""
    n, dim = frame.shape
    padded = np.zeros((-(-n // block_rows) * block_rows, dim))
    padded[:n] = frame
    maxima = np.concatenate([np.max(query @ padded[lo:lo + block_rows].T, axis=0)
                             for lo in range(0, len(padded), block_rows)])
    return float(np.mean(np.clip(maxima[:n], -1.0, 1.0)))


def einsum_reference(frame, query):
    return float(np.mean(np.clip(np.max(np.einsum("ij,kj->ik", frame, query), axis=1), -1.0, 1.0)))


@pytest.mark.parametrize("block_rows", [1, 3, 7, 512])
def test_late_interaction_scores_are_batch_invariant(monkeypatch, block_rows):
    # A frame scores the same bits alone as packed among others, whether it
    # sits inside a block, straddles block edges or spans several blocks:
    # with the BLAS block product where the self-check passes, and with the
    # einsum's bits where it fails.
    rng = np.random.default_rng(block_rows)
    dim = 19
    query = unit_rows(rng.standard_normal((3, dim)))
    twin = unit_rows(rng.standard_normal((5, dim)))
    frames = [unit_rows(rng.standard_normal((int(n), dim))) for n in rng.integers(1, 12, 40)]
    frames[3] = frames[17] = frames[30] = twin
    frames.insert(9, unit_rows(rng.standard_normal((23, dim))))  # longer than a small block
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", block_rows)
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        blas = vecspace.blas_rows_invariant(dim, 3, block_rows)
        packed = late_interaction_scores(frames, query)
        for frame, score in zip(frames, packed.tolist()):
            assert late_interaction_scores([frame], query).tolist() == [score]
            want = block_reference(frame, query, block_rows) if blas else einsum_reference(frame, query)
            assert score == want, (check_fails, blas)
        assert packed[3] == packed[18] == packed[31]


def test_blas_self_check_is_memoised_per_shape():
    vecspace.blas_rows_invariant.cache_clear()
    first = vecspace.blas_rows_invariant(16, 2, 8)
    assert isinstance(first, bool)
    assert vecspace.blas_rows_invariant(16, 2, 8) is first
    info = vecspace.blas_rows_invariant.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_blas_self_check_passes_only_where_every_place_gives_the_same_bits():
    # Where the check passes, a row's column of query @ block.T has the bits
    # of that row alone at row 0 of a zero block, at every place in a block
    # of other rows. Small blocks and single query rows are where some BLAS
    # kernels take a different path for the last rows.
    rng = np.random.default_rng(79)
    for dim, k, block_rows in itertools.product((3, 16, 19, 32), (1, 2, 3), (3, 5, 7, 8)):
        if not vecspace.blas_rows_invariant(dim, k, block_rows):
            continue
        query = unit_rows(rng.standard_normal((k, dim)))
        for row in unit_rows(rng.standard_normal((4, dim))):
            alone = np.zeros((block_rows, dim))
            alone[0] = row
            want = (query @ alone.T)[:, 0].tobytes()
            for place in range(block_rows):
                block = unit_rows(rng.standard_normal((block_rows, dim)))
                block[place] = row
                assert (query @ block.T)[:, place].tobytes() == want, (dim, k, block_rows, place)


def test_query_max_sims_is_the_clipped_query_major_product():
    rng = np.random.default_rng(67)
    query = unit_rows(rng.standard_normal((2, 8)))
    rows = unit_rows(rng.standard_normal((5, 8)))
    product = (query @ rows.T if vecspace.blas_rows_invariant(8, 2, vecspace.SCORE_BLOCK_ROWS)
               else np.einsum("kj,ij->ki", query, rows))
    want = np.clip(np.max(product, axis=0), -1.0, 1.0)
    out = np.full(7, np.nan)
    assert vecspace.query_max_sims(query, rows, out=out[1:6]).tobytes() == want.tobytes()
    assert np.isnan(out[[0, 6]]).all()
    with pytest.raises(DimensionError):
        vecspace.query_max_sims(query, rows[:, :7])


def test_probe_bank_validation():
    with pytest.raises(ValidationError):
        ProbeBank([])
    with pytest.raises(ValidationError):
        ProbeBank([[0.0, 0.0]])
    with pytest.raises(DimensionError):
        ProbeBank([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        ProbeBank([[1.0, float("nan")]])
    with pytest.raises(ValidationError):
        ProbeBank([[1.0, 0.0]], labels=["a", "b"])


def test_probe_bank_matrix_is_readonly():
    bank = ProbeBank([[1.0, 0.0]])
    with pytest.raises(ValueError):
        bank.matrix[0, 0] = 5.0


def test_probe_bank_file_roundtrip(tmp_path):
    path = tmp_path / "probes.json"
    bank = ProbeBank([[1.0, 0.0, 0.0], [0.0, 3.0, 4.0]], labels=["a", "b"])
    bank.to_file(path)
    loaded = ProbeBank.from_file(path)
    assert loaded.labels == ("a", "b")
    assert loaded.dim == 3
    assert np.allclose(loaded.matrix, bank.matrix)


def test_probe_bank_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"probes": []}))
    with pytest.raises(ValidationError):
        ProbeBank.from_file(path)
    path.write_text(json.dumps({"dim": 2, "probes": [{"vector": [1.0, 0.0, 0.0]}]}))
    with pytest.raises(DimensionError):
        ProbeBank.from_file(path)
    path.write_text(json.dumps({"dim": 2, "probes": [{"label": "x"}]}))
    with pytest.raises(ValidationError):
        ProbeBank.from_file(path)


def test_generated_bank_deterministic():
    a = ProbeBank.generated(16, n=5, seed=42)
    b = ProbeBank.generated(16, n=5, seed=42)
    c = ProbeBank.generated(16, n=5, seed=43)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert a.labels == DEFAULT_PROBE_LABELS
    assert len(ProbeBank.generated(8, n=3, seed=0)) == 3

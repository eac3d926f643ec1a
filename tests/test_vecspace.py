"""Vector primitive tests with hand-computed expected values."""

import itertools
import json
import math

import numpy as np
import pytest

from tiermem.errors import DimensionError, EmptyInputError, ValidationError
from tiermem.retrieval import QuerySpec, score_candidates
from tiermem.synth import StreamSpec, generate_stream
from tiermem.tiers import FrameEntry, TierConfig, TieredMemory
from tiermem.vecspace import (
    DEFAULT_PROBE_LABELS,
    FrameTable,
    ProbeBank,
    RowStore,
    cosine,
    late_interaction,
    max_sim,
    normalize,
    pooled_max_sim_units,
    query_max_sims,
    screen_margin,
    segment_means,
    unit_rows,
)
from tiermem import vecspace

from reference_engine import ZERO_NORM_EPS, reference_salience


def test_normalize_unit_norm():
    v = normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=0, abs_tol=1e-12)


def test_normalize_zero_vector_is_sentinel():
    v = normalize([0.0, 0.0, 0.0])
    assert not v.any()
    assert cosine([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0


def test_finite_vectors_whose_squared_norm_overflows_are_scaled_not_zeroed():
    assert normalize([1e155, 1e155]).tobytes() == normalize([1.0, 1.0]).tobytes()
    assert normalize([-1e300, 0.0, 1e300]).tobytes() == normalize([-1.0, 0.0, 1.0]).tobytes()
    assert math.isclose(float(np.linalg.norm(normalize([1e300, 3e299]))), 1.0, abs_tol=1e-12)
    # The other rows of a matrix keep their bits, non-finite ones included.
    rng = np.random.default_rng(37)
    rows = rng.standard_normal((6, 3))
    rows[1] = [1e200, 1e200, 0.0]
    rows[3] = [np.inf, 1e200, 0.0]
    rows[4] = [1e300, np.nan, 1e300]
    got = unit_rows(rows)
    alone = [unit_rows(row[None, :])[0] for row in rows]
    assert got[1].tobytes() == normalize([1.0, 1.0, 0.0]).tobytes()
    for i in (0, 2, 3, 4, 5):
        assert got[i].tobytes() == alone[i].tobytes(), i
    # A query of such tokens scores, and such a probe is a probe.
    query = QuerySpec(query_id="q", arrival_time=0.0, tokens=[[1e200, 1e200, 0.0]])
    assert query.unit_tokens[0].tobytes() == normalize([1.0, 1.0, 0.0]).tobytes()
    assert ProbeBank([[1e300, 1.0]]).matrix[0].tobytes() == normalize([1.0, 1e-300]).tobytes()


def test_normalize_rejects_matrix():
    with pytest.raises(DimensionError):
        normalize(np.zeros((2, 2)))


_UNIT_BANK = ProbeBank([[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda bad, good: normalize(bad),
    lambda bad, good: cosine(bad, good),
    lambda bad, good: cosine(good, bad),
    lambda bad, good: max_sim(bad, _UNIT_BANK),
    lambda bad, good: late_interaction([bad], [good]),
    lambda bad, good: late_interaction([good], [bad]),
], ids=["normalize", "cosine-first", "cosine-second", "max_sim", "late_interaction-frame",
        "late_interaction-query"])
def test_non_finite_vectors_are_refused_before_any_division(call, value):
    # Refused with a ValidationError, as ProbeBank and QuerySpec refuse
    # them, and before unit_rows divides: the RuntimeWarning a NaN norm
    # would raise is an error under this suite's warning filter.
    with pytest.raises(ValidationError, match="finite"):
        call([1.0, value], [1.0, 0.0])


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


def test_max_sim_rows_equals_the_row_major_product_bit_for_bit(monkeypatch):
    # Where the self-check at SALIENCE_BLOCK_ROWS holds, salience has the
    # bits of each 64-row block's probes @ block.T, the last block padded
    # with zero rows, then the unclipped maximum, the division by the row's
    # einsum norm and the clip. Where it fails, the probe-major einsum and a
    # maximum down its columns give the bits of the row-major einsum and a
    # maximum along its rows, then the same division and clip: on random
    # shapes of rows of any norm, on one row and on none. A zero row scores
    # 0, and a row equal to a probe (a cosine of 1 up to rounding, where the
    # clip acts) is among them.
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        rng = np.random.default_rng(29)
        shapes = [(1, 1, 1), (1, 128, 5), (0, 8, 3), (512, 128, 5), (65, 128, 5)]
        shapes += [(int(rng.integers(0, 600)), int(rng.integers(1, 160)), int(rng.integers(1, 12)))
                   for _ in range(60)]
        for n, dim, probes in shapes:
            bank = ProbeBank([rng.standard_normal(dim) for _ in range(probes)])
            rows = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0, (n, 1))
            if n > 1:
                rows[0] = 0.0
                rows[-1] = bank.matrix[-1]
            if vecspace.blas_rows_invariant(dim, probes, vecspace.SALIENCE_BLOCK_ROWS):
                maxima = block_maxima(rows, bank.matrix, vecspace.SALIENCE_BLOCK_ROWS, clip=False)
            else:
                maxima = np.max(np.einsum("ij,kj->ik", rows, bank.matrix), axis=1)
            want = over_row_norms(maxima, rows)
            got = vecspace.max_sim_rows(rows, bank)
            assert got.shape == (n,) and got.tobytes() == want.tobytes(), (check_fails, n, dim)
            if n > 1:
                assert got[0] == 0.0 and 0.0 <= 1.0 - got[-1] < 1e-15, (check_fails, n, dim)


def salience_rows(rng, bank):
    """Rows for salience at the edges of its definition: unit and
    non-unit ones, rows whose norm is just below, at and one step above
    ZERO_NORM_EPS (a multiple of an axis, whose einsum norm is exact), a
    row equal to a probe (where the clip acts) and finite rows whose
    squared norm overflows."""
    dim = bank.dim
    rows = [*unit_rows(rng.standard_normal((4, dim))),
            *(rng.standard_normal((4, dim)) * np.array([[1e-9], [0.01], [37.0], [1e150]]))]
    axis = np.eye(dim)[dim - 1]
    for norm in (np.nextafter(ZERO_NORM_EPS, 0.0), ZERO_NORM_EPS,
                 np.nextafter(ZERO_NORM_EPS, 1.0)):
        rows.append(norm * axis)
    rows.append(bank.matrix[0].copy())
    rows.append(np.where(rng.random(dim) < 0.5, -1e200, 1e200) * rng.uniform(0.5, 1.0, dim))
    rows.append(np.full(dim, 1e300))
    return np.array(rows)


def test_salience_is_the_plain_list_cosine_formula(monkeypatch):
    # max_sim_rows and max_sim agree with the max over probes of
    # sum(p_i v_i) / sqrt(sum(v_i ** 2)), clipped, from plain lists, to
    # within 1e-14, on the BLAS blocks and on the einsum fallback.
    assert ZERO_NORM_EPS == vecspace.ZERO_NORM_EPS
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for dim in (1, 8, 128):
            rng = np.random.default_rng([dim, 157])
            bank = ProbeBank.generated(dim, n=5, seed=dim)
            rows = salience_rows(rng, bank)
            squares = np.einsum("ij,ij->i", rows, rows)
            assert np.isinf(squares[-2:]).all() and np.isfinite(rows).all()
            got = vecspace.max_sim_rows(rows, bank)
            probes = bank.matrix.tolist()
            for i, row in enumerate(rows):
                want = reference_salience(row.tolist(), probes)
                assert abs(got[i] - want) <= 1e-14, (check_fails, dim, i, got[i], want)
                assert abs(max_sim(row, bank) - want) <= 1e-14, (check_fails, dim, i)
            below, at, above = got[8:11].tolist()
            assert below == 0.0 and at != 0.0 and above != 0.0, (check_fails, dim)
            assert got[11] <= 1.0
            # A row holding a NaN or an inf scores NaN, among the rows
            # above, which keep their bits, and without a warning.
            bad = np.ones((3, dim))
            bad[:, dim // 2] = (math.nan, math.inf, -math.inf)
            mixed = vecspace.max_sim_rows(np.concatenate([rows[:9], bad, rows[9:]]), bank)
            assert np.isnan(mixed[9:12]).all(), (check_fails, dim)
            assert np.delete(mixed, [9, 10, 11]).tobytes() == got.tobytes(), (check_fails, dim)


def test_max_sim_keeps_its_bits_under_a_power_of_two_scale(monkeypatch):
    # Scaling a row by 2**k scales every product and the norm exactly, so
    # the quotient keeps its bits, while the norm stays at or above
    # ZERO_NORM_EPS and no product or square overflows or underflows.
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for dim in (1, 8, 128):
            rng = np.random.default_rng([dim, 163])
            bank = ProbeBank.generated(dim, n=5, seed=dim)
            for v in rng.standard_normal((3, dim)) * np.array([[1.0], [0.5], [3.0]]):
                want = max_sim(v, bank).hex()
                for k in range(-30, 31):
                    assert max_sim(2.0**k * v, bank).hex() == want, (check_fails, dim, k)


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


def test_query_max_sims_max_then_clip_equals_clip_then_max_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(59)
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for n, k, d in [(1, 1, 1), (7, 3, 5), (64, 9, 16), (512, 512, 128)]:
            frame = rng.standard_normal((n, d)) * 2.0
            query = rng.standard_normal((k, d)) * 2.0
            frame[rng.random(n) < 0.1, 0] = np.nan
            blas = vecspace.blas_rows_invariant(d, k, vecspace.SCORE_BLOCK_ROWS)
            product = query @ frame.T if blas else np.einsum("kj,ij->ki", query, frame)
            assert (np.abs(product) > 1.0).any()
            clipped_first = np.max(np.clip(product, -1.0, 1.0), axis=0)
            got = query_max_sims(query, frame)
            assert got.tobytes() == clipped_first.tobytes(), (check_fails, n, k, d)


def frame_pairs():
    """Seeded (frame, previous frame) pairs of unit rows whose similarities
    spread over [-1, 1]: the frame is the previous one's rows, or some of
    them, under noise from none to overwhelming."""
    rng = np.random.default_rng(43)
    for dim in (1, 2, 5, 16, 128, 256):
        for n, m in ((1, 1), (1, 7), (3, 2), (17, 40), (64, 64), (600, 512)):
            for sigma in (0.0, 0.05, 0.5, 3.0):
                prev = unit_rows(rng.standard_normal((m, dim)))
                base = prev[rng.integers(0, m, n)]
                yield unit_rows(base + sigma * rng.standard_normal((n, dim))), prev


def thresholds_around(exact, margin):
    """exact itself, 1 ulp and k * 1e-6 either side of it, and one and two
    margins either side."""
    yield exact
    yield np.nextafter(exact, np.inf)
    yield np.nextafter(exact, -np.inf)
    for step in (1e-6, 2e-6, 5e-6, 1e-5, margin, 2 * margin):
        yield exact + step
        yield exact - step


def test_screen_decides_as_the_float64_path_at_every_threshold():
    worst = 0.0
    for frame, prev in frame_pairs():
        exact = pooled_max_sim_units(frame, prev)
        margin = screen_margin(frame.shape[1])
        for near in thresholds_around(exact, margin):
            assert (pooled_max_sim_units(frame, prev, near=near) < near) == (exact < near), (
                frame.shape, prev.shape, exact, near)
        # The float32 whole-frame estimate, which decides when no bound
        # settles, lies within the margin.
        maxima = query_max_sims(prev.astype(np.float32), frame.astype(np.float32), blas=True)
        estimate = float(np.add.reduce(maxima, dtype=np.float64)) / frame.shape[0]
        worst = max(worst, abs(estimate - exact) / margin)
        # Far above near's range, the screen returns a bound from above.
        assert exact - margin <= pooled_max_sim_units(frame, prev, near=exact + 4.0) <= 1.0
    assert 0.0 < worst <= 1.0


def test_screen_falls_back_to_float64_only_near_the_threshold(monkeypatch):
    calls = []
    exact_kernel = vecspace.query_max_sims

    def counted(query, *blocks, **kwargs):
        # The screen's float32 steps take the kernel too; count the float64 path.
        if query.dtype == np.float64:
            calls.append(1)
        return exact_kernel(query, *blocks, **kwargs)

    monkeypatch.setattr(vecspace, "query_max_sims", counted)
    rng = np.random.default_rng(47)
    prev = unit_rows(rng.standard_normal((64, 128)))
    frame = unit_rows(prev + 0.3 * rng.standard_normal((64, 128)))
    exact = pooled_max_sim_units(frame, prev)
    assert len(calls) == 1
    for near in (exact, exact + screen_margin(128) / 2):
        calls.clear()
        assert pooled_max_sim_units(frame, prev, near=near) == exact
        assert len(calls) == 1
    for near in (exact + 0.01, exact - 0.01):
        calls.clear()
        pooled_max_sim_units(frame, prev, near=near)
        assert calls == []


def test_screen_estimate_averages_in_float64():
    # Rows (c, s) with float32 c against (1, 0): every float32 product is
    # exactly c, as in float64, so an estimate averaged in float64 is the
    # exact value bit for bit; an average taken in float32 is not.
    rng = np.random.default_rng(53)
    c = rng.uniform(0.5, 1.0, 600).astype(np.float32).astype(np.float64)
    frame = np.stack([c, np.sqrt(1.0 - c * c)], axis=1)
    prev = np.array([[1.0, 0.0]])
    exact = pooled_max_sim_units(frame, prev)
    assert exact == float(np.mean(c))
    assert pooled_max_sim_units(frame, prev, near=-1.0) == exact


def test_screen_decides_non_finite_and_zero_rows_as_float64():
    rng = np.random.default_rng(59)
    unit = unit_rows(rng.standard_normal((6, 4)))
    tiny = np.array([[1e-300, 1.0], [-1e-300, 1.0]])  # 1e-300 is 0 in float32
    cases = [
        (np.vstack([unit[:3], [[np.nan] * 4]]), unit[3:]),
        (unit[:3], np.vstack([unit[3:], [[0.0, np.nan, 0.0, 0.0]]])),
        (np.vstack([unit[:3], [[np.inf, 0.0, 0.0, 0.0]]]), unit[3:]),
        (unit[:3], np.vstack([unit[3:], [[-np.inf, 0.0, 0.0, 0.0]]])),
        (np.vstack([unit[:3], np.zeros((2, 4))]), unit[3:]),
        (unit[:3], np.vstack([unit[3:], np.zeros((1, 4))])),
        (np.zeros((2, 4)), np.zeros((3, 4))),
        # float64 gives +-inf, clipped to +-1 (mean 0); float32 gives NaN,
        # which must fall back rather than decide.
        (tiny, np.array([[np.inf, 0.0]])),
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        for frame, prev in cases:
            exact = pooled_max_sim_units(frame, prev)
            for near in (-0.9, -0.5, 0.0, 0.5, 0.8, 0.99):
                got = pooled_max_sim_units(frame, prev, near=near)
                assert (got < near) == (exact < near), (frame, prev, near)
    assert pooled_max_sim_units(*cases[-1]) == 0.0


def test_screen_decides_non_finite_and_zero_rows_in_one_chunk_as_float64():
    # A 512-row previous frame is screened first through a strided sample of
    # its rows, then whole. Rows that are NaN, inf or zero only inside the
    # sample or only outside it must leave every decision as the float64
    # path makes it, whether the screen stops at the sample or not.
    rng = np.random.default_rng(67)
    dim = 16
    base = unit_rows(rng.standard_normal((12, dim)))
    prev = unit_rows(base[rng.integers(0, 12, 512)] + 0.05 * rng.standard_normal((512, dim)))
    stride = -(-512 // vecspace.SCREEN_SAMPLE_ROWS)
    assert stride > 1
    frames = {
        "same scene": unit_rows(base[rng.integers(0, 12, 300)] + 0.05 * rng.standard_normal((300, dim))),
        "new scene": unit_rows(rng.standard_normal((300, dim))),
        # 1e-300 is 0 in float32: against an inf row float64 gives inf,
        # clipped to 1, and float32 NaN.
        "tiny": np.tile([[1e-300] + [1.0] + [0.0] * (dim - 2)], (300, 1)),
    }
    bad_rows = {
        "nan": [np.nan] + [0.0] * (dim - 1),
        "inf": [np.inf] + [0.0] * (dim - 1),
        "-inf": [-np.inf] + [0.0] * (dim - 1),
        "zero": [0.0] * dim,
    }
    decided = set()
    with np.errstate(invalid="ignore", over="ignore"):
        # Rows 0, s, 2s, ... are the sample; rows s - 1, 2s - 1, ... are not.
        for first in (0, stride - 1):
            for bad, row in bad_rows.items():
                for count in (1, vecspace.SCREEN_SAMPLE_ROWS):
                    held = prev.copy()
                    held[first::stride][:count] = row
                    for name, frame in frames.items():
                        exact = pooled_max_sim_units(frame, held)
                        for near in (-0.9, -0.5, 0.0, 0.5, 0.8, 0.95, 0.99):
                            got = pooled_max_sim_units(frame, held, near=near)
                            assert (got < near) == (exact < near), (first, bad, count, name, near)
                            decided.add(exact < near)
    assert decided == {True, False}


class _CountedProducts(np.ndarray):
    """A float32 query whose products with a frame are recorded by their
    shape: (query rows, frame rows read)."""

    shapes: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedProducts.shapes.append((inputs[0].shape[0], inputs[1].shape[1]))
        inputs = [x.view(np.ndarray) if isinstance(x, _CountedProducts) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _screened(frame, prev, near):
    """pooled_max_sim_units with the float32 products it takes recorded."""
    _CountedProducts.shapes = []
    cast = (lambda matrix: matrix.astype(np.float32).view(_CountedProducts)
            if matrix is prev else matrix.astype(np.float32))
    return pooled_max_sim_units(frame, prev, near=near, float32=cast), _CountedProducts.shapes


def _row_maxima32(frame, prev):
    """Each frame row's float32 max cosine over prev's rows, clipped, its
    product taken as the screen takes it."""
    maxima = np.maximum.reduce(prev.astype(np.float32) @ frame.astype(np.float32).T, axis=0)
    return np.clip(maxima, -1.0, 1.0)


def test_screen_stops_at_the_first_chunk_whose_bound_settles():
    rng = np.random.default_rng(71)
    dim, n = 32, 512
    base = unit_rows(rng.standard_normal((16, dim)))

    def scene(rows):
        # Each base's tokens lie together, as an object's do in a frame, so
        # only a sample strided over the whole frame sees every base.
        drawn = np.sort(rng.integers(0, 16, rows))
        return unit_rows(base[drawn] + 0.02 * rng.standard_normal((rows, dim)))

    def estimate(frame, prev):
        return float(np.add.reduce(_row_maxima32(frame, prev), dtype=np.float64)) / frame.shape[0]

    prev, frame, cut = scene(n), scene(n), unit_rows(rng.standard_normal((n, dim)))
    near, margin, step = 0.8, screen_margin(dim), vecspace.SCREEN_STEP_ROWS
    stride = -(-n // vecspace.SCREEN_SAMPLE_ROWS)
    sample = prev[::stride]
    # A frame of the same scene settles on the sample's lower bound, from
    # one product.
    got, shapes = _screened(frame, prev, near)
    assert shapes == [(len(sample), n)]
    assert got == estimate(frame, sample)
    assert got > near and pooled_max_sim_units(frame, prev) > near
    # The settling frame stopped early: reading every row gives a higher estimate.
    assert estimate(frame, sample) < estimate(frame, prev)
    # One that starts a new scene settles from above. Its rows are read
    # whole, lowest sample bound first: first the fewest whose bounds alone
    # could settle, rounded up to a whole step, then a step at a time, until
    # the read rows' maxima plus 1 for each unread row fall below near - margin.
    lower = _row_maxima32(cut, sample).astype(np.float64)
    order = np.argsort(lower, kind="stable")
    exact = pooled_max_sim_units(cut, prev)
    steps = set()
    for near in (0.6, 0.8, 0.9):
        fewest = next(k for k in range(1, n + 1)
                      if np.sum(1.0 - lower[order[:k]]) > n * (1.0 - near + margin))
        reads, total, lo, hi = [(len(sample), n)], 0.0, 0, -(-fewest // step) * step
        while True:
            total += float(np.add.reduce(_row_maxima32(cut[order[lo:hi]], prev), dtype=np.float64))
            reads.append((n, hi - lo))
            bound = (total + (n - hi)) / n
            if bound < near - margin:
                break
            lo, hi = hi, min(n, hi + step)
        got, shapes = _screened(cut, prev, near)
        assert shapes == reads and got == bound, near
        # It read neither every row nor more steps than the first and one more.
        assert hi < n and len(reads) <= 3, near
        assert exact < got < near, near
        steps.add(len(reads) - 1)
    assert steps == {1, 2}
    # At most SCREEN_SAMPLE_ROWS previous rows take one product of them all.
    small = prev[:vecspace.SCREEN_SAMPLE_ROWS]
    got, shapes = _screened(frame[:100], small, -0.5)
    assert shapes == [(len(small), 100)]
    assert got == estimate(frame[:100], small)


def test_screen_decides_cuts_of_every_size_from_above_as_float64():
    # Frames of the previous frame's scene whose leading k rows turn to a new
    # direction, from one row to all of them: the sample puts most below a
    # threshold near their value, and the bound from above must then decide
    # each as the float64 path does, on frames just past one step and two,
    # and just past one block, after samples of 33 and 512 previous rows.
    rng = np.random.default_rng(79)
    dim = 32
    base = unit_rows(rng.standard_normal((8, dim)))
    margin = screen_margin(dim)
    sides, from_above = set(), 0
    for m in (33, 512):
        prev = unit_rows(base[rng.integers(0, 8, m)] + 0.05 * rng.standard_normal((m, dim)))
        for n in (65, 128, 512, 513):
            for k in sorted({1, n // 8, n // 4, n // 2, n}):
                frame = base[rng.integers(0, 8, n)]
                frame[:k] = rng.standard_normal(dim)
                frame = unit_rows(frame + 0.05 * rng.standard_normal((n, dim)))
                exact = pooled_max_sim_units(frame, prev)
                for near in (-0.5, 0.0, 0.5, 0.8, 0.95, *thresholds_around(exact, margin)):
                    got, shapes = _screened(frame, prev, near)
                    assert (got < near) == (exact < near), (m, n, k, near, exact, got)
                    sides.add(exact < near)
                    from_above += any(rows < n for _, rows in shapes[1:])
    assert sides == {True, False} and from_above > 100


def test_screen_decides_non_finite_and_zero_rows_ranked_first_or_last_as_float64():
    # The bound from above reads a frame's rows lowest sample bound first.
    # Rows that are NaN, inf or zero only among the rows ranked first, or
    # only among those ranked last, must leave every decision as the float64
    # path makes it, and so must a previous row outside the sample whose
    # zero coordinate meets an inf frame row only in the whole read.
    rng = np.random.default_rng(83)
    dim, n, m = 16, 256, 512
    base = unit_rows(rng.standard_normal((8, dim)))
    stride = -(-m // vecspace.SCREEN_SAMPLE_ROWS)
    scene = unit_rows(base[rng.integers(0, 8, m)] + 0.05 * rng.standard_normal((m, dim)))
    hidden = scene.copy()
    hidden[stride - 1] = unit_rows(np.r_[0.0, rng.standard_normal(dim - 1)][None])[0]
    # A cut: half the rows a new direction, half the previous frame's scene.
    clean = base[rng.integers(0, 8, n)]
    clean[: n // 2] = rng.standard_normal(dim)
    clean = unit_rows(clean + 0.05 * rng.standard_normal((n, dim)))
    bad_rows = {
        "nan": [np.nan] + [0.0] * (dim - 1),
        "inf": [np.inf] + [0.0] * (dim - 1),
        "-inf": [-np.inf] + [0.0] * (dim - 1),
        "zero": [0.0] * dim,
    }
    decided = set()
    with np.errstate(invalid="ignore", over="ignore"):
        for prev in (scene, hidden):
            order = np.argsort(_row_maxima32(clean, prev[::stride]), kind="stable")
            for ranked in (order, order[::-1]):
                for bad, row in bad_rows.items():
                    for count in (1, 32):
                        frame = clean.copy()
                        frame[ranked[:count]] = row
                        exact = pooled_max_sim_units(frame, prev)
                        nears = (-0.9, -0.5, 0.0, 0.5, 0.6, 0.7, 0.8, 0.95, 0.99)
                        if np.isfinite(exact):
                            nears += tuple(thresholds_around(exact, screen_margin(dim)))
                        for near in nears:
                            got = pooled_max_sim_units(frame, prev, near=near)
                            assert (got < near) == (exact < near), (bad, count, near, exact, got)
                            decided.add(exact < near)
    assert decided == {True, False}


def test_screen_settles_a_cut_within_a_bounded_number_of_products():
    # A generated stream of 512-token frames in three scenes, and two events
    # that each turn a quarter of a frame's tokens: every frame that starts
    # a scene settles from above at the default threshold after the sample
    # and one step of at most a quarter of its rows.
    spec = StreamSpec(dim=128, frames=24, tokens_per_frame=512,
                      segments=((0, 8, 1), (8, 16, 2), (16, 24, 3)),
                      events=((4, 11, 1.0), (12, 12, 1.0)), noise_sigma=0.05, rng_seed=7)
    frames = [unit_rows(frame.vectors.astype(np.float64)) for frame in generate_stream(spec)]
    near = TierConfig().scene_threshold
    cuts = []
    for i in range(1, len(frames)):
        got, shapes = _screened(frames[i], frames[i - 1], near)
        if pooled_max_sim_units(frames[i], frames[i - 1]) < near:
            cuts.append(i)
            assert got < near and len(shapes) == 2, (i, shapes)
            assert shapes[1][0] == 512 and shapes[1][1] <= 128, (i, shapes)
        else:
            assert got > near and shapes == [(32, 512)], (i, shapes)
    assert cuts == [4, 8, 12, 16]


def test_screen_decides_as_float64_for_every_previous_frame_size():
    # Previous frames on either side of one sample, of two and of a whole
    # 512-token frame; frames of the same scene, of a new one, and near the
    # threshold, where the sample alone cannot settle.
    rng = np.random.default_rng(73)
    dim = 32
    base = unit_rows(rng.standard_normal((8, dim)))
    margin = screen_margin(dim)
    sides = set()
    for m in (1, 31, 32, 33, 63, 64, 65, 511, 512, 513):
        prev = unit_rows(base[rng.integers(0, 8, m)] + 0.05 * rng.standard_normal((m, dim)))
        same = unit_rows(base[rng.integers(0, 8, 48)] + 0.05 * rng.standard_normal((48, dim)))
        new = unit_rows(rng.standard_normal((48, dim)))
        for frame in (same, new):
            exact = pooled_max_sim_units(frame, prev)
            for near in (-0.5, 0.0, 0.5, 0.8, 0.95, *thresholds_around(exact, margin)):
                got = pooled_max_sim_units(frame, prev, near=near)
                assert (got < near) == (exact < near), (m, near, exact, got)
                sides.add(exact < near)
    assert sides == {True, False}


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


def test_unit_rows_give_each_row_the_same_bits_with_or_without_dead_rows():
    # A matrix without a dead row skips the mask; its rows get the bits they
    # get beside dead rows, into a new array or in place.
    rng = np.random.default_rng(89)
    for n, d in [(1, 1), (7, 3), (64, 16), (512, 128)]:
        m = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 5, size=(n, 1))
        with_dead = np.concatenate([np.zeros((1, d)), m, 1e-14 * m[:1]])
        alone = unit_rows(m)
        assert alone.tobytes() == unit_rows(with_dead)[1:-1].tobytes(), (n, d)
        assert unit_rows(m.copy(), out=np.empty_like(m)).tobytes() == alone.tobytes()
        in_place = m.copy()
        assert unit_rows(in_place, out=in_place) is in_place
        assert in_place.tobytes() == alone.tobytes()


def test_unit_rows_of_live_rows_at_the_fast_path_edges_match_each_row_alone():
    # Frames whose rows are all live take one division; each row must get
    # the bits it gets alone and those of the plain quotient by its norm:
    # norms exactly at ZERO_NORM_EPS and one step above it, live rows with
    # subnormal entries, and squared norms one step below overflow. The
    # same rows beside a dead row or a row whose squared norm overflows,
    # which the general path takes, keep those bits too.
    eps = vecspace.ZERO_NORM_EPS
    big = np.nextafter(math.sqrt(np.finfo(np.float64).max), 0.0)
    assert math.isfinite(big * big)
    rng = np.random.default_rng(71)
    for dim in (1, 2, 3, 8, 128):
        edges = np.zeros((6, dim))
        edges[0, 0] = eps  # a norm of exactly ZERO_NORM_EPS
        edges[1, -1] = -np.nextafter(eps, 1.0)
        edges[2, 0] = eps
        edges[2, 1:] = 5e-324  # subnormal entries in a live row
        edges[3, 0] = big  # the largest squared norm that does not overflow
        edges[4, -1] = -big
        edges[5] = math.sqrt(np.finfo(np.float64).max / dim) * 0.999999  # spread over the row
        assert np.sqrt(np.einsum("ij,ij->i", edges[:2], edges[:2]))[0] == eps
        for n in (1, 6, 64):
            frame = np.concatenate([edges, rng.standard_normal((n, dim))
                                    * 10.0 ** rng.integers(-11, 150, size=(n, 1))])
            in_float32 = frame[np.abs(frame).max(axis=1) < 3e38].astype(np.float32)
            for matrix in (frame, frame[::-1], in_float32):
                norms = np.sqrt(np.einsum("ij,ij->i", np.float64(matrix), np.float64(matrix)))
                live = np.isfinite(norms) & (norms >= eps)
                matrix = matrix[live]
                got = unit_rows(matrix)
                want = np.float64(matrix) / norms[live][:, None]
                assert got.tobytes() == want.tobytes(), (dim, n)
                for i, row in enumerate(matrix):
                    assert got[i].tobytes() == unit_rows(row[None, :])[0].tobytes(), (dim, n, i)
                dead = np.zeros((1, dim))
                dead[0, 0] = np.nextafter(eps, 0.0)
                huge = np.full((1, dim), 1e300)
                with_dead = unit_rows(np.concatenate([dead, np.float64(matrix)]))
                assert with_dead[1:].tobytes() == got.tobytes() and not with_dead[0].any()
                with_huge = unit_rows(np.concatenate([np.float64(matrix), huge]))
                assert with_huge[:-1].tobytes() == got.tobytes(), (dim, n)
                assert with_huge[-1].tobytes() == normalize([1.0] * dim).tobytes()


def _same_or_both_nan(got, want):
    """Equal bits, except that a NaN matches any NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes() and got.dtype == want.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("blas", [True, False], ids=["blas", "einsum"])
def test_query_max_sims_on_one_block_has_the_bits_of_that_block_among_several(blas, dtype):
    # A call with one block takes its own product and clip; each block must
    # get, alone, the bits it gets inside a call of several blocks: empty
    # blocks, rows of NaN and of either infinity, a row opposite a lone
    # query row (whose maximum the clip raises to -1) and rows past 1.
    # A NaN matches any NaN: its sign and payload follow the product's order.
    rng = np.random.default_rng([89, int(blas)])
    for dim in (1, 2, 8, 128):
        for k in (1, 2, 5, 32):
            query = unit_rows(rng.standard_normal((k, dim))).astype(dtype)
            blocks = []
            for n in (0, 1, 7, 64, 512):
                rows = unit_rows(rng.standard_normal((n, dim))).astype(dtype)
                if n >= 7:
                    rows[0] = -query[0] if k == 1 else query[0]
                    rows[1] = query[-1] * dtype(1.0 + 2**-10)  # a cosine past 1
                    rows[2] = np.nan
                    rows[3] = np.inf
                    rows[4] = -np.inf
                    rows[5, 0] = -np.inf
                    rows[6] = 0.0
                blocks.append(rows)
            for order in (blocks, blocks[::-1], blocks[1:3]):
                with np.errstate(invalid="ignore", over="ignore"):
                    among = query_max_sims(query, *order, np.zeros((3, dim), dtype), blas=blas)
                    lo = 0
                    for rows in order:
                        alone = query_max_sims(query, rows, blas=blas)
                        assert alone.shape == (len(rows),)
                        got = among[lo:lo + len(rows)]
                        assert _same_or_both_nan(alone, got), (dim, k, len(rows))
                        lo += len(rows)
                assert np.all((among[~np.isnan(among)] >= -1.0) & (among[~np.isnan(among)] <= 1.0))
    with pytest.raises(DimensionError):
        query_max_sims(query, np.zeros((2, dim - 1), dtype), blas=blas)


def test_segment_means_match_np_mean_bit_for_bit():
    rng = np.random.default_rng(53)
    for length in range(1, 601):
        counts = np.array([length, 1, length, 3])
        values = rng.standard_normal(int(counts.sum())) * 10.0 ** rng.integers(-4, 4, counts.sum())
        starts = np.cumsum(counts) - counts
        want = [np.mean(values[s:s + c]) for s, c in zip(starts, counts)]
        assert segment_means(values, counts, starts).tolist() == [float(w) for w in want], length


def test_segment_means_take_explicit_starts():
    # Segments anywhere in the values, out of order and overlapping.
    rng = np.random.default_rng(61)
    values = rng.standard_normal(500)
    counts = rng.integers(1, 40, 60)
    starts = rng.integers(0, 500 - counts)
    want = [np.mean(values[s:s + c]) for s, c in zip(starts, counts)]
    assert segment_means(values, counts, starts).tolist() == [float(w) for w in want]


def test_segment_means_match_np_mean_on_shuffled_mixes_of_counts():
    # Many distinct counts in one call, shuffled, at gapped starts: around
    # the lengths where np.mean's pairwise sum changes shape (8, 128, 256).
    rng = np.random.default_rng(89)
    lengths = [*range(1, 10), *range(127, 131), *range(255, 258), 600]
    for case in range(40):
        counts = rng.permutation(np.repeat(lengths, rng.integers(1, 4, len(lengths))))
        gaps = rng.integers(0, 5, len(counts))
        starts = np.cumsum(counts + gaps) - counts
        values = rng.standard_normal(int(starts[-1] + counts[-1] + 3))
        values *= 10.0 ** rng.integers(-6, 6, len(values))
        want = np.array([np.mean(values[s:s + c]) for s, c in zip(starts, counts)])
        assert segment_means(values, counts, starts).tobytes() == want.tobytes(), case
        if not gaps.any():
            consecutive = np.cumsum(counts) - counts
            assert segment_means(values, counts, consecutive).tobytes() == want.tobytes(), case
    none = np.zeros(0, dtype=np.int64)
    assert segment_means(np.ones(3), none, np.cumsum(none) - none).shape == (0,)


def columns(n, value):
    """A frame's token columns as a memory holds them: score value + i / 10,
    grid row value and grid col i for token i."""
    return dict(scores=value + np.arange(n) / 10, grid_rows=np.full(n, int(value)),
                grid_cols=np.arange(n))


def test_row_store_pages_hold_whole_frames_and_never_rewrite_rows(monkeypatch):
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 4)
    store = RowStore(2)
    a, page_a, start_a = store.add(np.ones((3, 2)), **columns(3, 1.0))
    # No room left beside a, then a frame longer than a page.
    b, page_b, start_b = store.add(np.full((2, 2), 2.0), **columns(2, 2.0))
    c, page_c, start_c = store.add(np.full((6, 2), 3.0), **columns(6, 3.0))
    assert (start_a, start_b, start_c) == (0, 0, 0) and len({page_a, page_b, page_c}) == 3
    assert [rows for _, _, rows, _, _ in store.page_usage()] == [4, 4, 8]  # whole blocks
    assert not (a.flags.writeable or b.flags.writeable or c.flags.writeable)
    d, page_d, start_d = store.add(np.full((2, 2), 4.0), **columns(2, 4.0))
    assert (page_d, start_d) == (page_b, 2)
    store.kill(page_a, 3)  # a's and c's frames left: their pages are released
    store.kill(page_c, 6)
    assert [page for page, *_ in store.page_usage()] == [page_b]
    assert a.tolist() == [[1.0, 1.0]] * 3  # rows a view holds stay readable
    table = FrameTable()  # b's and d's frames
    table.append(2, columns(2, 2.0)["scores"], page_b, start_b, False, 2.0)
    table.append(4, columns(2, 4.0)["scores"], page_d, start_d, False, 4.0)
    tables = {None: table}
    store.compact(tables)  # no row of page b is dead
    assert [(used, live) for _, _, _, used, live in store.page_usage()] == [(4, 4)]
    store.kill(page_b, 2)  # b's frame left whole: half of page b is dead
    table.pop_oldest()
    store.compact(tables)
    page_e, start_e, span_e = table.ints[2:5, 0].tolist()
    assert page_e not in (page_b, page_c) and (start_e, span_e) == (0, 2)
    moved = store.pages[page_e]  # the columns beside the rows move with them
    assert moved.rows[:2].tolist() == d.tolist() == [[4.0, 4.0]] * 2
    assert b.tolist() == [[2.0, 2.0]] * 2 and not moved.rows.flags.writeable
    assert (moved.scores[:2].tolist(), moved.grid_rows[:2].tolist(),
            moved.grid_cols[:2].tolist()) == ([4.0, 4.1], [4, 4], [0, 1])
    assert [(rows, used, live) for _, _, rows, used, live in store.page_usage()] == [(4, 2, 2)]
    store.compact(tables)  # nothing is dead
    assert table.ints[2, 0] == page_e and [page for page, *_ in store.page_usage()] == [page_e]


def block_maxima(frame, query, block_rows, clip=True):
    """Each frame row's max product with the query, clipped to [-1, 1]
    unless clip is False, from the frame's rows at the top of zeroed
    blocks of block_rows rows, with one BLAS product per block."""
    n, dim = frame.shape
    padded = np.zeros((-(-n // block_rows) * block_rows, dim))
    padded[:n] = frame
    maxima = np.concatenate([np.empty(0)] + [np.max(query @ padded[lo:lo + block_rows].T, axis=0)
                                             for lo in range(0, len(padded), block_rows)])
    return np.clip(maxima[:n], -1.0, 1.0) if clip else maxima[:n]


def over_row_norms(maxima, rows):
    """Salience from unclipped row maxima: each divided by its row's
    np.einsum norm, then clipped to [-1, 1]; 0 for a row whose norm is
    below ZERO_NORM_EPS."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.clip(maxima / norms, -1.0, 1.0)
    scores[norms < vecspace.ZERO_NORM_EPS] = 0.0
    return scores


def block_reference(frame, query, block_rows):
    """A frame's score: the mean of its block_maxima."""
    return float(np.mean(block_maxima(frame, query, block_rows)))


def einsum_reference(frame, query):
    return float(np.mean(np.clip(np.max(np.einsum("ij,kj->ik", frame, query), axis=1), -1.0, 1.0)))


@pytest.mark.parametrize("block_rows", [1, 3, 7, 512])
def test_late_interaction_scores_are_batch_invariant(monkeypatch, block_rows):
    # A frame scored among others in a snapshot's pages gets the bits
    # late_interaction gives it alone, whether it sits inside a block,
    # straddles block edges or spans several blocks: with the BLAS block
    # product where the self-check passes, and with the einsum's bits where
    # it fails.
    rng = np.random.default_rng(block_rows)
    dim = 19
    query = QuerySpec(query_id="q", arrival_time=0.0, tokens=rng.standard_normal((3, dim)))
    twin = rng.standard_normal((5, dim))
    frames = [rng.standard_normal((int(n), dim)) for n in rng.integers(1, 12, 40)]
    frames[3] = frames[17] = frames[30] = twin
    frames.insert(9, rng.standard_normal((23, dim)))  # longer than a small block
    units = [unit_rows(frame) for frame in frames]
    entries = [FrameEntry(frame_index=i, timestamp=float(i), token_matrix=unit,
                          scores=np.zeros(len(unit)), rows=np.zeros(len(unit), dtype=np.int64),
                          cols=np.arange(len(unit)))
               for i, unit in enumerate(units)]
    bank = ProbeBank.generated(dim, n=1, seed=0)
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", block_rows)
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        blas = vecspace.blas_rows_invariant(dim, 3, block_rows)
        snapshot = TieredMemory.from_tiers(TierConfig(), bank, long=entries).freeze()
        packed = score_candidates(snapshot, query).scores
        for frame, unit, score in zip(frames, units, packed.tolist()):
            assert late_interaction(frame, query.tokens) == score
            want = (block_reference(unit, query.unit_tokens, block_rows) if blas
                    else einsum_reference(unit, query.unit_tokens))
            assert score == want, (check_fails, blas)
        assert packed[3] == packed[18] == packed[31]


def per_block_reference(pages, alive, table, query):
    """late_interaction_pages as it was written with one query_max_sims
    per block: each page's extent from its frames with np.maximum.at, and
    each frame's mean with np.mean over the maxima of its span's live rows."""
    block = vecspace.SCORE_BLOCK_ROWS
    place = {page.id: k for k, page in enumerate(pages)}
    where = np.array([place[page] for page in table[2].tolist()], dtype=np.int64)
    extent = np.zeros(len(pages), dtype=np.int64)
    np.maximum.at(extent, where, table[3] + table[4])
    scored = -(-extent // block) * block
    offsets = np.cumsum(scored) - scored
    maxima = np.empty(int(offsets[-1] + scored[-1]))
    blas = vecspace.blas_rows_invariant(query.shape[1], query.shape[0], block)
    for page, base, rows in zip(pages, offsets.tolist(), scored.tolist()):
        for lo in range(0, rows, block):
            sims = (query @ page.rows[lo:lo + block].T if blas
                    else np.einsum("kj,ij->ki", query, page.rows[lo:lo + block]))
            out = np.maximum.reduce(sims, axis=0, out=maxima[base + lo:base + lo + block])
            np.clip(out, -1.0, 1.0, out=out)
    return np.array([np.mean(maxima[base + start:base + start + span]
                             [alive[k][start:start + span]])
                     for k, base, start, span in zip(where.tolist(), offsets[where].tolist(),
                                                     table[3].tolist(), table[4].tolist())])


def random_pages(rng, dim, block_rows):
    """Frames in a RowStore's pages, some of them dropped and some trimmed
    in place, with one frame longer than two blocks: the held pages, their
    live flags and the frames' int rows (frame_index, count, page, start,
    span), as a snapshot holds them."""
    store = RowStore(dim)
    held = []
    sizes = rng.integers(1, block_rows + 1, int(rng.integers(3, 30))).tolist()
    sizes.insert(int(rng.integers(0, len(sizes))), 2 * block_rows + int(rng.integers(1, block_rows)))
    for n in sizes:
        group = int(rng.integers(0, 2))
        rows = unit_rows(rng.standard_normal((n, dim)))
        if rng.random() < 0.1:
            rows[int(rng.integers(0, n))] = 0.0  # the zero sentinel
        _, page, start = store.add(rows, group, **columns(n, rng.random()))
        held.append((page, start, n))
    kept = [frame for frame in held if frame[2] > block_rows or rng.random() < 0.8]
    for page, start, n in held:
        if (page, start, n) not in kept:
            store.kill(page, n)
    table = []
    for i, (page, start, n) in enumerate(kept):
        count = n
        # Trimmed in place: some rows, never all, dead; the longest frame always.
        if n > 1 and (n > block_rows or rng.random() < 0.3):
            dead = rng.choice(n, int(rng.integers(1, n)), replace=False)
            store.kill(page, len(dead), start + dead)
            count = n - len(dead)
        table.append([i, count, page, start, n])
    pages, alive = store.share()
    return pages, alive, np.array(table, dtype=np.int64).T.copy()


@pytest.mark.parametrize("block_rows", [5, 64, 512])
def test_late_interaction_pages_match_the_per_block_loop(monkeypatch, block_rows):
    # One product buffer, one maximum and one clip give every byte of one
    # query_max_sims per block, on the BLAS path and on the einsum fallback,
    # with the pages in any order.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng([block_rows, 83])
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        for case in range(12):
            dim = int(rng.choice([3, 16, 128]))
            pages, alive, table = random_pages(rng, dim, block_rows)
            assert any(page.rows.shape[0] > 2 * block_rows for page in pages)
            assert len(pages) > 1 and (table[1] < table[4]).any()
            query = unit_rows(rng.standard_normal((int(rng.integers(1, 4)), dim)))
            query[0] = pages[0].rows[0]  # a cosine of 1 up to rounding, where the clip acts
            got = vecspace.late_interaction_pages(pages, alive, table, query)
            want = per_block_reference(pages, alive, table, query)
            assert got.tobytes() == want.tobytes(), (check_fails, case)
            for order in (np.arange(len(pages))[::-1], rng.permutation(len(pages))):
                shuffled = vecspace.late_interaction_pages(
                    [pages[k] for k in order], [alive[k] for k in order], table, query)
                assert shuffled.tobytes() == got.tobytes(), (check_fails, case, order)
            with pytest.raises(DimensionError):
                vecspace.late_interaction_pages(pages, alive, table, query[:, 1:])


def per_frame_live_scores(store, pages, starts, spans):
    """RowStore.live_scores as it was written, one frame at a time."""
    alive, scores = [], []
    for page, lo, n in zip(pages.tolist(), starts.tolist(), spans.tolist()):
        page = store.pages[page]
        alive.append(page.alive[lo:lo + n])
        scores.append(page.scores[lo:lo + n])
    live = np.concatenate(alive).nonzero()[0]
    return np.concatenate(scores)[live], live


def test_live_scores_read_page_by_page_give_the_per_frame_loop_bits(monkeypatch):
    # The low band's refill gathers a tier's live scores page by page; it
    # must give the scores and places of the frame-by-frame loop, bit for
    # bit, on frames trimmed in place and frames moved to another page, out
    # of page order, and on each frame alone.
    monkeypatch.setattr(vecspace, "SCORE_BLOCK_ROWS", 8)
    rng = np.random.default_rng(131)
    seen = set()
    for case in range(40):
        store = RowStore(3)
        frames = []  # [page, start, span, count] of each frame, oldest first
        for n in rng.integers(1, 20, int(rng.integers(2, 40))).tolist():
            rows = unit_rows(rng.standard_normal((n, 3)))
            _, page, start = store.add(rows, 0, **columns(n, rng.standard_normal()))
            frames.append([page, start, n, n])
        for frame in frames:
            page, start, span, count = frame
            if span > 1 and rng.random() < 0.4:
                dead = rng.choice(span, int(rng.integers(1, span)), replace=False)
                store.kill(page, len(dead), start + dead)
                frame[3] = count - len(dead)
                seen.add("trimmed")
        if rng.random() < 0.7:
            page = frames[int(rng.integers(0, len(frames)))][0]
            moved = [frame for frame in frames if frame[0] == page]
            alive = store.pages[page].alive
            rows = np.concatenate([lo + alive[lo:lo + span].nonzero()[0]
                                   for _, lo, span, _ in moved])
            new_page, start = store.move(page, rows)
            store.kill(page, len(rows))
            for frame in moved:
                frame[:] = [new_page, start, frame[3], frame[3]]
                start += frame[3]
            seen.add("moved")
        pages, starts, spans, _ = np.array(frames, dtype=np.int64).T.copy()
        if (np.diff(pages) < 0).any():
            seen.add("out of page order")
        got = store.live_scores(pages, starts, spans)
        want = per_frame_live_scores(store, pages, starts, spans)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], case
        for i in range(len(frames)):
            one = [column[i:i + 1] for column in (pages, starts, spans)]
            got = store.live_scores(*one)
            want = per_frame_live_scores(store, *one)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (case, i)
    assert seen == {"trimmed", "moved", "out of page order"}


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
    assert vecspace.query_max_sims(query, rows).tobytes() == want.tobytes()
    with pytest.raises(DimensionError):
        vecspace.query_max_sims(query, rows[:, :7])
    with pytest.raises(DimensionError):
        vecspace.query_max_sims(query, rows, rows[:, :7])


@pytest.mark.parametrize("dim", [1, 8, 128])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("blas", [True, False], ids=["blas", "einsum"])
def test_query_max_sims_gives_each_of_several_blocks_its_bits_alone(blas, dtype, dim):
    # One kernel call over many blocks gives each block's rows, bit for bit,
    # what it gives that block alone, in either order of the blocks. On the
    # einsum fallback those are also the bits of the einsum spelling the
    # kernel used to take, with the query first.
    rng = np.random.default_rng([dim, 89])
    for k in (1, 2, 5):
        query = unit_rows(rng.standard_normal((k, dim))).astype(dtype)
        blocks = [unit_rows(rng.standard_normal((n, dim))).astype(dtype)
                  for n in (1, 31, 32, 33, 64, 512)]
        blocks[2][7] = query[0]  # a cosine of 1 up to rounding, where the clip acts
        blocks[3][0] = 0.0  # the zero sentinel
        for order in (blocks, blocks[::-1]):
            got = vecspace.query_max_sims(query, *order, blas=blas)
            assert got.dtype == dtype and got.shape == (sum(len(rows) for rows in order),)
            lo = 0
            for rows in order:
                alone = vecspace.query_max_sims(query, rows, blas=blas)
                assert got[lo:lo + len(rows)].tobytes() == alone.tobytes(), (k, len(rows))
                if not blas:
                    einsum = np.einsum("kj,ij->ki", query, rows)
                    want = np.clip(np.maximum.reduce(einsum, axis=0), -1.0, 1.0)
                    assert alone.tobytes() == want.tobytes(), (k, len(rows))
                lo += len(rows)


def test_query_max_sims_gives_max_sim_rows_the_old_einsum_bits(monkeypatch):
    # Salience takes its unclipped row maxima from the kernel under
    # query_max_sims. Through its einsum fallback, where the self-check
    # fails, they have the bits of the probe-major einsum and maximum that
    # max_sim_rows took itself; where it holds, those of each zero-padded
    # 64-row block's BLAS product and maximum. Each is then divided by its
    # row's einsum norm and clipped. A row equal to a probe (a cosine of 1
    # up to rounding, where the clip acts) and a zero row are among them.
    for check_fails in (False, True):
        if check_fails:
            monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
        rng = np.random.default_rng(97)
        shapes = [(0, 8, 3), (1, 1, 1), (33, 8, 5), (512, 128, 5), (64, 129, 16)]
        shapes += [(int(rng.integers(1, 600)), int(rng.integers(1, 160)), int(rng.integers(1, 12)))
                   for _ in range(40)]
        for n, dim, probes in shapes:
            bank = ProbeBank([rng.standard_normal(dim) for _ in range(probes)])
            units = unit_rows(rng.standard_normal((n, dim)))
            if n > 1:
                units[0] = bank.matrix[0]
                units[-1] = 0.0
            if vecspace.blas_rows_invariant(dim, probes, vecspace.SALIENCE_BLOCK_ROWS):
                maxima = block_maxima(units, bank.matrix, vecspace.SALIENCE_BLOCK_ROWS, clip=False)
            else:
                maxima = np.maximum.reduce(np.einsum("ij,kj->ki", units, bank.matrix), axis=0)
            want = over_row_norms(maxima, units)
            got = vecspace.max_sim_rows(units, bank)
            assert got.tobytes() == want.tobytes(), (check_fails, n, dim, probes)



def test_salience_einsum_fallback_takes_one_einsum_per_frame(monkeypatch):
    # Where the self-check fails, salience passes a frame's rows whole to
    # one probe einsum, which takes each dot product alone: every row keeps
    # the bits max_sim gives it alone, on frames shorter than, at and past
    # a SALIENCE_BLOCK_ROWS block.
    monkeypatch.setattr(vecspace, "blas_rows_invariant", lambda *shape: False)
    products = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        if subscripts == "ij,kj->ki":
            products.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    rng = np.random.default_rng(61)
    for n, dim, probes in [(1, 32, 5), (63, 16, 3), (64, 16, 3), (65, 128, 5), (512, 128, 5),
                           (700, 7, 2)]:
        bank = ProbeBank([rng.standard_normal(dim) for _ in range(probes)])
        rows = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0, (n, 1))
        del products[:]
        got = vecspace.max_sim_rows(rows, bank)
        assert products == [n], (n, dim)
        want = np.array([max_sim(row, bank) for row in rows])
        assert got.tobytes() == want.tobytes(), (n, dim)

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


def grid_frame(**changes):
    """A valid three-token frame of dimension 2, with the given fields replaced."""
    return FrameEntry(**{"frame_index": 0, "timestamp": 0.0, "token_matrix": np.ones((3, 2)),
                         "scores": np.ones(3), "rows": np.zeros(3, dtype=np.int64),
                         "cols": np.arange(3), **changes})


@pytest.mark.parametrize("build, error, message", [
    (lambda: grid_frame(token_matrix=np.ones(3)), DimensionError,
     "token_matrix must be 2-D, got shape (3,)"),
    (lambda: grid_frame(frame_index=-1), ValidationError, "frame_index must be non-negative"),
    (lambda: ProbeBank([[1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]]), DimensionError,
     "probe 1 must be a 1-D vector, got shape (2, 2)"),
    (lambda: late_interaction(np.ones((1, 2, 2)), [[1.0, 0.0]]), DimensionError,
     "frame_tokens must be 1-D vectors, got shape (1, 2, 2)"),
], ids=["1-D token_matrix", "negative frame_index", "2-D probe", "3-D frame tokens"])
def test_input_checks_name_the_shape_or_value_at_fault(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


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


@pytest.mark.parametrize("dim, length", [("2", 2), (True, 1), (8.7, 8), ("x", 2)])
def test_probe_file_dim_must_be_an_integer(tmp_path, dim, length):
    # int() took "2", read true as 1 and truncated 8.7; "x" was a bare ValueError.
    path = tmp_path / "probes.json"
    path.write_text(json.dumps({"dim": dim, "probes": [{"vector": [1.0] * length}]}))
    with pytest.raises(ValidationError, match=f"probe file {path}: dim must be an integer"):
        ProbeBank.from_file(path)


@pytest.mark.parametrize(
    "kwargs, field",
    [({"dim": 4.5}, "dim"), ({"dim": 4, "n": 2.5}, "n"), ({"dim": 4, "seed": 1.5}, "seed"),
     ({"dim": -1}, "dim"), ({"dim": 4, "seed": -1}, "seed")],
)
def test_generated_bank_arguments_are_checked(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        ProbeBank.generated(**kwargs)


def test_generated_bank_deterministic():
    a = ProbeBank.generated(16, n=5, seed=42)
    b = ProbeBank.generated(16, n=5, seed=42)
    c = ProbeBank.generated(16, n=5, seed=43)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert a.labels == DEFAULT_PROBE_LABELS
    assert len(ProbeBank.generated(8, n=3, seed=0)) == 3


def frame_table(frames: int) -> FrameTable:
    """A table of frames 4-token frames, frame k at row 4k of page 0."""
    table = FrameTable()
    for k in range(frames):
        table.append(k, np.full(4, 0.1), 0, 4 * k, False, float(k))
    return table


@pytest.mark.parametrize("change", ["clear", "pop_oldest", "relocate", "trim"])
def test_frame_table_changes_leave_the_frames_a_snapshot_holds(change):
    # A snapshot holds the columns and the size as they stand, and makes
    # views of them when it reads them, here only after the next append and
    # a change. No change writes a frame below the size held: the views
    # show the frames as they stood, and the table holds the change.
    table = frame_table(1)
    ints, floats, size = table.ints, table.floats, table.size
    table.append(1, np.full(4, 0.2), 0, 4, False, 1.0)
    if change == "clear":
        table.clear()
        assert table.size == 0
    elif change == "pop_oldest":
        table.pop_oldest()
        assert table.ints[0, :table.size].tolist() == [1]
    elif change == "relocate":
        table.relocate(np.array([0, 1]), 1, 0, np.arange(8))
        assert table.ints[2:5, :table.size].tolist() == [[1, 1], [0, 4], [4, 4]]
    else:
        table.trim(np.array([2, 4]))
        assert table.ints[1, :table.size].tolist() == [2]
    assert ints[:5, :size].T.tolist() == [[0, 4, 0, 0, 4]]
    assert floats[:, :size].tolist() == [[0.0]]


@pytest.mark.parametrize("drop", ["pop_oldest", "clear"])
def test_pop_oldest_and_clear_copy_nothing(drop):
    # Both advance the columns past the frames they drop: the new columns
    # are views of the old ones, which keep every frame. A table popped or
    # cleared past its capacity appends into new columns, max(64, 2 *
    # size) of them.
    table = frame_table(3)
    ints, floats = table.ints, table.floats
    before = ints[:, :3].copy()
    getattr(table, drop)()
    assert np.shares_memory(table.ints, ints) and np.shares_memory(table.floats, floats)
    assert ints[:, :3].tobytes() == before.tobytes()
    assert table.ints[0, :table.size].tolist() == ([1, 2] if drop == "pop_oldest" else [])
    table = frame_table(64)
    for _ in range(64 if drop == "pop_oldest" else 1):
        getattr(table, drop)()
    assert table.size == 0 and table.ints.shape[1] == 0
    table.append(64, np.full(3, 0.2), 1, 8, True, 64.0)
    assert table.ints.shape == (6, 64) and table.floats.shape == (1, 64)
    assert table.ints[:, :1].T.tolist() == [[64, 3, 1, 8, 3, 1]] and table.floats[0, 0] == 64.0
    table = frame_table(64)
    for _ in range(10):
        table.pop_oldest()
    table.append(64, np.full(4, 0.1), 0, 256, False, 64.0)
    assert table.ints.shape[1] == 108
    assert table.ints[0, :table.size].tolist() == list(range(10, 65))


def test_frame_table_growth_and_trim_write_new_columns():
    # Growing writes the frames into new columns, max(64, 2 * size) of
    # them, and so does a trim, whether or not it empties a frame: the
    # columns held before keep the counts they had.
    table = frame_table(64)
    ints = table.ints
    table.append(64, np.full(4, 0.1), 1, 0, False, 64.0)
    grown = table.ints
    assert not np.shares_memory(grown, ints) and grown.shape[1] == 128
    assert grown[:, :64].tobytes() == ints.tobytes()
    table.trim(np.array([2] + [0] * 64))
    trimmed = table.ints
    assert not np.shares_memory(trimmed, grown) and trimmed.shape[1] == 130
    assert table.ints[1, 0] == 2 and grown[1, 0] == 4
    table.trim(np.array([2] + [0] * 64))
    assert not np.shares_memory(table.ints, trimmed) and trimmed[1, 0] == 2
    assert table.size == 64 and table.ints[0, :64].tolist() == list(range(1, 65))
    assert table.floats[0, :64].tolist() == [float(k) for k in range(1, 65)]

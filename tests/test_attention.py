"""Attention layer tests: forward values, oracle equivalence, causality,
and the hand-written backward pass against finite differences."""

import dataclasses

import numpy as np
import pytest

from sasoftmax import (
    ALL_KINDS,
    AttentionInput,
    CacheMismatch,
    NonFiniteInput,
    OddHeadDim,
    ShapeMismatch,
    VariantKind,
    attention_backward,
    attention_forward,
    causal_mask,
    rope_rotate,
    rope_rotate_back,
    scaled_scores,
    variant_weight_vjp,
)

from sasoftmax.attention import rope_tables
from sasoftmax.jacobians import _tie_rows

from oracle_matrix import reference_attention

KIND_NAMES = {
    VariantKind.BASELINE: "softmax",
    VariantKind.V1: "v1",
    VariantKind.V2: "v2",
    VariantKind.V3: "v3",
    VariantKind.V4: "v4",
}


class TestScaledScores:
    def test_identity_projections(self):
        z = scaled_scores(np.eye(2), np.eye(2))
        np.testing.assert_allclose(z, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_zero_queries_pass_bias_through(self):
        bias = np.array([[1.0, 0.0], [2.0, 3.0]])
        z = scaled_scores(np.zeros((2, 2)), np.ones((2, 2)), bias=bias)
        np.testing.assert_array_equal(z, bias)
        z0 = scaled_scores(np.zeros((2, 2)), np.ones((2, 2)))
        np.testing.assert_array_equal(z0, np.zeros((2, 2)))

    def test_single_dot_product(self):
        z = scaled_scores(np.array([[1.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert abs(z[0, 0] - 2.1213203435596424) <= 1e-12  # 3/sqrt(2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            scaled_scores(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            scaled_scores(np.zeros((2, 2)), np.zeros((2, 2)), bias=np.zeros((3, 3)))


class TestRope:
    def test_position_zero_unchanged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        np.testing.assert_array_equal(rope_rotate(x)[0], x[0])

    def test_one_radian_rotation(self):
        # d = 2 gives frequency 1, so position 1 rotates by exactly 1 radian
        x = np.array([[0.7, -0.2], [1.0, 2.0]])
        got = rope_rotate(x)[1]
        expected = [np.cos(1.0) - 2.0 * np.sin(1.0), np.sin(1.0) + 2.0 * np.cos(1.0)]
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(17, 10))
        r = rope_rotate(x)
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), np.linalg.norm(x, axis=1),
                                   rtol=0, atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(OddHeadDim):
            rope_rotate(np.zeros((3, 5)))

    def test_backward_is_inverse_rotation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 6))
        np.testing.assert_allclose(rope_rotate_back(rope_rotate(x)), x, atol=1e-12)

    def test_backward_is_transposed_rotation_bitwise(self):
        # the written-out pullback, signed zeros included
        rng = np.random.default_rng(4)
        g = rng.normal(size=(2, 9, 6))
        g[..., ::4] = 0.0
        g[..., 1::5] = -0.0
        cos, sin = rope_tables(9, 6)
        want = np.empty_like(g)
        want[..., 0::2] = g[..., 0::2] * cos + g[..., 1::2] * sin
        want[..., 1::2] = -g[..., 0::2] * sin + g[..., 1::2] * cos
        assert rope_rotate_back(g).tobytes() == want.tobytes()


class TestRopeTables:
    def test_match_the_formula(self):
        t, d, base = 9, 6, 500.0
        angles = np.array([[p * base ** (-2 * m / d) for m in range(d // 2)] for p in range(t)])
        cos, sin = rope_tables(t, d, base)
        np.testing.assert_allclose(cos, np.cos(angles), rtol=0, atol=1e-12)
        np.testing.assert_allclose(sin, np.sin(angles), rtol=0, atol=1e-12)
        # and bit for bit as the tables were computed before they were shared
        inv_freq = base ** (-np.arange(0, d, 2, dtype=np.float64) / d)
        angles = np.arange(t, dtype=np.float64)[:, None] * inv_freq[None, :]
        assert cos.tobytes() == np.cos(angles).tobytes()
        assert sin.tobytes() == np.sin(angles).tobytes()

    def test_shared_and_read_only(self):
        cos, sin = rope_tables(7, 4, 100.0)
        again = rope_tables(7, 4, 100.0)
        assert again[0] is cos and again[1] is sin
        for table in (cos, sin):
            with pytest.raises(ValueError, match="read-only"):
                table[1, 0] = 0.0
        assert cos[1, 0] == np.cos(1.0)

    def test_base_is_part_of_the_key(self):
        cos, sin = rope_tables(7, 4, 100.0)
        other = rope_tables(7, 4, 1000.0)
        assert not np.array_equal(other[0], cos) and not np.array_equal(other[1], sin)

    def test_rotation_unchanged(self):
        # the elementwise formula the rotation was written from, bit for bit;
        # test_backward_is_transposed_rotation_bitwise does the same for the
        # pullback
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 9, 6))
        inv_freq = 10000.0 ** (-np.arange(0, 6, 2, dtype=np.float64) / 6)
        angles = np.arange(9, dtype=np.float64)[:, None] * inv_freq[None, :]
        cos, sin = np.cos(angles), np.sin(angles)
        want = np.empty_like(x)
        want[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        want[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        assert rope_rotate(x).tobytes() == want.tobytes()


class TestCausalMask:
    def test_lower_triangular(self):
        np.testing.assert_array_equal(causal_mask(4), np.tril(np.ones((4, 4), dtype=bool)))

    def test_shared_and_read_only(self):
        mask = causal_mask(5)
        assert causal_mask(5) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = True
        assert not mask[0, 1]


class TestForward:
    def test_singleton_v4_returns_value_row(self):
        q = np.array([[2.0, 1.0]])
        k = np.array([[1.0, 1.0]])  # z00 = 3/sqrt(2) > 0, so the v4 scaler is ~1
        v = np.array([[5.0, -3.0]])
        out, _ = attention_forward(AttentionInput(q, k, v, kind=VariantKind.V4))
        np.testing.assert_allclose(out[0], v[0], rtol=1e-9)

    def test_identity_values_read_out_weights(self):
        rng = np.random.default_rng(4)
        t = 4
        q, k = rng.normal(size=(2, t, t))
        out, cache = attention_forward(AttentionInput(q, k, np.eye(t)))
        np.testing.assert_array_equal(out, cache.weights)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_matrix_reference(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = int(rng.integers(1, 17))
            d = int(rng.integers(1, 9))
            q, k, v = rng.normal(0, 1.5, size=(3, t, d))
            out, _ = attention_forward(AttentionInput(q, k, v, kind=kind))
            expected = reference_attention(q, k, v, KIND_NAMES[kind])
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

        # a (B, T, d) stack: every slice matches its own 2-D call and the reference
        q, k, v = rng.normal(0, 1.5, size=(3, 4, 9, 6))
        out, cache = attention_forward(AttentionInput(q, k, v, kind=kind))
        assert out.shape == (4, 9, 6) and cache.weights.shape == (4, 9, 9)
        for b in range(4):
            single, _ = attention_forward(AttentionInput(q[b], k[b], v[b], kind=kind))
            np.testing.assert_allclose(out[b], single, rtol=0, atol=1e-14)
            expected = reference_attention(q[b], k[b], v[b], KIND_NAMES[kind])
            np.testing.assert_allclose(out[b], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_causality_exact(self, kind):
        rng = np.random.default_rng(5)
        t, d = 6, 3
        q, k, v = rng.normal(size=(3, t, d))
        out, _ = attention_forward(AttentionInput(q, k, v, kind=kind))
        for j in range(1, t):
            v2 = v.copy()
            v2[j] += rng.normal(size=d) * 10
            out2, _ = attention_forward(AttentionInput(q, k, v2, kind=kind))
            assert np.all(out[:j] == out2[:j])

    def test_baseline_output_in_convex_hull(self):
        rng = np.random.default_rng(6)
        t, d = 5, 2
        q, k, v = rng.normal(size=(3, t, d))
        out, cache = attention_forward(AttentionInput(q, k, v))
        for i in range(t):
            w = cache.weights[i, : i + 1]
            assert np.all(w >= 0) and abs(w.sum() - 1) <= 1e-12
            lo = v[: i + 1].min(axis=0) - 1e-12
            hi = v[: i + 1].max(axis=0) + 1e-12
            assert np.all(out[i] >= lo) and np.all(out[i] <= hi)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(NonFiniteInput):
            attention_forward(AttentionInput(bad, bad, bad))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            attention_forward(AttentionInput(np.zeros((2, 2)), np.zeros((2, 2)),
                                             np.zeros((3, 2))))
        with pytest.raises(ShapeMismatch):
            attention_forward(AttentionInput(np.zeros(2), np.zeros(2), np.zeros(2)))

    def test_batched_bias_shape_mismatch(self):
        q = np.zeros((2, 3, 4))
        for bad in (np.zeros((3, 3)), np.zeros((2, 3, 4)), np.zeros((3, 3, 3))):
            with pytest.raises(ShapeMismatch):
                attention_forward(AttentionInput(q, q, q, bias=bad))


def loss_and_grads(q, k, v, kind, bias=None, rope=False):
    """Scalar probe loss L = sum(out^2) and its analytic input gradients."""
    inp = AttentionInput(q, k, v, kind=kind, bias=bias, rope=rope)
    out, cache = attention_forward(inp)
    grads = attention_backward(cache, 2.0 * out)
    return float(np.sum(out * out)), grads


def slice_loss_and_grads(q, k, v, kind, b, rope=False):
    """Probe loss L = sum(out[b]^2) of one slice of a batched layer and its
    analytic input gradients for the whole stack."""
    out, cache = attention_forward(AttentionInput(q, k, v, kind=kind, rope=rope))
    d_out = np.zeros_like(out)
    d_out[b] = 2.0 * out[b]
    return float(np.sum(out[b] * out[b])), attention_backward(cache, d_out)


def near_tie(scores, kind, h=1e-6):
    """True if an FD step h on (..., T, T) causal logits could cross an
    extrema tie (or, for v4, flip a clamp branch) in any live prefix row,
    by gradcheck's tie rule."""
    return any(_tie_rows(scores[..., i, :i + 1].reshape(-1, i + 1), kind, h).any()
               for i in range(scores.shape[-1]))


def fd_input_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = f()
        flat[i] = orig - h
        lm = f()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * h)
    return g


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(7)
        q, k, v = rng.normal(size=(3, 4, 3))
        _, cache = attention_forward(AttentionInput(q, k, v, kind=VariantKind.V2))
        grads = attention_backward(cache, np.zeros((4, 3)))
        assert np.all(grads.dq == 0) and np.all(grads.dk == 0) and np.all(grads.dv == 0)

    def test_baseline_singleton(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -1.0]])
        v = np.array([[3.0, 4.0]])
        _, cache = attention_forward(AttentionInput(q, k, v))
        d_out = np.array([[1.0, -1.0]])
        grads = attention_backward(cache, d_out)
        assert np.all(grads.dq == 0) and np.all(grads.dk == 0)
        np.testing.assert_array_equal(grads.dv, d_out)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_leaves_inputs_and_cache_unchanged(self, kind):
        def cached_bytes(cache):
            fields = [getattr(cache, f.name) for f in dataclasses.fields(cache)]
            return [a.tobytes() for a in (*fields, *(cache.scaler or ()))
                    if isinstance(a, np.ndarray)]

        rng = np.random.default_rng(9)
        q, k, v, d_out = rng.normal(size=(4, 2, 5, 4))
        bias = rng.normal(size=(2, 5, 5))
        arrays = (q, k, v, bias, d_out)
        before = [a.tobytes() for a in arrays]
        _, cache = attention_forward(AttentionInput(q, k, v, kind=kind, bias=bias, rope=True))
        kept = cached_bytes(cache)
        first = attention_backward(cache, d_out)
        second = attention_backward(cache, d_out)
        assert [a.tobytes() for a in arrays] == before
        assert cached_bytes(cache) == kept
        for name in ("dq", "dk", "dv", "dz"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_cache_mismatch(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.normal(size=(3, 3, 2))
        _, cache = attention_forward(AttentionInput(q, k, v))
        with pytest.raises(CacheMismatch):
            attention_backward(cache, np.zeros((4, 2)))

    # 10 instances x 5 kinds x 2 rope settings = 100 tie-free random layers,
    # plus one tie-free (B, T, d) stack per (kind, rope)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("rope", [False, True])
    def test_layer_gradcheck(self, kind, rope):
        rng = np.random.default_rng(100)
        checked = 0
        while checked < 10:
            t, d = 3, 2
            q, k, v = rng.normal(0, 1.2, size=(3, t, d))
            _, cache = attention_forward(AttentionInput(q, k, v, kind=kind, rope=rope))
            if near_tie(cache.scores, kind):
                continue
            checked += 1
            _, grads = loss_and_grads(q, k, v, kind, rope=rope)
            for arr, got in ((q, grads.dq), (k, grads.dk), (v, grads.dv)):
                fd = fd_input_grad(lambda: loss_and_grads(q, k, v, kind, rope=rope)[0], arr)
                denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-3)
                assert (np.abs(got - fd) / denom).max() < 1e-6

        while True:
            q, k, v = rng.normal(0, 1.2, size=(3, 2, 3, 2))
            _, cache = attention_forward(AttentionInput(q, k, v, kind=kind, rope=rope))
            if not near_tie(cache.scores, kind):
                break
        for b in range(2):
            _, grads = slice_loss_and_grads(q, k, v, kind, b, rope=rope)
            _, single = loss_and_grads(q[b], k[b], v[b], kind, rope=rope)
            for arr, got, ref in ((q, grads.dq, single.dq), (k, grads.dk, single.dk),
                                  (v, grads.dv, single.dv)):
                np.testing.assert_allclose(got[b], ref, rtol=0, atol=1e-14)
                assert np.all(got[1 - b] == 0.0)
                # norm-wise: the probe loss of a slice can reach ~100, and
                # central-difference round-off grows with it
                fd = fd_input_grad(
                    lambda: slice_loss_and_grads(q, k, v, kind, b, rope=rope)[0], arr[b])
                scale = max(np.abs(got[b]).max(), np.abs(fd).max(), 1e-3)
                assert np.abs(got[b] - fd).max() / scale < 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_independent_of_memory_layout(self, kind):
        rng = np.random.default_rng(103)
        q, k, v = rng.normal(size=(3, 2, 5, 4))
        d_out = rng.normal(size=(2, 5, 4))
        _, cache = attention_forward(AttentionInput(q, k, v, kind=kind, rope=True))
        want = attention_backward(cache, d_out)
        column_major = (np.asfortranarray,
                        lambda x: np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2))
        for layout in column_major:
            # every array the backward reads, the forward's factors included:
            # u has the scores' shape, and d, argmin/argmax and the gates a
            # trailing axis of length 1; the VJP scatters at argmin/argmax
            # with _sub_at
            scaler = None if cache.scaler is None else cache.scaler._replace(**{
                f: layout(a) for f, a in cache.scaler._asdict().items()
                if isinstance(a, np.ndarray)})
            moved = dataclasses.replace(cache, scaler=scaler, **{
                f: layout(getattr(cache, f)) for f in (
                    "q_rot", "k_rot", "v", "scores", "softmax", "weights", "mask", "cos", "sin")})
            assert not moved.softmax.flags.c_contiguous
            got = attention_backward(moved, layout(d_out))
            for a, b in ((got.dq, want.dq), (got.dk, want.dk), (got.dv, want.dv)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reads_same_dz_as_public_vjp(self, kind):
        # the backward's dz comes from the factors its forward kept; the
        # public variant_weight_vjp recomputes them from the scores, bitwise,
        # and the backward returns it whether or not a bias was given
        rng = np.random.default_rng(104)
        q, k, v, d_out = rng.normal(size=(4, 2, 5, 4))
        for bias in (rng.normal(size=(2, 5, 5)), None):
            _, cache = attention_forward(
                AttentionInput(q, k, v, kind=kind, bias=bias, rope=True))
            grads = attention_backward(cache, d_out)
            dz = variant_weight_vjp(cache.scores, causal_mask(5),
                                    d_out @ np.swapaxes(v, -1, -2), kind, cache.eps)
            assert np.array_equal(grads.dz, dz)
            dq = rope_rotate_back((dz @ cache.k_rot) * cache.scale, cache.rope_base)
            dk = rope_rotate_back((np.swapaxes(dz, -1, -2) @ cache.q_rot) * cache.scale,
                                  cache.rope_base)
            assert np.array_equal(grads.dq, dq) and np.array_equal(grads.dk, dk)

    def test_bias_gradient(self):
        rng = np.random.default_rng(101)
        t, d = 3, 2
        q, k, v = rng.normal(size=(3, t, d))
        bias = rng.normal(size=(t, t))
        _, cache = attention_forward(AttentionInput(q, k, v, kind=VariantKind.V3, bias=bias))
        out, _ = attention_forward(AttentionInput(q, k, v, kind=VariantKind.V3, bias=bias))
        grads = attention_backward(cache, 2.0 * out)
        fd = fd_input_grad(
            lambda: loss_and_grads(q, k, v, VariantKind.V3, bias=bias)[0], bias)
        # with a bias, the logit gradient dz is the bias gradient
        denom = np.maximum(np.maximum(np.abs(grads.dz), np.abs(fd)), 1e-3)
        assert (np.abs(grads.dz - fd) / denom).max() < 1e-6
        assert np.all(grads.dz[np.triu_indices(t, 1)] == 0.0)

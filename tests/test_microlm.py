"""Micro-LM tests: corpus handling, exact gradients, Adam, determinism,
training behavior, perplexity, and checkpoint round-trips."""

import collections
import dataclasses
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sasoftmax import attention, microlm, variants
from sasoftmax import (
    ALL_KINDS,
    CheckpointError,
    CorpusTooSmall,
    NonFiniteGradient,
    NonFiniteInput,
    ShapeMismatch,
    TextTooShort,
    TrainConfig,
    UnknownSymbol,
    VariantKind,
    Vocabulary,
    adam_step,
    attention_backward,
    attention_maps,
    backward,
    evaluate_ppl,
    forward_loss,
    global_grad_norm,
    init_adam,
    init_params,
    load_checkpoint,
    load_corpus,
    metrics_to_csv,
    save_checkpoint,
    train,
)
from sasoftmax.microlm import (
    _EVAL_CHUNK_POSITIONS,
    _gelu,
    _layer_norm_backward,
    param_names,
    sample_windows,
)

from test_attention import fd_input_grad


def array_hashes(obj, path="") -> dict[str, bytes]:
    """The sha256 of the bytes of every array reachable from obj, by path,
    through dicts, lists, tuples (named ones too) and dataclasses."""
    if isinstance(obj, np.ndarray):
        return {path: hashlib.sha256(obj.tobytes()).digest()}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif dataclasses.is_dataclass(obj):
        items = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(array_hashes(value, f"{path}/{key}"))
    return out


def tiny_config(corpus, **overrides):
    base = dict(corpus_path=str(corpus), kind=VariantKind.BASELINE, layers=1,
                d_model=8, seq_len=4, batch=2, steps=5, lr=1e-3, seed=0, rope=True)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("eps", 0.0), ("eps", -1.0), ("eps", float("nan")), ("lr", 0.0), ("lr", -1.0),
        ("lr", float("inf")), ("adam_eps", 0.0), ("rope_base", 0.0), ("init_std", -1.0),
        ("init_std", float("nan")), ("seed", -1), ("steps", -1), ("layers", 0),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(corpus_path="", **{field: value})

    def test_zero_init_std_accepted(self):
        assert TrainConfig(corpus_path="", init_std=0.0).init_std == 0.0


class TestCorpus:
    def test_abab(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abab")
        tokens, vocab = load_corpus(path)
        assert vocab.byte_values == (ord("a"), ord("b"))
        np.testing.assert_array_equal(tokens, [0, 1, 0, 1])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CorpusTooSmall):
            load_corpus(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.txt")

    def test_vocab_counts_distinct_bytes(self, corpus_path):
        # independent count via a plain python set over the raw bytes
        raw = corpus_path.read_bytes()
        _, vocab = load_corpus(corpus_path)
        assert vocab.size == len(set(raw))

    def test_encode_rejects_unknown_byte(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abab")
        _, vocab = load_corpus(path)
        with pytest.raises(UnknownSymbol):
            vocab.encode(b"abcz")

    def test_decode_round_trip(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("hello world")
        tokens, vocab = load_corpus(path)
        assert vocab.decode(tokens) == b"hello world"


class TestForwardLoss:
    def test_initial_loss_near_log_vocab(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, d_model=16, seq_len=16, batch=4)
        rng = np.random.default_rng(0)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        loss, _ = forward_loss(params, inputs, targets, cfg)
        assert abs(loss - np.log(vocab.size)) <= 0.1 * np.log(vocab.size)

    def test_bit_identical_repeat(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path)
        rng = np.random.default_rng(1)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        a, _ = forward_loss(params, inputs, targets, cfg)
        b, _ = forward_loss(params, inputs, targets, cfg)
        assert a == b

    def test_cache_keys_read_by_benchmark(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=2)
        rng = np.random.default_rng(0)
        params = init_params(cfg, vocab.size, rng)
        _, cache = forward_loss(params, *sample_windows(tokens, 4, 2, rng), cfg)
        assert cache["mask"] is cache["layers"][0]["attn"].mask
        for layer in cache["layers"]:
            assert layer["z"] is layer["attn"].scores

    def test_v4_step_computes_each_factor_once(self, corpus_path, monkeypatch):
        # the backward reads the softmax, scaler and RoPE tables its forward
        # kept: one of each per layer (recomputing them would make 4 / 4 / 8)
        counts = collections.Counter()
        for owner, name in ((variants, "masked_softmax"), (variants, "masked_extrema"),
                            (attention, "rope_tables")):
            fn = getattr(owner, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for mod in (variants, attention, microlm):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted)
        tokens, vocab = load_corpus(corpus_path)
        cfg = TrainConfig(corpus_path=str(corpus_path), kind=VariantKind.V4)
        rng = np.random.default_rng(0)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        backward(forward_loss(params, inputs, targets, cfg)[1])
        assert cfg.layers == 2
        assert counts == {"masked_softmax": 2, "masked_extrema": 2, "rope_tables": 2}

    def test_shape_mismatch(self, corpus_path):
        _, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path)
        params = init_params(cfg, vocab.size, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            forward_loss(params, np.zeros((2, 4), dtype=int), np.zeros((2, 5), dtype=int), cfg)


class TestBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_einsum_reference(self, kind):
        cfg = TrainConfig(corpus_path="", kind=kind, layers=2, d_model=8, seq_len=6,
                          batch=3, seed=0, rope=True)
        vocab_size = 5
        rng = np.random.default_rng(11)
        params = init_params(cfg, vocab_size, rng)
        for n in params:
            if params[n].ndim == 2:
                params[n] = params[n] * 20.0
        # 18 positions over 5 ids: the embed scatter must add up repeated rows;
        # the column stride makes the inputs a non-contiguous view
        wide = rng.integers(0, vocab_size, (3, 12))
        inputs = wide[:, ::2]
        assert not inputs.flags.c_contiguous
        assert np.bincount(inputs.ravel()).max() > 1
        targets = rng.integers(0, vocab_size, (3, 6))
        _, cache = forward_loss(params, inputs, targets, cfg)
        got = backward(cache)
        want = einsum_backward(cache)
        assert list(got) == param_names(cfg) and set(want) == set(got)
        for name in got:
            scale = np.abs(want[name]).max()
            assert scale > 0, name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_writes_no_input_or_cache_array(self, corpus_path, kind):
        # the elementwise kernels work in place only on arrays they made
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, kind=kind, layers=2, batch=3, seq_len=6,
                          init_std=0.5)
        rng = np.random.default_rng(5)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        before_forward = array_hashes([params, inputs, targets])
        _, cache = forward_loss(params, inputs, targets, cfg)
        assert array_hashes([params, inputs, targets]) == before_forward
        before = array_hashes(cache)
        # params, inputs, targets, hf, lnf, probs and each layer's entries
        assert len(before) > 50
        first = backward(cache)
        second = backward(cache)
        assert array_hashes(cache) == before
        assert all(first[n].tobytes() == second[n].tobytes() for n in first)

    def test_gradient_linearity_over_batch_halves(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, batch=4, kind=VariantKind.V2)
        rng = np.random.default_rng(2)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, 4, rng)
        _, cache = forward_loss(params, inputs, targets, cfg)
        g_full = backward(cache)
        _, cache_a = forward_loss(params, inputs[:2], targets[:2], cfg)
        _, cache_b = forward_loss(params, inputs[2:], targets[2:], cfg)
        g_a = backward(cache_a)
        g_b = backward(cache_b)
        for name in g_full:
            np.testing.assert_allclose(g_full[name], 0.5 * (g_a[name] + g_b[name]),
                                       rtol=0, atol=1e-12)


def einsum_backward(cache):
    """The trainer's backward as it was written with np.einsum weight
    gradients and an np.add.at embed scatter: the reference for the 2-D
    matmul form, which sums the same products in another order."""
    cfg = cache["cfg"]
    params = cache["params"]
    inputs = cache["inputs"]
    b, t = inputs.shape
    dlogits = cache["probs"].copy()
    dlogits[np.arange(b)[:, None], np.arange(t)[None, :], cache["targets"]] -= 1.0
    dlogits /= b * t
    grads = {"embed": np.einsum("btv,btd->vd", dlogits, cache["hf"])}
    dx, grads["lnf.g"], grads["lnf.b"] = _layer_norm_backward(
        dlogits @ params["embed"], params["lnf.g"], cache["lnf"])
    for i in reversed(range(cfg.layers)):
        pre = f"h{i}."
        ctx = cache["layers"][i]
        grads[pre + "w2"] = np.einsum("btk,btd->kd", ctx["h"], dx)
        dh_pre = (dx @ params[pre + "w2"].T) * ctx["dgelu"]
        grads[pre + "w1"] = np.einsum("btd,btk->dk", ctx["m_in"], dh_pre)
        dln2, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = _layer_norm_backward(
            dh_pre @ params[pre + "w1"].T, params[pre + "ln2.g"], ctx["ln2"])
        dx_mid = dx + dln2
        grads[pre + "wo"] = np.einsum("btd,bte->de", ctx["att"], dx_mid)
        g = attention_backward(ctx["attn"], dx_mid @ params[pre + "wo"].T)
        da = g.dq @ params[pre + "wq"].T + g.dk @ params[pre + "wk"].T + g.dv @ params[pre + "wv"].T
        for name, dw in (("wq", g.dq), ("wk", g.dk), ("wv", g.dv)):
            grads[pre + name] = np.einsum("btd,bte->de", ctx["a"], dw)
        dln1, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = _layer_norm_backward(
            da, params[pre + "ln1.g"], ctx["ln1"])
        dx = dx_mid + dln1
    np.add.at(grads["embed"], inputs.reshape(-1), dx.reshape(-1, cfg.d_model))
    return grads


def model_fd_worst_rel(kind, seed=3, h=1e-5):
    """Whole-model central-difference check at the tiny size; returns the
    worst relative error over every parameter entry."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(corpus_path="", kind=kind, layers=1, d_model=8, seq_len=4,
                      batch=1, seed=seed, rope=True)
    vocab_size = 5
    params = init_params(cfg, vocab_size, rng)
    # scale weights up so attention logits are away from 0 and extrema gaps
    # are wide (keeps the FD stencil off tie boundaries)
    for n in params:
        if params[n].ndim == 2:
            params[n] = params[n] * 20.0
    inputs = rng.integers(0, vocab_size, (1, 4))
    targets = rng.integers(0, vocab_size, (1, 4))
    _, cache = forward_loss(params, inputs, targets, cfg)
    grads = backward(cache)
    worst = 0.0
    for name in param_names(cfg):
        fd = fd_input_grad(lambda: forward_loss(params, inputs, targets, cfg)[0],
                           params[name], h=h).reshape(-1)
        a = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
        worst = max(worst, float((np.abs(a - fd) / denom).max()))
    return worst


class TestLayerNorm:
    def test_leaves_arguments_unchanged(self):
        rng = np.random.default_rng(6)
        x, dy = rng.normal(size=(2, 3, 4, 5))
        gain, bias = rng.normal(size=(2, 5))
        before = array_hashes([x, dy, gain, bias])
        y, ctx = microlm._layer_norm(x, gain, bias)
        kept = array_hashes(ctx)
        _layer_norm_backward(dy, gain, ctx)
        assert array_hashes([x, dy, gain, bias]) == before
        assert array_hashes(ctx) == kept


class TestGelu:
    def test_derivative_matches_central_differences(self):
        x = np.concatenate([np.linspace(-10.0, 10.0, 801), [0.0, -1e-3, 1e-3]])
        h, dgelu = _gelu(x, keep=True)
        step = 1e-5
        fd = (_gelu(x + step, keep=False)[0] - _gelu(x - step, keep=False)[0]) / (2 * step)
        np.testing.assert_allclose(dgelu, fd, rtol=0, atol=1e-8)
        assert _gelu(np.zeros(1), keep=True)[1][0] == 0.5

    def test_eval_returns_no_derivative(self):
        x = np.linspace(-3.0, 3.0, 7)
        h, dgelu = _gelu(x, keep=False)
        assert dgelu is None
        assert h.tobytes() == _gelu(x, keep=True)[0].tobytes()

    def test_eval_form_has_the_same_bits_and_leaves_x(self):
        x = np.random.default_rng(9).normal(scale=4.0, size=(3, 5, 16))
        x[0, 0, :3] = (0.0, -0.0, 1e-300)
        before = x.tobytes()
        h, _ = _gelu(x, keep=False)
        assert x.tobytes() == before
        assert h.tobytes() == _gelu(x, keep=True)[0].tobytes()
        assert x.tobytes() == before


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        cfg = TrainConfig(corpus_path="", steps=0)
        params = {"w": np.array([1.0, -2.0])}
        state = init_adam(params)
        before = params["w"].copy()
        params, state = adam_step(params, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_array_equal(params["w"], before)
        assert state.step == 1

    def test_first_step_hand_value(self):
        # m_hat = g, v_hat = g^2 at step 1, so the update is -lr * g/(|g| + eps)
        cfg = TrainConfig(corpus_path="", lr=1e-3, steps=0)
        params = {"w": np.array([0.0])}
        state = init_adam(params)
        params, _ = adam_step(params, {"w": np.array([1.0])}, state, cfg)
        expected = -1e-3 / (1.0 + 1e-8)
        assert abs(params["w"][0] - expected) <= 1e-15

    def test_nonfinite_gradient_aborts(self):
        cfg = TrainConfig(corpus_path="", steps=0)
        params = {"w": np.zeros(2)}
        state = init_adam(params)
        with pytest.raises(NonFiniteGradient):
            adam_step(params, {"w": np.array([1.0, np.nan])}, state, cfg)


class TestTrain:
    def test_zero_steps_returns_init(self, corpus_path):
        cfg = tiny_config(corpus_path, steps=0)
        res = train(cfg)
        assert len(res.metrics) == 0
        rng = np.random.default_rng(cfg.seed)
        _, vocab = load_corpus(corpus_path)
        expected = init_params(cfg, vocab.size, rng)
        for name in expected:
            np.testing.assert_array_equal(res.params[name], expected[name])

    def test_same_seed_identical_trajectories(self, corpus_path):
        cfg = tiny_config(corpus_path, steps=8, kind=VariantKind.V3)
        a = train(cfg)
        b = train(cfg)
        assert a.metrics.loss == b.metrics.loss
        assert a.metrics.grad_norm == b.metrics.grad_norm
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_single_symbol_corpus_memorized(self, tmp_path):
        path = tmp_path / "aaa.txt"
        path.write_text("a" * 400)
        cfg = tiny_config(path, d_model=16, seq_len=16, batch=4, steps=100, lr=3e-3)
        res = train(cfg)
        assert res.metrics.loss[-1] < 0.05
        ppl = evaluate_ppl(res.params, cfg, res.vocab, "a" * 100)
        assert ppl < 1.06

    def test_corpus_shorter_than_window_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("ab")
        with pytest.raises(CorpusTooSmall):
            train(tiny_config(path, seq_len=16))

    def test_nonfinite_loss_stops_at_its_step(self, corpus_path, monkeypatch):
        real = microlm.forward_loss
        steps = []

        def nan_at_third_step(*args):
            loss, cache = real(*args)
            steps.append(loss)
            return (float("nan") if len(steps) == 3 else loss), cache

        monkeypatch.setattr(microlm, "forward_loss", nan_at_third_step)
        with pytest.raises(NonFiniteInput, match="loss is not finite at step 3"):
            train(tiny_config(corpus_path, steps=5))
        assert len(steps) == 3

    def test_grad_norm_is_global_l2(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_grad_norm(grads) == 5.0


class TestEvaluate:
    def test_untrained_ppl_near_vocab_size(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, d_model=16, seq_len=16)
        params = init_params(cfg, vocab.size, np.random.default_rng(0))
        text = corpus_path.read_bytes()[:2000]
        ppl = evaluate_ppl(params, cfg, vocab, text)
        assert abs(ppl - vocab.size) <= 0.15 * vocab.size

    def test_ppl_is_exp_of_loss(self, corpus_path):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, seq_len=8)
        params = init_params(cfg, vocab.size, np.random.default_rng(1))
        ids = tokens[: 8 * 5 + 1]
        idx = (np.arange(5) * 8)[:, None] + np.arange(8)[None, :]
        loss, _ = forward_loss(params, ids[idx], ids[idx + 1], cfg)
        ppl = evaluate_ppl(params, cfg, vocab, vocab.decode(ids))
        assert ppl == np.exp(loss)

    def test_keeps_no_backward_cache(self, corpus_path, monkeypatch):
        # eval's peak holds one sublayer's temporaries per worker; forward_loss
        # keeps every layer's intermediates and the probabilities (ratio ~0.3
        # at one worker)
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=2, d_model=16, seq_len=32)
        params = init_params(cfg, vocab.size, np.random.default_rng(2))
        ids = tokens[: 32 * 64 + 1]
        idx = (np.arange(64) * 32)[:, None] + np.arange(32)[None, :]
        text = vocab.decode(ids)
        eval_peaks = {}
        tracemalloc.start()
        try:
            _, cache = forward_loss(params, ids[idx], ids[idx + 1], cfg)
            train_peak = tracemalloc.get_traced_memory()[1]
            del cache
            for workers in (1, 2):
                monkeypatch.setattr(microlm, "_eval_workers", lambda: workers)
                tracemalloc.reset_peak()
                evaluate_ppl(params, cfg, vocab, text)
                eval_peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eval_peaks[1] <= 0.5 * train_peak
        assert eval_peaks[2] <= 2 * eval_peaks[1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_chunks_equal_one_batch(self, corpus_path, kind, monkeypatch):
        # two full chunks and a partial one; the bits match only if every
        # matmul row comes out the same whatever the row count of its call,
        # and every chunk lands in its own rows whichever thread runs it (at
        # 4 workers each chunk gets a thread; a short switch interval
        # interleaves the threads finely)
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, kind=kind, layers=2, d_model=8, seq_len=16,
                          init_std=0.5)
        params = init_params(cfg, vocab.size, np.random.default_rng(3))
        chunk = _EVAL_CHUNK_POSITIONS // 16
        n = 2 * chunk + chunk // 2
        ids = tokens[: n * 16 + 1]
        idx = (np.arange(n) * 16)[:, None] + np.arange(16)[None, :]
        loss, _ = forward_loss(params, ids[idx], ids[idx + 1], cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(microlm, "_eval_workers", lambda: workers)
                ppl = evaluate_ppl(params, cfg, vocab, vocab.decode(ids))
                assert ppl == np.exp(loss), workers
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_error_raised_and_no_thread_left(self, corpus_path, monkeypatch):
        # the NaN sits in the embedding of a byte first read in the fourth
        # chunk or later, so the chunks before the failing one succeed
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=1, d_model=8, seq_len=16)
        params = init_params(cfg, vocab.size, np.random.default_rng(4))
        chunk = _EVAL_CHUNK_POSITIONS // 16
        ids = tokens[: 8 * chunk * 16 + 1]
        late = next(i for i in np.unique(ids) if np.argmax(ids == i) >= 3 * chunk * 16)
        params["embed"][late, 0] = np.nan
        monkeypatch.setattr(microlm, "_eval_workers", lambda: 2)
        before = threading.active_count()
        with pytest.raises(NonFiniteInput, match="contains NaN"):
            evaluate_ppl(params, cfg, vocab, vocab.decode(ids))
        assert threading.active_count() == before

    def test_peak_memory_flat_in_text_length(self, corpus_path, monkeypatch):
        # Two workers keep two chunks alive, whose temporaries peak together
        # or not as the threads happen to interleave: a two-chunk text's
        # measured peak lies anywhere from one to two one-chunk peaks. So the
        # longer text at two workers is held to two one-chunk peaks, the most
        # a two-chunk text can take.
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=2, d_model=16, seq_len=32)
        params = init_params(cfg, vocab.size, np.random.default_rng(2))
        chunk = _EVAL_CHUNK_POSITIONS // 32
        peaks = {}
        tracemalloc.start()
        try:
            for workers, chunks in ((1, 1), (1, 4), (2, 8)):
                monkeypatch.setattr(microlm, "_eval_workers", lambda: workers)
                text = vocab.decode(tokens[: chunks * chunk * 32 + 1])
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                evaluate_ppl(params, cfg, vocab, text)
                peaks[workers, chunks] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[1, 4] <= 1.2 * peaks[1, 1]
        assert peaks[2, 8] <= 1.2 * (2 * peaks[1, 1])

    def test_unknown_symbol_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abababab")
        cfg = tiny_config(path, seq_len=2)
        res = train(TrainConfig(**{**cfg.__dict__, "steps": 0}))
        with pytest.raises(UnknownSymbol):
            evaluate_ppl(res.params, cfg, res.vocab, "abz")

    def test_text_too_short_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abababab")
        cfg = tiny_config(path, seq_len=4)
        res = train(TrainConfig(**{**cfg.__dict__, "steps": 0}))
        with pytest.raises(TextTooShort):
            evaluate_ppl(res.params, cfg, res.vocab, "ab")


class TestCheckpoint:
    def test_round_trip(self, corpus_path, tmp_path):
        cfg = tiny_config(corpus_path, steps=2, kind=VariantKind.V4)
        res = train(cfg)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, res.params, cfg, res.vocab)
        params, loaded_cfg, vocab = load_checkpoint(path)
        assert loaded_cfg.kind is VariantKind.V4
        assert loaded_cfg.layers == cfg.layers
        assert loaded_cfg.seq_len == cfg.seq_len
        assert loaded_cfg.rope == cfg.rope
        assert vocab.byte_values == res.vocab.byte_values
        for name in res.params:
            np.testing.assert_array_equal(params[name], res.params[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        cfg = TrainConfig(corpus_path="", layers=1, d_model=2)
        vocab = Vocabulary(byte_values=(97, 98, 99))
        params = init_params(cfg, vocab.size, np.random.default_rng(0))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, cfg, vocab)
        whole = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(whole)):
            cut.write_bytes(whole[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)
        cut.write_bytes(whole + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(cut)
        cut.write_bytes(whole)
        loaded, _, _ = load_checkpoint(cut)
        assert all(np.array_equal(loaded[n], params[n]) for n in params)

    def test_undecodable_manifest_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"SAXLM001" + (4).to_bytes(8, "little") + b"\xff{}]")
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_save_is_deterministic(self, corpus_path, tmp_path):
        cfg = tiny_config(corpus_path, steps=1)
        res = train(cfg)
        save_checkpoint(tmp_path / "a.bin", res.params, cfg, res.vocab)
        save_checkpoint(tmp_path / "b.bin", res.params, cfg, res.vocab)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestMetricsCsv:
    def test_schema_and_default_zero_times(self):
        from sasoftmax import RunMetrics
        m = RunMetrics(loss=[1.5], grad_norm=[0.25], step_time=[0.123])
        text = metrics_to_csv(m)
        lines = text.strip().split("\n")
        assert lines[0] == "step,loss,grad_norm,step_time_s"
        assert lines[1] == "0,1.5,0.25,0"

    def test_wall_times_opt_in(self):
        from sasoftmax import RunMetrics
        m = RunMetrics(loss=[1.5], grad_norm=[0.25], step_time=[0.5])
        assert metrics_to_csv(m, wall_times=True).strip().split("\n")[1] == "0,1.5,0.25,0.5"


class TestAttentionMaps:
    def test_map_shapes_and_masking(self, corpus_path):
        cfg = tiny_config(corpus_path, layers=2, steps=0)
        res = train(cfg)
        prompt = corpus_path.read_text(encoding="ascii")[:4]
        maps = attention_maps(res.params, cfg, res.vocab, prompt)
        assert len(maps) == 2
        for w in maps:
            assert w.shape == (4, 4)
            assert np.all(w[np.triu_indices(4, 1)] == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_maps_equal_forward_cache(self, corpus_path, kind):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, kind=kind, layers=2, init_std=0.5)
        params = init_params(cfg, vocab.size, np.random.default_rng(4))
        ids = tokens[:12]
        maps = attention_maps(params, cfg, vocab, vocab.decode(ids))
        _, cache = forward_loss(params, ids[None, :], ids[None, :], cfg)
        assert len(maps) == 2
        for w, layer in zip(maps, cache["layers"]):
            assert w.tobytes() == layer["attn"].weights[0].tobytes()

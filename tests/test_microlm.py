"""Micro-LM tests: corpus handling, exact gradients, Adam, determinism,
training behavior, perplexity, and checkpoint round-trips."""

import collections
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from sasoftmax import attention, jacobians, microlm, variants
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
    _backward,
    _forward,
    _gelu,
    _layer_norm_backward,
    _run_all,
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


@pytest.fixture
def helpers(monkeypatch):
    """A helper pool of the test's own for _run_all, with no helper started
    yet, so that the test can count the helpers its calls start. They stay
    idle in the process after the test."""
    pool = microlm._Helpers()
    monkeypatch.setattr(microlm, "_helpers", pool)
    return pool


def record_threads(monkeypatch, *names, done: list | None = None) -> list[int]:
    """The ident of the thread of every call of the microlm functions names
    from here on, in call order. Given done, each call also appends its
    thread's ident to done when it returns or raises."""
    ran = []
    for name in names:
        def recorded(*args, _fn=getattr(microlm, name), **kwargs):
            ran.append(threading.get_ident())
            try:
                return _fn(*args, **kwargs)
            finally:
                if done is not None:
                    done.append(threading.get_ident())

        monkeypatch.setattr(microlm, name, recorded)
    return ran


def helper_idents() -> set[int]:
    return {t.ident for t in threading.enumerate() if t.name.startswith("sasoftmax-helper-")}


def all_idle(pool, timeout: float = 30.0) -> bool:
    """Whether every helper of pool is idle within timeout seconds. A helper
    lent to a call that took none of its items may still be on its way back
    when the call returns; one that took an item is idle before it returns."""
    deadline = time.monotonic() + timeout
    while len(pool.idle) < pool.started and time.monotonic() < deadline:
        time.sleep(0.001)
    return len(pool.idle) == pool.started


def run_bounded(fn, timeout: float = 60.0):
    """fn() on a daemon thread, failing the test if it is still running
    after timeout seconds (a deadlock) and raising what fn raised."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call did not return: deadlock"
    if "error" in out:
        raise out["error"]
    return out["result"]


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

    def test_cache_keys_read_by_benchmark(self, corpus_path, monkeypatch):
        # batch 3 in micro-batches of 2: "z" is the full batch's logits, and
        # each micro-batch's scores are a view of its rows, so none is held twice
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=2, batch=3)
        rng = np.random.default_rng(0)
        params = init_params(cfg, vocab.size, rng)
        _, cache = forward_loss(params, *sample_windows(tokens, 4, 3, rng), cfg)
        shards = cache["shards"]
        assert [len(shard["inputs"]) for shard in shards] == [2, 1]
        assert cache["mask"] is attention.causal_mask(4)
        for i, layer in enumerate(cache["layers"]):
            scores = [shard["layers"][i]["attn"] for shard in shards]
            assert all(c.mask is cache["mask"] for c in scores)
            assert layer["z"].shape == (3, 4, 4)
            assert layer["z"].tobytes() == np.concatenate([c.scores for c in scores]).tobytes()
            assert all(np.shares_memory(c.scores, layer["z"]) for c in scores)

    def test_v4_step_computes_each_factor_once(self, corpus_path, monkeypatch):
        # the backward reads the softmax, scaler and RoPE tables its forward
        # kept: one of each per layer per micro-batch, two micro-batches at the
        # default batch (recomputing them would make 8 / 8 / 16). The row's
        # min and max are taken in the forward and its argmin and argmax in
        # the backward, once each per layer per micro-batch. One worker, so no
        # thread races the counter.
        monkeypatch.setattr(microlm, "_workers", lambda: 1)
        counts = collections.Counter()
        for owner, name in ((variants, "masked_softmax"), (variants, "_masked_values"),
                            (variants, "_masked_positions"), (attention, "rope_tables")):
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
        cache = forward_loss(params, inputs, targets, cfg)[1]
        assert counts == {"masked_softmax": 4, "_masked_values": 4, "rope_tables": 4}
        backward(cache)
        assert cfg.layers == 2 and cfg.batch == 2 * microlm._TRAIN_SHARD_WINDOWS
        assert counts == {"masked_softmax": 4, "_masked_values": 4, "_masked_positions": 4,
                          "rope_tables": 4}

    def test_forward_only_paths_search_no_positions(self, corpus_path, monkeypatch):
        # only the VJP needs the argmin/argmax, so no forward-only path may
        # look for them: with the finder raising, each of these still runs
        def refuse(*args, **kwargs):
            raise AssertionError("a forward-only path searched for argmin/argmax")

        monkeypatch.setattr(variants, "_masked_positions", refuse)
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(3, 4, 4))
        mask = attention.causal_mask(4)
        for kind in ALL_KINDS:
            variants.variant_weights(scores, mask, kind)
            variants.variant_scaler(scores, mask, kind)
            variants.apply_variant(scores[0, 3], kind)
            jacobians._fd_full_rows(scores[0], kind, variants.DEFAULT_EPS, jacobians.FD_STEP)
            attention.attention_forward(attention.AttentionInput(
                *rng.normal(size=(3, 2, 4, 4)), kind=kind, rope=True))
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, kind=VariantKind.V4, layers=2)
        params = init_params(cfg, vocab.size, rng)
        assert np.isfinite(evaluate_ppl(params, cfg, vocab, vocab.decode(tokens[:201])))
        assert len(attention_maps(params, cfg, vocab, vocab.decode(tokens[:4]))) == 2
        with pytest.raises(AssertionError, match="forward-only"):
            backward(forward_loss(params, *sample_windows(tokens, 4, 2, rng), cfg)[1])

    def test_shape_mismatch(self, corpus_path):
        _, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path)
        params = init_params(cfg, vocab.size, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            forward_loss(params, np.zeros((2, 4), dtype=int), np.zeros((2, 5), dtype=int), cfg)

    def _params(self, corpus_path):
        _, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path)
        return init_params(cfg, vocab.size, np.random.default_rng(0)), cfg, vocab.size

    def test_negative_target_rejected(self, corpus_path):
        # -1 would index the last vocab entry and score against it
        params, cfg, _ = self._params(corpus_path)
        targets = np.zeros((2, 4), dtype=int)
        targets[1, 2] = -1
        with pytest.raises(UnknownSymbol, match="targets holds token id -1"):
            forward_loss(params, np.zeros((2, 4), dtype=int), targets, cfg)

    def test_id_past_vocab_rejected(self, corpus_path):
        params, cfg, vocab_size = self._params(corpus_path)
        inputs = np.zeros((2, 4), dtype=int)
        inputs[0, 3] = vocab_size
        with pytest.raises(UnknownSymbol, match=f"inputs holds token id {vocab_size}"):
            forward_loss(params, inputs, np.zeros((2, 4), dtype=int), cfg)

    def test_float_ids_rejected(self, corpus_path):
        params, cfg, _ = self._params(corpus_path)
        with pytest.raises(ShapeMismatch, match="integer token ids"):
            forward_loss(params, np.zeros((2, 4)), np.zeros((2, 4), dtype=int), cfg)

    def test_empty_batch_rejected(self, corpus_path):
        params, cfg, _ = self._params(corpus_path)
        empty = np.zeros((0, 4), dtype=int)
        with pytest.raises(ShapeMismatch, match="holds no position"):
            forward_loss(params, empty, empty, cfg)

    def test_empty_window_rejected(self, corpus_path):
        params, cfg, _ = self._params(corpus_path)
        empty = np.zeros((2, 0), dtype=int)
        with pytest.raises(ShapeMismatch, match="holds no position"):
            forward_loss(params, empty, empty, cfg)


class TestBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_einsum_reference(self, kind, monkeypatch):
        # batch 3 in micro-batches of 2 and 1, against the reference on one
        # full-batch cache
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
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
        assert len(cache["shards"]) == 2
        got = backward(cache)
        want = einsum_backward(_forward(params, inputs, targets, cfg, keep=True)[1], params, cfg)
        assert list(got) == param_names(cfg) and set(want) == set(got)
        for name in got:
            scale = np.abs(want[name]).max()
            assert scale > 0, name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_writes_no_input_or_cache_array(self, corpus_path, kind, monkeypatch):
        # the elementwise kernels work in place only on arrays they made, and
        # backward's sum over micro-batches (2 and 1 here) only on its own
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
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
        # params, each layer's z, and per micro-batch its inputs, targets, hf,
        # lnf, probs and each layer's entries
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


class TestMicroBatches:
    def test_train_bit_identical_at_any_worker_count(self, corpus_path, monkeypatch, helpers):
        # batch 7 in micro-batches of 2: at 4 workers each of the four may
        # get a thread, and a short switch interval interleaves the threads
        # finely. Each run's 12 calls (forward and backward of 6 steps) start
        # helpers only while fewer than workers - 1 exist, and only the
        # calling thread and helpers run micro-batches.
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
        cfg = tiny_config(corpus_path, kind=VariantKind.V4, layers=2, batch=7, steps=6,
                          init_std=0.5)
        ran = record_threads(monkeypatch, "_forward", "_backward")
        main = threading.get_ident()
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(microlm, "_train_workers", lambda: workers)
                before, started = threading.active_count(), helpers.started
                ran.clear()
                res = train(cfg)
                assert helpers.started <= workers - 1
                assert threading.active_count() - before == helpers.started - started
                assert len(ran) == 2 * 4 * cfg.steps
                assert set(ran) - {main} <= helper_idents()
                assert len(set(ran) - {main}) <= workers - 1
                runs[workers] = metrics_to_csv(res.metrics), array_hashes(res.params)
        finally:
            sys.setswitchinterval(interval)
        assert runs[2] == runs[1]
        assert runs[4] == runs[1]

    def test_micro_batch_error_raised_and_no_thread_left(self, corpus_path, monkeypatch,
                                                        helpers):
        # the NaN sits in the embedding row of an id that only the second
        # micro-batch reads, so the first one succeeds; when the error is
        # raised no thread is still running a micro-batch, and the one
        # helper is idle again
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
        monkeypatch.setattr(microlm, "_train_workers", lambda: 2)
        _, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, batch=4)
        params = init_params(cfg, vocab.size, np.random.default_rng(0))
        inputs = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 2, 1], [1, 1, 0, 0]])
        params["embed"][2, 0] = np.nan
        done = []
        ran = record_threads(monkeypatch, "_forward", done=done)
        with pytest.raises(NonFiniteInput, match="contains NaN"):
            forward_loss(params, inputs, inputs, cfg)
        assert len(ran) == 2 and len(done) == 2
        assert set(ran) - {threading.get_ident()} <= helper_idents()
        assert helpers.started == 1 and all_idle(helpers)

    def test_one_micro_batch_keeps_one_backward(self, corpus_path):
        # a batch that fits in one micro-batch gets the bits of one backward
        # over the whole batch: nothing is added to it and it is normalised
        # by the same position count
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, kind=VariantKind.V3, layers=2,
                          batch=microlm._TRAIN_SHARD_WINDOWS, init_std=0.5)
        rng = np.random.default_rng(8)
        params = init_params(cfg, vocab.size, rng)
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
        _, cache = forward_loss(params, inputs, targets, cfg)
        assert len(cache["shards"]) == 1
        got = backward(cache)
        whole = _forward(params, inputs, targets, cfg, keep=True)[1]
        want = _backward(params, cfg, whole, inputs.size)
        assert list(got) == list(want)
        assert all(got[n].tobytes() == want[n].tobytes() for n in want)

    def test_one_cpu_starts_no_thread(self, corpus_path, monkeypatch):
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, batch=5)
        params = init_params(cfg, vocab.size, np.random.default_rng(1))
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, np.random.default_rng(2))
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
        monkeypatch.setattr(microlm, "_workers", lambda: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        backward(forward_loss(params, inputs, targets, cfg)[1])
        evaluate_ppl(params, cfg, vocab, vocab.decode(tokens[: 40 * cfg.seq_len + 1]))


class TestWorkers:
    def test_train_shares_cpus_out_among_blas_threads(self, monkeypatch):
        monkeypatch.setattr(microlm.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        for threads, workers in ((1, 4), (2, 2), (3, 1), (4, 1), (8, 1)):
            monkeypatch.setattr(microlm, "_openblas_thread_getters",
                                lambda: (lambda: 1, lambda: threads))
            assert microlm._train_workers() == workers, threads
            # eval runs on every CPU whatever the BLAS runs
            assert microlm._workers() == 4
        # with no OpenBLAS to ask, the BLAS is taken to use every CPU
        monkeypatch.setattr(microlm, "_openblas_thread_getters", lambda: ())
        assert microlm._train_workers() == 1
        assert microlm._workers() == 4

    def test_only_the_train_step_gives_way_to_blas_threads(self, corpus_path, monkeypatch):
        # OpenBLAS at two threads on two CPUs: the step's two micro-batches
        # run on the calling thread alone, eval's chunks on two threads
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, batch=4)
        params = init_params(cfg, vocab.size, np.random.default_rng(1))
        inputs, targets = sample_windows(tokens, cfg.seq_len, cfg.batch, np.random.default_rng(2))
        monkeypatch.setattr(microlm, "_TRAIN_SHARD_WINDOWS", 2)
        monkeypatch.setattr(microlm, "_workers", lambda: 2)
        monkeypatch.setattr(microlm, "_openblas_thread_getters", lambda: (lambda: 2,))
        main = threading.get_ident()
        ran = record_threads(monkeypatch, "_forward", "_backward")
        backward(forward_loss(params, inputs, targets, cfg)[1])
        assert ran == [main] * 4
        # eval's first chunk waits until the second has started, which only
        # a helper can have taken
        meet = threading.Barrier(2, timeout=60)

        def meeting(*args, _fn=microlm._forward, **kwargs):
            meet.wait()
            return _fn(*args, **kwargs)

        monkeypatch.setattr(microlm, "_forward", meeting)
        ran.clear()
        windows = 2 * _EVAL_CHUNK_POSITIONS // cfg.seq_len
        evaluate_ppl(params, cfg, vocab, vocab.decode(tokens[: windows * cfg.seq_len + 1]))
        assert len(ran) == 2 and main in ran
        assert len(set(ran)) == 2 and set(ran) - {main} <= helper_idents()

    def test_asks_the_loaded_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas or not sys.platform.startswith("linux"):
            pytest.skip(f"numpy's BLAS is {blas} on {sys.platform}")
        getters = microlm._openblas_thread_getters()
        assert getters and all(get() >= 1 for get in getters)

    def test_maps_paths_with_spaces_and_deleted_files(self):
        lines = [
            "7f00-7f10 r-xp 00000000 08:01 42   /home/a b/venv/libscipy_openblas64_.so\n",
            "7f10-7f20 r--p 00010000 08:01 42   /home/a b/venv/libscipy_openblas64_.so\n",
            "7f20-7f30 r-xp 00000000 08:01 43   /usr/lib/libopenblas.so.0 (deleted)\n",
            "7f30-7f40 r-xp 00000000 08:01 44   /opt/openblas/lib/libm.so.6\n",
            "7f40-7f50 rw-p 00000000 00:00 0 \n",
            "7f50-7f60 rw-p 00000000 00:00 0    [heap]\n",
        ]
        assert microlm._openblas_paths(lines) == ["/home/a b/venv/libscipy_openblas64_.so"]

    def test_unloadable_library_is_skipped(self, monkeypatch):
        monkeypatch.setattr(microlm, "_openblas_paths",
                            lambda lines: ["/no such dir/libopenblas.so"])
        monkeypatch.setattr(microlm.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        microlm._openblas_thread_getters.cache_clear()
        try:
            if sys.platform.startswith("linux"):
                assert microlm._openblas_thread_getters() == ()
            assert microlm._train_workers() == 1
        finally:
            microlm._openblas_thread_getters.cache_clear()


class TestRunAll:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_results_in_order(self, workers):
        assert _run_all(lambda i: i * i, range(5), workers) == [0, 1, 4, 9, 16]
        assert _run_all(lambda i: i, [], workers) == []

    @pytest.mark.parametrize("workers", (1, 2))
    def test_first_failure_in_order_wins(self, workers, helpers):
        # items are taken in order, so 2 starts before 4 fails; once either
        # fails, 5 is never started. When the error is raised every started
        # item has finished (1 runs long, so a call that raised before its
        # items were done would show); only the caller and at most
        # workers - 1 helpers ran items, and every helper is idle again.
        ran = []
        done = []
        threads = []

        def fn(i):
            ran.append(i)
            threads.append(threading.get_ident())
            try:
                if i == 1:
                    time.sleep(0.05)
                if i in (2, 4):
                    raise ValueError(str(i))
                return i
            finally:
                done.append(i)

        with pytest.raises(ValueError, match="^2$"):
            _run_all(fn, range(6), workers)
        assert sorted(done) == sorted(ran)
        assert {0, 1, 2} <= set(ran) and 5 not in ran
        assert helpers.started == workers - 1 and all_idle(helpers)
        assert set(threads) - {threading.get_ident()} <= helper_idents()
        assert len(set(threads)) <= workers

    @pytest.mark.parametrize("workers", (2, 4))
    def test_every_lent_helper_takes_one_of_the_first_items(self, workers, helpers):
        # the caller could run the first items alone before a helper wakes;
        # it waits instead, so each of the first items runs on its own thread
        for _ in range(20):
            got = _run_all(lambda i: threading.get_ident(), range(3 * workers), workers)
            assert len(set(got[:workers])) == workers
        assert helpers.started == workers - 1 and all_idle(helpers)

    def test_nested_call_runs_alone(self, helpers):
        # an item's own _run_all finds the one helper busy (or lent to the
        # outer call) and runs its items on the item's thread
        def outer(i):
            inner = threading.get_ident()
            return _run_all(lambda j: (i, j, threading.get_ident() == inner), range(3), 2)

        got = run_bounded(lambda: _run_all(outer, range(4), 2))
        assert [[(i, j) for i, j, _ in row] for row in got] == \
            [[(i, j) for j in range(3)] for i in range(4)]
        assert helpers.started == 1 and all_idle(helpers)

    def test_callers_on_several_threads(self, helpers):
        # four callers, more than helpers or cores, with the interpreter
        # switching threads every microsecond: every call gets its own
        # results in order, no more than workers - 1 helpers start, and
        # every helper is handed back (a lost update to the idle list would
        # leave one out)
        results = [None] * 4

        def caller(c):
            results[c] = [_run_all(lambda i: (c, k, i * i), range(7), 3) for k in range(40)]

        threads = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive(), "a caller did not return: deadlock"
        finally:
            sys.setswitchinterval(interval)
        assert results == [[[(c, k, i * i) for i in range(7)] for k in range(40)]
                           for c in range(4)]
        assert helpers.started <= 2 and all_idle(helpers)

    def test_helper_kept_after_a_failure(self, helpers):
        # both items wait for each other, so each call runs one on its
        # caller and one on the helper: the helper that ran a raising item
        # serves the next calls
        def meeting(meet, fail):
            def fn(i):
                meet.wait()
                if fail and i == 1:
                    raise ValueError("item 1")
                return threading.get_ident() in helper_idents()
            return fn

        with pytest.raises(ValueError, match="item 1"):
            run_bounded(lambda: _run_all(meeting(threading.Barrier(2, timeout=30), True),
                                         range(2), 2))
        helper = helper_idents()
        for _ in range(3):
            got = run_bounded(lambda: _run_all(
                meeting(threading.Barrier(2, timeout=30), False), range(2), 2))
            assert sorted(got) == [False, True]
        assert helpers.started == 1 and helper_idents() == helper and all_idle(helpers)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_starts_its_own_helper(self):
        proc = subprocess.run([sys.executable, "-c", FORKED_CHILD], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"parent_helpers": 1, "child_status": 0}

    def test_interpreter_exits_with_helpers_idle(self):
        proc = subprocess.run([sys.executable, "-c", IDLE_AT_EXIT], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3 idle\n" and proc.stderr == ""


def package_env() -> dict:
    """The environment with this tree's sasoftmax first on the import path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(microlm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


# A 2-worker call whose items wait for each other, so a helper runs one, in
# a process and then in a child it forks: the child has no thread but its
# own, so it must start a helper of its own. Prints the parent's helper count
# and the child's exit status (1 if its call failed).
FORKED_CHILD = r"""
import json, os, threading, traceback
from sasoftmax import microlm

def meeting_call():
    meet = threading.Barrier(2, timeout=20)
    def fn(i):
        meet.wait()
        return threading.get_ident()
    return len(set(microlm._run_all(fn, range(2), 2))) == 2

assert meeting_call()
pid = os.fork()
if pid == 0:
    ok = False
    try:
        ok = meeting_call() and microlm._helpers.started == 1
    except BaseException:
        traceback.print_exc()
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
print(json.dumps({"parent_helpers": microlm._helpers.started,
                  "child_status": os.waitstatus_to_exitcode(status)}))
"""

# Three helpers, all idle once the call has returned, at interpreter exit.
IDLE_AT_EXIT = r"""
import threading, time
from sasoftmax import microlm

meet = threading.Barrier(4, timeout=20)
microlm._run_all(lambda i: meet.wait(), range(4), 4)
while len(microlm._helpers.idle) < 3:
    time.sleep(0.001)
print(len(microlm._helpers.idle), "idle")
"""


# Default-config v4 train steps as perfbench's train_mix runs them, each
# step's cache dropped when it returns; prints the median minor page faults of
# a step, the helper threads the steps started, and whether a step's loss and
# gradients keep their bits at one worker.
KEPT_HEAP_STEPS = r"""
import json, resource, statistics
import numpy as np
from sasoftmax import VariantKind, microlm
from sasoftmax.cli import bundled_corpus_path

corpus = bundled_corpus_path()
tokens, vocab = microlm.load_corpus(corpus)
cfg = microlm.TrainConfig(corpus_path=str(corpus), kind=VariantKind.V4, seed=1)
rng = np.random.default_rng(1)
params = microlm.init_params(cfg, vocab.size, rng)
state = microlm.init_adam(params)

def step():
    inputs, targets = microlm.sample_windows(tokens, cfg.seq_len, cfg.batch, rng)
    _, cache = microlm.forward_loss(params, inputs, targets, cfg)
    grads = microlm.backward(cache)
    microlm.global_grad_norm(grads)
    microlm.adam_step(params, grads, state, cfg)

for _ in range(10):
    step()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

inputs, targets = microlm.sample_windows(tokens, cfg.seq_len, cfg.batch, rng)

def loss_and_grads():
    loss, cache = microlm.forward_loss(params, inputs, targets, cfg)
    grads = microlm.backward(cache)
    return [np.float64(loss).tobytes()] + [grads[name].tobytes() for name in sorted(grads)]

threaded = loss_and_grads()
threads = microlm._helpers.started
microlm._train_workers = lambda: 1
print(json.dumps({"median_faults": statistics.median(faults), "threads": threads,
                  "same_bits": loss_and_grads() == threaded}))
"""


class TestKeptHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_train_step_reuses_its_heap_on_two_threads(self):
        # one BLAS thread, as perfbench runs, so _train_workers() gives the
        # step's two micro-batches a thread each on two CPUs; without the
        # kept heap a step takes thousands of minor faults
        env = {**package_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", KEPT_HEAP_STEPS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["median_faults"] < 100, out
        assert out["same_bits"], out
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" in blas and microlm._workers() >= 2:
            assert out["threads"] > 0, out

    def test_no_glibc_mallopt_sets_nothing(self, monkeypatch):
        calls = []

        def refusing_mallopt(param, value):  # musl's returns 0 for every param
            calls.append(param)
            return 0

        def no_c_library(name):  # Windows: CDLL(None) is a TypeError
            raise TypeError("no C library")

        for cdll in (no_c_library, lambda name: types.SimpleNamespace(),
                     lambda name: types.SimpleNamespace(mallopt=refusing_mallopt)):
            monkeypatch.setattr(microlm.ctypes, "CDLL", cdll)
            microlm._keep_freed_heap()
        # a refused mmap threshold leaves the trim threshold unset
        assert calls == [-3]


# A process's first GELU, which imports scipy.special, run on two threads at
# once: in eval's chunks ("eval") or in the train step's micro-batches
# ("train"), with the thread switch interval at 1 us; prints whether scipy was
# unloaded before and loaded after, the threads that ran a piece, and whether
# the result has the same bits when run again at one worker. The pieces wait
# for each other before their forward, so both threads run their first GELU.
FIRST_GELU = r"""
import json, sys, threading
import numpy as np
from sasoftmax import microlm
from sasoftmax.cli import bundled_corpus_path

corpus = bundled_corpus_path()
tokens, vocab = microlm.load_corpus(corpus)
cfg = microlm.TrainConfig(corpus_path=str(corpus), seed=1)
params = microlm.init_params(cfg, vocab.size, np.random.default_rng(1))
inputs, targets = microlm.sample_windows(tokens, cfg.seq_len, cfg.batch,
                                         np.random.default_rng(2))
text = vocab.decode(tokens[: 4 * microlm._EVAL_CHUNK_POSITIONS + 1])

def run():
    if sys.argv[1] == "eval":
        return [np.float64(microlm.evaluate_ppl(params, cfg, vocab, text)).tobytes()]
    loss, cache = microlm.forward_loss(params, inputs, targets, cfg)
    grads = microlm.backward(cache)
    return [np.float64(loss).tobytes()] + [grads[name].tobytes() for name in sorted(grads)]

ran = []
meet = threading.Barrier(2, timeout=60)
forward = microlm._forward

def meeting(*args, **kwargs):
    # the first piece blocks its thread until a second thread starts one
    ran.append(threading.get_ident())
    if len(ran) <= 2:
        meet.wait()
    return forward(*args, **kwargs)

microlm._forward = meeting
microlm._workers = microlm._train_workers = lambda: 2
unloaded = "scipy.special" not in sys.modules
sys.setswitchinterval(1e-6)
threaded = run()
sys.setswitchinterval(0.005)
loaded = "scipy.special" in sys.modules
threads = len(set(ran))
microlm._forward = forward
microlm._workers = microlm._train_workers = lambda: 1
print(json.dumps({"unloaded_before": unloaded, "loaded_after": loaded, "threads": threads,
                  "same_bits": run() == threaded}))
"""


class TestFirstGelu:
    @pytest.mark.parametrize("entry", ["eval", "train"])
    def test_first_gelu_on_two_threads(self, entry):
        proc = subprocess.run([sys.executable, "-c", FIRST_GELU, entry], env=package_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out == {"unloaded_before": True, "loaded_after": True, "threads": 2,
                       "same_bits": True}, out


def einsum_backward(cache, params, cfg):
    """The trainer's backward of one _forward cache as it was written with
    np.einsum weight gradients and an np.add.at embed scatter: the reference
    for the 2-D matmul form, which sums the same products in another order."""
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

    def test_nonfinite_grad_norm_stops_at_its_step(self, corpus_path):
        # every gradient entry is finite, so adam_step's check passes, but
        # their sum of squares overflows; global_grad_norm itself still
        # returns inf, so only train's loop raises
        with np.errstate(over="ignore", invalid="ignore"):
            assert global_grad_norm({"a": np.array([1e200])}) == np.inf
            with pytest.raises(NonFiniteGradient,
                               match="gradient norm is not finite at step 1$"):
                train(tiny_config(corpus_path, init_std=1e200, steps=3))

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
                monkeypatch.setattr(microlm, "_workers", lambda: workers)
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
                monkeypatch.setattr(microlm, "_workers", lambda: workers)
                ppl = evaluate_ppl(params, cfg, vocab, vocab.decode(ids))
                assert ppl == np.exp(loss), workers
        finally:
            sys.setswitchinterval(interval)

    def test_chunk_error_raised_and_no_thread_left(self, corpus_path, monkeypatch, helpers):
        # the NaN sits in the embedding of a byte first read in the fourth
        # chunk or later, so the chunks before the failing one succeed; when
        # the error is raised no thread is still running a chunk, and the one
        # helper is idle again
        tokens, vocab = load_corpus(corpus_path)
        cfg = tiny_config(corpus_path, layers=1, d_model=8, seq_len=16)
        params = init_params(cfg, vocab.size, np.random.default_rng(4))
        chunk = _EVAL_CHUNK_POSITIONS // 16
        ids = tokens[: 8 * chunk * 16 + 1]
        late = next(i for i in np.unique(ids) if np.argmax(ids == i) >= 3 * chunk * 16)
        params["embed"][late, 0] = np.nan
        monkeypatch.setattr(microlm, "_workers", lambda: 2)
        done = []
        ran = record_threads(monkeypatch, "_forward", done=done)
        with pytest.raises(NonFiniteInput, match="contains NaN"):
            evaluate_ppl(params, cfg, vocab, vocab.decode(ids))
        assert 4 <= len(ran) <= 8 and len(done) == len(ran)
        assert set(ran) - {threading.get_ident()} <= helper_idents()
        assert helpers.started == 1 and all_idle(helpers)

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
                monkeypatch.setattr(microlm, "_workers", lambda: workers)
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
        for w, layer in zip(maps, cache["shards"][0]["layers"]):
            assert w.tobytes() == layer["attn"].weights[0].tobytes()

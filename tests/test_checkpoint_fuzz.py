"""Fuzz of the checkpoint loader: truncated, bit-flipped and edited files.

Every input either loads into a model that eval can run, or raises
CheckpointError; no other exception may escape load_checkpoint.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sasoftmax import (
    CheckpointError,
    TrainConfig,
    Vocabulary,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from sasoftmax.microlm import CHECKPOINT_MAGIC, _param_shapes

KEYS = ("format_version", "kind", "layers", "d_model", "seq_len", "rope", "rope_base", "eps",
        "vocab", "params")
NESTED = b"[" * 100000 + b"]" * 100000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)

manifest_edits = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEYS)),
    st.tuples(st.just("set"), st.sampled_from(KEYS), json_values),
    st.tuples(st.just("set"), st.just("vocab"), st.lists(st.integers(-1, 256), max_size=4)),
    st.tuples(st.just("nest"), st.sampled_from((None,) + KEYS), st.integers(1, 5000)),
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small checkpoint's bytes, its decoded manifest, and a scratch path."""
    cfg = TrainConfig(corpus_path="", layers=1, d_model=2)
    vocab = Vocabulary(byte_values=(97, 98, 99))
    params = init_params(cfg, vocab.size, np.random.default_rng(0))
    tmp = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(tmp / "ckpt.bin", params, cfg, vocab)
    whole = (tmp / "ckpt.bin").read_bytes()
    n = int.from_bytes(whole[8:16], "little")
    return whole, json.loads(whole[16:16 + n]), tmp / "case.bin"


def with_payload(whole: bytes, payload: bytes) -> bytes:
    n = int.from_bytes(whole[8:16], "little")
    return CHECKPOINT_MAGIC + len(payload).to_bytes(8, "little") + payload + whole[16 + n:]


def edited(whole: bytes, manifest: dict, edit: tuple) -> bytes:
    op, key, *arg = edit
    if op == "payload":
        return with_payload(whole, arg[0])
    manifest = dict(manifest)
    if op == "drop":
        del manifest[key]
    elif op == "set":
        manifest[key] = arg[0]
    if op != "nest":
        return with_payload(whole, json.dumps(manifest).encode())
    # wrap the whole manifest, or one key's value, in depth lists
    opened, closed = "[" * arg[0], "]" * arg[0]
    if key is None:
        text = opened + json.dumps(manifest) + closed
    else:
        value = json.dumps(manifest[key])
        manifest[key] = "@"
        text = json.dumps(manifest).replace('"@"', opened + value + closed)
    return with_payload(whole, text.encode())


def load_or_refuse(path, blob: bytes):
    """The loaded checkpoint, or None if it was refused with CheckpointError."""
    path.write_bytes(blob)
    try:
        params, cfg, vocab = load_checkpoint(path)
    except CheckpointError:
        return None
    # a load is valid only if eval could run on what it returned
    assert all(a < b for a, b in zip(vocab.byte_values, vocab.byte_values[1:]))
    assert all(0 <= b <= 255 for b in vocab.byte_values)
    assert isinstance(cfg.rope_base, float) and math.isfinite(cfg.rope_base)
    assert isinstance(cfg.eps, float) and math.isfinite(cfg.eps)
    shapes = _param_shapes(cfg, vocab.size)
    assert list(params) == list(shapes)
    for name, arr in params.items():
        assert arr.dtype == np.float64 and arr.shape == shapes[name]
        assert np.all(np.isfinite(arr))
    return params, cfg, vocab


@settings(max_examples=150, deadline=None)
@given(at=st.integers(0, 10**6), xor=st.integers(1, 255))
def test_byte_flip_is_refused_or_loads(saved, at, xor):
    whole, _, path = saved
    blob = bytearray(whole)
    blob[at % len(blob)] ^= xor
    load_or_refuse(path, bytes(blob))


@settings(max_examples=200, deadline=None)
@given(edit=manifest_edits)
@example(edit=("payload", None, NESTED))
@example(edit=("set", "vocab", [10, 10, 10]))
@example(edit=("set", "vocab", [99, 98, 97]))
@example(edit=("set", "rope_base", 10**400))
@example(edit=("set", "eps", float("nan")))
@example(edit=("set", "rope_base", float("inf")))
@example(edit=("nest", None, 5000))
@example(edit=("nest", "params", 5000))
def test_manifest_edit_is_refused_or_loads(saved, edit):
    whole, manifest, path = saved
    load_or_refuse(path, edited(whole, manifest, edit))


def test_unedited_checkpoint_loads(saved):
    whole, manifest, path = saved
    assert load_or_refuse(path, whole)
    assert load_or_refuse(path, edited(whole, manifest, ("set", "kind", manifest["kind"])))


def test_deep_nesting_is_an_undecodable_manifest(saved):
    whole, _, path = saved
    path.write_bytes(with_payload(whole, NESTED))
    with pytest.raises(CheckpointError, match="undecodable manifest"):
        load_checkpoint(path)


def test_repeated_vocab_is_refused(saved):
    whole, manifest, path = saved
    path.write_bytes(edited(whole, manifest, ("set", "vocab", [10, 10, 10])))
    with pytest.raises(CheckpointError, match="strictly ascending"):
        load_checkpoint(path)

"""The benchmark in perfbench/ still runs against the package.

perfbench reaches into internals: the trainer cache's "mask" (the shared
causal mask) and per layer "z" (the full batch's attention logits, kept
beside the per-micro-batch sub-caches), the AttentionCache fields,
dataclasses.replace on JacobianBlock and AttentionGrads, and module
attributes it patches to inject a fault. Its own
self-test takes minutes, so this runs one round of each workload in-process:
the round must pass its checks, and after inject_fault a fresh round must
fail them, with no op raising either way.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from sasoftmax import attention, cli, diagnostics, jacobians, microlm, variants

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = (attention, cli, diagnostics, jacobians, microlm, variants)
NAMES = ("train_mix", "eval_corpus", "oracle_rows", "attn_long")
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.fixture
def restore_modules():
    """Put back every module attribute a workload's inject_fault patches."""
    saved = [(mod, dict(vars(mod))) for mod in MODULES]
    yield
    for mod, attrs in saved:
        for name in set(vars(mod)) - set(attrs):
            delattr(mod, name)
        for name, value in attrs.items():
            if vars(mod).get(name) is not value:
                setattr(mod, name, value)


def _one_round(wl) -> tuple[list[bool], set[int]]:
    """Each op's check result and the final_failures of one round of ops."""
    checks, ops = [], []
    for i in range(wl.round_size):
        checks.append(bool(wl.check(i, wl.op(i))))
        ops.append(SimpleNamespace(index=i, op_class=wl.op_class(i)))
    return checks, wl.final_failures(ops)


@pytest.mark.parametrize("name", NAMES)
def test_round_passes_its_checks(name, tmp_path):
    checks, failures = _one_round(WORKLOADS[name](SEED, tmp_path))
    assert all(checks), checks
    assert failures == set()


@pytest.mark.parametrize("name", NAMES)
def test_injected_fault_is_caught(name, tmp_path, restore_modules):
    wl = WORKLOADS[name](SEED, tmp_path)
    wl.inject_fault()
    checks, failures = _one_round(wl)
    assert not all(checks) or failures

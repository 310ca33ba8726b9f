"""Reference kernel that calibrates timings against the host's current speed.

The benchmark runs on a few cores of a shared host, whose speed for the same
work drifts by 10-40 % over minutes (other tenants on the same cores and
memory; hardly any of it shows as steal). A median over one run cannot
remove a drift that spans the whole run, so identical runs minutes apart
disagree by more than any useful bound.

Each round of timed ops is therefore bracketed by runs of a fixed reference
kernel that lives here, outside the package. A calibrated time is

    op seconds * NOMINAL_S / reference seconds

with the mean of the reference runs just before and just after the op's
round: the op's wall time on a host where the reference takes NOMINAL_S.
A change to the package moves the op and not the reference, so it shows in
full; a slower or faster host moves both and cancels.

The kernel has three parts of about equal time, one per kind of cost the
workloads have, so that it slows with the host whichever resource the other
tenants contend for:

* an interpreter-bound integer loop (call overhead: ``train_mix``,
  ``oracle_rows``);
* numpy on small in-cache arrays: a matmul, a row softmax and a batched
  einsum, the shapes of a default train step;
* numpy streaming between two arrays larger than a core's share of L3
  (``eval_corpus``). They are allocated once, at import, so the kernel adds
  a constant 24 MB to every run's peak RSS instead of setting the peak of
  the small workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PY_LOOP = 150_000
NP_ROUNDS = 5
MEM_WORDS = 1_500_000  # 12 MB of float64 per array
MEM_PASSES = 3

# Wall seconds of one run of the kernel, about its median on the 2-vCPU Xeon
# host the bounds were set on: the scale calibrated times are expressed in.
NOMINAL_S = 0.040

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(16 * 64, 32))
_W = _rng.normal(size=(32, 32))
_Z = _rng.normal(size=(16, 64, 64))
_SRC = np.linspace(0.0, 1.0, MEM_WORDS)
_DST = np.empty(MEM_WORDS)


def _kernel() -> None:
    s = 0
    for i in range(PY_LOOP):
        s += i * i
    for _ in range(NP_ROUNDS):
        h = _X @ _W
        e = np.exp(_Z - _Z.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        s += float(np.einsum("bij,bjk->bik", e, h.reshape(16, 64, 32))[0, 0, 0])
    for _ in range(MEM_PASSES):
        np.exp(_SRC, out=_DST)
        np.sqrt(_DST, out=_DST)
    if not _DST[-1] > 1.0 or s != s:
        raise AssertionError


def reference_s(reps: int = 1) -> float:
    """Median wall seconds of ``reps`` runs of the reference kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(reference_seconds: float) -> float:
    """Factor that turns a wall time into a calibrated time."""
    return NOMINAL_S / reference_seconds

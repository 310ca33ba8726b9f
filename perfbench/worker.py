"""One benchmark process: set up a workload, then time it (or only set up).

Started by run.py, which owns the command line the benchmark is driven by.
The set-up clock starts here, before numpy or sasoftmax is imported, and
stops when the first timed op can be issued: import, corpus load, parameter
init, checkpoint write, input generation and one warm-up round. The result
is written as JSON to ``--result``.

Every round of ops is bracketed by runs of the reference kernel
(calibrate.py), and the end-to-end timings are calibrated by it; the
wall-clock figures are kept in the result as ``*_wall``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import machine  # noqa: E402
import workloads  # noqa: E402
from sasoftmax import attention, cli, diagnostics, jacobians, microlm, variants  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

LAYER_MODULES = (cli, microlm, attention, variants, jacobians, diagnostics)
# A run needs this many ops before op_ms_p90 has ten samples beyond it.
P90_MIN_OPS = 100
# Reference runs that calibrate setup_s, taken right after set-up.
SETUP_REF_REPS = 9


@dataclass
class Op:
    index: int
    op_class: str
    seconds: float
    ok: bool
    error: str | None
    ref_seconds: float = 0.0  # mean of the reference runs before and after the round

    @property
    def calibrated(self) -> float:
        return self.seconds * calibrate.scale(self.ref_seconds)


def run_phase(wl, seconds: float, first: int, tracer: Tracer | None = None) -> list[Op]:
    """Issue whole rounds of ops until ``seconds`` of wall time have passed."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    i = first
    ref_before = calibrate.reference_s(wl.reference_reps)
    while True:
        round_ops = []
        for _ in range(wl.round_size):
            op_class = wl.op_class(i)
            error = None
            if tracer is not None:
                tracer.begin_op(op_class)
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, error = None, f"op: {exc!r}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            ok = False
            if error is None:
                try:
                    ok = bool(wl.check(i, out))
                except Exception as exc:
                    error = f"check: {exc!r}"
            round_ops.append(Op(i, op_class, t1 - t0, ok, error))
            i += 1
        ref_after = calibrate.reference_s(wl.reference_reps)
        for op in round_ops:
            op.ref_seconds = (ref_before + ref_after) / 2
        ops += round_ops
        ref_before = ref_after
        if time.perf_counter() >= deadline:
            return ops


def end_to_end(wl, ops: list[Op]) -> dict:
    """Median op time and median-round throughput, calibrated and wall-clock.

    Throughput is per whole round, so a round-robin mix of op kinds counts
    each kind once per sample."""
    out = {"op_samples": len(ops)}
    for suffix, seconds in (("", lambda op: op.calibrated), ("_wall", lambda op: op.seconds)):
        durations = [seconds(op) for op in ops]
        rounds = [sum(durations[j:j + wl.round_size])
                  for j in range(0, len(ops) - wl.round_size + 1, wl.round_size)]
        per_round = statistics.median(rounds)
        out[f"op_ms_p50{suffix}"] = statistics.median(durations) * 1e3
        out[f"tokens_per_s{suffix}"] = wl.tokens_per_op * wl.round_size / per_round
        out[f"rows_per_s{suffix}"] = wl.rows_per_op * wl.round_size / per_round
        if len(ops) >= P90_MIN_OPS:
            out[f"op_ms_p90{suffix}"] = statistics.quantiles(durations, n=10)[8] * 1e3
    out["reference_ms_p50"] = statistics.median(op.ref_seconds for op in ops) * 1e3
    return out


def per_layer(tracer: Tracer, n_ops: int, train_steps: bool) -> tuple[dict, dict]:
    """Per-op figures of every traced function, and exact calls per op by op class."""
    busy, own, calls, class_calls = tracer.totals()
    out = {}
    for name in calls:
        out[f"{name}.ms"] = 1e3 * busy[name] / n_ops
        out[f"{name}.self_ms"] = 1e3 * own[name] / n_ops
        out[f"{name}.calls"] = calls[name] / n_ops
    cache = tracer.cache_bytes
    if cache:
        out["microlm.forward_loss.cache_mb"] = sum(cache) / len(cache) / 2**20
    if train_steps:
        # in train_mix one op is one full train step of the op's kind
        for kind in workloads.KINDS:
            steps = [end - start for name, start, end, _, op in tracer.spans
                     if name == OP_SPAN and tracer.op_classes[op] == kind.value]
            out[f"microlm.train_step.{kind.value}.ms"] = 1e3 * statistics.mean(steps)
    n_class = {c: tracer.op_classes.count(c) for c in set(tracer.op_classes)}
    exact = {c: {name: n / n_class[c] for name, n in sorted(counts.items())}
             for c, counts in class_calls.items()}
    return out, exact


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    for i in range(wl.round_size):
        wl.op(i)
    setup_s = time.perf_counter() - T0
    setup_ref = calibrate.reference_s(SETUP_REF_REPS)
    result = {"setup_s": setup_s * calibrate.scale(setup_ref),
              "setup_s_wall": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    result["machine"] = machine.machine_block()
    if args.inject_fault:
        wl.inject_fault()
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    cpu0 = machine.cpu_times()
    ops = run_phase(wl, untraced_seconds, wl.round_size)
    result["noise"] = machine.noise_block(cpu0, machine.cpu_times())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(end_to_end(wl, ops))

    if args.trace:
        tracer = Tracer()
        tracer.install(LAYER_MODULES)
        try:
            traced = run_phase(wl, args.seconds / 2, ops[-1].index + 1, tracer)
        finally:
            tracer.uninstall()
        traced_p50 = statistics.median(op.calibrated for op in traced) * 1e3
        result["per_layer"], result["calls_per_op_by_class"] = per_layer(
            tracer, len(traced), wl.name == "train_mix")
        result["per_layer"]["trace.overhead_pct"] = \
            100.0 * (traced_p50 - result["op_ms_p50"]) / result["op_ms_p50"]
        if args.spans is not None:
            tracer.write_spans(args.spans)
        ops += traced

    failed = wl.final_failures(ops)
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for op in ops if not op.ok or op.index in failed)
    result["errors"] = sorted({op.error for op in ops if op.error})[:10]
    if wl.name == "oracle_rows":
        result["gradcheck_flagged_rows"] = sum(len(rows) for rows in wl.flagged.values())
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

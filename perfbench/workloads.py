"""The four benchmark workloads, each a closed loop with one caller.

A workload is built from the run seed (set-up), then issues ops by index.
Ops run in whole rounds (one op per scoring kind where kinds rotate), so
per-op call counts are exact. ``check`` runs after each op outside the timed
region; ``final_failures`` runs the costlier checks once after the loop and
returns the indices of ops whose output they reject. ``inject_fault``
perturbs one output so the self-test can prove the checks bite.
The calibrate.py reference kernel runs ``reference_reps`` times between
rounds, about a tenth of a round's time.

Every call into the package goes through a module attribute
(``microlm.forward_loss``), never a local copy, so an installed tracer sees it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import numpy as np

from sasoftmax import attention, cli, diagnostics, jacobians, microlm, variants

KINDS = variants.ALL_KINDS
SWEEP_GAPS = tuple(float(g) for g in range(2, 17, 2))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


def _same_branches(kind, mask, *scores) -> bool:
    """True if every row keeps its argmin, argmax and v4 clamp branch across
    the given logit arrays, so a central difference between them does not
    straddle a kink of the piecewise-smooth v2-v4 scalers."""
    if kind not in (variants.VariantKind.V2, variants.VariantKind.V3, variants.VariantKind.V4):
        return True
    branches = []
    for z in scores:
        mn, mx, amin, amax = variants.masked_extrema(z, mask)
        branches.append((amin, amax, mn < 0.0, mx > 0.0))
    return all(np.array_equal(a, b) for other in branches[1:]
               for a, b in zip(branches[0], other))


class TrainMix:
    """Five default-config models, one per kind, stepped round-robin."""

    name = "train_mix"
    round_size = len(KINDS)
    reference_reps = 1
    FD_STEP = 1e-5
    FD_TOL = 1e-5
    FD_MIN_GRAD = 1e-4  # below this the FD stencil's round-off exceeds FD_TOL
    FD_BATCH = 4
    FD_DRAWS = 5

    def __init__(self, seed: int, workdir):
        self.seed = seed
        corpus = cli.bundled_corpus_path()
        self.tokens, vocab = microlm.load_corpus(corpus)
        self.models = []
        for i, kind in enumerate(KINDS):
            cfg = microlm.TrainConfig(corpus_path=str(corpus), kind=kind, seed=seed)
            rng = np.random.default_rng([seed, i])
            params = microlm.init_params(cfg, vocab.size, rng)
            self.models.append((cfg, params, microlm.init_adam(params), rng))
        cfg = self.models[0][0]
        self.tokens_per_op = cfg.batch * cfg.seq_len
        self.rows_per_op = cfg.batch * cfg.seq_len * cfg.layers

    def op_class(self, i: int) -> str:
        return KINDS[i % len(KINDS)].value

    def op(self, i: int):
        cfg, params, state, rng = self.models[i % len(KINDS)]
        inputs, targets = microlm.sample_windows(self.tokens, cfg.seq_len, cfg.batch, rng)
        loss, cache = microlm.forward_loss(params, inputs, targets, cfg)
        grads = microlm.backward(cache)
        norm = microlm.global_grad_norm(grads)
        microlm.adam_step(params, grads, state, cfg)
        return loss, norm

    def check(self, i: int, out) -> bool:
        loss, norm = out
        return math.isfinite(loss) and math.isfinite(norm)

    def spot_check(self, model_index: int) -> float:
        """Worst relative error of backward against central differences on
        one sampled entry per parameter tensor, at the model's current state.

        An entry whose stencil moves any attention row across an extrema
        branch is replaced by another draw, as gradcheck skips tie rows.
        """
        cfg, params, _, _ = self.models[model_index]
        rng = np.random.default_rng([self.seed, model_index, 1])
        inputs, targets = microlm.sample_windows(self.tokens, cfg.seq_len, self.FD_BATCH, rng)
        _, cache = microlm.forward_loss(params, inputs, targets, cfg)
        grads = microlm.backward(cache)
        worst = 0.0
        checked = 0
        for name in sorted(grads):
            analytic = grads[name].reshape(-1)
            candidates = np.flatnonzero(np.abs(analytic) >= self.FD_MIN_GRAD)
            flat = params[name].reshape(-1)
            for j in rng.permutation(candidates)[:self.FD_DRAWS]:
                orig = flat[j]
                flat[j] = orig + self.FD_STEP
                plus, plus_cache = microlm.forward_loss(params, inputs, targets, cfg)
                flat[j] = orig - self.FD_STEP
                minus, minus_cache = microlm.forward_loss(params, inputs, targets, cfg)
                flat[j] = orig
                if all(_same_branches(cfg.kind, cache["mask"], *(c["layers"][layer]["z"]
                                      for c in (cache, plus_cache, minus_cache)))
                       for layer in range(cfg.layers)):
                    fd = (plus - minus) / (2 * self.FD_STEP)
                    worst = max(worst, _rel(float(analytic[j]), fd))
                    checked += 1
                    break
        return worst if checked else math.inf

    def final_failures(self, ops) -> set[int]:
        bad_kinds = {KINDS[m].value for m in range(len(KINDS))
                     if not self.spot_check(m) <= self.FD_TOL}
        return {op.index for op in ops if op.op_class in bad_kinds}

    def inject_fault(self) -> None:
        original = microlm.backward

        def skewed(cache):
            grads = original(cache)
            return {name: g * (1.0 + 1e-3) for name, g in grads.items()}

        microlm.backward = skewed


class EvalCorpus:
    """``sasoftmax eval`` on the whole bundled corpus against a saved v4 checkpoint."""

    name = "eval_corpus"
    round_size = 1
    reference_reps = 5
    REL_TOL = 1e-9
    CHUNK = 128

    def __init__(self, seed: int, workdir):
        self.corpus = cli.bundled_corpus_path()
        self.tokens, self.vocab = microlm.load_corpus(self.corpus)
        self.cfg = microlm.TrainConfig(corpus_path=str(self.corpus),
                                       kind=variants.VariantKind.V4, seed=seed)
        self.params = microlm.init_params(self.cfg, self.vocab.size,
                                          np.random.default_rng(seed))
        checkpoint = workdir / "checkpoint.bin"
        microlm.save_checkpoint(checkpoint, self.params, self.cfg, self.vocab)
        self.out_dir = workdir / "eval"
        self.argv = ["eval", "--checkpoint", str(checkpoint), "--text", str(self.corpus),
                     "--out", str(self.out_dir)]
        t = self.cfg.seq_len
        self.tokens_per_op = (len(self.tokens) - 1) // t * t
        self.rows_per_op = self.tokens_per_op * self.cfg.layers
        self.first_doc: bytes | None = None

    def op_class(self, i: int) -> str:
        return "eval"

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, i: int, out) -> bool:
        doc = (self.out_dir / "eval.json").read_bytes()
        if self.first_doc is None:
            self.first_doc = doc
        return out == cli.EXIT_OK and doc == self.first_doc \
            and math.isfinite(json.loads(doc)["ppl"])

    def reference_ppl(self) -> float:
        """exp of the mean loss over the same windows, in chunks of CHUNK windows."""
        t = self.cfg.seq_len
        n_windows = (len(self.tokens) - 1) // t
        total = 0.0
        for lo in range(0, n_windows, self.CHUNK):
            starts = np.arange(lo, min(lo + self.CHUNK, n_windows)) * t
            idx = starts[:, np.newaxis] + np.arange(t)[np.newaxis, :]
            loss, _ = microlm.forward_loss(self.params, self.tokens[idx],
                                           self.tokens[idx + 1], self.cfg)
            total += loss * len(starts)
        return math.exp(total / n_windows)

    def final_failures(self, ops) -> set[int]:
        if self.first_doc is None:
            return set()
        ppl = json.loads(self.first_doc)["ppl"]
        if _rel(ppl, self.reference_ppl()) <= self.REL_TOL:
            return set()
        return {op.index for op in ops}

    def inject_fault(self) -> None:
        original = cli.evaluate_ppl
        cli.evaluate_ppl = lambda *args: original(*args) * (1.0 + 1e-6)


class AttnLong:
    """Public attention layer forward + backward at T=256, d=32, RoPE on."""

    name = "attn_long"
    round_size = len(KINDS)
    reference_reps = 1
    T = 256
    D = 32
    POOL_ROUNDS = 5
    VJP_TOL = 1e-9
    FD_STEPS = (1e-6, 1e-7, 1e-8)
    FD_TOL = 1e-6

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.pool = [tuple(rng.normal(size=(self.T, self.D)) for _ in range(4))
                     for _ in range(self.POOL_ROUNDS * len(KINDS))]
        self.mask = attention.causal_mask(self.T)
        self.directions = np.random.default_rng([seed, 1]).normal(size=(3, self.T, self.D))
        self.tokens_per_op = self.T
        self.rows_per_op = self.T

    def op_class(self, i: int) -> str:
        return KINDS[i % len(KINDS)].value

    def _input(self, i: int, q, k, v):
        return attention.AttentionInput(q=q, k=k, v=v, kind=KINDS[i % len(KINDS)], rope=True)

    def op(self, i: int):
        q, k, v, d_out = self.pool[i % len(self.pool)]
        _, cache = attention.attention_forward(self._input(i, q, k, v))
        return cache, attention.attention_backward(cache, d_out)

    def check(self, i: int, out) -> bool:
        cache, grads = out
        q, k, v, d_out = self.pool[i % len(self.pool)]
        kind = KINDS[i % len(KINDS)]

        # Independent dz: the batched VJP instead of per-row Jacobian blocks.
        dz = jacobians.variant_weight_vjp(cache.scores, self.mask, d_out @ v.T, kind, cache.eps)
        expected = (
            attention.rope_rotate_back((dz @ cache.k_rot) * cache.scale, cache.rope_base),
            attention.rope_rotate_back((dz.T @ cache.q_rot) * cache.scale, cache.rope_base),
            cache.weights.T @ d_out,
        )
        for got, ref in zip((grads.dq, grads.dk, grads.dv), expected):
            if not np.abs(got - ref).max() <= self.VJP_TOL * np.abs(ref).max():
                return False

        # Directional central difference of sum(out * d_out) through the forward,
        # moving q, k and v together, at the largest step whose stencil keeps
        # every row's extrema branches.
        du = self.directions
        analytic = float(np.sum(grads.dq * du[0]) + np.sum(grads.dk * du[1])
                         + np.sum(grads.dv * du[2]))
        for h in self.FD_STEPS:
            ends = [attention.attention_forward(
                self._input(i, q + step * du[0], k + step * du[1], v + step * du[2]))
                for step in (h, -h)]
            if _same_branches(kind, self.mask, cache.scores, *(c.scores for _, c in ends)):
                plus, minus = (float(np.sum(out * d_out)) for out, _ in ends)
                return _rel(analytic, (plus - minus) / (2 * h)) <= self.FD_TOL
        return False

    def final_failures(self, ops) -> set[int]:
        return set()

    def inject_fault(self) -> None:
        original = attention.attention_backward

        def skewed(cache, d_out):
            grads = original(cache, d_out)
            dq = grads.dq.copy()
            dq[-1, 0] += 1e-3 * np.abs(dq).max()
            return dataclasses.replace(grads, dq=dq)

        attention.attention_backward = skewed


class OracleRows:
    """Acceptance-01 gradcheck plus the saturation sweep over every profile."""

    name = "oracle_rows"
    round_size = 1
    reference_reps = 2
    SAMPLES = 1000
    T_RANGE = (1, 8)
    SWEEP_TOL = 1e-9
    FINER_STEPS = (10, 100)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.specs = [diagnostics.SweepSpec(gaps=SWEEP_GAPS, t=4, profile=p)
                      for p in diagnostics.PROFILES]
        lengths = range(self.T_RANGE[0], self.T_RANGE[1] + 1)
        self.grad_rows = self.SAMPLES * len(KINDS) * len(lengths)
        sweep_rows = len(self.specs) * len(SWEEP_GAPS) * len(KINDS)
        self.rows_per_op = self.grad_rows + sweep_rows
        self.tokens_per_op = self.SAMPLES * len(KINDS) * sum(lengths) + sweep_rows * 4
        self.flagged: dict[int, set] = {}
        self.vjp_reference = {}

    def op_class(self, i: int) -> str:
        return "oracle"

    def _gradcheck_seed(self, i: int) -> int:
        return self.seed * 100_003 + i

    def op(self, i: int):
        reports = jacobians.gradcheck(samples=self.SAMPLES, t_range=self.T_RANGE,
                                      seed=self._gradcheck_seed(i))
        return reports, [diagnostics.saturation_sweep(spec) for spec in self.specs]

    def _reference(self, spec, g: float, kind) -> tuple[float, float, float]:
        """Sweep summaries from the batched VJP: row j of the Jacobian is the
        VJP of the unit vector e_j, an independent path with the same tie rule."""
        key = (spec.profile, g, kind)
        if key not in self.vjp_reference:
            z = diagnostics.profile_row(spec.profile, g, spec.t)
            jac = jacobians.variant_weight_vjp(np.tile(z, (spec.t, 1)),
                                               np.ones((spec.t, spec.t), dtype=bool),
                                               np.eye(spec.t), kind)
            self.vjp_reference[key] = (float(np.sqrt(np.sum(jac * jac))), float(jac[0, 0]),
                                       float(np.sum(np.abs(jac[:, 0]))))
        return self.vjp_reference[key]

    def _sweep_ok(self, sweeps) -> bool:
        for spec, records in zip(self.specs, sweeps):
            if len(records) != len(SWEEP_GAPS) * len(KINDS):
                return False
            for r in records:
                got = (r.frob_norm, r.diag_peak, r.rowgrad_sum)
                ref = self._reference(spec, r.g, r.kind)
                if any(abs(a - b) > self.SWEEP_TOL * max(1.0, abs(b)) for a, b in zip(got, ref)):
                    return False
            if spec.profile == "uniform":
                # the row does not depend on g, so neither may any record
                per_kind = {}
                for r in records:
                    got = (r.frob_norm, r.diag_peak, r.rowgrad_sum)
                    if per_kind.setdefault(r.kind, got) != got:
                        return False
            if spec.profile == "one_peak":
                # acceptance criterion 03: baseline vanishes, v1 amplifies
                base = [r.frob_norm for r in records if r.kind is variants.VariantKind.BASELINE]
                v1 = [r.frob_norm for r in records if r.kind is variants.VariantKind.V1]
                ratios = [a / b for a, b in zip(v1, base)]
                if not (np.all(np.diff(base) < 0.0) and base[-1] < 1e-5
                        and np.all(np.diff(ratios) > 0.0)
                        and ratios[SWEEP_GAPS.index(10.0)] > 1e3):
                    return False
        return True

    def check(self, i: int, out) -> bool:
        reports, sweeps = out
        flagged = {(r.kind, r.t, r.sample) for r in reports if not r.skipped_tie and not r.passed}
        if flagged:
            self.flagged[i] = flagged
        return len(reports) == self.grad_rows and self._sweep_ok(sweeps)

    def final_failures(self, ops) -> set[int]:
        """Ops with a compared gradcheck row that fails, unless the FD stencil
        itself is at fault.

        Rows whose extrema gap or v4 clamp distance sits just outside the tie
        margin have FD truncation error above tol_rel at the default step
        (e.g. v4 at t=1 with z=5.5e-4: 3e-4 at h=1e-5, 3e-6 at h=1e-6, pass at
        h=1e-7). A flagged row passes if central differences converge to the
        closed form at a 10x or 100x finer step. Run after the timed loop so
        the re-checks do not count in peak_rss_mb.
        """
        failed = set()
        for i, flagged in self.flagged.items():
            for scale in self.FINER_STEPS:
                finer = jacobians.gradcheck(samples=self.SAMPLES, t_range=self.T_RANGE,
                                            seed=self._gradcheck_seed(i),
                                            h=jacobians.FD_STEP / scale)
                flagged = flagged - {(r.kind, r.t, r.sample) for r in finer if r.passed}
                if not flagged:
                    break
            if flagged:
                failed.add(i)
        return failed

    def inject_fault(self) -> None:
        original = diagnostics.variant_jacobian

        def skewed(z, kind, eps=variants.DEFAULT_EPS):
            block = original(z, kind, eps)
            return dataclasses.replace(block, entries=block.entries * (1.0 + 1e-3))

        diagnostics.variant_jacobian = skewed


WORKLOADS = {w.name: w for w in (TrainMix, EvalCorpus, AttnLong, OracleRows)}

"""Jacobian tests: the VJP-built Jacobians against frozen values and the
closed-form oracle, the finite-difference oracle, and the gradcheck harness."""

import gc
import json

import numpy as np
import pytest

from sasoftmax import (
    ALL_KINDS,
    DEFAULT_EPS,
    EmptyRow,
    GradCheckReport,
    NonFiniteInput,
    ShapeMismatch,
    VariantKind,
    apply_variant,
    causal_mask,
    gradcheck,
    reports_to_json,
    variant_jacobian,
    variant_weight_vjp,
)
from sasoftmax import jacobians
from sasoftmax.jacobians import (
    ABS_FLOOR,
    FD_STEP,
    _fd_full_rows,
    _jacobian_full_rows,
    _tie_rows,
)
from sasoftmax.variants import _weight_vjp, _weights, masked_extrema, variant_weights

from closed_form import closed_form_jacobians


def transposed_strides(x):
    """x's values in a view whose last two axes are stored column-major."""
    return np.swapaxes(np.swapaxes(x, -1, -2).copy(), -1, -2)


class TestSoftmaxJacobian:
    """The baseline Jacobian is the softmax Jacobian diag(a) - a a^T."""

    def test_uniform_pair(self):
        block = variant_jacobian([0.0, 0.0], VariantKind.BASELINE)
        np.testing.assert_allclose(block.entries, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_saturated_singleton(self):
        block = variant_jacobian([3.0], VariantKind.BASELINE)
        assert block.entries[0, 0] == 0.0

    def test_ordered_pair_frozen_values(self):
        # 50-digit evaluation of a(1-a) and -a0*a1 at softmax([1, 2])
        block = variant_jacobian([1.0, 2.0], VariantKind.BASELINE)
        np.testing.assert_allclose(np.diag(block.entries), [0.196611933241] * 2, atol=1e-5)
        assert abs(block.entries[0, 1] + 0.196611933241) <= 1e-5

    def test_rows_sum_to_zero_and_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = int(rng.integers(1, 20))
            j = variant_jacobian(rng.uniform(-8, 8, t), VariantKind.BASELINE).entries
            np.testing.assert_allclose(j.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(j, j.T, atol=1e-15)


class TestVariantJacobian:
    def test_v1_at_zero_is_half_identity(self):
        block = variant_jacobian([0.0, 0.0], VariantKind.V1)
        np.testing.assert_allclose(block.entries, np.diag([0.5, 0.5]), rtol=0, atol=1e-12)

    def test_peak_row_diagonals_frozen(self):
        # 50-digit evaluation at z = [10, 0, 0, 0]
        z = [10.0, 0.0, 0.0, 0.0]
        base = variant_jacobian(z, VariantKind.BASELINE).entries[0, 0]
        v1 = variant_jacobian(z, VariantKind.V1).entries[0, 0]
        assert abs(base - 1.36162696101e-4) <= 1e-12
        assert abs(v1 - 1.00122544572) <= 1e-9

    def test_baseline_is_softmax_jacobian(self):
        z = [1.0, 2.0]
        a = variant_jacobian(z, VariantKind.BASELINE).entries
        s = apply_variant(z, VariantKind.BASELINE)
        np.testing.assert_allclose(a, np.diag(s) - np.outer(s, s), atol=1e-15)

    def test_v1_decomposition_identity(self):
        # J_v1 = diag(softmax) + diag(z) @ J_softmax
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = int(rng.integers(1, 12))
            z = rng.uniform(-8, 8, t)
            jv1 = variant_jacobian(z, VariantKind.V1).entries
            jsm = variant_jacobian(z, VariantKind.BASELINE).entries
            s = apply_variant(z, VariantKind.BASELINE)
            np.testing.assert_allclose(jv1, np.diag(s) + np.diag(z) @ jsm, atol=1e-12)

    def test_saturation_amplification(self):
        # For z = [g, 0, 0, 0] the v1/baseline Frobenius ratio grows with g
        # and passes 1e3 by g = 10.
        ratios = []
        for g in range(2, 17, 2):
            z = [float(g), 0.0, 0.0, 0.0]
            fb = np.linalg.norm(variant_jacobian(z, VariantKind.BASELINE).entries)
            fv = np.linalg.norm(variant_jacobian(z, VariantKind.V1).entries)
            ratios.append(fv / fb)
        assert np.all(np.diff(ratios) > 0.0)
        assert ratios[4] > 1e3  # g = 10

    def test_trough_gradient_amplification(self):
        # z = [-g, 0, 0, 0]: total |gradient| delivered to the trough logit
        # (column sum) is larger under v2 than under the baseline for g >= 4.
        for g in (4.0, 8.0, 12.0, 16.0):
            z = [-g, 0.0, 0.0, 0.0]
            col_base = np.abs(variant_jacobian(z, VariantKind.BASELINE).entries[:, 0]).sum()
            col_v2 = np.abs(variant_jacobian(z, VariantKind.V2).entries[:, 0]).sum()
            assert col_v2 > col_base


def fd_row(z, kind, eps=DEFAULT_EPS, h=FD_STEP):
    """The central-difference Jacobian of one logit row, from the batched
    stencil on a one-row batch that keeps the row's memory layout."""
    return _fd_full_rows(np.asarray(z, dtype=np.float64)[np.newaxis], kind, eps, h)[0]


class TestFiniteDifferenceOracle:
    def test_uniform_pair_baseline(self):
        block = fd_row([0.0, 0.0], VariantKind.BASELINE, h=1e-5)
        np.testing.assert_allclose(block, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-9)

    def test_v4_agrees_with_analytic(self):
        z = [1.0, 2.0]
        a = variant_jacobian(z, VariantKind.V4).entries
        f = fd_row(z, VariantKind.V4, h=1e-5)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
        assert (np.abs(a - f) / denom).max() < 1e-6

    def test_tie_row_is_flagged(self):
        rows = np.array([[2.0, 2.0], [2.0, 3.0]])
        assert _tie_rows(rows, VariantKind.V2, FD_STEP).tolist() == [True, False]

    def test_v4_clamp_boundary_is_flagged(self):
        # extrema near 0 flip the clamp branches inside the FD stencil
        rows = np.array([[1e-6, 3.0], [-3.0, -1e-6], [-1.0, 3.0]])
        assert _tie_rows(rows, VariantKind.V4, FD_STEP).tolist() == [True, True, False]
        assert _tie_rows(rows, VariantKind.V3, FD_STEP).tolist() == [False, False, False]

    @pytest.mark.parametrize("values, col, step", [
        ([0.0, 1.0, 2.5], 0, 1e-7),    # x_min = 0: lo = min(x_min, 0) stays 0 for +h
        ([-2.0, -1.0, 0.0], 2, -1e-7),  # x_max = 0: max(x_max, 0) stays 0 for -h
    ])
    def test_v4_clamp_boundary_takes_constant_branch(self, values, col, step):
        # gradcheck skips these rows as ties; here the one-sided difference
        # on the constant branch pins the strict x_min < 0 / x_max > 0 gates
        jac = variant_jacobian(values, VariantKind.V4).entries
        bumped = np.array(values)
        bumped[col] += step
        one_sided = (apply_variant(bumped, VariantKind.V4)
                     - apply_variant(values, VariantKind.V4)) / step
        assert np.abs(jac[:, col] - one_sided).max() <= 1e-6 * np.abs(one_sided).max()
        g = np.array([0.7, -1.3, 2.1])
        dz = variant_weight_vjp(np.array([values]), np.ones((1, 3), dtype=bool),
                                g[np.newaxis, :], VariantKind.V4)
        np.testing.assert_allclose(dz[0], jac.T @ g, rtol=0, atol=1e-14)

    def test_rejects_nonpositive_step_and_eps(self):
        z = [1.0, 2.0]
        with pytest.raises(ValueError):
            fd_row(z, VariantKind.V3, h=0.0)
        with pytest.raises(ValueError):
            fd_row(z, VariantKind.V3, eps=0.0)


def loop_fd_full_rows(z, kind, eps, h):
    """_fd_full_rows as it was written with two variant_weights calls per
    perturbed column on rows stored contiguously: the reference for the
    stencil that holds the samples innermost."""
    n, t = z.shape
    mask = np.ones_like(z, dtype=bool)
    out = np.empty((n, t, t))
    for k in range(t):
        bump = np.zeros(t)
        bump[k] = h
        plus = variant_weights(z + bump, mask, kind, eps)
        minus = variant_weights(z - bump, mask, kind, eps)
        out[:, :, k] = (plus - minus) / (2.0 * h)
    return out


def stencil_rows(t, rng):
    """Random rows, then rows whose min or max sits at or within one step of
    0, where the v4 clamps switch inside the stencil, and a tied extremum."""
    rows = [*rng.uniform(-8.0, 8.0, size=(200, t))]
    for v in (0.0, -0.0, FD_STEP / 3, -FD_STEP / 3, FD_STEP, -FD_STEP):
        above = rng.uniform(0.5, 8.0, t)
        above[0] = v
        below = -rng.uniform(0.5, 8.0, t)
        below[-1] = v
        rows += [above, below]
    tied = rng.uniform(-8.0, 8.0, t)
    tied[-1] = tied.min()
    return np.array(rows + [tied])


class TestStencil:
    """_fd_full_rows against the per-column loop, across memory layouts, and
    by the number of kernel calls it makes."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_per_column_loop(self, kind):
        rng = np.random.default_rng(83)
        for t in range(1, 13):
            z = stencil_rows(t, rng)
            got = _fd_full_rows(z, kind, DEFAULT_EPS, FD_STEP)
            want = loop_fd_full_rows(z, kind, DEFAULT_EPS, FD_STEP)
            if t <= 7:
                assert got.tobytes() == want.tobytes(), t
            else:
                # the softmax sums rows of 8 or more in another order
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=str(t))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_independent_of_memory_layout(self, kind):
        rng = np.random.default_rng(84)
        for t in range(1, 10):
            z = rng.uniform(-8.0, 8.0, size=(50, t))
            spaced = np.zeros((100, 2 * t))
            spaced[::2, ::2] = z
            layouts = (np.ascontiguousarray(z), np.asfortranarray(z), spaced[::2, ::2])
            for helper in (lambda x: _fd_full_rows(x, kind, DEFAULT_EPS, FD_STEP),
                           lambda x: _jacobian_full_rows(x, kind, DEFAULT_EPS)):
                want, *rest = (helper(x) for x in layouts)
                assert want.strides[0] == want.itemsize, "samples innermost"
                for got in rest:
                    assert got.tobytes() == want.tobytes(), t
            rows = (z[0].copy(), np.asfortranarray(z)[0], spaced[0, ::2])
            for oracle in (lambda row: fd_row(row, kind),
                           lambda row: variant_jacobian(row, kind).entries):
                want, *rest = (oracle(row) for row in rows)
                for got in rest:
                    assert got.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_independent_of_column_group(self, kind, monkeypatch):
        rng = np.random.default_rng(86)
        for t in range(1, 13):
            z = stencil_rows(t, rng)
            got = []
            for columns in (1, 4, 8):
                monkeypatch.setattr(jacobians, "_FD_COLUMNS", columns)
                got.append(_fd_full_rows(z, kind, DEFAULT_EPS, FD_STEP).tobytes())
            assert got[1:] == got[:1] * 2, t

    def test_one_block_makes_few_kernel_calls(self, monkeypatch):
        # a t = 8 block is one group of eight columns: one call per sign
        calls = []

        def counting(*args):
            calls.append(args[0].shape)
            return variant_weights(*args)

        monkeypatch.setattr(jacobians, "variant_weights", counting)
        gradcheck(samples=10, t_range=(8, 8), kinds=(VariantKind.V4,))
        assert calls == [(8, 10, 8)] * 2, calls

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_dimensional_mask_keeps_bits(self, kind):
        # the stencils pass a (T,) all-live mask; it broadcasts, and the
        # kernels' results keep the samples-innermost layout and every bit
        # they have under a mask of the stack's own shape and layout
        rng = np.random.default_rng(87)
        for t in range(1, 13):
            z = stencil_rows(t, rng)
            # memory order (j, k, sample), viewed as (k, sample, j) rows
            stacked = np.repeat(z.T[:, np.newaxis, :], 3, axis=1).transpose(1, 2, 0)
            grad_w = rng.normal(size=(t, 3, len(z))).transpose(1, 2, 0)
            got = []
            for mask in (np.ones(t, dtype=bool), np.ones_like(stacked, dtype=bool)):
                factors = _weights(stacked, mask, kind, DEFAULT_EPS)
                got.append([variant_weights(stacked, mask, kind),
                            _weight_vjp(stacked, mask, grad_w, *factors)])
            for a, b in zip(*got):
                assert a.strides == b.strides and a.tobytes() == b.tobytes(), t


class TestClosedFormOracle:
    """Every analytic Jacobian in the package is built from the VJP; the
    entrywise closed form checks it, ties and v4 clamp rows included."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vjp_built_jacobians_match(self, kind):
        rng = np.random.default_rng(85)
        for t in range(1, 13):
            z = stencil_rows(t, rng)
            want = closed_form_jacobians(z, kind)
            # Entries sum terms of size s_j / d, so round-off grows as 1 / d.
            # One v3 row here has d = 1.6e-4; there the two forms differ by
            # 4.6e-13, and each differs from a 50-digit evaluation by 3e-13.
            sc = _weights(z, np.ones_like(z, dtype=bool), kind, DEFAULT_EPS)[1]
            d = np.broadcast_to(1.0 if sc is None else sc.d, (len(z), 1))
            tol = np.maximum(1e-13, 1e-16 / d)[..., np.newaxis]
            got = _jacobian_full_rows(z, kind, DEFAULT_EPS)
            assert np.all(np.abs(got - want) <= tol), t
            for row, block, row_tol in zip(z, want, tol):
                assert np.all(np.abs(variant_jacobian(row, kind).entries - block) <= row_tol), t


class TestStackedJacobian:
    """variant_jacobian on an (N, T) stack: one batched call, each block equal
    to the row's own call."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_per_row_calls(self, kind):
        rng = np.random.default_rng(88)
        for t in range(1, 13):
            z = stencil_rows(t, rng)
            got = variant_jacobian(z, kind).entries
            assert got.shape == (len(z), t, t)
            want = np.array([variant_jacobian(row, kind).entries for row in z])
            if t <= 7:
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), t
            else:
                # Row sums of 8 or more run pairwise on one row and in sequence
                # on a stack. The difference stays within 1e-15 of the row's
                # largest term: a weight (the v1 terms g_k c_k s_k) or 1 / d.
                s, sc, w = _weights(z, np.ones(t, dtype=bool), kind, DEFAULT_EPS)
                d = np.broadcast_to(1.0 if sc is None else sc.d, (len(z), 1))
                scale = np.maximum(np.abs(w).max(axis=1), 1.0 / d[:, 0])
                assert np.all(np.abs(got - want) <= 1e-15 * scale[:, np.newaxis, np.newaxis]), t

    def test_bad_stacks_rejected(self):
        with pytest.raises(ShapeMismatch):
            variant_jacobian(np.zeros((2, 3, 4)), VariantKind.V3)
        with pytest.raises(ShapeMismatch):
            variant_jacobian(1.0, VariantKind.V3)
        for empty in (np.zeros((0, 3)), np.zeros((3, 0)), []):
            with pytest.raises(EmptyRow):
                variant_jacobian(empty, VariantKind.V3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteInput):
                variant_jacobian([[1.0, 2.0], [3.0, bad]], VariantKind.V3)


class TestGradcheck:
    def test_small_suite_passes(self):
        reports = gradcheck(samples=50, t_range=(1, 6), tol_rel=1e-6, seed=7)
        assert len(reports) == 50 * 6 * 5
        checked = [r for r in reports if not r.skipped_tie]
        assert checked, "tie filter removed everything"
        assert all(r.passed for r in checked)

    def test_trivial_singleton_baseline(self):
        reports = gradcheck(samples=1, t_range=(1, 1), kinds=(VariantKind.BASELINE,), seed=0)
        assert len(reports) == 1
        assert reports[0].passed and not reports[0].skipped_tie
        assert reports[0].max_abs_err == 0.0

    def test_same_seed_identical_reports(self):
        a = gradcheck(samples=20, t_range=(1, 4), seed=123)
        b = gradcheck(samples=20, t_range=(1, 4), seed=123)
        assert a == b
        assert reports_to_json(a) == reports_to_json(b)

    def test_json_round_trip_fields(self):
        reports = gradcheck(samples=2, t_range=(2, 2), kinds=(VariantKind.V3,), seed=1)
        rows = json.loads(reports_to_json(reports))
        assert list(rows[0].keys()) == [
            "kind", "t", "sample", "max_abs_err", "max_rel_err",
            "worst_entry", "passed", "skipped_tie"]
        assert rows[0]["kind"] == "v3"
        # a wide stencil makes sample 0 a tie row, which is written as zero
        # error at entry (0, 0), passed and skipped
        wide = gradcheck(samples=2, t_range=(2, 2), kinds=(VariantKind.V3,), seed=1, h=1.0)
        assert json.loads(reports_to_json(wide))[0] == {
            "kind": "v3", "t": 2, "sample": 0, "max_abs_err": 0.0, "max_rel_err": 0.0,
            "worst_entry": [0, 0], "passed": True, "skipped_tie": True}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gradcheck(samples=0)
        with pytest.raises(ValueError):
            gradcheck(samples=1, tol_rel=0.0)
        with pytest.raises(ValueError):
            gradcheck(samples=1, t_range=(3, 2))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_gc_as_found(self, enabled, monkeypatch):
        # the GC is paused while the rows are built, then restored only if
        # it was on, so a caller that turned it off keeps it off
        paused = []

        def stencil(*args):
            paused.append(not gc.isenabled())
            return _fd_full_rows(*args)

        monkeypatch.setattr(jacobians, "_fd_full_rows", stencil)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            gradcheck(samples=20, t_range=(1, 3), seed=3)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert paused == [True] * 3 * len(ALL_KINDS)

    def test_restores_gc_when_raising(self, monkeypatch):
        def broken(*args):
            assert not gc.isenabled()
            raise RuntimeError("stencil failed")

        monkeypatch.setattr(jacobians, "_fd_full_rows", broken)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="stencil failed"):
            gradcheck(samples=2, t_range=(1, 2), seed=0)
        assert gc.isenabled()

    def test_accepts_numpy_integers_and_list_range(self):
        want = gradcheck(samples=3, t_range=(1, 2), seed=4)
        assert gradcheck(samples=np.int64(3), t_range=[np.int32(1), 2], seed=np.uint8(4)) == want

    # Central differences at the default step are accurate to about the
    # absolute floor, so rows fail only once the floor is lowered as well, or
    # at a coarse step, where most compared rows have a non-zero error.
    @pytest.mark.parametrize("tol_rel, abs_floor, h", [
        pytest.param(1e-6, ABS_FLOOR, FD_STEP, id="1e-06-1e-09"),
        pytest.param(1e-12, 1e-14, FD_STEP, id="1e-12-1e-14"),
        pytest.param(1e-6, ABS_FLOOR, 1e-3, id="1e-06-1e-09-h1e-03")])
    def test_matches_per_row_loop(self, tol_rel, abs_floor, h, monkeypatch):
        monkeypatch.setattr(jacobians, "ABS_FLOOR", abs_floor)
        got = gradcheck(samples=100, t_range=(1, 8), tol_rel=tol_rel, seed=5, h=h)
        want = loop_gradcheck(100, (1, 8), tol_rel, seed=5, abs_floor=abs_floor, h=h)
        # line lists and per-report equality keep a failure's diff short
        assert reports_to_json(got).splitlines() == reports_to_json(want).splitlines()
        for g, w in zip(got, want):
            assert g == w
        checked = [r for r in got if not r.skipped_tie]
        assert len(checked) < len(got) and {r.kind for r in checked} == set(ALL_KINDS)
        if tol_rel == 1e-12:
            # failing rows exercise passed=False and worst entries off (0, 0)
            failed = [r for r in checked if not r.passed]
            assert 0 < len(failed) < len(checked)
            assert len({r.worst_entry for r in failed}) > 10
        if h == 1e-3:
            # most compared rows take the argmax over their entries, and a row
            # of t >= 2 can still have no error left above the floor
            nonzero = [r for r in checked if r.max_rel_err != 0.0]
            assert len(nonzero) > len(checked) // 2
            assert any(not r.passed for r in nonzero)
            assert len({r.worst_entry for r in nonzero}) > 10
            assert any(r.t > 1 and r.max_rel_err == 0.0 for r in checked)
        for r in got:
            # the rows are built without _make's length check
            assert type(r) is GradCheckReport and len(r) == len(GradCheckReport._fields)
            assert type(r.max_abs_err) is float and type(r.max_rel_err) is float
            assert type(r.passed) is bool and type(r.skipped_tie) is bool
            assert type(r.worst_entry) is tuple
            assert [type(i) for i in r.worst_entry] == [int, int]


def loop_gradcheck(samples, t_range, tol_rel, seed, abs_floor, h=FD_STEP):
    """gradcheck as it was written with a per-row loop of numpy reductions:
    the reference for the whole-array reductions, which must give the same
    reports, field types included."""
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(t_range[0], t_range[1] + 1):
        for kind in ALL_KINDS:
            z = rng.uniform(-8.0, 8.0, size=(samples, t))
            ties = _tie_rows(z, kind, h)
            analytic = _jacobian_full_rows(z, kind, DEFAULT_EPS)
            fd = _fd_full_rows(z, kind, DEFAULT_EPS, h)
            abs_err = np.abs(analytic - fd)
            denom = np.maximum(np.abs(analytic), np.abs(fd))
            rel = np.divide(abs_err, denom, out=np.zeros_like(abs_err), where=denom > 0)
            eff_rel = np.where(abs_err <= abs_floor, 0.0, rel)
            for i in range(samples):
                if ties[i]:
                    reports.append(GradCheckReport(
                        kind=kind, t=t, sample=i, max_abs_err=0.0, max_rel_err=0.0,
                        worst_entry=(0, 0), passed=True, skipped_tie=True))
                    continue
                worst_flat = int(np.argmax(eff_rel[i]))
                worst = (worst_flat // t, worst_flat % t)
                max_rel = float(eff_rel[i].max())
                reports.append(GradCheckReport(
                    kind=kind, t=t, sample=i,
                    max_abs_err=float(abs_err[i].max()),
                    max_rel_err=max_rel,
                    worst_entry=worst,
                    passed=bool(max_rel <= tol_rel),
                    skipped_tie=False))
    return reports


def first_live_extrema(row, live):
    """(argmin, argmax) of row over its live entries, the first of any tie,
    by a plain loop; -0.0 == 0.0, so signed zeros tie."""
    idx = [i for i in range(len(row)) if live[i]]
    lo = min(row[i] for i in idx)
    hi = max(row[i] for i in idx)
    return next(i for i in idx if row[i] == lo), next(i for i in idx if row[i] == hi)


def hard_rows():
    """(scores, mask) rows of at most 6 entries, so that a row's sums run in
    order whatever its masked entries: exact ties at the min and the max,
    signed zeros, v4 rows whose live min or max is exactly 0, and masked
    entries below the live min or above the live max."""
    live = [True] * 6
    rows = [
        ([1.0, -2.0, 3.0, -2.0, 3.0, 1.0], live),
        ([0.0, -0.0, 0.0, 1.0, 2.5, 2.5], live),
        ([-0.0, 0.0, -1.0, -0.0, -1.0, 0.0], live),
        ([0.0, 2.5, -0.0, 1.0, 2.5, 0.0], live),
        ([-1.0, -1.0, -1.0, -1.0, -1.0, -1.0], live),
        ([-9.0, 1.0, -1.0, 9.0, 1.0, -1.0], [False, True, True, False, True, True]),
        ([-9.0, 0.0, 2.5, 2.5, -0.0, 7.0], [False, True, True, True, True, False]),
        ([9.0, -0.0, -1.0, -1.0, 0.0, -9.0], [False, True, True, True, True, False]),
        ([-5.0, 2.5, 8.0, 2.5, -3.0, 0.0], [False, True, False, True, False, False]),
    ]
    rng = np.random.default_rng(81)
    for _ in range(40):
        row = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=6)
        mask = rng.random(6) < 0.6
        mask[rng.integers(0, 6)] = True
        row[~mask] = rng.choice([-9.0, 9.0], size=(~mask).sum())
        rows.append((row, mask))
    return [(np.array(r, dtype=np.float64), np.array(m)) for r, m in rows]


class TestWeightVjp:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gate_positions_on_hard_rows(self, kind):
        # The VJP finds the argmin/argmax itself. On rows full of ties it
        # must put each gate on the lowest live index, ignore masked entries
        # outside the live range, and give masked columns exactly 0. Row j of
        # the closed form on the live entries is the VJP of e_j; the baseline,
        # v1 and v2 assemble it with the same rounding, v3 and v4 within
        # round-off (a gate in the wrong column moves an entry by O(s/d)).
        # The closed form's positions come from masked_extrema, which shares
        # the VJP's finder, so they are pinned to a plain loop first.
        atol = 0.0 if kind in (VariantKind.BASELINE, VariantKind.V1, VariantKind.V2) else 1e-15
        for row, mask in hard_rows():
            want = first_live_extrema(row, mask)
            assert tuple(int(a) for a in masked_extrema(row, mask)[2:]) == want
            live = np.flatnonzero(mask)
            oracle = closed_form_jacobians(row[np.newaxis, live], kind)[0]
            basis = np.zeros((len(live), 1, len(row)))
            basis[np.arange(len(live)), 0, live] = 1.0
            dz = variant_weight_vjp(np.broadcast_to(row, basis.shape),
                                    np.broadcast_to(mask, basis.shape), basis, kind)[:, 0]
            assert np.all(dz[:, ~mask] == 0.0)
            np.testing.assert_allclose(dz[:, live], oracle, rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_transposed_jacobian(self, kind):
        rng = np.random.default_rng(77)
        t = 7
        scores = rng.uniform(-6, 6, (4, t, t))
        grad_w = rng.normal(size=(4, t, t))
        mask = causal_mask(t)
        dz = variant_weight_vjp(scores, mask, grad_w, kind)
        for b in range(4):
            for i in range(t):
                # the live block of row i, over its prefix scores[b, i, :i+1]
                block = closed_form_jacobians(scores[b, i, np.newaxis, :i + 1], kind)[0]
                np.testing.assert_allclose(dz[b, i, :i + 1], block.T @ grad_w[b, i, :i + 1],
                                           atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_independent_of_memory_layout(self, kind):
        rng = np.random.default_rng(79)
        t = 6
        scores = rng.uniform(-4, 4, (3, t, t))
        grad_w = rng.normal(size=(3, t, t))
        mask = causal_mask(t)
        want = variant_weight_vjp(scores, mask, grad_w, kind)
        for layout in (np.asfortranarray, transposed_strides):
            got = variant_weight_vjp(layout(scores), layout(mask), layout(grad_w), kind)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_leaves_inputs_unchanged(self, kind):
        rng = np.random.default_rng(80)
        t = 6
        scores = rng.uniform(-4, 4, (3, t, t))
        grad_w = rng.normal(size=(3, t, t))
        before = scores.tobytes(), grad_w.tobytes()
        first = variant_weight_vjp(scores, causal_mask(t), grad_w, kind)
        assert (scores.tobytes(), grad_w.tobytes()) == before
        assert variant_weight_vjp(scores, causal_mask(t), grad_w, kind).tobytes() == first.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_masked_entries_zero(self, kind):
        rng = np.random.default_rng(78)
        t = 5
        scores = rng.uniform(-3, 3, (t, t))
        dz = variant_weight_vjp(scores, causal_mask(t), rng.normal(size=(t, t)), kind)
        assert np.all(dz[~causal_mask(t)] == 0.0)

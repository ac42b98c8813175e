"""Energy normalization: closed forms, smoother recurrence, gradients."""

import dataclasses

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefront.melfb import FeatureMap
from wavefront.pcen import (
    PcenParams,
    compression_report,
    init_pcen_params,
    pcen_backward,
    pcen_forward,
    smoother,
)

class TestSmoother:
    def test_geometric_decay(self):
        m = smoother(np.array([[1.0, 0.0, 0.0]]), 0.5)
        assert m[0] == pytest.approx([1.0, 0.5, 0.25])

    def test_constant_is_fixed_point(self):
        m = smoother(np.full((1, 6), 3.0), 0.3)
        assert m[0] == pytest.approx([3.0] * 6)

    def test_s_equal_one_is_identity(self):
        e = np.random.default_rng(0).uniform(0, 2, (3, 7))
        m = smoother(e, 1.0)
        assert m == pytest.approx(e)

    def test_rejects_negative_energies(self):
        with pytest.raises(ValueError):
            smoother(np.array([[1.0, -0.1]]), 0.5)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
    @settings(max_examples=40)
    def test_output_is_convex_combination(self, seed, s):
        e = np.random.default_rng(seed).uniform(0, 5, (4, 20))
        m = smoother(e, s)
        for ch in range(4):
            assert np.all(m[ch] >= e[ch].min() - 1e-12)
            assert np.all(m[ch] <= e[ch].max() + 1e-12)


class TestForwardClosedForms:
    def test_identity_configuration(self):
        e = np.random.default_rng(1).uniform(0, 3, (2, 9))
        p = PcenParams(alpha=np.zeros(2), delta=np.zeros(2), r=np.ones(2))
        out, _ = pcen_forward(FeatureMap(e), p)
        assert out.values == pytest.approx(e, abs=1e-12)

    def test_square_root_compression(self):
        p = PcenParams(alpha=np.zeros(1), delta=np.zeros(1), r=np.array([0.5]))
        out, _ = pcen_forward(FeatureMap([[4.0, 4.0]]), p)
        assert out.values == pytest.approx(2.0, abs=1e-12)

    def test_constant_row_value(self):
        # constant input makes the smoothed average equal the input, so the
        # normalized energy is ~1 and the output is (1+delta)^r - delta^r
        c = 5.0
        p = PcenParams(
            alpha=np.ones(1), delta=np.array([2.0]), r=np.array([0.5]),
            epsilon=1e-12,
        )
        out, _ = pcen_forward(FeatureMap([[c] * 8]), p)
        expected = np.sqrt(1.0 + 2.0) - np.sqrt(2.0)
        assert out.values == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.3178, abs=1e-4)

    def test_negative_r_uses_magnitude(self):
        e = np.random.default_rng(2).uniform(0.1, 2, (1, 6))
        pos, _ = pcen_forward(
            FeatureMap(e),
            PcenParams(alpha=np.ones(1), delta=np.ones(1), r=np.array([0.5])),
        )
        neg, _ = pcen_forward(
            FeatureMap(e),
            PcenParams(alpha=np.ones(1), delta=np.ones(1), r=np.array([-0.5])),
        )
        assert pos.values == pytest.approx(neg.values)

    def test_negative_delta_clamped(self):
        e = FeatureMap([[1.0, 2.0]])
        clamped, _ = pcen_forward(
            e, PcenParams(alpha=np.zeros(1), delta=np.array([-3.0]), r=np.ones(1))
        )
        zero, _ = pcen_forward(
            e, PcenParams(alpha=np.zeros(1), delta=np.zeros(1), r=np.ones(1))
        )
        assert clamped.values == pytest.approx(zero.values)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_output_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.uniform(0, 4, (3, 12))
        p = init_pcen_params(3)
        p.alpha[:] = rng.uniform(0.5, 1.2, 3)
        p.delta[:] = rng.uniform(0.0, 3.0, 3)
        p.r[:] = rng.uniform(0.1, 1.0, 3)
        out, _ = pcen_forward(FeatureMap(e), p)
        assert np.all(out.values >= -1e-12)

    def test_monotone_in_energy_with_frozen_smoother(self):
        # with the smoothed average held fixed from the cache, raising one
        # entry never lowers the output
        rng = np.random.default_rng(7)
        e = rng.uniform(0.1, 2.0, (2, 6))
        p = init_pcen_params(2)
        out, cache = pcen_forward(FeatureMap(e), p)
        direct = (e / cache.denom + cache.delta_eff) ** cache.r_eff
        bumped = ((e + 0.1) / cache.denom + cache.delta_eff) ** cache.r_eff
        assert np.all(bumped >= direct)


class TestBackward:
    def fd_check(self, learn, seed=21, r_sign=1.0):
        rng = np.random.default_rng(seed)
        e = rng.uniform(0.05, 3.0, (3, 10))
        p = init_pcen_params(3)
        p.alpha += rng.normal(0, 0.05, 3)
        p.delta += rng.uniform(-0.3, 0.5, 3)
        p.r += rng.normal(0, 0.08, 3)
        p.r *= r_sign
        probe = rng.standard_normal((3, 10))

        def loss():
            out, _ = pcen_forward(FeatureMap(e), p)
            return float((out.values * probe).sum())

        _, cache = pcen_forward(FeatureMap(e), p)
        g_e, g_alpha, g_delta, g_r = pcen_backward(probe, cache)
        analytic = {"energy": g_e, "alpha": g_alpha, "delta": g_delta, "r": g_r}
        arrays = {"energy": e, "alpha": p.alpha, "delta": p.delta, "r": p.r}
        h = 1e-5
        for name in ("energy",) + tuple(learn):
            arr = arrays[name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss()
                arr[idx] = orig - h
                down = loss()
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                a = analytic[name][idx]
                denom = max(abs(a), abs(numeric), 1e-8)
                assert abs(a - numeric) / denom < 1e-5, (learn, name, idx)

    @pytest.mark.parametrize(
        "learn", [("r", "alpha", "delta"), ("r",), ("alpha",)]
    )
    def test_finite_differences(self, learn):
        self.fd_check(learn)

    def test_finite_differences_at_negative_r(self):
        # the forward uses |r|, so the gradient w.r.t. r carries sign(r)
        self.fd_check(("r", "alpha", "delta"), r_sign=-1.0)

    def test_single_frame_matches_symbolic_oracle(self):
        # s=1 removes the temporal coupling: every frame is the closed-form
        # map y(E) with M = E, differentiated here symbolically
        e_sym, alpha_s, delta_s, r_s, eps_s = sympy.symbols(
            "e alpha delta r eps", positive=True
        )
        y = (e_sym / (eps_s + e_sym) ** alpha_s + delta_s) ** r_s - delta_s**r_s
        dy_de = sympy.lambdify(
            (e_sym, alpha_s, delta_s, r_s, eps_s), sympy.diff(y, e_sym)
        )

        rng = np.random.default_rng(23)
        e = rng.uniform(0.2, 3.0, (2, 5))
        p = dataclasses.replace(init_pcen_params(2), s=1.0)
        p.alpha[:] = [0.9, 1.05]
        p.delta[:] = [1.5, 2.5]
        p.r[:] = [0.4, 0.7]
        _, cache = pcen_forward(FeatureMap(e), p)
        grad_e, _, _, _ = pcen_backward(np.ones((2, 5)), cache)
        for ch in range(2):
            expected = dy_de(e[ch], p.alpha[ch], p.delta[ch], p.r[ch], p.epsilon)
            assert grad_e[ch] == pytest.approx(expected, rel=1e-9)

    def test_shape_mismatch_raises(self):
        p = init_pcen_params(2)
        _, cache = pcen_forward(FeatureMap(np.ones((2, 4))), p)
        with pytest.raises(ValueError):
            pcen_backward(np.ones((2, 5)), cache)


class TestCompressionReport:
    def test_initial_values(self):
        rows = compression_report(init_pcen_params(64))
        assert len(rows) == 64
        for _, r_abs, alpha, delta in rows:
            assert (r_abs, alpha, delta) == (0.5, 0.98, 2.0)

    def test_row_count_matches_channels(self):
        assert len(compression_report(init_pcen_params(7))) == 7

"""Stochastic oracle tests: noise model, streams, counters."""

import math

import numpy as np
import pytest

from stepsqp.oracles import (
    NOISE_BLOCK,
    OracleConfig,
    StochasticOracle,
    derive_stream,
)
from stepsqp.problems import get_problem

# Independently recomputed from the documented byte layout
# (little-endian u64 seed, length-prefixed name, two IEEE-754 doubles,
# u64 replicate, blake2b-8) and frozen.
GOLDEN_STREAM = 4425876401061766628  # derive_stream(0, "P2", (1e-2, 1e-1), 3)


class TestConfig:
    def test_defaults_are_noiseless(self):
        cfg = OracleConfig()
        assert cfg.eps_f_noise == 0.0 and cfg.eps_g_noise == 0.0

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="eps_f_noise"):
            OracleConfig(eps_f_noise=-1.0)
        with pytest.raises(ValueError, match="eps_g_noise"):
            OracleConfig(eps_g_noise=-0.5)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(eps_f_noise=np.inf)

    def test_noise_levels_are_floats_with_negative_zero_folded(self):
        for level in (0, -0.0, 0.0, np.float64(-0.0)):
            cfg = OracleConfig(eps_f_noise=level, eps_g_noise=level)
            for value in (cfg.eps_f_noise, cfg.eps_g_noise):
                assert type(value) is float
                assert math.copysign(1.0, value) == 1.0
        assert OracleConfig(eps_f_noise=1, eps_g_noise=-0.0) == OracleConfig(1.0, 0.0)

    def test_seed_bounds(self):
        OracleConfig(seed=2**64 - 1, stream_id=2**64 - 1)
        with pytest.raises(ValueError, match="seed"):
            OracleConfig(seed=-1)
        with pytest.raises(ValueError, match="stream_id"):
            OracleConfig(stream_id=2**64)

    def test_seed_rejects_bool(self):
        with pytest.raises(ValueError, match="seed"):
            OracleConfig(seed=True)

    def test_stream_id_rejects_bool(self):
        with pytest.raises(ValueError, match="stream_id"):
            OracleConfig(stream_id=False)


class TestDeriveStream:
    def test_golden_value(self):
        assert derive_stream(0, "P2", (1e-2, 1e-1), 3) == GOLDEN_STREAM

    def test_deterministic(self):
        a = derive_stream(5, "hs6", (0.01, 0.1), 2)
        b = derive_stream(5, "hs6", (0.01, 0.1), 2)
        assert a == b

    def test_every_coordinate_matters(self):
        base = derive_stream(5, "hs6", (0.01, 0.1), 2)
        assert derive_stream(6, "hs6", (0.01, 0.1), 2) != base
        assert derive_stream(5, "hs7", (0.01, 0.1), 2) != base
        assert derive_stream(5, "hs6", (0.1, 0.01), 2) != base
        assert derive_stream(5, "hs6", (0.01, 0.1), 3) != base

    def test_range(self):
        for rep in range(20):
            assert 0 <= derive_stream(0, "P1", (0.0, 0.1), rep) < 2**64


class TestOracle:
    def test_zero_noise_is_exact_passthrough(self):
        p = get_problem("P1")
        oracle = StochasticOracle(p.n, OracleConfig())
        x = p.x0
        assert oracle.noisy_f(p.f(x)) == p.f(x)
        np.testing.assert_array_equal(oracle.noisy_grad(p.grad_f(x)), p.grad_f(x))

    def test_samples_are_python_floats_and_fresh_arrays(self):
        p = get_problem("P1")
        oracle = StochasticOracle(p.n, OracleConfig(eps_f_noise=0.1, eps_g_noise=0.1))
        assert type(oracle.noisy_f(p.f(p.x0))) is float
        g = p.grad_f(p.x0)
        sample = oracle.noisy_grad(g)
        assert sample is not g and not np.shares_memory(sample, g)

    def test_counters_track_calls_independently(self):
        p = get_problem("P1")
        oracle = StochasticOracle(p.n, OracleConfig())
        assert (oracle.zeroth_calls, oracle.first_calls) == (0, 0)
        oracle.noisy_f(p.f(p.x0))
        oracle.noisy_f(p.f(p.x0))
        oracle.noisy_grad(p.grad_f(p.x0))
        assert (oracle.zeroth_calls, oracle.first_calls) == (2, 1)
        assert type(oracle.zeroth_calls) is int and type(oracle.first_calls) is int

    def test_same_stream_reproduces_bit_identical_sequences(self):
        p = get_problem("hs7")
        cfg = OracleConfig(eps_f_noise=0.1, eps_g_noise=0.1, seed=11, stream_id=22)
        a = StochasticOracle(p.n, cfg)
        b = StochasticOracle(p.n, cfg)
        f, g = p.f(p.x0), p.grad_f(p.x0)
        for _ in range(5):
            assert a.noisy_f(f) == b.noisy_f(f)
            np.testing.assert_array_equal(a.noisy_grad(g), b.noisy_grad(g))

    def test_distinct_streams_differ(self):
        p = get_problem("hs7")
        base = OracleConfig(eps_f_noise=0.1, eps_g_noise=0.1, seed=11, stream_id=22)
        other = OracleConfig(eps_f_noise=0.1, eps_g_noise=0.1, seed=11, stream_id=23)
        a = StochasticOracle(p.n, base)
        b = StochasticOracle(p.n, other)
        f = p.f(p.x0)
        assert a.noisy_f(f) != b.noisy_f(f)

    def test_fresh_noise_each_call(self):
        p = get_problem("P1")
        oracle = StochasticOracle(p.n, OracleConfig(eps_f_noise=1.0, seed=3, stream_id=0))
        f = p.f(p.x0)
        values = {oracle.noisy_f(f) for _ in range(8)}
        assert len(values) == 8

    @pytest.mark.parametrize("name", ["P2", "hs48", "sphere30"])
    def test_block_draws_match_sequential_philox_draws(self, name):
        # The solver's order, n normals for the gradient then two scalars
        # per iteration, against one plain Philox draw per call. Enough
        # rounds to refill the oracle's block at least twice.
        p = get_problem(name)
        cfg = OracleConfig(eps_f_noise=0.3, eps_g_noise=0.7, seed=17, stream_id=4)
        oracle = StochasticOracle(p.n, cfg)
        key = np.array([cfg.seed, cfg.stream_id], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        scale = cfg.eps_g_noise / np.sqrt(p.n)
        f, g = p.f(p.x0), p.grad_f(p.x0)
        for _ in range(2 * NOISE_BLOCK // (p.n + 2) + 1):
            expected_g = g + scale * rng.standard_normal(p.n)
            np.testing.assert_array_equal(oracle.noisy_grad(g), expected_g)
            for _ in range(2):
                expected_f = f + cfg.eps_f_noise * rng.standard_normal()
                assert oracle.noisy_f(f) == expected_f
        # Gradients alone: for n = 5 and 30 a gradient straddles each block's end.
        for _ in range(2 * NOISE_BLOCK // p.n + 1):
            expected_g = g + scale * rng.standard_normal(p.n)
            np.testing.assert_array_equal(oracle.noisy_grad(g), expected_g)

    @pytest.mark.parametrize("eps_f, f", [(0.3, 1.0 / 3.0), (0.0, -0.0), (1e308, 1e308)])
    def test_value_samples_are_the_exact_value_plus_scaled_normals_bit_for_bit(self, eps_f, f):
        # f + eps_f * z on Python floats, as a uint64 view: -0.0 and inf
        # (where the product or the sum overflows) count too. The samples
        # run past the oracle's first block.
        cfg = OracleConfig(eps_f_noise=eps_f, seed=5, stream_id=9)
        oracle = StochasticOracle(get_problem("P1").n, cfg)
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 9], dtype=np.uint64)))
        count = NOISE_BLOCK + 3
        expected = np.array([f + eps_f * rng.standard_normal() for _ in range(count)])
        found = np.array([oracle.noisy_f(f) for _ in range(count)])
        np.testing.assert_array_equal(found.view(np.uint64), expected.view(np.uint64))

    def test_value_noise_statistics(self):
        # 1e5 samples: sample mean of fbar - f within 3 sigma / sqrt(N),
        # sample variance of fbar - f within 5% of eps_f^2.
        p = get_problem("P2")
        eps_f = 0.25
        cfg = OracleConfig(eps_f_noise=eps_f, seed=123, stream_id=7)
        oracle = StochasticOracle(p.n, cfg)
        exact = p.f(p.x0)
        count = 100_000
        errors = np.array([oracle.noisy_f(exact) - exact for _ in range(count)])
        assert abs(errors.mean()) <= 3.0 * eps_f / np.sqrt(count)
        assert abs(errors.var() - eps_f**2) <= 0.05 * eps_f**2

    def test_gradient_noise_statistics(self):
        # E||gbar - grad f||^2 must equal eps_g^2 regardless of n.
        eps_g = 0.5
        for name in ("P2", "sphere30"):
            p = get_problem(name)
            cfg = OracleConfig(eps_g_noise=eps_g, seed=321, stream_id=9)
            oracle = StochasticOracle(p.n, cfg)
            exact = p.grad_f(p.x0)
            count = 100_000
            total = 0.0
            for _ in range(count):
                err = oracle.noisy_grad(exact) - exact
                total += float(err @ err)
            mean_sq = total / count
            assert abs(mean_sq - eps_g**2) <= 0.05 * eps_g**2, name

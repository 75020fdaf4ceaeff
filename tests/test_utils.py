"""Tests for shared utilities: numerics, RNG handling, pretty printing."""

import math

import numpy as np
import pytest

from repro.core.parser import parse_program
from repro.core.typecheck import infer_guide_types
from repro.inference.diagnostics import (
    autocorrelation,
    posterior_histogram,
    posterior_mean,
    running_mean,
    weight_diagnostics,
)
from repro.errors import InferenceError
from repro.utils.numerics import (
    effective_sample_size,
    log_mean_exp,
    log_sum_exp,
    normalize_log_weights,
    normalize_with_log_total,
    weighted_mean,
    weighted_mean_se,
    weighted_variance,
)
from repro.utils.pretty import (
    pretty_guide_type,
    pretty_program,
    pretty_trace,
    pretty_type_table,
)
from repro.utils.rng import ensure_rng, fork_rng
from repro.core.semantics import traces as tr


class TestNumerics:
    def test_log_sum_exp_matches_direct_computation(self):
        values = [-1.0, -2.0, -3.0]
        assert log_sum_exp(values) == pytest.approx(
            math.log(sum(math.exp(v) for v in values))
        )

    def test_log_sum_exp_handles_neg_inf(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0)
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
        assert log_sum_exp([]) == -math.inf

    def test_log_sum_exp_is_stable_for_large_values(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2))

    def test_log_mean_exp(self):
        assert log_mean_exp([0.0, 0.0]) == pytest.approx(0.0)

    def test_normalize_log_weights_sums_to_one(self):
        weights = normalize_log_weights([-1.0, -2.0, -math.inf])
        assert weights.sum() == pytest.approx(1.0)
        assert weights[2] == 0.0

    def test_normalize_all_zero_weights_is_uniform(self):
        weights = normalize_log_weights([-math.inf, -math.inf])
        assert np.allclose(weights, [0.5, 0.5])

    def test_effective_sample_size_bounds(self):
        assert effective_sample_size([0.0] * 10) == pytest.approx(10.0)
        assert effective_sample_size([0.0, -math.inf]) == pytest.approx(1.0)

    def test_collapsed_weights_have_zero_effective_sample_size(self):
        # Regression: an all -inf vector normalises to uniform, and its ESS
        # used to read as full (n) for a run that has collapsed.
        assert effective_sample_size(np.full(5, -np.inf)) == 0.0
        assert effective_sample_size([-math.inf]) == 0.0
        mean, se = weighted_mean_se([1.0, 2.0, 3.0], np.full(3, -np.inf))
        assert se == math.inf

    def test_fast_paths_match_the_masked_computation(self):
        # log_sum_exp and normalize_log_weights skip their -inf masking when
        # no weight is -inf; the result must be the masked one, bit for bit.
        def masked_log_sum_exp(array):
            kept = array[array > -np.inf]
            peak = float(np.max(kept))
            return peak + math.log(float(np.sum(np.exp(kept - peak))))

        def masked_normalize(array):
            peak = np.max(array[np.isfinite(array)])
            weights = np.exp(np.clip(array - peak, -745.0, 0.0))
            weights[np.isneginf(array)] = 0.0
            return weights / weights.sum()

        rng = np.random.default_rng(3)
        for scale in (1.0, 30.0, 400.0):  # 400: some weights are clipped
            values = rng.normal(0.0, scale, size=1001)
            assert log_sum_exp(values) == masked_log_sum_exp(values)
            assert np.array_equal(normalize_log_weights(values), masked_normalize(values))
            weights, log_total = normalize_with_log_total(values)
            assert np.array_equal(weights, masked_normalize(values))
            assert log_total == masked_log_sum_exp(values)
        # A nan is dropped like a -inf, as before.
        assert log_sum_exp(np.array([0.0, math.nan])) == 0.0

    def test_weighted_mean_and_variance(self):
        values = [1.0, 3.0]
        log_weights = [0.0, 0.0]
        assert weighted_mean(values, log_weights) == pytest.approx(2.0)
        assert weighted_variance(values, log_weights) == pytest.approx(1.0)


class TestDiagnostics:
    def test_weight_diagnostics(self):
        diag = weight_diagnostics([0.0, 0.0, -math.inf])
        assert diag.num_samples == 3
        assert diag.num_zero_weight == 1
        assert not diag.degenerate

    def test_degenerate_weights_detected(self):
        diag = weight_diagnostics([0.0] + [-math.inf] * 99)
        assert diag.degenerate

    def test_posterior_mean_validates_lengths(self):
        with pytest.raises(InferenceError):
            posterior_mean([1.0], [0.0, 0.0])

    def test_posterior_histogram_is_a_density(self):
        values = np.random.default_rng(0).normal(size=500)
        centers, density = posterior_histogram(values, bins=20)
        widths = centers[1] - centers[0]
        assert float(np.sum(density) * widths) == pytest.approx(1.0, abs=0.05)

    def test_posterior_histogram_rejects_empty_input(self):
        with pytest.raises(InferenceError):
            posterior_histogram([])

    def test_running_mean(self):
        assert running_mean([1.0, 3.0, 5.0]) == [1.0, 2.0, 3.0]

    def test_autocorrelation_starts_at_one(self):
        acf = autocorrelation([1.0, 2.0, 3.0, 4.0, 2.0, 1.0], max_lag=3)
        assert acf[0] == pytest.approx(1.0)
        assert len(acf) == 4


class TestRng:
    def test_ensure_rng_accepts_seed_generator_and_none(self):
        assert isinstance(ensure_rng(0), np.random.Generator)
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_fork_rng_produces_independent_streams(self):
        children = fork_rng(np.random.default_rng(0), 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3


class TestPrettyPrinting:
    def test_program_round_trips_through_the_parser(self, fig5_model):
        printed = pretty_program(fig5_model)
        reparsed = parse_program(printed)
        assert reparsed.names() == fig5_model.names()
        # Guide types of the reparsed program agree with the original.
        original = infer_guide_types(fig5_model).entry_channel_type("Model", "latent")
        roundtrip = infer_guide_types(reparsed).entry_channel_type("Model", "latent")
        assert original == roundtrip

    def test_pretty_guide_type_uses_paper_connectives(self, fig5_model):
        latent = infer_guide_types(fig5_model).entry_channel_type("Model", "latent")
        printed = pretty_guide_type(latent)
        assert "/\\" in printed and "&" in printed

    def test_pretty_type_table_lists_typedefs(self, fig6_pcfg):
        table = infer_guide_types(fig6_pcfg).table
        printed = pretty_type_table(table)
        assert "typedef PcfgGen.latent" in printed
        assert "proc Pcfg" in printed

    def test_pretty_trace(self):
        printed = pretty_trace((tr.ValP(0.5), tr.DirC(True), tr.Fold()))
        assert "valP" in printed and "dirC" in printed and "fold" in printed

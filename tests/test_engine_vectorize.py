"""Correctness of the lockstep vectorized particle runtime.

The strongest check available: for any particle, the per-particle log
weights accumulated by the vectorized scheduler must *exactly* match the
big-step evaluator's ``log_density`` of that particle's materialised trace —
the same cross-validation the sequential coroutine scheduler is tested
against.  On top of that, estimator-level agreement with the sequential
importance sampler, group-splitting behaviour at divergent branches, and
the unbiased whole-batch sequential fallback.
"""

import math

import numpy as np
import pytest

from repro.core import ast
from repro.core.parser import parse_program
from repro.core.semantics import traces as tr
from repro.core.semantics.evaluate import log_density
from repro.engine import BatchedDist, vectorized_importance
from repro.engine.vectorize import (
    ParticleVectorizer,
    VectorizationUnsupported,
    eval_expr_vec,
)
from repro.errors import InferenceError
from repro.inference import importance_sampling
from repro.models import get_benchmark

#: A recursive pair whose recursion terminates with probability one (the
#: Fig. 6 PCFG is supercritical for half its ``k`` draws, so it is not
#: usable for deterministic tests — both the sequential and the vectorized
#: engines hit the operation budget on any sizeable batch).
SUBCRITICAL_CHAIN_MODEL = """
proc Chain() consume latent provide obs {
  total <- call Step(0.0);
  _ <- sample.send{obs}(Normal(total, 1.0));
  return(total)
}
proc Step(acc: real) consume latent {
  u <- sample.recv{latent}(Unif);
  if.send{latent} u < 0.75 {
    x <- sample.recv{latent}(Normal(0.0, 1.0));
    return(acc + x)
  } else {
    rest <- call Step(acc);
    return(rest)
  }
}
"""

SUBCRITICAL_CHAIN_GUIDE = """
proc ChainGuide() provide latent {
  total <- call StepGuide(0.0);
  return(total)
}
proc StepGuide(acc: real) provide latent {
  u <- sample.send{latent}(Unif);
  if.recv{latent} {
    x <- sample.send{latent}(Normal(0.5, 1.5));
    return(acc + x)
  } else {
    rest <- call StepGuide(acc);
    return(rest)
  }
}
"""


def _cross_check_densities(run, bench, obs_trace, guide_args=(), stride=37):
    """Every materialised trace scores identically under the evaluator."""
    model = bench.model_program()
    guide = bench.guide_program()
    for i in range(0, run.num_particles, stride):
        trace = run.trace_for(i)
        traces = {"latent": trace}
        if obs_trace and model.procedure(bench.model_entry).provides == "obs":
            traces["obs"] = obs_trace
        model_lw = log_density(model, bench.model_entry, traces)
        guide_lw = log_density(guide, bench.guide_entry, {"latent": trace}, args=guide_args)
        assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-8)
        assert run.guide_log_weights[i] == pytest.approx(guide_lw, abs=1e-8)


class TestExactness:
    @pytest.mark.parametrize(
        "name,site",
        [("ex-1", 0), ("lr", 0), ("gmm", 0), ("kalman", 3), ("sprinkler", 0),
         ("hmm", 0), ("branching", 0), ("coin", 0)],
    )
    def test_per_particle_weights_match_the_evaluator(self, name, site):
        bench = get_benchmark(name)
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values) or None
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=400,
            rng=np.random.default_rng(5),
        )
        _cross_check_densities(result.run, bench, obs_trace)
        # Sanity: the estimator is usable.
        assert math.isfinite(result.log_evidence())
        assert math.isfinite(result.posterior_expectation_of_site(site))

    def test_guide_arguments_thread_through(self):
        bench = get_benchmark("weight")
        obs_trace = (tr.ValP(9.5),)
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=3000,
            rng=np.random.default_rng(0), guide_args=(8.5, 0.0),
        )
        _cross_check_densities(result.run, bench, obs_trace, guide_args=(8.5, 0.0))
        # Conjugate normal-normal posterior mean: 9.1379...
        assert result.posterior_expectation_of_site(0) == pytest.approx(9.138, abs=0.15)

    def test_recursive_model_splits_and_stays_exact(self):
        model = parse_program(SUBCRITICAL_CHAIN_MODEL)
        guide = parse_program(SUBCRITICAL_CHAIN_GUIDE)
        obs_trace = (tr.ValP(1.2),)
        result = vectorized_importance(
            model, guide, "Chain", "ChainGuide",
            obs_trace=obs_trace, num_particles=600, rng=np.random.default_rng(3),
        )
        run = result.run
        # Recursion depth differs across particles: there must be one group
        # per realised unfolding depth, all exact.
        assert run.num_groups > 1
        for i in range(0, 600, 29):
            trace = run.trace_for(i)
            model_lw = log_density(model, "Chain", {"latent": trace, "obs": obs_trace})
            guide_lw = log_density(guide, "ChainGuide", {"latent": trace})
            assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-8)
            assert run.guide_log_weights[i] == pytest.approx(guide_lw, abs=1e-8)


class TestEstimatorAgreement:
    def test_posterior_mean_matches_sequential_path(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        vec = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=4000, rng=np.random.default_rng(1),
        )
        seq = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(2),
        )
        assert vec.posterior_expectation_of_site(0) == pytest.approx(
            seq.posterior_expectation_of_site(0), abs=0.3
        )
        assert vec.log_evidence() == pytest.approx(seq.log_evidence(), abs=0.2)

    def test_to_importance_result_materialises_equivalent_samples(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        vec = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=300, rng=np.random.default_rng(1),
        )
        materialised = vec.to_importance_result()
        assert materialised.num_samples == 300
        assert materialised.posterior_expectation_of_site(0) == pytest.approx(
            vec.posterior_expectation_of_site(0), abs=1e-9
        )
        # Materialised traces carry plain Python payloads, like the scalar path.
        for sample in materialised.samples[:20]:
            for value in sample.latent_values:
                assert isinstance(value, (bool, int, float))


class TestRunStructure:
    def test_branch_split_produces_two_groups(self):
        bench = get_benchmark("ex-1")
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(0.8),), num_particles=500, rng=np.random.default_rng(0),
        )
        run = result.run
        assert run.num_groups == 2
        # Group membership agrees with the branch predicate v < 2.0.
        first_site = run.site_values(0)
        second_site = run.site_values(1)  # @m exists only on the else branch
        assert np.all(np.isnan(second_site[first_site < 2.0]))
        assert np.all(~np.isnan(second_site[first_site >= 2.0]))

    def test_obs_score_matrix_decomposes_model_weight(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = vectorized_importance(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=200, rng=np.random.default_rng(0),
        )
        run = result.run
        scores = np.asarray(run.obs_score_rows())
        assert scores.shape == (len(bench.obs_values), 200)
        # Each row is exactly the kalman likelihood term Normal(x_t, 0.5)
        # of that observation given the particle's latent state.
        from repro.dists.continuous import Normal

        for i in range(0, 200, 17):
            states = [float(v) for v in tr.sample_values(run.trace_for(i))]
            for t, observed in enumerate(bench.obs_values):
                expected = Normal(states[t], 0.5).log_prob(observed)
                assert scores[t, i] == pytest.approx(expected, abs=1e-8)
        assert np.all(np.isfinite(run.guide_log_weights))

    def test_all_zero_weights_raise(self):
        model = parse_program(
            """
            proc M() consume latent provide obs {
              b <- sample.recv{latent}(Ber(0.5));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              return(b)
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              p <- sample.send{latent}(Unif);
              return(p)
            }
            """
        )
        with pytest.raises(InferenceError):
            vectorized_importance(
                model, guide, "M", "G",
                obs_trace=(tr.ValP(0.3),), num_particles=50,
                rng=np.random.default_rng(6),
            )


class TestSequentialFallback:
    def test_unsupported_feature_falls_back_to_sequential_batch(self, monkeypatch):
        bench = get_benchmark("ex-1")
        vectorizer = ParticleVectorizer(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(0.8),),
        )

        def refuse(*_args, **_kwargs):
            raise VectorizationUnsupported("forced by test")

        monkeypatch.setattr(vectorizer, "_run_vectorized", refuse)
        run = vectorizer.run(80, rng=np.random.default_rng(4))
        assert not run.vectorized
        assert run.num_particles == 80
        assert run.obs_score_rows() is None  # sequential path does not decompose
        # Still exact: the fallback reuses the reference scheduler.
        model = bench.model_program()
        for i in range(0, 80, 13):
            trace = run.trace_for(i)
            model_lw = log_density(
                model, bench.model_entry, {"latent": trace, "obs": (tr.ValP(0.8),)}
            )
            assert run.model_log_weights[i] == pytest.approx(model_lw, abs=1e-9)


class TestVectorizedExpressions:
    def test_if_expression_merges_lanes(self):
        expr = parse_program(
            """
            proc P(x: real) consume latent {
              v <- sample.recv{latent}(Normal(if x < 0.0 then 0.0 - x else x, 1.0));
              return(v)
            }
            """
        ).procedure("P").body
        dist_expr = expr.first.dist
        values = eval_expr_vec({"x": np.asarray([-2.0, 3.0])}, dist_expr, 2)
        assert isinstance(values, BatchedDist)

    def test_array_condition_with_nonscalar_arm_is_unsupported(self):
        cond = ast.PrimOp(ast.BinOp.LT, ast.Var("x"), ast.RealLit(0.0))
        bad = ast.IfExpr(cond, ast.Lam("y", ast.Var("y")), ast.RealLit(1.0))
        with pytest.raises(VectorizationUnsupported):
            eval_expr_vec({"x": np.asarray([-1.0, 1.0])}, bad, 2)

    def test_batched_dist_array_params_match_scalar_loop(self):
        rng = np.random.default_rng(0)
        means = np.asarray([-1.0, 0.0, 2.0])
        dist = BatchedDist(ast.DistKind.NORMAL, [means, 0.5], 3)
        values = dist.sample(rng)
        scores = dist.log_prob(values)
        from repro.dists.continuous import Normal

        for i in range(3):
            expected = Normal(float(means[i]), 0.5).log_prob(float(values[i]))
            assert scores[i] == pytest.approx(expected, abs=1e-10)

    def test_batched_dist_invalid_array_params_raise(self):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            BatchedDist(ast.DistKind.NORMAL, [np.asarray([0.0, 0.0]), np.asarray([1.0, -1.0])], 2)

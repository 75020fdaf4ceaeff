"""The inference-engine registry, SMC engine, and program sessions."""

import math

import numpy as np
import pytest

from repro.core.semantics import traces as tr
from repro.engine import (
    InferenceRequest,
    ProgramSession,
    available_engines,
    clear_session_cache,
    get_engine,
    smc,
)
from repro.engine.smc import systematic_resample
from repro.errors import InferenceError
from repro.models import get_benchmark

#: Conjugate normal-normal posterior mean for the "weight" model at y = 9.5.
WEIGHT_POSTERIOR_MEAN = (8.5 / 1.0 + 9.5 / 0.5625) / (1.0 / 1.0 + 1.0 / 0.5625)


@pytest.fixture(autouse=True)
def _fresh_session_cache():
    clear_session_cache()
    yield
    clear_session_cache()


@pytest.fixture
def ex1_session():
    bench = get_benchmark("ex-1")
    return ProgramSession.from_sources(bench.model_source, bench.guide_source)


class TestRegistry:
    def test_all_engines_registered(self):
        assert {"is", "is-sequential", "smc", "mh"} <= set(available_engines())

    def test_unknown_engine_raises(self):
        with pytest.raises(InferenceError, match="unknown inference engine"):
            get_engine("does-not-exist")

    def test_every_engine_estimates_the_fig2_posterior(self, ex1_session):
        means = {}
        for engine in ["is", "is-sequential", "smc", "mh"]:
            result = ex1_session.infer(
                engine, num_particles=2000, obs_values=[0.8], seed=0
            )
            means[engine] = result.posterior_mean(0)
        # All engines target the same posterior (mean ~2.8, prior mean 2.0).
        for engine, mean in means.items():
            assert mean > 2.2, (engine, mean)
            assert abs(mean - means["is"]) < 0.35, (engine, means)

    def test_request_object_and_kwargs_are_exclusive(self, ex1_session):
        request = InferenceRequest(num_particles=10, obs_values=[0.8])
        with pytest.raises(InferenceError):
            ex1_session.infer("is", request=request, num_particles=20)


class TestProgramSession:
    def test_from_sources_is_cached(self):
        bench = get_benchmark("ex-1")
        first = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        second = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        assert first is second

    def test_certified_pair(self, ex1_session):
        assert ex1_session.certified
        assert ex1_session.certification_reason is None
        ex1_session.require_certified()
        assert ex1_session.model_entry == "Model"
        assert ex1_session.guide_entry == "Guide1"

    def test_uncertified_pair_reports_reason(self):
        bench = get_benchmark("ex-1")
        from repro.models.library import EX1_GUIDE_UNSOUND_IS_SOURCE

        session = ProgramSession.from_sources(
            bench.model_source, EX1_GUIDE_UNSOUND_IS_SOURCE
        )
        assert not session.certified
        assert session.certification_reason
        with pytest.raises(InferenceError, match="not certified"):
            session.require_certified()

    def test_typecheck_can_be_skipped(self):
        bench = get_benchmark("ex-1")
        session = ProgramSession.from_sources(
            bench.model_source, bench.guide_source, typecheck=False
        )
        assert session.check is None
        with pytest.raises(InferenceError, match="skipped typechecking"):
            session.require_certified()

    def test_obs_trace_takes_precedence_over_values(self):
        request = InferenceRequest(obs_values=[1.0], obs_trace=(tr.ValP(2.0),))
        assert request.resolved_obs_trace() == (tr.ValP(2.0),)
        assert InferenceRequest(obs_values=[1.0]).resolved_obs_trace() == (tr.ValP(1.0),)
        assert InferenceRequest().resolved_obs_trace() is None


class TestSMC:
    def test_recovers_conjugate_posterior(self):
        bench = get_benchmark("weight")
        result = smc(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=(tr.ValP(9.5),), num_particles=4000,
            rng=np.random.default_rng(0), guide_args=(8.5, 0.0),
        )
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.15)
        assert math.isfinite(result.log_evidence())

    def test_multi_step_annealing_resamples_on_ess_collapse(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = smc(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=1500,
            rng=np.random.default_rng(0), ess_threshold=0.9,
        )
        assert len(result.ess_history) == len(bench.obs_values)
        assert result.resample_steps, "a 0.9 ESS threshold must trigger resampling"
        assert len(result.rejuvenation_rates) == len(result.resample_steps)
        # Pointwise agreement with importance sampling on the same pair.
        from repro.inference import importance_sampling

        reference = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(1),
        )
        assert result.posterior_mean(3) == pytest.approx(
            reference.posterior_expectation_of_site(3), abs=0.3
        )

    def test_rejuvenation_can_be_disabled(self):
        bench = get_benchmark("kalman")
        obs_trace = tuple(tr.ValP(v) for v in bench.obs_values)
        result = smc(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=500,
            rng=np.random.default_rng(0), ess_threshold=0.9, rejuvenate=False,
        )
        assert result.rejuvenation_rates == []

    def test_branch_dependent_observation_counts_are_handled(self):
        """Regression: rejuvenation used to crash (or silently broadcast) when
        a proposal run's obs-score matrix had a different width than the
        current population's — which happens whenever the number of observe
        statements depends on a latent branch."""
        from repro.core.parser import parse_program

        model = parse_program(
            """
            proc M() consume latent provide obs {
              gate <- sample.recv{latent}(Ber(0.5));
              _ <- sample.send{obs}(Normal(0.0, 1.0));
              if gate {
                observe(Normal(0.0, 1.0), 0.3);
                observe(Normal(0.0, 1.0), 0.4);
                return(gate)
              } else {
                return(gate)
              }
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              gate <- sample.send{latent}(Ber(0.5));
              return(gate)
            }
            """
        )
        for seed in range(4):
            try:
                result = smc(
                    model, guide, "M", "G",
                    obs_trace=(tr.ValP(0.1),), num_particles=16,
                    rng=np.random.default_rng(seed), ess_threshold=1.01,
                )
            except InferenceError as err:
                # A proposal path revealed more steps than the schedule: the
                # engine must refuse loudly, never broadcast-corrupt weights.
                assert "branch-dependent" in str(err)
            else:
                assert math.isfinite(result.log_evidence())

    def test_requires_observations(self):
        bench = get_benchmark("ex-1")
        with pytest.raises(InferenceError, match="non-empty observation trace"):
            smc(
                bench.model_program(), bench.guide_program(),
                bench.model_entry, bench.guide_entry,
                obs_trace=None, num_particles=10,
            )

    def test_log_evidence_matches_importance_sampling(self):
        bench = get_benchmark("ex-1")
        obs_trace = (tr.ValP(0.8),)
        result = smc(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_particles=4000, rng=np.random.default_rng(2),
        )
        from repro.inference import importance_sampling

        reference = importance_sampling(
            bench.model_program(), bench.guide_program(),
            bench.model_entry, bench.guide_entry,
            obs_trace=obs_trace, num_samples=4000, rng=np.random.default_rng(3),
        )
        assert result.log_evidence() == pytest.approx(reference.log_evidence(), abs=0.2)


_BRANCHY_MODEL = """
proc M() consume latent provide obs {
  gate <- sample.recv{latent}(Ber(0.5));
  _ <- sample.send{obs}(Normal(0.0, 1.0));
  if gate {
    observe(Normal(0.0, 1.0), 0.3);
    observe(Normal(0.0, 1.0), 0.4);
    return(gate)
  } else {
    return(gate)
  }
}
"""

_BRANCHY_GUIDE = """
proc G() provide latent {
  gate <- sample.send{latent}(Ber(0.5));
  return(gate)
}
"""


def _smc_spans(recorder):
    """``(name, step)`` of every SMC phase span, in the order they closed."""
    return [
        (event["name"], event.get("args", {}).get("step"))
        for event in recorder.events
        if event["name"].startswith("smc.")
    ]


class TestSMCFailurePaths:
    """Where SMC gives up, and with which message — pinned exactly.

    The phase spans record even when their body raises, so the span list
    pins the point of each failure as well as its message.
    """

    @pytest.fixture(autouse=True)
    def _tracing(self):
        from repro.obs.trace import disable_tracing, enable_tracing

        self.recorder = enable_tracing()
        yield
        disable_tracing()

    def _branchy(self, seed, num_particles=2):
        from repro.core.parser import parse_program

        return smc(
            parse_program(_BRANCHY_MODEL), parse_program(_BRANCHY_GUIDE), "M", "G",
            obs_trace=(tr.ValP(0.1),), num_particles=num_particles,
            rng=np.random.default_rng(seed), ess_threshold=1.01,
        )

    def test_guide_outside_the_prior_support_collapses_at_initialisation(self):
        from repro.core.parser import parse_program

        model = parse_program(
            """
            proc M() consume latent provide obs {
              u <- sample.recv{latent}(Unif);
              _ <- sample.send{obs}(Normal(u, 1.0));
              return(u)
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              u <- sample.send{latent}(Normal(5.0, 0.1));
              return(u)
            }
            """
        )
        with pytest.raises(InferenceError) as err:
            smc(model, guide, "M", "G", obs_trace=(tr.ValP(0.1),), num_particles=8,
                rng=np.random.default_rng(0))
        assert str(err.value) == (
            "SMC initialisation collapsed: every guide draw has zero prior "
            "density (the model/guide pair is not absolutely continuous)"
        )
        # Raised after the initial draw, before the first tempering step.
        assert _smc_spans(self.recorder) == [("smc.sample", None)]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a zero likelihood makes the whole model weight -inf, which the "
        "prior column inherits, so SMC reports an initialisation collapse "
        "blaming the prior instead of the weight collapse at the observation",
    )
    def test_zero_likelihood_at_a_later_step_collapses_at_that_step(self):
        from repro.core.parser import parse_program

        model = parse_program(
            """
            proc M() consume latent provide obs {
              u <- sample.recv{latent}(Unif);
              _ <- sample.send{obs}(Normal(u, 1.0));
              _ <- sample.send{obs}(Normal(u, 1.0));
              _ <- sample.send{obs}(Unif);
              return(u)
            }
            """
        )
        guide = parse_program(
            """
            proc G() provide latent {
              u <- sample.send{latent}(Unif);
              return(u)
            }
            """
        )
        with pytest.raises(InferenceError) as err:
            smc(model, guide, "M", "G",
                obs_trace=tuple(tr.ValP(v) for v in (0.1, 0.2, 3.0)),
                num_particles=8, rng=np.random.default_rng(0))
        assert str(err.value).startswith("SMC weight collapse at observation 2:")

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_an_infinite_weight_collapses_the_first_step(self, monkeypatch):
        # With finite densities every particle that reaches step t has a
        # finite likelihood there; a +inf weight poisons every normaliser,
        # which is the collapse the step check reports.
        from repro.engine import backend
        from repro.engine.vectorize import VectorRunResult, _Leaf

        class _InfiniteRunner:
            def run(self, num_particles, rng):
                model = np.zeros(num_particles)
                model[0] = np.inf
                leaf = _Leaf(
                    indices=np.arange(num_particles),
                    model_log_weights=model,
                    guide_log_weights=np.zeros(num_particles),
                    recorded={},
                    obs_scores=[np.full(num_particles, -1.0), np.full(num_particles, -2.0)],
                )
                return VectorRunResult(num_particles, [leaf])

        monkeypatch.setattr(backend, "make_particle_runner", lambda *a, **k: _InfiniteRunner())
        bench = get_benchmark("kalman")
        with pytest.raises(InferenceError) as err:
            smc(bench.model_program(), bench.guide_program(),
                bench.model_entry, bench.guide_entry,
                obs_trace=(tr.ValP(0.1), tr.ValP(0.2)), num_particles=4,
                rng=np.random.default_rng(0))
        assert str(err.value) == (
            "SMC weight collapse at observation 0: no particle carries "
            "posterior mass (is the model/guide pair absolutely continuous?)"
        )
        assert _smc_spans(self.recorder) == [("smc.sample", None)]

    def test_a_proposal_with_more_observations_than_the_schedule_raises(self):
        # Seed 1 draws two gate=False particles (a 1-step schedule); the
        # first rejuvenation proposes a gate=True path with 3 steps.
        with pytest.raises(InferenceError) as err:
            self._branchy(seed=1)
        assert str(err.value) == (
            "SMC rejuvenation drew a particle with 3 observation steps but the "
            "tempering schedule has only 1; this model's observation count is "
            "branch-dependent — use the 'is' or 'mh' engine instead"
        )
        assert _smc_spans(self.recorder) == [
            ("smc.sample", None),
            ("smc.resample", 0),
            ("smc.sample", None),
            ("smc.rejuvenate", 0),
        ]

    def test_a_proposal_with_fewer_observations_is_zero_padded(self):
        # Seed 0 starts from a 3-step schedule, and the first rejuvenation
        # proposes only 1-step (gate=False) paths: their missing steps score
        # zero, and one of them survives to the end.
        result = self._branchy(seed=0)
        assert result.resample_steps == [0, 1, 2]
        assert result.rejuvenation_rates == [1.0, 1.0, 0.5]
        assert result.ess_history == pytest.approx([2.0, 1.6659140006841462, 2.0], rel=1e-12)
        assert result.log_evidence() == pytest.approx(-1.2939970565589538, rel=1e-12)
        assert np.array_equal(result.log_weights, np.zeros(2))
        assert 0.0 in result.site_values(0)
        widths = [sorted(len(leaf.obs_scores) for leaf in run.leaves) for run in result.runs]
        assert max(widths[0]) == 3 and [1] in widths[1:]


class TestSystematicResample:
    def test_concentrated_weights_select_the_heavy_particle(self):
        weights = np.asarray([0.0, 0.0, 1.0, 0.0])
        indices = systematic_resample(weights, np.random.default_rng(0))
        assert np.all(indices == 2)

    def test_uniform_weights_cover_all_particles(self):
        weights = np.full(8, 1.0 / 8.0)
        indices = systematic_resample(weights, np.random.default_rng(0))
        assert sorted(indices) == list(range(8))

    @staticmethod
    def _searchsorted_ancestors(weights, rng):
        n = len(weights)
        positions = (rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        return np.searchsorted(cumulative, positions)

    @staticmethod
    def _adversarial_weights(n, rng):
        def normalized(w):
            return w / w.sum()

        one_hot = np.zeros(n)
        one_hot[rng.integers(n)] = 1.0
        half_zeros = rng.random(n)
        half_zeros[rng.permutation(n)[: n // 2]] = 0.0
        ties = np.resize(rng.random(max(1, n // 4)), n)
        yield one_hot
        yield one_hot[::-1].copy()
        if half_zeros.sum() > 0:
            yield normalized(half_zeros)
        yield normalized(ties)
        yield np.full(n, 1.0 / n)
        for scale in (1.0, 30.0):
            log_w = rng.normal(0.0, scale, n)
            yield normalized(np.exp(log_w - log_w.max()))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 100_000])
    def test_ancestors_are_exactly_the_searchsorted_indices(self, n):
        # The O(n) resampler must return exactly what a binary search over
        # the cumulative weights returns, dtype included.
        rng = np.random.default_rng(n)
        for case, weights in enumerate(self._adversarial_weights(n, rng)):
            for seed in range(3 if n == 100_000 else 12):
                got = systematic_resample(weights, np.random.default_rng(seed))
                want = self._searchsorted_ancestors(weights, np.random.default_rng(seed))
                assert got.dtype == want.dtype, (n, case, seed)
                assert np.array_equal(got, want), (n, case, seed)

    def test_positions_on_the_cumulative_edges(self):
        # Dyadic weights put positions exactly on cumulative edges when u
        # is a multiple of 1/n; the float comparisons decide the ties.
        class _FixedU:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        weights = np.array([0.25, 0.25, 0.0, 0.5])
        for u in (0.0, 0.25, 0.5, 0.75, 0.999999999):
            got = systematic_resample(weights, _FixedU(u))
            want = self._searchsorted_ancestors(weights, _FixedU(u))
            assert np.array_equal(got, want), u

    def test_a_cumulative_sum_rounding_above_one(self):
        # These weights sum to 1 + 2^-52 before their zero last entry, so
        # pinning the last edge to 1.0 leaves the edges unsorted.
        weights = np.random.default_rng(3).random(7)
        weights = np.append(weights / weights.sum(), 0.0)
        assert np.cumsum(weights)[-2] > 1.0
        for seed in range(20):
            got = systematic_resample(weights, np.random.default_rng(seed))
            want = self._searchsorted_ancestors(weights, np.random.default_rng(seed))
            assert np.array_equal(got, want), seed


class TestParallelMH:
    def test_pooled_chains_recover_conjugate_posterior(self):
        bench = get_benchmark("weight")
        session = ProgramSession.from_sources(bench.model_source, bench.guide_source)
        result = session.infer(
            "mh",
            num_particles=4000,
            num_chains=4,
            burn_in=150,
            obs_values=[9.5],
            seed=0,
            guide_args=(9.0, 0.0),
        )
        assert result.posterior_mean(0) == pytest.approx(WEIGHT_POSTERIOR_MEAN, abs=0.2)
        diagnostics = result.diagnostics()
        assert diagnostics["num_chains"] == 4
        assert all(0.0 < rate <= 1.0 for rate in diagnostics["acceptance_rates"])
        assert diagnostics["gelman_rubin_site0"] == pytest.approx(1.0, abs=0.2)

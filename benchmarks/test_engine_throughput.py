"""Engine throughput — vectorized vs sequential particle execution.

The vectorized particle engine's reason to exist is throughput: resolving
every sample site for all particles with one NumPy call must beat the
one-particle-at-a-time interpreter loop by a wide margin on models whose
particles (mostly) share control flow.  This harness pins that claim on a
Table-2 benchmark model (``ex-1``, the paper's Fig. 5 pair):

* vectorized importance sampling at 10k particles is at least 5x faster
  than the sequential ``importance_sampling`` loop (in practice the margin
  is far larger — the sequential path costs ~60us/particle, the vectorized
  path amortises to well under 1us/particle);
* both paths agree on the posterior mean and log evidence;
* the SMC engine recovers the Fig. 2 posterior within the same tolerance
  the existing importance-sampling reproducibility test uses (0.3);
* SMC's own work around the particle runner (weights, evidence, ESS,
  resampling, rejuvenation bookkeeping) stays under 40% of an SMC run on
  the ``lr`` model with the compiled backend.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import _record
from repro.core.semantics import traces as tr
from repro.engine import smc, vectorized_importance
from repro.inference import importance_sampling
from repro.models import get_benchmark
from repro.obs.trace import disable_tracing, enable_tracing

#: The CI fast-benchmark smoke job sets REPRO_FAST_BENCH=1 to run with
#: reduced particle counts; the speedup margin is ~2 orders of magnitude, so
#: the 5x assertion is insensitive to the reduction.
NUM_PARTICLES = 3_000 if os.environ.get("REPRO_FAST_BENCH") else 10_000
OBSERVED_Z = 0.8
MIN_SPEEDUP = 5.0
#: Agreement tolerance between estimators — the same |Δmean| the existing
#: Fig. 2 cross-seed reproducibility test allows between two IS runs.
MEAN_TOLERANCE = 0.3
#: Population size of the SMC self-share measurement: large enough that the
#: per-step array passes, not the per-step Python overhead, are what it sees.
SMC_SHARE_PARTICLES = 30_000 if os.environ.get("REPRO_FAST_BENCH") else 100_000
#: Ceiling on SMC's self share; a per-leaf scatter of the score matrix, two
#: normalisations per step and an O(n log n) resampler read about 0.55.
MAX_SMC_SELF_SHARE = 0.40


def _pair():
    bench = get_benchmark("ex-1")
    return bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry


_best_of = _record.best_of


def test_vectorized_is_10k_particles_at_least_5x_faster():
    """Acceptance: >= 5x over the sequential loop at 10k particles on ex-1."""
    model, guide, model_entry, guide_entry = _pair()
    obs = (tr.ValP(OBSERVED_Z),)

    seq_seconds, seq_result = _best_of(
        2,
        lambda: importance_sampling(
            model, guide, model_entry, guide_entry,
            obs_trace=obs, num_samples=NUM_PARTICLES,
            rng=np.random.default_rng(0),
        ),
    )
    vec_seconds, vec_result = _best_of(
        3,
        lambda: vectorized_importance(
            model, guide, model_entry, guide_entry,
            obs_trace=obs, num_particles=NUM_PARTICLES,
            rng=np.random.default_rng(0),
        ),
    )

    speedup = seq_seconds / vec_seconds
    print(
        f"\nex-1 @ {NUM_PARTICLES} particles: sequential {seq_seconds*1e3:.1f}ms, "
        f"vectorized {vec_seconds*1e3:.1f}ms ({vec_result.run.num_groups} "
        f"control-flow groups) -> {speedup:.1f}x"
    )
    _record.record(
        suite="engine_throughput", model="ex-1", engine="is", backend="interp",
        particles=NUM_PARTICLES, wall_time_s=vec_seconds,
        speedup=speedup, baseline="is-sequential",
        sequential_wall_time_s=seq_seconds,
    )
    assert speedup >= MIN_SPEEDUP

    # Same estimator, same answers (up to Monte Carlo error).
    assert vec_result.posterior_expectation_of_site(0) == pytest.approx(
        seq_result.posterior_expectation_of_site(0), abs=MEAN_TOLERANCE
    )
    assert vec_result.log_evidence() == pytest.approx(seq_result.log_evidence(), abs=0.2)


def test_vectorized_is_matches_sequential_at_modest_size():
    """Estimator agreement away from the headline particle count."""
    model, guide, model_entry, guide_entry = _pair()
    obs = (tr.ValP(OBSERVED_Z),)
    vec = vectorized_importance(
        model, guide, model_entry, guide_entry,
        obs_trace=obs, num_particles=2000, rng=np.random.default_rng(7),
    )
    seq = importance_sampling(
        model, guide, model_entry, guide_entry,
        obs_trace=obs, num_samples=2000, rng=np.random.default_rng(8),
    )
    assert vec.posterior_expectation_of_site(0) == pytest.approx(
        seq.posterior_expectation_of_site(0), abs=MEAN_TOLERANCE
    )


def test_smc_recovers_fig2_posterior():
    """Acceptance: SMC agrees with the Fig. 2 posterior (IS reference)."""
    model, guide, model_entry, guide_entry = _pair()
    obs = (tr.ValP(OBSERVED_Z),)

    smc_seconds, smc_result = _best_of(
        1,
        lambda: smc(
            model, guide, model_entry, guide_entry,
            obs_trace=obs, num_particles=4000, rng=np.random.default_rng(0),
        ),
    )
    _record.record(
        suite="engine_throughput", model="ex-1", engine="smc", backend="interp",
        particles=4000, wall_time_s=smc_seconds,
    )
    is_result = importance_sampling(
        model, guide, model_entry, guide_entry,
        obs_trace=obs, num_samples=4000, rng=np.random.default_rng(1),
    )

    smc_mean = smc_result.posterior_mean(0)
    is_mean = is_result.posterior_expectation_of_site(0)
    print(f"\nFig. 2 posterior mean of @x: SMC {smc_mean:.3f}, IS {is_mean:.3f}")
    assert smc_mean == pytest.approx(is_mean, abs=MEAN_TOLERANCE)

    # The qualitative Fig. 2 shape checks the IS harness makes: the posterior
    # shifts above the Gamma(2,1) prior mean of 2.0.
    assert smc_mean > 2.0 + 0.2
    assert smc_result.log_evidence() == pytest.approx(is_result.log_evidence(), abs=0.2)


def test_smc_self_share_on_lr_compiled():
    """SMC's self time (its wall minus the runner's) is at most 40% of it."""
    bench = get_benchmark("lr")
    args = (bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry)
    obs = tuple(tr.ValP(v) for v in bench.obs_values)
    smc(*args, obs_trace=obs, num_particles=100, backend="compiled")  # compile once

    best = None
    for seed in range(3):
        # The smc.sample spans time exactly the particle runner's passes.
        recorder = enable_tracing()
        started = time.perf_counter()
        try:
            result = smc(
                *args, obs_trace=obs, num_particles=SMC_SHARE_PARTICLES,
                rng=np.random.default_rng(seed), backend="compiled",
            )
        finally:
            wall = time.perf_counter() - started
            disable_tracing()
        runner = sum(e["dur"] for e in recorder.events if e["name"] == "smc.sample") / 1e6
        if best is None or wall - runner < best[0] - best[1]:
            best = (wall, runner, len(result.resample_steps))
    wall, runner, resamples = best
    share = (wall - runner) / wall
    print(
        f"\nlr smc @ {SMC_SHARE_PARTICLES} particles (compiled): {wall*1e3:.1f}ms, "
        f"runner {runner*1e3:.1f}ms, self share {share:.2f} ({resamples} resamples)"
    )
    _record.record(
        suite="engine_throughput", model="lr", engine="smc", backend="compiled",
        particles=SMC_SHARE_PARTICLES, wall_time_s=wall,
        runner_wall_time_s=runner, smc_self_share=share, resamples=resamples,
    )
    assert share <= MAX_SMC_SELF_SHARE

"""SMC's output bits, pinned by digest.

Every ``particles_large`` model is run through SMC at fixed seeds on both
backends, unsharded and as two inline shards, and everything SMC decides —
final log weights, evidence, the ESS trajectory, where it resampled, the
rejuvenation acceptance rates and which draw each survivor descends from —
is hashed.  The digests were generated at commit 7113d8f, before the SMC
population went columnar (running this module as a script against that
commit's ``src`` prints the table below unchanged), and must keep passing:
every schedule here has fewer than 8 tempering steps, where the
step-by-step tempered sums equal NumPy's row reduction bit for bit (see
``docs/engines.md``).

The digests are bits of one platform: x86-64, Python 3.11, NumPy 2.4.6,
SciPy 1.17.1.  NumPy's vectorised ``exp``/``log``, SciPy's ``gammaln`` and
NumPy's samplers may round differently on another CPU or release.
``PLATFORM_PROBE`` hashes those primitives as they were when the digests
were made; where they differ the digest test skips and says so.  CI
installs unpinned NumPy/SciPy on other Python versions, so there the
digest test is expected to skip and only the backend-agreement test below
is enforced.

Regenerate (only when a change is *meant* to move SMC's bits) with::

    PYTHONPATH=src python tests/test_smc_digests.py
"""

import hashlib

import numpy as np
import pytest

from repro.engine import ProgramSession
from repro.models import get_benchmark

MODELS = ("lr", "kalman", "hmm", "switching", "jump", "ptrace")
BACKENDS = ("interp", "compiled")
#: ``(shards, workers)``: the unsharded path and two shards run inline.
SHARD_PLANS = ((1, 1), (2, 1))
PARTICLES = 1000
SEED = 20_211
#: A high threshold makes every shape resample, so rejuvenation is pinned too.
ESS_THRESHOLD = 0.8

PLATFORM_PROBE = 'fe8b4d68eada9ad6cc861c1b52dad0f0'
DIGESTS = {
    ('lr', 'interp', 1): '58b72f954edb6ba81b045ff068fc1ce6',
    ('lr', 'interp', 2): 'c424d4017da5e1f5ec7da556d8b77ed3',
    ('lr', 'compiled', 1): '58b72f954edb6ba81b045ff068fc1ce6',
    ('lr', 'compiled', 2): 'c424d4017da5e1f5ec7da556d8b77ed3',
    ('kalman', 'interp', 1): '62efb51cb887caf3fdf5595f3cedc722',
    ('kalman', 'interp', 2): '2fb6d4c4aede8f4f08273608306182f5',
    ('kalman', 'compiled', 1): '62efb51cb887caf3fdf5595f3cedc722',
    ('kalman', 'compiled', 2): '2fb6d4c4aede8f4f08273608306182f5',
    ('hmm', 'interp', 1): 'd7719d2803c9920976ee5b02462ae36e',
    ('hmm', 'interp', 2): '30dfab5ca9ef72a25e13de09a5879134',
    ('hmm', 'compiled', 1): 'd7719d2803c9920976ee5b02462ae36e',
    ('hmm', 'compiled', 2): '30dfab5ca9ef72a25e13de09a5879134',
    ('switching', 'interp', 1): '2424ec3a92f9871baea86997ed0f64c4',
    ('switching', 'interp', 2): '54538eb7802670b139e9b4365dd89b47',
    ('switching', 'compiled', 1): '2424ec3a92f9871baea86997ed0f64c4',
    ('switching', 'compiled', 2): '54538eb7802670b139e9b4365dd89b47',
    ('jump', 'interp', 1): 'e4f6e99a67f90f0408b01f75df9c5f65',
    ('jump', 'interp', 2): '1d29ebc6e51690cf585eed80d8b02cf5',
    ('jump', 'compiled', 1): 'e4f6e99a67f90f0408b01f75df9c5f65',
    ('jump', 'compiled', 2): '1d29ebc6e51690cf585eed80d8b02cf5',
    ('ptrace', 'interp', 1): '2ed174e4bf4e2ec69304d0580f521453',
    ('ptrace', 'interp', 2): '926e855f71e15951883156d6f6bef120',
    ('ptrace', 'compiled', 1): '2ed174e4bf4e2ec69304d0580f521453',
    ('ptrace', 'compiled', 2): '926e855f71e15951883156d6f6bef120',
}


def platform_probe() -> str:
    """Hex digest of the float primitives and samplers SMC's bits rest on."""
    from scipy.special import gammaln

    x = np.linspace(-40.0, 3.0, 4097)
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for array in (
        np.exp(x), np.log(np.abs(x) + 1e-3), np.log1p(np.abs(x)), gammaln(np.abs(x) + 0.5),
        rng.random(257), rng.normal(0.3, 2.0, 257), rng.gamma(2.0, 0.5, 257),
        rng.beta(2.0, 3.0, 257), (rng.random(257) < 0.4).astype(float),
    ):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()[:32]


def _run(model, backend, shards, workers):
    bench = get_benchmark(model)
    session = ProgramSession(
        bench.model_program(), bench.guide_program(), bench.model_entry, bench.guide_entry
    )
    return session.infer(
        "smc",
        num_particles=PARTICLES,
        obs_values=bench.obs_values,
        seed=SEED,
        ess_threshold=ESS_THRESHOLD,
        backend=backend,
        shards=shards,
        workers=workers,
    ).raw


def smc_digest(result) -> str:
    """Hex digest of every bit an SMC run decides."""
    h = hashlib.sha256()
    for array, dtype in (
        (result.log_weights, np.float64),
        ([result.log_evidence_estimate], np.float64),
        (result.ess_history, np.float64),
        (result.resample_steps, np.int64),
        (result.rejuvenation_rates, np.float64),
        (result.src_run, np.int64),
        (result.src_idx, np.int64),
    ):
        data = np.ascontiguousarray(np.asarray(array, dtype=dtype))
        h.update(str(data.shape).encode())
        h.update(data.tobytes())
    return h.hexdigest()[:32]


CASES = [
    (model, backend, shards, workers)
    for model in MODELS
    for backend in BACKENDS
    for shards, workers in SHARD_PLANS
]


@pytest.mark.parametrize("model,backend,shards,workers", CASES)
def test_smc_bits_match_the_pinned_digest(model, backend, shards, workers):
    if platform_probe() != PLATFORM_PROBE:
        pytest.skip("NumPy's float primitives round differently here than where "
                    "the digests were generated")
    result = _run(model, backend, shards, workers)
    assert smc_digest(result) == DIGESTS[(model, backend, shards)]


@pytest.mark.parametrize("model", MODELS)
def test_backends_agree_bit_for_bit(model):
    # The platform-independent half of the pin: both backends, unsharded and
    # sharded, decide the same bits.
    for shards, workers in SHARD_PLANS:
        interp, compiled = (smc_digest(_run(model, b, shards, workers)) for b in BACKENDS)
        assert interp == compiled, (model, shards)


def test_every_pinned_shape_resamples_and_rejuvenates():
    # Guards the digests' coverage: a shape that never resamples would pin
    # nothing of the resampler or the rejuvenation sweep.
    for model in MODELS:
        result = _run(model, "compiled", 1, 1)
        assert result.resample_steps, model
        assert any(rate > 0 for rate in result.rejuvenation_rates), model


if __name__ == "__main__":
    print(f"PLATFORM_PROBE = {platform_probe()!r}")
    print("DIGESTS = {")
    for model, backend, shards, workers in CASES:
        digest = smc_digest(_run(model, backend, shards, workers))
        print(f"    ({model!r}, {backend!r}, {shards}): {digest!r},")
    print("}")

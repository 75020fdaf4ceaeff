"""Output checks: every op's answer is compared with a known-good answer.

A failed check marks the op *wrong*; wrong ops count in ``failed`` and in
``error_rate`` and make the run's ``correct`` false.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

#: The snapshot's ``quality_atol`` floors are calibrated at this particle
#: count (``repro.bench.snapshot``); smaller runs widen them by the
#: Monte-Carlo factor ``sqrt(REFERENCE_PARTICLES / particles)``.
REFERENCE_PARTICLES = 4000


def golden_tolerance(quality_atol: float, particles: int) -> float:
    """The snapshot's quality floor scaled to an op's particle count."""
    return float(quality_atol) * math.sqrt(REFERENCE_PARTICLES / max(1, int(particles)))


def check_posterior(entry: dict, means: Mapping[str, Optional[float]], particles: int) -> Optional[str]:
    """``None`` if every posterior mean passes the snapshot's quality rule.

    Pairs without a golden posterior must still return a finite mean for
    every requested site.
    """
    golden = entry.get("golden") or {}
    for site, value in means.items():
        if value is None or not math.isfinite(float(value)):
            return f"site {site}: non-finite posterior mean {value!r}"
    for site, exact in golden.items():
        if site not in means:
            return f"site {site}: missing from the response"
        allowed = golden_tolerance(entry["quality_atol"], particles)
        err = abs(float(means[site]) - float(exact))
        if err > allowed:
            return f"site {site}: |{means[site]:.4f} - {exact}| = {err:.4f} > {allowed:.4f}"
    return None


def golden_sites(entry: dict) -> list:
    """The sites an op asks for: every golden site, else site 0."""
    return sorted(int(s) for s in (entry.get("golden") or {"0": None}))


def check_verdict(expected_certified: bool, certified: bool) -> Optional[str]:
    """``None`` if the typechecker's verdict equals the known answer."""
    if bool(certified) == bool(expected_certified):
        return None
    want = "certified" if expected_certified else "rejected"
    got = "certified" if certified else "rejected"
    return f"verdict {got}, expected {want}"


def check_bitwise(engine: str, a, b, num_sites: int) -> Optional[str]:
    """``None`` if two engine results (interp vs compiled) agree bit for bit."""
    import numpy as np

    if engine == "is":
        from repro.fuzz.oracles import bitwise_mismatch

        return bitwise_mismatch(a, b, num_sites)
    ra, rb = a.raw, b.raw
    if engine == "svi":
        if list(ra.elbo_history) != list(rb.elbo_history):
            return "ELBO trajectories differ"
        for site in range(num_sites):
            if a.posterior_mean(site) != b.posterior_mean(site):
                return f"posterior mean of site {site} differs"
        return None
    if not np.array_equal(np.asarray(ra.log_weights), np.asarray(rb.log_weights), equal_nan=True):
        return "final log weights differ"
    if list(ra.resample_steps) != list(rb.resample_steps):
        return "resampling steps differ"
    for site in range(num_sites):
        if not np.array_equal(ra.site_values(site), rb.site_values(site), equal_nan=True):
            return f"latent site {site} values differ"
    return None


def check_stream(query_means: Dict[str, Optional[float]], oneshot_mean: float) -> Optional[str]:
    """``None`` if a session's query equals the one-shot SMC run exactly."""
    got = query_means.get("0")
    if got is None or float(got) != float(oneshot_mean):
        return f"session query {got!r} != one-shot smc {oneshot_mean!r}"
    return None

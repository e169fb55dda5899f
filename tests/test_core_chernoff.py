"""Tests for the Chernoff-bound machinery."""

import numpy as np
import pytest
from scipy import stats

from repro.core.chernoff import (
    binomial_tail_inverse_exact,
    chernoff_binomial_lower,
    chernoff_binomial_upper,
    chernoff_delta_upper,
    oversampling_bucket_bound,
)


def test_delta_decreases_with_mu():
    deltas = [chernoff_delta_upper(mu, 0.05) for mu in [10, 100, 1000, 10000]]
    assert deltas == sorted(deltas, reverse=True)


def test_delta_solves_the_bound_equation():
    import math

    mu, alpha = 500.0, 0.01
    d = chernoff_delta_upper(mu, alpha)
    assert math.exp(-d * d * mu / (2 + d)) == pytest.approx(alpha, rel=1e-6)


def test_delta_validation():
    with pytest.raises(ValueError):
        chernoff_delta_upper(0, 0.1)
    with pytest.raises(ValueError):
        chernoff_delta_upper(10, 1.5)


def test_upper_bound_is_valid():
    """The Chernoff bound really does cap the tail probability."""
    n, p, alpha = 10000, 0.1, 0.05
    m = chernoff_binomial_upper(n, p, alpha=alpha)
    assert stats.binom.sf(m - 1, n, p) <= alpha


def test_upper_bound_at_least_exact():
    for n, p in [(100, 0.5), (10000, 0.01), (500, 0.25)]:
        chern = chernoff_binomial_upper(n, p, alpha=0.05)
        exact = binomial_tail_inverse_exact(n, p, alpha=0.05)
        assert chern >= exact


def test_upper_bound_not_absurdly_loose():
    n, p = 100000, 1.0 / 16
    chern = chernoff_binomial_upper(n, p, alpha=0.05)
    exact = binomial_tail_inverse_exact(n, p, alpha=0.05)
    assert chern <= 1.6 * exact


def test_union_bound_tightens_per_event_budget():
    n, p = 10000, 0.1
    single = chernoff_binomial_upper(n, p, alpha=0.1, union=1)
    many = chernoff_binomial_upper(n, p, alpha=0.1, union=64)
    assert many > single


def test_bounds_clipped_to_n():
    assert chernoff_binomial_upper(10, 0.99, alpha=0.001) <= 10


def test_degenerate_cases():
    assert chernoff_binomial_upper(0, 0.5) == 0
    assert chernoff_binomial_upper(100, 0.0) == 0
    assert chernoff_binomial_lower(0, 0.5) == 0


def test_lower_bound_is_valid():
    n, p, alpha = 10000, 0.25, 0.05
    m = chernoff_binomial_lower(n, p, alpha=alpha)
    assert 0 < m < n * p
    assert stats.binom.cdf(m, n, p) <= alpha


def test_lower_bound_small_mu_returns_zero():
    assert chernoff_binomial_lower(10, 0.1, alpha=0.001) == 0


def test_exact_inverse_is_exact():
    n, p, alpha = 1000, 0.3, 0.05
    m = binomial_tail_inverse_exact(n, p, alpha=alpha)
    assert stats.binom.sf(m - 1, n, p) <= alpha
    assert stats.binom.sf(m - 2, n, p) > alpha


def test_oversampling_bound_shape():
    n, p = 100000, 16
    b64 = oversampling_bucket_bound(n, p, s=64)
    b256 = oversampling_bucket_bound(n, p, s=256)
    assert n / p < b256 < b64 <= n  # more samples -> tighter bound


def test_oversampling_bound_constant_factor_in_n():
    """The δ of the bound depends on s, not n (Figure 2's WHP slope)."""
    p, s = 16, 80
    f1 = oversampling_bucket_bound(10**5, p, s) / (10**5 / p)
    f2 = oversampling_bucket_bound(10**7, p, s) / (10**7 / p)
    assert f1 == pytest.approx(f2, rel=1e-9)


def test_oversampling_bound_empirically_holds(rng):
    """Monte-Carlo: real max buckets stay below the 95% bound."""
    n, p, s = 20000, 8, 64
    bound = oversampling_bucket_bound(n, p, s, alpha=0.05)
    violations = 0
    trials = 40
    for _ in range(trials):
        data = rng.integers(0, 2**62, size=n)
        samples = np.sort(rng.choice(data, size=p * s))
        pivots = samples[s - 1 : (p - 1) * s : s][: p - 1]
        buckets = np.bincount(np.searchsorted(pivots, data, side="right"), minlength=p)
        if buckets.max() > bound:
            violations += 1
    assert violations <= 3  # 5% nominal; allow noise


def test_validation_errors():
    with pytest.raises(ValueError):
        chernoff_binomial_upper(-1, 0.5)
    with pytest.raises(ValueError):
        chernoff_binomial_upper(10, 1.5)
    with pytest.raises(ValueError):
        chernoff_binomial_upper(10, 0.5, union=0)
    with pytest.raises(ValueError):
        oversampling_bucket_bound(10, 2, 0)


def test_cli_import_does_not_load_scipy():
    """scipy is a test-only dependency: CLI start-up must not import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, repro.experiments.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"

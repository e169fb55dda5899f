"""Binomial tail bounds behind every *WHP bound* line.

The paper derives bounds that hold for at least 90% of runs "by
applying Chernoff bounds on B and r" (sample sort, §3.2) and on the
per-iteration survivor counts (list ranking).  We implement:

* the classic multiplicative Chernoff upper bound, inverted in closed
  form (what the paper used — conservative by design);
* an exact inverse binomial tail via scipy, used by the test suite to
  confirm the Chernoff inversion is a valid (and not absurdly loose)
  upper bound.

All bounds take a ``union`` factor: with p processors (and possibly
several phases) the failure budget alpha is split evenly across the
events, the standard union-bound discipline.
"""

from __future__ import annotations

import math


def chernoff_delta_upper(mu: float, alpha: float) -> float:
    """Smallest δ with ``exp(−δ²·μ / (2+δ)) ≤ alpha``.

    Uses the multiplicative Chernoff form
    ``P[X ≥ (1+δ)μ] ≤ exp(−δ²μ/(2+δ))`` valid for all δ > 0, and solves
    the quadratic ``δ²μ − tδ − 2t = 0`` with ``t = ln(1/alpha)``.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    t = math.log(1.0 / alpha)
    return (t + math.sqrt(t * t + 8.0 * t * mu)) / (2.0 * mu)


def chernoff_binomial_upper(n: int, prob: float, alpha: float = 0.1, union: int = 1) -> int:
    """Upper bound m with ``P[Bin(n, prob) ≥ m] ≤ alpha/union`` (Chernoff).

    This is the bound the WHP prediction lines plug in for the largest
    bucket / per-processor survivor counts: with ``union = p`` events,
    all stay below their bound simultaneously with probability at least
    ``1 − alpha``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= prob <= 1:
        raise ValueError(f"prob must be in [0,1], got {prob}")
    if union < 1:
        raise ValueError(f"union must be >= 1, got {union}")
    if n == 0 or prob == 0:
        return 0
    mu = n * prob
    delta = chernoff_delta_upper(mu, alpha / union)
    return min(n, int(math.ceil((1.0 + delta) * mu)))


def chernoff_binomial_lower(n: int, prob: float, alpha: float = 0.1, union: int = 1) -> int:
    """Lower bound m with ``P[Bin(n, prob) ≤ m] ≤ alpha/union`` (Chernoff).

    Uses ``P[X ≤ (1−δ)μ] ≤ exp(−δ²μ/2)``.  The list-ranking WHP bound
    needs this: slow removal (few eliminations) is the bad event that
    keeps per-processor work high.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= prob <= 1:
        raise ValueError(f"prob must be in [0,1], got {prob}")
    if union < 1:
        raise ValueError(f"union must be >= 1, got {union}")
    if n == 0 or prob == 0:
        return 0
    mu = n * prob
    t = math.log(union / alpha)
    delta = math.sqrt(2.0 * t / mu)
    if delta >= 1.0:
        return 0
    return max(0, int(math.floor((1.0 - delta) * mu)))


def oversampling_bucket_bound(n: int, p: int, s: int, alpha: float = 0.05) -> float:
    """WHP bound on the largest sample-sort bucket under over-sampling.

    With ``p·s`` random samples and pivots taken every ``s``-th sorted
    sample, a bucket exceeding ``m = (1+δ)·n/p`` elements implies some
    window of ``m`` consecutive sorted elements contains at most ``s``
    samples, whose expected count is ``(1+δ)·s``.  The Chernoff lower
    tail plus a union bound over ~2p covering windows gives, for
    ``t = ln(2p/alpha)``::

        δ = (t + sqrt(t² + 2·t·s)) / s

    Crucially δ depends on the *sample count*, not on n: the bound is a
    constant factor above n/p, which is why the WHP line of Figure 2
    has a different slope than the best case.
    """
    if n < 1 or p < 1 or s < 1:
        raise ValueError("n, p, s must be >= 1")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    t = math.log(2.0 * p / alpha)
    delta = (t + math.sqrt(t * t + 2.0 * t * s)) / s
    return min(float(n), (1.0 + delta) * n / p)


def binomial_tail_inverse_exact(n: int, prob: float, alpha: float = 0.1, union: int = 1) -> int:
    """Exact counterpart: smallest m with ``P[Bin(n,prob) ≥ m] ≤ alpha/union``.

    Uses the exact binomial survival function; always ≤ the Chernoff
    bound (the tests assert this ordering).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= prob <= 1:
        raise ValueError(f"prob must be in [0,1], got {prob}")
    if union < 1:
        raise ValueError(f"union must be >= 1, got {union}")
    if n == 0 or prob == 0:
        return 0
    # scipy is a test-only dependency; importing it here keeps the
    # ~1 s scipy.stats import off every CLI start-up.
    from scipy import stats

    target = alpha / union
    # P[X >= m] = sf(m - 1); isf gives the smallest x with sf(x) <= target.
    m = int(stats.binom.isf(target, n, prob)) + 1
    return min(n, max(0, m))

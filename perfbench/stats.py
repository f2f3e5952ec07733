"""Order statistics used by every reported timing."""

import math


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile: a tail percentile is only reported as measured when this
    is at least ten."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def median(values):
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])



def _beta_cf(a, b, x):
    """Continued fraction of the regularized incomplete beta function
    (modified Lentz), valid for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100): a
    weighted mean of every order statistic, the i-th of n weighted by the
    Beta((n+1)q, (n+1)(1-q)) mass on ((i-1)/n, i/n], q = p/100. Unlike the
    nearest-rank percentile it does not jump from one sample to the next
    when two samples near the rank trade places; for the 99th percentile
    of 1000 samples the weight lies on the 4th to the 20th slowest."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p / 100.0, (n + 1) * (1.0 - p / 100.0)
    total, below = 0.0, 0.0
    for i, x in enumerate(ordered, start=1):
        upto = beta_cdf(i / n, a, b)
        total += (upto - below) * x
        below = upto
    return total

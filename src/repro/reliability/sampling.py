"""Statistical fault sampling: error margins and sample sizing.

Implements the standard formula for statistical fault injection
(Leveugle et al., DATE 2009) used by the paper's footnote: "2,000 fault
injections per hardware structure ... statistically provides 2.88%
error margin for 99% confidence level". With the worst-case p = 0.5
and an effectively infinite fault population, the margin is

    e = z * sqrt(p (1 - p) / n)

and with a finite population N of (bit, cycle) pairs the
finite-population correction sqrt((N - n) / (N - 1)) applies.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


def z_score(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level in (0, 1)."""
    if not 0 < confidence < 1:
        raise ConfigError(f"confidence {confidence} outside (0, 1)")
    # Imported here: scipy takes about a second to load, and campaign
    # processes never need it (only reports and analysis do).
    from scipy import stats

    return float(stats.norm.ppf((1 + confidence) / 2))


def margin_of_error(samples: int, population: int | None = None,
                    confidence: float = 0.99, p: float = 0.5) -> float:
    """Half-width of the AVF confidence interval for ``samples`` injections."""
    if samples <= 0:
        raise ConfigError("samples must be positive")
    z = z_score(confidence)
    margin = z * math.sqrt(p * (1 - p) / samples)
    if population is not None and population > 1:
        if samples > population:
            raise ConfigError("cannot sample more than the population")
        margin *= math.sqrt((population - samples) / (population - 1))
    return margin


def required_samples(margin: float, population: int | None = None,
                     confidence: float = 0.99, p: float = 0.5) -> int:
    """Injections needed for a target error margin (paper: 2.88% -> 2,000)."""
    if not 0 < margin < 1:
        raise ConfigError(f"margin {margin} outside (0, 1)")
    z = z_score(confidence)
    n_infinite = p * (1 - p) * (z / margin) ** 2
    if population is None:
        return math.ceil(n_infinite)
    n = population / (1 + (population - 1) * margin ** 2 / (z ** 2 * p * (1 - p)))
    return math.ceil(min(n, population))

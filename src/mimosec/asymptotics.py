"""Growth/decay model fitting and statistical checks of the limit theorems
behind the two architectures.

Growth of the no-eavesdropper sum-rate is modeled as linear in
K*log2(ln m) (antenna selection) or K*log2(m) (phase-shifter precoding);
the relative secrecy cost decays as a single amplitude over the same
regressor.  The outer logarithm is binary to match the rate units, the
inner one natural.
"""

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal, derived_rng
from .config import MAX_SIZE, as_integer
from .errors import FitError, MimosecError

GROWTH_MODELS = ("LOGLOG_GROWTH", "LOG_GROWTH")
COST_MODELS = ("LOGLOG_COST", "LOG_COST")


@dataclass(frozen=True)
class FitResult:
    """Fitted model parameters and goodness of fit.

    For growth models: y ~ intercept + slope * K * regressor(m).  For cost
    models the fit is single-parameter, c ~ intercept / regressor(m), and
    ``slope`` is None.
    """

    model: str
    intercept: float
    slope: float | None
    residual_rms: float
    r_squared: float


@dataclass(frozen=True)
class GumbelCheck:
    """Extreme-value diagnostics of the shifted maximum channel gain."""

    m: int
    trials: int
    ks_statistic: float
    sample_mean_shifted: float

    @property
    def sample_mean_max(self) -> float:
        return self.sample_mean_shifted + float(np.log(self.m))


def _check_sizes(check: str, m: int, trials: int) -> tuple:
    """(m, trials) as ints, each checked to be between 1 and MAX_SIZE."""
    sizes = as_integer(m, "m"), as_integer(trials, "trials")
    for name, value in zip(("m", "trials"), sizes):
        if not 1 <= value <= MAX_SIZE:
            raise MimosecError(f"{check} needs {name} between 1 and {MAX_SIZE}, got {value}")
    return sizes


def _in_blocks(trials: int, block: int, draw) -> np.ndarray:
    """``trials`` values drawn in turn by ``draw(n)``, n at most ``block`` at
    a time, so that no draw's temporaries exceed a block of rows."""
    return np.concatenate([draw(min(block, trials - done)) for done in range(0, trials, block)])


def _regressor(m_values: np.ndarray, model: str) -> np.ndarray:
    """The model's regressor of each m, which must be positive: the cost
    models divide by it."""
    if model.startswith("LOGLOG"):
        if np.any(m_values < 3):
            raise MimosecError("log2(ln m) regressor needs m >= 3")
        return np.log2(np.log(m_values))
    if np.any(m_values < 2):
        raise MimosecError("log2 m regressor needs m >= 2")
    return np.log2(m_values)


def _as_finite(message: str, *values) -> list:
    """``values`` as float arrays; FitError(message) unless every entry is
    finite, which NaN, inf and an integer past a double's range are not."""
    try:
        arrays = [np.asarray(v, dtype=float) for v in values]
    except OverflowError:
        raise FitError(message) from None
    if not all(np.isfinite(a).all() for a in arrays):
        raise FitError(message)
    return arrays


def _goodness(y: np.ndarray, fitted: np.ndarray):
    residuals = y - fitted
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if np.allclose(residuals, 0.0) else 0.0
    else:
        r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot
    return rms, r2


def fit_growth(m_values, y_values, K: int, model: str) -> FitResult:
    """Least-squares line y = intercept + slope * K * regressor(m)."""
    if model not in GROWTH_MODELS:
        raise MimosecError(f"unknown growth model '{model}'")
    if as_integer(K, "K") < 1:
        raise MimosecError(f"growth fit needs K >= 1, got {K}")
    m, y = _as_finite("growth fit needs finite m and y values", m_values, y_values)
    if m.size != y.size or m.size < 3:
        raise FitError("growth fit needs at least 3 (m, y) points")
    x = K * _regressor(m, model)
    if np.ptp(x) == 0.0:
        raise FitError("degenerate regressor: all m values map to the same abscissa")
    slope, intercept = np.polyfit(x, y, 1)
    rms, r2 = _goodness(y, intercept + slope * x)
    return FitResult(model=model, intercept=float(intercept),
                     slope=float(slope), residual_rms=rms, r_squared=r2)


def fit_cost_anchor(m_values, c_values, model: str, m0: int) -> FitResult:
    """Anchor the decay amplitude so the model matches the cost at m0.

    intercept = c(m0) * regressor(m0); residuals are reported over all
    points against intercept / regressor(m).
    """
    if model not in COST_MODELS:
        raise MimosecError(f"unknown cost model '{model}'")
    m, c = _as_finite("cost fit needs finite m and c values", m_values, c_values)
    if m.size != c.size or m.size == 0:
        raise FitError("cost fit needs matching non-empty m and c vectors")
    try:
        where = np.nonzero(m == m0)[0]
    except OverflowError:  # an integer m0 past a double's range
        raise FitError("cost fit needs a finite anchor m0") from None
    if where.size == 0:
        raise MimosecError(f"anchor m0={m0} is not among the swept m values")
    x = _regressor(m, model)
    amplitude = float(c[where[0]] * x[where[0]])
    rms, r2 = _goodness(c, amplitude / x)
    return FitResult(model=model, intercept=amplitude, slope=None,
                     residual_rms=rms, r_squared=r2)


def gumbel_check(m: int, trials: int, seed: int) -> GumbelCheck:
    """Compare the shifted maximum gain against its limiting distribution.

    Per trial, the maximum of m i.i.d. unit-mean exponentials (the law of
    |h|^2 under CN(0,1) fading) is shifted by ln m; the result is tested
    against the standard Gumbel CDF exp(-exp(-x)) with a Kolmogorov-Smirnov
    statistic.  Sampling uses the exponential identity directly rather than
    squaring complex Gaussians.
    """
    m, trials = _check_sizes("gumbel_check", m, trials)
    rng = derived_rng(seed)
    maxima = _in_blocks(trials, (1 << 22) // m,
                        lambda n: rng.standard_exponential((n, m)).max(axis=1))
    shifted = maxima - np.log(m)
    from scipy import stats  # imported here: it dominates the CLI's start-up
    ks = float(stats.kstest(shifted, stats.gumbel_r.cdf).statistic)
    return GumbelCheck(m=m, trials=trials, ks_statistic=ks,
                       sample_mean_shifted=float(np.mean(shifted)))


def phase_aligned_sums(m: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    r"""Draw S = m^{-1/2} \sum_m a_m conj(b_m)/|b_m| for independent CN(0,1)
    pairs (a, b); the cross-user / cross-eavesdropper statistic whose limit
    is standard complex Gaussian.  m and trials are between 1 and MAX_SIZE."""
    m, trials = _check_sizes("phase_aligned_sums", m, trials)

    def sums(n):
        a = complex_normal(rng, (n, m))
        b = complex_normal(rng, (n, m))
        return (a * np.conj(b) / np.abs(b)).sum(axis=1) / np.sqrt(m)

    return _in_blocks(trials, (1 << 21) // m, sums)


def clt_check(m: int, trials: int, seed: int) -> float:
    """KS statistic of sqrt(2) * Re(S) against the standard normal CDF,
    where S is the phase-aligned cross sum of two independent CN(0,1)
    vectors of length m."""
    s = phase_aligned_sums(*_check_sizes("clt_check", m, trials), derived_rng(seed))
    from scipy import stats  # imported here: it dominates the CLI's start-up
    return float(stats.kstest(np.sqrt(2.0) * s.real, "norm").statistic)

"""System-level parameters of one downlink wiretap instance."""

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError

# Largest array size M and largest user, eavesdropper or RF-chain count a
# system may have.  One draw holds M x (K + J) complex gains, so 2**20
# antennas with 16 users and 16 eavesdroppers already take 512 MiB.
MAX_SIZE = 1 << 20


def as_integer(value, name: str) -> int:
    """``value`` as a Python int; a float or other non-integer raises
    ConfigurationError naming ``name``, where ``int`` would truncate it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}",
                                 field=name) from None


def _as_vector(x, n: int, name: str) -> np.ndarray:
    """``x`` as n finite non-negative floats; one value stands for all n."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size not in (1, n):
        raise ConfigurationError(f"{name} must be one value or a length-{n} vector, "
                                 f"got shape {v.shape}", field=name)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError(f"{name} must be finite", field=name)
    if np.any(v < 0):
        raise ConfigurationError(f"{name} must be non-negative", field=name)
    return v if v.size == n else np.full(n, v[0])


class ByValue:
    """Equality and hash of a ``@dataclass(frozen=True, eq=False)`` by its
    field values, ndarrays as tuples: the generated ones fail on ndarrays."""

    def _values(self) -> tuple:
        return tuple(tuple(v) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())


@dataclass(frozen=True, eq=False)
class SystemConfig(ByValue):
    """All scalar parameters of one base-station / users / eavesdroppers setup.

    M transmit antennas serve K single-antenna users through L RF chains
    while J passive single-antenna eavesdroppers overhear.  ``betas`` and
    ``thetas`` are the large-scale (path-loss and shadowing) power gains of
    the user and eavesdropper channels; ``weights`` are the per-user QoS
    weights used in all weighted sum-rates.  Each of the three may be given
    as one value for all users or eavesdroppers; it is stored as a vector.
    """

    M: int
    K: int
    J: int
    L: int
    total_power: float
    sigma2: float
    rho2: float
    betas: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, low in (("K", 1), ("J", 0), ("L", 1), ("M", 1)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
            if not low <= getattr(self, name) <= MAX_SIZE:
                raise ConfigurationError(f"{name} must be between {low} and {MAX_SIZE}, "
                                         f"got {getattr(self, name)}", field=name)
        if self.L > self.M:
            raise ConfigurationError(f"L must satisfy L <= M, got L={self.L}, M={self.M}",
                                     field="L")
        for name, ok, rule in (("total_power", self.total_power >= 0, ">= 0"),
                               ("sigma2", self.sigma2 > 0, "> 0"), ("rho2", self.rho2 > 0, "> 0")):
            if not (ok and np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} must be finite and {rule}, "
                                         f"got {getattr(self, name)}", field=name)
        for name, n in (("betas", self.K), ("thetas", self.J), ("weights", self.K)):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        if not np.any(self.weights > 0):
            raise ConfigurationError("weights must not be all zero", field="weights")

    @classmethod
    def uniform(cls, M: int, K: int, J: int, L: int, total_power: float,
                sigma2: float, rho2: float, beta: float = 1.0,
                theta: float = 0.1, weight: float = 1.0) -> "SystemConfig":
        """Build a config with identical large-scale gains and weights."""
        return cls(M=M, K=K, J=J, L=L, total_power=total_power, sigma2=sigma2,
                   rho2=rho2, betas=beta, thetas=theta, weights=weight)

    def snr_user_db(self) -> np.ndarray:
        """Per-user receive SNR beta_k * P / sigma^2 in dB."""
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.betas * self.total_power / self.sigma2)

    def snr_eve_db(self) -> np.ndarray:
        """Per-eavesdropper receive SNR theta_j * P / rho^2 in dB."""
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.thetas * self.total_power / self.rho2)

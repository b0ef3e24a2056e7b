"""One downlink wiretap network, the system config that fixes its array
size, and the sweep specification that runs it over a grid of array sizes."""

import numbers
import operator
import re
import sys
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigParseError, ConfigurationError

# Largest array size M and largest user, eavesdropper or RF-chain count a
# system may have.  One draw holds M x (K + J) complex gains, so 2**20
# antennas with 16 users and 16 eavesdroppers already take 512 MiB.
MAX_SIZE = 1 << 20

SCHEMES = ("TAS_A", "TAS_B", "HADP_A", "HADP_B")

# Finest phase-shifter resolution: a grid of more points than 2**52 is finer
# than a double resolves an angle near pi.
MAX_QUANT_BITS = 52

COST_ESTIMATORS = ("mean_of_ratios", "ratio_of_means")


def as_integer(value, name: str) -> int:
    """``value`` as a Python int; a float, a bool or other non-integer raises
    ConfigurationError naming ``name``, where ``int`` would truncate it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}", field=name)


def _as_vector(x, n: int, name: str) -> np.ndarray:
    """``x`` as n finite non-negative floats in a read-only copy; one value stands for all n."""
    try:
        v = np.array(x, dtype=float, ndmin=1)
    except OverflowError:  # an integer past a double's range
        raise ConfigurationError(f"{name} must be finite", field=name) from None
    except (TypeError, ValueError):  # a string or a ragged list
        raise ConfigurationError(f"{name} must be a number or a vector of numbers, "
                                 f"got {x!r}", field=name) from None
    if any(isinstance(e, (bool, np.bool_)) for e in np.array(x, dtype=object).flat):
        raise ConfigurationError(f"{name} must be a list of numbers, got {x!r}", field=name)
    if v.ndim != 1 or v.size not in (1, n):
        raise ConfigurationError(f"{name} must be one value or a length-{n} vector, "
                                 f"got shape {v.shape}", field=name)
    if not np.all(np.isfinite(v)):
        raise ConfigurationError(f"{name} must be finite", field=name)
    if np.any(v < 0):
        raise ConfigurationError(f"{name} must be non-negative", field=name)
    v = v if v.size == n else np.full(n, v[0])
    v.flags.writeable = False
    return v


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


@dataclass(frozen=True, eq=False, kw_only=True)
class Network(ByValue):
    """One base-station / users / eavesdroppers setup, at any array size.

    The transmit array serves K single-antenna users through L RF chains
    while J passive single-antenna eavesdroppers overhear.  ``betas`` and
    ``thetas`` are the large-scale (path-loss and shadowing) power gains of
    the user and eavesdropper channels; ``weights`` are the per-user QoS
    weights used in all weighted sum-rates, 1.0 each when left out.  Each of
    the three may be given as one value for all users or eavesdroppers; it
    is stored as a vector.

    Each field's metadata gives its kind (a key of KINDS), an integer's
    ``range``, and, where they differ from its name, its config-file ``key``
    and ``manifest`` key.
    """

    K: int = field(metadata={"kind": "int", "range": (1, MAX_SIZE)})
    J: int = field(metadata={"kind": "int", "range": (0, MAX_SIZE)})
    L: int = field(metadata={"kind": "int", "range": (1, MAX_SIZE)})
    total_power: float = field(metadata={"kind": "float"})
    sigma2: float = field(metadata={"kind": "float"})
    rho2: float = field(metadata={"kind": "float"})
    betas: np.ndarray = field(repr=False, metadata={"kind": "vector", "key": "beta"})
    thetas: np.ndarray = field(repr=False, metadata={"kind": "vector", "key": "theta"})
    weights: np.ndarray = field(default=(1.0,), repr=False, metadata={"kind": "vector"})

    def __post_init__(self):
        # Each field's type and each integer's range; integers are stored as ints.
        for f in fields(self):
            kind, value = KINDS[f.metadata["kind"]], getattr(self, f.name)
            if not (_of(kind.type)(value) or value is f.default):
                raise ConfigurationError(f"{f.name} must be {kind.json}, got {value!r}",
                                         field=f.name)
            if kind.type is numbers.Integral and value is not None:
                object.__setattr__(self, f.name, int(value))
            low, high = f.metadata.get("range", (None, None))
            if low is not None and value is not None and not low <= value <= high:
                raise ConfigurationError(f"{f.name} must be between {low} and {high}, "
                                         f"got {value}", field=f.name)
        for name, ok, rule in (("total_power", self.total_power >= 0, ">= 0"),
                               ("sigma2", self.sigma2 > 0, "> 0"), ("rho2", self.rho2 > 0, "> 0")):
            # Above the largest double: inf, and an integer past a double's range.
            if not (ok and getattr(self, name) <= sys.float_info.max):
                raise ConfigurationError(f"{name} must be finite and {rule}, "
                                         f"got {getattr(self, name)}", field=name)
        for name, n in (("betas", self.K), ("thetas", self.J), ("weights", self.K)):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n, name))
        if not np.any(self.weights > 0):
            raise ConfigurationError("weights must not be all zero", field="weights")

    def snr_user_db(self) -> np.ndarray:
        """Per-user receive SNR beta_k * P / sigma^2 in dB: -inf for a zero
        beta_k, inf where the ratio overflows a double."""
        with np.errstate(divide="ignore", over="ignore"):
            return 10.0 * np.log10(self.betas * self.total_power / self.sigma2)

    def snr_eve_db(self) -> np.ndarray:
        """Per-eavesdropper receive SNR theta_j * P / rho^2 in dB, infinite
        as ``snr_user_db`` is."""
        with np.errstate(divide="ignore", over="ignore"):
            return 10.0 * np.log10(self.thetas * self.total_power / self.rho2)


@dataclass(frozen=True, eq=False, kw_only=True)
class SystemConfig(Network):
    """The network with M transmit antennas, L <= M."""

    M: int = field(metadata={"kind": "int", "range": (1, MAX_SIZE)})

    def __post_init__(self):
        super().__post_init__()
        if self.L > self.M:
            raise ConfigurationError(f"L must satisfy L <= M, got L={self.L}, M={self.M}",
                                     field="L")

    @classmethod
    def uniform(cls, M: int, K: int, J: int, L: int, total_power: float,
                sigma2: float, rho2: float, beta: float = 1.0,
                theta: float = 0.1, weight: float = 1.0) -> "SystemConfig":
        """Build a config with identical large-scale gains and weights."""
        return cls(M=M, K=K, J=J, L=L, total_power=total_power, sigma2=sigma2,
                   rho2=rho2, betas=beta, thetas=theta, weights=weight)


# Largest b of a 'pow2:a..b' grid, checked before the grid is built.
_MAX_POW2 = MAX_SIZE.bit_length() - 1


def _read_m_grid(raw: str) -> list:
    m = re.fullmatch(r"pow2:(\d+)\.\.(\d+)", raw)
    if m is None:
        return [int(tok) for tok in raw.split(",")]
    lo, hi = int(m.group(1)), int(m.group(2))
    if not lo <= hi <= _MAX_POW2:
        raise ValueError("pow2 range out of bounds")
    return [2 ** e for e in range(lo, hi + 1)]


def _of(types):
    return lambda value: isinstance(value, types) and not isinstance(value, bool)


def _list_of(types):
    return lambda value: isinstance(value, (list, tuple)) and all(map(_of(types), value))


# Each field kind: the test of a JSON value and what its error says was
# expected, the reader of a config-file value (a ValueError on a bad one)
# and what its error says was expected, then the type of a library value,
# which is never a bool.
Kind = namedtuple("Kind", "is_json json read text type")
KINDS = {
    "int": Kind(_of(int), "an integer", int, "integer", numbers.Integral),
    "float": Kind(_of((int, float)), "a number", float, "number", numbers.Real),
    "string": Kind(_of(str), "a string", str, "string", str),
    "vector": Kind(_list_of((int, float)), "a list of numbers",
                   lambda raw: [float(tok) for tok in raw.split(",")],
                   "a number or comma-separated numbers", object),
    "m_grid": Kind(_list_of(int), "a list of integers", _read_m_grid,
                   f"comma-separated integers or 'pow2:a..b' with a <= b <= {_MAX_POW2}",
                   Iterable),
}


# The two networks used throughout the experiment matrix: 16 users at 0 dB
# receive SNR overheard by 2 (sparse) or 16 (dense) eavesdroppers at -10 dB.
# Keyed like manifests; a config's ``preset`` key fills in what it omits.
_SPARSE = dict(K=16, J=2, L=16, total_power=1.0, sigma2=1.0, rho2=1.0,
               betas=(1.0,), thetas=(0.1,))
PRESETS = {"sparse": _SPARSE, "dense": dict(_SPARSE, J=16)}


@dataclass(frozen=True, eq=False, kw_only=True)
class SweepSpec(Network):
    """One Monte Carlo sweep: a network swept over array sizes.

    ``m_values`` must be strictly increasing and each at least
    max(L, K) so every scheme stays feasible, and at most ``MAX_SIZE``.
    ``L`` is the RF-chain count of scheme TAS_B; the other schemes have one
    chain per user and need ``L == K``.  ``quant_bits`` is the phase-shifter
    resolution and is required exactly for scheme HADP_B.
    """

    scenario: str = field(metadata={"kind": "string"})
    scheme: str = field(metadata={"kind": "string"})
    m_values: tuple = field(metadata={"kind": "m_grid"})
    trials: int = field(metadata={"kind": "int", "range": (1, MAX_SIZE)})
    master_seed: int = field(metadata={"kind": "int", "key": "seed", "manifest": "seed"})
    quant_bits: int | None = field(default=None,
                                   metadata={"kind": "int", "range": (1, MAX_QUANT_BITS)})
    cost_estimator: str = field(default="mean_of_ratios", metadata={"kind": "string"})

    def __post_init__(self):
        super().__post_init__()
        # The scenario names the output files and leads every CSV row, where
        # a control character such as a carriage return is written unquoted
        # and splits the row when it is read back.
        if re.search(r"[\x00-\x1f\x7f-\x9f]", self.scenario):
            raise ConfigurationError(f"scenario must not contain control characters, "
                                     f"got {self.scenario!r}", field="scenario")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme '{self.scheme}', expected one of "
                                     f"{SCHEMES}", field="scheme")
        if self.cost_estimator not in COST_ESTIMATORS:
            raise ConfigurationError(f"unknown cost_estimator '{self.cost_estimator}', "
                                     f"expected one of {COST_ESTIMATORS}", field="cost_estimator")
        m = tuple(as_integer(v, "m_values") for v in self.m_values)
        object.__setattr__(self, "m_values", m)
        # An empty m_values is allowed; it emits a header-only CSV.
        if any(b <= a for a, b in zip(m, m[1:])):
            raise ConfigurationError("m_values must be strictly increasing", field="m_values")
        if m and m[-1] > MAX_SIZE:
            raise ConfigurationError(f"every m must be at most {MAX_SIZE}", field="m_values")
        if m:
            self.config_for(m[0])  # the smallest m, checked against the floor
        if (self.scheme == "HADP_B") != (self.quant_bits is not None):
            raise ConfigurationError("quant_bits is required for scheme HADP_B "
                                     "and must be absent otherwise", field="quant_bits")
        if self.scheme != "TAS_B" and self.L != self.K:
            raise ConfigurationError(f"scheme {self.scheme} has one RF chain per user, so L "
                                     f"must equal K = {self.K}, got {self.L}", field="L")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative", field="master_seed")

    @classmethod
    def from_dict(cls, entries, *, path: str | None = None) -> "SweepSpec":
        """Inverse of ``to_dict``: build a spec from a dict keyed like a
        manifest's ``sweep`` object.  Absent optional keys take their default.
        A bad key or value raises ConfigParseError naming the manifest key and
        ``path``."""
        if not isinstance(entries, dict):
            raise ConfigParseError("expected an object of sweep settings", path=path)
        unknown = [key for key in entries if key not in {f.manifest for f in SPEC_FIELDS}]
        if unknown:
            raise ConfigParseError("unknown key", path=path, key=unknown[0])
        values = {}
        for f in SPEC_FIELDS:
            value = values[f.name] = entries.get(f.manifest, f.default)
            if value is MISSING:
                raise ConfigParseError("missing required key", path=path, key=f.manifest)
            if not (KINDS[f.kind].is_json(value) or (value is None and f.default is None)):
                raise ConfigParseError(f"expected {KINDS[f.kind].json}, got {value!r}",
                                       path=path, key=f.manifest)
        try:
            return cls(**values)
        except ConfigurationError as exc:
            key = next((f.manifest for f in SPEC_FIELDS if f.name == exc.field), None)
            raise ConfigParseError(str(exc), path=path, key=key) from exc

    def to_dict(self) -> dict:
        """The spec as JSON values, keyed and ordered as in manifests."""
        values = {f.manifest: getattr(self, f.name) for f in SPEC_FIELDS}
        return {k: list(v) if isinstance(v, (tuple, np.ndarray)) else v for k, v in values.items()}

    def config_for(self, m: int) -> SystemConfig:
        """System config of this network at array size m, which must be at
        least max(L, K): below it some scheme is infeasible."""
        floor = max(self.L, self.K)
        if m < floor:
            raise ConfigurationError(f"m must be at least max(L, K) = {floor}, got {m}",
                                     field="m_values")
        return SystemConfig(M=m, **{f.name: getattr(self, f.name) for f in fields(Network)})


# The schema, one row per SweepSpec field in manifest order (scenario and
# scheme lead); ``default`` is MISSING where the key is required.
SpecField = namedtuple("SpecField", "name key manifest kind default")
SPEC_FIELDS = tuple(SpecField(f.name, f.metadata.get("key", f.name),
                              f.metadata.get("manifest", f.name), f.metadata["kind"], f.default)
                    for f in sorted(fields(SweepSpec),
                                    key=lambda f: f.name not in ("scenario", "scheme")))

"""I.i.d. Rayleigh channel generation with reproducible per-trial streams."""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ConfigurationError, MimosecError


def _seed_sequence(key) -> np.random.SeedSequence:
    """The stream of a key tuple; a negative entry raises MimosecError."""
    entropy = [int(k) for k in key]
    if any(k < 0 for k in entropy):
        raise MimosecError(f"random stream key {tuple(entropy)} must be non-negative: "
                           "seeds and trial indices are integers >= 0")
    return np.random.SeedSequence(entropy)


def derived_rng(*key: int) -> np.random.Generator:
    """Independent generator derived by hashing a tuple of non-negative ints.

    Streams for distinct keys are statistically independent, and the mapping
    is stable across processes and call order, so trials can run on any
    number of workers without shared RNG state.
    """
    return np.random.default_rng(_seed_sequence(key))


def derive_seed(*key: int) -> int:
    """Collapse a key tuple into a single non-negative integer seed."""
    return int(_seed_sequence(key).generate_state(1, np.uint64)[0])


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    r"""Draw CN(0, 1) entries as (x + jy)/sqrt(2) with x, y standard normal.

    All x are drawn before all y.  Each draw is scaled by 1/sqrt(2) straight
    into the real or imaginary part of the result, which gives the same bits
    as dividing the complex sum by sqrt(2) without its temporaries.
    """
    out = np.empty(shape, dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the fading matrices.

    ``H`` (M x K) holds the user fading vectors column-wise, ``G`` (M x J)
    the eavesdropper ones; entries are i.i.d. CN(0, 1).
    """

    H: np.ndarray
    G: np.ndarray


def sample_realization(cfg: SystemConfig, master_seed: int,
                       trial_index: int) -> ChannelRealization:
    """Draw one channel realization for trial ``trial_index``.

    Pure function of (cfg dimensions, master_seed, trial_index): repeated
    calls return bitwise-identical matrices regardless of execution order
    or thread count.  H is drawn before G from the same derived stream.
    """
    if not isinstance(cfg, SystemConfig):
        raise ConfigurationError("cfg must be a SystemConfig")
    rng = derived_rng(master_seed, trial_index)
    H = complex_normal(rng, (cfg.M, cfg.K))
    G = complex_normal(rng, (cfg.M, cfg.J))
    return ChannelRealization(H=H, G=G)


def empirical_moment(values, p: int) -> float:
    r"""p-th raw moment (1/n) \sum_i values_i^p of a non-empty sample."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise MimosecError("empirical_moment of an empty sample is undefined")
    if int(p) != p or p < 1:
        raise MimosecError(f"moment order must be a positive integer, got {p}")
    return float(np.mean(v ** int(p)))

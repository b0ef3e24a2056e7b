"""I.i.d. Rayleigh channel generation with reproducible per-trial streams."""

import operator
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ConfigurationError, MimosecError


def _seed_sequence(key) -> np.random.SeedSequence:
    """The stream of a key tuple; an entry that is not an integer >= 0
    raises MimosecError."""
    try:
        entropy = [operator.index(k) for k in key]
    except TypeError:
        entropy = None
    if entropy is None or any(k < 0 for k in entropy):
        raise MimosecError(f"random stream key {tuple(key)} must be non-negative integers: "
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

    All x are drawn before all y.
    """
    return _gains(rng.standard_normal(2 * int(np.prod(shape))), shape)


def _gains(normals: np.ndarray, shape) -> np.ndarray:
    """CN(0, 1) gains of ``shape`` from twice as many standard normals: the
    first half is x and the second y of (x + jy)/sqrt(2).  Each normal is
    scaled by 1/sqrt(2) straight into the real or imaginary part of the
    result, which gives the same bits as dividing the complex sum by sqrt(2)
    without its temporaries."""
    out = np.empty(shape, dtype=complex)
    n = out.size
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(normals[:n].reshape(shape), scale, out=out.real)
    np.multiply(normals[n:2 * n].reshape(shape), scale, out=out.imag)
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the fading matrices.

    ``H`` (M x K) holds the user fading vectors column-wise, ``G`` (M x J)
    the eavesdropper ones; entries are i.i.d. CN(0, 1).
    """

    H: np.ndarray
    G: np.ndarray


def trial_normals(master_seed: int, trial_index: int, count: int) -> np.ndarray:
    """The first ``count`` standard normals of the stream of trial
    ``trial_index``: those of 2M(K + J) or more hold the realization of any
    K users and J eavesdroppers at M antennas (see ``carve``)."""
    return derived_rng(master_seed, trial_index).standard_normal(count)


def carve(normals: np.ndarray, M: int, K: int, J: int,
          H: np.ndarray | None = None) -> ChannelRealization:
    """The realization of K users and J eavesdroppers at M antennas held in
    ``normals``, at least 2M(K + J) of a trial's stream: the x and then the y
    of H, then those of G.  A realization is thus a prefix of the stream,
    and the realizations of any (K, J) are carved from one draw of the
    widest.  ``H``, when given, is the H carved before from these normals
    for this K; it is shared, not carved again."""
    if H is None:
        H = _gains(normals[:2 * M * K], (M, K))
    return ChannelRealization(H=H, G=_gains(normals[2 * M * K:2 * M * (K + J)], (M, J)))


def sample_realization(cfg: SystemConfig, master_seed: int,
                       trial_index: int) -> ChannelRealization:
    """Draw one channel realization for trial ``trial_index``.

    Pure function of (cfg dimensions, master_seed, trial_index): repeated
    calls return bitwise-identical matrices regardless of execution order
    or thread count.  The first 2M(K + J) normals of the derived stream are
    drawn and carved into H and G.
    """
    if not isinstance(cfg, SystemConfig):
        raise ConfigurationError("cfg must be a SystemConfig")
    normals = trial_normals(master_seed, trial_index, 2 * cfg.M * (cfg.K + cfg.J))
    return carve(normals, cfg.M, cfg.K, cfg.J)

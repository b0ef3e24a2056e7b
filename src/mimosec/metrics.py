"""Per-realization rate metrics: SINR, eavesdropper SNR, secrecy rates,
leakage, and relative secrecy cost."""

import math
from dataclasses import dataclass, field

import numpy as np

from .beamforming import Beamformers
from .channel import ChannelRealization
from .config import SystemConfig
from .errors import ConfigurationError, MimosecError


@dataclass(frozen=True)
class RateReport:
    """All rate quantities of one realization/beamformer pair.

    Rates are in bits per channel use.  ``interference[k]`` is the total
    received interference power sum_{i != k} P_i |h_k^T F w_i|^2 and
    ``eve_power[k]`` the aggregate overheard power
    sum_j theta_j |g_j^T F w_k|^2 (both without the noise scaling).
    """

    sinr: np.ndarray
    esnr: np.ndarray
    r_secrecy: np.ndarray
    r_noeve: np.ndarray
    r_sum: float
    r_sum_noeve: float
    leakage: float
    cost: float
    interference: np.ndarray = field(repr=False)
    eve_power: np.ndarray = field(repr=False)


def _check_dims(ch: ChannelRealization, bf: Beamformers, cfg: SystemConfig):
    M, K, J = cfg.M, cfg.K, cfg.J
    if ch.H.shape != (M, K) or ch.G.shape != (M, J):
        raise ConfigurationError(f"channel shapes {ch.H.shape}/{ch.G.shape} do not match "
                                 f"cfg (M={M}, K={K}, J={J})")
    if bf.M != M or bf.W.shape != (bf.L, K):
        raise ConfigurationError(f"beamformers with M={bf.M}, L={bf.L} and W{bf.W.shape} "
                                 f"do not compose to M x K")
    if bf.powers.shape != (K,):
        raise ConfigurationError("powers must be a length-K vector")


def _user(k, cfg: SystemConfig) -> int:
    """``k``, checked to be the index of one of the cfg.K users."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < cfg.K:
        raise MimosecError(f"user index must be an integer in [0, {cfg.K}), got {k!r}")
    return int(k)


def sinr_k(k: int, ch: ChannelRealization, bf: Beamformers,
           cfg: SystemConfig) -> float:
    r"""SINR of user k:

        P_k beta_k |h_k^T F w_k|^2
        -----------------------------------------------
        sigma^2 + beta_k sum_{i != k} P_i |h_k^T F w_i|^2
    """
    return float(rate_report(ch, bf, cfg).sinr[_user(k, cfg)])


def esnr_k(k: int, ch: ChannelRealization, bf: Beamformers,
           cfg: SystemConfig) -> float:
    r"""Effective SNR of user k's signal at the cooperating eavesdroppers:

        (P_k / rho^2) sum_j theta_j |g_j^T F w_k|^2
    """
    return float(rate_report(ch, bf, cfg).esnr[_user(k, cfg)])


def gains(bf: Beamformers, X: np.ndarray) -> np.ndarray:
    """X^T F W: entry (n, i) is x_n^T F w_i."""
    return bf.effective(X).T @ bf.W


def user_rates(H: np.ndarray, bf: Beamformers, cfg: SystemConfig) -> tuple:
    """(sinr, r_noeve, r_sum_noeve, interference): the half of ``rate_report``
    read from H and the build alone, whose overflow its finite check catches."""
    a, powers = gains(bf, H), bf.powers  # a[k, i] = h_k^T F w_i
    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.abs(np.diagonal(a)) ** 2
        interference = np.maximum((np.abs(a) ** 2) @ powers - powers * sig, 0.0)
        sinr = powers * cfg.betas * sig / (cfg.sigma2 + cfg.betas * interference)
        r_noeve = np.log2(1.0 + sinr)
        return sinr, r_noeve, float(cfg.weights @ r_noeve), interference


def rate_report(ch: ChannelRealization, bf: Beamformers, cfg: SystemConfig,
                user: tuple | None = None) -> RateReport:
    """Evaluate all per-user and network-level rate metrics.

    Per user: secrecy rate [log2((1+SINR)/(1+ESNR))]^+ and the
    no-eavesdropper rate log2(1+SINR).  Network level: weighted sums, their
    gap (the information leakage), and the relative secrecy cost
    1 - R_sum / R_sum_noeve (defined as 0 when R_sum_noeve is 0).  Rates
    that overflow to a non-finite value raise MimosecError.  ``user``, when
    given, is ``user_rates(ch.H, bf, cfg)`` formed before.
    """
    _check_dims(ch, bf, cfg)
    sinr, r_noeve, r_sum_noeve, interference = user or user_rates(ch.H, bf, cfg)
    b = gains(bf, ch.G)  # g_j^T F w_i
    # Overflow is caught by the finite check below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        eve_power = cfg.thetas @ (np.abs(b) ** 2)
        esnr = bf.powers * eve_power / cfg.rho2
        r_secrecy = np.maximum(r_noeve - np.log2(1.0 + esnr), 0.0)
        r_sum = float(cfg.weights @ r_secrecy)
    if not (math.isfinite(r_sum) and math.isfinite(r_sum_noeve)):
        raise MimosecError(f"rates are not finite (r_sum={r_sum}, r_sum_noeve={r_sum_noeve}): "
                           "the powers, gains and noise levels overflow double precision")
    leakage = r_sum_noeve - r_sum
    cost = 1.0 - r_sum / r_sum_noeve if r_sum_noeve != 0.0 else 0.0
    return RateReport(sinr=sinr, esnr=esnr, r_secrecy=r_secrecy,
                      r_noeve=r_noeve, r_sum=r_sum, r_sum_noeve=r_sum_noeve,
                      leakage=leakage, cost=cost, interference=interference,
                      eve_power=eve_power)

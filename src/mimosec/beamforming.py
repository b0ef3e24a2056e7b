"""Analog and digital beamformer construction for the four transmit schemes.

All constructions read only the user channels H, never the eavesdropper
channels: the transmitter has no CSI of the overhearing links.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_QUANT_BITS, SystemConfig, as_integer
from .errors import (ConfigurationError, DegenerateChannelError,
                     InfeasibleSelectionError, MimosecError,
                     SingularChannelError)

# The schemes whose analog stage starts from the phase match of H.
HYBRID_SCHEMES = ("HADP_A", "HADP_B")

ZF_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class BeamformerSet:
    """Phase-shifter network F (M x L), digital matrix W (L x K), per-user
    powers: RF chain l drives every antenna through column l of F.

    The analog stage has one stored form per network type: F for phase
    shifters (this class), the L antenna indices for a switching network
    (``SwitchedBeamformerSet``).  Both apply it to channels as F^T X through
    ``effective`` and give the dense matrix as ``F``.  Every column of F and
    of W has unit norm (loss-less analog network, normalized digital
    beamformers) and the powers sum to at most the configured budget.
    """

    F: np.ndarray
    W: np.ndarray
    powers: np.ndarray
    formed: tuple = field(default=(None, None), repr=False)  # (H, F^T H), H read-only

    @property
    def M(self) -> int:
        return self.F.shape[0]

    @property
    def L(self) -> int:
        return self.F.shape[1]

    def effective(self, X: np.ndarray) -> np.ndarray:
        """F^T X: the channels X (M x n) as the L RF chains see them; for the H
        object of ``formed``, the product the build formed of it."""
        return self.formed[1] if X is self.formed[0] else self.F.T @ X


@dataclass(frozen=True)
class SwitchedBeamformerSet:
    """Switching network, digital matrix W (L x K), per-user powers: RF
    chain l is wired to antenna ``idx[l]``, a non-empty vector of pairwise
    distinct indices of the ``M`` antennas.  F is one-hot, so F^T X is the
    row gather X[idx]; the dense ``F`` is built only when asked for."""

    idx: np.ndarray
    M: int
    W: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "idx", _checked_selection(self.idx, self.M))

    @property
    def L(self) -> int:
        return self.idx.size

    @property
    def F(self) -> np.ndarray:
        """The dense M x L one-hot matrix of the network."""
        return analog_selection_matrix(self.idx, self.M)

    def effective(self, X: np.ndarray) -> np.ndarray:
        """F^T X, taken as the rows ``idx`` of X."""
        return X[self.idx]


# What build_beamformers returns and rate_report evaluates.
Beamformers = BeamformerSet | SwitchedBeamformerSet


def select_antennas_protocol1(H: np.ndarray) -> np.ndarray:
    """Assign each user its strongest still-free antenna, in user order.

    User 0 takes the antenna of largest gain |H[m, 0]|^2; each later user
    takes its largest-gain antenna among those not claimed by earlier users.
    Ties in gain go to the smaller antenna index.  This is the first free
    antenna of each user's best-first ranking, found as one masked argmax
    per user: O(MK) work, no sort.

    Returns a length-K index vector whose entry k is the antenna of user k.
    """
    H = np.asarray(H)
    M, K = H.shape
    if M < K:
        raise InfeasibleSelectionError(f"need M >= K antennas, got M={M}, K={K}")
    gains = np.ascontiguousarray(np.abs(H.T) ** 2)     # (K, M): one row per user
    chosen = np.empty(K, dtype=int)
    for k in range(K):
        # Gains are >= 0, so a taken antenna never wins; argmax returns the
        # first maximum, the smallest index among equal gains.
        gains[k, chosen[:k]] = -1.0
        chosen[k] = np.argmax(gains[k])
    return chosen


def _checked_selection(idx, M: int) -> np.ndarray:
    """``idx`` as an int vector, checked to be a non-empty vector of pairwise
    distinct antenna indices in [0, M)."""
    idx = np.asarray(idx, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise InfeasibleSelectionError("selection must be a non-empty index vector")
    if len(set(idx.tolist())) != idx.size:
        raise InfeasibleSelectionError("selected antenna indices must be distinct")
    if idx.min() < 0 or idx.max() >= M:
        raise MimosecError(f"antenna index out of range [0, {M})")
    return idx


def analog_selection_matrix(idx: np.ndarray, M: int) -> np.ndarray:
    """Dense switching-network analog matrix: column l is the basis vector
    of antenna ``idx[l]``.  ``idx`` is checked as ``SwitchedBeamformerSet``
    checks it.
    """
    idx = _checked_selection(idx, M)
    F = np.zeros((M, idx.size), dtype=complex)
    F[idx, np.arange(idx.size)] = 1.0
    return F


def digital_mrt_selected(H: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Single-tap matched filter per user over its assigned antenna.

    Column k of the returned K x K matrix has one unit-magnitude entry at
    row k whose phase conjugates H[idx[k], k], so the cascade with the
    selection matrix delivers |H[idx[k], k]| to user k.  ``idx`` is checked
    as ``SwitchedBeamformerSet`` checks it.
    """
    H = np.asarray(H)
    M, K = H.shape
    if len(idx) != K:
        raise MimosecError(f"selection size {len(idx)} != number of users {K}")
    idx = _checked_selection(idx, M)
    coeff = H[idx, np.arange(K)]
    if np.any(coeff == 0):
        raise DegenerateChannelError("zero channel coefficient on a selected antenna")
    W = np.zeros((K, K), dtype=complex)
    W[np.arange(K), np.arange(K)] = np.conj(coeff) / np.abs(coeff)
    return W


def mrt_effective(H_eff: np.ndarray) -> np.ndarray:
    """Maximum-ratio columns: conjugate of each effective channel, unit norm."""
    H_eff = np.asarray(H_eff)
    norms = np.linalg.norm(H_eff, axis=0)
    if np.any(norms == 0):
        raise DegenerateChannelError("zero effective channel column")
    return np.conj(H_eff) / norms


def analog_phase_match(H: np.ndarray) -> np.ndarray:
    """Phase-shifter analog matrix matched to the user channel phases.

    Entry (m, k) is conj(H[m, k]) / (sqrt(M) |H[m, k]|): constant modulus
    1/sqrt(M), column norms 1, and H[:, k]^T F[:, k] = ||H[:, k]||_1 / sqrt(M)
    real non-negative.
    """
    H = np.asarray(H)
    scale = np.abs(H)
    if not scale.all():
        raise DegenerateChannelError("zero channel entry; phase undefined")
    # numpy divides a complex array by a real one as this product with the
    # reciprocal, so the bits are those of the quotient, at a real divide's cost.
    np.divide(1.0, np.multiply(np.sqrt(H.shape[0]), scale, out=scale), out=scale)
    F = np.conj(H)
    return np.multiply(F, scale, out=F)


def quantize_phases(F: np.ndarray, bits: int) -> np.ndarray:
    """Round every entry's phase to the nearest point of the uniform
    2^bits grid {2*pi*n/2^bits}, keeping the modulus.

    Nearest is in wrapped angular distance, which on the unit circle is the
    least-squares choice.  ``bits`` is an integer in [1, MAX_QUANT_BITS].
    """
    bits = as_integer(bits, "bits", 1, MAX_QUANT_BITS)
    F = np.asarray(F)
    half = 1 << (bits - 1)
    step = np.pi / half
    n = np.arctan2(F.imag, F.real)         # np.angle(F)
    np.rint(np.divide(n, step, out=n), out=n)  # integers in [-half, half]
    if 2 * half + 1 < F.size:
        # Fewer grid points than entries: evaluate exp once per point, n at
        # table[n] (from the end if n < 0), and gather: the direct formula's bits.
        table = np.exp(1j * (np.concatenate((np.arange(half + 1), np.arange(-half, 0))) * step))
        out = table[n.astype(np.intp)]
        return np.multiply(out, np.abs(F), out=out)
    return np.abs(F) * np.exp(1j * (n * step))


def zf_effective(H_eff: np.ndarray) -> np.ndarray:
    """Zero-forcing columns over the effective channel, rescaled to unit norm.

    W0 = conj(H_eff) (H_eff^T conj(H_eff))^-1 satisfies H_eff^T W0 = I; the
    per-column rescale keeps the off-diagonal entries of H_eff^T W zero.
    Raises when the effective channel is ill-conditioned (condition number
    above ``ZF_CONDITION_LIMIT``), where the rescale would amplify noise
    past the interference tolerance, and when the Gram solve, whose matrix
    has the square of that condition number, finds it singular.
    """
    H_eff = np.asarray(H_eff)
    L, K = H_eff.shape
    if L < K:
        raise MimosecError(f"zero forcing needs L >= K, got L={L}, K={K}")
    try:
        s = np.linalg.svd(H_eff, compute_uv=False).tolist()
    except np.linalg.LinAlgError:
        raise MimosecError("effective channel is not finite; zero forcing is undefined") from None
    cond = s[0] / s[-1] if s[-1] > 0 else np.inf  # np.linalg.cond(H_eff)
    if not np.isfinite(cond) or cond > ZF_CONDITION_LIMIT:
        raise SingularChannelError(f"effective channel condition number {cond:.3e} "
                                   f"exceeds {ZF_CONDITION_LIMIT:.0e}")
    C = np.conj(H_eff)
    A = H_eff.T @ C  # K x K Gram
    try:
        W0 = np.linalg.solve(A.T, C.T).T
    except np.linalg.LinAlgError:
        raise SingularChannelError("the zero-forcing Gram solve found the Gram matrix "
                                   "singular") from None
    return W0 / np.linalg.norm(W0, axis=0)


def power_uniform(K: int, total_power: float) -> np.ndarray:
    """Equal share total_power / K for each of the K >= 1 users; the total
    is finite and >= 0."""
    K = as_integer(K, "K", 1)
    if not 0 <= total_power < np.inf:  # false for NaN too
        raise MimosecError(f"total power must be finite and >= 0, got {total_power}")
    return np.full(K, total_power / K)


# Overflow is caught by the finite check of each step's best, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def stepwise_tas(H: np.ndarray, L: int, cfg: SystemConfig) -> np.ndarray:
    """Greedy antenna selection maximizing the weighted no-eavesdropper
    sum-rate under MRT digital precoding and uniform power.

    Starting from the empty set, each of the L steps adds the antenna whose
    inclusion maximizes sum_k q_k log2(1 + SINR_k) evaluated on the enlarged
    candidate set; ties go to the smallest antenna index.  Every candidate
    of a step is scored at once from the K x K Gram matrix of the set so
    far, in O(MK^2) matrix products, so the search costs O(LMK^2) and holds
    only (K, M) arrays, one row per user.  Returns the selected indices in
    ascending order (MRT is order-invariant).
    """
    X = np.ascontiguousarray(np.transpose(H))
    K, M = X.shape
    if K != cfg.K:
        raise ConfigurationError(f"H has {K} user columns, cfg has K={cfg.K}", field="K")
    if not 1 <= as_integer(L, "L") <= M:
        raise InfeasibleSelectionError(f"need 1 <= L <= M, got L={L}, M={M}")
    P = power_uniform(K, cfg.total_power)[:, None]
    betas = cfg.betas[:, None]

    # With X = H^T, adding antenna a to the set S turns the Hermitian Gram
    # H_S^H H_S into gram + conj(X[:, a]) outer X[:, a].  Its diagonal is the
    # MRT signal power of each stream, and user k hears stream i with power
    # w[i, a] |gram[k, i] + X[k, a] conj(X[i, a])|^2, w[i, a] = P_i / c[i, a].
    # Expanding the square splits the sum over i into three (K, M) terms.
    conj_X = np.conj(X)
    abs2 = np.abs(X) ** 2
    gram = np.zeros((K, K), dtype=complex)
    chosen = []
    for _ in range(L):
        c = gram.diagonal().real[:, None] + abs2        # (K, M): ||h_eff_k||^2
        # A stream with no power yet contributes nothing: its Gram row and
        # its candidate entry are both exactly zero.
        w = np.divide(P, c, out=np.zeros_like(c), where=c > 0)
        received = np.abs(gram) ** 2 @ w + 2.0 * (X * (gram @ (w * conj_X))).real
        received += abs2 * (w * abs2).sum(axis=0)
        # The i = k term is the user's own signal.
        interference = np.maximum(received - P * c, 0.0)  # clip rounding residue
        utility = cfg.weights @ np.log2(1.0 + P * betas * c / (cfg.sigma2 + betas * interference))
        utility[chosen] = -np.inf
        # The first NaN if any, else the first max: the smallest index.
        best = int(np.argmax(utility))
        if not math.isfinite(utility[best]):
            raise MimosecError(f"the TAS_B search's utility is not finite ({utility[best]}): "
                               "the powers, gains and noise levels overflow double precision")
        chosen.append(best)
        gram += np.outer(conj_X[:, best], X[:, best])
    return np.sort(chosen)


def build_key(s, scheme: str, quant_bits: int | None) -> tuple:
    """What ``build_beamformers`` reads besides H: the scheme and the transmit
    side of the Network ``s``, a SystemConfig or a SweepSpec.  The transmitter has no
    eavesdropper CSI, so J, thetas and rho2 are not in it."""
    return (scheme, quant_bits, s.K, s.L, s.total_power, s.sigma2,
            tuple(s.betas), tuple(s.weights))


def shared_stages(s, scheme: str) -> tuple:
    """The keys of what ``build_beamformers`` makes from H on the way to a build
    of ``scheme`` and other builds may share: a hybrid's phase match, per K."""
    return (("phase match", s.K),) if scheme in HYBRID_SCHEMES else ()


def build_beamformers(H: np.ndarray, cfg: SystemConfig, scheme: str,
                      quant_bits: int | None = None, stage=None) -> Beamformers:
    """Construct the analog/digital pair of the given scheme from the user
    channels alone.

    TAS_A: per-user strongest-antenna selection with a single-tap matched
    filter per user.  TAS_B: greedy sum-rate antenna selection with MRT over
    the selected rows.  Both return a ``SwitchedBeamformerSet``.  HADP_A:
    phase matching in the analog stage, identity digital stage.  HADP_B:
    quantized phase matching followed by zero forcing over the effective
    channel.  Both return a ``BeamformerSet``, which keeps F^T H when H is
    read-only, as a trial's H is.  Each ``shared_stages`` product of H is
    ``stage(key, make)``, or ``make()`` when ``stage`` is None.  An H whose
    shape is not ``(cfg.M, cfg.K)`` raises ConfigurationError.
    """
    if np.shape(H) != (cfg.M, cfg.K):
        raise ConfigurationError(f"H has shape {np.shape(H)}, but cfg has (M, K) = "
                                 f"{(cfg.M, cfg.K)}")
    powers = power_uniform(cfg.K, cfg.total_power)
    if scheme == "TAS_A":
        idx = select_antennas_protocol1(H)
        return SwitchedBeamformerSet(idx, cfg.M, digital_mrt_selected(H, idx), powers)
    if scheme == "TAS_B":
        idx = stepwise_tas(H, cfg.L, cfg)
        return SwitchedBeamformerSet(idx, cfg.M, mrt_effective(H[idx]), powers)
    if scheme not in HYBRID_SCHEMES:
        raise ConfigurationError(f"unknown scheme '{scheme}'")
    if scheme == "HADP_B" and quant_bits is None:
        raise ConfigurationError("HADP_B requires quant_bits")
    (match,) = shared_stages(cfg, scheme)
    F = stage(match, lambda: analog_phase_match(H)) if stage else analog_phase_match(H)
    if scheme == "HADP_B":
        F = quantize_phases(F, quant_bits)
    H_eff = None if scheme == "HADP_A" and H.flags.writeable else F.T @ H
    return BeamformerSet(F, np.eye(cfg.K) if scheme == "HADP_A" else zf_effective(H_eff), powers,
                         formed=(None, None) if H.flags.writeable else (H, H_eff))

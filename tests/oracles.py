"""Independent reference implementations used to cross-check the package.

Everything here is written with explicit Python loops and scalar math on
purpose: these oracles share no code path with the vectorized
implementations they verify.
"""

import math
from fractions import Fraction

import numpy as np


def link_gain(h_col, F, w_col) -> complex:
    """h^T F w with explicit summation."""
    M, L = F.shape
    total = 0.0 + 0.0j
    for m in range(M):
        for ell in range(L):
            total += h_col[m] * F[m, ell] * w_col[ell]
    return total


def sinr(k, H, F, W, powers, betas, sigma2) -> float:
    K = H.shape[1]
    signal = abs(link_gain(H[:, k], F, W[:, k])) ** 2
    interference = 0.0
    for i in range(K):
        if i != k:
            interference += powers[i] * abs(link_gain(H[:, k], F, W[:, i])) ** 2
    return powers[k] * betas[k] * signal / (sigma2 + betas[k] * interference)


def esnr(k, G, F, W, powers, thetas, rho2) -> float:
    J = G.shape[1]
    overheard = 0.0
    for j in range(J):
        overheard += thetas[j] * abs(link_gain(G[:, j], F, W[:, k])) ** 2
    return powers[k] * overheard / rho2


def report(H, G, F, W, powers, betas, thetas, weights, sigma2, rho2) -> dict:
    """Scalar-loop version of the full rate report."""
    K = H.shape[1]
    out = {"sinr": [], "esnr": [], "r_secrecy": [], "r_noeve": []}
    for k in range(K):
        s = sinr(k, H, F, W, powers, betas, sigma2)
        e = esnr(k, G, F, W, powers, thetas, rho2)
        rn = math.log2(1.0 + s)
        rs = max(0.0, math.log2((1.0 + s) / (1.0 + e)))
        out["sinr"].append(s)
        out["esnr"].append(e)
        out["r_noeve"].append(rn)
        out["r_secrecy"].append(rs)
    out["r_sum"] = sum(w * r for w, r in zip(weights, out["r_secrecy"]))
    out["r_sum_noeve"] = sum(w * r for w, r in zip(weights, out["r_noeve"]))
    out["leakage"] = out["r_sum_noeve"] - out["r_sum"]
    if out["r_sum_noeve"] != 0.0:
        out["cost"] = 1.0 - out["r_sum"] / out["r_sum_noeve"]
    else:
        out["cost"] = 0.0
    return out


def protocol1_assignment(H) -> list:
    """Sequential rank-fallback rule on freshly sorted per-user gain lists."""
    M, K = H.shape
    assigned = []
    for k in range(K):
        gains = [abs(H[m, k]) ** 2 for m in range(M)]
        ranked = sorted(range(M), key=lambda m: (-gains[m], m))
        for antenna in ranked:
            if antenna not in assigned:
                assigned.append(antenna)
                break
    return assigned


def greedy_tas(H, L, powers, betas, weights, sigma2) -> list:
    """Forward antenna selection scored by the weighted no-eavesdropper
    sum-rate under MRT, re-evaluated candidate by candidate."""
    M, K = H.shape
    selected = []

    def mrt_rate(antennas) -> float:
        H_eff = H[antennas, :]
        W = np.zeros((len(antennas), K), dtype=complex)
        for k in range(K):
            col = np.conj(H_eff[:, k])
            W[:, k] = col / np.linalg.norm(col)
        F = np.zeros((M, len(antennas)), dtype=complex)
        for ell, a in enumerate(antennas):
            F[a, ell] = 1.0
        total = 0.0
        for k in range(K):
            total += weights[k] * math.log2(1.0 + sinr(k, H, F, W, powers,
                                                       betas, sigma2))
        return total

    for _ in range(L):
        best_antenna, best_score = None, -math.inf
        for a in range(M):
            if a in selected:
                continue
            score = mrt_rate(selected + [a])
            if score > best_score:  # strict: ties keep the smaller index
                best_antenna, best_score = a, score
        selected.append(best_antenna)
    return sorted(selected)


def harmonic_number(n: int) -> float:
    """Expected maximum of n i.i.d. unit-mean exponentials."""
    return float(sum(1.0 / i for i in range(1, n + 1)))


def ratio_cost_se(r_sum, r_noeve) -> float:
    """Standard error of the ratio-of-means cost 1 - mean(r_sum) /
    mean(r_noeve) by the delta method: the two means' sample covariances
    cov_xx / ym^2 - 2 xm cov_xy / ym^3 + xm^2 cov_yy / ym^4, over n.  The sums
    run in exact rationals, so the three terms cancel exactly where r_sum
    is proportional to r_noeve; 0 for one trial or a zero mean r_noeve."""
    n = len(r_sum)
    x = [Fraction(float(v)) for v in r_sum]
    y = [Fraction(float(v)) for v in r_noeve]
    xm, ym = sum(x) / n, sum(y) / n
    if n < 2 or ym == 0:
        return 0.0
    cov_xx = cov_xy = cov_yy = Fraction(0)
    for xi, yi in zip(x, y):
        cov_xx += (xi - xm) ** 2
        cov_xy += (xi - xm) * (yi - ym)
        cov_yy += (yi - ym) ** 2
    cov_xx, cov_xy, cov_yy = (c / (n - 1) for c in (cov_xx, cov_xy, cov_yy))
    var = (cov_xx / ym ** 2 - 2 * xm * cov_xy / ym ** 3 + xm ** 2 * cov_yy / ym ** 4) / n
    return math.sqrt(var)


# The hybrid kernels as the one-line formulas they replaced.  These are
# vectorized, not loops: the kernels now work in place and must give these
# formulas' bits, and raise exactly where they raised.

def phase_match_formula(H):
    """conj(H) / (sqrt(M) |H|), written as numpy evaluates that quotient;
    None where an entry is exactly zero and the phase is undefined."""
    if np.any(H == 0):
        return None
    return np.conj(H) * (1.0 / (np.sqrt(H.shape[0]) * np.abs(H)))


def quantizer_formula(F, bits):
    """Nearest point of the 2^bits phase grid: a table of the grid gathered
    by index when there are fewer points than entries, else one exp per
    entry."""
    half = 1 << (bits - 1)
    step = np.pi / half
    n = np.round(np.angle(F) / step)
    if 2 * half + 1 < F.size:
        table = np.exp(1j * (np.arange(-half, half + 1) * step))
        return np.abs(F) * table[n.astype(np.intp) + half]
    return np.abs(F) * np.exp(1j * (n * step))


def zf_well_conditioned(H_eff, limit) -> bool:
    """Whether zero forcing over H_eff passes its condition-number check."""
    cond = np.linalg.cond(H_eff)
    return bool(np.isfinite(cond) and cond <= limit)

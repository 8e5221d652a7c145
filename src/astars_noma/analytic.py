"""Closed-form finite-SNR evaluators: outage probabilities, ergodic rates,
and both throughput modes for the two-sided amplifying-surface NOMA link.

Every evaluator composes three ingredients:

* the Gamma moment-matched CDF of the squared phase-aligned cascade gain,
* a Gauss-Chebyshev rule over the user-distance disk (substitution
  chi_u = (x_u + 1) D / 2, Jacobian folded into the weight
  pi (x_u + 1) sqrt(1 - x_u^2) / (2U), renormalized to unit mass so
  probability outputs respect [0, 1] at machine precision),
* for imperfect-SIC quantities, a Gauss-Laguerre rule over the exponential
  residual-interference power.

The reflection user's ergodic rate is one contraction for both SIC modes
(pSIC is the one-node residual axis y = 0): the amplitude and residual
axes are pruned of nodes below 1e-30 of their rule's mass, and the
log-sum is taken chunk by chunk in one reused buffer and contracted with
two BLAS matrix-vector products (see _triple_log_sum).

Probabilities are never clamped: a value outside [0, 1] beyond 1e-9 raises
NumericIntegrityError, which is how formula-transcription bugs surface.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, gamma_fit, noise_power_factor
from .numerics import gauss_chebyshev_nodes, gauss_laguerre_rule, reg_lower_gamma

__all__ = [
    "MetricPoint",
    "NumericIntegrityError",
    "SicMode",
    "ergodic_rate_r",
    "ergodic_rate_t",
    "outage_r",
    "outage_t",
    "system_outage",
    "target_sinr",
    "throughput_delay_limited",
    "throughput_delay_tolerant",
]

_PROB_TOL = 1.0e-9


class NumericIntegrityError(ArithmeticError):
    """A computed metric violates a structural bound; fail loudly."""


class SicMode(enum.Enum):
    """Perfect or imperfect successive interference cancellation."""

    PSIC = "pSIC"
    IPSIC = "ipSIC"

    @property
    def epsilon(self) -> float:
        """Residual-interference switch: 0 for pSIC, 1 for ipSIC."""
        return 0.0 if self is SicMode.PSIC else 1.0


_METRIC_KINDS = frozenset({
    "outage_r", "outage_t", "outage_system", "rate_r", "rate_t", "throughput",
})


@dataclass(frozen=True)
class MetricPoint:
    """One evaluated metric at one transmit power."""

    ps_watts: float
    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in _METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind.startswith("outage") and not -_PROB_TOL <= self.value <= 1.0 + _PROB_TOL:
            raise NumericIntegrityError(
                f"{self.kind} at ps={self.ps_watts} outside [0,1]: {self.value}")


def target_sinr(rate: float) -> float:
    """Decoding threshold 2^rate - 1 for a target of `rate` BPCU."""
    return 2.0 ** rate - 1.0


def _check_probability(value: float, label: str) -> float:
    if not -_PROB_TOL <= value <= 1.0 + _PROB_TOL:
        raise NumericIntegrityError(f"{label} escaped [0,1]: {value}")
    return value


def _distance_rule(cfg: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distance nodes chi_u = (x_u+1)D/2 and unit-mass weights for averaging
    over the disk law 2x/D^2."""
    rule = gauss_chebyshev_nodes(cfg.quad_u)
    x = rule.nodes
    weights = rule.weights * (x + 1.0) * np.sqrt(1.0 - x * x) / 2.0
    weights = weights / weights.sum()
    chi = (x + 1.0) * cfg.radius_d / 2.0
    return chi, weights


def _reflection_brackets(cfg: NetworkConfig, chi: np.ndarray) -> tuple[float, np.ndarray]:
    """Common noise bracket pieces on the reflection side: the mean
    amplified-noise term zeta sigma_s^2/eta0 and the per-distance static
    noise chi^alpha sigma_0^2/(eta0^2 beta_r lambda)."""
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    base = zeta * cfg.noise_sigma_s2 / cfg.path_eta0
    static = chi ** cfg.path_alpha * cfg.noise_sigma_02 / (
        cfg.path_eta0 ** 2 * cfg.beta_r * cfg.amp_lambda)
    return base, static


def outage_r(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Outage probability of the reflection-side (SIC) user.

    Degenerate allocation a_t <= gamma_t_hat * a_r makes the interference
    ceiling unreachable and the outage is surely 1.  Otherwise the outage
    is the disk average (Gauss-Chebyshev) of the cascade CDF at the decode
    threshold; under ipSIC the exponential residual-interference power is
    integrated out with a Gauss-Laguerre rule.
    """
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    gamma_r_hat = target_sinr(cfg.target_rate_r)
    gamma_t_hat = target_sinr(cfg.target_rate_t)
    if cfg.a_t <= gamma_t_hat * cfg.a_r:
        return 1.0
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    base, static = _reflection_brackets(cfg, chi)
    scale = gamma_r_hat * cfg.dist_bs ** cfg.path_alpha / (cfg.a_r * ps)
    if mode is SicMode.PSIC:
        args = np.sqrt(scale * (base + static)) / approx.q
        value = float(w @ reg_lower_gamma(approx.p, args))
    else:
        lag = gauss_laguerre_rule(cfg.quad_k)
        residual = (chi[None, :] ** cfg.path_alpha / cfg.path_eta0 ** 2
                    * lag.nodes[:, None] * ps * cfg.noise_sigma_re2
                    / (cfg.beta_r * cfg.amp_lambda))
        args = np.sqrt(scale * (base + static[None, :] + residual)) / approx.q
        value = float(lag.weights @ reg_lower_gamma(approx.p, args) @ w)
    return _check_probability(value, f"outage_r[{mode.value}]")


def outage_t(cfg: NetworkConfig, ps: float) -> float:
    """Outage probability of the transmission-side user.

    Same degenerate branch as the reflection user; otherwise a single
    Gauss-Chebyshev disk average with the interference-limited threshold
    gamma_t_hat/(a_t - gamma_t_hat a_r) and the transmission amplitude
    coefficient beta_t.
    """
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    gamma_t_hat = target_sinr(cfg.target_rate_t)
    if cfg.a_t <= gamma_t_hat * cfg.a_r:
        return 1.0
    partial = gamma_t_hat / (cfg.a_t - gamma_t_hat * cfg.a_r)
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    bracket = (chi ** cfg.path_alpha * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)
    args = np.sqrt(partial * cfg.dist_bs ** cfg.path_alpha / ps * bracket) / approx.q
    value = float(w @ reg_lower_gamma(approx.p, args))
    return _check_probability(value, "outage_t")


def system_outage(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Probability that at least one user is in outage, composed as
    1 - (1 - P_r)(1 - P_t) from the per-user evaluators."""
    p_r = outage_r(cfg, mode, ps)
    p_t = outage_t(cfg, ps)
    return _check_probability(1.0 - (1.0 - p_r) * (1.0 - p_t), "outage_system")


# Rate-sum nodes whose weight is below this fraction of their rule's mass
# are dropped (see _triple_log_sum for the bound on what they carry).
_PRUNE_REL = 1.0e-30
# The Gamma-weighted amplitude rule must give the Gamma(p) density unit mass
# within this.  A rule whose usable nodes stop short of the density's bulk
# fails it: Laguerre weights underflow beyond t ~ 745 at any rule size,
# while a strong line-of-sight fit (kappa = 20 dB, L = 10) has p ~ 1005.
_GAMMA_MASS_TOL = 1.0e-3
# Elements of the log-sum work buffer (512 KiB, cache-sized); a chunk holds
# at least one amplitude row whatever its size.
_CHUNK_ELEMS = 1 << 16


def _amplitude_rule(cfg: NetworkConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Gamma-fit scale q, amplitude nodes t and their weights: Laguerre
    weights folded with the Gamma(p) density factor t^{p-1}/Gamma(p).

    The weights are formed in log space so large shapes cannot overflow;
    rule weights at the subnormal floor carry no value and are left out.
    A non-finite mass, or one off 1 by more than _GAMMA_MASS_TOL, means
    the rule cannot resolve the density and raises NumericIntegrityError.
    Nodes below _PRUNE_REL of the mass are dropped.
    """
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    rule = gauss_laguerre_rule(cfg.quad_q)
    resolved = rule.weights > np.finfo(float).smallest_subnormal
    t = rule.nodes[resolved]
    with np.errstate(over="ignore"):
        weights = np.exp(np.log(rule.weights[resolved])
                         + ((approx.p - 1.0) * np.log(t) - math.lgamma(approx.p)))
    mass = float(weights.sum())
    if not abs(mass - 1.0) <= _GAMMA_MASS_TOL:
        raise NumericIntegrityError(
            f"{cfg.quad_q}-node amplitude rule gives the Gamma(p={approx.p:.6g}) "
            f"density mass {mass}, not 1 within {_GAMMA_MASS_TOL:g}")
    keep = weights > _PRUNE_REL * mass
    return approx.q, t[keep], weights[keep]


def _residual_rule(cfg: NetworkConfig, mode: SicMode) -> tuple[np.ndarray, np.ndarray]:
    """Residual-interference power nodes and weights: the Gauss-Laguerre
    rule pruned below _PRUNE_REL of its mass under ipSIC, and the one node
    y = 0 of weight 1 under pSIC."""
    if mode is SicMode.PSIC:
        return np.zeros(1), np.ones(1)
    rule = gauss_laguerre_rule(cfg.quad_k)
    keep = rule.weights > _PRUNE_REL * rule.weights.sum()
    return rule.nodes[keep], rule.weights[keep]


def _triple_log_sum(gamma_w: np.ndarray, t_nodes: np.ndarray,
                    k_weights: np.ndarray, dist_w: np.ndarray,
                    snr_scale: np.ndarray) -> float:
    """sum_{q,k,u} gamma_w[q] k_w[k] dist_w[u] log2(1 + scale[k,u] t[q]^2).

    The amplitude and residual axes arrive pruned of nodes below _PRUNE_REL
    of their rule's mass.  What that drops is below rounding: the
    integrand falls as the residual power y_k grows, so a dropped residual
    node carries at most its weight's share of the sum; and since
    log1p(a x) <= a log1p(x) for a >= 1, a dropped amplitude node adds at
    most _PRUNE_REL t_max^2 log1p(scale) per unit of rule mass.

    Rows of amplitude nodes are taken in chunks of about _CHUNK_ELEMS
    elements: each chunk fills one reused buffer with scale t^2, takes
    log1p in place, and is contracted against the flattened k_w (x) dist_w
    by one BLAS matrix-vector product; the row sums then meet gamma_w in a
    second.  Memory stays bounded for any amplitude rule size.
    """
    kw = np.outer(k_weights, dist_w).ravel()
    scale = snr_scale.ravel()
    rows = max(1, _CHUNK_ELEMS // scale.size)
    buf = np.empty((min(rows, t_nodes.size), scale.size))
    t2 = t_nodes ** 2
    row_sums = np.empty(t_nodes.size)
    for start in range(0, t_nodes.size, rows):
        stop = min(start + rows, t_nodes.size)
        block = buf[:stop - start]
        np.multiply(t2[start:stop, None], scale[None, :], out=block)
        np.log1p(block, out=block)
        np.dot(block, kw, out=row_sums[start:stop])
    return float(gamma_w @ row_sums) / math.log(2.0)


def ergodic_rate_r(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Ergodic rate of the reflection-side user after SIC, in BPCU.

    Substituting t = S/q (the Gamma-distributed cascade amplitude) turns
    the rate expectation into a Laguerre sum over t, a disk average over
    the user distance, and a Laguerre sum over the residual-interference
    power, which under pSIC is the one node y = 0.
    """
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    q, t, gamma_w = _amplitude_rule(cfg)
    y, k_w = _residual_rule(cfg, mode)
    chi, w = _distance_rule(cfg)
    base, static = _reflection_brackets(cfg, chi)
    residual = (chi[None, :] ** cfg.path_alpha / cfg.path_eta0 ** 2
                * y[:, None] * ps * cfg.noise_sigma_re2
                / (cfg.beta_r * cfg.amp_lambda))
    # SNR = (q t)^2 * a_r ps / (d_s^alpha * bracket(d, y))
    snr_scale = cfg.a_r * ps * q ** 2 / (
        cfg.dist_bs ** cfg.path_alpha * (base + static[None, :] + residual))  # (K, U)
    value = _triple_log_sum(gamma_w, t, k_w, w, snr_scale)
    if value < 0.0:
        raise NumericIntegrityError(f"rate_r[{mode.value}] negative: {value}")
    return value


def rate_ceiling_t(cfg: NetworkConfig) -> float:
    """Interference-limited rate ceiling log2(1 + a_t/a_r) of the
    transmission-side user."""
    return math.log2(1.0 + cfg.a_t / cfg.a_r)


def ergodic_rate_t(cfg: NetworkConfig, ps: float) -> float:
    """Ergodic rate of the transmission-side user, in BPCU.

    The exceedance form int_0^{a_t/a_r} (1 - F(x)) / ((1+x) ln 2) dx is
    evaluated with an outer Chebyshev rule over the SINR interval (its
    weights pinned to the exactly known F = 0 integral, the rate ceiling)
    and the inner disk average of the cascade CDF.  The result is capped
    by the ceiling structurally.
    """
    if ps <= 0.0:
        raise ValueError(f"transmit power must be positive, got {ps}")
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    outer = gauss_chebyshev_nodes(cfg.cheb_n)
    y = (outer.nodes + 1.0) * cfg.a_t / (2.0 * cfg.a_r)
    coeff = (cfg.a_t / (2.0 * cfg.a_r * math.log(2.0))
             * outer.weights * np.sqrt(1.0 - outer.nodes ** 2) / (1.0 + y))
    ceiling = rate_ceiling_t(cfg)
    coeff = coeff * (ceiling / coeff.sum())
    bracket = (chi ** cfg.path_alpha * cfg.noise_sigma_02
               / (cfg.path_eta0 ** 2 * cfg.beta_t * cfg.amp_lambda)
               + zeta * cfg.noise_sigma_s2 / cfg.path_eta0)
    args = np.sqrt(
        y[:, None] * cfg.dist_bs ** cfg.path_alpha
        / (ps * (cfg.a_t - y[:, None] * cfg.a_r)) * bracket[None, :]) / approx.q
    exceed = 1.0 - reg_lower_gamma(approx.p, args) @ w
    value = float(coeff @ exceed)
    if value < -1.0e-12:
        raise NumericIntegrityError(f"rate_t negative: {value}")
    if value > ceiling + 1.0e-6:
        raise NumericIntegrityError(
            f"rate_t {value} above its ceiling {ceiling}")
    return value


def throughput_delay_limited(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Delay-limited system throughput (1-P_r) R_r + (1-P_t) R_t."""
    return ((1.0 - outage_r(cfg, mode, ps)) * cfg.target_rate_r
            + (1.0 - outage_t(cfg, ps)) * cfg.target_rate_t)


def throughput_delay_tolerant(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Delay-tolerant system throughput: sum of the two ergodic rates."""
    return ergodic_rate_r(cfg, mode, ps) + ergodic_rate_t(cfg, ps)

"""Closed-form finite-SNR evaluators: outage probabilities, ergodic rates,
and both throughput modes for the two-sided amplifying-surface NOMA link.

Decoding is read from the simulator's stage table (``model.decode_stages``).
Every evaluator composes three ingredients:

* the Gamma moment-matched law of the phase-aligned cascade amplitude
  (its CDF for outages, a generalized Gauss-Laguerre rule built for the
  Gamma density for rates),
* a Gauss-Jacobi (0, 1) rule over the user-distance disk in v = d/D,
  whose density under the disk law is 2v on [0, 1],
* for the imperfect-SIC outage, a Gauss-Laguerre rule over the exponential
  residual-interference power.

Both users' ergodic rates are grids over the amplitude and distance rules
contracted by two BLAS matrix-vector products (see _rate_sum); under ipSIC
the residual power is integrated out exactly through e^x E1(x).  The
amplitude and residual rules are pruned of nodes below 1e-30 of their mass.

Probabilities are never clamped: a value outside [0, 1] beyond 1e-9 raises
NumericIntegrityError, which is how formula-transcription bugs surface.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .model import (NetworkConfig, cascade_cdf, decode_stages, gamma_fit, noise_power_factor,
                    stage_gains, target_sinr)
from .numerics import (NumericIntegrityError, QuadratureRule, exp_e1,
                       gauss_jacobi_rule, gauss_laguerre_rule)

__all__ = [
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
_PRUNE_REL = 1.0e-30


class SicMode(enum.Enum):
    """Perfect or imperfect successive interference cancellation."""

    PSIC = "pSIC"
    IPSIC = "ipSIC"


def _check_power(ps: float) -> None:
    # NaN compares false both ways, so test finiteness explicitly
    if not (math.isfinite(ps) and ps > 0.0):
        raise ValueError(f"transmit power must be positive and finite, got {ps}")


def _check_probability(value: float, label: str) -> float:
    if not -_PROB_TOL <= value <= 1.0 + _PROB_TOL:
        raise NumericIntegrityError(f"{label} escaped [0,1]: {value}")
    return value


def _distance_rule(cfg: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Distance nodes chi and weights for averaging over the disk law
    2x/D^2: the Gauss-Jacobi rule for the density 2v of v = x/D, so
    chi = D v and the weights are the rule's."""
    rule = gauss_jacobi_rule(cfg.quad_u)
    return cfg.radius_d * rule.nodes, rule.weights


def _pruned(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a rule without those below _PRUNE_REL of its
    mass: a dropped node moves a probability by less than that."""
    keep = rule.weights > _PRUNE_REL * rule.weights.sum()
    return rule.nodes[keep], rule.weights[keep]


def _noise_bracket(cfg: NetworkConfig, chi: np.ndarray, beta: float) -> np.ndarray:
    """Noise bracket of the user with amplitude share beta at distances chi:
    the mean amplified surface noise zeta sigma_s^2/eta0 plus the receiver
    noise chi^alpha sigma_0^2/(eta0^2 beta lambda).  A user's SNR is
    (q t)^2 ps / (d_s^alpha bracket)."""
    zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
    return (zeta * cfg.noise_sigma_s2 / cfg.path_eta0
            + chi ** cfg.path_alpha * cfg.noise_sigma_02
            / (cfg.path_eta0 ** 2 * beta * cfg.amp_lambda))


def _residual_term(cfg: NetworkConfig, chi: np.ndarray, beta: float, y=1.0) -> np.ndarray:
    """Residual-interference addition to the bracket of the user with share
    beta per unit transmit power, at distances chi and residual powers y
    (broadcast against each other): chi^alpha y sigma_re^2/(eta0^2 beta lambda)."""
    return (chi ** cfg.path_alpha * y * cfg.noise_sigma_re2
            / (cfg.path_eta0 ** 2 * beta * cfg.amp_lambda))


def _user_stages(cfg: NetworkConfig, mode: SicMode | None) -> list[tuple]:
    """The NOMA decoding stages (``model.decode_stages``) of the reflection
    user under mode, or of the transmission user for mode None."""
    stages_t, stages_r = decode_stages(cfg, "astars_noma")
    return stages_t if mode is None else stages_r["_" + mode.name.lower()]


def _decode_scales(cfg: NetworkConfig, stages: list[tuple], ps: float) -> list[float]:
    """Thresholds on the squared cascade amplitude per unit noise bracket,
    d_s^alpha/(k ps), for the gains k of ``model.stage_gains``, in its
    order; inf where k <= 0, a stage that always fails."""
    _check_power(ps)
    return [cfg.dist_bs ** cfg.path_alpha / (k * ps) if k > 0.0 else math.inf
            for k in stage_gains(stages)]


def _user_outage(cfg: NetworkConfig, stages: list[tuple], beta: float, ps: float) -> float:
    """Outage probability of the user with decoding stages `stages` and
    amplitude share beta: the disk average of the cascade CDF at its largest
    stage threshold, a decode scale times its noise bracket, to which an
    ipSIC stage adds the residual interference."""
    scales = _decode_scales(cfg, stages, ps)
    if math.isinf(max(scales)):
        return 1.0
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    chi, w = _distance_rule(cfg)
    bracket = _noise_bracket(cfg, chi, beta)
    thresholds = scales[0] * bracket
    if len(scales) == 1:
        return float(w @ cascade_cdf(approx, thresholds))
    y, y_w = _pruned(gauss_laguerre_rule(cfg.quad_k))
    residual = _residual_term(cfg, chi[None, :], beta, y[:, None]) * ps
    for scale in scales[1:]:
        thresholds = np.maximum(thresholds, scale * (bracket + residual))
    return float(y_w @ cascade_cdf(approx, thresholds) @ w)


def outage_r(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Outage probability of the reflection-side (SIC) user: some SIC stage
    fails, decoding the transmission user's signal or then its own."""
    value = _user_outage(cfg, _user_stages(cfg, mode), cfg.beta_r, ps)
    return _check_probability(value, f"outage_r[{mode.value}]")


def outage_t(cfg: NetworkConfig, ps: float) -> float:
    """Outage probability of the transmission-side user."""
    value = _user_outage(cfg, _user_stages(cfg, None), cfg.beta_t, ps)
    return _check_probability(value, "outage_t")


def system_outage(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Probability that at least one user is in outage, composed as
    1 - (1 - P_r)(1 - P_t) from the per-user evaluators."""
    p_r = outage_r(cfg, mode, ps)
    p_t = outage_t(cfg, ps)
    return _check_probability(1.0 - (1.0 - p_r) * (1.0 - p_t), "outage_system")


def _amplitude_rule(cfg: NetworkConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Gamma-fit scale q, amplitude nodes t and their weights: the
    generalized Gauss-Laguerre rule for the Gamma(p) density of the
    cascade amplitude S = q t, pruned below _PRUNE_REL of its mass.  Since
    log1p(a x) <= a log1p(x) for a >= 1, a dropped node adds at most
    _PRUNE_REL t_max^2 log1p(snr) per unit of rule mass to a rate: below
    rounding.  A rule with non-finite weights raises NumericIntegrityError."""
    approx = gamma_fit(cfg.rician_kappa, cfg.num_elements)
    rule = gauss_laguerre_rule(cfg.quad_q, approx.p - 1.0)
    if not np.all(np.isfinite(rule.weights)):
        raise NumericIntegrityError(
            f"{cfg.quad_q}-node amplitude rule for the Gamma(p={approx.p:.6g}) "
            f"density has non-finite weights")
    return (approx.q, *_pruned(rule))


def _rate_sum(gamma_w: np.ndarray, nats: np.ndarray, dist_w: np.ndarray) -> float:
    """Amplitude (rows) by distance (columns) average of nats, in bits."""
    return float(gamma_w @ (nats @ dist_w)) / math.log(2.0)


def _user_rate(cfg: NetworkConfig, stage: tuple, beta: float, ps: float) -> float:
    """Ergodic rate in BPCU of the user with amplitude share beta whose last
    decoding stage is stage (A, B, gamma_hat, ipsic).  With the SNR
    g = (q t)^2 ps/(d_s^alpha bracket) the SINR is A g/(B g + 1), so the
    rate is log2(1 + (A + B) g) - log2(1 + B g).  On the ipSIC stage, which
    has B = 0, the residual power Y ~ Exp(1) adds C Y to the bracket, and
    with e(x) = e^x E1(x) it integrates out exactly:
    E ln(1 + A g/(1 + C Y/bracket)) = ln(1 + A g) + e(x0 (1 + A g)) - e(x0),
    x0 = bracket/C."""
    _check_power(ps)
    a, b, _, ipsic = stage
    q, t, gamma_w = _amplitude_rule(cfg)
    chi, w = _distance_rule(cfg)
    bracket = _noise_bracket(cfg, chi, beta)
    g1 = ps * q ** 2 / (cfg.dist_bs ** cfg.path_alpha * bracket)  # g at t = 1
    t2 = t ** 2
    snr = np.outer(t2, (a + b) * g1)
    nats = np.log1p(snr)
    if ipsic:
        x0 = bracket / (_residual_term(cfg, chi, beta) * ps)
        nats += exp_e1(x0 * (1.0 + snr)) - exp_e1(x0)
    value = _rate_sum(gamma_w, nats, w)
    if b:
        value -= _rate_sum(gamma_w, np.log1p(np.outer(t2, b * g1)), w)
    return value


def ergodic_rate_r(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Ergodic rate of the reflection-side user after SIC, in BPCU."""
    value = _user_rate(cfg, _user_stages(cfg, mode)[-1], cfg.beta_r, ps)
    if value < 0.0:
        raise NumericIntegrityError(f"rate_r[{mode.value}] negative: {value}")
    return value


def rate_ceiling_t(cfg: NetworkConfig) -> float:
    """Interference-limited rate ceiling log2(1 + a_t/a_r) of the
    transmission-side user."""
    return math.log2(1.0 + cfg.a_t / cfg.a_r)


def ergodic_rate_t(cfg: NetworkConfig, ps: float) -> float:
    """Ergodic rate of the transmission-side user, in BPCU; it must stay
    below the ceiling log2(1 + a_t/a_r)."""
    value = _user_rate(cfg, _user_stages(cfg, None)[-1], cfg.beta_t, ps)
    if value < -1.0e-12:
        raise NumericIntegrityError(f"rate_t negative: {value}")
    ceiling = rate_ceiling_t(cfg)
    if value > ceiling + 1.0e-6:
        raise NumericIntegrityError(f"rate_t {value} above its ceiling {ceiling}")
    return value


def throughput_delay_limited(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Delay-limited system throughput (1-P_r) R_r + (1-P_t) R_t."""
    return ((1.0 - outage_r(cfg, mode, ps)) * cfg.target_rate_r
            + (1.0 - outage_t(cfg, ps)) * cfg.target_rate_t)


def throughput_delay_tolerant(cfg: NetworkConfig, mode: SicMode, ps: float) -> float:
    """Delay-tolerant system throughput: sum of the two ergodic rates."""
    return ergodic_rate_r(cfg, mode, ps) + ergodic_rate_t(cfg, ps)

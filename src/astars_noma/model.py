"""Network configuration, cascade-channel statistics, and user geometry.

The configuration carries every physical and numerical parameter in linear
units; dB/dBm keys are converted exactly once, at parse time, by the CLI.
The channel statistics approximate the squared phase-aligned cascade gain
X = (sum_l |h_s^l h_phi^l|)^2 of L independent double-Rician products by a
moment-matched Gamma-type law, and the amplified thermal noise by its mean
power; both approximations are quantified by the Monte Carlo suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .numerics import _bessel_i01e, laguerre_half, reg_lower_gamma

__all__ = [
    "ConfigError",
    "GammaApprox",
    "MAX_ELEMENTS",
    "NetworkConfig",
    "cascade_cdf",
    "db_to_linear",
    "dbm_to_watts",
    "decode_stages",
    "distance_pdf",
    "element_moments",
    "envelope_moments",
    "gamma_fit",
    "noise_power_factor",
    "sample_distance",
    "stage_gains",
    "target_sinr",
    "watts_to_dbm",
]


class ConfigError(ValueError):
    """A configuration value violates a model invariant."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


# Upper bound on the surface element count L.  The simulator draws and
# reduces every element row of every block, about 2 ms per element per
# 8192-trial block on one x86 core, so a 10^5-trial point (13 blocks) takes
# about 25 s at L = 1000; the bound keeps a typo from asking for hours.
MAX_ELEMENTS = 1000


@dataclass(frozen=True)
class NetworkConfig:
    """All physical and numerical knobs, in linear units.

    Defaults are the reference operating point: kappa = -5 dB, lambda = 5,
    L = 10 elements, disk radius 35 m, BS at 50 m, beta_r/beta_t = 0.7/0.3,
    a_r/a_t = 0.3/0.7, sigma_s^2 = -70 dBm, sigma_0^2 = sigma_re^2 =
    -90 dBm, alpha = 2, eta_0 = -30 dB, both target rates 1 BPCU, and
    per-element circuit/bias draws of -20 dBm each.
    """

    rician_kappa: float = 10.0 ** -0.5
    amp_lambda: float = 5.0
    num_elements: int = 10
    radius_d: float = 35.0
    dist_bs: float = 50.0
    beta_r: float = 0.7
    beta_t: float = 0.3
    a_r: float = 0.3
    a_t: float = 0.7
    noise_sigma_s2: float = dbm_to_watts(-70.0)
    noise_sigma_02: float = dbm_to_watts(-90.0)
    noise_sigma_re2: float = dbm_to_watts(-90.0)
    path_alpha: float = 2.0
    path_eta0: float = db_to_linear(-30.0)
    target_rate_r: float = 1.0
    target_rate_t: float = 1.0
    quad_k: int = 200
    quad_u: int = 64
    quad_q: int = 200
    mc_trials: int = 100_000
    seed: int = 123456789
    pc_watts: float = dbm_to_watts(-20.0)
    pd_watts: float = dbm_to_watts(-20.0)
    hyp2f1_z_cap: float = 1.0 - 1.0e-3
    mean_noise_mode: bool = False

    def __post_init__(self):
        def fail(constraint: str):
            raise ConfigError(constraint + " violated")

        # NaN passes every comparison below, so finiteness comes first
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                fail(f"{f.name} finite")
        if self.rician_kappa < 0.0:
            fail("kappa >= 0")
        if self.amp_lambda <= 1.0:
            fail("lambda > 1")
        if not 1 <= self.num_elements <= MAX_ELEMENTS:
            fail(f"num_elements in [1, {MAX_ELEMENTS}]")
        if self.radius_d <= 0.0:
            fail("radius_d > 0")
        if self.dist_bs <= 0.0:
            fail("dist_bs > 0")
        if not (self.beta_r > 0.0 and self.beta_t > 0.0):
            fail("beta_r, beta_t > 0")
        if self.beta_r + self.beta_t > 1.0 + 1.0e-12:
            fail("beta_r+beta_t <= 1")
        if abs(self.a_r + self.a_t - 1.0) > 1.0e-9:
            fail("a_r+a_t = 1")
        if self.a_r > self.a_t:
            fail("a_r <= a_t")
        if self.a_r <= 0.0:
            fail("a_r > 0")
        for name in ("noise_sigma_s2", "noise_sigma_02", "noise_sigma_re2"):
            if getattr(self, name) <= 0.0:
                fail(f"{name} > 0")
        if self.path_alpha < 2.0:
            fail("alpha >= 2")
        if self.path_eta0 <= 0.0:
            fail("eta0 > 0")
        if self.target_rate_r < 0.0 or self.target_rate_t < 0.0:
            fail("target rates >= 0")
        for name in ("quad_k", "quad_q", "quad_u"):
            if not 1 <= getattr(self, name) <= 2000:
                fail(f"{name} in [1, 2000]")
        if self.mc_trials < 1:
            fail("mc_trials >= 1")
        if self.pc_watts < 0.0 or self.pd_watts < 0.0:
            fail("circuit powers >= 0")
        if not 0.0 < self.hyp2f1_z_cap < 1.0:
            fail("hyp2f1_z_cap in (0, 1)")


@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched shape/scale pair for the squared cascade gain.

    The phase-aligned amplitude S = sum_l |h_s^l h_phi^l| is approximated
    as Gamma(p, q), so the squared gain X = S^2 has the CDF
    cascade_cdf(x) = P(p, sqrt(x)/q).
    """

    p: float
    q: float

    def __post_init__(self):
        if self.p <= 0.0 or self.q <= 0.0:
            raise ConfigError("Gamma approximation requires p > 0 and q > 0")


def element_moments(kappa: float) -> tuple[float, float]:
    """Mean and variance of the single-element product gain |h_s^l h_phi^l|.

    mean = pi/(4(kappa+1)) L_{1/2}(-kappa)^2 and, because the product of
    two unit-power envelopes has unit second moment, variance = 1 - mean^2.
    """
    if kappa < 0.0:
        raise ConfigError("kappa >= 0 violated")
    lg = laguerre_half(-kappa)
    mean = math.pi / (4.0 * (kappa + 1.0)) * lg * lg
    variance = 1.0 - (math.pi ** 2) / (16.0 * (kappa + 1.0) ** 2) * lg ** 4
    return mean, variance


def envelope_moments(kappa: float) -> tuple[float, float, float]:
    """E|h|, E|h|^3 and E|h|^4 of a unit-power Rician envelope |h|.

    E|h|^k = Gamma(1 + k/2) (kappa+1)^(-k/2) L_{k/2}(-kappa).  The
    Laguerre recurrence gives L_{3/2}(-kappa) = (2/3) [(2 + kappa)
    L_{1/2}(-kappa) - 1/2 e^(-kappa/2) I0(kappa/2)], with the Bessel factor
    scaled so that no kappa overflows, and L_2 is a polynomial:
    E|h|^4 = (kappa^2 + 4 kappa + 2)/(kappa + 1)^2.  E|h|^2 = 1.
    """
    if kappa < 0.0:
        raise ConfigError("kappa >= 0 violated")
    lg = laguerre_half(-kappa)
    i0e, _ = _bessel_i01e(0.5 * kappa)
    m1 = 0.5 * math.sqrt(math.pi / (kappa + 1.0)) * lg
    lg32 = (2.0 / 3.0) * ((2.0 + kappa) * lg - 0.5 * i0e)
    m3 = 0.75 * math.sqrt(math.pi) * (kappa + 1.0) ** -1.5 * lg32
    m4 = (kappa * kappa + 4.0 * kappa + 2.0) / (kappa + 1.0) ** 2
    return m1, m3, m4


def gamma_fit(kappa: float, num_elements: int) -> GammaApprox:
    """Match Gamma(p, q) to the L-element phase-aligned cascade amplitude.

    The amplitude is a sum of L i.i.d. per-element products, so
    p = L mean^2 / variance (shape scales linearly with L) and
    q = variance / mean (scale is L-independent).
    """
    if num_elements < 1:
        raise ConfigError("num_elements >= 1 violated")
    mean, variance = element_moments(kappa)
    return GammaApprox(p=num_elements * mean * mean / variance, q=variance / mean)


def cascade_cdf(approx: GammaApprox, x) -> float | np.ndarray:
    """CDF of the squared cascade gain under the Gamma approximation:
    P(p, sqrt(x)/q), a value in [0, 1] nondecreasing in x."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("squared gain must be nonnegative")
    return reg_lower_gamma(approx.p, np.sqrt(arr) / approx.q)


def noise_power_factor(kappa: float, num_elements: int) -> float:
    """Mean power of the randomly phased element sum, zeta = L(L kappa+1)/(kappa+1).

    This is the factor by which the analysis replaces the per-trial
    amplified thermal noise; it grows from L (pure scattering) to L^2
    (pure line of sight).
    """
    if kappa < 0.0:
        raise ConfigError("kappa >= 0 violated")
    if num_elements < 1:
        raise ConfigError("num_elements >= 1 violated")
    L = float(num_elements)
    return L * (L * kappa + 1.0) / (kappa + 1.0)


def target_sinr(rate: float) -> float:
    """Decoding threshold 2^rate - 1 for a target of `rate` BPCU."""
    return 2.0 ** rate - 1.0


def decode_stages(cfg: NetworkConfig, scheme: str) -> tuple[list[tuple], dict[str, list[tuple]]]:
    """The decoding stages of scheme at cfg, the one table that the closed
    forms and the simulator read: the transmission user's, and the reflection
    user's keyed by SIC-mode suffix ("_psic", "_ipsic"; "" for astars_oma).
    A stage (A, B, gamma_hat, ipsic) has the SINR A g/(B g + N) at received
    power g and noise N, with the residual power where ipsic.  A user decodes
    iff each stage meets its target gamma_hat; its rate is its last stage's."""
    if scheme == "astars_oma":
        # dedicated slots: full power, doubled spectral-efficiency target
        return ([(1.0, 0.0, target_sinr(2.0 * cfg.target_rate_t), False)],
                {"": [(1.0, 0.0, target_sinr(2.0 * cfg.target_rate_r), False)]})
    # decoding the transmission user's signal, under the reflection user's
    # own signal as interference; then the reflection user's own signal
    first = (cfg.a_t, cfg.a_r, target_sinr(cfg.target_rate_t), False)
    gamma_r_hat = target_sinr(cfg.target_rate_r)
    return ([first], {"_psic": [first, (cfg.a_r, 0.0, gamma_r_hat, False)],
                      "_ipsic": [first, (cfg.a_r, 0.0, gamma_r_hat, True)]})


def stage_gains(stages: list[tuple]) -> list[float]:
    """The gains k = (A - B gamma_hat)/gamma_hat of a user's stages, each
    succeeding iff k g > N: first the smallest over the stages without the
    residual power, which share N and so merge, then each ipSIC stage's.  A
    zero target makes k infinite (never fails), a degenerate allocation
    nonpositive (always fails)."""
    ks = [((a - b * g) / g if g > 0.0 else math.inf, ipsic) for a, b, g, ipsic in stages]
    return [min(k for k, ipsic in ks if not ipsic), *(k for k, ipsic in ks if ipsic)]


def distance_pdf(x, radius: float):
    """Density 2x/D^2 of a user distance drawn uniformly over the disk of
    radius D; zero outside [0, D]."""
    arr = np.asarray(x, dtype=float)
    dens = np.where((arr >= 0.0) & (arr <= radius), 2.0 * arr / radius ** 2, 0.0)
    if np.ndim(x) == 0:
        return float(dens)
    return dens


def sample_distance(rng: np.random.Generator, radius: float, size=None):
    """Inverse-CDF sampler for the disk distance law: D * sqrt(U)."""
    if radius <= 0.0:
        raise ConfigError("radius_d > 0 violated")
    return radius * np.sqrt(rng.random(size))

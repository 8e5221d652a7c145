"""Exact Monte Carlo simulation of the two-sided amplifying-surface NOMA
signal model, plus the orthogonal-access and passive-surface baselines and
the power-budget fairness mapping.

This simulator is the ground truth the closed forms are validated against:
it draws the actual Rician fades, the actual per-element thermal noise
(phase-unaligned, unlike the analysis, which substitutes the mean power
zeta sigma_s^2 - flip ``mean_noise_mode`` to isolate that approximation),
the exponential residual-interference power, and the disk-law user
distances.

Determinism contract: trials are partitioned into fixed-size blocks and
each block draws from its own counter-based substream keyed by
(seed, block index).  Per-block partials are reduced in block order with
exact (fsum) accumulation, so results are bit-identical for a given
(config, seed) regardless of the worker count used to compute the blocks.
The draws do not depend on the transmit power, so one call evaluates a
whole vector of powers on each block it draws, and every power gets the
estimates a call with that power alone would give.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import _check_power, target_sinr
from .model import ConfigError, NetworkConfig, noise_power_factor, sample_distance

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "SCHEMES",
    "SinrSet",
    "TrialDraw",
    "budget_to_ps",
    "draw_trial",
    "simulate",
    "sinr_set",
    "surface_output_power",
]

BLOCK_TRIALS = 8192

SCHEMES = ("astars_noma", "astars_oma", "pstars_noma")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrialDraw:
    """One channel realization: small-scale gains (BS->surface and
    surface->user), per-element thermal noise, residual-interference
    power, and the two user distances.  The block simulator stacks a
    block of realizations along a leading trial axis."""

    h_s: np.ndarray
    h_r: np.ndarray
    h_t: np.ndarray
    n_s: np.ndarray | None
    h_re_sq: float | np.ndarray
    d_r: float | np.ndarray
    d_t: float | np.ndarray


class SinrSet(NamedTuple):
    """The four link SINRs of one trial at one transmit power (or of every
    trial of a block, as arrays)."""

    gamma_r_to_t: float
    gamma_r_psic: float
    gamma_r_ipsic: float
    gamma_t: float


class _Terms(NamedTuple):
    """Per-trial terms of a block that do not depend on the transmit power:
    the received-signal gains, the amplified-noise powers and the
    residual-interference power."""

    g_r: np.ndarray
    g_t: np.ndarray
    noise_r: np.ndarray
    noise_t: np.ndarray
    h_re_sq: np.ndarray


@dataclass(frozen=True)
class Estimate:
    """A simulated metric with its 95% confidence half-width."""

    mean: float
    trials: int
    ci95_halfwidth: float
    kind: str


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, block & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rician(rng: np.random.Generator, kappa: float, shape) -> np.ndarray:
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter = math.sqrt(1.0 / (2.0 * (kappa + 1.0)))
    return (los + scatter * rng.standard_normal(shape)
            + 1j * scatter * rng.standard_normal(shape))


def draw_trial(rng: np.random.Generator, cfg: NetworkConfig) -> TrialDraw:
    """Draw one channel realization: the one-trial block of the main
    scheme, unwrapped to (L,) gain and noise arrays and float scalars."""
    one = _draw_block(rng, cfg, "astars_noma", 1)
    return TrialDraw(h_s=one.h_s[0], h_r=one.h_r[0], h_t=one.h_t[0], n_s=one.n_s[0],
                     h_re_sq=float(one.h_re_sq[0]), d_r=float(one.d_r[0]),
                     d_t=float(one.d_t[0]))


def _draw_block(rng: np.random.Generator, cfg: NetworkConfig, scheme: str,
                size: int) -> TrialDraw:
    """Draw one block of trials from rng.  The passive surface injects no
    noise, so its stream skips those draws."""
    L = cfg.num_elements
    kappa = cfg.rician_kappa
    h_s = _rician(rng, kappa, (size, L))
    h_r = _rician(rng, kappa, (size, L))
    h_t = _rician(rng, kappa, (size, L))
    if scheme == "pstars_noma":
        n_s = None
    else:
        scale = math.sqrt(cfg.noise_sigma_s2 / 2.0)
        n_s = scale * (rng.standard_normal((size, L))
                       + 1j * rng.standard_normal((size, L)))
    h_re_sq = rng.exponential(cfg.noise_sigma_re2, size)
    d_r = sample_distance(rng, cfg.radius_d, size)
    d_t = sample_distance(rng, cfg.radius_d, size)
    return TrialDraw(h_s=h_s, h_r=h_r, h_t=h_t, n_s=n_s,
                     h_re_sq=h_re_sq, d_r=d_r, d_t=d_t)


def _terms(cfg: NetworkConfig, scheme: str, draw: TrialDraw) -> _Terms:
    """Reduce a block of draws to its power-free per-trial terms.

    The phase controller aligns the cascade, so its amplitude is the sum of
    per-element products of envelopes; the thermal noise keeps its random
    phases and rides the same path loss.  In mean-noise mode the drawn
    noise power is replaced by its analysis value zeta sigma_s^2.
    """
    alpha = cfg.path_alpha
    eta0 = cfg.path_eta0

    def side(h_user, dist, beta):
        cascade_amp = np.sum(np.abs(draw.h_s) * np.abs(h_user), axis=1)
        gain = eta0 ** 2 * (cfg.dist_bs * dist) ** -alpha * cascade_amp ** 2
        if scheme == "pstars_noma":
            noise_amp = np.zeros(dist.shape)
        elif cfg.mean_noise_mode:
            zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
            noise_amp = (cfg.amp_lambda * beta * eta0 * dist ** -alpha
                         * zeta * cfg.noise_sigma_s2) * np.ones(dist.shape)
        else:
            noise_sum = np.abs(np.sum(draw.n_s * h_user, axis=1)) ** 2
            noise_amp = cfg.amp_lambda * beta * eta0 * dist ** -alpha * noise_sum
        return gain, noise_amp

    g_r, noise_r = side(draw.h_r, draw.d_r, cfg.beta_r)
    g_t, noise_t = side(draw.h_t, draw.d_t, cfg.beta_t)
    return _Terms(g_r, g_t, noise_r, noise_t, draw.h_re_sq)


def _sinrs(cfg: NetworkConfig, scheme: str, terms: _Terms,
           ps: float) -> SinrSet | tuple[np.ndarray, np.ndarray]:
    """The SINR kernel: every trial's link SINRs at transmit power ps.

    NOMA schemes give a SinrSet of arrays: the reflection user decoding the
    transmission user's signal, then its own signal under pSIC and ipSIC,
    and the transmission user decoding its own signal.  astars_oma gives
    the pair (gamma_r, gamma_t) of the dedicated full-power slots.
    """
    lam = 1.0 if scheme == "pstars_noma" else cfg.amp_lambda
    sigma_02 = cfg.noise_sigma_02
    s_r = lam * cfg.beta_r * ps * terms.g_r
    s_t = lam * cfg.beta_t * ps * terms.g_t
    if scheme == "astars_oma":
        return s_r / (terms.noise_r + sigma_02), s_t / (terms.noise_t + sigma_02)
    den_r = terms.noise_r + sigma_02
    return SinrSet(
        gamma_r_to_t=cfg.a_t * s_r / (cfg.a_r * s_r + den_r),
        gamma_r_psic=cfg.a_r * s_r / den_r,
        gamma_r_ipsic=cfg.a_r * s_r / (den_r + terms.h_re_sq * ps),
        gamma_t=cfg.a_t * s_t / (cfg.a_r * s_t + terms.noise_t + sigma_02),
    )


def sinr_set(trial: TrialDraw, cfg: NetworkConfig, ps: float) -> SinrSet:
    """The four SINRs of one trial of the main scheme, through the same
    kernel as the block simulator."""
    _check_power(ps)
    one = TrialDraw(h_s=trial.h_s[None, :], h_r=trial.h_r[None, :],
                    h_t=trial.h_t[None, :], n_s=trial.n_s[None, :],
                    h_re_sq=np.array([trial.h_re_sq]),
                    d_r=np.array([trial.d_r]), d_t=np.array([trial.d_t]))
    sinrs = _sinrs(cfg, "astars_noma", _terms(cfg, "astars_noma", one), ps)
    return SinrSet(*(float(gamma[0]) for gamma in sinrs))


def _moments(values: np.ndarray) -> tuple[float, float]:
    return float(values.sum()), float((values * values).sum())


def _partials(cfg: NetworkConfig, scheme: str, terms: _Terms,
              ps: float) -> dict[str, int | tuple[float, float]]:
    """Raw partial sums of one block at one transmit power, keyed by the
    metric names of the estimates: event counts for outages, (sum, sum of
    squares) for rates and throughputs."""
    out: dict[str, int | tuple[float, float]] = {}
    if scheme == "astars_oma":
        # dedicated slots: full power, doubled spectral-efficiency target,
        # per-user rate halved by the slot structure
        gamma_r, gamma_t = _sinrs(cfg, scheme, terms, ps)
        out_r = gamma_r <= target_sinr(2.0 * cfg.target_rate_r)
        out_t = gamma_t <= target_sinr(2.0 * cfg.target_rate_t)
        rate_r = 0.5 * np.log2(1.0 + gamma_r)
        rate_t = 0.5 * np.log2(1.0 + gamma_t)
        out["outage_r"] = int(out_r.sum())
        out["outage_t"] = int(out_t.sum())
        out["outage_system"] = int((out_r | out_t).sum())
        out["rate_r"] = _moments(rate_r)
        out["rate_t"] = _moments(rate_t)
        lim = ((1.0 - out_r) * cfg.target_rate_r + (1.0 - out_t) * cfg.target_rate_t)
        out["throughput_tolerant"] = _moments(rate_r + rate_t)
        out["throughput_limited"] = _moments(lim)
        return out

    gamma_r_hat = target_sinr(cfg.target_rate_r)
    gamma_t_hat = target_sinr(cfg.target_rate_t)
    s = _sinrs(cfg, scheme, terms, ps)
    out_r_psic = (s.gamma_r_to_t <= gamma_t_hat) | (s.gamma_r_psic <= gamma_r_hat)
    out_r_ipsic = (s.gamma_r_to_t <= gamma_t_hat) | (s.gamma_r_ipsic <= gamma_r_hat)
    out_t = s.gamma_t <= gamma_t_hat
    rate_r_psic = np.log2(1.0 + s.gamma_r_psic)
    rate_r_ipsic = np.log2(1.0 + s.gamma_r_ipsic)
    rate_t = np.log2(1.0 + s.gamma_t)

    out["outage_r_psic"] = int(out_r_psic.sum())
    out["outage_r_ipsic"] = int(out_r_ipsic.sum())
    out["outage_t"] = int(out_t.sum())
    out["outage_system_psic"] = int((out_r_psic | out_t).sum())
    out["outage_system_ipsic"] = int((out_r_ipsic | out_t).sum())
    out["rate_r_psic"] = _moments(rate_r_psic)
    out["rate_r_ipsic"] = _moments(rate_r_ipsic)
    out["rate_t"] = _moments(rate_t)
    for mode, out_r, rate_r in (("psic", out_r_psic, rate_r_psic),
                                ("ipsic", out_r_ipsic, rate_r_ipsic)):
        lim = ((1.0 - out_r) * cfg.target_rate_r + (1.0 - out_t) * cfg.target_rate_t)
        out[f"throughput_limited_{mode}"] = _moments(lim)
        out[f"throughput_tolerant_{mode}"] = _moments(rate_r + rate_t)
    return out


def _outage_estimate(count: float, trials: int, kind: str) -> Estimate:
    p = count / trials
    hw = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return Estimate(mean=p, trials=trials, ci95_halfwidth=hw, kind=kind)


def _mean_estimate(total: float, total_sq: float, trials: int, kind: str) -> Estimate:
    mean = total / trials
    if trials > 1:
        var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
    else:
        var = 0.0
    hw = 1.96 * math.sqrt(var / trials)
    return Estimate(mean=mean, trials=trials, ci95_halfwidth=hw, kind=kind)


def simulate(cfg: NetworkConfig, scheme: str, ps: float | Sequence[float],
             trials: int | None = None, seed: int | None = None, workers: int = 1,
             ) -> dict[str, Estimate] | list[dict[str, Estimate]]:
    """Run the block simulator for one scheme at one or more transmit powers.

    ps is one power or a sequence of powers.  Each block is drawn once and
    evaluated at every power in turn, so the estimates for a power are the
    same whatever other powers share the call.  A sequence gives a list
    with one dict of estimates per power, in order; a single power gives
    its dict alone.  The dicts are keyed by metric:
    NOMA schemes: outage_r_psic, outage_r_ipsic, outage_t,
    outage_system_psic, outage_system_ipsic, rate_r_psic, rate_r_ipsic,
    rate_t, throughput_limited_{psic,ipsic}, throughput_tolerant_{psic,ipsic}.
    astars_oma: outage_r, outage_t, outage_system, rate_r, rate_t,
    throughput_limited, throughput_tolerant.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    scalar = np.ndim(ps) == 0
    powers = [ps] if scalar else list(ps)
    if not powers:
        raise ValueError("at least one transmit power required")
    for p in powers:
        _check_power(p)
    trials = cfg.mc_trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("at least one trial required")
    seed = cfg.seed if seed is None else int(seed)
    sizes = [BLOCK_TRIALS] * (trials // BLOCK_TRIALS)
    if trials % BLOCK_TRIALS:
        sizes.append(trials % BLOCK_TRIALS)

    def run(block: int) -> list[dict]:
        terms = _terms(cfg, scheme, _draw_block(_rng_for_block(seed, block), cfg,
                                                scheme, sizes[block]))
        return [_partials(cfg, scheme, terms, p) for p in powers]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            by_block = list(pool.map(run, range(len(sizes))))
    else:
        by_block = [run(b) for b in range(len(sizes))]

    tag = f"{scheme}:"
    results: list[dict[str, Estimate]] = []
    for partials in zip(*by_block):
        estimates: dict[str, Estimate] = {}
        for key, first in partials[0].items():
            if isinstance(first, tuple):
                estimates[key] = _mean_estimate(math.fsum(p[key][0] for p in partials),
                                                math.fsum(p[key][1] for p in partials),
                                                trials, tag + key)
            else:
                estimates[key] = _outage_estimate(sum(p[key] for p in partials),
                                                  trials, tag + key)
        results.append(estimates)
    return results[0] if scalar else results


def surface_output_power(cfg: NetworkConfig, ps: float) -> float:
    """Expected amplifier output power of the active surface: each element
    re-radiates lambda (beta_r + beta_t) times its mean incident power
    eta0 d_s^{-alpha} ps plus its injected thermal power sigma_s^2."""
    return (cfg.amp_lambda * (cfg.beta_r + cfg.beta_t) * cfg.num_elements
            * (cfg.path_eta0 * cfg.dist_bs ** -cfg.path_alpha * ps + cfg.noise_sigma_s2))


def budget_to_ps(q_tot: float, cfg: NetworkConfig, active: bool = True) -> float:
    """Solve the total power budget for the BS transmit power.

    Active surface: q_tot = ps + P_out(ps) + L (P_c + P_d) with the
    expected amplifier output P_out linear in ps, solved exactly.
    Passive surface: q_tot = ps + L P_c.
    """
    if q_tot <= 0.0:
        raise ConfigError(f"budget must be positive, got {q_tot}")
    L = cfg.num_elements
    if not active:
        ps = q_tot - L * cfg.pc_watts
        if ps <= 0.0:
            raise ConfigError(f"infeasible passive budget {q_tot} W: "
                              f"circuit draw {L * cfg.pc_watts} W")
        return ps
    drain = L * (cfg.pc_watts + cfg.pd_watts)
    amp = cfg.amp_lambda * (cfg.beta_r + cfg.beta_t) * L
    slope = amp * cfg.path_eta0 * cfg.dist_bs ** -cfg.path_alpha
    ps = (q_tot - drain - amp * cfg.noise_sigma_s2) / (1.0 + slope)
    if ps <= 0.0:
        raise ConfigError(f"infeasible active budget {q_tot} W: "
                          f"static draw {drain + amp * cfg.noise_sigma_s2} W")
    return ps

"""Exact Monte Carlo simulation of the two-sided amplifying-surface NOMA
signal model, plus the orthogonal-access and passive-surface baselines and
the power-budget fairness mapping.

This simulator is the ground truth the closed forms are validated against:
it draws the actual Rician fades, the actual per-element thermal noise
(phase-unaligned, unlike the analysis, which substitutes the mean power
zeta sigma_s^2 - flip ``mean_noise_mode`` to isolate that approximation),
the exponential residual-interference power, and the disk-law user
distances.

Random-number stream: trials run in fixed-size blocks, and each block
reads six SFC64 substreams keyed by SeedSequence spawn keys (seed, block,
purpose): h_s, h_r, h_t, the surface noise n_s, the residual power E and
the distance uniforms U.  No state is shared across blocks or purposes.
Only the trial count shapes what is drawn; the config acts afterwards,
through h = los + sc z, n_s = sqrt(sigma_s^2 / 2) z, y = sigma_re^2 E and
d = D sqrt(U).  The element streams are drawn one element row at a time,
in element order, and reduced to running sums as they go, so the
L-element draw is exactly the first L rows of any larger draw (the prefix
property), and a lone point's reduction is the same sequential loop
stopped at its L.  Each point's fades (squared cascade amplitudes,
surface-noise powers, residual power) are formed from the sums; the path
loss d^-alpha is formed once per block for each (D, alpha) in the call
and applied to the fades afterwards.

Each metric family has one estimator.  The rates and the delay-tolerant
throughput apply the drawn distances and average log2(1 + SINR).  The
outage families and the delay-limited throughput integrate the two user
distances out exactly: every link SINR is a X / (b X + N + c d^alpha) in
the fade terms X and N, so given the fades each decoding stage succeeds
iff d lies inside a threshold distance, and the disk law gives
P(outage | fades) in closed form.  Averaging that probability over trials
(conditional Monte Carlo, a Rao-Blackwellization) keeps the mean of the
outage indicator at drawn distances and cannot widen its CI.  A call
that asks for no rate family does not draw the U stream.

Each outage-type estimate then uses control variates.  The controls are
the phase-aligned cascade amplitude S_u = sum_l |h_s,l| |h_u,l| and its
square, whose means are exact: E S_u = L m and E S_u^2 = L v + (L m)^2,
with (m, v) the per-element product's mean and variance
(model.element_moments), so the Gamma fit does not enter.  A user's outage
regresses on its own pair (at alpha = 2 it is a clipped affine function of
S_u^2), the system outage and the delay-limited throughput on both users'
pairs.  The estimate is p-bar - beta . (X-bar - mu) with beta fitted by
least squares on the same trials, and its CI is 1.96 sqrt(s_res^2 / n),
s_res^2 the residual variance over n - q - 1 for q controls.  An estimated
beta biases the mean by O(1/n), far below the CI at the default 10^5
trials.  An adjusted mean outside the family's range ([0, 1], or
[0, R_r + R_t] for the throughput) falls back to the plain conditional
estimate and CI, marked by Estimate.fallback; so does a cell whose
controls cannot be fitted, or fit every trial to rounding (the trials then
say nothing of the residual's spread).  A cell whose per-trial values all
sit at one end of that range keeps its plain mean and the exact bound
1 - 0.025^(1/n), scaled to the range.  A block whose fades put a user's
outage at exactly 0 at some power, at every distance, is not evaluated
there: its partial sums are the zeros that evaluating it gives.

One ``simulate`` call evaluates a list of points (config, scheme, powers
and, optionally, metric families) on one draw per block: element counts
are read off the running sums, every other config axis and every scheme
is applied to the same sums, and every power to the same per-trial terms.
The points of a call thus share common random numbers: differences
between them come out tighter, and each point's own estimate is what a
call with that point alone gives.  A point estimates only the metric
families it names: at each power the log2(1 + SINR) arrays are formed
only for the rate families, and the conditional outage probabilities only
for the outage-type ones.

Determinism contract: per-block partials are reduced in block order with
exact (fsum) accumulation, so results are bit-identical for a given
(config, seed) whatever the worker count.  The control products are numpy
ufunc and einsum reductions and the control fit is solved in Python
floats, so no BLAS kernel, thread count or host CPU changes a bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import _check_power, target_sinr
from .model import (ConfigError, NetworkConfig, element_moments, noise_power_factor,
                    sample_distance)
from .numerics import NumericIntegrityError

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "METRICS",
    "SCHEMES",
    "budget_to_ps",
    "simulate",
    "surface_output_power",
]

BLOCK_TRIALS = 8192

SCHEMES = ("astars_noma", "astars_oma", "pstars_noma")

# the metric families simulate can estimate.  NOMA schemes key the
# reflection user's families by SIC mode (outage_r_psic, ...), OMA bare
METRICS = ("outage_r", "outage_t", "outage_system",
           "rate_r", "rate_t", "throughput_limited", "throughput_tolerant")

# the families read off the log2(1 + gamma) arrays at the drawn distances;
# a call without them skips the U stream
_RATE_READERS = frozenset({"rate_r", "rate_t", "throughput_tolerant"})

# a user at or above its zero power by this factor is not evaluated (_conditional_partials)
_ZERO_MARGIN = 1.0 + 1e-9
# the partial sums of a row of zeros, by its number of controls, shared
_ZERO_PARTIALS = {q: (0.0,) * (2 + q) for q in (2, 4)}

# the families estimated conditional on the fades, and the users whose
# cascade amplitude S_u and its square each regresses on (see _controls):
# a user's outage on its own, the joint families on both
_CONTROL_USERS = {"outage_r": ("r",), "outage_t": ("t",),
                  "outage_system": ("r", "t"), "throughput_limited": ("r", "t")}

# a block's substreams; the index is the second word of each one's spawn key
_PURPOSES = ("h_s", "h_r", "h_t", "n_s", "E", "U")


class _Fades(NamedTuple):
    """Per-trial terms of a block that depend on neither the transmit
    power nor the user distances: the phase-aligned cascade amplitudes (the
    running sums themselves, shared by every point at the block's
    (kappa, L)) and their squares, the drawn surface-noise powers
    1/2 sigma_s^2 |nsum|^2 at each user (None where the point reads no
    drawn noise) and the residual-interference power."""

    amp_r: np.ndarray
    amp_t: np.ndarray
    amp_sq_r: np.ndarray
    amp_sq_t: np.ndarray
    noise_r: np.ndarray | None
    noise_t: np.ndarray | None
    h_re_sq: np.ndarray


class _Terms(NamedTuple):
    """Per-trial terms of a block that do not depend on the transmit power,
    the drawn distances applied: the received-signal gains, the
    amplified-noise powers and the residual-interference power."""

    g_r: np.ndarray
    g_t: np.ndarray
    noise_r: np.ndarray
    noise_t: np.ndarray
    h_re_sq: np.ndarray


@dataclass(frozen=True)
class Estimate:
    """A simulated metric with its 95% confidence half-width.  fallback
    marks an outage-type estimate that carries the plain conditional mean
    and CI because its control-variate adjustment was not usable: the
    adjusted mean left the family's range, the controls were collinear or
    had too few trials to fit, or they fit every trial to rounding."""

    mean: float
    trials: int
    ci95_halfwidth: float
    fallback: bool = False


def _stream(seed: int, block: int, purpose: str) -> np.random.Generator:
    """The block's substream for one purpose: SFC64 seeded by a
    SeedSequence with entropy seed mod 2^64 and spawn key (block, purpose
    index), so each (seed, block, purpose) has its own hashed state."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        seed % 2 ** 64, spawn_key=(block, _PURPOSES.index(purpose)))))


def _element_rows(seed: int, block: int, size: int, purpose: str) -> Iterator[np.ndarray]:
    """The purpose's element rows of one block, in element order, without
    end: complex standard normals z whose real and imaginary parts are
    N(0, 1)."""
    rng = _stream(seed, block, purpose)
    while True:
        yield rng.standard_normal(2 * size).view(np.complex128)


def _rician(kappa: float, z: np.ndarray) -> np.ndarray:
    """Unit-power Rician gains los + sc z with K-factor kappa."""
    return (math.sqrt(kappa / (kappa + 1.0))
            + math.sqrt(1.0 / (2.0 * (kappa + 1.0))) * z)


def _element_sums(seed: int, block: int, size: int, kappas: Sequence[float],
                  users: Sequence[str], noise: bool) -> Iterator[dict]:
    """Reduce one block's element rows as they are drawn, in element order.

    After each element l = 1, 2, ... yields {kappa: (amp, nsum)} where, for
    each user stream u in users, amp[u] = sum_{i<=l} |h_s,i| |h_u,i| is the
    phase-aligned cascade amplitude and nsum[u] = sum_{i<=l} z_n,i h_u,i the
    surface-noise sum in units of sqrt(sigma_s^2 / 2) (left empty without
    noise).  The sums are rebound, never updated in place, so an array
    taken from a yield keeps its value.
    """
    streams = {p: _element_rows(seed, block, size, p)
               for p in ("h_s", *users, *(("n_s",) if noise else ()))}
    sums = {kappa: ({u: 0.0 for u in users}, {u: 0.0 for u in users} if noise else {})
            for kappa in kappas}
    while True:
        z = {p: next(rows) for p, rows in streams.items()}
        for kappa, (amp, nsum) in sums.items():
            env_s = np.abs(_rician(kappa, z["h_s"]))
            for u in users:
                h_u = _rician(kappa, z[u])
                amp[u] = amp[u] + env_s * np.abs(h_u)
                if noise:
                    nsum[u] = nsum[u] + z["n_s"] * h_u
        yield sums


def _controls(fades: _Fades, family: str) -> tuple[np.ndarray, ...]:
    """The control rows an outage-type family regresses on: S_u and S_u^2
    for each of its users (_CONTROL_USERS), in order."""
    rows = {"r": (fades.amp_r, fades.amp_sq_r), "t": (fades.amp_t, fades.amp_sq_t)}
    return tuple(row for user in _CONTROL_USERS[family] for row in rows[user])


def _control_means(kappa: float, num_elements: int, users: tuple[str, ...]) -> list[float]:
    """The exact means of the control rows of users: E S_u = L m and
    E S_u^2 = L v + (L m)^2, with (m, v) the per-element product's mean and
    variance (model.element_moments).  The Gamma fit plays no part."""
    m, v = element_moments(kappa)
    mean = num_elements * m
    return [mean, num_elements * v + mean * mean] * len(users)


def _fades(cfg: NetworkConfig, scheme: str, amp: dict, nsum: dict,
           residual: np.ndarray) -> _Fades:
    """A block's fades at cfg, from the element sums at its K-factor and
    element count and the standard exponentials of the residual power.
    The phase controller aligns the cascade, so its amplitude is the sum of
    per-element products of envelopes; the thermal noise keeps its random
    phases."""
    drawn = scheme != "pstars_noma" and not cfg.mean_noise_mode

    def noise(user):
        return 0.5 * cfg.noise_sigma_s2 * np.abs(nsum[user]) ** 2 if drawn else None

    return _Fades(amp["h_r"], amp["h_t"], amp["h_r"] ** 2, amp["h_t"] ** 2,
                  noise("h_r"), noise("h_t"), cfg.noise_sigma_re2 * residual)


def _terms(cfg: NetworkConfig, scheme: str, fades: _Fades, loss: np.ndarray) -> _Terms:
    """A block's power-free per-trial terms at cfg: its fades with the two
    users' surface-to-user path losses d^-alpha applied (row 0 the
    reflection user, row 1 the transmission user).  The amplified noise
    rides the same path loss as the gain.  In mean-noise mode the drawn
    noise power is replaced by its analysis value zeta sigma_s^2."""
    eta0 = cfg.path_eta0
    bs_loss = eta0 ** 2 * cfg.dist_bs ** -cfg.path_alpha

    def side(amp_sq, noise, row, beta):
        pl = loss[row]
        gain = bs_loss * pl * amp_sq
        if scheme == "pstars_noma":
            noise_amp = np.zeros(pl.shape)
        elif cfg.mean_noise_mode:
            zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
            noise_amp = cfg.amp_lambda * beta * eta0 * zeta * cfg.noise_sigma_s2 * pl
        else:
            noise_amp = cfg.amp_lambda * beta * eta0 * pl * noise
        return gain, noise_amp

    g_r, noise_r = side(fades.amp_sq_r, fades.noise_r, 0, cfg.beta_r)
    g_t, noise_t = side(fades.amp_sq_t, fades.noise_t, 1, cfg.beta_t)
    return _Terms(g_r, g_t, noise_r, noise_t, fades.h_re_sq)


def _path_losses(seed: int, block: int, size: int,
                 keys: Iterable[tuple[float, float]]) -> dict:
    """One block's surface-to-user path losses d^-alpha, rows (reflection
    user, transmission user), for each (radius_d, path_alpha) of keys, all
    from one draw of the U stream; with no keys nothing is drawn.  Raises
    NumericIntegrityError if a loss is not finite."""
    keys = tuple(dict.fromkeys(keys))
    if not keys:
        return {}
    radial = sample_distance(_stream(seed, block, "U"), 1.0, (2, size))
    loss = {key: (key[0] * radial) ** -key[1] for key in keys}
    if not all(np.isfinite(pl).all() for pl in loss.values()):
        raise NumericIntegrityError(f"non-finite path loss: block {block}")
    return loss


def _block_fades(seed: int, block: int, size: int,
                 points: Sequence[tuple[NetworkConfig, str]]) -> Iterator[tuple[int, _Fades]]:
    """Draw one block's fades once and yield (index, fades) for every
    (cfg, scheme) of points, in order of element count.  Raises
    NumericIntegrityError if any fade term is not finite."""
    residual = _stream(seed, block, "E").standard_exponential(size)
    by_length: dict[int, list[int]] = {}
    for i, (cfg, _) in enumerate(points):
        by_length.setdefault(cfg.num_elements, []).append(i)
    kappas = tuple(dict.fromkeys(cfg.rician_kappa for cfg, _ in points))
    noise = any(scheme != "pstars_noma" and not cfg.mean_noise_mode
                for cfg, scheme in points)
    sums = _element_sums(seed, block, size, kappas, ("h_r", "h_t"), noise)
    for L, at_l in zip(range(1, max(by_length) + 1), sums):
        for i in by_length.get(L, ()):
            cfg, scheme = points[i]
            fades = _fades(cfg, scheme, *at_l[cfg.rician_kappa], residual)
            if not all(np.isfinite(f).all() for f in fades if f is not None):
                raise NumericIntegrityError(
                    f"non-finite fade term: {scheme} block {block} at L = {L}")
            yield i, fades


def _sinrs(cfg: NetworkConfig, scheme: str, terms: _Terms,
           ps: float) -> tuple[np.ndarray, ...]:
    """The SINR kernel: every trial's link SINRs at transmit power ps.

    NOMA schemes give four arrays: the reflection user decoding the
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
    return (cfg.a_t * s_r / (cfg.a_r * s_r + den_r),
            cfg.a_r * s_r / den_r,
            cfg.a_r * s_r / (den_r + terms.h_re_sq * ps),
            cfg.a_t * s_t / (cfg.a_r * s_t + terms.noise_t + sigma_02))


def _moments(values: np.ndarray, work: np.ndarray | None = None) -> tuple[float, float]:
    """(sum, sum of squares) of values; work, if given, takes the squares."""
    return (float(np.add.reduce(values)),
            float(np.add.reduce(np.multiply(values, values, out=work))))


def _partials(cfg: NetworkConfig, scheme: str, terms: _Terms, ps: float,
              metrics: frozenset[str]) -> dict[str, tuple[float, float]]:
    """Partial sums (sum, sum of squares) of one block at one transmit
    power for the rate families in metrics, keyed by the metric names of
    the estimates, from the log2(1 + gamma) arrays."""
    if scheme == "astars_oma":
        # dedicated slots: full power, per-user rate halved by the slot structure
        gamma_r, gamma_t = _sinrs(cfg, scheme, terms, ps)
        rate_t = 0.5 * np.log2(1.0 + gamma_t)
        by_mode = {"": 0.5 * np.log2(1.0 + gamma_r)}
    else:
        _, gamma_r_psic, gamma_r_ipsic, gamma_t = _sinrs(cfg, scheme, terms, ps)
        rate_t = np.log2(1.0 + gamma_t)
        by_mode = {"_psic": np.log2(1.0 + gamma_r_psic), "_ipsic": np.log2(1.0 + gamma_r_ipsic)}
    out: dict[str, tuple[float, float]] = {}
    if "rate_t" in metrics:
        out["rate_t"] = _moments(rate_t)
    for suffix, rate_r in by_mode.items():
        if "rate_r" in metrics:
            out[f"rate_r{suffix}"] = _moments(rate_r)
        if "throughput_tolerant" in metrics:
            out[f"throughput_tolerant{suffix}"] = _moments(rate_r + rate_t)
    return out


def _thresholds(cfg: NetworkConfig, scheme: str,
                fades: _Fades) -> tuple[list[tuple], dict[str, list[tuple]]]:
    """One block's threshold coefficients at cfg, free of power and
    distance: the transmission user's decoding stages, and the reflection
    user's keyed by SIC-mode suffix ("_psic" and "_ipsic" for the NOMA
    schemes, "" for astars_oma).

    Every link SINR has the form A ps S pl / (B ps S pl + N pl + c) in the
    user's path loss pl = d^-alpha, with S the signal and N the amplified
    noise per unit path loss, so a decoding stage with target gamma_hat
    succeeds iff (d/D)^alpha < t = (ps k x - y) / (1 + ps w), where
    k = (A - B gamma_hat) / gamma_hat, x = S / (sigma_0^2 D^alpha),
    y = N / (sigma_0^2 D^alpha), and w = sigma_re^2 E / sigma_0^2 on the
    ipSIC own-signal stage and 0 elsewhere.  A stage is stored as
    (k, x, 1 + y, w), with w None where it is 0.  A user decodes iff every
    one of its stages succeeds; the pSIC stages share x and y and have no
    w, so they merge into one with the smaller k.  A zero target makes k
    infinite, a stage that never fails; a degenerate allocation makes it
    nonpositive, a stage that always does.
    """
    unit = 1.0 / (cfg.noise_sigma_02 * cfg.radius_d ** cfg.path_alpha)
    lam = 1.0 if scheme == "pstars_noma" else cfg.amp_lambda
    bs_loss = cfg.path_eta0 ** 2 * cfg.dist_bs ** -cfg.path_alpha

    def user(amp_sq, noise, beta):
        x = (lam * beta * bs_loss * unit) * amp_sq
        if scheme == "pstars_noma":
            return x, 1.0
        amp_noise = cfg.amp_lambda * beta * cfg.path_eta0 * unit
        if cfg.mean_noise_mode:
            zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
            return x, 1.0 + amp_noise * zeta * cfg.noise_sigma_s2
        return x, 1.0 + amp_noise * noise

    def ratio(a, gamma_hat):
        return a / gamma_hat if gamma_hat > 0.0 else math.inf

    user_r = user(fades.amp_sq_r, fades.noise_r, cfg.beta_r)
    user_t = user(fades.amp_sq_t, fades.noise_t, cfg.beta_t)
    if scheme == "astars_oma":
        # dedicated slots: full power, doubled spectral-efficiency target
        return ([(ratio(1.0, target_sinr(2.0 * cfg.target_rate_t)), *user_t, None)],
                {"": [(ratio(1.0, target_sinr(2.0 * cfg.target_rate_r)), *user_r, None)]})
    gamma_r_hat = target_sinr(cfg.target_rate_r)
    gamma_t_hat = target_sinr(cfg.target_rate_t)
    # decoding the transmission user's signal, under the reflection user's
    # own signal as interference; then the reflection user's own signal
    first = ratio(cfg.a_t - gamma_t_hat * cfg.a_r, gamma_t_hat)
    own = ratio(cfg.a_r, gamma_r_hat)
    w = fades.h_re_sq / cfg.noise_sigma_02
    return ([(first, *user_t, None)],
            {"_psic": [(min(first, own), *user_r, None)],
             "_ipsic": [(first, *user_r, None), (own, *user_r, w)]})


def _outage(stages: list[tuple], ps: float, exponent: float, out: np.ndarray,
            work: np.ndarray) -> np.ndarray:
    """Per trial, the probability over the user's disk-law distance that
    some stage of its decoding fails at transmit power ps:
    1 - P((d/D)^alpha < t) = 1 - clip(t, 0, 1)^(2/alpha) at the smallest
    stage threshold t, with exponent = 2/alpha.  Written into out; work
    holds two scratch rows."""
    for n, (k, x, offset, w) in enumerate(stages):
        fail = out if n == 0 else work[0]
        # 1 - t = (1 + y + ps w - ps k x) / (1 + ps w)
        np.multiply(x, -ps * k, out=fail)
        fail += offset
        if w is not None:
            den = np.multiply(w, ps, out=work[1])
            fail += den
            den += 1.0
            fail /= den
        if n:
            np.maximum(out, fail, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    if exponent != 1.0:
        np.subtract(1.0, out, out=out)
        np.power(out, exponent, out=out)
        np.subtract(1.0, out, out=out)
    return out


def _zero_power(stages: list[tuple], top: float, work: np.ndarray) -> float:
    """The transmit power from which a user's outage probability given the
    fades is exactly 0 at every trial of the block: the largest
    (1 + y)/(k x - w) over trials and stages, since a stage cannot fail
    once ps (k x - w) >= 1 + y; inf if some trial has k x <= w at some
    stage, which then fails at every power.  inf too when it lies above
    top, the largest power asked for; the block's first trials, whose
    bound is a lower one, often show that without a pass over the block.
    work holds two scratch rows of the block's size."""
    head = 0.0
    for k, x, offset, w in stages:
        offsets = offset[:4].tolist() if isinstance(offset, np.ndarray) else [offset] * 4
        extra = w[:4].tolist() if w is not None else [0.0] * 4
        for x_i, off_i, w_i in zip(x[:4].tolist(), offsets, extra):
            den = k * x_i - w_i
            if not den > 0.0:
                return math.inf
            head = max(head, off_i / den)
    if head * _ZERO_MARGIN > top:
        return math.inf
    star = 0.0
    for k, x, offset, w in stages:
        den = np.multiply(x, k, out=work[0])
        if w is not None:
            den -= w
        if not den.min() > 0.0:
            return math.inf
        star = max(star, float(np.divide(offset, den, out=work[1]).max()))
    return math.inf if star * _ZERO_MARGIN > top else star


def _cv_moments(values: np.ndarray | float, controls: tuple[np.ndarray, ...],
                work: np.ndarray | None) -> tuple[float, ...]:
    """(sum, sum of squares, sums of products with each control row) of one
    cell's per-trial values; the products by einsum, whose summation order
    depends on neither the BLAS build nor its thread count.  A float stands
    for a row of that value, and a row of exact zeros gives zeros without a
    pass.  work, if given, takes the squares."""
    if isinstance(values, float):
        if values == 0.0:
            return _ZERO_PARTIALS[len(controls)]
        values = np.full(controls[0].shape, values)
    return (*_moments(values, work),
            *(float(np.einsum("n,n->", values, row)) for row in controls))


def _conditional_partials(cfg: NetworkConfig,
                          stages: tuple[list[tuple], dict[str, list[tuple]]],
                          zero_from: tuple[float, dict[str, float]], ps: float,
                          metrics: frozenset[str], controls: dict[str, tuple],
                          work: np.ndarray) -> dict[str, tuple[float, ...]]:
    """Conditional partial sums of one block at one transmit power for the
    outage-type families in metrics, keyed by the metric names of the
    estimates: the sum and sum of squares of each trial's value given its fades, then its sums of
    products with the family's control rows (``_controls``).  The two
    distances are independent given the fades, so the system outage is
    p_r + p_t - p_r p_t and the delay-limited throughput
    (1 - p_r) R_r + (1 - p_t) R_t.  A user at or above its zero power
    (``_zero_power``; the 1e-9 relative margin keeps the float evaluation at
    exact 0 too) is not evaluated: its outage is the exact 0 that
    evaluating it gives.  work holds four scratch rows of the block's
    size."""
    exponent = 2.0 / cfg.path_alpha
    stages_t, stages_r = stages
    zero_t, zero_r = zero_from

    def outage(user_stages, star, row):
        if ps >= star * _ZERO_MARGIN:
            return 0.0
        return _outage(user_stages, ps, exponent, work[row], work[2:])

    def moments(family, values):
        return _cv_moments(values, controls[family], work[2])

    p_t = outage(stages_t, zero_t, 0) if metrics != {"outage_r"} else None
    out: dict[str, tuple[float, ...]] = {}
    if "outage_t" in metrics:
        out["outage_t"] = moments("outage_t", p_t)
    if metrics == {"outage_t"}:
        return out
    for suffix, stages_mode in stages_r.items():
        p_r = outage(stages_mode, zero_r[suffix], 1)
        if "outage_r" in metrics:
            out[f"outage_r{suffix}"] = moments("outage_r", p_r)
        if "outage_system" in metrics:
            out[f"outage_system{suffix}"] = moments("outage_system", p_r + p_t - p_r * p_t)
        if "throughput_limited" in metrics:
            out[f"throughput_limited{suffix}"] = moments(
                "throughput_limited",
                (1.0 - p_r) * cfg.target_rate_r + (1.0 - p_t) * cfg.target_rate_t)
    return out


def _fit(sums: list[float], products: list[list[float]], means: list[float],
         trials: int) -> tuple | None:
    """The regression set-up on a set of control rows, from their
    block-summed sums and products and their exact means: the sums, their
    deviations from trials x means, and the Cholesky factor of the
    controls' covariance matrix in correlation form (scales d, lower
    factor).  In Python floats, so that no BLAS kernel enters.  None with
    too few trials to fit, or when some control is, to 1e-10 of its
    variance, an affine function of the others."""
    q = len(sums)
    if trials <= q + 1:
        return None
    cov = [[products[i][j] - sums[i] * sums[j] / trials for j in range(q)] for i in range(q)]
    if min(cov[i][i] for i in range(q)) <= 0.0:
        return None
    d = [math.sqrt(cov[i][i]) for i in range(q)]
    chol = [[0.0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1):
            r = cov[i][j] / (d[i] * d[j]) - sum(chol[i][k] * chol[j][k] for k in range(j))
            if i > j:
                chol[i][j] = r / chol[j][j]
            elif r > 1e-10:
                chol[i][i] = math.sqrt(r)
            else:
                return None
    return sums, [s - trials * m for s, m in zip(sums, means)], d, chol


def _controlled(cols: list[float], fit: tuple, trials: int) -> tuple[float, float] | None:
    """The control-variate estimate (mean, ci95 half-width) of one
    outage-type cell from its column sums (sum p, sum p^2, sum p c) and its
    family's fit (``_fit``): p-bar - beta . (c-bar - mu), with beta the
    least-squares coefficient of p on the controls c and mu their exact
    means.  The CI is 1.96 sqrt(s_res^2 / n), with s_res^2 the residual
    sum of squares over n - q - 1 for q controls.  None when that sum is
    within the rounding of the column sums (1e-12 of sum p^2): the
    controls then account for every trial (pstars_noma's pSIC outage is
    affine in S_r^2 wherever no trial is clipped), and the trials say
    nothing of the residual's spread."""
    total, total_sq, *cross = cols
    csum, dev, d, chol = fit
    q = len(csum)
    cov_p = [c - total * s / trials for c, s in zip(cross, csum)]
    # (d R d) beta = cov_p, with R = chol chol^T
    y = [0.0] * q
    for i in range(q):
        y[i] = (cov_p[i] / d[i] - sum(chol[i][k] * y[k] for k in range(i))) / chol[i][i]
    for i in reversed(range(q)):
        y[i] = (y[i] - sum(chol[k][i] * y[k] for k in range(i + 1, q))) / chol[i][i]
    beta = [y[i] / d[i] for i in range(q)]
    mean = (total - sum(b * e for b, e in zip(beta, dev))) / trials
    rss = total_sq - total * total / trials - sum(b * c for b, c in zip(beta, cov_p))
    if rss <= 1e-12 * total_sq:
        return None
    return mean, 1.96 * math.sqrt(rss / (trials - q - 1) / trials)


def _estimates(partials: Sequence[dict], trials: int,
               fits: dict[str, tuple | None] | None = None,
               ceiling: float = 1.0) -> dict[str, Estimate]:
    """Reduce one power's per-block partials, in block order, with exact
    (fsum) sums; a cell's mean is its sum over trials.

    A rate cell gets the sample-variance CI.  An outage-type cell whose
    per-trial values all sit at one end of its family's range ([0, 1] for
    outages, [0, ceiling] = [0, R_r + R_t] for the delay-limited
    throughput), to summation rounding, keeps its plain mean and gets the
    exact one-sided bound 1 - 0.025^(1/n) (about 3.69/n) scaled to the
    range.  Any other outage-type cell, given each family's regression
    set-up (``_fit``), carries its control-variate estimate
    (``_controlled``); where there is none, or it leaves the family's
    range, the plain conditional estimate and sample-variance CI with
    ``fallback`` set."""
    bound = -math.expm1(math.log(0.025) / trials)
    estimates: dict[str, Estimate] = {}
    for key in partials[0]:
        family = key.removesuffix("_psic").removesuffix("_ipsic")
        cols = [math.fsum(col) for col in zip(*(p[key] for p in partials))]
        total, total_sq = cols[:2]
        mean = total / trials
        var = (max(total_sq - total * total / trials, 0.0) / (trials - 1)
               if trials > 1 else 0.0)
        halfwidth = 1.96 * math.sqrt(var / trials)
        fallback = False
        if family in _CONTROL_USERS:
            top = ceiling if family == "throughput_limited" else 1.0
            if total == 0.0 or math.isclose(total, trials * top, rel_tol=1e-12):
                halfwidth = top * bound
            elif fits is not None:
                fit = fits[family]
                adjusted = _controlled(cols, fit, trials) if fit else None
                if adjusted is not None and 0.0 <= adjusted[0] <= top:
                    mean, halfwidth = adjusted
                else:
                    fallback = True
        estimates[key] = Estimate(mean=mean, trials=trials, ci95_halfwidth=halfwidth,
                                  fallback=fallback)
    return estimates


def _map_blocks(fn: Callable, blocks: Iterable, workers: int) -> list:
    """fn over blocks, results in block order: a plain loop at one worker,
    a pool of that many threads above.  The package's one parallel path;
    each call must read and write only what its own block names (its
    (seed, block) substreams, its slice of an output), so results do not
    depend on scheduling."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, blocks))
    return [fn(b) for b in blocks]


def _point_partials(cfg: NetworkConfig, scheme: str, powers: list[float],
                    families: frozenset[str], fades: _Fades, loss: dict) -> list[dict]:
    """One point's partial sums of one block, one dict per power: the rate
    families from its fades with the drawn path losses applied, the
    outage-type ones from its threshold coefficients and control rows."""
    parts: list[dict] = [{} for _ in powers]
    rates, cond = families & _RATE_READERS, families - _RATE_READERS
    if rates:
        terms = _terms(cfg, scheme, fades, loss[cfg.radius_d, cfg.path_alpha])
        for part, ps in zip(parts, powers):
            part.update(_partials(cfg, scheme, terms, ps, rates))
    if cond:
        stages = _thresholds(cfg, scheme, fades)
        work = np.empty((4, fades.h_re_sq.size))
        top = max(powers)
        zero_from = (_zero_power(stages[0], top, work),
                     {suffix: _zero_power(user, top, work) for suffix, user in stages[1].items()})
        controls = {family: _controls(fades, family) for family in cond}
        for part, ps in zip(parts, powers):
            part.update(_conditional_partials(cfg, stages, zero_from, ps, cond, controls, work))
    return parts


def _families(metrics: Iterable[str] | None) -> frozenset[str]:
    """The checked set of metric families; None is every family."""
    families = frozenset(METRICS if metrics is None else metrics)
    if not families:
        raise ValueError("at least one metric family required")
    if not families <= set(METRICS):
        raise ConfigError(f"unknown metric families {sorted(families - set(METRICS))}; "
                          f"expected some of {METRICS}")
    return families


def simulate(cfg: NetworkConfig | Sequence[tuple], scheme: str | None = None,
             ps: float | Sequence[float] | None = None, trials: int | None = None,
             seed: int | None = None, workers: int = 1,
             metrics: Iterable[str] | None = None) -> dict | list:
    """Run the block simulator at one point or at a list of points.

    A point is (cfg, scheme, ps) or (cfg, scheme, ps, metrics), where ps is
    one transmit power or a sequence of powers.  ``simulate(cfg, scheme,
    ps)`` runs one point and returns its estimates: a dict for one power,
    or a list with one dict per power, in order.  ``simulate(points)`` runs
    every point of the list on one draw per block and returns, per point,
    what its lone call would return, bit for bit: the configs, schemes,
    element counts, powers and metric families that share a call change no
    point's estimates.  trials and seed default to the first point's
    config.

    metrics names the metric families to estimate, from METRICS; None
    means all of them.  A point's own metrics, if given, replace the
    call's.  Only the requested families are evaluated and returned, each
    estimate bit-identical to the one a call with every family gives.  The
    dicts are keyed by metric: for NOMA schemes the reflection user's
    families carry the SIC mode (outage_r_psic, outage_r_ipsic,
    outage_system_{psic,ipsic}, rate_r_{psic,ipsic},
    throughput_limited_{psic,ipsic}, throughput_tolerant_{psic,ipsic}) and
    outage_t and rate_t are bare; astars_oma keys every family bare.  An unknown
    family raises ConfigError, an empty set ValueError.
    """
    lone = isinstance(cfg, NetworkConfig)
    points = [(cfg, scheme, ps)] if lone else list(cfg)
    if not points:
        raise ValueError("at least one point required")
    runs = []
    for cfg_p, scheme_p, ps_p, *own in points:
        if len(own) > 1:
            raise ValueError("a point is (cfg, scheme, ps) or (cfg, scheme, ps, metrics)")
        if scheme_p not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme_p!r}; expected one of {SCHEMES}")
        powers = [ps_p] if np.ndim(ps_p) == 0 else list(ps_p)
        if not powers:
            raise ValueError("at least one transmit power required")
        for p in powers:
            _check_power(p)
        runs.append((cfg_p, scheme_p, powers, _families(own[0] if own else metrics)))
    trials = points[0][0].mc_trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("at least one trial required")
    seed = points[0][0].seed if seed is None else int(seed)
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    kernels = [(c, s) for c, s, _, _ in runs]
    losses = [(c.radius_d, c.path_alpha) for c, _, _, families in runs
              if not families.isdisjoint(_RATE_READERS)]

    def run(block: int) -> tuple[list, dict]:
        loss = _path_losses(seed, block, sizes[block], losses)
        out: list = [None] * len(runs)
        # the sums and products of the control rows each outage-type family
        # reads, once per (kappa, L) and set of users
        controls: dict[tuple, tuple] = {}
        for i, fades in _block_fades(seed, block, sizes[block], kernels):
            cfg_i, _, _, families = runs[i]
            for family in families - _RATE_READERS:
                key = (cfg_i.rician_kappa, cfg_i.num_elements, _CONTROL_USERS[family])
                if key not in controls:
                    rows = _controls(fades, family)
                    controls[key] = ([float(np.add.reduce(a)) for a in rows],
                                     [[float(np.einsum("n,n->", a, b)) for b in rows[i:]]
                                      for i, a in enumerate(rows)])
            out[i] = _point_partials(*runs[i], fades, loss)
        return out, controls

    by_block = _map_blocks(run, range(len(sizes)), workers)
    fits = {}
    for key in by_block[0][1]:
        sums = [math.fsum(col) for col in zip(*(blk[1][key][0] for blk in by_block))]
        # the upper triangle of the products, mirrored
        upper = [[math.fsum(col) for col in zip(*(blk[1][key][1][i] for blk in by_block))]
                 for i in range(len(sums))]
        products = [[upper[min(i, j)][abs(j - i)] for j in range(len(sums))]
                    for i in range(len(sums))]
        fits[key] = _fit(sums, products, _control_means(*key), trials)

    results = []
    for i, ((c, _, powers, families), (_, _, ps_p, *_)) in enumerate(zip(runs, points)):
        own = {family: fits[c.rician_kappa, c.num_elements, users]
               for family, users in _CONTROL_USERS.items() if family in families}
        per_power = [_estimates([blk[0][i][k] for blk in by_block], trials, own,
                                c.target_rate_r + c.target_rate_t)
                     for k in range(len(powers))]
        results.append(per_power[0] if np.ndim(ps_p) == 0 else per_power)
    return results[0] if lone else results


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

"""Exact Monte Carlo simulation of the two-sided amplifying-surface NOMA
signal model, plus the orthogonal-access and passive-surface baselines and
the power-budget fairness mapping.

This simulator is the ground truth the closed forms are validated against:
it draws the actual Rician fades, the actual per-element thermal noise,
the exponential residual-interference power, and the disk-law user
distances.  The noise keeps its random phases, so given the channels h_u
its power has mean sigma_s^2 sum_l |h_u,l|^2 (L sigma_s^2 at unit-power
gains); the analysis substitutes zeta sigma_s^2, zeta = E|sum_l h_u,l|^2
the power of a coherent sum, which ``mean_noise_mode`` adopts here.

Random-number stream: trials run in fixed-size blocks, and each block
reads six SFC64 substreams keyed by SeedSequence spawn keys (seed, block,
purpose): h_s, h_r, h_t, the surface noise n_s, the residual power E and
the distance uniforms U.  No state is shared across blocks or purposes.
Only the trial count shapes what is drawn; the config acts afterwards,
through h = los + sc z, n_s = sqrt(sigma_s^2 / 2) z, sigma_re^2 E and
d = D sqrt(U).  The element streams are drawn one element row at a time,
in element order, and reduced to running sums as they go, so the
L-element draw is exactly the first L rows of any larger draw (the prefix
property), and a lone point's reduction is the same sequential loop
stopped at its L.  Each point's per-user terms (``_Fades``) are formed from
the sums, and (d/D)^alpha once per block for each alpha in the call.

One link kernel serves every estimator: in units of sigma_0^2 D^alpha each
decoding stage's SINR is A ps x / (B ps x + y + (1 + ps w) v^alpha), v = d/D
(``_sinr``), and each scheme's stages are the closed forms' table
(``decode_stages``).  The rates and the delay-tolerant throughput average
log2(1 + SINR) of each user's last stage at the drawn distances.  The
outage families and the delay-limited throughput integrate the two user
distances out exactly: given the fades a stage succeeds iff v^alpha lies
below a threshold, so the disk law gives P(outage | fades) in closed form.
Averaging that over trials (conditional Monte Carlo, a Rao-Blackwellization)
keeps the mean of the outage indicator at drawn distances and cannot widen
its CI.  A call that asks for no rate family does not draw the U stream,
and one that reads no ipSIC stage does not draw the E stream.

Where the amplified surface noise dominates, the per-user outages
integrate it out too.  Given the channels, the drawn noise y is
exponential with mean mu = lambda beta eta0 sigma_s^2 sum_l |h_u,l|^2 /
(sigma_0^2 D^alpha), so at alpha = 2 a stage without the residual power
has a closed-form outage given the channels alone
(``_integrated_outage``).  A point does this from nu = lambda eta0
sigma_s^2 L / (sigma_0^2 D^alpha) >= 1/4 on (``_edge_noise``), the noise's
mean at the cell edge over the receiver noise; below that the extra
passes cost more than the variance cut.  Integrated cells: outage_t, the
pSIC (and OMA) outage_r, and both users' terms of throughput_limited but
the ipSIC reflection user's.  The system outage, which needs the joint law
of the two users' noise, every ipSIC stage, whose threshold holds the
drawn residual w, the rates, mean-noise mode, the passive surface and
alpha != 2 keep the drawn noise.  What each cell reads is decided once
per point and call, from the point alone (``_plan``): the n_s stream is
drawn only when some cell reads drawn noise, and the channel powers
sum_l |h_u,l|^2 are summed only when some cell integrates it out or
regresses on them.

Each outage-type estimate then uses control variates.  The controls are
the phase-aligned cascade amplitude S_u = sum_l |h_s,l| |h_u,l| and its
square, whose means are exact: E S_u = L m and E S_u^2 = L v + (L m)^2,
with (m, v) the per-element product's mean and variance
(model.element_moments), so the Gamma fit does not enter.  A user's outage
regresses on its own pair (at alpha = 2 it is a clipped affine function of
S_u^2), the system outage and the delay-limited throughput on both users'
pairs.  At a point that integrates its noise out, a user's outage is a
smooth function of S_u^2 and of its noise mean, which is proportional to
the channel power P_u = sum_l |h_u,l|^2, so there outage_r and outage_t
regress on the full quadratic (S_u, S_u^2, P_u, P_u^2, S_u P_u) instead,
with E P_u = L, E P_u^2 = L M4 + L (L - 1) and E S_u P_u = L M1 M3 +
L (L - 1) m, M_k = E|h|^k of a unit-power envelope
(model.envelope_moments); on fig3a's cells that cuts the CI^2 of the pair
alone by 5x at L = 2 to 1180x at L = 40.  The estimate is
p-bar - beta . (X-bar - mu) with beta fitted by
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
families, or the SIC modes of a family, it names: at each power the
log2(1 + SINR) arrays are formed only for the rate keys, and the
conditional outage probabilities only for the users and SIC modes the
outage-type keys read.

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

from .analytic import _check_power
from .model import (ConfigError, NetworkConfig, decode_stages, element_moments,
                    envelope_moments, noise_power_factor, sample_distance, stage_gains)
from .numerics import NumericIntegrityError

__all__ = [
    "BLOCK_TRIALS",
    "Estimate",
    "METRICS",
    "MODE_FREE_METRICS",
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
# the transmission user's families, which no scheme keys by SIC mode
MODE_FREE_METRICS = frozenset({"outage_t", "rate_t"})

# the families read off the log2(1 + gamma) arrays at the drawn distances;
# a call without them skips the U stream
_RATE_READERS = frozenset({"rate_r", "rate_t", "throughput_tolerant"})

# a user at or above its zero power by this factor is not evaluated (_conditional_partials)
_ZERO_MARGIN = 1.0 + 1e-9

# a point integrates its amplified surface noise out of the per-user
# outages from this nu (_edge_noise) on: below it the integrated form's
# extra passes cost more than its variance cut pays for (README)
_INTEGRATE_FROM = 0.25
# the integrated outage's exponential is exactly 0 from this argument
# magnitude on: e^-37 < 2^-53, and no exp result is ever subnormal
_EXP_CUT = 37.0

# the families estimated conditional on the fades, and the users whose
# control rows each regresses on (see _controls): a user's outage on its
# own, the joint families on both
_CONTROL_USERS = {"outage_r": ("r",), "outage_t": ("t",),
                  "outage_system": ("r", "t"), "throughput_limited": ("r", "t")}
# the families that, at a point integrating its noise out (_integrates),
# regress on the full quadratic in (S_u, P_u), P_u = sum_l |h_u,l|^2, the
# channel power that the noise mean is proportional to (module notes);
# every other family and point keeps (S_u, S_u^2)
_POWER_CONTROLLED = frozenset({"outage_r", "outage_t"})

# a block's substreams; the index is the second word of each one's spawn key
_PURPOSES = ("h_s", "h_r", "h_t", "n_s", "E", "U")


class _Fades(NamedTuple):
    """Per-trial terms of a block at one (cfg, scheme), free of the transmit
    power and the user distances, in units of sigma_0^2 D^alpha: each
    user's control rows S_u and S_u^2 (the cascade amplitude, a running sum
    shared by every point at the block's (kappa, L), and its square) and,
    where the point's marginal outages regress on the channel power
    P_u = sum_l |h_u,l|^2, P_u, P_u^2 and S_u P_u, the power set; each
    user's signal x per unit power and amplified noise y at d = D (a float
    where no noise is drawn, None where no cell of the point reads it
    drawn), the residual power per unit power w (None where no cell reads
    an ipSIC stage), and the mean mu of each user's y given its channels,
    where the point integrates y out (None elsewhere; ``_plan``)."""

    rows_r: tuple[np.ndarray, ...]
    rows_t: tuple[np.ndarray, ...]
    x_r: np.ndarray
    x_t: np.ndarray
    y_r: np.ndarray | float | None
    y_t: np.ndarray | float | None
    w: np.ndarray | None
    mu_r: np.ndarray | None
    mu_t: np.ndarray | None


class _Point(NamedTuple):
    """A point of a simulate call and what its cells read (``_plan``): its
    config, scheme and powers; its rate keys; its outage-type cells (key,
    family, reads), reads the users a cell reads, reflection user first,
    each (name, integrated): name "t" or a SIC-mode suffix of
    ``decode_stages``, integrated whether its noise is integrated out given
    the channels; the set of those users; noise = (integrated, drawn),
    whether some cell, rates included, reads the noise that way; fits, each
    outage-type family's control key (kappa, L, users, power); and ipsic,
    whether some key reads an ipSIC stage, the one reader of w."""

    cfg: NetworkConfig
    scheme: str
    powers: list[float]
    rates: frozenset[str]
    cells: tuple[tuple[str, str, tuple[tuple[str, bool], ...]], ...]
    users: frozenset[tuple[str, bool]]
    noise: tuple[bool, bool]
    fits: dict[str, tuple]
    ipsic: bool


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
                  users: Sequence[str], noise: bool, power: bool = False) -> Iterator[dict]:
    """Reduce one block's element rows as they are drawn, in element order.

    After each element l = 1, 2, ... yields {kappa: (amp, nsum, psum)}
    where, for each user stream u in users, amp[u] = sum_{i<=l} |h_s,i|
    |h_u,i| is the phase-aligned cascade amplitude, nsum[u] = sum_{i<=l}
    z_n,i h_u,i the surface-noise sum in units of sqrt(sigma_s^2 / 2) (left
    empty without noise, and the n_s stream not drawn), and psum[u] =
    sum_{i<=l} |h_u,i|^2 the channel power (left empty without power).  The
    sums are rebound, never updated in place, so an array taken from a
    yield keeps its value.
    """
    streams = {p: _element_rows(seed, block, size, p)
               for p in ("h_s", *users, *(("n_s",) if noise else ()))}
    sums = {kappa: tuple({u: 0.0 for u in users} if on else {} for on in (True, noise, power))
            for kappa in kappas}
    while True:
        z = {p: next(rows) for p, rows in streams.items()}
        for kappa, (amp, nsum, psum) in sums.items():
            env_s = np.abs(_rician(kappa, z["h_s"]))
            for u in users:
                h_u = _rician(kappa, z[u])
                env_u = np.abs(h_u)
                term = env_s * env_u
                amp[u] = np.add(amp[u], term, out=term)
                if power:
                    np.multiply(env_u, env_u, out=env_u)
                    psum[u] = np.add(psum[u], env_u, out=env_u)
                if noise:
                    nsum[u] = nsum[u] + z["n_s"] * h_u
        yield sums


def _controls(fades: _Fades, family: str) -> tuple[np.ndarray, ...]:
    """The control rows an outage-type family regresses on, for each of its
    users (_CONTROL_USERS) in order: all of the user's rows (``_Fades``)
    for a marginal family, the first two, S_u and S_u^2, for a joint one."""
    users = _CONTROL_USERS[family]
    rows = {"r": fades.rows_r, "t": fades.rows_t}
    return tuple(row for user in users
                 for row in (rows[user] if len(users) == 1 else rows[user][:2]))


def _control_means(kappa: float, num_elements: int, users: tuple[str, ...],
                   power: bool) -> list[float]:
    """The exact means of a control key's rows (``_Point.fits``), in row
    order: E S_u = L m and E S_u^2 = L v + (L m)^2, with (m, v) the
    per-element product's mean and variance (model.element_moments), and
    with power E P_u = L, E P_u^2 = L M4 + L (L - 1) and
    E S_u P_u = L M1 M3 + L (L - 1) m, with M_k = E|h|^k of a unit-power
    envelope (model.envelope_moments).  The Gamma fit plays no part."""
    m, v = element_moments(kappa)
    mean = num_elements * m
    means = [mean, num_elements * v + mean * mean]
    if power:
        m1, m3, m4 = envelope_moments(kappa)
        pairs = num_elements * (num_elements - 1)
        means += [float(num_elements), num_elements * m4 + pairs,
                  num_elements * m1 * m3 + pairs * m]
    return means * len(users)


def _fades(point: _Point, amp: dict, nsum: dict, psum: dict,
           residual: np.ndarray | None) -> _Fades:
    """A block's fades at a point, from the element sums at its K-factor and
    element count and the standard exponentials of the residual power.
    The phase controller aligns the cascade, so its amplitude S is the sum
    of per-element products of envelopes: x = lambda beta eta0^2 d_s^-alpha
    S^2 / (sigma_0^2 D^alpha).  The thermal noise keeps its random phases:
    y = lambda beta eta0 N / (sigma_0^2 D^alpha), with N the drawn power
    1/2 sigma_s^2 |nsum|^2, its analysis value zeta sigma_s^2 in mean-noise
    mode, and 0 on the passive surface.  Given the channels, y is
    exponential with mean mu = lambda beta eta0 sigma_s^2 sum_l |h_u,l|^2 /
    (sigma_0^2 D^alpha).  The point's noise = (integrated, drawn) says which
    of mu and the drawn y its cells read, its fits whether the control rows
    include the channel power's, and its ipsic whether w is formed."""
    cfg, scheme = point.cfg, point.scheme
    unit = 1.0 / (cfg.noise_sigma_02 * cfg.radius_d ** cfg.path_alpha)
    lam = 1.0 if scheme == "pstars_noma" else cfg.amp_lambda
    bs_loss = cfg.path_eta0 ** 2 * cfg.dist_bs ** -cfg.path_alpha
    integrated, drawn = point.noise
    power = any(fit[3] for fit in point.fits.values())

    def control_rows(u):
        s = amp[u]
        if not power:
            return s, s * s
        p = psum[u]
        return s, s * s, p, p * p, s * p

    rows = {u: control_rows(u) for u in ("h_r", "h_t")}

    def user(u, beta):
        x = (lam * beta * bs_loss * unit) * rows[u][1]
        if scheme == "pstars_noma":
            return x, 0.0, None
        amp_noise = cfg.amp_lambda * beta * cfg.path_eta0 * unit
        if cfg.mean_noise_mode:
            zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
            return x, amp_noise * zeta * cfg.noise_sigma_s2, None
        y = amp_noise * (0.5 * cfg.noise_sigma_s2 * np.abs(nsum[u]) ** 2) if drawn else None
        return x, y, (amp_noise * cfg.noise_sigma_s2) * psum[u] if integrated else None

    (x_r, y_r, mu_r), (x_t, y_t, mu_t) = user("h_r", cfg.beta_r), user("h_t", cfg.beta_t)
    w = cfg.noise_sigma_re2 * residual / cfg.noise_sigma_02 if point.ipsic else None
    return _Fades(rows["h_r"], rows["h_t"], x_r, x_t, y_r, y_t, w, mu_r, mu_t)


def _distance_powers(seed: int, block: int, size: int, alphas: set[float]) -> dict:
    """One block's (d/D)^alpha, rows (reflection user, transmission user),
    for each path-loss exponent in alphas, all from one draw of the U
    stream; with no exponents nothing is drawn."""
    if not alphas:
        return {}
    radial = sample_distance(_stream(seed, block, "U"), 1.0, (2, size))
    return {alpha: radial ** alpha for alpha in alphas}


def _block_fades(seed: int, block: int, size: int,
                 points: Sequence[_Point]) -> Iterator[tuple[int, _Fades]]:
    """Draw one block's fades once and yield (index, fades) for every point
    of points (``_plan``), in order of element count.  The E stream is
    drawn only if some point reads an ipSIC stage, the n_s stream only if
    some cell reads drawn noise, and the channel powers are summed only if
    some cell integrates the noise out or regresses on them.  Raises
    NumericIntegrityError if any fade term, control rows included, is not
    finite."""
    residual = (_stream(seed, block, "E").standard_exponential(size)
                if any(point.ipsic for point in points) else None)
    by_length: dict[int, list[int]] = {}
    for i, point in enumerate(points):
        by_length.setdefault(point.cfg.num_elements, []).append(i)
    kappas = tuple(dict.fromkeys(point.cfg.rician_kappa for point in points))
    sums = _element_sums(seed, block, size, kappas, ("h_r", "h_t"),
                         noise=any(point.noise[1] for point in points),
                         power=any(point.noise[0] or any(fit[3] for fit in point.fits.values())
                                   for point in points))
    for L, at_l in zip(range(1, max(by_length) + 1), sums):
        for i in by_length.get(L, ()):
            fades = _fades(points[i], *at_l[points[i].cfg.rician_kappa], residual)
            if not all(np.isfinite(f).all()
                       for f in (*fades.rows_r, *fades.rows_t, *fades[2:]) if f is not None):
                raise NumericIntegrityError(
                    f"non-finite fade term: {points[i].scheme} block {block} at L = {L}")
            yield i, fades
            del fades


def _sinr(stage: tuple, x: np.ndarray, y: np.ndarray | float, w: np.ndarray,
          v_alpha: np.ndarray, ps: float) -> np.ndarray:
    """The link kernel: every trial's SINR at one decoding stage (A, B,
    gamma_hat, ipsic) of ``decode_stages``, at transmit power ps and the
    user's v^alpha = (d/D)^alpha, A ps x / (B ps x + y + (1 + ps w) v^alpha),
    with w read on the ipSIC stage alone (``_Fades``)."""
    a, b, _, ipsic = stage
    den = (v_alpha * (1.0 + ps * w) if ipsic else v_alpha) + y
    if b:
        den += (b * ps) * x
    return (a * ps) * x / den


def _moments(values: np.ndarray) -> tuple[float, float]:
    """(sum, sum of squares) of values."""
    return float(np.add.reduce(values)), float(np.add.reduce(np.multiply(values, values)))


def _partials(cfg: NetworkConfig, scheme: str, fades: _Fades, v_alpha: np.ndarray,
              ps: float, keys: frozenset[str]) -> dict[str, tuple[float, float]]:
    """Partial sums (sum, sum of squares) of one block at one transmit
    power for the rate keys of keys: log2(1 + SINR) of each user's last
    decoding stage at the drawn distances (rows of v_alpha: reflection
    user, transmission user), halved for astars_oma's slots.  A user, or a
    SIC mode of the reflection user, that no key reads is not evaluated."""
    stages_t, stages_r = decode_stages(cfg, scheme)

    def rate(stages, x, y, row):
        values = np.log2(1.0 + _sinr(stages[-1], x, y, fades.w, v_alpha[row], ps))
        return 0.5 * values if scheme == "astars_oma" else values

    out: dict[str, tuple[float, float]] = {}
    tolerant = any(key.startswith("throughput_tolerant") for key in keys)
    rate_t = rate(stages_t, fades.x_t, fades.y_t, 1) if tolerant or "rate_t" in keys else None
    if "rate_t" in keys:
        out["rate_t"] = _moments(rate_t)
    for suffix, stages in stages_r.items():
        if not {f"rate_r{suffix}", f"throughput_tolerant{suffix}"} & keys:
            continue
        rate_r = rate(stages, fades.x_r, fades.y_r, 0)
        if f"rate_r{suffix}" in keys:
            out[f"rate_r{suffix}"] = _moments(rate_r)
        if f"throughput_tolerant{suffix}" in keys:
            out[f"throughput_tolerant{suffix}"] = _moments(rate_r + rate_t)
    return out


def _thresholds(point: _Point, fades: _Fades) -> dict[tuple[str, bool], tuple]:
    """One block's outage evaluators at a point for the users its cells
    read, free of power and distance: {(name, integrated) (``_Point``):
    (stages, law)}.

    A stage of ``_sinr``'s form with gain k (``stage_gains``, which merges
    the stages without w) succeeds iff v^alpha < t = (ps k x - y) / (1 + ps w),
    with w = 0 off the ipSIC stage.  It is stored as (k, x, 1 + y, w), with
    w None where it is 0, and law None.

    A user read integrated, which has one stage, is read with y
    integrated out given the channels (``_integrated_outage``): its stage
    is stored as (k, x, 1 + C mu, None), C = 37, the offset from which its
    outage is exactly 0 (``_zero_power``), with the law (mu, 1/mu,
    -mu expm1(-1/mu)).
    """
    stages_t, stages_r = decode_stages(point.cfg, point.scheme)
    table = {"t": ("t", stages_t),
             **{suffix: ("r", stages) for suffix, stages in stages_r.items()}}
    terms = {"t": (fades.x_t, fades.y_t, fades.mu_t), "r": (fades.x_r, fades.y_r, fades.mu_r)}
    offsets: dict[str, np.ndarray | float] = {}
    users = {}
    for name, integrated in sorted(point.users):
        user, stages = table[name]
        x, y, mu = terms[user]
        k, *ks_ipsic = stage_gains(stages)
        if integrated:
            users[name, True] = ([(k, x, 1.0 + _EXP_CUT * mu, None)], _noise_law(mu))
            continue
        if user not in offsets:
            offsets[user] = 1.0 + y
        offset = offsets[user]
        users[name, False] = ([(k, x, offset, None)]
                              + [(k_i, x, offset, fades.w) for k_i in ks_ipsic], None)
    return users


def _outage(stages: list[tuple], ps: float, exponent: float) -> np.ndarray:
    """Per trial, the probability over the user's disk-law distance that
    some stage of its decoding fails at transmit power ps:
    1 - P((d/D)^alpha < t) = 1 - clip(t, 0, 1)^(2/alpha) at the smallest
    stage threshold t, with exponent = 2/alpha."""
    out = None
    for k, x, offset, w in stages:
        # 1 - t = (1 + y + ps w - ps k x) / (1 + ps w)
        fail = np.multiply(x, -ps * k)
        fail += offset
        if w is not None:
            den = np.multiply(w, ps)
            fail += den
            den += 1.0
            fail /= den
        out = fail if out is None else np.maximum(out, fail, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    if exponent != 1.0:
        np.subtract(1.0, out, out=out)
        np.power(out, exponent, out=out)
        np.subtract(1.0, out, out=out)
    return out


def _noise_law(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of ``_integrated_outage`` for noise means mu: (mu, 1/mu,
    -mu expm1(-1/mu)), the last the outage at T = 1."""
    inv = np.divide(1.0, mu)
    tail = np.expm1(-inv)
    tail *= -mu
    return mu, inv, tail


def _integrated_outage(stage: tuple, law: tuple, ps: float) -> np.ndarray:
    """Per trial, the outage probability of a one-stage user at alpha = 2
    over its disk-law distance and its drawn noise y ~ Exp(mu) given the
    channels, at transmit power ps: E_y[1 - clip(T - y, 0, 1)] with
    T = ps k x, which is

        mu e^(-(T - 1)/mu) (1 - e^(-1/mu))  for T >= 1,
        1 - T + mu (1 - e^(-T/mu))          for 0 <= T < 1,
        1                                   for T <= 0,

    from the stage (k, x, offset, None) and the law (mu, 1/mu,
    -mu expm1(-1/mu)) of ``_thresholds``.  One exp per trial, of
    -(T - [T >= 1])/mu, taken as exactly 0 from magnitude C = 37 on: that
    moves the first branch by at most 8.5e-17 and the second (where
    mu <= T/C < 1/C) by less than its rounding, and no exp result is
    subnormal."""
    k, x, _, _ = stage
    mu, inv_mu, tail = law
    t = np.multiply(x, ps * k)
    np.maximum(t, 0.0, out=t)
    high = t >= 1.0
    arg = np.subtract(high, t)
    arg *= inv_mu
    np.maximum(arg, -_EXP_CUT, out=arg)
    cut = arg == -_EXP_CUT
    e = np.exp(arg, out=arg)
    e[cut] = 0.0
    low = np.subtract(1.0, e)
    low *= mu
    low += np.subtract(1.0, t, out=t)
    np.multiply(tail, e, out=e)
    np.copyto(low, e, where=high)
    return low


def _user_outage(user: tuple, ps: float, exponent: float) -> np.ndarray:
    """Per trial, the outage probability of a user (stages, law) of
    ``_thresholds`` at transmit power ps, exponent = 2/alpha."""
    stages, law = user
    return _outage(stages, ps, exponent) if law is None else _integrated_outage(stages[0], law, ps)


def _zero_power(stages: list[tuple], top: float) -> float:
    """The transmit power from which a user's outage probability given the
    fades is exactly 0 at every trial of the block: the largest
    offset/(k x - w) over trials and stages (the offsets of
    ``_thresholds``), since a stage cannot fail once ps (k x - w) >= 1 + y,
    and an integrated user's exponential is cut to 0 once
    ps k x >= 1 + C mu; inf if some trial has k x <= w at some stage, which
    then fails at every power.  inf too when it lies above top, the largest
    power asked for; the block's first four trials, whose bound is a lower
    one, often show that without a pass over the block."""
    for n in (4, None):
        star = 0.0
        for k, x, offset, w in stages:
            den = np.multiply(x[:n], k)
            if w is not None:
                den -= w[:n]
            if not den.min() > 0.0:
                return math.inf
            offsets = offset[:n] if isinstance(offset, np.ndarray) else offset
            star = max(star, float(np.divide(offsets, den).max()))
        if star * _ZERO_MARGIN > top:
            return math.inf
    return star


def _cv_moments(values: np.ndarray | float,
                controls: tuple[np.ndarray, ...]) -> tuple[float, ...]:
    """(sum, sum of squares, sums of products with each control row) of one
    cell's per-trial values; the products by einsum, whose summation order
    depends on neither the BLAS build nor its thread count.  A float stands
    for a row of that value, and a row of exact zeros gives zeros without a
    pass."""
    if isinstance(values, float):
        if values == 0.0:
            return (0.0,) * (2 + len(controls))
        values = np.full(controls[0].shape, values)
    return (*_moments(values),
            *(float(np.einsum("n,n->", values, row)) for row in controls))


def _conditional_partials(point: _Point, users: dict[tuple, tuple],
                          zero_from: dict[tuple, float], ps: float,
                          controls: dict[str, tuple]) -> dict[str, tuple[float, ...]]:
    """Conditional partial sums of one block at one transmit power for the
    point's outage-type cells, from the users of ``_thresholds``: the sum
    and sum of squares of each trial's value given its fades, then its sums
    of products with the family's control rows (``_controls``).  The two
    distances are independent given the fades, so the system outage is
    p_r + p_t - p_r p_t, at the drawn noise, and the delay-limited
    throughput, linear in the two, (1 - p_r) R_r + (1 - p_t) R_t.  A user at
    or above its zero power (``_zero_power``; the 1e-9 relative margin
    keeps the float evaluation at exact 0 too) is not evaluated: its
    outage is the exact 0 that evaluating it gives."""
    cfg = point.cfg
    exponent = 2.0 / cfg.path_alpha
    probs: dict[tuple, np.ndarray | float] = {}
    out: dict[str, tuple[float, ...]] = {}
    for key, family, reads in point.cells:
        for user in reads:
            if user not in probs:
                probs[user] = (0.0 if ps >= zero_from[user] * _ZERO_MARGIN
                               else _user_outage(users[user], ps, exponent))
        # (p_r, p_t) for the joint families, the reflection user first
        p = [probs[user] for user in reads]
        if family == "outage_system":
            value = p[0] + p[1] - p[0] * p[1]
        elif family == "throughput_limited":
            value = (1.0 - p[0]) * cfg.target_rate_r + (1.0 - p[1]) * cfg.target_rate_t
        else:
            value = p[0]
        out[key] = _cv_moments(value, controls[family])
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
        family = _family(key)
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


def _point_partials(point: _Point, fades: _Fades, v_alpha: dict) -> list[dict]:
    """One point's partial sums of one block, one dict per power: the rate
    keys from its fades at the drawn distances (v_alpha, by path-loss
    exponent), the outage-type cells from its users' threshold
    coefficients and its control rows."""
    cfg, powers = point.cfg, point.powers
    parts: list[dict] = [{} for _ in powers]
    if point.rates:
        # d = 0 without amplified noise is an infinite SINR, refused by simulate
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for part, ps in zip(parts, powers):
                part.update(_partials(cfg, point.scheme, fades, v_alpha[cfg.path_alpha], ps,
                                      point.rates))
    if point.cells:
        users = _thresholds(point, fades)
        top = max(powers)
        zero_from = {user: _zero_power(stages, top) for user, (stages, _) in users.items()}
        controls = {family: _controls(fades, family) for family in point.fits}
        for part, ps in zip(parts, powers):
            part.update(_conditional_partials(point, users, zero_from, ps, controls))
    return parts


def _family(key: str) -> str:
    """The metric family of an estimate key: the key without its SIC mode."""
    return key.removesuffix("_psic").removesuffix("_ipsic")


def _keys(metrics: Iterable[str] | None, scheme: str) -> frozenset[str]:
    """The checked estimate keys that metrics name at scheme; None is every
    family.  A name is a family of METRICS, which for the NOMA schemes
    means each of its SIC modes, or one mode's estimate key of a family
    keyed by SIC mode (outage_r_psic); astars_oma keys every family bare
    and reads a key as its family.  An unknown name, or a family named
    together with one of its keys, raises ConfigError; an empty set
    ValueError."""
    names = frozenset(METRICS if metrics is None else metrics)
    if not names:
        raise ValueError("at least one metric family required")
    keyed = {name for name in names if _family(name) != name}
    unknown = sorted(name for name in names if _family(name) not in METRICS
                     or name in keyed and _family(name) in MODE_FREE_METRICS)
    if unknown:
        raise ConfigError(f"unknown metric families {unknown}; expected some of {METRICS}, "
                          f"those keyed by SIC mode optionally with _psic or _ipsic")
    doubled = sorted(name for name in keyed if _family(name) in names)
    if doubled:
        raise ConfigError(f"{doubled} name a SIC mode of a family also named whole")
    if scheme == "astars_oma":
        return frozenset(map(_family, names))
    return frozenset(key for name in names
                     for key in ((name,) if name in keyed or name in MODE_FREE_METRICS
                                 else (name + "_psic", name + "_ipsic")))


def _edge_noise(cfg: NetworkConfig) -> float:
    """nu = lambda eta0 sigma_s^2 L / (sigma_0^2 D^alpha): the mean
    amplified surface noise of a user at the cell edge, over the receiver
    noise, before the beta split (unit-power gains)."""
    return (cfg.amp_lambda * cfg.path_eta0 * cfg.noise_sigma_s2 * cfg.num_elements
            / (cfg.noise_sigma_02 * cfg.radius_d ** cfg.path_alpha))


def _integrates(cfg: NetworkConfig, scheme: str) -> bool:
    """Whether a point at (cfg, scheme) integrates the amplified noise out of
    its marginal users without an ipSIC stage: on the active surface with
    drawn noise, at alpha = 2, where nu (``_edge_noise``) is at least 1/4."""
    return (scheme != "pstars_noma" and not cfg.mean_noise_mode and cfg.path_alpha == 2.0
            and _edge_noise(cfg) >= _INTEGRATE_FROM)


def _plan(cfg: NetworkConfig, scheme: str, powers: list[float],
          keys: frozenset[str]) -> _Point:
    """The point (cfg, scheme, powers) with estimate keys keys (``_keys``),
    and what each of its cells reads (``_Point``): the one place that
    decides it.  outage_t, outage_r and throughput_limited (linear in the
    two) read a user's outage on its own, outage_system both users'
    jointly.  Where the point integrates (``_integrates``), a user read on
    its own without an ipSIC stage is read with its noise integrated out,
    and a family of _POWER_CONTROLLED regresses on the channel power; the
    system outage, the ipSIC stages and the rates read the noise drawn, and
    nothing reads it on the passive surface or in mean-noise mode.  The
    control rows depend on the config through kappa and L alone."""
    integrates = _integrates(cfg, scheme)
    rates = frozenset(key for key in keys if _family(key) in _RATE_READERS)
    cells = []
    for key in sorted(keys - rates):
        family = _family(key)
        suffix = key[len(family):]
        names = {"outage_t": ("t",), "outage_r": (suffix,)}.get(family, (suffix, "t"))
        cells.append((key, family, tuple(
            (name, integrates and family != "outage_system" and name != "_ipsic")
            for name in names)))
    users = frozenset(user for _, _, reads in cells for user in reads)
    noisy = scheme != "pstars_noma" and not cfg.mean_noise_mode
    noise = (any(integrated for _, integrated in users),
             noisy and (bool(rates) or not all(integrated for _, integrated in users)))
    fits = {family: (cfg.rician_kappa, cfg.num_elements, _CONTROL_USERS[family],
                     family in _POWER_CONTROLLED and integrates) for _, family, _ in cells}
    return _Point(cfg, scheme, powers, rates, tuple(cells), users, noise, fits,
                  any(key.endswith("_ipsic") for key in keys))


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
    outage_t and rate_t are bare; astars_oma keys every family bare.
    metrics may also name such a key: a point then evaluates and returns
    that SIC mode of the family alone, and astars_oma reads the key as its
    family.  An unknown name, or a family named with one of its own keys,
    raises ConfigError, an empty set ValueError.

    Whether a point integrates the amplified surface noise out of its
    per-user outages is fixed by its config alone (the module notes), so
    it never depends on what shares its call.
    """
    lone = isinstance(cfg, NetworkConfig)
    points = [(cfg, scheme, ps)] if lone else list(cfg)
    if not points:
        raise ValueError("at least one point required")
    plan = []
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
        plan.append(_plan(cfg_p, scheme_p, powers, _keys(own[0] if own else metrics, scheme_p)))
    trials = points[0][0].mc_trials if trials is None else int(trials)
    if trials < 1:
        raise ValueError("at least one trial required")
    seed = points[0][0].seed if seed is None else int(seed)
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    alphas = {point.cfg.path_alpha for point in plan if point.rates}

    def run(block: int) -> tuple[list, dict]:
        v_alpha = _distance_powers(seed, block, sizes[block], alphas)
        out: list = [None] * len(plan)
        # the sums and the full product matrix of the control rows each
        # outage-type family reads, once per control key (_plan): the lower
        # triangle, mirrored (einsum's matrix is symmetric bit for bit)
        controls: dict[tuple, tuple] = {}
        for i, fades in _block_fades(seed, block, sizes[block], plan):
            for family, key in plan[i].fits.items():
                if key not in controls:
                    rows = _controls(fades, family)
                    products = [[0.0] * len(rows) for _ in rows]
                    for a in range(len(rows)):
                        for b in range(a + 1):
                            products[a][b] = products[b][a] = float(
                                np.einsum("n,n->", rows[a], rows[b]))
                    controls[key] = ([float(np.add.reduce(row)) for row in rows], products)
            out[i] = _point_partials(plan[i], fades, v_alpha)
            del fades
            if not np.isfinite([v for p in out[i] for cell in p.values() for v in cell]).all():
                raise NumericIntegrityError(f"non-finite partial sum: {plan[i].scheme} block {block}")
        return out, controls

    by_block = _map_blocks(run, range(len(sizes)), workers)
    fits = {}
    for key in by_block[0][1]:
        sums = [math.fsum(col) for col in zip(*(blk[1][key][0] for blk in by_block))]
        products = [[math.fsum(col) for col in zip(*(blk[1][key][1][i] for blk in by_block))]
                    for i in range(len(sums))]
        fits[key] = _fit(sums, products, _control_means(*key), trials)

    results = []
    for i, (point, (_, _, ps_p, *_)) in enumerate(zip(plan, points)):
        own = {family: fits[key] for family, key in point.fits.items()}
        per_power = [_estimates([blk[0][i][k] for blk in by_block], trials, own,
                                point.cfg.target_rate_r + point.cfg.target_rate_t)
                     for k in range(len(point.powers))]
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

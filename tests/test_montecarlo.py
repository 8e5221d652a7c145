"""Simulator tests: channel-draw statistics, SINR structure, the prefix
property of the element stream, determinism under worker-count changes and
sweep sharing, the power-budget model, and the baselines.

The archived reference block pins the exact estimates produced at the
default seed with 10^6 trials; any change to the draw order or reduction
is a breaking change and must show up here.

The raw indicator estimator of the outage families and the delay-limited
throughput lives here, as the oracle of the simulator's conditional
estimator (``raw_outages``): it counts each trial's outage events at its
drawn distances, from the simulator's own fades, distances and link
kernel.  That kernel is anchored to the signal model separately, by
rebuilding every stage's SINR in watts from the raw streams.
"""

import math
import weakref
from collections import deque
from dataclasses import replace
from itertools import islice

import mpmath
import numpy as np
import pytest

from astars_noma import montecarlo as mc
from astars_noma.analytic import NumericIntegrityError, SicMode
from astars_noma.model import (ConfigError, NetworkConfig, dbm_to_watts, decode_stages,
                               noise_power_factor, target_sinr)
from astars_noma.montecarlo import (BLOCK_TRIALS, SCHEMES, _block_fades, _distance_powers,
                                    _element_rows, _element_sums, _rician, _sinr, _stream,
                                    budget_to_ps, simulate, surface_output_power)

CFG = NetworkConfig()

# frozen at seed=123456789, 10^6 trials, Q_tot = 30 dBm (active budget);
# the outage and throughput_limited entries are the raw indicator
# estimates (raw_outages), the rest simulate's
ARCHIVE_PS = 0.9997799994000122
ARCHIVE = {
    "outage_r_ipsic": (7.7e-05, 1.7198268027728837e-05),
    "outage_r_psic": (0.0, 3.688872650206489e-06),
    "outage_system_ipsic": (7.9e-05, 1.7420172920335778e-05),
    "outage_system_psic": (2e-06, 2.7718558103912984e-06),
    "outage_t": (2e-06, 2.7718558103912984e-06),
    "rate_r_ipsic": (4.982998580280149, 0.0031773247407328007),
    "rate_r_psic": (5.796470891248828, 0.0029877965014790463),
    "rate_t": (1.6751490899615826, 9.771629758639294e-05),
    "throughput_limited_ipsic": (1.999921, 1.7420181630451733e-05),
    "throughput_limited_psic": (1.999998, 2.7718571962991363e-06),
    "throughput_tolerant_ipsic": (6.658147670241731, 0.003189966330062579),
    "throughput_tolerant_psic": (7.47161998121041, 0.003001576508036357),
}


# simulate's own outage and throughput_limited estimates at the same point,
# conditional on the fades and with control variates
ARCHIVE_CONDITIONAL = {
    "outage_r_ipsic": (7.093083104288822e-05, 8.790376431356877e-06),
    "outage_r_psic": (1.1240502387827996e-07, 2.2241972951033203e-07),
    "outage_system_ipsic": (7.387648159099852e-05, 8.932205262021556e-06),
    "outage_system_psic": (3.1064392948790106e-06, 1.553418501334202e-06),
    "outage_t": (2.9969263378286737e-06, 1.53743320532807e-06),
    "throughput_limited_ipsic": (1.9999260810526867, 8.940629498755384e-06),
    "throughput_limited_psic": (1.999996893560705, 1.5534185017781765e-06),
}

# the families the raw oracle estimates
OUTAGE_FAMILIES = ("outage_r", "outage_t", "outage_system", "throughput_limited")


def plan(cfg, scheme="astars_noma", names=None):
    """simulate's plan of the point (cfg, scheme) at one power, estimating
    the families or keys names (None: every family)."""
    return mc._plan(cfg, scheme, [1.0], mc._keys(names, scheme))


def block_fades(cfg, scheme="astars_noma", size=64, seed=0, block=0):
    """One block of one (cfg, scheme): its fades and its drawn (d/D)^alpha,
    rows (reflection user, transmission user)."""
    [(_, fades)] = _block_fades(seed, block, size, [plan(cfg, scheme)])
    return fades, _distance_powers(seed, block, size, {cfg.path_alpha})[cfg.path_alpha]


def stage_sinrs(cfg, scheme, fades, v_alpha, ps):
    """Every decoding stage's SINR per trial, by the simulator's link
    kernel: the transmission user's list, and the reflection user's keyed
    by SIC-mode suffix."""
    stages_t, stages_r = decode_stages(cfg, scheme)

    def user(stages, x, y, row):
        return [_sinr(stage, x, y, fades.w, v_alpha[row], ps) for stage in stages]

    return (user(stages_t, fades.x_t, fades.y_t, 1),
            {suffix: user(stages, fades.x_r, fades.y_r, 0) for suffix, stages in stages_r.items()})


def raw_indicators(cfg, scheme, fades, v_alpha, ps):
    """Each trial's outage events at its drawn distances: the transmission
    user's, and the reflection user's keyed by SIC-mode suffix.  A user is
    in outage when some stage of its decoding misses its target."""
    stages_t, stages_r = decode_stages(cfg, scheme)
    gammas_t, gammas_r = stage_sinrs(cfg, scheme, fades, v_alpha, ps)

    def missed(stages, gammas):
        return np.logical_or.reduce([g <= stage[2] for stage, g in zip(stages, gammas)])

    return (missed(stages_t, gammas_t),
            {suffix: missed(stages_r[suffix], gammas) for suffix, gammas in gammas_r.items()})


def raw_outages(cfg, scheme, ps, trials, seed):
    """The raw estimates {key: (mean, ci95 half-width)} of the outage
    families and the delay-limited throughput, on simulate's blocks: event
    counts with the Wald CI (the exact bound 1 - 0.025^(1/n) at 0 or n
    events), and the per-trial throughput (1 - 1_r) R_r + (1 - 1_t) R_t
    with the sample-variance CI of its exact (fsum) block sums."""
    counts, moments = {}, {}
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        size = min(BLOCK_TRIALS, trials - start)
        out_t, out_r = raw_indicators(cfg, scheme, *block_fades(cfg, scheme, size, seed, block), ps)
        events = {"outage_t": out_t}
        for suffix, out in out_r.items():
            events[f"outage_r{suffix}"] = out
            events[f"outage_system{suffix}"] = out | out_t
            moments.setdefault(f"throughput_limited{suffix}", []).append(mc._moments(
                (1.0 - out) * cfg.target_rate_r + (1.0 - out_t) * cfg.target_rate_t))
        for key, event in events.items():
            counts[key] = counts.get(key, 0) + int(np.count_nonzero(event))
    bound = -math.expm1(math.log(0.025) / trials)
    raw = {key: (k / trials, bound if k in (0, trials)
                 else 1.96 * math.sqrt(k / trials * (1.0 - k / trials) / trials))
           for key, k in counts.items()}
    for key, parts in moments.items():
        total, total_sq = (math.fsum(col) for col in zip(*parts))
        var = max(total_sq - total * total / trials, 0.0) / (trials - 1)
        raw[key] = (total / trials, 1.96 * math.sqrt(var / trials))
    return raw


# ---------------------------------------------------------------------------
# block draws
# ---------------------------------------------------------------------------

def test_draw_trial_shapes_and_ranges():
    size = 64
    rows = list(islice(_element_rows(0, 0, size, "h_s"), CFG.num_elements))
    assert all(row.shape == (size,) and row.dtype == np.complex128 for row in rows)
    fades, v_alpha = block_fades(CFG, size=size)
    # the noise means mu are formed only where a point integrates the noise out
    assert fades.mu_r is None and fades.mu_t is None
    # no channel-power rows at a point that does not integrate the noise out
    assert len(fades.rows_r) == len(fades.rows_t) == 2
    assert all(f.shape == (size,) for f in (*fades.rows_r, *fades.rows_t, *fades[2:])
               if f is not None)
    assert np.all(fades.w >= 0.0)
    assert np.all(fades.x_r > 0.0) and np.all(fades.x_t > 0.0)
    assert np.all(fades.y_r >= 0.0) and np.all(fades.y_t >= 0.0)
    assert v_alpha.shape == (2, size) and np.all((0.0 < v_alpha) & (v_alpha <= 1.0))


def test_pure_los_limit_gains_become_deterministic():
    # every envelope is 1, so the cascade amplitude after l elements is l
    sums = _element_sums(1, 0, 64, (1e12,), ("h_r",), noise=False)
    for L, at_l in zip(range(1, CFG.num_elements + 1), sums):
        assert np.allclose(at_l[1e12][0]["h_r"], L, atol=1e-5)


def test_small_scale_gain_unit_power():
    n = 1_000_000
    h = _rician(CFG.rician_kappa, next(_element_rows(2, 0, n, "h_r")))
    power = np.abs(h) ** 2
    se = power.std(ddof=1) / math.sqrt(n)
    assert abs(power.mean() - 1.0) < 3.0 * se


def test_random_phase_sum_power_matches_noise_factor():
    n, L = 1_000_000, CFG.num_elements
    h = sum(_rician(CFG.rician_kappa, z) for z in islice(_element_rows(3, 0, n, "h_t"), L))
    power = np.abs(h) ** 2
    zeta = noise_power_factor(CFG.rician_kappa, L)
    se = power.std(ddof=1) / math.sqrt(n)
    assert abs(power.mean() - zeta) < 3.0 * se


def test_residual_power_is_exponential_with_configured_mean():
    draws = block_fades(CFG, size=20_000, seed=4)[0].w * CFG.noise_sigma_02
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - CFG.noise_sigma_re2) < 3.0 * se


@pytest.mark.parametrize("purpose", ["h_s", "h_r", "h_t", "n_s"])
@pytest.mark.parametrize("L", [1, 2, 7])
def test_element_rows_are_prefixes_of_a_larger_draw(purpose, L):
    longest = list(islice(_element_rows(5, 3, 100, purpose), 40))
    assert all(np.array_equal(a, b) for a, b in
               zip(islice(_element_rows(5, 3, 100, purpose), L), longest[:L]))
    # the running sums at L are the sequential sum of those first L rows
    kappa = CFG.rician_kappa
    amp = nsum = 0.0
    noise = list(islice(_element_rows(5, 3, 100, "n_s"), L))
    for z_s, z_u, z_n in zip(list(islice(_element_rows(5, 3, 100, "h_s"), L)),
                             list(islice(_element_rows(5, 3, 100, "h_r"), L)), noise):
        amp = amp + np.abs(_rician(kappa, z_s)) * np.abs(_rician(kappa, z_u))
        nsum = nsum + z_n * _rician(kappa, z_u)
    at_l = list(islice(_element_sums(5, 3, 100, (kappa,), ("h_r",), True), L))[-1]
    assert np.array_equal(at_l[kappa][0]["h_r"], amp)
    assert np.array_equal(at_l[kappa][1]["h_r"], nsum)


def test_purposes_draw_distinct_streams():
    first = {p: _stream(6, 0, p).standard_normal(8) for p in mc._PURPOSES}
    assert len({row.tobytes() for row in first.values()}) == len(mc._PURPOSES)


def test_stream_keys():
    # every (seed, block, purpose) key opens its own stream
    keys = [(seed, block, p) for seed in (0, 1, 2 ** 63) for block in range(64)
            for p in mc._PURPOSES]
    first = {_stream(*key).standard_normal(8).tobytes() for key in keys}
    assert len(first) == len(keys)
    # the seed is read mod 2^64, so a negative seed is accepted
    for seed in (0, 5, 2 ** 63 + 7, -1, -(2 ** 70)):
        draw = _stream(seed, 3, "n_s").standard_normal(8)
        assert np.array_equal(draw, _stream(seed + 2 ** 64, 3, "n_s").standard_normal(8))


def test_non_finite_draw_raises_naming_scheme_block_and_length(monkeypatch):
    real = mc._element_rows

    def poisoned(seed, block, size, purpose):
        for l, row in enumerate(real(seed, block, size, purpose)):
            if block == 1 and purpose == "h_t" and l == 2:
                row = row.copy()
                row[5] = complex(math.nan, 0.0)
            yield row

    monkeypatch.setattr(mc, "_element_rows", poisoned)
    cfg = replace(CFG, num_elements=4)
    with pytest.raises(NumericIntegrityError, match=r"astars_noma block 1 at L = 4"):
        simulate(cfg, "astars_noma", 1.0, trials=3 * BLOCK_TRIALS)
    # the element count before the poisoned row reads clean rows only
    simulate(replace(CFG, num_elements=2), "astars_noma", 1.0, trials=3 * BLOCK_TRIALS)


def test_non_finite_control_row_raises(monkeypatch):
    # an ipSIC outage reads the noise drawn, so no mu is built from P_r at
    # its power point: the check reads the control rows themselves
    real = mc._fades

    def poisoned(*args):
        fades = real(*args)
        s, s2, p, p2, sp = fades.rows_r
        assert fades.mu_r is None
        return fades._replace(rows_r=(s, s2, np.where(np.arange(p.size) == 7, math.inf, p),
                                      p2, sp))

    monkeypatch.setattr(mc, "_fades", poisoned)
    with pytest.raises(NumericIntegrityError, match=r"non-finite fade term: astars_noma block 0"):
        simulate(FIG3A_CFG, "astars_noma", FIG3A_PS, trials=500, metrics=("outage_r_ipsic",))


# ---------------------------------------------------------------------------
# SINR structure
# ---------------------------------------------------------------------------

# the schemes and model switches of the link kernel: drawn noise, the
# passive surface, orthogonal slots, mean-noise mode, and alpha != 2 with
# D != 35, where the units sigma_0^2 D^alpha do not cancel by accident
KERNEL_CELLS = [(CFG, "astars_noma"), (CFG, "pstars_noma"), (CFG, "astars_oma"),
                (replace(CFG, mean_noise_mode=True), "astars_noma"),
                (replace(CFG, path_alpha=3.0, radius_d=20.0), "astars_noma")]


def test_stage_sinrs_rebuilt_in_watts_from_the_raw_streams():
    # every stage's SINR of the link kernel against the signal model written
    # out in watts from the block's raw h_s, h_r, h_t, n_s, E and U streams:
    # signal lambda beta ps eta0^2 d_s^-alpha d^-alpha S^2 with the aligned
    # amplitude S = sum_l |h_s,l| |h_u,l|, amplified noise
    # lambda beta eta0 d^-alpha N, receiver noise sigma_0^2, and the
    # residual sigma_re^2 E ps on the ipSIC stage alone
    size, seed = 400, 8
    for cfg, scheme in KERNEL_CELLS:
        L, kappa, alpha = cfg.num_elements, cfg.rician_kappa, cfg.path_alpha
        rows = {p: [_rician(kappa, z) for z in islice(_element_rows(seed, 0, size, p), L)]
                for p in ("h_s", "h_r", "h_t")}
        z_n = list(islice(_element_rows(seed, 0, size, "n_s"), L))
        residual = cfg.noise_sigma_re2 * _stream(seed, 0, "E").standard_exponential(size)
        dist = cfg.radius_d * np.sqrt(_stream(seed, 0, "U").random((2, size)))
        lam = 1.0 if scheme == "pstars_noma" else cfg.amp_lambda

        def watts(u, beta, d, ps):
            amp = sum(np.abs(h_s) * np.abs(h_u) for h_s, h_u in zip(rows["h_s"], rows[u]))
            signal = (lam * beta * ps * cfg.path_eta0 ** 2 * cfg.dist_bs ** -alpha
                      * d ** -alpha * amp ** 2)
            if scheme == "pstars_noma":
                power = 0.0
            elif cfg.mean_noise_mode:
                power = noise_power_factor(kappa, L) * cfg.noise_sigma_s2
            else:
                power = 0.5 * cfg.noise_sigma_s2 * np.abs(sum(
                    z * h_u for z, h_u in zip(z_n, rows[u]))) ** 2
            return signal, lam * beta * cfg.path_eta0 * d ** -alpha * power + cfg.noise_sigma_02

        fades, v_alpha = block_fades(cfg, scheme, size, seed)
        for ps in (0.1, 1.0, 10.0):
            s_r, n_r = watts("h_r", cfg.beta_r, dist[0], ps)
            s_t, n_t = watts("h_t", cfg.beta_t, dist[1], ps)
            g_r, g_t = target_sinr(cfg.target_rate_r), target_sinr(cfg.target_rate_t)
            if scheme == "astars_oma":
                # dedicated slots: full power, doubled spectral-efficiency target
                want = ([(s_t / n_t, target_sinr(2.0 * cfg.target_rate_t))],
                        {"": [(s_r / n_r, target_sinr(2.0 * cfg.target_rate_r))]})
            else:
                first = (cfg.a_t * s_r / (cfg.a_r * s_r + n_r), g_t)
                want = ([(cfg.a_t * s_t / (cfg.a_r * s_t + n_t), g_t)],
                        {"_psic": [first, (cfg.a_r * s_r / n_r, g_r)],
                         "_ipsic": [first, (cfg.a_r * s_r / (n_r + residual * ps), g_r)]})
            got = stage_sinrs(cfg, scheme, fades, v_alpha, ps)
            stages_t, stages_r = decode_stages(cfg, scheme)
            assert set(stages_r) == set(want[1])
            for gammas, stages, expect in ((got[0], stages_t, want[0]),
                                           *((got[1][k], stages_r[k], want[1][k])
                                             for k in want[1])):
                assert [s[2] for s in stages] == [target for _, target in expect]
                for gamma, (wanted, _) in zip(gammas, expect, strict=True):
                    np.testing.assert_allclose(gamma, wanted, rtol=1e-12)
                    assert np.all(gamma > 0.0)


# the NOMA cells of the kernel, whose stages share the power split
NOMA_KERNEL_CELLS = [(cfg, scheme) for cfg, scheme in KERNEL_CELLS if scheme != "astars_oma"]


def test_sinr_set_positive_and_ordered():
    for cfg, scheme in NOMA_KERNEL_CELLS:
        (gamma_t,), gammas_r = stage_sinrs(cfg, scheme, *block_fades(cfg, scheme, 50, 5), 1.0)
        first, psic = gammas_r["_psic"]
        first_ipsic, ipsic = gammas_r["_ipsic"]
        for gamma in (first, psic, ipsic, gamma_t):
            assert np.all(gamma > 0.0)
        # both SIC modes decode the transmission user's message alike
        np.testing.assert_array_equal(first_ipsic, first)
        # residual interference can only hurt the post-SIC SINR
        assert np.all(ipsic <= psic)
        # interference-limited ceilings
        assert np.all(first < cfg.a_t / cfg.a_r)
        assert np.all(gamma_t < cfg.a_t / cfg.a_r)


def test_sinr_monotone_in_power():
    # every NOMA stage's SINR rises with the transmit power
    for cfg, scheme in NOMA_KERNEL_CELLS:
        fades, v_alpha = block_fades(cfg, scheme, 50, 6)
        (lo_t,), lo_r = stage_sinrs(cfg, scheme, fades, v_alpha, 0.1)
        (hi_t,), hi_r = stage_sinrs(cfg, scheme, fades, v_alpha, 10.0)
        assert np.all(hi_t > lo_t)
        for suffix in ("_psic", "_ipsic"):
            assert all(np.all(hi > lo) for hi, lo in zip(hi_r[suffix], lo_r[suffix]))


def test_mean_noise_mode_freezes_amplified_noise():
    # reconstruct gamma_r_psic from the raw streams of the block:
    # lambda beta_r eta0 d^-a sigma_s^2 zeta replaces the drawn noise
    cfg = replace(CFG, mean_noise_mode=True)
    size, L, kappa = 50, cfg.num_elements, cfg.rician_kappa
    zeta = noise_power_factor(kappa, L)
    _, gammas_r = stage_sinrs(cfg, "astars_noma", *block_fades(cfg, size=size, seed=8), 1.0)
    gamma_r_psic = gammas_r["_psic"][-1]
    amp = sum(np.abs(_rician(kappa, z_s)) * np.abs(_rician(kappa, z_r)) for z_s, z_r in
              zip(islice(_element_rows(8, 0, size, "h_s"), L),
                  islice(_element_rows(8, 0, size, "h_r"), L)))
    d_r = cfg.radius_d * np.sqrt(_stream(8, 0, "U").random((2, size))[0])
    gain = cfg.path_eta0 ** 2 * (cfg.dist_bs * d_r) ** -2.0 * amp ** 2
    noise = (cfg.amp_lambda * cfg.beta_r * cfg.path_eta0 * d_r ** -2.0
             * zeta * cfg.noise_sigma_s2 + cfg.noise_sigma_02)
    expect = cfg.a_r * cfg.amp_lambda * cfg.beta_r * 1.0 * gain / noise
    np.testing.assert_allclose(gamma_r_psic, expect, rtol=1e-12)


def test_drawn_noise_mean_is_sigma_s2_times_the_channel_power():
    # given the user's channels, the drawn surface noise 1/2 sigma_s^2
    # |sum_l z_l h_u,l|^2 has mean sigma_s^2 sum_l |h_u,l|^2 (L sigma_s^2 at
    # unit-power gains), not the analysis value zeta sigma_s^2 = E|sum_l
    # h_u,l|^2 sigma_s^2 of a coherent sum; read off the simulator's own y
    n, seed = 100_000, 9
    cfg = CFG
    fades, _ = block_fades(cfg, size=n, seed=seed)
    unit = 1.0 / (cfg.noise_sigma_02 * cfg.radius_d ** cfg.path_alpha)
    for y, beta, stream in ((fades.y_r, cfg.beta_r, "h_r"), (fades.y_t, cfg.beta_t, "h_t")):
        drawn = y / (cfg.amp_lambda * beta * cfg.path_eta0 * unit)
        power = sum(np.abs(_rician(cfg.rician_kappa, z)) ** 2
                    for z in islice(_element_rows(seed, 0, n, stream), cfg.num_elements))
        diff = drawn - cfg.noise_sigma_s2 * power
        assert abs(diff.mean()) < 3.0 * diff.std(ddof=1) / math.sqrt(n)
        zeta = noise_power_factor(cfg.rician_kappa, cfg.num_elements)
        assert drawn.mean() < 0.5 * zeta * cfg.noise_sigma_s2


def test_sinr_set_rejects_nonpositive_power():
    # a bad power in any point of a call fails the call before any draw
    for ps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            simulate([(CFG, "astars_noma", 1.0), (CFG, "astars_oma", [1.0, ps])], trials=1)


def test_mean_noise_mode_isolates_the_analysis_noise_substitution():
    # the analysis replaces the drawn amplified noise by its mean power;
    # flipping the switch makes the simulator adopt the same substitution,
    # so the remaining analytic-vs-mc gap is the Gamma moment fit alone
    cfg = NetworkConfig(a_r=0.2, a_t=0.8)
    ps = dbm_to_watts(20.0)
    from astars_noma.analytic import ergodic_rate_r
    analytic = ergodic_rate_r(cfg, SicMode.PSIC, ps)
    exact = simulate(cfg, "astars_noma", ps, trials=400_000, seed=77)
    matched = simulate(replace(cfg, mean_noise_mode=True), "astars_noma", ps,
                       trials=400_000, seed=77)
    gap_exact = abs(analytic - exact["rate_r_psic"].mean)
    gap_matched = abs(analytic - matched["rate_r_psic"].mean)
    assert gap_matched < gap_exact
    assert gap_matched / analytic < 0.005


# ---------------------------------------------------------------------------
# estimates: determinism, archive, bounds
# ---------------------------------------------------------------------------

def test_archived_reference_block_bit_exact():
    # the raw outage entries through the oracle, the rates through simulate,
    # and simulate's outage estimates against their own archive
    sims = simulate(CFG, "astars_noma", ARCHIVE_PS, trials=1_000_000)
    raw = raw_outages(CFG, "astars_noma", ARCHIVE_PS, 1_000_000, CFG.seed)
    assert set(sims) == set(ARCHIVE)
    assert set(raw) == set(ARCHIVE_CONDITIONAL)
    for key, want in ARCHIVE.items():
        got = raw[key] if key in raw else (sims[key].mean, sims[key].ci95_halfwidth)
        assert got == want, key
    for key, want in ARCHIVE_CONDITIONAL.items():
        assert (sims[key].mean, sims[key].ci95_halfwidth) == want, key
        assert not sims[key].fallback
    assert all(est.trials == 1_000_000 for est in sims.values())


# the schemes and the model switches that change the conditional kernel
COND_CELLS = [(CFG, "astars_noma"), (CFG, "astars_oma"), (CFG, "pstars_noma"),
              (replace(CFG, mean_noise_mode=True), "astars_noma"),
              (replace(CFG, path_alpha=3.0), "astars_noma")]

# fig3a's config at L = 10, where the amplified surface noise decides the
# outage (nu = 82): its marginal users integrate the noise out, its system
# outage and ipSIC stage read it drawn
FIG3A_CFG = replace(CFG, amp_lambda=10.0, noise_sigma_s2=dbm_to_watts(-30.0))
FIG3A_COND_CELLS = COND_CELLS + [(FIG3A_CFG, "astars_noma"), (FIG3A_CFG, "astars_oma")]
FIG3A_COND_IDS = ["noma", "oma", "pstars", "mean_noise", "alpha3", "fig3a", "fig3a_oma"]


def test_worker_count_leaves_estimates_bit_identical():
    # at 40 dBm some blocks of the pSIC cells have an exactly-zero outage
    # and are not evaluated
    powers = [dbm_to_watts(d) for d in (5.0, 20.0, 40.0)]
    for cfg, scheme in COND_CELLS:
        runs = [simulate(cfg, scheme, powers, trials=3 * BLOCK_TRIALS + 17,
                         seed=99, workers=w) for w in (1, 2, 7)]
        for other in runs[1:]:
            for many, one in zip(other, runs[0]):
                for key, est in one.items():
                    assert many[key].mean == est.mean, (scheme, key)
                    assert many[key].ci95_halfwidth == est.ci95_halfwidth, (scheme, key)


def test_seed_changes_estimates():
    ps = dbm_to_watts(15.0)
    a = simulate(CFG, "astars_noma", ps, trials=20_000, seed=1)
    b = simulate(CFG, "astars_noma", ps, trials=20_000, seed=2)
    assert a["outage_r_psic"].mean != b["outage_r_psic"].mean


@pytest.mark.parametrize("scheme", SCHEMES)
def test_power_vector_matches_single_power_calls(scheme):
    powers = [dbm_to_watts(d) for d in (0.0, 15.0, 30.0)]
    trials = 3 * BLOCK_TRIALS + 17
    singles = [simulate(CFG, scheme, ps, trials=trials, seed=99) for ps in powers]
    for workers in (1, 2, 7):
        batched = simulate(CFG, scheme, powers, trials=trials, seed=99, workers=workers)
        assert len(batched) == len(powers)
        for one, many in zip(singles, batched):
            assert list(many) == list(one)
            for key, est in one.items():
                assert many[key] == est, (workers, key)


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_sweep_point_equals_its_lone_call(workers):
    # every point of one call, whatever else shares it, gets the estimates
    # of a call with that point alone
    trials = 2 * BLOCK_TRIALS + 17
    powers = [dbm_to_watts(d) for d in (0.0, 20.0)]
    points = [(replace(CFG, num_elements=L), scheme, powers)
              for L in (1, 2, 7, 40) for scheme in SCHEMES]
    points += [(replace(CFG, rician_kappa=10.0, num_elements=7), "astars_noma", powers[1]),
               (replace(CFG, mean_noise_mode=True, amp_lambda=8.0), "astars_noma", powers),
               (replace(CFG, radius_d=20.0, a_r=0.2, a_t=0.8), "astars_oma", powers[0]),
               # three (radius_d, path_alpha) path-loss keys in one block
               (replace(CFG, path_alpha=3.0, num_elements=2), "astars_noma", powers),
               (replace(CFG, radius_d=20.0, num_elements=7), "pstars_noma", powers[1]),
               # a point's own families replace the call's
               (replace(CFG, num_elements=3), "astars_noma", powers,
                ("outage_r", "outage_t")),
               (replace(CFG, a_r=0.2, a_t=0.8), "astars_noma", powers[0], ("rate_r",)),
               (replace(CFG, path_alpha=3.0, num_elements=4), "astars_oma", powers,
                ("throughput_limited", "rate_t")),
               (replace(CFG, path_alpha=3.0), "pstars_noma", powers, ("outage_system",))]
    swept = simulate(points, trials=trials, seed=41, workers=workers)
    assert len(swept) == len(points)
    for (cfg, scheme, ps, *own), got in zip(points, swept):
        lone = simulate(cfg, scheme, ps, trials=trials, seed=41, metrics=own[0] if own else None)
        assert got == lone, (cfg, scheme, own)
    assert set(swept[-3]) == {"rate_r_psic", "rate_r_ipsic"}


def test_point_list_defaults_and_rejections():
    one = simulate(CFG, "astars_noma", 1.0, trials=100, seed=3)
    assert simulate([(replace(CFG, mc_trials=100, seed=3), "astars_noma", 1.0)]) == [one]
    with pytest.raises(ValueError):
        simulate([], trials=10)
    with pytest.raises(ConfigError):
        simulate([(CFG, "astars_noma", 1.0), (CFG, "no_such_scheme", 1.0)], trials=10)
    # a point's own families are checked like the call's
    with pytest.raises(ConfigError):
        simulate([(CFG, "astars_noma", 1.0, ("outage",))], trials=10)
    with pytest.raises(ValueError):
        simulate([(CFG, "astars_noma", 1.0, ())], trials=10)
    with pytest.raises(ValueError):
        simulate([(CFG, "astars_noma", 1.0, ("outage_t",), None)], trials=10)


@pytest.mark.parametrize("powers", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                    [1.0, math.nan, 2.0], [1.0, math.inf], []])
def test_simulate_rejects_bad_powers(powers):
    with pytest.raises(ValueError):
        simulate(CFG, "astars_noma", powers, trials=10)


def test_zero_targets_never_outage():
    cfg = replace(CFG, target_rate_r=0.0, target_rate_t=0.0)
    sims = simulate(cfg, "astars_noma", dbm_to_watts(0.0), trials=20_000)
    assert sims["outage_r_psic"].mean == 0.0
    assert sims["outage_t"].mean == 0.0
    assert sims["outage_system_psic"].mean == 0.0


def test_degenerate_allocation_sure_outage():
    cfg = replace(CFG, target_rate_t=2.0)  # a_t < gamma_t_hat a_r
    sims = simulate(cfg, "astars_noma", dbm_to_watts(30.0), trials=20_000)
    assert sims["outage_t"].mean == 1.0


def test_estimate_outage_compound_event_consistency(monkeypatch):
    # trial by trial, on the raw events and on the plain conditional
    # probabilities (the control variates adjust each family by its own
    # regression, so their means need not keep these orders)
    ps = dbm_to_watts(15.0)
    raw = raw_outages(CFG, "astars_noma", ps, 50_000, CFG.seed)
    monkeypatch.setattr(mc, "_fit", lambda *args: None)
    sims = simulate(CFG, "astars_noma", ps, trials=50_000)
    plain = {key: est.mean for key, est in sims.items()}
    for means in ({key: mean for key, (mean, _) in raw.items()}, plain):
        r, r_ipsic = means["outage_r_psic"], means["outage_r_ipsic"]
        t, system = means["outage_t"], means["outage_system_psic"]
        assert 0.0 < t and 0.0 < r
        assert r_ipsic >= r
        # system event contains each per-user event
        assert system >= r
        assert system >= t
        # and is at most their sum
        assert system <= r + t


def test_ci_definitions():
    ps = dbm_to_watts(15.0)
    sims = simulate(CFG, "astars_noma", ps, trials=50_000)
    # the control-variate CI of the outage, no wider than the raw count's
    # Wald CI
    _, wald = raw_outages(CFG, "astars_noma", ps, 50_000, CFG.seed)["outage_r_psic"]
    out = sims["outage_r_psic"]
    assert 0.0 < out.ci95_halfwidth <= wald and not out.fallback
    rate = sims["rate_r_psic"]
    assert rate.ci95_halfwidth > 0.0
    assert rate.trials == 50_000


def test_zero_event_outage_cell_has_exact_bound():
    # an outage cell whose per-trial probabilities are all 0 (no trial's
    # fades admit an outage at any distance) or all 1 (none admits a
    # success), the zero targets and the degenerate allocation exactly, gets
    # the exact one-sided Clopper-Pearson bound 1 - 0.025^(1/n) (about
    # 3.69/n), not the sample-variance width 0
    n = 20_000
    bound = 1.0 - 0.025 ** (1.0 / n)
    never = simulate(replace(CFG, target_rate_r=0.0, target_rate_t=0.0), "astars_noma",
                     dbm_to_watts(0.0), trials=n)
    sure = simulate(replace(CFG, target_rate_t=2.0), "astars_noma", dbm_to_watts(30.0),
                    trials=n)
    cells = tuple(never[k] for k in ("outage_r_psic", "outage_r_ipsic",
                                     "outage_t", "outage_system_psic"))
    cells += tuple(sure[k] for k in ("outage_t", "outage_r_psic", "outage_system_ipsic"))
    assert [est.mean for est in cells] == [0.0] * 4 + [1.0] * 3
    for est in cells:
        assert est.ci95_halfwidth == pytest.approx(bound, rel=1e-9)
        assert est.ci95_halfwidth == pytest.approx(3.689 / n, rel=1e-3)
    # a throughput cell's bound is scaled to its range [0, R_r + R_t],
    # here [0, 0] (test_throughput_cell_at_an_end_of_its_range_has_exact_bound)
    assert never["throughput_limited_psic"].ci95_halfwidth == 0.0
    # the bound follows the per-trial probabilities: all 0, all 1, or mixed
    for partials, bounded in (([(0.0, 0.0), (0.0, 0.0)], True),
                              ([(5.0, 5.0), (3.0, 3.0)], True),
                              ([(0.5, 0.25), (0.0, 0.0)], False)):
        est = mc._estimates([{"outage_t": p} for p in partials], 8)["outage_t"]
        assert (est.ci95_halfwidth == pytest.approx(1.0 - 0.025 ** (1.0 / 8))) is bounded


def test_rate_t_estimate_respects_allocation_ceiling():
    est = simulate(CFG, "astars_noma", dbm_to_watts(45.0), trials=50_000)["rate_t"]
    ceiling = math.log2(1.0 + CFG.a_t / CFG.a_r)
    assert est.mean <= ceiling + est.ci95_halfwidth
    assert est.mean == pytest.approx(ceiling, abs=0.01)


def test_rates_vanish_at_tiny_power():
    sims = simulate(CFG, "astars_noma", 1e-12, trials=5_000)
    assert sims["rate_r_psic"].mean < 1e-6
    assert sims["rate_t"].mean < 1e-6


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_oma_rate_is_half_log_of_full_power_sinr():
    # symmetric toy: with matched draws the OMA rate per user is exactly
    # half the log of its dedicated-slot SINR; verify through the ceiling:
    # at high power the OMA t-rate has no interference cap
    noma = simulate(CFG, "astars_noma", dbm_to_watts(40.0), trials=30_000, seed=5)
    oma = simulate(CFG, "astars_oma", dbm_to_watts(40.0), trials=30_000, seed=5)
    assert oma["rate_t"].mean > noma["rate_t"].mean  # beyond log2(1+a_t/a_r)
    # and the OMA slot factor halves the slope: compare two powers
    lo = simulate(CFG, "astars_oma", dbm_to_watts(30.0), trials=30_000, seed=5)
    gain = oma["rate_r"].mean - lo["rate_r"].mean
    assert gain == pytest.approx(0.5 * 10.0 * math.log2(10.0) / 10.0, abs=0.1)


def test_oma_outage_uses_doubled_spectral_target():
    # at a power where NOMA t-outage is already tiny the OMA one is larger
    # only through its 2^{2R}-1 threshold; both must vanish by 30 dBm
    oma = simulate(CFG, "astars_oma", dbm_to_watts(30.0), trials=30_000, seed=6)
    assert oma["outage_r"].mean < 0.01
    assert oma["outage_t"].mean < 0.01


def test_pstars_reduction_matches_unamplified_astars():
    # lambda -> 1+ with silent surface noise reduces the active model to the
    # passive one; two seeds make this a comparison of distributions
    cfg = replace(CFG, amp_lambda=1.0 + 1e-12, noise_sigma_s2=1e-30)
    ps = dbm_to_watts(20.0)
    act = simulate(cfg, "astars_noma", ps, trials=400_000, seed=11)
    pas = simulate(cfg, "pstars_noma", ps, trials=400_000, seed=12)
    for key in ("outage_r_psic", "outage_t"):
        diff = abs(act[key].mean - pas[key].mean)
        assert diff <= 3.0 * (act[key].ci95_halfwidth + pas[key].ci95_halfwidth)


def test_scheme_metric_keys():
    ps = dbm_to_watts(20.0)
    sims = {s: simulate(CFG, s, ps, trials=10_000) for s in SCHEMES}
    families = {"outage_r", "outage_t", "outage_system", "rate_r", "rate_t",
                "throughput_limited", "throughput_tolerant"}
    assert set(sims["astars_oma"]) == set(mc.METRICS) == families
    # each family has one estimator: the rates read the drawn distances, the
    # outage-type families are conditional on the fades
    assert mc._RATE_READERS.isdisjoint(mc._CONTROL_USERS)
    assert mc._RATE_READERS | set(mc._CONTROL_USERS) == set(mc.METRICS)
    noma_keys = {"outage_r_psic", "outage_r_ipsic", "outage_t",
                 "outage_system_psic", "outage_system_ipsic", "rate_r_psic",
                 "rate_r_ipsic", "rate_t", "throughput_limited_psic",
                 "throughput_limited_ipsic", "throughput_tolerant_psic",
                 "throughput_tolerant_ipsic"}
    assert set(sims["astars_noma"]) == set(sims["pstars_noma"]) == noma_keys
    # a family subset gets exactly its families' keys, each estimate the
    # full call's bit for bit; the throughputs alone still read the
    # outage probabilities or the rate arrays they are built from
    subsets = [("throughput_tolerant",), ("throughput_limited",), ("outage_system",),
               ("outage_r", "outage_t"), ("rate_r", "rate_t"),
               ("outage_t", "rate_r", "throughput_limited"), ("outage_t",),
               ("outage_r", "rate_t"), ("rate_t",)]
    for scheme in SCHEMES:
        for families in subsets:
            for workers in (1, 2):
                got = simulate(CFG, scheme, ps, trials=10_000, workers=workers,
                               metrics=families)
                keys = {k for k in sims[scheme]
                        if k.removesuffix("_psic").removesuffix("_ipsic") in families}
                assert set(got) == keys, (scheme, families)
                assert got == {k: sims[scheme][k] for k in keys}, (scheme, families)
    with pytest.raises(ConfigError):
        simulate(CFG, "no_such_scheme", ps, trials=10)
    with pytest.raises(ConfigError):
        simulate(CFG, "astars_noma", ps, trials=10, metrics=("outage_r", "outage_r_psic"))
    with pytest.raises(ValueError) as empty:
        simulate(CFG, "astars_noma", ps, trials=10, metrics=())
    assert type(empty.value) is ValueError


def test_throughput_estimates_are_consistent_compositions(monkeypatch):
    # on the plain conditional means: each outage-type family's control
    # variates are its own, so the adjusted means compose only to their CIs
    monkeypatch.setattr(mc, "_fit", lambda *args: None)
    ps = dbm_to_watts(20.0)
    sims = simulate(CFG, "astars_noma", ps, trials=50_000, seed=3)
    lim = sims["throughput_limited_psic"]
    composed = ((1.0 - sims["outage_r_psic"].mean) * CFG.target_rate_r
                + (1.0 - sims["outage_t"].mean) * CFG.target_rate_t)
    assert lim.mean == pytest.approx(composed, abs=1e-12)
    tol = sims["throughput_tolerant_psic"]
    assert tol.mean == pytest.approx(sims["rate_r_psic"].mean + sims["rate_t"].mean,
                                     abs=1e-12)


# ---------------------------------------------------------------------------
# the estimator conditional on the fades
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg, scheme", FIG3A_COND_CELLS, ids=FIG3A_COND_IDS)
def test_conditional_estimates_agree_with_raw_and_are_tighter(cfg, scheme, monkeypatch):
    # integrating the distances out of the raw indicator estimate, and at
    # fig3a's config the amplified noise too, cannot move the mean and cannot
    # widen the CI (Rao-Blackwellization), and the control variates, whose
    # means are exact, tighten it further; at the same seed all three
    # estimates read the same fades; budgets where every raw cell sees
    # events and misses, so no CI is a zero-event bound
    powers = [budget_to_ps(dbm_to_watts(q), cfg, active=scheme != "pstars_noma")
              for q in (12.5, 17.5, 22.5)]
    if cfg.path_alpha == 3.0:
        powers = [dbm_to_watts(q) for q in (35.0, 40.0, 45.0)]
    controlled = simulate(cfg, scheme, powers, trials=60_000, seed=21, metrics=OUTAGE_FAMILIES)
    monkeypatch.setattr(mc, "_fit", lambda *args: None)
    plain = simulate(cfg, scheme, powers, trials=60_000, seed=21, metrics=OUTAGE_FAMILIES)
    checked = 0
    for ps, sims, plain_sims in zip(powers, controlled, plain):
        raw = raw_outages(cfg, scheme, ps, 60_000, 21)
        assert set(raw) == set(sims)
        for key, est in sims.items():
            (raw_mean, raw_hw), unadjusted = raw[key], plain_sims[key]
            assert unadjusted.fallback
            # without amplified noise a pSIC-type outage can be affine in the
            # controls at every trial; then the plain estimate stands
            assert not est.fallback or (scheme == "pstars_noma" and est == unadjusted)
            sigma = math.hypot(est.ci95_halfwidth, raw_hw) / 1.96
            assert abs(est.mean - raw_mean) <= 4.0 * sigma, (key, est, raw[key])
            assert est.ci95_halfwidth <= unadjusted.ci95_halfwidth, (key, est, unadjusted)
            assert unadjusted.ci95_halfwidth <= raw_hw, (key, unadjusted, raw[key])
            checked += 1
    assert checked == 3 * (4 if scheme == "astars_oma" else 7)


def test_a_wrong_control_mean_moves_the_estimate(monkeypatch):
    # the control means enter the estimate: 1% on the per-element mean m
    # moves a fig2a cell at 12.5 dBm by more than its own CI, so the test
    # above would see a wrong mean
    ps = budget_to_ps(dbm_to_watts(12.5), CFG)
    key = "outage_r_psic"
    right = simulate(CFG, "astars_noma", ps, trials=50_000, seed=8, metrics=("outage_r",))
    real = mc.element_moments
    monkeypatch.setattr(mc, "element_moments", lambda k: (1.01 * real(k)[0], real(k)[1]))
    wrong = simulate(CFG, "astars_noma", ps, trials=50_000, seed=8, metrics=("outage_r",))
    assert abs(wrong[key].mean - right[key].mean) > right[key].ci95_halfwidth
    assert not wrong[key].fallback and not right[key].fallback


FIG3A_L20 = replace(FIG3A_CFG, num_elements=20)
FIG3A_PS = budget_to_ps(dbm_to_watts(20.0), FIG3A_L20)
FIG3A_MARGINALS = (("astars_noma", ("outage_r_psic", "outage_t")),
                   ("astars_oma", ("outage_r", "outage_t")))


@pytest.mark.parametrize("num_elements", [1, 10])
def test_control_means_match_a_large_draw(num_elements):
    # the five rows (S, S^2, P, P^2, S P) of a 10^6-trial element draw
    # against their exact means, within 5 sample sigma
    kappa = FIG3A_CFG.rician_kappa
    means = mc._control_means(kappa, num_elements, ("r",), True)
    sums = np.zeros(5)
    squares = np.zeros(5)
    n = 0
    for block in range(8):
        at_l = next(islice(_element_sums(13, block, 125_000, (kappa,), ("h_r",), noise=False,
                                         power=True), num_elements - 1, None))
        amp, _, psum = at_l[kappa]
        s, p = amp["h_r"], psum["h_r"]
        rows = np.stack([s, s * s, p, p * p, s * p])
        sums += rows.sum(axis=1)
        squares += (rows * rows).sum(axis=1)
        n += s.size
    sample = sums / n
    sigma = np.sqrt((squares / n - sample ** 2) / n)
    assert np.all(np.abs(sample - means) <= 5.0 * sigma), (sample, means, sigma)
    assert mc._control_means(kappa, num_elements, ("r",), False) == means[:2]


@pytest.mark.parametrize("scheme, names", FIG3A_MARGINALS)
def test_the_channel_power_controls_narrow_the_integrated_cells(scheme, names, monkeypatch):
    # at fig3a's config each integrated marginal cell's CI is at least 4x
    # below the one (S_u, S_u^2) alone give, with means that agree
    full = simulate(FIG3A_L20, scheme, FIG3A_PS, trials=50_000, seed=11, metrics=names)
    monkeypatch.setattr(mc, "_POWER_CONTROLLED", frozenset())
    amplitude = simulate(FIG3A_L20, scheme, FIG3A_PS, trials=50_000, seed=11, metrics=names)
    assert set(full) == set(amplitude) == set(names)
    for key, est in full.items():
        base = amplitude[key]
        assert not est.fallback and not base.fallback
        assert base.ci95_halfwidth >= 4.0 * est.ci95_halfwidth, (key, est, base)
        sigma = math.hypot(est.ci95_halfwidth, base.ci95_halfwidth) / 1.96
        assert abs(est.mean - base.mean) <= 4.0 * sigma, (key, est, base)


@pytest.mark.parametrize("row", [2, 3, 4], ids=["E_P", "E_P2", "E_SP"])
@pytest.mark.parametrize("scheme, names", FIG3A_MARGINALS)
def test_a_wrong_channel_power_mean_moves_the_estimate(scheme, names, row, monkeypatch):
    # each of the channel power's three exact means enters the estimate:
    # 1% on it moves every integrated marginal cell by more than 3 of its CIs
    right = simulate(FIG3A_L20, scheme, FIG3A_PS, trials=50_000, seed=11, metrics=names)
    real = mc._control_means

    def shifted(kappa, num_elements, users, power):
        means = real(kappa, num_elements, users, power)
        if power:
            means[row] *= 1.01
        return means

    monkeypatch.setattr(mc, "_control_means", shifted)
    wrong = simulate(FIG3A_L20, scheme, FIG3A_PS, trials=50_000, seed=11, metrics=names)
    for key, est in right.items():
        assert abs(wrong[key].mean - est.mean) > 3.0 * est.ci95_halfwidth, (key, row)
        assert not est.fallback


def test_the_control_set_follows_the_point_not_its_call():
    # the channel power's rows join the marginal families' controls at
    # points that integrate their noise out, whatever else the call asks;
    # the joint families and every other point keep (S_u, S_u^2)
    for cfg, scheme, family, power in ((FIG3A_CFG, "astars_noma", "outage_r", True),
                                       (FIG3A_CFG, "astars_oma", "outage_t", True),
                                       (FIG3A_CFG, "astars_noma", "outage_system", False),
                                       (FIG3A_CFG, "astars_noma", "throughput_limited", False),
                                       (FIG3A_CFG, "pstars_noma", "outage_r", False),
                                       (CFG, "astars_noma", "outage_t", False),
                                       (replace(FIG3A_CFG, path_alpha=3.0), "astars_noma",
                                        "outage_t", False)):
        assert plan(cfg, scheme, (family,)).fits[family][3] is power, (scheme, family)
    # the ipSIC outage reads the noise drawn but still regresses on P_r, so
    # its estimate does not depend on whether the pSIC one shares its call
    alone = simulate(FIG3A_CFG, "astars_noma", FIG3A_PS, trials=3000, seed=4,
                     metrics=("outage_r_ipsic",))
    both = simulate(FIG3A_CFG, "astars_noma", FIG3A_PS, trials=3000, seed=4,
                    metrics=("outage_r",))
    assert alone["outage_r_ipsic"] == both["outage_r_ipsic"]


def test_power_points_of_several_lengths_match_their_lone_calls():
    # a marginal family reads all five of its user's rows at a power point;
    # points at several element counts in one call get their lone calls'
    # estimates
    [(_, fades)] = _block_fades(5, 0, 4096, [plan(FIG3A_L20, "astars_noma", ("outage_t",))])
    assert len(mc._controls(fades, "outage_t")) == 5
    assert len(mc._controls(fades, "outage_system")) == 4
    points = [(replace(FIG3A_CFG, num_elements=L), scheme, FIG3A_PS, names)
              for L in (2, 5, 9) for scheme, names in FIG3A_MARGINALS]
    for (cfg, scheme, ps, names), got in zip(points, simulate(points, trials=3000, seed=6)):
        assert got == simulate(cfg, scheme, ps, trials=3000, seed=6, metrics=names)


def test_pure_line_of_sight_falls_back_instead_of_raising(monkeypatch):
    # at kappa = 1e6 the gains are nearly deterministic: at L = 40 _fit finds
    # the five rows collinear, and below it the controls fit every trial
    # to rounding; either way the cells fall back and stay finite
    losses = []
    real = mc._fit

    def spy(*args):
        fit = real(*args)
        losses.append(fit is None)
        return fit

    monkeypatch.setattr(mc, "_fit", spy)
    points = [(replace(FIG3A_CFG, rician_kappa=1e6, num_elements=L), scheme, FIG3A_PS, names)
              for L in (2, 40) for scheme, names in FIG3A_MARGINALS]
    sims = simulate(points, trials=20_000, seed=3)
    assert any(losses)
    for point in sims:
        for key, est in point.items():
            assert math.isfinite(est.mean) and math.isfinite(est.ci95_halfwidth), key
            assert 0.0 < est.mean < 1.0 and est.fallback, key


def outage_users(cfg, scheme, size, seed):
    """One block's outage users of every outage-type key at (cfg, scheme),
    with the point and the fades they read."""
    point = plan(cfg, scheme, OUTAGE_FAMILIES)
    [(_, fades)] = _block_fades(seed, 0, size, [point])
    users = mc._thresholds(point, fades)
    integrated = any(law is not None for _, law in users.values())
    assert integrated == (cfg is FIG3A_CFG)
    assert integrated == any(flag for _, flag in users)
    return point, fades, users


@pytest.mark.parametrize("cfg, scheme", FIG3A_COND_CELLS, ids=FIG3A_COND_IDS)
def test_zero_power_skip_is_exact(cfg, scheme):
    # from a user's zero power ps* on (the 1e-9 margin included) the block's
    # partial sums are the ones a forced evaluation of every user gives,
    # bit for bit, for every family; just below ps* some trial has an
    # outage, so ps* is the least such power, not merely a bound; for a user
    # with the noise integrated out ps* is where its exponential is cut to 0
    point, fades, users = outage_users(cfg, scheme, 512, 5)
    stars = {name: mc._zero_power(stages, math.inf) for name, (stages, _) in users.items()}
    forced = dict.fromkeys(users, math.inf)
    controls = {family: mc._controls(fades, family) for family in OUTAGE_FAMILIES}
    exponent = 2.0 / cfg.path_alpha
    skipped = 0
    for name, star in stars.items():
        if math.isinf(star):
            # some trial has k x <= w at some stage: an outage at any power
            assert mc._user_outage(users[name], 1e9, exponent).any()
            continue
        below = mc._user_outage(users[name], star * (1.0 - 1e-6), exponent)
        assert below.max() > 0.0
        for ps in (star, star * mc._ZERO_MARGIN, star * mc._ZERO_MARGIN * (1.0 + 1e-12),
                   2.0 * star):
            if ps >= star * mc._ZERO_MARGIN:
                full = mc._user_outage(users[name], ps, exponent)
                assert not full.any()
                skipped += 1
            got = mc._conditional_partials(point, users, stars, ps, controls)
            want = mc._conditional_partials(point, users, forced, ps, controls)
            assert got == want, (cfg, scheme, ps)
    assert skipped == 3 * sum(map(math.isfinite, stars.values())) > 0


@pytest.mark.parametrize("cfg, scheme", FIG3A_COND_CELLS, ids=FIG3A_COND_IDS)
def test_zero_power_cut_off_is_the_zero_power(cfg, scheme):
    # _zero_power gives ps* for any largest power from ps* (1 + 1e-9) up and
    # inf below it: a top under the first four trials' bound is refused
    # before the pass over the block, one between that bound and the
    # threshold after it
    _, _, users = outage_users(cfg, scheme, 512, 5)
    finite = 0
    for stages, _ in users.values():
        star = mc._zero_power(stages, math.inf)
        if math.isinf(star):
            continue
        head = mc._zero_power([(k, x[:4], off[:4] if isinstance(off, np.ndarray) else off,
                                None if w is None else w[:4]) for k, x, off, w in stages],
                              math.inf)
        assert head < star
        for top in (star * mc._ZERO_MARGIN, 2.0 * star, math.inf):
            assert mc._zero_power(stages, top) == star, (scheme, top)
        cut = star * mc._ZERO_MARGIN
        for top in (0.5 * head, head, 0.5 * (head + star), star, cut - math.ulp(cut)):
            assert mc._zero_power(stages, top) == math.inf, (scheme, top)
        finite += 1
    assert finite > 0


def test_zero_power_skip_count_on_a_fig2a_call(monkeypatch):
    # the blocks and powers at which the outage of a fig2a-shaped call is
    # skipped are pinned by how often _outage runs: 3 blocks x 2 schemes,
    # NOMA's three users and OMA's two at each of their feasible budgets
    calls = []
    real = mc._outage
    monkeypatch.setattr(mc, "_outage", lambda *args: calls.append(args[1]) or real(*args))
    points = []
    for scheme in ("astars_noma", "astars_oma"):
        powers = []
        for q in np.arange(0.0, 50.1, 2.5):
            try:
                powers.append(budget_to_ps(dbm_to_watts(q), CFG))
            except ConfigError:
                pass
        points.append((CFG, scheme, powers))
    simulate(points, trials=3 * BLOCK_TRIALS, seed=CFG.seed, metrics=("outage_r", "outage_t"))
    evaluations = 3 * sum(len(powers) * (3 if scheme == "astars_noma" else 2)
                          for _, scheme, powers in points)
    assert (len(calls), evaluations) == (185, 315)


def test_one_point_fades_are_alive_at_a_time(monkeypatch):
    # when the next point's fades are formed, nothing holds the previous
    # point's any more, neither the block's generator nor simulate's loop
    real = mc._fades
    previous, alive = [], []

    def spy(*args):
        alive.extend(ref() is not None for ref in previous)
        fades = real(*args)
        previous[:] = [weakref.ref(fades.x_r)]
        return fades

    monkeypatch.setattr(mc, "_fades", spy)
    points = [(replace(CFG, num_elements=L), scheme) for L in (2, 3, 5)
              for scheme in ("astars_noma", "pstars_noma")]
    deque(_block_fades(4, 0, 256, [plan(*point) for point in points]), maxlen=0)
    assert alive == [False] * (len(points) - 1)
    alive.clear()
    # two blocks; the first point of each finds the last one's fades dead
    simulate([(cfg, scheme, [0.1, 1.0]) for cfg, scheme in points],
             trials=BLOCK_TRIALS + 100, seed=4)
    assert alive == [False] * (2 * len(points))


def test_conditional_outage_is_the_disk_average_of_the_raw_indicator():
    # per trial, P(outage | fades) against the raw outage indicators at M
    # equal-mass disk-law distances: monotone in d, so within 1/M
    size, M = 48, 1000
    v = np.sqrt((np.arange(M) + 0.5) / M)
    ps = dbm_to_watts(15.0)
    for cfg, scheme in COND_CELLS:
        point = plan(cfg, scheme, ("outage_r", "outage_t"))
        [(_, fades)] = _block_fades(3, 0, size, [point])
        users = mc._thresholds(point, fades)
        every = fades._replace(**{name: np.repeat(value, M) for name, value
                                  in fades._asdict().items() if isinstance(value, np.ndarray)})
        v_alpha = np.tile(v ** cfg.path_alpha, size)
        out_t, out_r = raw_indicators(cfg, scheme, every, np.stack([v_alpha, v_alpha]), ps)
        assert set(users) == {(name, False) for name in ("t", *out_r)}
        for name, out in (("t", out_t), *out_r.items()):
            exact = mc._user_outage(users[name, False], ps, 2.0 / cfg.path_alpha)
            grid = out.reshape(size, M).mean(axis=1)
            assert np.all(np.abs(exact - grid) <= 1.0 / M + 1e-12), (cfg, scheme)
            assert 0.0 < exact.mean() < 1.0


# thresholds T = ps k x of the integrated kernel on both sides of its
# branches, and noise means mu from far below to far above the receiver noise
KERNEL_T = (-2.0, -1e-3, 0.0, 0.05, 0.3, 0.7, 0.999, 1.0, 1.001, 1.2, 2.0, 4.0)
KERNEL_MU = (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 1e2)


def integrated(t, mu, ps=1.0):
    """_integrated_outage at thresholds t and noise means mu (k = 1)."""
    mu = np.asarray(mu, dtype=float)
    return mc._integrated_outage((1.0, np.asarray(t, dtype=float), None, None),
                                 mc._noise_law(mu), ps)


def test_integrated_outage_is_the_noise_average_of_the_drawn_outage():
    # per trial, the outage with y ~ Exp(mu) integrated out is the mean of
    # the drawn-noise outage 1 - clip(T - y, 0, 1) over draws of y, within
    # 4 standard errors; where every draw gives one value (T <= 0, or mu
    # far below T - 1) within the 97.5% zero-event bound 3.69/n of it
    n = 20_000
    rng = np.random.default_rng(2024)
    t, mu = (np.array(grid).ravel() for grid in np.meshgrid(KERNEL_T, KERNEL_MU))
    exact = integrated(t, mu)
    for t_i, mu_i, p in zip(t, mu, exact):
        drawn = 1.0 - np.clip(t_i - rng.exponential(mu_i, n), 0.0, 1.0)
        se = drawn.std(ddof=1) / math.sqrt(n)
        tol = 4.0 * se if se > 0.0 else -math.log(0.025) / n
        assert abs(p - drawn.mean()) <= tol, (t_i, mu_i, p, drawn.mean(), se)
        assert 0.0 <= p <= 1.0
    assert np.all(exact[t <= 0.0] == 1.0)


def test_integrated_outage_branches_meet_and_the_cut_is_below_rounding():
    mu = np.array(KERNEL_MU)
    # both branches give the outage at T = 1, mu (1 - e^(-1/mu))
    below = integrated(np.full(mu.size, np.nextafter(1.0, 0.0)), mu)
    at = integrated(np.ones(mu.size), mu)
    tail = -mu * np.expm1(-1.0 / mu)
    np.testing.assert_allclose(at, tail, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(below, tail, rtol=0.0, atol=1e-13)
    # against the exact outage in 50-digit arithmetic: the exponential is
    # cut to 0 from argument magnitude 37 on, an error of at most
    # e^-37 < 8.5e-17 on the T >= 1 branch and below rounding on the other
    def exact(t, m):
        with mpmath.workdps(50):
            t, m = mpmath.mpf(t), mpmath.mpf(m)
            if t >= 1:
                return float(m * mpmath.exp(-(t - 1) / m) * (1 - mpmath.exp(-1 / m)))
            return float(1 - t + m * (1 - mpmath.exp(-t / m)))

    # (T - 1)/mu on both sides of the cut; exactly 37 is not representable
    # as 1 + 37 mu for every mu, so it is left out
    for m in KERNEL_MU:
        for scale in (30.0, 36.999, 37.001, 50.0, 1e3):
            t_high = 1.0 + scale * m
            got = float(integrated([t_high], [m])[0])
            assert (got == 0.0) == (scale >= 37.0), (m, scale, got)
            assert abs(got - exact(t_high, m)) <= 8.5e-17, (m, scale)
            if scale < 37.0:
                assert got == pytest.approx(exact(t_high, m), rel=1e-12)
            t_low = scale * m
            if t_low < 1.0:
                got = float(integrated([t_low], [m])[0])
                assert abs(got - exact(t_low, m)) <= math.ulp(got), (m, scale)
    # no exp result is subnormal: the cut leaves nothing below e^-37
    t = np.linspace(1.0, 50.0, 10_001)
    arg = np.maximum((1.0 - t) / 1e-2, -mc._EXP_CUT)
    assert np.exp(arg).min() >= math.exp(-mc._EXP_CUT) > np.finfo(float).tiny


def test_integrated_outage_at_the_kernel_extremes():
    # a stage that never fails (zero target, k = inf) and one that always
    # does (k <= 0), at the smallest and largest noise means, without a
    # warning (RuntimeWarnings fail the suite)
    mu = np.array(KERNEL_MU)
    x = np.full(mu.size, 3.0)
    for k, want in ((math.inf, 0.0), (0.0, 1.0), (-2.0, 1.0)):
        got = mc._integrated_outage((k, x, None, None), mc._noise_law(mu), 1.0)
        assert np.all(got == want), k
    # outage falls with the threshold and rises with the noise mean
    t = np.linspace(-1.0, 5.0, 601)
    for m in KERNEL_MU:
        assert np.all(np.diff(integrated(t, np.full(t.size, m))) <= 1e-15), m
    for t_i in (0.5, 1.5, 3.0):
        assert np.all(np.diff(integrated(np.full(mu.size, t_i), mu)) >= -1e-15), t_i


def _controlled_partials(values, controls):
    """One block's partial sums of an outage-type cell and its regression fit,
    the way simulate forms them from per-trial values and control rows,
    with control means claimed to be 0."""
    part = mc._cv_moments(values, tuple(controls))
    fit = mc._fit(controls.sum(axis=1).tolist(), (controls @ controls.T).tolist(),
                  [0.0] * len(controls), values.size)
    return part, fit


def test_range_guard_falls_back_to_the_plain_estimate():
    # a control-variate mean outside the family's range is replaced by the
    # plain conditional estimate and CI, with fallback set; here the
    # control's sample mean lies 3 below its (claimed) exact mean 0 and p
    # rises with it, so p-bar - beta c-bar < 0
    rng = np.random.default_rng(1)
    n = 400
    c = rng.normal(3.0, 1.0, n)
    p = np.clip(1e-3 * (c - 2.5), 0.0, 1.0)
    controls = np.stack([c, rng.normal(0.0, 1.0, n)])
    part, fit = _controlled_partials(p, controls)
    assert mc._controlled(list(part), fit, n)[0] < 0.0
    est = mc._estimates([{"outage_t": part}], n, {"outage_t": fit})["outage_t"]
    assert est.fallback
    assert est.mean == part[0] / n
    var = (part[1] - part[0] ** 2 / n) / (n - 1)
    assert est.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(var / n), rel=1e-12)
    # a throughput above R_r + R_t falls back the same way, one inside its
    # range does not
    for ceiling, fell_back in ((1.0, True), (3.0, False)):
        q = 1.0 + np.clip(1e-3 * (3.5 - c), 0.0, 1.0)
        part, fit = _controlled_partials(q, controls)
        assert mc._controlled(list(part), fit, n)[0] > 1.0
        est = mc._estimates([{"throughput_limited_psic": part}], n,
                            {"throughput_limited": fit}, ceiling)
        assert est["throughput_limited_psic"].fallback is fell_back
    # so does a cell whose controls cannot be fitted: here no more trials
    # than two controls and a mean leave no residual degree of freedom
    tiny = simulate(CFG, "astars_noma", dbm_to_watts(15.0), trials=3, seed=2,
                    metrics=("outage_r", "outage_t"))
    inner = [est for est in tiny.values() if 0.0 < est.mean < 1.0]
    assert inner and all(est.fallback for est in inner)
    # or that fit every trial to rounding: without amplified noise the
    # pstars_noma pSIC outage is affine in S_r^2 wherever no trial clips
    exact = simulate(CFG, "pstars_noma", budget_to_ps(dbm_to_watts(0.0), CFG, active=False),
                     trials=20_000, seed=2, metrics=("outage_r",))["outage_r_psic"]
    assert exact.fallback and 0.9 < exact.mean < 1.0 and exact.ci95_halfwidth > 0.0


def test_throughput_cell_at_an_end_of_its_range_has_exact_bound():
    # a delay-limited throughput cell whose trials all succeed, or all fail, has a
    # sample variance of 0; it keeps its plain mean and gets the exact
    # bound (R_r + R_t)(1 - 0.025^(1/n)) instead
    n = 20_000
    bound = 1.0 - 0.025 ** (1.0 / n)
    metrics = ("throughput_limited",)
    degenerate = replace(CFG, target_rate_t=2.0)  # a_t < gamma_t_hat a_r
    sure = simulate(CFG, "astars_noma", dbm_to_watts(60.0), trials=n, metrics=metrics)
    never = simulate(degenerate, "astars_noma", dbm_to_watts(30.0), trials=n, metrics=metrics)
    oma = simulate(CFG, "astars_oma", dbm_to_watts(60.0), trials=n, metrics=metrics)
    top, top_degenerate = 2.0, 3.0  # R_r + R_t
    for est, mean, width in ((sure["throughput_limited_psic"], top, top),
                             (never["throughput_limited_psic"], 0.0, top_degenerate),
                             (never["throughput_limited_ipsic"], 0.0, top_degenerate),
                             (oma["throughput_limited"], top, top)):
        assert est.mean == mean
        assert est.ci95_halfwidth == pytest.approx(width * bound, rel=1e-9)
        assert not est.fallback
    # the all-success sum of a rate that is not a binary fraction carries
    # rounding; it still counts as the range's end
    rate = 0.1 + 0.2
    parts = [{"throughput_limited": (math.fsum([rate] * 3), 3 * rate * rate)}] * 7
    est = mc._estimates(parts, 21, None, rate)["throughput_limited"]
    assert est.ci95_halfwidth == pytest.approx(rate * (1.0 - 0.025 ** (1.0 / 21)))


def test_conditional_families_skip_the_distance_draw(monkeypatch):
    purposes = []
    real = mc._stream

    def recording(seed, block, purpose):
        purposes.append(purpose)
        return real(seed, block, purpose)

    monkeypatch.setattr(mc, "_stream", recording)
    simulate(CFG, "astars_noma", 1.0, trials=100, metrics=OUTAGE_FAMILIES)
    assert "U" not in purposes and "E" in purposes
    purposes.clear()
    simulate(CFG, "astars_noma", 1.0, trials=100, metrics=("outage_r", "rate_t"))
    assert purposes.count("U") == 1


def test_noise_is_integrated_out_by_the_nu_rule():
    # per point, from its config: nu = lambda eta0 sigma_s^2 L / (sigma_0^2
    # D^alpha) >= 1/4 at alpha = 2 with drawn noise on the active surface
    assert mc._edge_noise(CFG) == pytest.approx(4.08e-3, rel=1e-3)
    assert mc._edge_noise(replace(FIG3A_CFG, num_elements=2)) == pytest.approx(16.3, rel=1e-2)
    at_quarter = replace(CFG, num_elements=1, noise_sigma_s2=0.25 / mc._edge_noise(
        replace(CFG, num_elements=1, noise_sigma_s2=1.0)))
    assert mc._edge_noise(at_quarter) == pytest.approx(0.25, rel=1e-12)
    below = replace(at_quarter, noise_sigma_s2=0.99 * at_quarter.noise_sigma_s2)
    above = replace(at_quarter, noise_sigma_s2=1.01 * at_quarter.noise_sigma_s2)
    for cfg, scheme, want in ((CFG, "astars_noma", (False, True)),
                              (below, "astars_noma", (False, True)),
                              (above, "astars_noma", (True, False)),
                              (FIG3A_CFG, "astars_oma", (True, False)),
                              (FIG3A_CFG, "pstars_noma", (False, False)),
                              (replace(FIG3A_CFG, mean_noise_mode=True), "astars_noma",
                               (False, False)),
                              (replace(FIG3A_CFG, path_alpha=3.0), "astars_noma", (False, True))):
        assert plan(cfg, scheme, ("outage_r_psic", "outage_t")).noise == want, (cfg, scheme)
    # the system outage, the ipSIC stage and the rates read the noise drawn
    for names, want in ((("outage_system_psic",), (False, True)),
                        (("outage_r_ipsic",), (False, True)),
                        (("throughput_limited_ipsic",), (True, True)),
                        (("throughput_limited_psic",), (True, False)),
                        (("rate_t", "outage_t"), (True, True)),
                        (("outage_r",), (True, True))):
        assert plan(FIG3A_CFG, "astars_noma", names).noise == want


def test_a_fig3a_shaped_call_draws_no_surface_noise(monkeypatch):
    # fig3a's sweep asks for pSIC outage_r and outage_t alone: every cell
    # integrates the noise out, so the n_s stream is never opened and no
    # drawn-noise outage, the ipSIC stage's least of all, is evaluated
    purposes, drawn = [], []
    real_stream, real_outage = mc._stream, mc._outage

    def stream(seed, block, purpose):
        purposes.append(purpose)
        return real_stream(seed, block, purpose)

    def outage(stages, *args):
        drawn.append(any(w is not None for *_, w in stages))
        return real_outage(stages, *args)

    monkeypatch.setattr(mc, "_stream", stream)
    monkeypatch.setattr(mc, "_outage", outage)
    ps = budget_to_ps(dbm_to_watts(20.0), FIG3A_CFG)
    points = [(replace(FIG3A_CFG, num_elements=L), "astars_noma", ps) for L in (2, 10, 40)]
    sims = simulate(points, trials=2 * BLOCK_TRIALS + 5, seed=3,
                    metrics=("outage_r_psic", "outage_t"))
    assert all(set(point) == {"outage_r_psic", "outage_t"} for point in sims)
    assert "n_s" not in purposes and purposes.count("h_s") == 3
    # nor the E stream, which only the ipSIC stage reads
    assert "E" not in purposes
    assert drawn == []
    # the same call with the ipSIC outage draws n_s and E for that stage alone
    purposes.clear()
    simulate(points, trials=2 * BLOCK_TRIALS + 5, seed=3, metrics=("outage_r", "outage_t"))
    assert purposes.count("n_s") == purposes.count("E") == 3 and drawn and all(drawn)


def test_the_plan_pins_what_each_cell_reads():
    # each outage-type cell reads its users reflection user first, each
    # with its noise integrated out or drawn: at fig3a's config a one-stage
    # user read on its own integrates it, while the ipSIC stage and the
    # system outage's users read it drawn
    cells = {key: reads for key, _, reads in plan(FIG3A_CFG).cells}
    assert cells["throughput_limited_ipsic"] == (("_ipsic", False), ("t", True))
    assert cells["outage_system_psic"] == (("_psic", False), ("t", False))
    assert cells["outage_r_psic"] == (("_psic", True),)
    assert cells["outage_t"] == (("t", True),)
    # at the default config every read is drawn
    point = plan(CFG)
    assert {key for key, _, _ in point.cells} == mc._keys(OUTAGE_FAMILIES, "astars_noma")
    assert point.users == {("t", False), ("_psic", False), ("_ipsic", False)}
    # only a key of an ipSIC stage reads the residual power, so w is formed
    # for it alone
    assert point.ipsic and block_fades(CFG)[0].w is not None
    assert not plan(CFG, "astars_noma", ("outage_r_psic", "rate_t")).ipsic
    assert not plan(CFG, "astars_oma").ipsic
    assert block_fades(CFG, "astars_oma")[0].w is None


def test_the_per_point_choices_are_made_once_per_call(monkeypatch):
    # _plan decides whether a point integrates its noise once per call,
    # not once per block or per family
    calls = []
    real = mc._integrates
    monkeypatch.setattr(mc, "_integrates", lambda *args: calls.append(args) or real(*args))
    points = [(cfg, scheme, [0.1, 1.0]) for cfg in (CFG, replace(FIG3A_CFG, num_elements=4))
              for scheme in SCHEMES]
    simulate(points, trials=2 * BLOCK_TRIALS + 5, seed=3)
    assert len(calls) == len(points)


@pytest.mark.parametrize("workers", [1, 2])
def test_integrating_and_drawn_points_share_a_call_bit_for_bit(workers):
    # points that integrate the noise out and points that read it drawn, in
    # one call, each get its lone call's estimates; the fig3a points draw
    # n_s here for the others, and the default points sum the channel powers
    trials = 2 * BLOCK_TRIALS + 17
    powers = [dbm_to_watts(d) for d in (10.0, 20.0, 30.0)]
    points = [(replace(FIG3A_CFG, num_elements=4), "astars_noma", powers,
               ("outage_r_psic", "outage_t")),
              (CFG, "astars_noma", powers),
              (replace(FIG3A_CFG, num_elements=4), "astars_oma", powers),
              (FIG3A_CFG, "astars_noma", powers, ("throughput_limited", "outage_system")),
              (replace(CFG, num_elements=4), "astars_noma", powers[1], ("outage_t",)),
              (replace(FIG3A_CFG, path_alpha=3.0), "astars_noma", powers, ("outage_t",))]
    swept = simulate(points, trials=trials, seed=17, workers=workers)
    for (cfg, scheme, ps, *own), got in zip(points, swept):
        lone = simulate(cfg, scheme, ps, trials=trials, seed=17, metrics=own[0] if own else None)
        assert got == lone, (cfg, scheme, own)


def test_estimate_keys_name_one_sic_mode(monkeypatch):
    ps = dbm_to_watts(20.0)
    full = {scheme: simulate(CFG, scheme, ps, trials=10_000) for scheme in SCHEMES}
    for names in (("outage_r_psic",), ("outage_system_ipsic", "rate_r_psic"),
                  ("throughput_limited_psic", "throughput_tolerant_ipsic", "outage_t")):
        for scheme in ("astars_noma", "pstars_noma"):
            got = simulate(CFG, scheme, ps, trials=10_000, metrics=names)
            assert got == {key: full[scheme][key] for key in names}, (scheme, names)
        # astars_oma has no SIC modes and reads a key as its family
        got = simulate(CFG, "astars_oma", ps, trials=10_000, metrics=names)
        assert got == {key: full["astars_oma"][key] for key in map(mc._family, names)}
    # one mode's key evaluates that mode's stages alone
    stages = []
    real = mc._outage
    monkeypatch.setattr(mc, "_outage", lambda *args: stages.append(args[0]) or real(*args))
    simulate(CFG, "astars_noma", ps, trials=100, metrics=("outage_r_psic",))
    assert len(stages) == 1 and all(w is None for *_, w in stages[0])
    for names in (("outage_t_psic",), ("rate_t_ipsic",), ("outage_r_xsic",),
                  ("outage_r_psic_ipsic",), ("outage_system", "outage_system_ipsic")):
        with pytest.raises(ConfigError):
            simulate(CFG, "astars_noma", ps, trials=10, metrics=names)


def test_rate_families_form_only_the_stages_they_read(monkeypatch):
    # a rate reads each user's last stage alone: never the reflection
    # user's first stage, and a user no requested family reads not at all
    calls = []
    real = mc._sinr

    def recording(stage, *args):
        calls.append(stage)
        return real(stage, *args)

    monkeypatch.setattr(mc, "_sinr", recording)
    first, psic = decode_stages(CFG, "astars_noma")[1]["_psic"]
    for families, want in ((("rate_t",), [first]), (("rate_r",), [psic, psic[:3] + (True,)]),
                           (mc._RATE_READERS, [first, psic, psic[:3] + (True,)])):
        calls.clear()
        simulate(CFG, "astars_noma", 1.0, trials=100, metrics=families)
        assert calls == want, families


def test_non_finite_rate_raises_naming_scheme_and_block(monkeypatch):
    # a user at d = 0 on the passive surface, which adds no noise, has an
    # infinite own-signal SINR; with the surface's noise the SINR is finite
    real = mc._stream

    class ZeroAtBlock1:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            u = self.rng.random(size)
            u[0, 5] = 0.0
            return u

    def patched(seed, block, purpose):
        rng = real(seed, block, purpose)
        return ZeroAtBlock1(rng) if purpose == "U" and block == 1 else rng

    monkeypatch.setattr(mc, "_stream", patched)
    trials = 3 * BLOCK_TRIALS
    with pytest.raises(NumericIntegrityError, match=r"pstars_noma block 1"):
        simulate(CFG, "pstars_noma", 1.0, trials=trials, metrics=("rate_r",))
    simulate(CFG, "astars_noma", 1.0, trials=trials, metrics=("rate_r",))
    simulate(CFG, "pstars_noma", 1.0, trials=trials, metrics=("rate_t", "outage_r"))


# ---------------------------------------------------------------------------
# power budget
# ---------------------------------------------------------------------------

def test_passive_budget_linear_subtraction():
    cfg = replace(CFG, pc_watts=1e-5)
    assert budget_to_ps(0.1, cfg, active=False) == pytest.approx(0.1 - 1e-4, rel=1e-12)


def test_active_budget_round_trip():
    for q_dbm in (5.0, 20.0, 30.0, 50.0):
        q = dbm_to_watts(q_dbm)
        ps = budget_to_ps(q, CFG, active=True)
        back = (ps + surface_output_power(CFG, ps)
                + CFG.num_elements * (CFG.pc_watts + CFG.pd_watts))
        assert back == pytest.approx(q, rel=1e-12)
        assert ps > 0.0


def test_active_budget_amplifier_vanishing_limit():
    cfg = replace(CFG, amp_lambda=1.0 + 1e-9, beta_r=1e-9, beta_t=1e-9,
                  a_r=0.5, a_t=0.5)
    q = 0.01
    drain = cfg.num_elements * (cfg.pc_watts + cfg.pd_watts)
    assert budget_to_ps(q, cfg, active=True) == pytest.approx(q - drain, rel=1e-6)


def test_infeasible_budgets_raise():
    with pytest.raises(ConfigError):
        budget_to_ps(1e-5, CFG, active=True)  # below the static drain
    with pytest.raises(ConfigError):
        budget_to_ps(CFG.num_elements * CFG.pc_watts, CFG, active=False)
    with pytest.raises(ConfigError):
        budget_to_ps(-1.0, CFG)

"""Kernel tests: incomplete gamma, the scaled exponential integral, Bessel
functions, quadrature rules, and the high-SNR factor 2F1(2, 1/2; 5/2; z).

Expected values come from independent oracles: adaptive quadrature
(scipy.integrate), plain series summation coded inline, closed forms,
scipy.special and mpmath, or a hand-built Golub-Welsch eigenproblem.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import exp1, gammainc, hyp2f1

from astars_noma import numerics
from astars_noma.asymptotic import _hyp_factor, high_snr_cascade_cdf
from astars_noma.model import NetworkConfig, gamma_fit
from astars_noma.numerics import (_E1_SERIES, _EULER_GAMMA, NumericIntegrityError,
                                  QuadratureRule, _bessel_i01e, bessel_k, exp_e1,
                                  gauss_jacobi_rule, gauss_laguerre_rule,
                                  laguerre_half, reg_lower_gamma)


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def quad_lower_gamma(a, x):
    """Adaptive-quadrature oracle for int_0^x t^{a-1} e^{-t} dt."""
    if x == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x,
                            epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


def lower_incomplete_gamma(a, x):
    """gamma(a, x) from the regularized routine: Gamma(a) P(a, x)."""
    return math.gamma(a) * reg_lower_gamma(a, x)


def test_lower_gamma_trivial_cases():
    assert lower_incomplete_gamma(1.0, 0.0) == 0.0
    assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_lower_gamma_vs_quadrature_oracle():
    # frozen from the quadrature oracle below; recomputed live as a guard
    assert lower_incomplete_gamma(2.5, 3.0) == pytest.approx(0.9222712123078349, rel=1e-12)
    assert lower_incomplete_gamma(2.5, 3.0) == pytest.approx(quad_lower_gamma(2.5, 3.0), rel=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 2.5, 5.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 2.9, 7.5])
def test_lower_gamma_grid_vs_oracle(a, x):
    # the acceptance grid: 20 (a, x) pairs at 1e-10 relative
    assert lower_incomplete_gamma(a, x) == pytest.approx(quad_lower_gamma(a, x), rel=1e-10)


def test_lower_gamma_domain_errors():
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(1.0, -0.5)
    # a non-finite shape and a NaN argument are refused before any iteration
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError):
            reg_lower_gamma(a, 1.0)
    for bad in (math.nan, np.array([1.0, math.nan, 5.0])):
        with pytest.raises(ValueError):
            reg_lower_gamma(2.0, bad)


def test_lower_gamma_at_infinity():
    assert reg_lower_gamma(2.0, math.inf) == 1.0
    got = reg_lower_gamma(2.0, np.array([1.0, math.inf, 0.0]))
    assert got[1] == 1.0 and got[2] == 0.0
    assert got[0] == pytest.approx(1.0 - 2.0 / math.e, rel=1e-15)


# gamma shapes p of the moment-matched cascade law at (kappa dB, L), and the
# bound on the relative error against scipy, fixed before the fixed-depth
# kernel was written: 2x the largest error of the earlier Lentz and
# forward-series kernel on the same points (refs >= the smallest normal).
# The error grows with a through the rounding of the exponent a ln x - x.
MODEL_SHAPES = [(-5.0, 1, 5.3e-15), (-5.0, 4, 1.6e-14), (-5.0, 10, 4.1e-14),
                (0.0, 40, 2.2e-13), (20.0, 10, 3.1e-12), (20.0, 40, 1.6e-11)]


@pytest.mark.parametrize("kappa_db, num_elements, rtol", MODEL_SHAPES)
def test_reg_lower_gamma_vs_scipy_at_model_shapes(kappa_db, num_elements, rtol):
    a = gamma_fit(10.0 ** (kappa_db / 10.0), num_elements).p
    # the points straddle the series/fraction switch at a + 1
    x = np.concatenate([np.geomspace(1e-3 * a, 50.0 * a, 4001),
                        [a + 1.0 - 1e-12, a + 1.0 + 1e-12]])
    got = reg_lower_gamma(a, x)
    np.testing.assert_allclose(got, gammainc(a, x), rtol=rtol, atol=np.finfo(float).tiny)
    # one depth per call serves the whole mixed array
    single = np.array([reg_lower_gamma(a, float(v)) for v in x])
    assert np.max(np.abs(got - single)) <= 1e-15


def test_reg_lower_gamma_vectorized_matches_scalar():
    xs = np.linspace(0.0, 60.0, 301)
    vec = reg_lower_gamma(16.8, xs)
    scal = np.array([reg_lower_gamma(16.8, float(x)) for x in xs])
    assert np.max(np.abs(vec - scal)) < 1e-15


@given(a=st.floats(0.05, 5000.0), x1=st.floats(0.0, 100.0), x2=st.floats(0.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_reg_lower_gamma_monotone_and_bounded(a, x1, x2):
    lo, hi = sorted((x1, x2))
    p_lo = reg_lower_gamma(a, lo)
    p_hi = reg_lower_gamma(a, hi)
    assert 0.0 <= p_lo <= 1.0 and 0.0 <= p_hi <= 1.0
    assert p_hi >= p_lo - 1e-13


def test_lower_gamma_saturates_at_gamma():
    assert lower_incomplete_gamma(3.7, 500.0) == pytest.approx(math.gamma(3.7), rel=1e-14)


def test_depth_passes_fail_to_converge(monkeypatch):
    # the series, the fraction and e^x E1(x) each read their depth from a
    # scalar pass bounded by _MAX_ITER
    monkeypatch.setattr(numerics, "_MAX_ITER", 1)
    for call, what in ((lambda: reg_lower_gamma(16.8, 5.0), "series"),
                       (lambda: reg_lower_gamma(16.8, 30.0), "continued fraction"),
                       (lambda: exp_e1(np.array([3.0])), "continued fraction")):
        with pytest.raises(NumericIntegrityError, match=f"{what} failed to converge"):
            call()


# ---------------------------------------------------------------------------
# scaled exponential integral e^x E1(x)
# ---------------------------------------------------------------------------

def test_exp_e1_vs_scipy():
    # both branches, the series/continued-fraction switch at x = 2 and the
    # fraction's band edge at x = 10
    x = np.concatenate([np.geomspace(1e-12, 700.0, 20001),
                        [2.0 - 1e-12, 2.0, 2.0 + 1e-12, 10.0 - 1e-12, 10.0, 10.0 + 1e-12]])
    np.testing.assert_allclose(exp_e1(x), np.exp(x) * exp1(x), rtol=5e-14, atol=0.0)


def test_exp_e1_vs_asymptotic_series():
    # past 700 scipy's e^x overflows; the 8-term asymptotic series
    # sum_k (-1)^k k!/x^(k+1) is good to 8!/x^8 < 1e-18 relative there
    x = np.geomspace(700.0, 1e12, 2001)
    series = sum((-1) ** k * math.factorial(k) / x ** (k + 1) for k in range(8))
    np.testing.assert_allclose(exp_e1(x), series, rtol=5e-14, atol=0.0)


def test_exp_e1_series_is_polyval():
    # the in-place Horner loop keeps polyval's operation order: bit-identical
    x = np.linspace(0.0, 2.0, 10002)[1:-1]
    ref = np.exp(x) * (-_EULER_GAMMA - np.log(x)
                       - np.polynomial.polynomial.polyval(x, _E1_SERIES))
    assert np.array_equal(exp_e1(x), ref)


def test_exp_e1_at_infinity():
    assert float(exp_e1(math.inf)) == 0.0
    got = exp_e1(np.array([math.inf, 1.0, 30.0]))
    assert got[0] == 0.0 and np.all(got[1:] > 0.0)


def test_exp_e1_shape_and_domain():
    assert exp_e1(np.ones((2, 3))).shape == (2, 3)
    assert float(exp_e1(1.0)) == pytest.approx(math.e * float(exp1(1.0)), rel=5e-14)
    for bad in (0.0, -1.0, math.nan, np.array([1.0, math.nan]), np.array([2.0, -3.0])):
        with pytest.raises(ValueError):
            exp_e1(bad)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def test_bessel_k_half_integer_closed_forms():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x};  K_{3/2}(x) = same * (1 + 1/x)
    for x in (0.5, 1.0, 2.0, 5.0):
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for nu, ref in ((0.5, base), (-0.5, base),
                        (1.5, base * (1.0 + 1.0 / x)), (-1.5, base * (1.0 + 1.0 / x))):
            assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)


def test_bessel_k_spot_value():
    assert bessel_k(0.5, 2.0) == pytest.approx(math.sqrt(math.pi / 4.0) * math.exp(-2.0),
                                               rel=1e-12)


def test_bessel_k_order_symmetry():
    for nu in (0.3, 1.2, 2.7):
        for x in (0.4, 1.0, 3.0, 9.0):
            assert bessel_k(-nu, x) == pytest.approx(bessel_k(nu, x), rel=1e-13)


def test_bessel_k0_vs_integral_oracle():
    # K_0(x) = int_0^inf exp(-x cosh t) dt
    for x in (0.6, 1.0, 2.5):
        ref, _ = integrate.quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, 30.0,
                                epsabs=1e-15, epsrel=1e-13, limit=200)
        assert bessel_k(0.0, x) == pytest.approx(ref, rel=1e-11)


def test_bessel_k_integer_order_vs_integral_oracle():
    # K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt
    for n in (1.0, 2.0, 3.0):
        for x in (1.0, 4.0):
            ref, _ = integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(n * t),
                0.0, 30.0, epsabs=1e-15, epsrel=1e-13, limit=200)
            assert bessel_k(n, x) == pytest.approx(ref, rel=1e-10)


def test_bessel_k_domain_error():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)


def _i0_i1_series_oracle(x):
    """Plain power-series oracle for I0 and I1."""
    t = x * x / 4.0
    term, i0 = 1.0, 1.0
    for k in range(1, 200):
        term *= t / (k * k)
        i0 += term
        if term < 1e-18 * i0:
            break
    term, s1 = 1.0, 1.0
    for k in range(1, 200):
        term *= t / (k * (k + 1))
        s1 += term
        if term < 1e-18 * s1:
            break
    return i0, 0.5 * x * s1


def test_laguerre_half_at_zero():
    assert laguerre_half(0.0) == 1.0
    # only the Rician-moment half-axis x = -kappa <= 0 is implemented
    with pytest.raises(ValueError):
        laguerre_half(0.5)


def test_laguerre_half_at_minus_one_vs_series_oracle():
    i0, i1 = _i0_i1_series_oracle(0.5)
    ref = math.exp(-0.5) * (2.0 * i0 + i1)
    assert laguerre_half(-1.0) == pytest.approx(ref, rel=1e-14)
    assert laguerre_half(-1.0) == pytest.approx(1.446491344083172, rel=1e-13)


def test_laguerre_half_increasing_on_negative_axis():
    grid = [0.0, 0.5, 1.0, 2.0]
    vals = [laguerre_half(-k) for k in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_scaled_bessel_i_branch_consistency():
    # series/asymptotic switchover at x = 20: both branches must match the
    # integral representation I_n(x) = (1/pi) int_0^pi e^{x cos t} cos(nt) dt
    for x in (19.999999, 20.000001):
        i0e, i1e = _bessel_i01e(x)
        for n, got in ((0, i0e), (1, i1e)):
            ref, _ = integrate.quad(
                lambda t: math.exp(x * (math.cos(t) - 1.0)) * math.cos(n * t),
                0.0, math.pi, epsabs=1e-16, epsrel=1e-13, limit=200)
            assert got == pytest.approx(ref / math.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def test_gauss_laguerre_k1():
    rule = gauss_laguerre_rule(1)
    assert rule.nodes == pytest.approx([1.0], abs=1e-14)
    assert rule.weights == pytest.approx([1.0], abs=1e-14)


def test_gauss_laguerre_k2_vs_golub_welsch_oracle():
    # 2x2 Jacobi matrix [[1, 1], [1, 3]]: eigenvalues are the roots of
    # y^2 - 4y + 2, weights are the squared first eigenvector components
    jac = np.array([[1.0, 1.0], [1.0, 3.0]])
    vals, vecs = np.linalg.eigh(jac)
    rule = gauss_laguerre_rule(2)
    assert rule.nodes == pytest.approx(vals, abs=1e-13)
    assert rule.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)],
                                       abs=1e-13)
    assert rule.weights == pytest.approx(vecs[0, :] ** 2, abs=1e-13)


def test_gauss_laguerre_third_moment_k5():
    rule = gauss_laguerre_rule(5)
    assert float(np.sum(rule.weights * rule.nodes ** 3)) == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize("size", [1, 2, 5, 13, 40])
def test_gauss_laguerre_moment_exactness(size):
    rule = gauss_laguerre_rule(size)
    for m in range(2 * size):
        est = float(np.sum(rule.weights * rule.nodes ** m))
        assert est == pytest.approx(math.factorial(m), rel=1e-9), f"moment {m}"


@pytest.mark.parametrize("size", [1, 2, 5, 40, 200, 1000])
def test_gauss_laguerre_structure(size):
    rule = gauss_laguerre_rule(size)
    assert rule.kind == "laguerre"
    assert len(rule) == size
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.nodes > 0.0)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-10


def test_gauss_laguerre_large_k_noninteger_power():
    rule = gauss_laguerre_rule(200)
    p = 16.8
    est = float(np.sum(rule.weights * rule.nodes ** (p - 1.0)))
    assert est == pytest.approx(math.gamma(p), rel=1e-12)


def test_gauss_laguerre_range_errors():
    with pytest.raises(ValueError):
        gauss_laguerre_rule(0)
    with pytest.raises(ValueError):
        gauss_laguerre_rule(2001)


@pytest.mark.parametrize("size", [20, 200])
@pytest.mark.parametrize("p", [0.6, 8.9, 1005.0, 4020.0])
def test_generalized_laguerre_gamma_moments(p, size):
    # the rule for alpha = p - 1 integrates t^m against the Gamma(p)
    # density: the rising factorial p (p+1) ... (p+m-1)
    rule = gauss_laguerre_rule(size, p - 1.0)
    assert rule.kind == "laguerre"
    assert np.all(np.diff(rule.nodes) > 0.0) and np.all(rule.nodes > 0.0)
    for m in range(11):
        est = float(np.sum(rule.weights * rule.nodes ** m))
        assert est == pytest.approx(math.prod(p + i for i in range(m)), rel=1e-10), f"m={m}"


def mp_laguerre_pair(size, alpha, y):
    """L^alpha_size(y) and L^alpha_{size-1}(y) by the three-term recurrence in
    mpmath arithmetic."""
    prev, cur = mpmath.mpf(1), 1 + alpha - y
    for n in range(1, size):
        prev, cur = cur, ((2 * n + 1 + alpha - y) * cur - (n + alpha) * prev) / (n + 1)
    return cur, prev


DEFAULT_ALPHA = gamma_fit(NetworkConfig.rician_kappa, NetworkConfig.num_elements).p - 1.0


@pytest.mark.parametrize("size, alpha", [(20, 0.0), (200, 0.0), (200, DEFAULT_ALPHA)])
def test_gauss_laguerre_rule_vs_mpmath_zeros_and_weights(size, alpha):
    # the true rule at 40 digits: Newton on the recurrence from each node to
    # the zero of L_K^alpha (1e-13 -> 1e-26 -> 1e-40), and
    # w = Gamma(K+alpha+1)/(K! Gamma(alpha+1)) / (y L_K'(y)^2) with
    # y L_K'(y) = K L_K(y) - (K+alpha) L_{K-1}(y) from the last step
    rule = gauss_laguerre_rule(size, alpha)
    node_err = weight_err = 0.0
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        norm = mpmath.gamma(size + a + 1) / (mpmath.factorial(size) * mpmath.gamma(a + 1))
        for node, weight in zip(rule.nodes, rule.weights):
            y = mpmath.mpf(float(node))
            for _ in range(3):
                lk, lkm1 = mp_laguerre_pair(size, a, y)
                y_deriv = size * lk - (size + a) * lkm1
                y -= lk * y / y_deriv
            true_w = norm * y / y_deriv ** 2
            node_err = max(node_err, float(abs(node - y) / y))
            if weight > 1e-300:
                weight_err = max(weight_err, float(abs(weight - true_w) / true_w))
    assert node_err < 1e-12
    assert weight_err < 1e-10


def test_gauss_laguerre_build_runs_one_recurrence_pass(monkeypatch):
    calls = []
    pair = numerics._laguerre_pair

    def spy(size, alpha, y):
        calls.append(size)
        return pair(size, alpha, y)

    monkeypatch.setattr(numerics, "_laguerre_pair", spy)
    gauss_laguerre_rule.cache_clear()
    gauss_laguerre_rule(200, 0.0)
    assert calls == [200]


def test_generalized_laguerre_alpha_domain():
    with pytest.raises(ValueError):
        gauss_laguerre_rule(5, -1.0)


def test_jacobi_small_rules():
    # one node at the mean 2/3 of the density 2v; two nodes at the roots
    # (6 -+ sqrt 6)/10 of the degree-2 orthogonal polynomial
    one = gauss_jacobi_rule(1)
    assert one.nodes == pytest.approx([2.0 / 3.0], abs=1e-15)
    assert one.weights == pytest.approx([1.0], abs=1e-15)
    rule = gauss_jacobi_rule(2)
    root6 = math.sqrt(6.0)
    assert rule.nodes == pytest.approx([(6.0 - root6) / 10.0, (6.0 + root6) / 10.0],
                                       abs=1e-15)
    assert rule.weights == pytest.approx([0.5 - root6 / 18.0, 0.5 + root6 / 18.0],
                                         abs=1e-15)


def test_jacobi_nodes_interior_sorted_and_exact():
    for size in (64, 100, 128):
        rule = gauss_jacobi_rule(size)
        assert rule.kind == "jacobi"
        assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
        assert np.all(np.diff(rule.nodes) > 0.0)
        # the density 2v on [0, 1]: moments 2/(m+2) up to degree 2V - 1
        for m in range(2 * size):
            est = float(np.sum(rule.weights * rule.nodes ** m))
            assert est == pytest.approx(2.0 / (m + 2.0), rel=1e-13), f"V={size}, moment {m}"


def test_jacobi_range_errors():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(0)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(2001)


def test_rules_are_cached_and_frozen():
    for build in (gauss_laguerre_rule, gauss_jacobi_rule):
        a = build(17)
        b = build(17)
        assert a is b
        with pytest.raises(ValueError):
            a.nodes[0] = 0.0
        with pytest.raises(ValueError):
            a.weights[0] = 0.0


def test_rule_determinism_across_threads():
    from concurrent.futures import ThreadPoolExecutor
    gauss_laguerre_rule.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        rules = list(pool.map(lambda _: gauss_laguerre_rule(64).nodes.copy(), range(16)))
    ref = rules[0]
    for r in rules[1:]:
        assert np.array_equal(r, ref)


# ---------------------------------------------------------------------------
# 2F1(2, 1/2; 5/2; z), the high-SNR factor (asymptotic._hyp_factor)
# ---------------------------------------------------------------------------

def hyp(z):
    return _hyp_factor(np.atleast_1d(np.asarray(z, dtype=float)))


def test_hyp2f1_constant_term():
    assert hyp(0.0)[0] == 1.0


def test_hyp2f1_vs_series_oracle():
    # scipy's own error reaches 1.1e-14 near z = 0.9 (against 40-digit
    # mpmath), so it is held at 2e-14 and mpmath at 1e-15
    z = np.concatenate([np.linspace(0.0, 1.0 - 1e-12, 2201),
                        [0.5 - 1e-7, 0.5, 0.5 + 1e-7, 1.0 - 1e-9, 1.0 - 1e-12]])
    ref = hyp2f1(2.0, 0.5, 2.5, z)
    np.testing.assert_allclose(hyp(z), ref, rtol=2e-14, atol=0.0)
    zs = np.concatenate([z[::40], [0.5 - 1e-7, 0.5 + 1e-7, 0.905, 1.0 - 1e-12]])
    exact = np.array([float(mpmath.hyp2f1(2, 0.5, 2.5, mpmath.mpf(v))) for v in zs])
    np.testing.assert_allclose(hyp(zs), exact, rtol=1e-15, atol=0.0)
    assert hyp(0.5)[0] == pytest.approx(1.304513580631037, rel=1e-15)


def test_hyp2f1_balanced_branch_continuity():
    # the Taylor series on one side of the 0.5 split, the closed form on the other
    lo, hi = hyp([0.4999999, 0.5000001])
    assert lo == pytest.approx(hyp2f1(2.0, 0.5, 2.5, 0.4999999), rel=1e-15)
    assert hi == pytest.approx(hyp2f1(2.0, 0.5, 2.5, 0.5000001), rel=1e-15)
    assert lo == pytest.approx(hi, rel=1e-6)


def test_hyp2f1_near_one_balanced_grows_like_log():
    # c - a - b = 0: the function diverges ~ -(3/4) ln(1-z)
    v1, v2 = hyp([1.0 - 1e-4, 1.0 - 1e-8])
    assert v2 - v1 == pytest.approx(0.75 * math.log(1e4), rel=0.02)
    assert v2 == pytest.approx(hyp2f1(2.0, 0.5, 2.5, 1.0 - 1e-8), rel=1e-14)


def test_hyp2f1_domain_errors():
    # the factor's argument lives in [0, z_cap] with z_cap < 1: the cap
    # itself and a negative CDF argument are rejected
    with pytest.raises(ValueError):
        high_snr_cascade_cdf(0.0, 1, 1e-12, z_cap=1.0)
    with pytest.raises(ValueError):
        high_snr_cascade_cdf(0.0, 1, 1e-12, z_cap=0.0)
    with pytest.raises(ValueError):
        high_snr_cascade_cdf(0.0, 1, -0.1)
    with pytest.raises(ValueError):
        high_snr_cascade_cdf(0.0, 1, np.array([1e-12, -0.1]))


def test_quadrature_rule_dataclass():
    rule = QuadratureRule("jacobi", np.array([0.5]), np.array([1.0]))
    assert rule.kind == "jacobi"
    assert len(rule) == 1

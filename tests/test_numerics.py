"""Quadrature and superposition primitives against independent references."""

import math
import re
import warnings
from bisect import bisect_left

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sci
from scipy.signal import czt

from qensemble import ensemble, numerics, squarewell
from qensemble.numerics import (
    Grid1D,
    _cis,
    _decay_sum,
    _linear_phase,
    _simpson_rule,
    _smooth_length,
    _synthesize,
    integrate_real,
    integrate_weighted,
    radial_superposition,
)

TWO_PI = 2.0 * np.pi


class TestGrid1D:
    def test_points_and_spacing(self):
        grid = Grid1D(-1.0, 1.0, 5)
        assert_allclose(grid.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.spacing == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_min": 0.0, "x_max": 1.0, "n": 1},
            {"x_min": 1.0, "x_max": 1.0, "n": 10},
            {"x_min": 2.0, "x_max": 1.0, "n": 10},
            {"x_min": float("nan"), "x_max": 1.0, "n": 10},
            {"x_min": 3.1107461721572103e-111, "x_max": 1.7976931348623157e308, "n": 213},
            {"x_min": -1e308, "x_max": 1e308, "n": 3},
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            Grid1D(**kwargs)


class TestIntegrateReal:
    @pytest.mark.parametrize("n,tol", [(1001, 1e-10), (1000, 1e-10), (101, 1e-7), (3, 0.1)])
    def test_sine_integral(self, n, tol):
        # even node counts exercise the end-correction branch
        x = np.linspace(0.0, np.pi, n)
        assert abs(integrate_real(np.sin(x), x[1] - x[0]) - 2.0) <= tol

    def test_matches_scipy_on_odd_grids(self):
        x = np.linspace(0.0, 3.0, 201)
        y = np.exp(-x) * np.cos(4.0 * x)
        ours = integrate_real(y, x[1] - x[0])
        theirs = sci.simpson(y, x=x)
        assert_allclose(ours, theirs, rtol=0.0, atol=1e-14)

    def test_cubic_is_exact(self):
        x = np.linspace(-1.0, 2.0, 7)
        y = x**3 - 2.0 * x
        exact = (2.0**4 - 1.0) / 4.0 - (2.0**2 - 1.0)
        assert_allclose(integrate_real(y, x[1] - x[0]), exact, rtol=0.0, atol=1e-14)


class TestRuleWeights:
    """Integrals over _simpson_rule nodes take the rule's weights, which are bit for bit the rebuilt ones."""

    @pytest.mark.parametrize("lo,hi,n", [(0.0, 1.0, 2), (-7.5, 2.25, 801), (0.0, 3.0, 40000)])
    def test_weighted_integral_equals_spacing_form(self, lo, hi, n):
        x, w, h = _simpson_rule(lo, hi, n)
        vals = np.cos(x) ** 2 + x
        assert integrate_weighted(vals, w) == integrate_real(vals, h)

    def test_non_finite_values_are_refused(self):
        _, w, _ = _simpson_rule(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="values must be finite"):
            integrate_weighted(np.array([0.0, 1.0, np.nan, 1.0, 0.0]), w)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ensemble.parseval_norm(ensemble.ParticleModel(mass=2.0), 1.3),
            lambda: ensemble.collapse_fraction(
                ensemble.ParticleModel(), ensemble.apply_retarding_filter(ensemble.ParticleModel(), 0.25)
            ),
            lambda: ensemble.uncertainty_product(lambda k: np.exp(-k * k / 2.0), (-20.0, 20.0)),
            lambda: squarewell.normalization_audit(squarewell.pair_member(_WELL, 0.5), _WELL),
        ],
        ids=["parseval_norm", "collapse_fraction", "uncertainty_product", "normalization_audit"],
    )
    def test_callers_give_the_bits_of_rebuilt_weights(self, call, monkeypatch):
        expected = call()
        rules, taken = {}, []

        def rule(lo, hi, n):
            x, w, h = _simpson_rule(lo, hi, n)
            rules[id(w)] = (w, h)
            return x, w, h

        def rebuilt(values, weights):
            # every weight array an integral takes is one the rule returned
            taken.append(weights)
            return integrate_real(values, rules[id(weights)][1])

        for module in (ensemble, squarewell):
            monkeypatch.setattr(module, "_simpson_rule", rule)
            monkeypatch.setattr(module, "integrate_weighted", rebuilt)
        assert call() == expected
        assert taken


_WELL = squarewell.WellConfig(ensemble.ParticleModel(total_energy=1.5), v0=4.0, x0=1.0)


class TestIntegrateBall:
    """4 pi int_0^k_max f(k) k^2 dk on the rule's nodes, through integrate_weighted."""

    def test_linear_radial_profile(self):
        # integrand k * k^2 is cubic, which the rule integrates exactly
        k, w, _ = _simpson_rule(0.0, 2.0, 513)
        assert_allclose(4.0 * np.pi * integrate_weighted(k * k * k, w), 16.0 * np.pi, rtol=1e-13)

    def test_against_scipy_quad(self):
        k, w, _ = _simpson_rule(0.0, 1.5, 801)
        value = 4.0 * np.pi * integrate_weighted(np.exp(-(k**2)) * k * k, w)
        ref, _ = sci.quad(lambda q: 4.0 * np.pi * q * q * np.exp(-(q**2)), 0.0, 1.5)
        assert_allclose(value, ref, rtol=1e-10)


class TestRadialSuperposition:
    def test_flat_origin_value(self):
        # (2 pi)^(-3/2) * (4 pi / 3) * k_max^3 at the origin
        psi = radial_superposition(1.0, 1.0, 513, 0.0)
        assert psi.dtype == np.float64
        assert_allclose(psi[0], 0.2659615202676218, rtol=0.0, atol=1e-15)
        on_grid = radial_superposition(1.0, 1.0, 513, Grid1D(0.0, 1.0, 3).points())
        assert_allclose(on_grid[0], 0.2659615202676218, rtol=0.0, atol=1e-15)

    def test_grid_matches_pointwise(self):
        grid = Grid1D(0.0, 2.0, 5)
        field = radial_superposition(1.0, 1.0, 513, grid.points())
        single = [radial_superposition(1.0, 1.0, 513, float(r))[0] for r in grid.points()]
        assert_allclose(field, single, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.7])
    def test_flat_profile_against_quad(self, r):
        psi = radial_superposition(1.0, 1.0, 2001, r)
        ref, _ = sci.quad(lambda k: k * k * np.sin(k * r) / (k * r), 0.0, 1.0)
        ref *= 4.0 * np.pi * TWO_PI**-1.5
        assert_allclose(psi[0], ref, rtol=1e-10)

    def test_decaying_kernel_monotone(self):
        r = np.linspace(0.0, 3.0, 31)
        psi = radial_superposition(1.0, 1.0, 513, r, kernel="decaying")
        assert psi.dtype == np.float64
        assert np.all(psi > 0.0)
        assert np.all(np.diff(psi) < 0.0)
        # both kernels agree at the origin where the kernel factor is one
        osc = radial_superposition(1.0, 1.0, 513, 0.0)
        assert_allclose(psi[0], osc[0], rtol=1e-12)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            radial_superposition(1.0, 1.0, 513, 0.5, kernel="weird")

    def test_rejects_negative_radius(self):
        for k_max in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^k_max must be finite and nonnegative$"):
                radial_superposition(1.0, k_max, 513, 0.5)

    def test_rejects_fewer_than_two_nodes(self):
        # refused before the empty ball returns its zeros, too
        for k_max in (0.0, 1.0):
            with pytest.raises(ValueError, match="^ball quadrature needs at least 2 nodes$"):
                radial_superposition(1.0, k_max, 1, 0.5)


def flat_ball_oscillatory(K, r):
    """int_0^K k^2 sin(kr)/(kr) dk = (sin Kr - Kr cos Kr) / r^3."""
    z = K * r
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.sin(z) - z * np.cos(z)) / r**3
    # the closed form cancels catastrophically as Kr -> 0; sum its series
    small = z < 1.0
    zs = z[small]
    out[small] = K**3 * sum(
        (-1) ** n * (2 * n + 2) * zs ** (2 * n) / math.factorial(2 * n + 3) for n in range(12)
    )
    return out


def flat_ball_decaying(K, r):
    """int_0^K k^2 exp(-kr) dk = (2 - exp(-Kr) (K^2 r^2 + 2 K r + 2)) / r^3."""
    z = K * r
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (2.0 - np.exp(-z) * (z * z + 2.0 * z + 2.0)) / r**3
    small = z < 1.0
    zs = z[small]
    out[small] = K**3 * sum((-zs) ** n / (math.factorial(n) * (n + 3)) for n in range(25))
    return out


def odd_simpson_weights(k):
    """Composite Simpson weights h/3 [1, 4, 2, ..., 2, 4, 1] for an odd node count."""
    w = np.full(k.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (k[1] - k[0]) / 3.0


class TestRadialProfiles:
    """Whole radial profiles, origin and first nodes included."""

    r = np.linspace(0.0, 8.0, 801)

    @pytest.mark.parametrize(
        "kernel,closed",
        [("oscillatory", flat_ball_oscillatory), ("decaying", flat_ball_decaying)],
    )
    def test_flat_ball_closed_forms(self, kernel, closed):
        psi = radial_superposition(1.0, 1.0, 2001, self.r, kernel=kernel)
        ref = 4.0 * np.pi * TWO_PI**-1.5 * closed(1.0, self.r)
        assert np.abs(psi - ref).max() <= 2e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "kernel,closed",
        [("oscillatory", flat_ball_oscillatory), ("decaying", flat_ball_decaying)],
    )
    @pytest.mark.parametrize(
        "r",
        [
            np.linspace(-0.3, 0.7, 11),  # node 3 lands at 5.6e-17, not at 0
            np.linspace(1e-12, 8.0, 801),
            np.linspace(-2e-3, 2e-3, 41),  # every node inside the series cut
            np.linspace(0.0995, 0.1005, 11),  # nodes on both sides of the cut
        ],
    )
    def test_nodes_near_the_origin(self, kernel, closed, r):
        psi = radial_superposition(1.0, 1.0, 2001, r, kernel=kernel)
        ref = 4.0 * np.pi * TWO_PI**-1.5 * closed(1.0, np.abs(r))
        assert np.abs(psi - ref).max() <= 2e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("r", [0.0, 1e-300, 1e-12, 0.05, 0.2, 3.0])
    def test_scalar_radius_matches_sinc_sum(self, r):
        k, _, _ = _simpson_rule(0.0, 2.5, 801)
        amp = 0.7
        w = 4.0 * np.pi * TWO_PI**-1.5 * odd_simpson_weights(k) * k * k * amp
        ref = np.dot(w, np.sinc(k * r / np.pi))
        psi = radial_superposition(amp, 2.5, 801, r)
        assert abs(psi[0] - ref) <= 1e-14 * np.abs(w).sum()

    def test_non_uniform_radii_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            radial_superposition(1.0, 1.0, 513, np.array([0.0, 0.1, 0.25, 0.3]))

    @pytest.mark.parametrize(
        "convention,n_k,r",
        [
            # the first dense-figures operation at seed 7: the ensemble's v = 0 ball and collapse's full ball
            (ensemble.KineticConvention.SINGLE, 801, np.linspace(0.0, 8.0, 801)),
            (ensemble.KineticConvention.DOUBLE, 2001, np.linspace(0.0, 6.0, 601)),
        ],
        ids=["ensemble-801", "collapse-2001"],
    )
    def test_series_within_its_stated_bound_of_30_digit_sums(self, convention, n_k, r):
        p = ensemble.ParticleModel(total_energy=1.5177710407756604)
        k_max = ensemble.allowed_k_range(p, 0.0, convention).k_hi
        psi = radial_superposition(p.flat_amplitude, k_max, n_k, r)
        k, w, _ = _simpson_rule(0.0, k_max, n_k)
        wts = w * k * p.flat_amplitude
        pref = TWO_PI**-1.5 * 4.0 * np.pi
        small = np.nonzero(r * k_max < 0.1)[0]
        nodes = small[[0, small.size // 2, -1]]
        # the docstring's bound: (9 j + 4 + D) u on each term of moment j, weighted by t^j / (2j+1)!
        depth = 26 + math.log2(n_k)
        q = (k / k_max) ** 2
        errors, bounds = [], []
        for j in nodes:
            t = (k_max * r[j]) ** 2
            scale = [t**i / math.factorial(2 * i + 1) * np.sum(np.abs(wts * k * q**i)) for i in range(5)]
            rounding = 2.0**-53 * sum((9 * i + 4 + depth) * s for i, s in enumerate(scale))
            bounds.append(pref * (rounding + 3e-18 * scale[0]))
            with mpmath.workdps(30):
                rr = mpmath.mpf(r[j])
                kernel = [mpmath.sin(mpmath.mpf(km) * rr) / rr if r[j] else mpmath.mpf(km) for km in k]
                exact = float(mpmath.mpf(pref) * mpmath.fsum(mpmath.mpf(a) * g for a, g in zip(wts, kernel)))
            errors.append(abs(psi[j] - exact))
        ratio = np.array(errors) / np.array(bounds)
        assert ratio.max() <= 1.0
        assert ratio.max() >= 1e-3


class TestDecaySum:
    """Baby-step/giant-step decaying sums against the dense exp matrix."""

    @pytest.mark.parametrize(
        "n_k,d,nonnegative",
        [
            (2, [0.0, 0.5], False),
            (3, [0.0, 0.1, 2.0, 7.5], False),
            (23, np.linspace(0.0, 6.0, 37), True),  # b = 5 leaves 2 padded slots
            (2001, np.r_[0.0, np.geomspace(1e-4, 40.0, 300)], False),
            (1601, np.random.default_rng(3).uniform(0.0, 9.0, 250), True),
            (201, np.linspace(0.0, 9.0, 2 * numerics._DECAY_BLOCK + 452), True),  # two whole blocks and a part
        ],
    )
    def test_matches_dense(self, n_k, d, nonnegative):
        # nonnegative weights are what every caller passes; signed ones cancel
        rng = np.random.default_rng(n_k)
        d = np.asarray(d, dtype=float)
        dk = 1.7 / (n_k - 1)
        w = rng.uniform(size=n_k) if nonnegative else rng.normal(size=n_k)
        dense = np.exp(-np.outer(d, dk * np.arange(n_k))) @ w
        out = _decay_sum(w, dk, d)
        assert out.shape == d.shape
        assert np.abs(out - dense).max() <= 1e-13 * np.abs(w).sum()

    @staticmethod
    def bound(w, dk, d):
        """The docstring's bound: u sum_m (4 (b + n_p) + 2 d m dk) |w_m| exp(-d m dk)."""
        b = math.isqrt(w.size - 1) + 1
        n_p = -(-w.size // b)
        x = d * dk * np.arange(w.size)
        return 2.0**-53 * np.sum((4 * (b + n_p) + 2 * x) * np.abs(w) * np.exp(-x))

    @pytest.mark.parametrize(
        "module,run",
        [
            # the first dense-figures operation at seed 7: the well's exterior and the ensemble's v = 2.5 ball
            (
                squarewell,
                lambda: squarewell.well_ensemble_density(
                    squarewell.WellConfig(
                        ensemble.ParticleModel(total_energy=1.5177710407756604), v0=3.6756215699717756, x0=1.0
                    ),
                    Grid1D(-8.0, 8.0, 8001),
                    n_k=2001,
                    resonance_tol=1e-6,
                ),
            ),
            (
                numerics,
                lambda: ensemble.potential_wavefunction(
                    ensemble.ParticleModel(total_energy=1.5177710407756604),
                    2.5,
                    Grid1D(0.0, 8.0, 801),
                    n_k=801,
                ),
            ),
        ],
        ids=["well-exterior", "ensemble-v2.5"],
    )
    def test_within_its_stated_bound_of_30_digit_sums(self, module, run, monkeypatch):
        calls = []

        def recording(wts, dk, d):
            calls.append((np.asarray(wts), dk, np.asarray(d)))
            return _decay_sum(wts, dk, d)

        monkeypatch.setattr(module, "_decay_sum", recording)
        run()
        ((w, dk, d),) = calls
        out = _decay_sum(w, dk, d)
        nodes = [0, d.size // 2, d.size - 1]
        with mpmath.workdps(30):
            step = mpmath.mpf(dk)
            exact = [
                float(mpmath.fsum(mpmath.mpf(wm) * mpmath.exp(-mpmath.mpf(d[j]) * m * step) for m, wm in enumerate(w)))
                for j in nodes
            ]
        ratio = np.abs(out[nodes] - exact) / [self.bound(w, dk, d[j]) for j in nodes]
        assert ratio.max() <= 1.0
        assert ratio.max() >= 1e-3

    @pytest.mark.parametrize("n_k", [1, 2, 23, 2001])
    def test_zero_distance_sums_the_weights(self, n_k):
        w = np.random.default_rng(n_k).normal(size=n_k)
        out = _decay_sum(w, 0.37, np.zeros(3))
        assert np.all(out == out[0])
        assert abs(out[0] - math.fsum(w)) <= self.bound(w, 0.37, 0.0)

    def test_underflowing_giant_powers_stay_finite(self):
        # b = 45: at d = 3e3 the giant powers R^p pass through the subnormals to 0,
        # and from d dk b = 800 on R = exp(-d b dk) itself is 0
        n_k, dk = 2001, 1.7 / 2000
        w = np.random.default_rng(5).uniform(0.0, 1.0, n_k)
        d = np.array([0.0, 10.0, 3e3, 800.0 / (dk * 45), 3e4, 1e6, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _decay_sum(w, dk, d)
            dense = np.exp(-np.outer(d, dk * np.arange(n_k))) @ w
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)
        assert np.abs(out - dense).max() <= 1e-13 * np.abs(w).sum()
        assert out[-1] == w[0]


def line_synthesis(amplitude, lo, hi, x, n_k=2001):
    """(2 pi)^(-1/2) int_lo^hi chi(k) exp(i k x) dk on the Simpson rule, through the chirp-z synthesis."""
    k, w, dk = _simpson_rule(lo, hi, n_k)
    return TWO_PI**-0.5 * _synthesize(w * amplitude(k), lo, dk, x)


class TestLineSuperposition:
    """The Simpson rule and the chirp-z synthesis together, on a flat band."""

    def test_flat_band_closed_form(self):
        K = 2.0
        x = np.linspace(-5.0, 5.0, 401)
        psi = line_synthesis(lambda k: np.ones_like(k, dtype=complex), -K, K, x)
        with np.errstate(invalid="ignore"):
            ref = 2.0 * np.sin(K * x) / x / math.sqrt(TWO_PI)
        ref[x == 0.0] = 2.0 * K / math.sqrt(TWO_PI)
        assert np.abs(psi.real - ref).max() <= 1e-10
        assert np.abs(psi.imag).max() <= 1e-12

    def test_flat_band_origin_value(self):
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        one = line_synthesis(flat, 0.0, 1.0, Grid1D(0.0, 1.0, 3).points())
        assert_allclose(one[0].real, 1.0 / math.sqrt(TWO_PI), rtol=1e-12)

    def test_single_spectral_node_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            _simpson_rule(0.0, 1.0, 1)

    @pytest.mark.parametrize("n", [2, 3, 10, 2001])
    def test_rule_rounds_up_to_odd_simpson_nodes(self, n):
        k, w, dk = _simpson_rule(-0.5, 1.5, n)
        assert k.size == (n | 1) and k[0] == -0.5 and k[-1] == 1.5
        assert dk == k[1] - k[0]
        assert_allclose(w, odd_simpson_weights(k), rtol=1e-14, atol=0.0)


class TestSynthesize:
    """Chirp-z synthesis against the dense phase matrix and scipy's czt."""

    @staticmethod
    def case(n_x, x_lo, x_hi, n_k, k_lo, k_hi, seed=0):
        rng = np.random.default_rng(seed)
        x = np.linspace(x_lo, x_hi, n_x)
        k = np.linspace(k_lo, k_hi, n_k)
        w = rng.normal(size=n_k) + 1j * rng.normal(size=n_k)
        return x, k, w

    @staticmethod
    def dense(w, k, x):
        # blocks of rows keep the phase matrix small at the largest shapes
        blocks = np.array_split(x, -(-x.size // 256))
        return np.concatenate([np.exp(1j * np.outer(rows, k)) @ w for rows in blocks])

    @staticmethod
    def via_czt(w, k, x):
        # czt sums w_m z_j^(-m) on z_j = a w^(-j); z_j = exp(-i x_j dk) leaves
        # the factor exp(i x_j k_lo) outside
        dk = k[1] - k[0] if k.size > 1 else 0.1
        dx = x[1] - x[0] if x.size > 1 else 0.0
        pre = czt(w, m=x.size, w=np.exp(1j * dx * dk), a=np.exp(-1j * x[0] * dk))
        return np.exp(1j * x * k[0]) * pre

    @pytest.mark.parametrize(
        "n_x,x_lo,x_hi,n_k,k_lo,k_hi",
        [
            (1, 0.7, 0.7, 5, -1.0, 2.0),
            (9, -2.0, 3.0, 1, 0.4, 0.4),
            (2, -1.0, 1.0, 3, 0.0, 1.0),
            (401, 0.0, 8.0, 2001, 0.0, 3.0),
            (37, -9.0, -3.5, 23, -2.0, 5.0),
            (3001, -60.0, 60.0, 1601, -20.0, 20.0),
            (4001, -30.0, 50.0, 6191, -3.0, 13.0),
            (1201, -10.0, 25.0, 4001, -3.0, 13.0),
        ],
    )
    def test_matches_dense_and_czt(self, n_x, x_lo, x_hi, n_k, k_lo, k_hi):
        x, k, w = self.case(n_x, x_lo, x_hi, n_k, k_lo, k_hi)
        out = _synthesize(w, k_lo, k[1] - k[0] if n_k > 1 else 0.1, x)
        tol = 1e-10 * np.abs(w).sum()
        assert out.shape == (n_x,)
        assert np.abs(out - self.dense(w, k, x)).max() <= tol
        assert np.abs(out - self.via_czt(w, k, x)).max() <= tol

    def test_doubled_frequency_well_interior(self):
        # cos^2(k x) = (1 + Re e^{2ikx}) / 2 on the inner run of a well grid
        x = np.linspace(-8.0, 8.0, 1601)
        inner = x[np.abs(x) <= 1.0]
        k = np.linspace(0.0, 1.0, 2001)
        w = np.random.default_rng(1).uniform(0.0, 1.0, k.size)
        doubled = _synthesize(w, 0.0, 2.0 * (k[1] - k[0]), inner)
        via_fft = 0.5 * (w.sum() + doubled.real)
        ref = np.cos(np.outer(inner, k)) ** 2 @ w
        assert np.abs(via_fft - ref).max() <= 1e-10 * np.abs(w).sum()

    @staticmethod
    def full_lag_reference(wts, k_lo, dk, x):
        """_synthesize with the chirp evaluated at every lag -(n_k-1) .. n_x-1."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        w = np.asarray(wts, dtype=np.complex128)
        n_x, n_k = x_arr.size, w.size
        x0 = x_arr[0]
        dx = (x_arr[-1] - x0) / (n_x - 1) if n_x > 1 else 0.0
        j, m = np.arange(n_x), np.arange(n_k)
        half_alpha = 0.5 * dx * dk
        lag = np.arange(-(n_k - 1), n_x)
        lag_chirp = _cis(-half_alpha * (lag * lag))
        size = _smooth_length(n_x + n_k - 1)
        pre = w * np.conj(_cis(-half_alpha * (m * m))) * _linear_phase(x0 * dk, n_k)
        chirp = np.zeros(size, dtype=np.complex128)
        chirp[:n_x] = lag_chirp[n_k - 1 :]
        chirp[size - n_k + 1 :] = lag_chirp[: n_k - 1]
        conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp))[:n_x]
        post = _cis(x0 * k_lo) * _linear_phase(dx * k_lo, n_x)
        return post * np.conj(_cis(-half_alpha * (j * j))) * conv

    @pytest.mark.parametrize(
        "n_x,n_k",
        [(37, 401), (3001, 1601), (512, 512), (1, 5), (1, 1), (7, 1)],
    )
    def test_mirrored_chirp_is_bit_identical_to_full_lags(self, n_x, n_k):
        x, k, w = self.case(n_x, -9.0, 25.0, n_k, -3.0, 13.0)
        dk = k[1] - k[0] if n_k > 1 else 0.1
        out = _synthesize(w, -3.0, dk, x)
        assert out.tobytes() == self.full_lag_reference(w, -3.0, dk, x).tobytes()

    @staticmethod
    def bound(w, k_lo, dk, x, j):
        """The docstring's bound at node j, with x_j's distance from the uniform line taken to 30 digits."""
        n_x, n_k = x.size, w.size
        x0, dx = x[0], (x[-1] - x[0]) / (n_x - 1)
        size = _smooth_length(n_x + n_k - 1)
        m = np.arange(n_k)
        phase = abs(dx * dk) * (j * j + m * m) + 2 * abs(x0 * dk) * m + 2 * abs(dx * k_lo) * j + abs(x0 * k_lo)
        fft = (21 * math.log2(size) + 3) * math.sqrt(n_x + n_k - 1) * np.linalg.norm(w)
        rounding = 2.0**-53 * (fft + 36 * np.abs(w).sum() + np.dot(phase, np.abs(w)))
        with mpmath.workdps(30):
            offset = float(abs(mpmath.mpf(x[j]) - mpmath.mpf(x0) - j * mpmath.mpf(dx)))
        return rounding + offset * np.abs((k_lo + m * dk) * w).sum()

    # the least ratio each shape's worst node must reach: the radial shape's
    # random weights stay near 5.7e-4 of the bound at every node
    floors = {601: 5e-4}

    @pytest.mark.parametrize(
        "n_x,x_lo,x_hi,n_k,k_lo,k_hi",
        [
            # a 3001 x 1601 line band, packet_norm_transport at t = 2, a radial sum
            (3001, -30.0, 30.0, 1601, -20.0, 20.0),
            (4001, -30.0, 50.0, 6193, -3.0, 13.0),
            (601, 0.0, 6.0, 2001, 0.0, 1.5),
        ],
    )
    def test_matches_30_digit_sums(self, n_x, x_lo, x_hi, n_k, k_lo, k_hi):
        x, k, w = self.case(n_x, x_lo, x_hi, n_k, k_lo, k_hi)
        dk = k[1] - k[0]
        out = _synthesize(w, k_lo, dk, x)
        nodes = [0, n_x // 3 + 1, n_x - 1]
        with mpmath.workdps(30):
            terms = [mpmath.mpc(v.real, v.imag) for v in w]
            k_m = [mpmath.mpf(k_lo) + m * mpmath.mpf(dk) for m in range(n_k)]
            exact = [
                complex(mpmath.fsum(t * mpmath.expj(mpmath.mpf(x[j]) * km) for t, km in zip(terms, k_m)))
                for j in nodes
            ]
        ratio = np.abs(out[nodes] - exact) / [self.bound(w, k_lo, dk, x, j) for j in nodes]
        assert np.all(ratio <= 1.0)
        assert ratio.max() >= self.floors.get(n_x, 1e-3)

    def test_smooth_length_is_the_least_5_smooth_length(self):
        smooth = sorted(
            2**a * 3**b * 5**c for a in range(16) for b in range(10) for c in range(7) if 2**a * 3**b * 5**c <= 1 << 15
        )
        for n in range(1, 20001):
            size = _smooth_length(n)
            assert size == smooth[bisect_left(smooth, n)]
            assert size <= 1 << (n - 1).bit_length()

    @pytest.mark.parametrize("c", [0.7, -123.456, 3.0e-4])
    @pytest.mark.parametrize("n", [1, 2, 4096, 4097, 10191])
    def test_linear_phase_matches_direct_exponentials(self, n, c):
        ref = np.exp(1j * c * np.arange(n))
        out = _linear_phase(c, n)
        assert out.shape == (n,)
        assert np.abs(out - ref).max() <= 4.0 * np.spacing(max(abs(c * n), 1.0))

    def test_cis_is_bit_identical_to_complex_exp(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.uniform(-3.0, 15.0, 4000)
        assert _cis(theta).tobytes() == np.exp(1j * theta).tobytes()

    def test_non_uniform_positions_rejected(self):
        w = np.ones(5, dtype=complex)
        with pytest.raises(ValueError, match="uniform"):
            _synthesize(w, 0.0, 0.1, np.array([0.0, 0.1, 0.25, 0.3]))


    @pytest.mark.parametrize(
        "x,n_k,k_lo,dk,span",
        [
            (np.linspace(0.0, 1e307, 3), 11, 0.0, 1.0, "0 .. 1e+307"),
            (1e308, 11, 0.0, 1.0, "1e+308 .. 1e+308"),
            (1e308, 11, 10.0, 1e-300, "1e+308 .. 1e+308"),
        ],
        ids=["lag_chirp", "weight_phase", "node_phase"],
    )
    def test_overflowing_phases_are_refused(self, x, n_k, k_lo, dk, span):
        # each case overflows one phase table alone: exp(-i alpha l^2 / 2), exp(i x0 dk m) or exp(i x0 k_lo)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=re.escape(f"phases overflow on the grid {span} at dk = {dk:g}")):
                _synthesize(np.ones(n_k, dtype=complex), k_lo, dk, x)

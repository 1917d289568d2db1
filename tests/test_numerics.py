"""Quadrature and superposition primitives against independent references."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as sci
from scipy.signal import czt

from qensemble import numerics
from qensemble.numerics import (
    ComplexField,
    Grid1D,
    KBall,
    _decay_sum,
    _simpson_rule,
    _synthesize,
    integrate_ball,
    integrate_real,
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


class TestKBall:
    def test_nodes_are_odd_and_span(self):
        ball = KBall(2.0, n_k=10)
        nodes = ball.nodes()
        assert nodes.size % 2 == 1
        assert nodes[0] == 0.0 and nodes[-1] == 2.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            KBall(-1.0)


class TestComplexField:
    def test_density(self):
        grid = Grid1D(0.0, 1.0, 3)
        field = ComplexField(grid, np.array([1.0, 1j, 1.0 + 1j]))
        assert_allclose(field.density(), [1.0, 1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ComplexField(Grid1D(0.0, 1.0, 3), np.zeros(4, dtype=complex))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ComplexField(Grid1D(0.0, 1.0, 2), np.array([1.0, np.inf], dtype=complex))


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


class TestIntegrateBall:
    def test_linear_radial_profile(self):
        # integrand k * k^2 is cubic, which the rule integrates exactly
        ball = KBall(2.0)
        value = integrate_ball(ball.nodes().astype(complex), ball)
        assert_allclose(value.real, 16.0 * np.pi, rtol=1e-13)
        assert value.imag == 0.0

    def test_against_scipy_quad(self):
        ball = KBall(1.5, n_k=801)
        k = ball.nodes()
        value = integrate_ball(np.exp(-(k**2)).astype(complex), ball)
        ref, _ = sci.quad(lambda q: 4.0 * np.pi * q * q * np.exp(-(q**2)), 0.0, 1.5)
        assert_allclose(value.real, ref, rtol=1e-10)


class TestRadialSuperposition:
    def test_flat_origin_value(self):
        # (2 pi)^(-3/2) * (4 pi / 3) * k_max^3 at the origin
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        psi = radial_superposition(flat, KBall(1.0), 0.0)
        assert_allclose(psi[0].real, 0.2659615202676218, rtol=0.0, atol=1e-15)
        assert psi[0].imag == 0.0
        on_grid = radial_superposition(flat, KBall(1.0), Grid1D(0.0, 1.0, 3).points())
        assert_allclose(on_grid[0].real, 0.2659615202676218, rtol=0.0, atol=1e-15)

    def test_grid_matches_pointwise(self):
        grid = Grid1D(0.0, 2.0, 5)
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        field = ComplexField(grid, radial_superposition(flat, KBall(1.0), grid.points()))
        single = [radial_superposition(flat, KBall(1.0), float(r))[0] for r in grid.points()]
        assert_allclose(field.values, single, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.7])
    def test_flat_profile_against_quad(self, r):
        psi = radial_superposition(lambda k: np.ones_like(k, dtype=complex), KBall(1.0, 2001), r)
        ref, _ = sci.quad(lambda k: k * k * np.sin(k * r) / (k * r), 0.0, 1.0)
        ref *= 4.0 * np.pi * TWO_PI**-1.5
        assert_allclose(psi[0].real, ref, rtol=1e-10)

    def test_decaying_kernel_monotone(self):
        r = np.linspace(0.0, 3.0, 31)
        psi = radial_superposition(
            lambda k: np.ones_like(k, dtype=complex), KBall(1.0), r, kernel="decaying"
        )
        assert np.all(psi.real > 0.0)
        assert np.all(np.diff(psi.real) < 0.0)
        # both kernels agree at the origin where the kernel factor is one
        osc = radial_superposition(lambda k: np.ones_like(k, dtype=complex), KBall(1.0), 0.0)
        assert_allclose(psi[0], osc[0], rtol=1e-12)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            radial_superposition(
                lambda k: np.ones_like(k, dtype=complex), KBall(1.0), 0.5, kernel="weird"
            )

    @pytest.mark.parametrize(
        "amplitude,calls,zero_half",
        [
            (lambda k: np.exp(-k), 1, "imag"),
            (lambda k: -1j * np.exp(-k), 1, "real"),
            (lambda k: (1.0 + 0.5j) * np.exp(-k), 2, None),
        ],
    )
    def test_synthesizes_only_nonzero_weight_halves(self, amplitude, calls, zero_half, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return _synthesize(*args)

        monkeypatch.setattr(numerics, "_synthesize", counting)
        # r = 0 and the first nodes take the series, the rest the chirp-z sum
        r = np.linspace(0.0, 8.0, 401)
        psi = radial_superposition(amplitude, KBall(1.5, 301), r)
        assert len(made) == calls
        if zero_half is not None:
            skipped = getattr(psi, zero_half)
            assert np.all(skipped == 0.0) and not np.signbit(skipped).any()


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
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        psi = radial_superposition(flat, KBall(1.0, 2001), self.r, kernel=kernel)
        ref = 4.0 * np.pi * TWO_PI**-1.5 * closed(1.0, self.r)
        assert np.abs(psi.real - ref).max() <= 2e-13 * np.abs(ref).max()
        assert np.all(psi.imag == 0.0)

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
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        psi = radial_superposition(flat, KBall(1.0, 2001), r, kernel=kernel)
        ref = 4.0 * np.pi * TWO_PI**-1.5 * closed(1.0, np.abs(r))
        assert np.abs(psi.real - ref).max() <= 2e-13 * np.abs(ref).max()
        assert np.all(psi.imag == 0.0)

    @pytest.mark.parametrize("r", [0.0, 1e-300, 1e-12, 0.05, 0.2, 3.0])
    def test_scalar_radius_matches_sinc_sum(self, r):
        ball = KBall(2.5, 801)
        k = ball.nodes()
        amp = lambda k: np.exp(-k) * (1.0 + 0.5j * k)  # noqa: E731
        w = 4.0 * np.pi * TWO_PI**-1.5 * odd_simpson_weights(k) * k * k * amp(k)
        ref = np.dot(w, np.sinc(k * r / np.pi))
        psi = radial_superposition(amp, ball, r)
        assert abs(psi[0] - ref) <= 1e-14 * np.abs(w).sum()

    @pytest.mark.parametrize("kernel", ["oscillatory", "decaying"])
    def test_imaginary_amplitude_gives_imaginary_profile(self, kernel):
        ball = KBall(1.3, 401)
        real = radial_superposition(lambda k: np.exp(-k * k) + 0j, ball, self.r, kernel=kernel)
        imag = radial_superposition(lambda k: 1j * np.exp(-k * k), ball, self.r, kernel=kernel)
        assert np.all(imag.real == 0.0)
        assert np.array_equal(imag.imag, real.real)

    def test_non_uniform_radii_rejected(self):
        flat = lambda k: np.ones_like(k, dtype=complex)  # noqa: E731
        with pytest.raises(ValueError, match="uniform"):
            radial_superposition(flat, KBall(1.0), np.array([0.0, 0.1, 0.25, 0.3]))


class TestDecaySum:
    """Baby-step/giant-step decaying sums against the dense exp matrix."""

    @pytest.mark.parametrize(
        "n_k,d,complex_weights",
        [
            (2, [0.0, 0.5], False),
            (3, [0.0, 0.1, 2.0, 7.5], False),
            (23, np.linspace(0.0, 6.0, 37), True),  # b = 5 leaves 2 padded slots
            (2001, np.r_[0.0, np.geomspace(1e-4, 40.0, 300)], False),
            (1601, np.random.default_rng(3).uniform(0.0, 9.0, 250), True),
        ],
    )
    def test_matches_dense(self, n_k, d, complex_weights):
        rng = np.random.default_rng(n_k)
        d = np.asarray(d, dtype=float)
        dk = 1.7 / (n_k - 1)
        w = rng.normal(size=n_k)
        if complex_weights:
            w = w + 1j * rng.normal(size=n_k)
        dense = np.exp(-np.outer(d, dk * np.arange(n_k))) @ w
        out = _decay_sum(w, dk, d)
        assert out.shape == d.shape
        assert np.abs(out - dense).max() <= 1e-13 * np.abs(w).sum()


def line_synthesis(amplitude, lo, hi, x, n_k=2001):
    """(2 pi)^(-1/2) int_lo^hi chi(k) exp(i k x) dk on the Simpson rule, as uncertainty_product builds it."""
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
        return np.exp(1j * np.outer(x, k)) @ w

    @staticmethod
    def via_czt(w, k, x):
        # czt sums w_m z_j^(-m) on z_j = a w^(-j); z_j = exp(-i x_j dk) leaves
        # the factor exp(i x_j k_lo) outside
        dk = k[1] - k[0]
        dx = x[1] - x[0] if x.size > 1 else 0.0
        pre = czt(w, m=x.size, w=np.exp(1j * dx * dk), a=np.exp(-1j * x[0] * dk))
        return np.exp(1j * x * k[0]) * pre

    @pytest.mark.parametrize(
        "n_x,x_lo,x_hi,n_k,k_lo,k_hi",
        [
            (1, 0.7, 0.7, 5, -1.0, 2.0),
            (2, -1.0, 1.0, 3, 0.0, 1.0),
            (37, -9.0, -3.5, 23, -2.0, 5.0),
            (3001, -60.0, 60.0, 1601, -20.0, 20.0),
            (1201, -10.0, 25.0, 4001, -3.0, 13.0),
        ],
    )
    def test_matches_dense_and_czt(self, n_x, x_lo, x_hi, n_k, k_lo, k_hi):
        x, k, w = self.case(n_x, x_lo, x_hi, n_k, k_lo, k_hi)
        out = _synthesize(w, k_lo, k[1] - k[0], x)
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
        lag_chirp = np.exp(-1j * half_alpha * (lag * lag))
        size = 1 << (n_x + n_k - 2).bit_length()
        pre = w * np.exp(1j * (x0 * dk * m + half_alpha * (m * m)))
        chirp = np.zeros(size, dtype=np.complex128)
        chirp[:n_x] = lag_chirp[n_k - 1 :]
        chirp[size - n_k + 1 :] = lag_chirp[: n_k - 1]
        conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp))[:n_x]
        return np.exp(1j * (x_arr * k_lo + half_alpha * (j * j))) * conv

    @pytest.mark.parametrize(
        "n_x,n_k",
        [(37, 401), (3001, 1601), (512, 512), (1, 5), (1, 1), (7, 1)],
    )
    def test_mirrored_chirp_is_bit_identical_to_full_lags(self, n_x, n_k):
        x, k, w = self.case(n_x, -9.0, 25.0, n_k, -3.0, 13.0)
        dk = k[1] - k[0] if n_k > 1 else 0.1
        out = _synthesize(w, -3.0, dk, x)
        assert out.tobytes() == self.full_lag_reference(w, -3.0, dk, x).tobytes()

    def test_non_uniform_positions_rejected(self):
        w = np.ones(5, dtype=complex)
        with pytest.raises(ValueError, match="uniform"):
            _synthesize(w, 0.0, 0.1, np.array([0.0, 0.1, 0.25, 0.3]))


"""Grids, quadrature and wavevector superposition kernels.

All routines work in natural units (hbar = m = 1 unless the caller says
otherwise) and use the symmetric Fourier convention: a factor (2*pi)**(-d/2)
on the synthesis integral in d dimensions.  Quadrature is composite Simpson
on uniform grids; internally constructed grids always carry an odd number of
nodes so the rule applies cleanly, and sampled inputs with an even node
count are closed with a one-interval cubic end correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

ArrayF = NDArray[np.float64]
ArrayC = NDArray[np.complex128]

TWO_PI = 2.0 * np.pi

# Widest grid whose linspace nodes x_min + j (x_max - x_min) / (n - 1) stay finite.
_MAX_WIDTH = np.finfo(np.float64).max / 2.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform one-dimensional grid with n nodes on [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not self.x_max - self.x_min <= _MAX_WIDTH:
            raise ValueError(
                f"grid x_min = {self.x_min:g} .. x_max = {self.x_max:g} is wider than half the "
                f"largest double, so its nodes overflow; narrow the bounds"
            )
        if self.n < 2:
            raise ValueError("grid needs at least 2 nodes")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def points(self) -> ArrayF:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class KBall:
    """Radial quadrature domain for an isotropic ball |k| <= k_max."""

    k_max: float
    n_k: int = 513

    def __post_init__(self) -> None:
        if not np.isfinite(self.k_max) or self.k_max < 0.0:
            raise ValueError("k_max must be finite and nonnegative")
        if self.n_k < 2:
            raise ValueError("ball quadrature needs at least 2 nodes")

    def nodes(self) -> ArrayF:
        return np.linspace(0.0, self.k_max, _as_odd(self.n_k))


@dataclass(frozen=True)
class ComplexField:
    """Complex samples of a wavefunction (or amplitude) over a Grid1D."""

    grid: Grid1D
    values: ArrayC

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ValueError("field length must match the grid")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def density(self) -> ArrayF:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class SingleMode:
    """Symbolic single retained mode at wavenumber k0.

    Stands in for a delta spike in a spectral amplitude; consumers treat it
    analytically instead of sampling it on a grid.
    """

    k0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.k0):
            raise ValueError("k0 must be finite")


def _as_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _simpson_weights(n: int, h: float) -> ArrayF:
    """Composite Simpson weights for n uniform nodes with spacing h.

    Odd n is the plain composite rule.  Even n closes the final interval
    with the cubic three-point correction so the scheme stays O(h^4).
    n == 2 degrades to the trapezoid rule.
    """
    if n < 2:
        raise ValueError("quadrature needs at least 2 nodes")
    if h <= 0.0:
        raise ValueError("node spacing must be positive")
    if n == 2:
        return np.array([0.5 * h, 0.5 * h])
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0:m:2] += 2.0 * h / 3.0
    w[1:m:2] += 4.0 * h / 3.0
    w[0] -= h / 3.0
    w[m - 1] -= h / 3.0
    if n % 2 == 0:
        w[n - 3] += -h / 12.0
        w[n - 2] += 8.0 * h / 12.0
        w[n - 1] += 5.0 * h / 12.0
    return w


def _simpson_rule(lo: float, hi: float, n: int) -> tuple[ArrayF, ArrayF, float]:
    """Uniform nodes on [lo, hi], n rounded up to odd, with their composite Simpson weights and spacing."""
    if n < 2:
        raise ValueError("spectral quadrature needs at least 2 nodes")
    nodes = np.linspace(lo, hi, _as_odd(n))
    h = nodes[1] - nodes[0]
    return nodes, _simpson_weights(nodes.size, h), h


def _synthesize(wts: ArrayC, k_lo: float, dk: float, x) -> ArrayC:
    """Sum_m wts[m] exp(i x_j (k_lo + m dk)) at every node x_j of a uniform x.

    Bluestein's chirp-z algorithm: with x_j = x0 + j dx and alpha = dx dk,
    the cross term exp(i alpha j m) splits into chirps in j and m around
    the convolution with exp(-i alpha (j - m)^2 / 2), done by FFT at the
    next power of two >= n_x + n_k - 1.  The cost is
    O((n_x + n_k) log(n_x + n_k)) instead of a dense n_x * n_k phase
    matrix; phases are built from exact integer index squares.

    x0 and dx come from the ends of x, which must be uniform to 1e-12
    relative (a scalar or one node counts as uniform); a non-uniform x
    raises ValueError.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    w = np.asarray(wts, dtype=np.complex128)
    n_x, n_k = x_arr.size, w.size
    x0 = x_arr[0]
    dx = (x_arr[-1] - x0) / (n_x - 1) if n_x > 1 else 0.0
    j = np.arange(n_x)
    if np.abs(x_arr - (x0 + j * dx)).max() > 1e-12 * np.abs(x_arr).max():
        raise ValueError("chirp-z synthesis needs uniformly spaced x")
    half_alpha = 0.5 * dx * dk
    m = np.arange(n_k)
    # the lag chirp is even in the lag: computed for lags >= 0, mirrored for the rest
    lag = np.arange(max(n_x, n_k))
    lag_chirp = np.exp(-1j * half_alpha * (lag * lag))
    size = 1 << (n_x + n_k - 2).bit_length()
    pre = w * np.exp(1j * (x0 * dk * m + half_alpha * (m * m)))
    # circular layout: lags 0..n_x-1 at the front, lags -(n_k-1)..-1 at the back
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[:n_x] = lag_chirp[:n_x]
    chirp[size - n_k + 1 :] = lag_chirp[n_k - 1 : 0 : -1]
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp))[:n_x]
    return np.exp(1j * (x_arr * k_lo + half_alpha * (j * j))) * conv


def _decay_sum(wts, dk: float, d) -> NDArray:
    """Sum_m wts[m] exp(-d_j m dk) at every d_j >= 0.

    Baby-step/giant-step split m = b p + s with b = ceil(sqrt(n_k)): the
    sum is sum_p exp(-d_j b p dk) (baby @ C)[j, p] with baby[j, s] =
    exp(-d_j s dk) and C[s, p] = wts[b p + s], zero-padded.  That takes
    about 2 sqrt(n_k) exponentials per d_j instead of n_k, and
    O(n_d sqrt(n_k)) memory instead of a dense n_d * n_k matrix.  Every
    factor lies in (0, 1], so no product overflows and each term is
    accurate to a few ulp.  Unlike _synthesize, d may be any set of
    points: a real-exponent chirp would be ill-conditioned.
    """
    w = np.asarray(wts)
    step = np.asarray(d, dtype=np.float64)[:, None] * dk
    b = math.isqrt(w.size - 1) + 1
    n_p = -(-w.size // b)
    coef = np.zeros(b * n_p, dtype=w.dtype)
    coef[: w.size] = w
    baby = np.exp(-step * np.arange(b))
    giant = np.exp(-step * (b * np.arange(n_p)))
    return np.sum(giant * (baby @ coef.reshape(n_p, b).T), axis=1)


def integrate_real(values: ArrayF, spacing: float) -> float:
    """Simpson integral of real samples on a uniform grid."""
    vals = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return float(np.dot(_simpson_weights(vals.size, spacing), vals))


def integrate_ball(radial_samples: ArrayC, ball: KBall) -> complex:
    """Integrate f over the ball |k| <= k_max for isotropic f.

    The samples are f(k) on the ball's radial nodes; the result is
    4*pi * integral of f(k) k^2 dk from 0 to k_max.
    """
    k = ball.nodes()
    vals = np.asarray(radial_samples, dtype=np.complex128)
    if vals.shape != k.shape:
        raise ValueError("radial samples must match the ball's node count")
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise ValueError("radial samples must be finite")
    w = _simpson_weights(k.size, k[1] - k[0]) if ball.k_max > 0.0 else None
    if w is None:
        return 0.0 + 0.0j
    return complex(4.0 * np.pi * np.dot(w, vals * k * k))


def radial_superposition(
    amplitude: Callable[[ArrayF], ArrayC],
    ball: KBall,
    r,
    kernel: str = "oscillatory",
) -> ArrayC:
    """Isotropic 3-D superposition over a ball of wavevectors.

    Evaluates (2*pi)**(-3/2) * 4*pi * int_0^{k_max} k^2 chi(k) K(k, r) dk
    with K = sin(kr)/(kr) for kernel="oscillatory" and K = exp(-k|r|) for
    kernel="decaying".  Vectorized over r; returns an array matching r.
    The oscillatory kernel runs on the chirp-z synthesis, so r must be a
    scalar or uniformly spaced (see _synthesize); other r raise ValueError.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if kernel not in ("oscillatory", "decaying"):
        raise ValueError("kernel must be 'oscillatory' or 'decaying'")
    if ball.k_max == 0.0:
        return np.zeros(r_arr.shape, dtype=np.complex128)
    pref = TWO_PI ** -1.5 * 4.0 * np.pi
    k, w, dk = _simpson_rule(0.0, ball.k_max, ball.n_k)
    wts = w * k * np.asarray(amplitude(k), dtype=np.complex128)
    if kernel == "decaying":
        return pref * _decay_sum(wts * k, dk, np.abs(r_arr))
    # k^2 sin(kr)/(kr) = k Im e^{ikr} / r; the real and imaginary weights go
    # through separately so that each keeps its own Im; an all-zero half stays 0.0
    out = np.zeros(r_arr.shape, dtype=np.complex128)
    if wts.real.any():
        out.real = _synthesize(wts.real, 0.0, dk, r_arr).imag
    if wts.imag.any():
        out.imag = _synthesize(wts.imag, 0.0, dk, r_arr).imag
    # the FFT's absolute rounding in Im does not shrink with r, so dividing
    # by r would magnify it without bound near the origin.  Nodes with
    # k_max |r| < 0.1 sum the series sin(kr)/r = k sum_j (-(kr)^2)^j/(2j+1)!
    # instead, in u = k/k_max and t = (k_max r)^2; the first omitted term is
    # below 3e-18 of the leading one, and past the cut the division costs at
    # most about 1e-14 of the peak.
    small = np.abs(r_arr) * ball.k_max < 0.1
    out /= np.where(small, 1.0, r_arr)
    if small.any():
        t = (ball.k_max * r_arr[small]) ** 2
        u2 = (k / ball.k_max) ** 2
        series = np.zeros(t.shape, dtype=np.complex128)
        for j in range(4, -1, -1):
            moment = np.dot(wts, k * (-u2) ** j) / math.factorial(2 * j + 1)
            series = series * t + moment
        out[small] = series
    return pref * out


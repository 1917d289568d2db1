"""Grids, quadrature and wavevector superposition kernels.

All routines work in natural units (hbar = 1) and use the symmetric Fourier
convention: a factor (2*pi)**(-d/2) on the synthesis integral in d
dimensions.  Quadrature is composite Simpson on uniform grids; internally
constructed grids always carry an odd number of nodes so the rule applies
cleanly, and sampled inputs with an even node count are closed with a
one-interval cubic end correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

ArrayF = NDArray[np.float64]
ArrayC = NDArray[np.complex128]

TWO_PI = 2.0 * np.pi

# Widest grid whose linspace nodes x_min + j (x_max - x_min) / (n - 1) stay finite.
_MAX_WIDTH = np.finfo(np.float64).max / 2.0

# Points per block of _decay_sum: its tables then stay near a megabyte, so each
# block reuses the memory the last one freed instead of faulting in fresh pages.
_DECAY_BLOCK = 1024


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


def _cis(theta) -> ArrayC:
    """exp(i theta) for real theta, with cos and sin written into one complex array."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _linear_phase(c: float, n: int) -> ArrayC:
    """exp(i c j) for j = 0 .. n-1 from about 2 sqrt(n) phasors.

    j = b p + s with b = ceil(sqrt(n)): the outer product of a coarse table
    exp(i c b p) and a fine table exp(i c s).  Each factor's phase is one
    rounded product, so every entry is within a few ulp of |c n| of the
    direct exp(i c j).
    """
    b = math.isqrt(n - 1) + 1
    n_p = -(-n // b)
    coarse = _cis(c * (b * np.arange(n_p)))
    fine = _cis(c * np.arange(b))
    return (coarse[:, None] * fine).ravel()[:n]


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, never above the next power of two.

    Each odd part 3^b 5^c below the best length so far is lifted by the
    least power of two that reaches n: a few dozen integer steps, no table.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            candidate = p35 << ((n - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def _synthesize(wts: ArrayC, k_lo: float, dk: float, x) -> ArrayC:
    """Sum_m wts[m] exp(i x_j (k_lo + m dk)) at every node x_j of a uniform x.

    Bluestein's chirp-z algorithm: with x_j = x0 + j dx and alpha = dx dk,
    the cross term exp(i alpha j m) splits into chirps in j and m around
    the convolution with exp(-i alpha (j - m)^2 / 2), done by FFT at the
    smallest 2^a 3^b 5^c >= n_x + n_k - 1.  The cost is
    O((n_x + n_k) log(n_x + n_k)) instead of a dense n_x * n_k phase
    matrix.  One table lag_chirp[l] = exp(-i alpha l^2 / 2), built from
    exact integer squares, serves the convolution and, conjugated, both
    outer chirps; the linear phases exp(i x0 dk m) and exp(i dx k_lo j)
    come from sqrt-sized tables (_linear_phase) and the constant
    exp(i x0 k_lo).

    x0 and dx come from the ends of x, which must be uniform to 1e-12
    relative (a scalar or one node counts as uniform); a non-uniform x
    raises ValueError.  So does an x span and dk whose lag chirp or linear
    phases leave the doubles, with one message naming both, instead of a
    sum over NaN phases.  The weights are not checked: a caller whose
    weights overflow names its own cause.

    With u = 2^-53, N = n_x + n_k - 1 and alpha = |dx dk|, the sum at x_j
    is within
        u [(21 log2 L + 3) sqrt(N) |w|_2 + 36 sum_m |w_m|
           + sum_m |w_m| (alpha (j^2 + m^2) + 2 |x0 dk| m + 2 |dx k_lo| j + |x0 k_lo|)]
        + |x_j - x0 - j dx| sum_m |k_m w_m|
    of exact (Higham 2002, lemma 3.5 and thm 24.2).  The first term is the
    FFT convolution of length L: two forward transforms and one inverse at
    7u per stage (Higham's radix-2 constant, taken for numpy's radix-2..5
    passes) and the pointwise product, each carried to one node by
    Cauchy-Schwarz against the N unit chirp entries.  The second is the
    eight phasors (cos and sin within an ulp) and the seven complex products
    (sqrt(2) gamma_2 each) that each term or node passes through.  The third
    is the phase arguments, each one or two rounded products whose error the
    exponential carries at any evaluation; the three chirps, alpha j m
    split as (j^2 + m^2 - (j - m)^2) / 2 with one rounding of alpha / 2
    shared, add up to alpha (j^2 + m^2).  The last is x_j's distance from
    the uniform line the transform evaluates on.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    w = np.asarray(wts, dtype=np.complex128)
    n_x, n_k = x_arr.size, w.size
    x0 = x_arr[0]
    dx = (x_arr[-1] - x0) / (n_x - 1) if n_x > 1 else 0.0
    if np.abs(x_arr - (x0 + np.arange(n_x) * dx)).max() > 1e-12 * np.abs(x_arr).max():
        raise ValueError("chirp-z synthesis needs uniformly spaced x")
    half_alpha = 0.5 * dx * dk
    # the lag chirp is even in the lag: computed for lags >= 0, mirrored for the rest
    lag = np.arange(max(n_x, n_k))
    with np.errstate(over="ignore", invalid="ignore"):
        lag_chirp = _cis(-half_alpha * (lag * lag))
        in_phase = _linear_phase(x0 * dk, n_k)
        post = _cis(x0 * k_lo) * _linear_phase(dx * k_lo, n_x)
    if not all(np.isfinite(phases).all() for phases in (lag_chirp, in_phase, post)):
        raise ValueError(
            f"the chirp-z phases overflow on the grid {x0:g} .. {x_arr[-1]:g} at dk = {dk:g}; narrow the grid"
        )
    size = _smooth_length(n_x + n_k - 1)
    pre = w * np.conj(lag_chirp[:n_k]) * in_phase
    # circular layout: lags 0..n_x-1 at the front, lags -(n_k-1)..-1 at the back
    chirp = np.zeros(size, dtype=np.complex128)
    chirp[:n_x] = lag_chirp[:n_x]
    chirp[size - n_k + 1 :] = lag_chirp[n_k - 1 : 0 : -1]
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp))[:n_x]
    return post * np.conj(lag_chirp[:n_x]) * conv


def _powers(base: ArrayF, n: int, first=1.0) -> ArrayF:
    """Rows first * base**i, i = 0 .. n-1, by repeated multiplication, as an (n, base.size) table."""
    table = np.empty((n, base.size))
    table[0] = first
    for row in range(1, n):
        np.multiply(table[row - 1], base, out=table[row])
    return table


def _decay_sum(wts: ArrayF, dk: float, d) -> ArrayF:
    """Sum_m wts[m] exp(-d_j m dk) at every d_j >= 0, for real weights.

    Baby-step/giant-step split m = b p + s with b = ceil(sqrt(n_k))
    (Paterson & Stockmeyer 1973): two exponentials per point, r = exp(-d_j dk)
    and R = exp(-d_j b dk), a baby table r^s (s < b) and a giant table R^p
    (p < n_p) by repeated multiplication, and the sum
    sum_p R^p (C @ baby)[p, j] with C[p, s] = wts[b p + s], zero-padded.
    That is O(n_d sqrt(n_k)) products instead of a dense n_d * n_k
    exponential matrix; the points go through in blocks of _DECAY_BLOCK, so
    the tables take O(sqrt(n_k)) memory per block.

    Every factor lies in [0, 1], so no product overflows; a power that
    underflows is 0.  With u = 2^-53, r and R are each within an ulp (2u)
    of the exponential at the rounded exponent, r^s and R^p are s - 1 and
    p - 1 further rounded products, and the two contractions are b- and
    n_p-term dot products, so term m = b p + s carries a relative error of
    at most about (4 (b + n_p) + 2 d_j m dk) u, the last part from rounding
    the exponents d_j dk and b d_j dk, which the exponential's condition
    number carries at any evaluation.  The sum at d_j is within
    u sum_m (4 (b + n_p) + 2 d_j m dk) |w_m| exp(-d_j m dk) of exact
    (Higham 2002, sec. 3.1).  Unlike _synthesize, d may be any set of
    points: a real-exponent chirp would be ill-conditioned.
    """
    w = np.asarray(wts, dtype=np.float64)
    step = np.asarray(d, dtype=np.float64) * dk
    b = math.isqrt(w.size - 1) + 1
    n_p = -(-w.size // b)
    coef = np.zeros(b * n_p)
    coef[: w.size] = w
    coef = coef.reshape(n_p, b)
    out = np.empty(step.shape)
    for lo in range(0, step.size, _DECAY_BLOCK):
        cols = slice(lo, lo + _DECAY_BLOCK)
        baby = _powers(np.exp(-step[cols]), b)
        giant = _powers(np.exp(-b * step[cols]), n_p)
        out[cols] = np.einsum("pj,pj->j", giant, coef @ baby)
    return out


def integrate_real(values: ArrayF, spacing: float) -> float:
    """Simpson integral of real samples on a uniform grid."""
    return integrate_weighted(values, _simpson_weights(np.size(values), spacing))


def integrate_weighted(values: ArrayF, weights: ArrayF) -> float:
    """Integral of real samples against quadrature weights, such as those _simpson_rule returns."""
    vals = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return float(np.dot(weights, vals))


def radial_superposition(amplitude: float, k_max: float, n_k: int, r, kernel: str = "oscillatory") -> ArrayF:
    """Isotropic 3-D superposition of a flat amplitude over the ball |k| <= k_max.

    Evaluates (2*pi)**(-3/2) * 4*pi * int_0^{k_max} k^2 chi0 K(k, r) dk for
    the real constant chi0 = amplitude on n_k Simpson nodes (rounded up to
    odd), with K = sin(kr)/(kr) for kernel="oscillatory" and K = exp(-k|r|)
    for kernel="decaying".  A k_max that is not finite or is negative, or
    n_k < 2, raises ValueError.  Vectorized over r; returns a real array
    matching r.  The oscillatory kernel runs on the chirp-z synthesis, so r
    must be a scalar or uniformly spaced (see _synthesize); other r raise
    ValueError.  The decaying kernel is _decay_sum, with its bound.

    Oscillatory nodes with k_max |r| < 0.1 sum a series in t = (k_max r)^2
    instead (see below).  Its moments sum_m wts_m k_m (-q_m)^j, j <= 4,
    q = (k / k_max)^2, come from one running-product table whose row j is
    j rounded products away from k (-q)^j: within 4u of it (u = 2^-53),
    with q itself rounded in 3u.  numpy sums each row pairwise, which takes
    at most D = 26 + log2(n_k) additions per term.  With t^j, the Horner
    steps, the factorial and the prefactor, each term of moment j carries
    at most (9 j + 4 + D) u, weighted by t^j / (2j+1)!; the first omitted
    term is below 3e-18 of the leading one.
    """
    if not np.isfinite(k_max) or k_max < 0.0:
        raise ValueError("k_max must be finite and nonnegative")
    if n_k < 2:
        raise ValueError("ball quadrature needs at least 2 nodes")
    r_arr = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if kernel not in ("oscillatory", "decaying"):
        raise ValueError("kernel must be 'oscillatory' or 'decaying'")
    if k_max == 0.0:
        return np.zeros(r_arr.shape)
    pref = TWO_PI ** -1.5 * 4.0 * np.pi
    k, w, dk = _simpson_rule(0.0, k_max, n_k)
    wts = w * k * amplitude
    if kernel == "decaying":
        return pref * _decay_sum(wts * k, dk, np.abs(r_arr))
    # k^2 sin(kr)/(kr) = k Im e^{ikr} / r.  The FFT's absolute rounding in Im
    # does not shrink with r, so dividing by r would magnify it without bound
    # near the origin.  Nodes with k_max |r| < 0.1 sum the series
    # sin(kr)/r = k sum_j (-(kr)^2)^j/(2j+1)! instead, in q = (k/k_max)^2 and
    # t = (k_max r)^2; the first omitted term is below 3e-18 of the leading
    # one, and past the cut the division costs at most about 1e-14 of the peak.
    out = _synthesize(wts, 0.0, dk, r_arr).imag
    small = np.abs(r_arr) * k_max < 0.1
    # a product with the reciprocal, here and in the series, is the rounding the identity manifest records
    out *= 1.0 / np.where(small, 1.0, r_arr)
    if small.any():
        # the five moments sum_m wts_m k_m (-q_m)^j from one running-product
        # table, each row summed pairwise (see the docstring's bound)
        moments = np.sum(_powers(-((k / k_max) ** 2), 5, first=k) * wts, axis=1)
        t = (k_max * r_arr[small]) ** 2
        series = np.zeros(t.shape)
        for j in range(4, -1, -1):
            series = series * t + moments[j] * (1.0 / math.factorial(2 * j + 1))
        out[small] = series
    return pref * out

"""Quantum ensembles over allowed wavevector ranges.

A particle with total energy E_T is represented not by one plane wave but by
an ensemble of members filling every wavevector the energy budget allows.
Every member carries the same real amplitude chi0 = sqrt(m).  Free members
occupy k in [0, k0]; a constant potential V shifts the bound, and where V
exceeds E_T the members decay exponentially instead of oscillating.
Densities are modulus squared throughout.  Everything is in natural units,
hbar = 1; the mass m defaults to 1 and stays explicit, since the norm of an
ensemble scales with it.

Two squared-wavevector conventions appear in the source material, k^2 = m E
and k^2 = 2m E.  Each operation uses the convention its context fixes, and
callers can force either through the `KineticConvention` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .numerics import (
    TWO_PI,
    ArrayF,
    Grid1D,
    SingleMode,
    _simpson_rule,
    integrate_weighted,
    radial_superposition,
)


class Regime(Enum):
    """Oscillatory members (E_T > V) or exponentially decaying ones (E_T < V)."""

    OSCILLATORY = "oscillatory"
    DECAYING = "decaying"


class KineticConvention(Enum):
    """Coefficient c in k^2 = c*m*E."""

    SINGLE = 1.0
    DOUBLE = 2.0

    @property
    def coefficient(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ParticleModel:
    """Massive particle with a fixed total energy E_T = omega = m*u^2.

    The total energy splits evenly into a kinetic part and an intrinsic
    field part, E_K = E_F = E_T / 2.
    """

    mass: float = 1.0
    total_energy: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "total_energy"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def flat_amplitude(self) -> float:
        """The members' flat amplitude chi0 = sqrt(m)."""
        return float(np.sqrt(self.mass))


@dataclass(frozen=True)
class KRange:
    """Closed wavenumber interval [k_lo, k_hi] with its regime."""

    k_lo: float
    k_hi: float
    regime: Regime = Regime.OSCILLATORY

    def __post_init__(self) -> None:
        if not (np.isfinite(self.k_lo) and np.isfinite(self.k_hi)):
            raise ValueError("range bounds must be finite")
        if self.k_lo < 0.0 or self.k_hi < self.k_lo:
            raise ValueError("range must satisfy 0 <= k_lo <= k_hi")

    @property
    def is_empty(self) -> bool:
        return self.k_hi == self.k_lo

    def contains(self, other: "KRange") -> bool:
        return self.k_lo <= other.k_lo and other.k_hi <= self.k_hi


class FilteredEnsemble(NamedTuple):
    """Before/after ranges of an energy-threshold measurement."""

    before: KRange
    after: KRange
    fully_blocked: bool


def allowed_k_range(
    p: ParticleModel,
    potential_value: float,
    convention: KineticConvention = KineticConvention.SINGLE,
) -> KRange:
    """Wavevector range the energy budget allows at one potential value.

    E_T > V gives oscillatory members with k up to
    sqrt(c*m*(E_T - V)); E_T < V gives decaying members with decay
    constants up to sqrt(c*m*(V - E_T)); E_T = V degenerates to the
    empty oscillatory range [0, 0].
    """
    v = float(potential_value)
    if not np.isfinite(v):
        raise ValueError("potential value must be finite")
    c = convention.coefficient
    gap = p.total_energy - v
    if gap > 0.0:
        k_hi = float(np.sqrt(c * p.mass * gap))
        return KRange(0.0, k_hi, Regime.OSCILLATORY)
    if gap < 0.0:
        k_hi = float(np.sqrt(c * p.mass * (-gap)))
        return KRange(0.0, k_hi, Regime.DECAYING)
    return KRange(0.0, 0.0, Regime.OSCILLATORY)


def potential_wavefunction(
    p: ParticleModel,
    potential: float,
    grid: Grid1D,
    n_k: int = 801,
    convention: KineticConvention = KineticConvention.SINGLE,
) -> ArrayF:
    """Real ensemble wavefunction at a constant potential, sampled at the radial grid's nodes.

    The members fill the range allowed_k_range gives at the potential: the
    oscillatory kernel sin(kr)/(kr) where E_T > V, the decaying kernel
    exp(-kr) where E_T < V, and no member, so psi = 0, where E_T = V.  A
    non-finite potential, or one whose density overflows a double, raises
    ValueError naming it; a grid too wide for the chirp-z phases raises
    _synthesize's, naming the grid.
    """
    rng = allowed_k_range(p, potential, convention=convention)
    kernel = "oscillatory" if rng.regime is Regime.OSCILLATORY else "decaying"
    with np.errstate(over="ignore", invalid="ignore"):
        vals = radial_superposition(p.flat_amplitude, rng.k_hi, n_k, grid.points(), kernel=kernel)
        finite = np.isfinite(vals**2).all()
    if not finite:
        raise ValueError(
            f"the density at potential {potential:g} overflows: its {rng.regime.name.lower()} "
            f"band reaches k_hi = {rng.k_hi:g}"
        )
    return vals


def parseval_norm(p: ParticleModel, k: float) -> float:
    """Squared norm of the ensemble by ball quadrature of |chi0|^2.

    Returns 4 pi m k^3 / 3 evaluated as an integral, never as the closed
    formula, so it doubles as a check on the quadrature chain.
    """
    if not np.isfinite(k) or k < 0.0:
        raise ValueError("k must be finite and nonnegative")
    if k == 0.0:
        return 0.0
    chi0 = p.flat_amplitude
    q, w, _ = _simpson_rule(0.0, k, 2001)
    return float(4.0 * np.pi * integrate_weighted(chi0 * chi0 * q * q, w))


def flat_norm_deviation(p: ParticleModel, k: float) -> tuple[float, float, str]:
    """Norm oracle: relative error of parseval_norm(p, k) against its closed form 4 pi m k^3 / 3."""
    expected = 4.0 * np.pi * p.mass * k**3 / 3.0
    return abs(parseval_norm(p, k) - expected) / expected, 1e-8, "relative"


def apply_retarding_filter(
    p: ParticleModel,
    e_rfa: float,
    convention: KineticConvention = KineticConvention.DOUBLE,
) -> FilteredEnsemble:
    """Energy-threshold filter acting on a free ensemble.

    Members whose kinetic energy falls below the threshold e_rfa cannot
    pass, so the surviving range is [k1, k0] with k1^2 = c*m*e_rfa,
    clipped at k0.  A threshold above the ensemble energy blocks
    everything and is flagged rather than rejected.
    """
    if not np.isfinite(e_rfa) or e_rfa < 0.0:
        raise ValueError("threshold energy must be finite and nonnegative")
    c = convention.coefficient
    k0 = float(np.sqrt(c * p.mass * p.total_energy))
    k1 = float(np.sqrt(c * p.mass * e_rfa))
    blocked = e_rfa > p.total_energy
    k1 = min(k1, k0)
    before = KRange(0.0, k0, Regime.OSCILLATORY)
    after = KRange(k1, k0, Regime.OSCILLATORY)
    return FilteredEnsemble(before=before, after=after, fully_blocked=blocked)


def collapse_fraction(p: ParticleModel, filtered: FilteredEnsemble, n_k: int = 2001) -> float:
    """Surviving density fraction of a filtered flat ensemble (3-D shells).

    Computed by radial quadrature of |chi0|^2 k^2 over the after range
    divided by the same integral over the before range.
    """
    before, after = filtered.before, filtered.after

    def shell(rng: KRange) -> float:
        if rng.is_empty:
            return 0.0
        q, w, _ = _simpson_rule(rng.k_lo, rng.k_hi, n_k)
        return float(4.0 * np.pi * integrate_weighted(p.mass * q * q, w))

    total = shell(before)
    if total == 0.0:
        raise ValueError("before-range carries no density")
    return shell(after) / total


def uncertainty_product(amplitude, interval, n_k: int = 2001) -> float:
    """Position-momentum uncertainty product of a spectral amplitude.

    Builds the momentum density |chi(k)|^2 on the interval and the position
    density of psi(x) = (2 pi)^(-1/2) int chi(k) exp(ikx) dk from the same
    samples of chi, takes second moments of each, and returns
    Delta X * Delta P (so a Gaussian spectrum gives 0.5).

    The k moments take the Simpson weights.  The x moments are two plain
    sums over the N = n_k - 1 nodes of one period 2 pi / dk: there the DFT
    of the samples, the last node being the first one's periodic image, is
    psi up to a constant and a phase.  Both rest on the spectrum vanishing
    at the interval ends and on psi fitting the period, so a spectrum whose
    modulus at either end exceeds 1e-8 of its peak (Delta X is unbounded),
    or whose position density at the period's end exceeds 1e-16 of its peak
    (raise n_k), raises ValueError naming the value.

    Parameters
    ----------
    amplitude : callable
        chi(k), accepting an ndarray of wavenumbers.
    interval : (k_lo, k_hi)
        Spectral support used for the moments.
    n_k : int
        Quadrature nodes in k, rounded up to odd.
    """
    if isinstance(amplitude, SingleMode):
        raise ValueError("single-mode spectra have no finite position spread")
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError("interval must be finite with k_hi > k_lo")
    k, w, dk = _simpson_rule(lo, hi, n_k)
    amp = np.asarray(amplitude(k), dtype=np.complex128)
    if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
        raise ValueError("spectrum must be finite on the interval")
    modulus = np.abs(amp)
    rho_k = modulus**2
    norm_k = integrate_weighted(rho_k, w)
    if not np.isfinite(norm_k) or norm_k <= 0.0:
        raise ValueError("spectrum is not normalizable on the interval")
    peak = modulus.max()
    end = 0 if modulus[0] >= modulus[-1] else -1
    if modulus[end] > 1e-8 * peak:
        raise ValueError(
            f"the spectrum's modulus at the interval end k = {k[end]:g} is {modulus[end] / peak:.3g} "
            "of its peak, above 1e-8, so Delta X is unbounded; take an interval on which it vanishes"
        )
    mean_k = integrate_weighted(rho_k * k, w) / norm_k
    var_k = integrate_weighted(rho_k * (k - mean_k) ** 2, w) / norm_k
    if var_k <= 0.0:
        raise ValueError("spectrum second moment vanishes")

    # numpy's DFT kernel is exp(-ikx), so its node j is psi at x = -2 pi fftfreq(N, dk)_j
    rho_x = np.abs(np.fft.fft(amp[:-1] / peak)) ** 2
    x = -TWO_PI * np.fft.fftfreq(rho_x.size, dk)
    wrap = rho_x[rho_x.size // 2] / rho_x.max()
    if wrap > 1e-16:
        raise ValueError(
            f"the position density at the period's end x = {x[rho_x.size // 2]:g} is {wrap:.3g} of its "
            f"peak, above 1e-16, so psi does not fit the period; raise n_k = {n_k}"
        )
    norm_x = np.sum(rho_x)
    mean_x = np.sum(rho_x * x) / norm_x
    var_x = np.sum(rho_x * (x - mean_x) ** 2) / norm_x
    return float(np.sqrt(var_x * var_k))

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

import numpy as np

from .numerics import (
    TWO_PI,
    ComplexField,
    Grid1D,
    KBall,
    SingleMode,
    _simpson_rule,
    _synthesize,
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


@dataclass(frozen=True)
class FilteredEnsemble:
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


def free_wavefunction(p: ParticleModel, grid: Grid1D, n_k: int = 801) -> ComplexField:
    """Isotropic free-particle ensemble wavefunction on a radial grid.

    psi(r) = (2 pi)^{-3/2} * 4 pi * int_0^{k0} k^2 sqrt(m) sin(kr)/(kr) dk
    with k0 the free oscillatory bound.
    """
    ball = KBall(allowed_k_range(p, 0.0).k_hi, n_k)
    return ComplexField(grid, radial_superposition(p.flat_amplitude, ball, grid.points(), kernel="oscillatory"))


def potential_wavefunction(
    p: ParticleModel,
    potential: float,
    grid: Grid1D,
    n_k: int = 801,
    convention: KineticConvention = KineticConvention.SINGLE,
) -> ComplexField:
    """Ensemble wavefunction at a constant potential on a radial grid.

    The members fill the range allowed_k_range gives at the potential: the
    oscillatory kernel sin(kr)/(kr) where E_T > V, the decaying kernel
    exp(-kr) where E_T < V, and no member, so psi = 0, where E_T = V.  A
    non-finite potential, or one whose density overflows a double, raises
    ValueError naming it.
    """
    rng = allowed_k_range(p, potential, convention=convention)
    kernel = "oscillatory" if rng.regime is Regime.OSCILLATORY else "decaying"
    with np.errstate(over="ignore", invalid="ignore"):
        vals = radial_superposition(p.flat_amplitude, KBall(rng.k_hi, n_k), grid.points(), kernel=kernel)
        finite = np.isfinite(vals**2).all()
    if not finite:
        raise ValueError(
            f"the density at potential {potential:g} overflows: its {rng.regime.name.lower()} "
            f"band reaches k_hi = {rng.k_hi:g}"
        )
    return ComplexField(grid, vals)


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


def uncertainty_product(
    amplitude,
    interval,
    n_k: int = 2001,
    n_x: int = 4001,
) -> float:
    """Position-momentum uncertainty product of a spectral amplitude.

    Builds the momentum density |chi(k)|^2 on the interval and the position
    density of psi(x) = (2 pi)^(-1/2) int chi(k) exp(ikx) dk, synthesized
    from the same samples of chi, takes second moments of each, and
    returns Delta X * Delta P (so a Gaussian spectrum gives 0.5).

    Parameters
    ----------
    amplitude : callable
        chi(k), accepting an ndarray of wavenumbers.
    interval : (k_lo, k_hi)
        Spectral support used for the moments and the synthesis.
    n_k, n_x : int
        Quadrature nodes in k and x.  The position window is
        [-40 / sigma_k, 40 / sigma_k]; spectra with slowly decaying
        position tails (sharp spectral edges) make Delta X grow with it,
        which only strengthens the lower bound.
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
    rho_k = np.abs(amp) ** 2
    norm_k = integrate_weighted(rho_k, w)
    if not np.isfinite(norm_k) or norm_k <= 0.0:
        raise ValueError("spectrum is not normalizable on the interval")
    mean_k = integrate_weighted(rho_k * k, w) / norm_k
    var_k = integrate_weighted(rho_k * (k - mean_k) ** 2, w) / norm_k
    if var_k <= 0.0:
        raise ValueError("spectrum second moment vanishes")
    sigma_k = float(np.sqrt(var_k))

    half = 40.0 / sigma_k
    x, w_x, _ = _simpson_rule(-half, half, n_x)
    rho_x = np.abs(TWO_PI**-0.5 * _synthesize(w * amp, lo, dk, x)) ** 2
    norm_x = integrate_weighted(rho_x, w_x)
    if not np.isfinite(norm_x) or norm_x <= 0.0:
        raise ValueError("synthesized density is not normalizable")
    mean_x = integrate_weighted(rho_x * x, w_x) / norm_x
    var_x = integrate_weighted(rho_x * (x - mean_x) ** 2, w_x) / norm_x
    return float(np.sqrt(var_x * var_k))

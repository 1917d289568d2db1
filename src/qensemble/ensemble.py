"""Quantum ensembles over allowed wavevector ranges.

A particle with total energy E_T is represented not by one plane wave but by
an ensemble of members filling every wavevector the energy budget allows.
Free members occupy k in [0, k0]; a potential V shifts the bound, and where
V exceeds E_T the members decay exponentially instead of oscillating.
Densities are modulus squared throughout.  Natural units (hbar = m = 1) are
the default; every quantity carries explicit factors of hbar and m so other
unit systems work unchanged.

Two squared-wavevector conventions appear in the source material, k^2 =
(m/hbar^2) E and k^2 = (2m/hbar^2) E.  Each operation uses the convention
its context fixes, and callers can force either through the
`KineticConvention` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import (
    TWO_PI,
    ArrayC,
    ArrayF,
    ComplexField,
    Grid1D,
    KBall,
    SingleMode,
    _simpson_rule,
    _synthesize,
    integrate_real,
    radial_superposition,
)


class Regime(Enum):
    """Oscillatory members (E_T > V) or exponentially decaying ones (E_T < V)."""

    OSCILLATORY = "oscillatory"
    DECAYING = "decaying"


class KineticConvention(Enum):
    """Coefficient c in k^2 = (c*m/hbar^2) * E."""

    SINGLE = 1.0
    DOUBLE = 2.0

    @property
    def coefficient(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ParticleModel:
    """Massive particle with a fixed total energy E_T = hbar*omega = m*u^2.

    The total energy splits evenly into a kinetic part and an intrinsic
    field part, E_K = E_F = E_T / 2.
    """

    mass: float = 1.0
    hbar: float = 1.0
    total_energy: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "hbar", "total_energy"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite")

    @classmethod
    def natural(cls, total_energy: float = 1.0) -> "ParticleModel":
        return cls(mass=1.0, hbar=1.0, total_energy=total_energy)


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
class PotentialSpec:
    """Real-valued potential of position with a human-readable description."""

    fn: Callable[[ArrayF], ArrayF]
    description: str = "potential"

    @classmethod
    def constant(cls, value: float, description: str | None = None) -> "PotentialSpec":
        v = float(value)
        return cls(fn=lambda x: np.full(np.shape(x), v), description=description or f"V = {v}")

    @classmethod
    def piecewise_constant(
        cls, breakpoints, values, description: str | None = None
    ) -> "PotentialSpec":
        """Steps: values[i] applies left of breakpoints[i]; values[-1] beyond."""
        bp = np.asarray(breakpoints, dtype=np.float64)
        vals = np.asarray(values, dtype=np.float64)
        if vals.size != bp.size + 1:
            raise ValueError("need one more value than breakpoints")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")

        def step(x):
            return vals[np.searchsorted(bp, np.asarray(x, dtype=np.float64), side="right")]

        return cls(fn=step, description=description or "piecewise-constant potential")

    def __call__(self, x) -> ArrayF:
        out = np.asarray(self.fn(np.asarray(x, dtype=np.float64)), dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise ValueError("potential must be finite on the evaluation grid")
        return out


@dataclass(frozen=True)
class EnsembleAmplitude:
    """Flat member amplitude chi0(k) = sqrt(m) on a range, zero outside."""

    norm_mass: float
    k_range: KRange

    def __post_init__(self) -> None:
        if not np.isfinite(self.norm_mass) or self.norm_mass <= 0.0:
            raise ValueError("norm_mass must be positive and finite")

    @property
    def flat_value(self) -> float:
        return float(np.sqrt(self.norm_mass))

    def __call__(self, k) -> ArrayC:
        k_arr = np.asarray(k, dtype=np.float64)
        inside = (k_arr >= self.k_lo_tol) & (k_arr <= self.k_hi_tol)
        return np.where(inside, self.flat_value, 0.0).astype(np.complex128)

    @property
    def k_lo_tol(self) -> float:
        # tolerant bounds so quadrature nodes on the edge are kept
        return self.k_range.k_lo - 1e-12 * max(1.0, self.k_range.k_hi)

    @property
    def k_hi_tol(self) -> float:
        return self.k_range.k_hi + 1e-12 * max(1.0, self.k_range.k_hi)


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
    sqrt(c*m*(E_T - V))/hbar; E_T < V gives decaying members with decay
    constants up to sqrt(c*m*(V - E_T))/hbar; E_T = V degenerates to the
    empty oscillatory range [0, 0].
    """
    v = float(potential_value)
    if not np.isfinite(v):
        raise ValueError("potential value must be finite")
    c = convention.coefficient
    gap = p.total_energy - v
    if gap > 0.0:
        k_hi = float(np.sqrt(c * p.mass * gap)) / p.hbar
        return KRange(0.0, k_hi, Regime.OSCILLATORY)
    if gap < 0.0:
        k_hi = float(np.sqrt(c * p.mass * (-gap))) / p.hbar
        return KRange(0.0, k_hi, Regime.DECAYING)
    return KRange(0.0, 0.0, Regime.OSCILLATORY)


def member_amplitude(p: ParticleModel, k_range: KRange | None = None) -> EnsembleAmplitude:
    """Flat amplitude sqrt(m) over the given range (free range by default)."""
    rng = k_range if k_range is not None else allowed_k_range(p, 0.0)
    return EnsembleAmplitude(norm_mass=p.mass, k_range=rng)


def free_wavefunction(p: ParticleModel, grid: Grid1D, n_k: int = 801) -> ComplexField:
    """Isotropic free-particle ensemble wavefunction on a radial grid.

    psi(r) = (2 pi)^{-3/2} * 4 pi * int_0^{k0} k^2 sqrt(m) sin(kr)/(kr) dk
    with k0 the free oscillatory bound.
    """
    rng = allowed_k_range(p, 0.0)
    chi = member_amplitude(p, rng)
    ball = KBall(rng.k_hi, n_k)
    vals = radial_superposition(chi, ball, grid.points(), kernel="oscillatory")
    return ComplexField(grid, vals)


def potential_wavefunction(
    p: ParticleModel,
    potential: PotentialSpec,
    grid: Grid1D,
    n_k: int = 801,
    convention: KineticConvention = KineticConvention.SINGLE,
) -> ComplexField:
    """Ensemble wavefunction with a position-dependent allowed range.

    Each node gets an independent radial superposition over the range
    allowed by the local potential: the oscillatory kernel sin(kr)/(kr)
    where E_T > V, the decaying kernel exp(-kr) where E_T < V.  Each maximal
    run of contiguous nodes sharing one potential value is synthesized in
    one call, since the oscillatory kernel needs uniformly spaced nodes; a
    constant potential is one call on the whole grid.  A potential whose
    density overflows a double raises ValueError naming it.
    """
    x = grid.points()
    v_vals = potential(x)
    out = np.zeros(x.shape, dtype=np.complex128)
    for v in np.unique(v_vals):
        rng = allowed_k_range(p, float(v), convention=convention)
        if rng.is_empty:
            continue
        chi = member_amplitude(p, rng)
        ball = KBall(rng.k_hi, n_k)
        kernel = "oscillatory" if rng.regime is Regime.OSCILLATORY else "decaying"
        idx = np.nonzero(v_vals == v)[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for run in np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1):
                nodes = slice(run[0], run[-1] + 1)
                out[nodes] = radial_superposition(chi, ball, x[nodes], kernel=kernel)
            finite = np.isfinite(np.abs(out[idx]) ** 2).all()
        if not finite:
            raise ValueError(
                f"the density at potential {v:g} overflows: its {rng.regime.name.lower()} "
                f"band reaches k_hi = {rng.k_hi:g}"
            )
    return ComplexField(grid, out)


def parseval_norm(p: ParticleModel, k: float, n_k: int = 2001) -> float:
    """Squared norm of the ensemble by ball quadrature of |chi0|^2.

    Returns 4 pi m k^3 / 3 evaluated as an integral, never as the closed
    formula, so it doubles as a check on the quadrature chain.
    """
    if not np.isfinite(k) or k < 0.0:
        raise ValueError("k must be finite and nonnegative")
    if k == 0.0:
        return 0.0
    chi = member_amplitude(p, KRange(0.0, k))
    q, _, dq = _simpson_rule(0.0, k, n_k)
    dens = np.abs(chi(q)) ** 2
    return float(4.0 * np.pi * integrate_real(dens * q * q, dq))


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
    pass, so the surviving range is [k1, k0] with k1^2 = (c*m/hbar^2) *
    e_rfa, clipped at k0.  A threshold above the ensemble energy blocks
    everything and is flagged rather than rejected.
    """
    if not np.isfinite(e_rfa) or e_rfa < 0.0:
        raise ValueError("threshold energy must be finite and nonnegative")
    c = convention.coefficient
    k0 = float(np.sqrt(c * p.mass * p.total_energy)) / p.hbar
    k1 = float(np.sqrt(c * p.mass * e_rfa)) / p.hbar
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
        q, _, dq = _simpson_rule(rng.k_lo, rng.k_hi, n_k)
        return float(4.0 * np.pi * integrate_real(p.mass * q * q, dq))

    total = shell(before)
    if total == 0.0:
        raise ValueError("before-range carries no density")
    return shell(after) / total


def uncertainty_product(
    amplitude,
    interval,
    n_k: int = 2001,
    x_halfwidth: float | None = None,
    n_x: int = 4001,
) -> float:
    """Position-momentum uncertainty product of a spectral amplitude.

    Builds the momentum density |chi(k)|^2 on the interval and the position
    density of psi(x) = (2 pi)^(-1/2) int chi(k) exp(ikx) dk, synthesized
    from the same samples of chi, takes second moments of each, and
    returns Delta X * Delta P in units of hbar (so a Gaussian spectrum
    gives 0.5).

    Parameters
    ----------
    amplitude : callable
        chi(k), accepting an ndarray of wavenumbers.
    interval : (k_lo, k_hi)
        Spectral support used for the moments and the synthesis.
    n_k, n_x : int
        Quadrature nodes in k and x.
    x_halfwidth : float, optional
        Half width of the position window; defaults to 40 / sigma_k.
        Spectra with slowly decaying position tails (sharp spectral edges)
        make Delta X grow with this window, which only strengthens the
        lower bound.
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
    norm_k = integrate_real(rho_k, dk)
    if not np.isfinite(norm_k) or norm_k <= 0.0:
        raise ValueError("spectrum is not normalizable on the interval")
    mean_k = integrate_real(rho_k * k, dk) / norm_k
    var_k = integrate_real(rho_k * (k - mean_k) ** 2, dk) / norm_k
    if var_k <= 0.0:
        raise ValueError("spectrum second moment vanishes")
    sigma_k = float(np.sqrt(var_k))

    half = x_halfwidth if x_halfwidth is not None else 40.0 / sigma_k
    x, _, dx = _simpson_rule(-half, half, n_x)
    rho_x = np.abs(TWO_PI**-0.5 * _synthesize(w * amp, lo, dk, x)) ** 2
    norm_x = integrate_real(rho_x, dx)
    if not np.isfinite(norm_x) or norm_x <= 0.0:
        raise ValueError("synthesized density is not normalizable")
    mean_x = integrate_real(rho_x * x, dx) / norm_x
    var_x = integrate_real(rho_x * (x - mean_x) ** 2, dx) / norm_x
    return float(np.sqrt(var_x * var_k))

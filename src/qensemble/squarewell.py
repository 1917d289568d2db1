"""Finite square well treated as a two-branch wavevector ensemble.

A particle bound in a well of depth V0 and half width x0 is an ensemble of
piecewise members: each member oscillates inside the well with wavenumber
k1 and decays outside with constant k2, the two tied by the energy budget
k1^2 + k2^2 = m V0 (natural units, hbar = 1).  The ensemble density
integrates member densities over k1 in [0, k0] inside the well and over k2
in [0, k0'] outside, with k0 and k0' the oscillatory and decaying bounds.

Members with cos(k1 x0) = 0 put all their weight inside the well; the
member formula divides by that cosine, so a small neighbourhood of each
such resonance is excluded from quadrature and the excluded measure is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .numerics import (
    ArrayF,
    Grid1D,
    _decay_sum,
    _simpson_rule,
    _synthesize,
    integrate_real,
    integrate_weighted,
)

if TYPE_CHECKING:
    from .ensemble import ParticleModel


class ResonantMemberError(ValueError):
    """Raised for members whose interior cosine vanishes."""


@dataclass(frozen=True)
class WellConfig:
    """Square well of depth v0 > E_T and half width x0 in the bound regime."""

    particle: ParticleModel
    v0: float
    x0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.v0) or self.v0 <= 0.0:
            raise ValueError("well depth v0 must be positive and finite")
        if not np.isfinite(self.x0) or self.x0 <= 0.0:
            raise ValueError("half width x0 must be positive and finite")
        if self.particle.total_energy >= self.v0:
            raise ValueError("bound regime requires E_T < v0")

    @property
    def pair_constant(self) -> float:
        """k1^2 + k2^2 budget, m v0."""
        return self.particle.mass * self.v0

    @property
    def k0(self) -> float:
        """Interior oscillatory bound sqrt(m E_T)."""
        p = self.particle
        return float(np.sqrt(p.mass * p.total_energy))

    @property
    def k0_prime(self) -> float:
        """Exterior decay bound sqrt(m (v0 - E_T))."""
        p = self.particle
        return float(np.sqrt(p.mass * (self.v0 - p.total_energy)))


class WellMember(NamedTuple):
    """Piecewise members: interior wavenumber, decay constant, amplitude.

    Each field is a float for one member, or an array with one entry per member.
    """

    k1: float | ArrayF
    k2: float | ArrayF
    chi0: float | ArrayF


def member_amplitude_well(cfg: WellConfig, k1, k2):
    """Member amplitude sqrt(m k2/(1 + k2 x0)) * exp(k2 x0) * cos(k1 x0)."""
    m, x0 = cfg.particle.mass, cfg.x0
    if np.any(k2 < 0.0):
        raise ValueError("decay constant k2 must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        amp = np.sqrt(m * k2 / (1.0 + k2 * x0)) * np.exp(k2 * x0) * np.cos(k1 * x0)
        if not np.all(np.isfinite(amp)):
            raise _amplitude_overflow(cfg, np.max(k2 * x0))
    return amp


def _amplitude_overflow(cfg: WellConfig, k2x0: float) -> ValueError:
    """The error for member amplitudes past a double, naming their largest k2 x0 unless it overflows too."""
    at = f"at k2 x0 = {k2x0:.6g}" if np.isfinite(k2x0) else "as k2 x0 itself overflows a double"
    return ValueError(
        f"member amplitude overflows {at}: well depth v0 = {cfg.v0:g} is too deep for half width x0 = {cfg.x0:g}"
    )


def _paired_wavenumber(cfg: WellConfig, k):
    """Paired wavenumber sqrt(pair_constant - k^2), held at 0 where rounding crosses zero."""
    return np.sqrt(np.maximum(cfg.pair_constant - k * k, 0.0))


def resonant_members(cfg: WellConfig, k1, resonance_tol: float):
    """Mask of the interior wavenumbers with |cos(k1 x0)| below resonance_tol.

    A negative or NaN resonance_tol would exclude nothing without saying
    so, and raises ValueError instead.
    """
    if not resonance_tol >= 0.0:
        raise ValueError(f"resonance_tol must be nonnegative, got {resonance_tol:g}")
    return np.abs(np.cos(k1 * cfg.x0)) < resonance_tol


def pair_member(cfg: WellConfig, k1, resonance_tol: float = 1e-6) -> WellMember:
    """Build the members with interior wavenumbers k1, a scalar or an array.

    The decay constants follow from the pairing k1^2 + k2^2 = m v0.  Every
    k1 must lie in [0, k0], and one with |cos(k1 x0)| below resonance_tol
    raises ResonantMemberError.  A scalar k1 gives float fields, an array
    gives arrays of its shape.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    if not np.all(np.isfinite(k1) & (k1 >= 0.0) & (k1 <= cfg.k0)):
        raise ValueError("k1 must lie in [0, k0]")
    k2 = _paired_wavenumber(cfg, k1)
    resonant = resonant_members(cfg, k1, resonance_tol)
    if np.any(resonant):
        raise ResonantMemberError(f"member k1 = {k1[resonant][0]} sits on an interior-cosine zero")
    chi0 = member_amplitude_well(cfg, k1, k2)
    if k1.ndim == 0:
        return WellMember(k1=float(k1), k2=float(k2), chi0=float(chi0))
    return WellMember(k1=k1, k2=k2, chi0=chi0)


def member_pairing(cfg: WellConfig, member: WellMember) -> tuple[float, float, str]:
    """Pairing oracle: max |k1^2 + k2^2 - pair_constant| over the members.

    Returns (value, tolerance, unit), the value 0 for no members.  k2 =
    sqrt(P - k1^2) and the sum round to within 2.5 eps P of P =
    pair_constant, so the tolerance is max(1e-12, 3 eps P).
    """
    err = np.abs(np.square(member.k1) + np.square(member.k2) - cfg.pair_constant)
    tol = max(1e-12, 3.0 * np.finfo(float).eps * cfg.pair_constant)
    return float(np.max(err, initial=0.0)), tol, "absolute"


def member_wavefunction(member: WellMember, cfg: WellConfig, x) -> ArrayF:
    """Piecewise member wavefunctions, continuous at both walls.

    chi0 e^{k2 x} left of the well, chi0 e^{-k2 x0} cos(k1 x)/cos(k1 x0)
    inside, chi0 e^{-k2 x} to the right.  The member's fields broadcast
    over x: the result has shape np.shape(member.k1) + np.shape(x).
    """
    x_arr = np.asarray(x, dtype=np.float64)
    # each branch is evaluated on its own nodes only, x_arr[mask], which come out flat, so the
    # member fields take one trailing axis; a nan x falls to the left branch, as nan > 0 fails
    lead = np.shape(member.k1) + (1,)
    k1, k2, chi0 = (np.reshape(v, lead) for v in (member.k1, member.k2, member.chi0))
    x0 = cfg.x0
    inner = np.abs(x_arr) <= x0
    right = ~inner & (x_arr > 0.0)
    out = np.empty(np.shape(member.k1) + x_arr.shape)
    # grouping the cosine ratio keeps the wall nodes bitwise equal to the
    # outer branch: cos(k1 x0)/cos(k1 x0) is exactly 1.0
    out[..., inner] = chi0 * np.exp(-k2 * x0) * (np.cos(k1 * x_arr[inner]) / np.cos(k1 * x0))
    out[..., right] = chi0 * np.exp(-k2 * x_arr[right])
    left = ~(inner | right)
    out[..., left] = chi0 * np.exp(k2 * x_arr[left])
    return out


def bound_state_residual(cfg: WellConfig, k1: float) -> float:
    """Defect k2 - k1 tan(k1 x0); zero on even bound-state members."""
    k2 = float(np.sqrt(cfg.pair_constant - k1 * k1))
    return k2 - k1 * float(np.tan(k1 * cfg.x0))


def is_bound_state_member(cfg: WellConfig, k1: float) -> bool:
    """Diagnostic predicate for the even bound-state condition, to 1e-9."""
    return abs(bound_state_residual(cfg, k1)) <= 1e-9


def normalization_audit(member: WellMember, cfg: WellConfig) -> float:
    """Ratio of the quadrature integral of |member|^2 over the line to the mass.

    The line is cut 40 decay lengths past each wall and sampled at 40001
    Simpson nodes.  The squared norm only equals m on members satisfying
    the bound-state condition k2 = k1 tan(k1 x0); elsewhere the audit
    reports the actual ratio instead of asserting it.
    """
    half = cfg.x0 + 40.0 / member.k2
    x, w, _ = _simpson_rule(-half, half, 40001)
    vals = member_wavefunction(member, cfg, x)
    return integrate_weighted(vals * vals, w) / cfg.particle.mass


class WellDensityResult(NamedTuple):
    """Normalized ensemble density with quadrature diagnostics and the settings it was built with."""

    grid: Grid1D
    values: ArrayF
    excluded_k_measure: float
    excluded_node_count: int
    norm_constant: float
    n_k: int
    resonance_tol: float


def well_ensemble_density(
    cfg: WellConfig,
    grid: Grid1D,
    n_k: int = 2001,
    resonance_tol: float = 1e-6,
) -> WellDensityResult:
    """Two-branch ensemble density of the well, normalized to unit integral.

    Inside the well the density integrates member densities over k1 in
    [0, k0]; outside it integrates over k2 in [0, k0'], the partner
    wavenumber following from the pairing in both branches.  Resonant k1
    nodes are excluded from the interior quadrature and their k-measure is
    reported.  The result is even in x and renormalized on the grid.
    """
    rho, excluded_measure, excluded_count = _raw_density(cfg, grid.points(), n_k, resonance_tol)
    norm = integrate_real(rho, grid.spacing)
    if norm <= 0.0:
        raise ValueError("ensemble density vanished on the grid")
    return WellDensityResult(
        grid=grid,
        values=rho / norm,
        excluded_k_measure=excluded_measure,
        excluded_node_count=excluded_count,
        norm_constant=float(norm),
        n_k=n_k,
        resonance_tol=resonance_tol,
    )


def _raw_density(cfg: WellConfig, x: ArrayF, n_k: int, resonance_tol: float) -> tuple[ArrayF, float, int]:
    """Unnormalized density at the uniform positions x, excluded k-measure and node count."""
    m, x0 = cfg.particle.mass, cfg.x0
    ax = np.abs(x)
    rho = np.zeros(x.shape)

    # interior branch
    k1, w1, dk1 = _simpson_rule(0.0, cfg.k0, n_k)
    k2_of_k1 = _paired_wavenumber(cfg, k1)
    resonant = resonant_members(cfg, k1, resonance_tol)
    if np.all(resonant):
        raise ValueError("resonance_tol excludes every interior member")
    excluded_measure = float(np.sum(w1[resonant]))
    excluded_count = int(np.count_nonzero(resonant))
    # member amplitude squared times its interior envelope, combined in one
    # expression: the bare exp(+2 k2 x0) inside chi0^2 overflows for deep
    # wells, the product never does.
    scale_in = np.where(resonant, 0.0, m * k2_of_k1 / (1.0 + k2_of_k1 * x0))
    inner = ax <= x0
    if np.any(inner):
        # cos^2(k x) = (1 + Re e^{2ikx}) / 2 over the contiguous run of inner
        # nodes, which is uniform (cos^2 is even, so x serves for |x|)
        wts = w1 * scale_in
        doubled = _synthesize(wts, 0.0, 2.0 * dk1, x[inner])
        rho[inner] = 0.5 * (np.sum(wts) + doubled.real)

    # exterior branch
    k2, w2, dk2 = _simpson_rule(0.0, cfg.k0_prime, n_k)
    k1_of_k2 = _paired_wavenumber(cfg, k2)
    scale_out = m * k2 / (1.0 + k2 * x0) * np.cos(k1_of_k2 * x0) ** 2
    outer = ax > x0
    if np.any(outer):
        # exp(-2 (|x| - x0) k2) summed over k2 = m dk2
        rho[outer] = _decay_sum(w2 * scale_out, dk2, 2.0 * (ax[outer] - x0))
    return rho, excluded_measure, excluded_count


def density_parity(cfg: WellConfig, profile: WellDensityResult) -> tuple[float, float, str]:
    """Parity oracle: max |rho(x) - rho(-x)| on the profile's grid.

    Returns (value, tolerance, unit).  On a grid that is its own mirror
    rho(-x) is the profile reversed.  Otherwise the density is evaluated at
    exactly -x, with the n_k and resonance_tol the profile records, and
    divided by its norm_constant: a node within rounding of a wall falls on
    the same side of it both times, and Simpson's end correction, which is not
    symmetric for an even node count, stays out of the comparison.  Both
    sides carry rounding relative to the peak, so the tolerance is 1e-10
    max(1, peak): 1e-10 wherever the normalized density peaks at or
    below 1.
    """
    g = profile.grid
    mirrored = profile.values[::-1]
    if g.x_min != -g.x_max:
        raw = _raw_density(cfg, -g.points()[::-1], profile.n_k, profile.resonance_tol)[0]
        mirrored = raw[::-1] / profile.norm_constant
    tol = 1e-10 * max(1.0, float(profile.values.max()))
    return float(np.abs(profile.values - mirrored).max()), tol, "absolute"

"""Free wave packets, their spreading, and the intrinsic field picture.

A Gaussian packet is an ensemble with spectral weight exp(-(k-k0)^2 b^2 / 2)
around the carrier k0; a single retained mode is the degenerate ensemble
with exactly one wavevector and propagates as a unit-modulus plane wave.
Spreading follows from the quadratic dispersion omega(k) = hbar k^2 / 2m.

The intrinsic field picture attaches a potential phi = (hbar^2 k^2 / m^2)
|psi0|^2 to the envelope amplitude psi0; its negative gradient is the force
member amplitudes feel, and a constant envelope is the equilibrium case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .ensemble import ParticleModel
from .numerics import (
    ArrayF,
    ComplexField,
    Grid1D,
    SingleMode,
    _as_odd,
    _simpson_rule,
    _synthesize,
)


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian spectral packet with width parameter b and carrier k0."""

    b: float
    k0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.b) or self.b <= 0.0:
            raise ValueError("width parameter b must be positive and finite")
        if not np.isfinite(self.k0):
            raise ValueError("carrier k0 must be finite")


InitialPacket = Union[GaussianPacket, SingleMode]


@dataclass(frozen=True)
class DispersionLaw:
    """Quadratic free dispersion omega(k) = hbar k^2 / 2m."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.mass <= 0.0 or self.hbar <= 0.0:
            raise ValueError("mass and hbar must be positive")

    def omega(self, k) -> ArrayF:
        return self.hbar * np.asarray(k, dtype=np.float64) ** 2 / (2.0 * self.mass)

    def group_velocity(self, k) -> ArrayF:
        return self.hbar * np.asarray(k, dtype=np.float64) / self.mass


@dataclass(frozen=True)
class GaussianSpectrum:
    """Spectral amplitude exp(-(k - k0)^2 b^2 / 2)."""

    b: float
    k0: float

    def __call__(self, k) -> ArrayF:
        kk = np.asarray(k, dtype=np.float64)
        return np.exp(-((kk - self.k0) ** 2) * self.b**2 / 2.0)


# Bound on b and on the window half-width 8/b, both of which the spectrum squares:
# half of sqrt(largest double), so the squares stay finite with room for rounding.
_MAX_SQUARED = math.sqrt(np.finfo(np.float64).max) / 2.0


def spectral_window(packet: GaussianPacket) -> tuple[float, float]:
    """Truncated spectral support [k0 - 8/b, k0 + 8/b]."""
    if not max(packet.b, 8.0 / packet.b) <= _MAX_SQUARED:
        raise ValueError(
            f"the gaussian spectrum overflows for b = {packet.b:g}; "
            f"keep b within {8.0 / _MAX_SQUARED:.3g} .. {_MAX_SQUARED:.3g}"
        )
    lo, hi = packet.k0 - 8.0 / packet.b, packet.k0 + 8.0 / packet.b
    if not lo < hi:
        raise ValueError(
            f"spectral window k0 -/+ 8/b collapses to one point for k0 = {packet.k0:g}, "
            f"b = {packet.b:g}; lower k0 or b"
        )
    return lo, hi


def truncation_bound(packet: GaussianPacket) -> float:
    """Upper bound on the amplitude lost to the spectral truncation."""
    return math.erfc(8.0 / math.sqrt(2.0)) / packet.b


# Ceiling on the automatic spectral node count.  The default spread grid
# needs at most 9371 nodes for k0 <= 10 and t <= 5; a count past this cap
# would ask for gigabytes, so it is refused instead of allocated.
_MAX_AUTO_NODES = 1_000_000


def _auto_nodes(packet: GaussianPacket, t: float, grid: Grid1D, disp: DispersionLaw) -> int:
    # resolve the fastest phase oscillation exp(i(kx - omega t)) on the window
    lo, hi = spectral_window(packet)
    k_abs = max(abs(lo), abs(hi))
    reach = max(abs(grid.x_min), abs(grid.x_max)) + k_abs * disp.hbar * abs(t) / disp.mass
    nodes = 32.0 * ((hi - lo) * reach / (2.0 * np.pi))
    if not nodes <= _MAX_AUTO_NODES:
        raise ValueError(
            f"carrier k0 = {packet.k0:g} at time t = {t:g} needs {nodes:.3g} automatic "
            f"spectral nodes, above the limit of {_MAX_AUTO_NODES}; lower k0 or times"
        )
    return _as_odd(max(3001, int(nodes)))


def propagate(
    packet: InitialPacket,
    t: float,
    grid: Grid1D,
    dispersion: DispersionLaw | None = None,
    n_k: int | None = None,
) -> ComplexField:
    """Free evolution of an initial packet, sampled on a grid.

    A single mode is exact: exp(i (k0 x - omega(k0) t)) with unit modulus
    at every node and every time.  A Gaussian packet is synthesized as
    (2 pi)^(-1/2) * int spec(k) exp(i (k x - omega(k) t)) dk over the
    truncated window, whose neglected tail is below truncation_bound().
    """
    disp = dispersion if dispersion is not None else DispersionLaw()
    x = grid.points()
    if isinstance(packet, SingleMode):
        with np.errstate(over="ignore", invalid="ignore"):
            phase = packet.k0 * x - float(disp.omega(packet.k0)) * t
        if not np.isfinite(phase).all():
            raise ValueError(
                f"single-mode phase k0 x - omega(k0) t overflows for k0 = {packet.k0:g}, t = {t:g}"
            )
        return ComplexField(grid, np.exp(1j * phase))
    spec = GaussianSpectrum(packet.b, packet.k0)
    lo, hi = spectral_window(packet)
    n = n_k if n_k is not None else _auto_nodes(packet, t, grid, disp)
    k, w, dk = _simpson_rule(lo, hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        turn = np.exp(-1j * disp.omega(k) * t)
    if not np.isfinite(turn).all():
        raise ValueError(f"phase omega(k) t overflows for k0 = {packet.k0:g}, b = {packet.b:g}, t = {t:g}")
    return ComplexField(grid, (2.0 * np.pi) ** -0.5 * _synthesize(w * spec(k) * turn, lo, dk, x))


def closed_form_density(
    packet: GaussianPacket,
    x,
    t: float,
    dispersion: DispersionLaw | None = None,
    mode: str = "textbook",
) -> ArrayF:
    """Closed-form spreading density of a Gaussian packet, peak 1 at t = 0.

    mode="textbook" is the standard dispersion result with broadening
    factor s = 1 + (hbar t / m b^2)^2: prefactor s^(-1/2) and exponent
    -(x - hbar k0 t/m)^2 / (b^2 s).  mode="model" is the ensemble model's
    own closed form, which squares the broadening factor in the exponent
    and uses prefactor s^(-1); the two coincide only at t = 0.
    """
    if mode not in ("textbook", "model"):
        raise ValueError("mode must be 'textbook' or 'model'")
    disp = dispersion if dispersion is not None else DispersionLaw()
    x_arr = np.asarray(x, dtype=np.float64)
    b, k0 = packet.b, packet.k0
    tau = disp.hbar * t / (disp.mass * b * b)
    s = 1.0 + tau * tau
    if not math.isfinite(s):
        raise ValueError(f"broadening factor 1 + (hbar t / m b^2)^2 overflows for t = {t:g}, b = {b:g}")
    xi = x_arr - disp.hbar * k0 * t / disp.mass
    # a square past the largest double is an exponent of -inf: density 0
    with np.errstate(over="ignore"):
        if mode == "textbook":
            return s**-0.5 * np.exp(-(xi * xi) / (b * b * s))
        return s**-1.0 * np.exp(-(xi * xi) / (b * b * s * s))


def spreading_deviation(packet: GaussianPacket, runs, dispersion=None, notes=None) -> tuple[float, float, str]:
    """Spreading oracle: deviation of (t, x, density) runs from the textbook form, which carries 1/b^2.

    Nodes at or above 1e-8 of the packet's own peak must hold 1e-4 relative, and every node 1e-10 of that
    peak absolute; the worst relative deviation is returned, or the absolute one over the peak where that
    bound is breached or no node reaches the mask; a run where none does gets a line in `notes`, if given.
    """
    disp = dispersion if dispersion is not None else DispersionLaw()
    worst, worst_abs, masked = 0.0, 0.0, False
    for t, x, density in runs:
        ref = closed_form_density(packet, x, t, disp) / packet.b**2
        if not ref.max() > 0.0:
            raise ValueError(f"b = {packet.b:g} leaves no density on x_min = {x[0]:g} .. x_max = {x[-1]:g}")
        # at the packet's centre, whether or not the grid reaches it
        peak = float(closed_form_density(packet, disp.hbar * packet.k0 * t / disp.mass, t, disp)) / packet.b**2
        err = np.abs(density - ref)
        mask = ref >= 1e-8 * peak
        worst = max(worst, float((err[mask] / ref[mask]).max(initial=0.0)))
        masked = masked or bool(mask.any())
        if notes is not None and not mask.any():
            notes.append(f"no node at t = {t:g} reaches 1e-8 of the gaussian peak; only the absolute bound applies")
        worst_abs = max(worst_abs, float(err.max()) / peak)
    if not (masked and worst_abs <= 1e-10):
        return worst_abs, 1e-10, "relative to peak"
    return worst, 1e-4, "relative"


def intrinsic_potential(amplitude, p: ParticleModel, k: float) -> ArrayF:
    """Intrinsic field potential phi = (hbar^2 k^2 / m^2) |amplitude|^2."""
    amp = np.asarray(amplitude, dtype=np.complex128)
    pref = (p.hbar * k / p.mass) ** 2
    return pref * (np.abs(amp) ** 2)


def _product_gradient(amplitude, spacing: float) -> ArrayF:
    """psi* grad psi + c.c. = 2 Re(psi* grad psi) of samples with the given spacing.

    The gradient is central-difference on interior nodes and one-sided at
    the two boundary nodes, which are therefore first-order only.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    psi = np.asarray(amplitude, dtype=np.complex128)
    return (np.conj(psi) * np.gradient(psi, spacing)).real * 2.0


def intrinsic_force(amplitude, p: ParticleModel, k: float, spacing: float) -> ArrayF:
    """Force -grad(phi) through the product form psi* grad psi + c.c."""
    pref = (p.hbar * k / p.mass) ** 2
    return -pref * _product_gradient(amplitude, spacing)


def equilibrium_check(amplitude, spacing: float) -> float:
    """Max-norm of psi* grad psi + c.c.; zero exactly for constant envelopes."""
    return float(np.abs(_product_gradient(amplitude, spacing)).max())


@dataclass(frozen=True)
class QuantumPotentialResult:
    """Curvature ratio values with the mask of unreliable nodes."""

    values: ArrayF
    masked: NDArray[np.bool_]


def quantum_potential(envelope, spacing: float, floor: float = 1e-12) -> QuantumPotentialResult:
    """Curvature ratio laplacian(R)/R of a real envelope R.

    Nodes where |R| <= floor are masked (NaN in the values, True in the
    mask) instead of dividing by a vanishing envelope.  End nodes copy the
    adjacent interior curvature stencil and are first-order only.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    r = np.asarray(envelope, dtype=np.float64)
    if r.size < 3:
        raise ValueError("need at least 3 nodes for a curvature stencil")
    lap = np.empty_like(r)
    h2 = spacing * spacing
    lap[1:-1] = (r[2:] - 2.0 * r[1:-1] + r[:-2]) / h2
    lap[0] = (r[0] - 2.0 * r[1] + r[2]) / h2
    lap[-1] = (r[-1] - 2.0 * r[-2] + r[-3]) / h2
    masked = np.abs(r) <= floor
    values = np.where(masked, np.nan, lap / np.where(masked, 1.0, r))
    return QuantumPotentialResult(values=values, masked=masked)

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
    _simpson_weights,
    _spectral_nodes,
    _synthesize,
)

# Multiplies every dispersion evaluation; self checks corrupt it to prove
# the spread criteria actually watch the dispersion chain.
_DISPERSION_SCALE = 1.0


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

    @classmethod
    def from_particle(cls, p: ParticleModel) -> "DispersionLaw":
        return cls(mass=p.mass, hbar=p.hbar)

    def omega(self, k) -> ArrayF:
        return _DISPERSION_SCALE * self.hbar * np.asarray(k, dtype=np.float64) ** 2 / (2.0 * self.mass)

    def group_velocity(self, k) -> ArrayF:
        return _DISPERSION_SCALE * self.hbar * np.asarray(k, dtype=np.float64) / self.mass


@dataclass(frozen=True)
class GaussianSpectrum:
    """Spectral amplitude exp(-(k - k0)^2 b^2 / 2)."""

    b: float
    k0: float

    def __call__(self, k) -> ArrayF:
        kk = np.asarray(k, dtype=np.float64)
        return np.exp(-((kk - self.k0) ** 2) * self.b**2 / 2.0)


def packet_spectrum(packet: InitialPacket):
    """Spectral amplitude of an initial packet (symbolic for a single mode)."""
    if isinstance(packet, SingleMode):
        return packet
    return GaussianSpectrum(b=packet.b, k0=packet.k0)


def spectral_window(packet: GaussianPacket) -> tuple[float, float]:
    """Truncated spectral support [k0 - 8/b, k0 + 8/b]."""
    return (packet.k0 - 8.0 / packet.b, packet.k0 + 8.0 / packet.b)


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
        phase = packet.k0 * x - float(disp.omega(packet.k0)) * t
        return ComplexField(grid, np.exp(1j * phase))
    spec = packet_spectrum(packet)
    lo, hi = spectral_window(packet)
    n = n_k if n_k is not None else _auto_nodes(packet, t, grid, disp)
    k = _spectral_nodes(lo, hi, n)
    dk = k[1] - k[0]
    wts = _simpson_weights(k.size, dk) * spec(k) * np.exp(-1j * disp.omega(k) * t)
    return ComplexField(grid, (2.0 * np.pi) ** -0.5 * _synthesize(wts, lo, dk, x))


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
    xi = x_arr - disp.hbar * k0 * t / disp.mass
    if mode == "textbook":
        return s**-0.5 * np.exp(-(xi * xi) / (b * b * s))
    return s**-1.0 * np.exp(-(xi * xi) / (b * b * s * s))


def intrinsic_potential(amplitude, p: ParticleModel, k: float) -> ArrayF:
    """Intrinsic field potential phi = (hbar^2 k^2 / m^2) |amplitude|^2."""
    amp = np.asarray(amplitude, dtype=np.complex128)
    pref = (p.hbar * k / p.mass) ** 2
    return pref * (np.abs(amp) ** 2)


def intrinsic_force(amplitude, p: ParticleModel, k: float, spacing: float) -> ArrayF:
    """Force -grad(phi) through the product form psi* grad psi + c.c.

    The gradient is central-difference on interior nodes and one-sided at
    the two boundary nodes, which are therefore first-order only.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    psi = np.asarray(amplitude, dtype=np.complex128)
    grad = np.gradient(psi, spacing)
    pair = (np.conj(psi) * grad).real * 2.0
    pref = (p.hbar * k / p.mass) ** 2
    return -pref * pair


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of the amplitude-equilibrium residual check."""

    max_residual: float
    threshold: float

    @property
    def in_equilibrium(self) -> bool:
        return self.max_residual <= self.threshold


def equilibrium_check(amplitude, spacing: float, threshold: float = 1e-8) -> EquilibriumReport:
    """Max-norm of psi* grad psi + c.c.; zero exactly for constant envelopes."""
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    psi = np.asarray(amplitude, dtype=np.complex128)
    grad = np.gradient(psi, spacing)
    residual = np.abs((np.conj(psi) * grad).real * 2.0)
    return EquilibriumReport(max_residual=float(residual.max()), threshold=threshold)


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

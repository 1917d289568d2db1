"""Numerical laboratory for wavevector-range ensemble models of measurement."""

from .ensemble import (
    FilteredEnsemble,
    KineticConvention,
    KRange,
    ParticleModel,
    PotentialSpec,
    Regime,
)
from .numerics import ComplexField, Grid1D, KBall, SingleMode
from .wavepacket import DispersionLaw, GaussianPacket

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "DispersionLaw",
    "FilteredEnsemble",
    "GaussianPacket",
    "Grid1D",
    "KBall",
    "KineticConvention",
    "KRange",
    "ParticleModel",
    "PotentialSpec",
    "Regime",
    "SingleMode",
    "__version__",
]

"""Numerical laboratory for wavevector-range ensemble models of measurement."""

import os as _os

# QENSEMBLE_THREADS caps the BLAS fan-out of the remaining dense matrix
# products (radial synthesis and the well exterior); it must be applied
# before numpy loads its backend, hence here.  0 or unset leaves the
# backend default.  Explicit backend variables win.
_threads = _os.environ.get("QENSEMBLE_THREADS", "0")
if _threads.isdigit() and _threads != "0":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

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

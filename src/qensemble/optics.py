"""Polarized beams, a polarization eraser, and a bomb-testing interferometer.

Beams carry complex electric and magnetic amplitudes along explicit unit
vectors, so interference is computed by adding full vector fields and the
electromagnetic intensity phi_em = (|E|^2/c^2 + |B|^2)/2 follows from the
actual superposition.  A parallel two-component statevector route computes
the same interferometer; the two stay proportional through one constant.

The bomb test uses a symmetric two-splitter network with reflectivity r and
a projective absorber in the reflected arm.  Detection efficiency is
accounted with three chained binomial draws from one seeded Philox
generator, so a ledger of any size is exact, reproducible and O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Union

import numpy as np

from . import DEFAULT_SEED

if TYPE_CHECKING:
    from .numerics import ArrayF

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

_ORTHO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PolarizedBeam:
    """Plane-wave beam with explicit field directions and a phase.

    The realized fields are e_amp * exp(i phase) along e_dir and b_amp *
    exp(i phase) along b_dir; e_dir, b_dir and k_dir must be mutually
    orthogonal unit vectors.
    """

    e_amp: complex
    b_amp: complex
    e_dir: ArrayF
    b_dir: ArrayF
    k_dir: ArrayF
    phase: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("e_dir", "b_dir", "k_dir"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ValueError(f"{name} must be nonzero")
            object.__setattr__(self, name, vec / norm)
        if self.c <= 0.0:
            raise ValueError("wave speed c must be positive")
        pairs = (
            ("e_dir", "b_dir"),
            ("e_dir", "k_dir"),
            ("b_dir", "k_dir"),
        )
        for a, b in pairs:
            dot = abs(float(np.dot(getattr(self, a), getattr(self, b))))
            if dot > _ORTHO_TOL:
                raise ValueError(f"{a} and {b} must be orthogonal (|dot| = {dot:.3e})")

    @property
    def e_vec(self) -> np.ndarray:
        return complex(self.e_amp) * np.exp(1j * self.phase) * self.e_dir

    @property
    def b_vec(self) -> np.ndarray:
        return complex(self.b_amp) * np.exp(1j * self.phase) * self.b_dir

    def with_phase(self, extra: float) -> "PolarizedBeam":
        return replace(self, phase=self.phase + extra)

    def scaled(self, factor: complex) -> "PolarizedBeam":
        return replace(self, e_amp=self.e_amp * factor, b_amp=self.b_amp * factor)


def horizontal_beam(e_amp: complex = 1.0, b_amp: complex = 1.0, c: float = 1.0) -> PolarizedBeam:
    """Beam along z with E along x and B along y."""
    return PolarizedBeam(e_amp=e_amp, b_amp=b_amp, e_dir=X_HAT, b_dir=Y_HAT, k_dir=Z_HAT, c=c)


def em_intensity(beams: Union[PolarizedBeam, Iterable[PolarizedBeam]]) -> float:
    """Intensity (|E|^2/c^2 + |B|^2)/2 of the vector superposition."""
    if isinstance(beams, PolarizedBeam):
        beams = [beams]
    beams = list(beams)
    if not beams:
        raise ValueError("need at least one beam")
    c = beams[0].c
    if any(b.c != c for b in beams):
        raise ValueError("all beams must share one wave speed")
    e_tot = np.zeros(3, dtype=np.complex128)
    b_tot = np.zeros(3, dtype=np.complex128)
    for b in beams:
        e_tot += b.e_vec
        b_tot += b.b_vec
    e_sq = float(np.sum(np.abs(e_tot) ** 2))
    b_sq = float(np.sum(np.abs(b_tot) ** 2))
    return 0.5 * (e_sq / (c * c) + b_sq)


def rotate_polarization(beam: PolarizedBeam) -> PolarizedBeam:
    """Quarter-turn of both field directions about the propagation axis."""
    return replace(
        beam,
        e_dir=np.cross(beam.k_dir, beam.e_dir),
        b_dir=np.cross(beam.k_dir, beam.b_dir),
    )


def mirror(beam: PolarizedBeam, normal) -> PolarizedBeam:
    """Lossless reflection across the plane orthogonal to the given normal."""
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    k_new = beam.k_dir - 2.0 * np.dot(beam.k_dir, n) * n
    e_new = beam.e_dir - 2.0 * np.dot(beam.e_dir, n) * n
    b_new = np.cross(k_new, e_new)
    return replace(beam, k_dir=k_new, e_dir=e_new, b_dir=b_new, phase=beam.phase + np.pi)


def split_beam(beam: PolarizedBeam) -> tuple[PolarizedBeam, PolarizedBeam]:
    """Lossless 50/50 split into two equal-amplitude copies."""
    half = beam.scaled(1.0 / np.sqrt(2.0))
    return half, half


def diagonal_polarizer(beam: PolarizedBeam) -> PolarizedBeam:
    """Project a beam onto the diagonal polarizer axis (x + y) / sqrt(2).

    The electric amplitude is projected onto the axis and the magnetic
    amplitude onto k x axis, which keeps the transmitted beam a valid
    transverse wave; a beam with a component along the axis is refused.
    Lossy in general.
    """
    d = X_HAT + Y_HAT
    d = d / np.linalg.norm(d)
    if abs(float(np.dot(d, beam.k_dir))) > _ORTHO_TOL:
        raise ValueError("polarizer axis must be transverse to the beam")
    d_b = np.cross(beam.k_dir, d)
    return replace(
        beam,
        e_amp=beam.e_amp * float(np.dot(beam.e_dir, d)),
        e_dir=d,
        b_amp=beam.b_amp * float(np.dot(beam.b_dir, d_b)),
        b_dir=d_b,
    )


class EraserStage(Enum):
    BASELINE = "baseline"
    ROTATOR = "rotator_in_path1"
    ROTATOR_DIAGONAL = "rotator_plus_diagonal"


def _eraser_beams(stage: EraserStage, e_amp: complex, b_amp: complex, c: float) -> list[PolarizedBeam]:
    """The eraser's two paths at relative phase 0."""
    path1, path2 = split_beam(horizontal_beam(e_amp, b_amp, c))
    if stage is not EraserStage.BASELINE:
        path1 = rotate_polarization(path1)
    beams = [path1, path2]
    if stage is EraserStage.ROTATOR_DIAGONAL:
        beams = [diagonal_polarizer(b) for b in beams]
    return beams


def _field_sweep(stage: EraserStage, phases: ArrayF, e_amp: complex, b_amp: complex, c: float) -> ArrayF:
    """Field-route intensity at each relative phase of path 2.

    The beams are built once at phase 0.  Path 2's phase enters as the
    factor exp(i phase) on its amplitude, in the order PolarizedBeam.e_vec
    and b_vec apply it, so each entry equals em_intensity of the two beams
    at that phase bit for bit.
    """
    path1, path2 = _eraser_beams(stage, e_amp, b_amp, c)
    turn = np.exp(1j * phases)[:, None]
    e_tot = path1.e_vec + complex(path2.e_amp) * turn * path2.e_dir
    b_tot = path1.b_vec + complex(path2.b_amp) * turn * path2.b_dir
    e_sq = np.sum(np.abs(e_tot) ** 2, axis=1)
    b_sq = np.sum(np.abs(b_tot) ** 2, axis=1)
    return 0.5 * (e_sq / (c * c) + b_sq)


def _state_sweep(stage: EraserStage, phases: ArrayF) -> ArrayF:
    """State-route intensity at each relative phase of path 2.

    np.vecdot is np.vdot row by row, so each entry equals the projection of
    one two-component state onto the diagonal bit for bit.
    """
    h = np.array([1.0, 0.0], dtype=np.complex128)
    v = np.array([0.0, 1.0], dtype=np.complex128)
    path1 = h if stage is EraserStage.BASELINE else v
    path2 = h * np.exp(1j * phases)[:, None]
    psi = (path1 + path2) / np.sqrt(2.0)
    if stage is EraserStage.ROTATOR_DIAGONAL:
        d = (h + v) / np.sqrt(2.0)
        psi = np.vecdot(d, psi)[:, None] * d
    return np.sum(np.abs(psi) ** 2, axis=1)


def visibility(curve) -> float:
    """Fringe visibility (max - min)/(max + min) of an intensity sweep."""
    vals = np.asarray(curve, dtype=np.float64)
    hi, lo = float(vals.max()), float(vals.min())
    if lo < 0.0:
        raise ValueError("intensities must be nonnegative")
    total = hi + lo
    return 0.0 if total == 0.0 else (hi - lo) / total


class FormalismReport(NamedTuple):
    """Field-route and state-route sweeps with their fitted proportionality."""

    phases: ArrayF
    field_curves: dict
    state_curves: dict
    constant: float
    max_abs_deviation: float
    field_visibility: dict
    state_visibility: dict


def formalism_agreement(
    n_phases: int = 64,
    e_amp: complex = 1.0,
    b_amp: complex = 1.0,
    c: float = 1.0,
) -> FormalismReport:
    """Sweep all stages over phase in both formalisms and fit one constant.

    The fitted constant is the least-squares ratio of the field route to
    the state route over every stage and phase together; the report's
    max_abs_deviation measures how pointwise-proportional the routes are.
    """
    for name, value in (("e_amp", e_amp), ("b_amp", b_amp), ("c", c)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if n_phases < 2:
        raise ValueError(f"n_phases must be at least 2, got {n_phases}")
    phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        field_curves = {s.value: _field_sweep(s, phases, e_amp, b_amp, c) for s in EraserStage}
        state_curves = {s.value: _state_sweep(s, phases) for s in EraserStage}
        f_all = np.concatenate(list(field_curves.values()))
        s_all = np.concatenate(list(state_curves.values()))
        denom = float(np.dot(s_all, s_all))
        if denom == 0.0:
            raise ValueError("state-route intensities vanish identically")
        if not f_all.any():
            raise ValueError(
                f"field-route intensities vanish identically for e_amp = {e_amp:g}, b_amp = {b_amp:g}, c = {c:g}"
            )
        constant = float(np.dot(f_all, s_all)) / denom
        max_dev = float(np.max(np.abs(f_all - constant * s_all)))
    # dot(f, s) holds twice the largest field intensity (the baseline peak at
    # phase 0, where the state intensity is 2), so a finite constant also
    # keeps each visibility's max + min finite
    if not (np.isfinite(f_all).all() and np.isfinite(constant) and np.isfinite(max_dev)):
        raise ValueError(f"field intensities overflow for e_amp = {e_amp:g}, b_amp = {b_amp:g}, c = {c:g}")
    return FormalismReport(
        phases=phases,
        field_curves=field_curves,
        state_curves=state_curves,
        constant=constant,
        max_abs_deviation=max_dev,
        field_visibility={k: visibility(v) for k, v in field_curves.items()},
        state_visibility={k: visibility(v) for k, v in state_curves.items()},
    )


def visibility_targets(report: FormalismReport) -> tuple[float, float, str]:
    """Eraser oracle: worst |visibility - target| over both routes and all stages.

    The target is 0 once path 1 is marked, else the visibility of 1 + cos(phase) on the sampled phases.
    """
    fringe = visibility(1.0 + np.cos(report.phases))
    targets = {EraserStage.BASELINE: fringe, EraserStage.ROTATOR: 0.0, EraserStage.ROTATOR_DIAGONAL: fringe}
    routes = (report.field_visibility, report.state_visibility)
    return max(abs(r[s.value] - want) for r in routes for s, want in targets.items()), 1e-12, "absolute"


def route_proportionality(report: FormalismReport) -> tuple[float, float, str]:
    """Eraser oracle: route deviation over max(1, constant), the scale its rounding grows with."""
    return report.max_abs_deviation / max(1.0, report.constant), 1e-12, "relative to max(1, route_constant)"


@dataclass(frozen=True)
class MZConfig:
    """Symmetric two-splitter interferometer, absorber in the reflected arm."""

    bomb_present: bool = False
    reflectivity: float = 0.5
    efficiency: float = 0.02

    def __post_init__(self) -> None:
        if not (0.0 <= self.reflectivity <= 1.0):
            raise ValueError("reflectivity must lie in [0, 1]")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")


class MZProbabilities(NamedTuple):
    """Outcome distribution over the bright port, dark port and absorber."""

    bright: float
    dark: float
    absorbed: float


def mz_probabilities(cfg: MZConfig) -> MZProbabilities:
    """Outcome probabilities of the bomb-test interferometer.

    Both splitters carry the real unitary [[sqrt(r), sqrt(t)], [sqrt(t),
    -sqrt(r)]] with t = 1 - r.  With no absorber the cascade is the
    identity, so the dark port is exactly silent for every r.  With the
    absorber in the reflected arm the photon is absorbed with probability
    r, and the surviving transmitted amplitude sqrt(t) closes the network
    to bright amplitude t and dark amplitude -sqrt(r t); the closed forms
    are evaluated directly and the last outcome takes the complement so
    the three probabilities sum to exactly one.
    """
    r = float(cfg.reflectivity)
    t = 1.0 - r
    if not cfg.bomb_present:
        return MZProbabilities(bright=1.0, dark=0.0, absorbed=0.0)
    absorbed = r
    bright = t * t
    dark = 1.0 - absorbed - bright
    return MZProbabilities(bright=bright, dark=dark, absorbed=absorbed)


class EfficiencyLedger(NamedTuple):
    """Monte Carlo bookkeeping of where the photons went."""

    n_trials: int
    seed: int
    efficiency: float
    expected: dict
    counts: dict

    @property
    def expected_undetected_bound_share(self) -> float:
        """Share of detector-bound photons the detectors are expected to miss."""
        return 1.0 - self.efficiency

    @property
    def observed_undetected_bound_share(self) -> float:
        bound = self.counts["detected_bright"] + self.counts["detected_dark"] + self.counts["undetected"]
        return self.counts["undetected"] / bound if bound else 0.0


def efficiency_account(cfg: MZConfig, n_trials: int, seed: int = DEFAULT_SEED) -> EfficiencyLedger:
    """Seeded Monte Carlo ledger of absorbed, detected and missed photons.

    Each trial routes one photon through the interferometer and then rolls
    the detector with the configured efficiency, so the four counts are
    Multinomial(n; p_absorbed, p_bright eta, p_dark eta, (p_bright + p_dark)
    (1 - eta)).  They are drawn exactly, in O(1) time and memory, as three
    chained binomials from one Philox(seed) generator: absorbed ~ Bin(n,
    p_absorbed), clicks among the rest ~ Bin(n - absorbed, eta), and dark
    clicks ~ Bin(clicks, p_dark / (p_bright + p_dark)).  Each probability
    lies in [0, 1] by construction, which a multinomial draw's running
    remainder p_i / (1 - sum p_j) does not guarantee in floating point.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    # Generator.binomial takes n as a C long
    if n_trials > 2**63 - 1:
        raise ValueError(f"n_trials must be at most 2**63 - 1, got {n_trials}")
    probs = mz_probabilities(cfg)
    eta = cfg.efficiency
    bound = probs.bright + probs.dark
    rng = np.random.Generator(np.random.Philox(seed))
    absorbed = rng.binomial(n_trials, probs.absorbed)
    clicks = rng.binomial(n_trials - absorbed, eta)
    dark = rng.binomial(clicks, probs.dark / bound) if bound else 0
    counts = {
        "absorbed": absorbed,
        "detected_bright": clicks - dark,
        "detected_dark": dark,
        "undetected": n_trials - absorbed - clicks,
    }
    expected = {
        "absorbed": probs.absorbed,
        "detected_bright": probs.bright * eta,
        "detected_dark": probs.dark * eta,
        "undetected": bound * (1.0 - eta),
    }
    return EfficiencyLedger(
        n_trials=n_trials,
        seed=seed,
        efficiency=eta,
        expected=expected,
        counts=counts,
    )


def count_deviation(ledger: EfficiencyLedger) -> tuple[float, float, str]:
    """Ledger oracle: worst count z-score over outcomes with positive spread, 4 sigma guard band."""
    worst = 0.0
    for key, prob in ledger.expected.items():
        spread = np.sqrt(ledger.n_trials * prob * (1.0 - prob))
        if spread > 0.0:
            worst = max(worst, abs(ledger.counts[key] - ledger.n_trials * prob) / spread)
    return worst, 4.0, "sigma"

"""Self-contained correctness checks for the whole package.

Every check builds its own inputs, compares against closed forms or
independently derived constants, and returns ``(passed, detail)``.  The
registry at the bottom names, times and budgets the checks; it drives both
the ``qensemble selftest`` subcommand and the test suite, so the two always
agree on what "correct" means.

Checks never print and never read the clock; details are formatted
deterministically so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ensemble, optics, wavepacket
from .ensemble import (
    ParticleModel,
    PotentialSpec,
    Regime,
    allowed_k_range,
    apply_retarding_filter,
    collapse_fraction,
    free_wavefunction,
    potential_wavefunction,
    uncertainty_product,
)
from .numerics import Grid1D, KBall, SingleMode, integrate_ball, integrate_real
from .optics import (
    EraserStage,
    MZConfig,
    efficiency_account,
    em_intensity,
    formalism_agreement,
    horizontal_beam,
    mirror,
    mz_probabilities,
    rotate_polarization,
    split_beam,
)
from .squarewell import (
    WellConfig,
    bound_state_residual,
    density_parity,
    is_bound_state_member,
    member_pairing,
    member_wavefunction,
    normalization_audit,
    pair_member,
    well_ensemble_density,
)
from .wavepacket import (
    DispersionLaw,
    GaussianPacket,
    closed_form_density,
    equilibrium_check,
    intrinsic_force,
    intrinsic_potential,
    propagate,
    quantum_potential,
    truncation_bound,
)

_CHECK_SEED = 20260818


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance or invariant check."""

    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# module invariants


def check_quadrature_rules() -> tuple[bool, str]:
    """Composite quadrature reproduces closed-form integrals on both parities."""
    x_odd = np.linspace(0.0, np.pi, 1001)
    err_odd = abs(integrate_real(np.sin(x_odd), x_odd[1] - x_odd[0]) - 2.0)
    x_even = np.linspace(0.0, np.pi, 1000)
    err_even = abs(integrate_real(np.sin(x_even), x_even[1] - x_even[0]) - 2.0)
    ball = KBall(2.0)
    k = ball.nodes()
    err_ball = abs(integrate_ball(k.astype(np.complex128), ball) - 16.0 * np.pi) / (16.0 * np.pi)
    worst = max(err_odd, err_even, float(err_ball))
    detail = f"odd-grid error {err_odd:.3e}, even-grid error {err_even:.3e}, ball error {float(err_ball):.3e}"
    return worst <= 1e-10, detail


def check_zero_potential_reduction() -> tuple[bool, str]:
    """A vanishing potential reproduces the free construction bit for bit."""
    p = ParticleModel.natural()
    grid = Grid1D(0.0, 8.0, 161)
    free = free_wavefunction(p, grid)
    gated = potential_wavefunction(p, PotentialSpec.constant(0.0), grid)
    same = bool(np.array_equal(free.values, gated.values))
    detail = "identical arrays" if same else "arrays differ"
    return same, detail


def check_decaying_tail_shape() -> tuple[bool, str]:
    """Above-barrier construction yields a real, positive, decreasing tail."""
    p = ParticleModel.natural()
    kr = allowed_k_range(p, 3.0)
    grid = Grid1D(0.1, 4.0, 101)
    psi = potential_wavefunction(p, PotentialSpec.constant(3.0), grid)
    vals = psi.values
    imag_max = float(np.abs(vals.imag).max())
    real = vals.real
    positive = bool(np.all(real > 0.0))
    decreasing = bool(np.all(np.diff(real) < 0.0))
    ok = kr.regime is Regime.DECAYING and imag_max <= 1e-12 and positive and decreasing
    detail = (
        f"regime {kr.regime.name.lower()}, max imaginary part {imag_max:.3e}, "
        f"positive {positive}, decreasing {decreasing}"
    )
    return ok, detail


def check_filter_edge_cases() -> tuple[bool, str]:
    """Threshold zero passes everything; threshold above budget blocks all."""
    p = ParticleModel.natural()
    open_gate = apply_retarding_filter(p, 0.0)
    identity = (
        open_gate.after.k_lo == open_gate.before.k_lo
        and open_gate.after.k_hi == open_gate.before.k_hi
        and not open_gate.fully_blocked
    )
    closed_gate = apply_retarding_filter(p, 2.0 * p.total_energy)
    blocked = closed_gate.fully_blocked and closed_gate.after.is_empty
    frac_blocked = collapse_fraction(p, closed_gate)
    ok = identity and blocked and frac_blocked == 0.0
    detail = (
        f"zero threshold passes all {identity}, over-budget blocks all {blocked}, "
        f"blocked fraction {frac_blocked:.3e}"
    )
    return ok, detail


def check_bound_state_normalization() -> tuple[bool, str]:
    """Member norm equals the mass exactly on the even bound-state condition."""
    cfg = WellConfig(ParticleModel.natural(total_energy=1.5), v0=4.0, x0=1.0)
    lo, hi = 1.0, 1.2
    f_lo = bound_state_residual(cfg, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = bound_state_residual(cfg, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    k1 = 0.5 * (lo + hi)
    member = pair_member(cfg, k1)
    on_ratio = normalization_audit(member, cfg).ratio
    off_ratio = normalization_audit(pair_member(cfg, 0.5), cfg).ratio
    ok = (
        is_bound_state_member(cfg, k1)
        and abs(on_ratio - 1.0) <= 1e-6
        and abs(off_ratio - 1.0) > 1e-2
    )
    detail = (
        f"bound member ratio deviates {abs(on_ratio - 1.0):.3e}, "
        f"generic member ratio {off_ratio:.3f}"
    )
    return ok, detail


def check_packet_norm_transport() -> tuple[bool, str]:
    """Propagation conserves the norm and moves the centroid ballistically."""
    packet = GaussianPacket(b=1.0, k0=5.0)
    law = DispersionLaw()
    grid = Grid1D(-30.0, 50.0, 4001)
    x = grid.points()
    dens0 = propagate(packet, 0.0, grid, law).density()
    dens2 = propagate(packet, 2.0, grid, law).density()
    norm0 = integrate_real(dens0, grid.spacing)
    norm2 = integrate_real(dens2, grid.spacing)
    drift = abs(norm2 / norm0 - 1.0)
    centroid = integrate_real(x * dens2, grid.spacing) / norm2
    target = law.hbar * packet.k0 * 2.0 / law.mass
    transport = abs(centroid - target) / abs(target)
    leak = truncation_bound(packet)
    ok = drift <= 1e-6 and transport <= 1e-6 and leak <= 1e-14
    detail = (
        f"norm drift {drift:.3e}, centroid error {transport:.3e}, "
        f"spectral truncation bound {leak:.3e}"
    )
    return ok, detail


def check_quantum_potential_mask() -> tuple[bool, str]:
    """Curvature ratio matches closed forms and masks envelope zeros."""
    grid = Grid1D(-2.0, 2.0, 401)
    x = grid.points()
    res = quantum_potential(x * x - 1.0, grid.spacing)
    masked_count = int(np.count_nonzero(res.masked))
    nan_on_mask = bool(np.all(np.isnan(res.values[res.masked])))
    with np.errstate(divide="ignore"):
        expected = 2.0 / (x * x - 1.0)
    keep = ~res.masked
    err_quad = float(np.abs((res.values[keep] - expected[keep]) / expected[keep]).max())
    gauss_grid = Grid1D(-1.0, 1.0, 801)
    gx = gauss_grid.points()
    gauss = quantum_potential(np.exp(-gx * gx / 2.0), gauss_grid.spacing)
    mid = gx.size // 2
    err_gauss = abs(gauss.values[mid] + 1.0)
    ok = masked_count == 2 and nan_on_mask and err_quad <= 1e-6 and err_gauss <= 1e-3
    detail = (
        f"masked nodes {masked_count}, rational error {err_quad:.3e}, "
        f"center curvature error {err_gauss:.3e}"
    )
    return ok, detail


def check_beam_energy_accounting() -> tuple[bool, str]:
    """Splitting, mirroring and rotating beams conserve energy and geometry."""
    beam = horizontal_beam()
    one, two = split_beam(beam)
    split_err = abs(em_intensity(one) + em_intensity(two) - em_intensity(beam))
    rot = rotate_polarization(one)
    cross = abs(float(np.dot(rot.e_dir, one.e_dir)))
    rot_err = abs(em_intensity(rot) - em_intensity(one))
    mir = mirror(one, [1.0, 0.0, 0.0])
    mir_err = abs(em_intensity(mir) - em_intensity(one))
    phase_spread = np.ptp(
        [em_intensity([rot, two.with_phase(p)]) for p in (0.0, 1.0, 2.5)]
    )
    worst = max(split_err, cross, rot_err, mir_err, float(phase_spread))
    detail = (
        f"split defect {split_err:.3e}, rotated overlap {cross:.3e}, "
        f"orthogonal phase spread {float(phase_spread):.3e}"
    )
    return worst <= 1e-12, detail


def check_monte_carlo_determinism() -> tuple[bool, str]:
    """Identical seeds reproduce the ledger; the counts partition the trials."""
    cfg = MZConfig(bomb_present=True)
    first = efficiency_account(cfg, 20000, seed=_CHECK_SEED)
    second = efficiency_account(cfg, 20000, seed=_CHECK_SEED)
    same = first.counts == second.counts
    total = sum(first.counts.values()) == first.n_trials
    ok = same and total
    detail = f"repeatable {same}, counts partition trials {total}"
    return ok, detail


# ---------------------------------------------------------------------------
# acceptance criteria


def check_parseval_identity() -> tuple[bool, str]:
    """Quadrature norm of a flat ensemble equals (4 pi m / 3) k^3."""
    cases = [(ParticleModel(mass=mass), k) for mass in (1.0, 2.0) for k in (0.1, 1.0, 10.0)]
    worst, tol, _ = max(ensemble.flat_norm_deviation(p, k) for p, k in cases)
    return worst <= tol, f"max relative error {worst:.3e} (tolerance {tol:.0e})"


def check_range_monotonicity() -> tuple[bool, str]:
    """Allowed range shrinks as the potential rises, with exact endpoints."""
    p = ParticleModel.natural()
    targets = ((-3.0, 2.0), (0.0, 1.0), (0.5, math.sqrt(0.5)))
    worst = 0.0
    highs = []
    for v, expected in targets:
        kr = allowed_k_range(p, v)
        worst = max(worst, abs(kr.k_hi - expected), abs(kr.k_lo))
        highs.append(kr.k_hi)
        if kr.regime is not Regime.OSCILLATORY:
            worst = max(worst, 1.0)
    ordered = highs[0] > highs[1] > highs[2]
    detail = f"max endpoint error {worst:.3e}, strict ordering {ordered}"
    return worst <= 1e-12 and ordered, detail


def check_single_mode_constancy() -> tuple[bool, str]:
    """A single mode keeps unit density at every node and every time."""
    mode = SingleMode(k0=5.0)
    grid = Grid1D(-20.0, 20.0, 801)
    worst = 0.0
    for t in (0.0, 1.0, 5.0):
        dens = propagate(mode, t, grid).density()
        worst = max(worst, float(np.abs(dens - 1.0).max()))
    detail = f"max density deviation from 1 is {worst:.3e}"
    return worst <= 1e-14, detail


def check_gaussian_spreading() -> tuple[bool, str]:
    """Numerical propagation matches the standard dispersion closed form.

    The model's own closed form, which squares the broadening factor, is
    evaluated on the same windows and its deviation reported without being
    asserted equal.
    """
    packet = GaussianPacket(b=1.0, k0=5.0)
    law = DispersionLaw()
    runs = []
    worst_model = 0.0
    for t in (0.5, 1.0, 2.0):
        tau = law.hbar * t / (law.mass * packet.b**2)
        sigma = packet.b * math.sqrt((1.0 + tau * tau) / 2.0)
        center = law.hbar * packet.k0 * t / law.mass
        grid = Grid1D(center - 4.0 * sigma, center + 4.0 * sigma, 801)
        num = propagate(packet, t, grid, law).density()
        runs.append((t, grid.points(), num))
        alt = closed_form_density(packet, grid.points(), t, law, mode="model")
        worst_model = max(worst_model, float(np.abs(alt - num).max() / num.max()))
    worst, tol, _ = wavepacket.spreading_deviation(packet, runs, law)
    detail = (
        f"max relative deviation {worst:.3e} (tolerance {tol:.0e}); "
        f"alternate closed form deviates up to {worst_model:.3e} of peak "
        f"(reported, not asserted)"
    )
    return worst <= tol, detail


def check_force_consistency() -> tuple[bool, str]:
    """Analytic envelope force matches the differenced potential gradient."""
    p = ParticleModel.natural()
    b = 1.0
    grid = Grid1D(-0.1, 0.1, 2001)
    x = grid.points()
    amplitude = np.exp(-x * x / (2.0 * b * b)).astype(np.complex128)
    phi = intrinsic_potential(amplitude, p, 1.0)
    downhill = -np.gradient(phi, grid.spacing)
    analytic = (2.0 * x / b**2) * np.exp(-x * x / b**2)
    err_grad = float(np.abs(downhill - analytic)[1:-1].max())
    direct = intrinsic_force(amplitude, p, 1.0, grid.spacing)
    err_direct = float(np.abs(direct - analytic)[1:-1].max())
    worst = max(err_grad, err_direct)
    detail = (
        f"gradient route error {err_grad:.3e}, product route error {err_direct:.3e} "
        f"(tolerance 1e-08, interior nodes)"
    )
    return worst <= 1e-8, detail


def check_equilibrium_condition() -> tuple[bool, str]:
    """Constant envelopes feel no force; a Gaussian envelope does."""
    grid = Grid1D(-8.0, 8.0, 3201)
    x = grid.points()
    flat = equilibrium_check(np.full(x.size, 0.7 + 0.0j), grid.spacing)
    gauss = equilibrium_check(np.exp(-x * x / 2.0).astype(np.complex128), grid.spacing)
    analytic_peak = math.sqrt(2.0) * math.exp(-0.5)
    pinned = abs(gauss - analytic_peak) <= 1e-3
    ok = flat == 0.0 and gauss > 0.1 and pinned
    detail = (
        f"constant residual {flat:.3e}, gaussian residual "
        f"{gauss:.6f} vs analytic peak {analytic_peak:.6f}"
    )
    return ok, detail


def check_collapse_fraction() -> tuple[bool, str]:
    """Filtering at half the top wavenumber keeps 7/8 of the shell density."""
    p = ParticleModel.natural()
    filtered = apply_retarding_filter(p, 0.25)
    half_err = abs(filtered.after.k_lo - 0.5 * filtered.before.k_hi)
    frac = collapse_fraction(p, filtered)
    frac_err = abs(frac - 7.0 / 8.0)
    rng = np.random.Generator(np.random.Philox(_CHECK_SEED))
    nested = True
    for e_rfa in rng.uniform(0.0, 1.5 * p.total_energy, 100):
        out = apply_retarding_filter(p, float(e_rfa))
        if out.fully_blocked:
            nested &= out.after.is_empty
        else:
            nested &= out.before.contains(out.after)
    ok = half_err <= 1e-12 and frac_err <= 1e-10 and nested
    detail = (
        f"fraction error {frac_err:.3e} (tolerance 1e-10), half-cut error "
        f"{half_err:.3e}, nesting holds {nested}"
    )
    return ok, detail


def check_square_well_structure() -> tuple[bool, str]:
    """Member pairing, wall continuity, parity and normalization all hold."""
    cfg = WellConfig(ParticleModel.natural(), v0=4.0, x0=1.0)
    rng = np.random.Generator(np.random.Philox(_CHECK_SEED))
    members = pair_member(cfg, rng.uniform(0.0, cfg.k0, 1000))
    pair_err, pair_tol, _ = member_pairing(cfg, members)
    edges = np.array([-cfg.x0, cfg.x0])
    outer_vals = members.chi0[:, None] * np.exp(-members.k2[:, None] * np.abs(edges))
    walls_exact = bool(np.array_equal(member_wavefunction(members, cfg, edges), outer_vals))
    grid = Grid1D(-8.0, 8.0, 1601)
    profile = well_ensemble_density(cfg, grid)
    even_err, even_tol, _ = density_parity(cfg, profile)
    norm_err = abs(integrate_real(profile.values, grid.spacing) - 1.0)
    ok = pair_err <= pair_tol and walls_exact and even_err <= even_tol and norm_err <= 1e-8
    detail = (
        f"pairing error {pair_err:.3e}, walls bitwise continuous {walls_exact}, "
        f"parity error {even_err:.3e}, norm error {norm_err:.3e}, "
        f"excluded wavenumber measure {profile.excluded_k_measure:.3e}"
    )
    return ok, detail


def check_eraser_visibilities() -> tuple[bool, str]:
    """Marking kills the fringes, erasing revives them, both routes agree."""
    report = formalism_agreement(64)
    vis_err, vis_tol, _ = optics.visibility_targets(report)
    route_dev, route_tol, _ = optics.route_proportionality(report)
    base_peak = float(np.max(report.field_curves[EraserStage.BASELINE.value]))
    diag_peak = float(np.max(report.field_curves[EraserStage.ROTATOR_DIAGONAL.value]))
    peak_err = abs(diag_peak - 0.5 * base_peak)
    ok = vis_err <= vis_tol and peak_err <= 1e-12 and route_dev <= route_tol
    detail = (
        f"visibility error {vis_err:.3e}, erased peak vs half baseline "
        f"{peak_err:.3e}, route proportionality deviation "
        f"{route_dev:.3e} at constant {report.constant:.6f}"
    )
    return ok, detail


def check_interaction_free_statistics() -> tuple[bool, str]:
    """Dark port silent without the absorber, exact split with it, MC agrees."""
    dark_max = max(
        mz_probabilities(MZConfig(bomb_present=False, reflectivity=float(r))).dark
        for r in np.linspace(0.0, 1.0, 21)
    )
    balanced = mz_probabilities(MZConfig(bomb_present=True))
    exact = balanced.absorbed == 0.5 and balanced.bright == 0.25 and balanced.dark == 0.25
    ledger = efficiency_account(MZConfig(bomb_present=True), 100000)
    share_err = abs(ledger.expected_undetected_bound_share - 0.98)
    worst_z = optics.count_deviation(ledger)[0]
    ok = dark_max <= 1e-12 and exact and share_err <= 1e-12 and worst_z <= 3.0
    detail = (
        f"max dark-port leak {dark_max:.3e}, balanced split exact {exact}, "
        f"undetected share error {share_err:.3e}, worst count deviation "
        f"{worst_z:.2f} sigma"
    )
    return ok, detail


def check_uncertainty_floor() -> tuple[bool, str]:
    """A Gaussian spectrum saturates the floor; random spectra sit above it."""
    gaussian = uncertainty_product(lambda k: np.exp(-k * k / 2.0), (-20.0, 20.0))
    gauss_err = abs(gaussian - 0.5)
    rng = np.random.Generator(np.random.Philox(777))
    lowest = math.inf
    for _ in range(20):
        n_comp = int(rng.integers(1, 4))
        centers = rng.uniform(-5.0, 5.0, n_comp)
        widths = rng.uniform(0.6, 2.0, n_comp)
        coeffs = rng.normal(size=n_comp) + 1j * rng.normal(size=n_comp)

        def spectrum(k, centers=centers, widths=widths, coeffs=coeffs):
            out = np.zeros_like(k, dtype=np.complex128)
            for mu, s, c in zip(centers, widths, coeffs):
                out += c * np.exp(-((k - mu) ** 2) / (2.0 * s * s))
            return out

        lowest = min(lowest, uncertainty_product(spectrum, (-20.0, 20.0), n_k=1601, n_x=3001))
    ok = gauss_err <= 1e-3 and lowest >= 0.5 - 1e-6
    detail = (
        f"gaussian product deviates {gauss_err:.3e} from 0.5, "
        f"lowest of 20 random spectra {lowest:.9f}"
    )
    return ok, detail


INVARIANT_CHECKS: tuple[Callable[[], tuple[bool, str]], ...] = (
    check_quadrature_rules,
    check_zero_potential_reduction,
    check_decaying_tail_shape,
    check_filter_edge_cases,
    check_bound_state_normalization,
    check_packet_norm_transport,
    check_quantum_potential_mask,
    check_beam_energy_accounting,
    check_monte_carlo_determinism,
)

CRITERION_CHECKS: tuple[Callable[[], tuple[bool, str]], ...] = (
    check_parseval_identity,
    check_range_monotonicity,
    check_single_mode_constancy,
    check_gaussian_spreading,
    check_force_consistency,
    check_equilibrium_condition,
    check_collapse_fraction,
    check_square_well_structure,
    check_eraser_visibilities,
    check_interaction_free_statistics,
    check_uncertainty_floor,
)

ALL_CHECKS = INVARIANT_CHECKS + CRITERION_CHECKS

# Runtime budgets in seconds; a check that takes its budget or longer fails.
BUDGETS = {"parseval_identity": 1.0, "gaussian_spreading": 10.0, "interaction_free_statistics": 5.0}


def run_checks(names=None) -> list[CheckResult]:
    """Run the named checks (all of them by default) and collect results.

    A check is named by its function name without ``check_``.  Each call
    is timed here, and a check at or over its entry in BUDGETS fails.  A
    check that raises is reported as failed rather than aborting the
    sweep, so one broken area cannot hide the status of the others.
    """
    table = {check.__name__.removeprefix("check_"): check for check in ALL_CHECKS}
    selected = list(table) if names is None else list(names)
    results: list[CheckResult] = []
    for name in selected:
        if name not in table:
            raise KeyError(f"unknown check: {name}")
        start = time.perf_counter()
        try:
            passed, detail = table[name]()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        budget = BUDGETS.get(name, math.inf)
        if seconds >= budget:
            passed, detail = False, f"{detail}; runtime budget of {budget:g} s exceeded"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail, seconds=seconds))
    return results

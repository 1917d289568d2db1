"""Command-line scenario runner.

Each subcommand builds one figure-ready table (CSV or JSON), prints a run
report to stdout, and cross-checks its own output against closed forms.
Exit codes: 0 on success, 1 for validation problems, 2 when an oracle
comparison fails (the report still carries the offending deltas).

Output files are deterministic for a fixed configuration and seed: floats
are printed with 17 significant digits, rows in a fixed order, and the
Monte Carlo scenario draws from a counter-based generator.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .acceptance import run_checks
from .ensemble import (
    KineticConvention,
    ParticleModel,
    PotentialSpec,
    Regime,
    allowed_k_range,
    apply_retarding_filter,
    collapse_fraction,
    member_amplitude,
    parseval_norm,
    potential_wavefunction,
)
from .numerics import Grid1D, KBall, SingleMode, integrate_real, superpose_field
from .optics import (
    DEFAULT_SEED,
    MZConfig,
    efficiency_account,
    formalism_agreement,
    mz_probabilities,
    visibility,
)
from .squarewell import ResonantMemberError, WellConfig, pair_member, well_ensemble_density
from .wavepacket import (
    DispersionLaw,
    GaussianPacket,
    closed_form_density,
    propagate,
    truncation_bound,
)


# ---------------------------------------------------------------------------
# parameter plumbing


@dataclass(frozen=True)
class ParamSpec:
    """One scenario parameter: type, default, unit tag and help text."""

    kind: str
    default: object
    unit: str
    help: str
    choices: tuple = ()


@dataclass
class ScenarioResult:
    """Everything a runner hands back to the writer and reporter."""

    geometry: str
    columns: list = field(default_factory=list)  # (name, unit, values)
    outputs: dict = field(default_factory=dict)
    oracle_deltas: dict = field(default_factory=dict)  # name -> (value, tol, unit)
    notes: list = field(default_factory=list)


SCENARIO_PARAMS: dict[str, dict[str, ParamSpec]] = {
    "ensemble": {
        "potentials": ParamSpec("floats", [-3.0, 0.0, 0.5], "energy", "constant potential values"),
        "e_total": ParamSpec("float", 1.0, "energy", "total particle energy"),
        "r_min": ParamSpec("float", 0.0, "length", "first radial node"),
        "r_max": ParamSpec("float", 8.0, "length", "last radial node"),
        "n_r": ParamSpec("int", 161, "count", "radial nodes"),
        "n_k": ParamSpec("int", 801, "count", "spectral quadrature nodes"),
        "convention": ParamSpec("choice", "single", "label", "kinetic-energy coefficient", ("single", "double")),
    },
    "spread": {
        "packet": ParamSpec("choice", "both", "label", "initial packet kind", ("gaussian", "single_mode", "both")),
        "b": ParamSpec("float", 1.0, "length", "gaussian width parameter"),
        "k0": ParamSpec("float", 5.0, "1/length", "carrier wavenumber"),
        "times": ParamSpec("floats", [0.0, 0.5, 1.0, 2.0], "time", "evolution times"),
        "x_min": ParamSpec("float", -10.0, "length", "first grid node"),
        "x_max": ParamSpec("float", 25.0, "length", "last grid node"),
        "n_x": ParamSpec("int", 1201, "count", "grid nodes"),
        "n_k": ParamSpec("int", 0, "count", "spectral nodes (0 = automatic)"),
    },
    "collapse": {
        "e_rfa": ParamSpec("float", 0.25, "energy", "filter threshold energy"),
        "e_total": ParamSpec("float", 1.0, "energy", "total particle energy"),
        "r_min": ParamSpec("float", 0.0, "length", "first radial node"),
        "r_max": ParamSpec("float", 6.0, "length", "last radial node"),
        "n_r": ParamSpec("int", 121, "count", "radial nodes"),
        "n_k": ParamSpec("int", 2001, "count", "spectral quadrature nodes"),
        "convention": ParamSpec("choice", "double", "label", "kinetic-energy coefficient", ("single", "double")),
    },
    "well": {
        "v0": ParamSpec("float", 4.0, "energy", "well depth"),
        "x0": ParamSpec("float", 1.0, "length", "well half-width"),
        "e_total": ParamSpec("float", 1.0, "energy", "total particle energy"),
        "x_min": ParamSpec("float", -8.0, "length", "first grid node"),
        "x_max": ParamSpec("float", 8.0, "length", "last grid node"),
        "n_x": ParamSpec("int", 1601, "count", "grid nodes"),
        "n_k": ParamSpec("int", 2001, "count", "member quadrature nodes"),
        "resonance_tol": ParamSpec("float", 1e-6, "dimensionless", "interior-cosine exclusion threshold"),
    },
    "eraser": {
        "n_phases": ParamSpec("int", 64, "count", "phase sweep points"),
        "e_amp": ParamSpec("float", 1.0, "field", "electric amplitude"),
        "b_amp": ParamSpec("float", 1.0, "field", "magnetic amplitude"),
        "c": ParamSpec("float", 1.0, "length/time", "wave speed"),
    },
    "bomb": {
        "bomb_present": ParamSpec("bool", True, "flag", "absorber in the reflected arm"),
        "reflectivity": ParamSpec("float", 0.5, "probability", "splitter reflectivity"),
        "efficiency": ParamSpec("float", 0.02, "probability", "detector efficiency"),
        "n_trials": ParamSpec("int", 100000, "count", "Monte Carlo trials"),
    },
}

_CONVENTIONS = {"single": KineticConvention.SINGLE, "double": KineticConvention.DOUBLE}


class _CliError(Exception):
    """Validation problem; maps to exit code 1."""


def _coerce(scenario: str, key: str, raw: str):
    spec = SCENARIO_PARAMS[scenario].get(key)
    if spec is None:
        allowed = ", ".join(sorted(SCENARIO_PARAMS[scenario]))
        raise _CliError(f"unknown parameter '{key}' for scenario '{scenario}' (allowed: {allowed})")
    try:
        if spec.kind == "float":
            return _finite(key, raw, float(raw))
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "floats":
            return _finite(key, raw, [float(tok) for tok in raw.split(",") if tok.strip() != ""])
        if spec.kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if spec.kind == "choice":
            if raw not in spec.choices:
                raise ValueError(raw)
            return raw
    except ValueError as exc:
        raise _CliError(f"parameter '{key}' rejects value '{raw}' ({spec.kind})") from exc
    raise _CliError(f"parameter '{key}' has unhandled kind '{spec.kind}'")


def _finite(key: str, raw: str, value):
    """`value` unless it holds a nan or an infinity, which no float parameter takes."""
    if not np.isfinite(value).all():
        raise _CliError(f"parameter '{key}' rejects value '{raw}': {key} must be finite")
    return value


def _read_config(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise _CliError(f"{path}:{lineno}: expected key=value, got '{stripped}'")
                key, value = stripped.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise _CliError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _gather_params(scenario: str, config_path: str | None, overrides: list[str]) -> dict:
    params = {key: spec.default for key, spec in SCENARIO_PARAMS[scenario].items()}
    raw: dict[str, str] = {}
    if config_path is not None:
        raw.update(_read_config(config_path))
    for item in overrides:
        if "=" not in item:
            raise _CliError(f"--set expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    for key, value in raw.items():
        params[key] = _coerce(scenario, key, value)
    return params


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(value: float) -> str:
    if not np.isfinite(value):
        raise _CliError(f"refusing to serialize non-finite value {value}")
    return f"{float(value):.17g}"


class _Verbatim(str):
    """Text already rendered as a JSON fragment at its place in the document."""


def _json_fragment(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, _Verbatim):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_fragment(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        inner = ",\n".join(f"{pad}  {_json_fragment(v, indent + 1)}" for v in seq)
        return "[\n" + inner + "\n" + pad + "]"
    raise _CliError(f"cannot serialize {type(obj).__name__} to JSON")


def _dump_json(obj) -> str:
    return _json_fragment(obj, 0) + "\n"


# the fields csv.writer quotes under QUOTE_MINIMAL with lineterminator "\n";
# Python 3.13 added "\r" to them
_CSV_QUOTED = re.compile('[,"\n\r]' if sys.version_info >= (3, 13) else '[,"\n]')


def _csv_field(text: str, alone: bool = False) -> str:
    """`text` as csv.writer writes it; a row of one empty field is written as ""."""
    if _CSV_QUOTED.search(text) or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_cells(name: str, values, quote: Callable[[str], str]):
    """One column's printf conversion and the cells it formats, strings already quoted."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            bad = arr[~np.isfinite(arr)][0]
            raise _CliError(f"refusing to serialize non-finite value {bad} in column '{name}'")
        return "%.17g", arr
    if arr.dtype.kind in "iu":
        return "%d", arr
    if arr.dtype.kind == "U":
        # the given strings, not the array's, which drop trailing NULs
        return "%s", list(map(quote, values))
    raise _CliError(f"cannot serialize column '{name}' of dtype {arr.dtype}")


def _render_table(fmt: str, result: ScenarioResult, scenario: str, params: dict) -> str:
    names = [name for name, _, _ in result.columns]
    units = [unit for _, unit, _ in result.columns]
    length = len(result.columns[0][2])
    for name, _, values in result.columns:
        if len(values) != length:
            raise _CliError(f"column '{name}' length differs from the first column")
    quote = json.dumps if fmt == "json" else functools.partial(_csv_field, alone=len(names) == 1)
    # one conversion per column; the cells interleaved row-major fill the whole-table template
    specs = []
    table = np.empty((length, len(names)), dtype=object)
    for j, (name, _, values) in enumerate(result.columns):
        spec, table[:, j] = _column_cells(name, values, quote)
        specs.append(spec)
    cells = tuple(table.ravel().tolist())
    if fmt == "csv":
        header = ",".join(_csv_field(f"{n} ({u})") for n, u in zip(names, units)) + "\n"
        return header + (",".join(specs) + "\n") * length % cells
    # each row is a list at indent 2 inside "rows" at indent 1, as _json_fragment lays it out
    row = "[\n      " + ",\n      ".join(specs) + "\n    ]"
    rows = "[\n    " + ",\n    ".join([row] * length) % cells + "\n  ]" if length else "[]"
    payload = {
        "schema_version": 1,
        "scenario": scenario,
        "params": params,
        "columns": [{"name": n, "unit": u} for n, u in zip(names, units)],
        "rows": _Verbatim(rows),
    }
    return _dump_json(payload)


def _write_table(path: str, fmt: str, result: ScenarioResult, scenario: str, params: dict) -> None:
    # rendered in full first, so a value that cannot be written leaves no file
    text = _render_table(fmt, result, scenario, params)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _q(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# scenario runners


def _run_ensemble(params: dict, seed: int) -> ScenarioResult:
    p = ParticleModel(total_energy=params["e_total"])
    convention = _CONVENTIONS[params["convention"]]
    grid = Grid1D(params["r_min"], params["r_max"], params["n_r"])
    res = ScenarioResult(geometry="3d_radial")
    res.columns.append(("r", "length", grid.points()))
    res.notes.append("densities are unnormalized equal-weight member superpositions in natural units")
    closed_origin = (2.0 * np.pi) ** -1.5 * (4.0 * np.pi / 3.0) * np.sqrt(p.mass)
    origin_included = params["r_min"] == 0.0
    for v in params["potentials"]:
        kr = allowed_k_range(p, v, convention)
        tag = f"v={v:g}"
        psi = potential_wavefunction(p, PotentialSpec.constant(v), grid, n_k=params["n_k"], convention=convention)
        res.columns.append((f"rho[{tag}]", "1/length^3", psi.density()))
        res.outputs[f"k_hi[{tag}]"] = _q(kr.k_hi, "1/length")
        res.outputs[f"regime[{tag}]"] = kr.regime.name.lower()
        if kr.is_empty:
            res.notes.append(f"potential {v:g} exhausts the energy budget; the member range is empty")
        elif origin_included:
            measured = abs(psi.values[0])
            expected = closed_origin * kr.k_hi**3
            res.oracle_deltas[f"origin_amplitude[{tag}]"] = (
                abs(measured - expected) / expected,
                1e-8,
                "relative",
            )
    free_hi = allowed_k_range(p, 0.0, convention).k_hi
    norm_expected = 4.0 * np.pi * p.mass * free_hi**3 / 3.0
    res.oracle_deltas["flat_spectral_norm"] = (
        abs(parseval_norm(p, free_hi) - norm_expected) / norm_expected,
        1e-8,
        "relative",
    )
    if not origin_included:
        res.notes.append("origin oracle skipped: grid does not include r = 0")
    return res


def _run_spread(params: dict, seed: int) -> ScenarioResult:
    law = DispersionLaw()
    grid = Grid1D(params["x_min"], params["x_max"], params["n_x"])
    x = grid.points()
    times = params["times"]
    if params["n_k"] < 0:
        raise _CliError(f"parameter 'n_k' must be 0 (automatic) or a node count, got {params['n_k']}")
    n_k = params["n_k"] or None
    res = ScenarioResult(geometry="1d_line")
    res.columns.append(("x", "length", x))
    kinds = ("gaussian", "single_mode") if params["packet"] == "both" else (params["packet"],)
    if "gaussian" in kinds:
        packet = GaussianPacket(b=params["b"], k0=params["k0"])
        worst = 0.0
        for t in times:
            dens = propagate(packet, t, grid, law, n_k=n_k).density()
            res.columns.append((f"density_gaussian[t={t:g}]", "1/length", dens))
            # the symmetric Fourier normalization puts 1/b^2 on the unit-peak form
            ref = closed_form_density(packet, x, t, law, mode="textbook") / packet.b**2
            mask = ref >= 1e-8 * float(ref.max())
            worst = max(worst, float(np.abs((dens[mask] - ref[mask]) / ref[mask]).max()))
        res.oracle_deltas["gaussian_vs_closed_form"] = (worst, 1e-4, "relative")
        res.outputs["truncation_bound"] = _q(truncation_bound(packet), "dimensionless")
        res.notes.append("gaussian oracle compares nodes above 1e-8 of the peak closed-form density")
    if "single_mode" in kinds:
        mode = SingleMode(k0=params["k0"])
        worst = 0.0
        for t in times:
            dens = propagate(mode, t, grid, law).density()
            worst = max(worst, float(np.abs(dens - 1.0).max()))
            res.columns.append((f"density_single_mode[t={t:g}]", "1/length", np.ones(x.size)))
        res.oracle_deltas["single_mode_unit_density"] = (worst, 1e-12, "absolute")
        res.notes.append(
            "single-mode columns carry the exact unit density; the propagated field is compared "
            "against it in the oracle delta"
        )
    res.outputs["group_velocity"] = _q(float(law.group_velocity(params["k0"])), "length/time")
    return res


def _run_collapse(params: dict, seed: int) -> ScenarioResult:
    p = ParticleModel(total_energy=params["e_total"])
    convention = _CONVENTIONS[params["convention"]]
    filtered = apply_retarding_filter(p, params["e_rfa"], convention)
    grid = Grid1D(params["r_min"], params["r_max"], params["n_r"])
    n_k = params["n_k"]
    res = ScenarioResult(geometry="3d_radial")

    def flat_field(k_hi: float) -> np.ndarray:
        if k_hi <= 0.0:
            return np.zeros(grid.points().size, dtype=np.complex128)
        amp = member_amplitude(p, allowed_k_range(p, 0.0, convention))
        return superpose_field(amp, KBall(k_hi, n_k), grid, dimension=3).values

    # the surviving band [k1, k0] is the full ball minus the blocked core,
    # which keeps both quadratures free of indicator discontinuities
    before_vals = flat_field(filtered.before.k_hi)
    after_vals = (
        np.zeros_like(before_vals)
        if filtered.fully_blocked
        else before_vals - flat_field(filtered.after.k_lo)
    )
    res.columns.append(("r", "length", grid.points()))
    res.columns.append(("rho_before", "1/length^3", np.abs(before_vals) ** 2))
    res.columns.append(("rho_after", "1/length^3", np.abs(after_vals) ** 2))
    fraction = collapse_fraction(p, filtered, n_k=n_k)
    res.outputs["k_hi_before"] = _q(filtered.before.k_hi, "1/length")
    res.outputs["k_lo_after"] = _q(filtered.after.k_lo, "1/length")
    res.outputs["k_hi_after"] = _q(filtered.after.k_hi, "1/length")
    res.outputs["surviving_fraction"] = _q(fraction, "dimensionless")
    res.outputs["fully_blocked"] = filtered.fully_blocked
    if filtered.fully_blocked:
        closed = 0.0
        res.notes.append("threshold exceeds the energy budget; every member is blocked")
    else:
        closed = (filtered.after.k_hi**3 - filtered.after.k_lo**3) / filtered.before.k_hi**3
    res.oracle_deltas["fraction_vs_shell_ratio"] = (abs(fraction - closed), 1e-10, "absolute")
    return res


def _run_well(params: dict, seed: int) -> ScenarioResult:
    cfg = WellConfig(
        ParticleModel(total_energy=params["e_total"]),
        v0=params["v0"],
        x0=params["x0"],
    )
    grid = Grid1D(params["x_min"], params["x_max"], params["n_x"])
    profile = well_ensemble_density(cfg, grid, n_k=params["n_k"], resonance_tol=params["resonance_tol"])
    res = ScenarioResult(geometry="1d_line")
    res.columns.append(("x", "length", grid.points()))
    res.columns.append(("rho", "1/length", profile.values))
    res.outputs["pair_constant"] = _q(cfg.pair_constant, "1/length^2")
    res.outputs["k0_inner"] = _q(cfg.k0, "1/length")
    res.outputs["k0_outer"] = _q(cfg.k0_prime, "1/length")
    res.outputs["norm_constant"] = _q(profile.norm_constant, "dimensionless")
    res.outputs["excluded_k_measure"] = _q(profile.excluded_k_measure, "1/length")
    res.outputs["excluded_node_count"] = _q(profile.excluded_node_count, "count")
    pair_err = 0.0
    skipped = 0
    for k1 in np.linspace(0.0, cfg.k0, 102)[1:-1]:
        try:
            member = pair_member(cfg, float(k1), resonance_tol=params["resonance_tol"])
        except ResonantMemberError:
            skipped += 1
            continue
        pair_err = max(pair_err, abs(member.k1**2 + member.k2**2 - cfg.pair_constant))
    # k2 = sqrt(P - k1^2) and the sum k1^2 + k2^2 round to within 2.5 eps P of P
    pair_tol = max(1e-12, 3.0 * np.finfo(float).eps * cfg.pair_constant)
    res.oracle_deltas["member_pairing"] = (pair_err, pair_tol, "absolute")
    res.oracle_deltas["density_parity"] = (
        float(np.abs(profile.values - profile.values[::-1]).max()),
        1e-10,
        "absolute",
    )
    res.oracle_deltas["density_norm"] = (
        abs(integrate_real(profile.values, grid.spacing) - 1.0),
        1e-8,
        "absolute",
    )
    if skipped:
        res.notes.append(f"{skipped} oracle sample(s) sat on an interior-cosine zero and were skipped")
    res.notes.append("density is renormalized on the output grid; norm_constant records the raw integral")
    return res


def _run_eraser(params: dict, seed: int) -> ScenarioResult:
    report = formalism_agreement(
        n_phases=params["n_phases"],
        e_amp=params["e_amp"],
        b_amp=params["b_amp"],
        c=params["c"],
    )
    res = ScenarioResult(geometry="polarization_optics")
    res.columns.append(("phase", "radian", report.phases))
    vis_err = 0.0
    # the sweep reaches phase pi, where 1 + cos vanishes, only for even n_phases
    fringe = visibility(1.0 + np.cos(report.phases))
    targets = {"baseline": fringe, "rotator_in_path1": 0.0, "rotator_plus_diagonal": fringe}
    for stage, target in targets.items():
        res.columns.append((f"intensity_fields[{stage}]", "intensity", report.field_curves[stage]))
        res.columns.append((f"intensity_state[{stage}]", "intensity", report.state_curves[stage]))
        res.outputs[f"visibility_fields[{stage}]"] = _q(report.field_visibility[stage], "dimensionless")
        res.outputs[f"visibility_state[{stage}]"] = _q(report.state_visibility[stage], "dimensionless")
        vis_err = max(
            vis_err,
            abs(report.field_visibility[stage] - target),
            abs(report.state_visibility[stage] - target),
        )
    res.outputs["route_constant"] = _q(report.constant, "dimensionless")
    res.oracle_deltas["visibility_targets"] = (vis_err, 1e-12, "absolute")
    # rounding in the field route grows with its intensities, which scale with the constant
    res.oracle_deltas["route_proportionality"] = (
        report.max_abs_deviation / max(1.0, report.constant),
        1e-12,
        "relative to max(1, route_constant)",
    )
    return res


def _run_bomb(params: dict, seed: int) -> ScenarioResult:
    cfg = MZConfig(
        bomb_present=params["bomb_present"],
        reflectivity=params["reflectivity"],
        efficiency=params["efficiency"],
    )
    probs = mz_probabilities(cfg)
    silent = mz_probabilities(MZConfig(bomb_present=False, reflectivity=params["reflectivity"]))
    ledger = efficiency_account(cfg, params["n_trials"], seed=seed)
    res = ScenarioResult(geometry="two_port_interferometer")
    order = ("absorbed", "detected_bright", "detected_dark", "undetected")
    res.columns.append(("outcome", "label", list(order)))
    res.columns.append(("expected_probability", "probability", [ledger.expected[k] for k in order]))
    res.columns.append(
        ("expected_count", "count", [ledger.expected[k] * ledger.n_trials for k in order])
    )
    res.columns.append(("observed_count", "count", [ledger.counts[k] for k in order]))
    res.columns.append(
        ("observed_frequency", "probability", [ledger.counts[k] / ledger.n_trials for k in order])
    )
    res.outputs["p_bright"] = _q(probs.bright, "probability")
    res.outputs["p_dark"] = _q(probs.dark, "probability")
    res.outputs["p_absorbed"] = _q(probs.absorbed, "probability")
    res.outputs["p_dark_without_absorber"] = _q(silent.dark, "probability")
    res.outputs["expected_undetected_share"] = _q(ledger.expected_undetected_bound_share, "probability")
    res.outputs["observed_undetected_share"] = _q(ledger.observed_undetected_bound_share, "probability")
    res.oracle_deltas["dark_port_without_absorber"] = (silent.dark, 1e-12, "absolute")
    res.oracle_deltas["probability_sum"] = (
        abs(probs.bright + probs.dark + probs.absorbed - 1.0),
        1e-15,
        "absolute",
    )
    worst_z = 0.0
    for key, prob in ledger.expected.items():
        spread = np.sqrt(ledger.n_trials * prob * (1.0 - prob))
        if spread > 0.0:
            worst_z = max(worst_z, abs(ledger.counts[key] - ledger.n_trials * prob) / spread)
    res.oracle_deltas["count_deviation_sigma"] = (worst_z, 4.0, "sigma")
    res.notes.append(
        "count guard band is 4 sigma so reseeded runs rarely trip it; the 3 sigma "
        "requirement at the default seed is enforced by selftest"
    )
    return res


RUNNERS: dict[str, Callable[[dict, int], ScenarioResult]] = {
    "ensemble": _run_ensemble,
    "spread": _run_spread,
    "collapse": _run_collapse,
    "well": _run_well,
    "eraser": _run_eraser,
    "bomb": _run_bomb,
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures, so exit 1 rather than 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qensemble", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in RUNNERS:
        sp = sub.add_parser(name, help=f"run the {name} scenario", add_help=True)
        sp.add_argument("--config", metavar="FILE", help="flat key=value parameter file")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="K=V",
            help="override one parameter (repeatable)",
        )
        sp.add_argument("--out", metavar="PATH", help="output table path")
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
        keys = ", ".join(f"{k} [{v.unit}] = {v.default!r}" for k, v in SCENARIO_PARAMS[name].items())
        sp.epilog = f"parameters: {keys}"
    sub.add_parser("selftest", help="run every invariant and acceptance check")
    return parser


def _run_scenario(name: str, args) -> int:
    start = time.perf_counter()
    params = _gather_params(name, args.config, args.overrides)
    out_path = args.out if args.out is not None else f"{name}.{args.format}"
    result = RUNNERS[name](params, args.seed)
    breaches = {
        key: value for key, (value, tol, _) in result.oracle_deltas.items() if not value <= tol
    }
    spec_units = SCENARIO_PARAMS[name]
    report = {
        "schema_version": 1,
        "scenario": name,
        "geometry": result.geometry,
        "inputs": {
            "params": {k: _q(v, spec_units[k].unit) for k, v in params.items()},
            "seed": args.seed,
            "format": args.format,
            "out": out_path,
        },
        "outputs": result.outputs,
        "oracle_deltas": {
            key: {"value": value, "tolerance": tol, "unit": unit, "within": value <= tol}
            for key, (value, tol, unit) in result.oracle_deltas.items()
        },
        "notes": result.notes,
        "wall_time_s": _q(0.0, "second"),
    }
    # a report that cannot be serialized exits 1 before the table is written
    _dump_json(report)
    _write_table(out_path, args.format, result, name, params)
    report["wall_time_s"] = _q(time.perf_counter() - start, "second")
    print(_dump_json(report), end="")
    if breaches:
        worst = ", ".join(f"{k} = {_fmt_float(v)}" for k, v in breaches.items())
        print(f"qensemble {name}: oracle comparison failed: {worst}", file=sys.stderr)
        return 2
    return 0


def _run_selftest() -> int:
    results = run_checks()
    for res in results:
        print(res.line)
    failed = sum(not r.passed for r in results)
    print(f"selftest: {len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("qensemble: error: a command is required", file=sys.stderr)
        return 1
    try:
        if args.command == "selftest":
            return _run_selftest()
        return _run_scenario(args.command, args)
    except _CliError as exc:
        print(f"qensemble {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ResonantMemberError) as exc:
        print(f"qensemble {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import DEFAULT_SEED

if TYPE_CHECKING:
    from .ensemble import KineticConvention, ParticleModel


# ---------------------------------------------------------------------------
# parameter plumbing


class ParamSpec(NamedTuple):
    """One scenario parameter: type, default, unit tag and help text."""

    kind: str
    default: object
    unit: str
    help: str
    choices: tuple = ()


class ScenarioResult(NamedTuple):
    """Everything a runner hands back to the writer and reporter.

    Runners fill the containers in place; each builds its own, since a
    default list or dict would be shared by every result.
    """

    geometry: str
    columns: list  # (name, unit, values)
    outputs: dict
    oracle_deltas: dict  # name -> (value, tol, unit)
    notes: list


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
            values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
            if not values:
                raise _CliError(f"parameter '{key}' rejects value '{raw}': {key} needs at least one value")
            return _finite(key, raw, values)
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


def _json_fragment(obj, indent: int) -> str:
    pad = "  " * indent
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
    """One column's text if all its cells print alike; else its floats, or its cells' byte slots and keep mask."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        if not np.isfinite(arr).all():
            bad = arr[~np.isfinite(arr)][0]
            raise _CliError(f"refusing to serialize non-finite value {bad} in column '{name}'")
        # alike by bit pattern: 0.0 and -0.0 compare equal but print apart
        bits = arr.view(np.uint64) if arr.dtype == np.float64 else None
        if bits is not None and bits.size and (bits == bits[0]).all():
            return _fmt_float(arr[0])
        return arr
    if arr.dtype.kind in "iu":
        if arr.size and (arr == arr[0]).all():
            return str(arr[0])
        cells = arr.astype("S")
        slots = cells.view(np.uint8).reshape(cells.size, cells.itemsize)
        return slots, slots != 0
    if arr.dtype.kind == "U":
        # the given strings, not the array's, which drop trailing NULs
        quoted = [quote(v).encode() for v in values]
        if quoted and quoted.count(quoted[0]) == len(quoted):
            return quoted[0].decode()
        cells = np.array(quoted, dtype=bytes)
        slots = cells.view(np.uint8).reshape(cells.size, cells.itemsize)
        return slots, np.arange(cells.itemsize) < np.array(list(map(len, quoted)))[:, None]
    raise _CliError(f"cannot serialize column '{name}' of dtype {arr.dtype}")


def _write_table(path: str, fmt: str, result: ScenarioResult, scenario: str, params: dict) -> None:
    """Check the whole table, then write it in chunks of rows: a failed check leaves no file."""
    from .text import rows

    names, units, _ = zip(*result.columns)
    length = len(result.columns[0][2])
    for name, _, values in result.columns:
        if len(values) != length:
            raise _CliError(f"column '{name}' length differs from the first column")
    quote = json.dumps if fmt == "json" else functools.partial(_csv_field, alone=len(names) == 1)
    if fmt == "csv":
        head, tail = ",".join(_csv_field(f"{n} ({u})") for n, u in zip(names, units)) + "\n", ""
        seps = [""] + [","] * (len(names) - 1) + ["\n"]
    else:
        columns = [{"name": n, "unit": u} for n, u in zip(names, units)]
        payload = {"schema_version": 1, "scenario": scenario, "params": params, "columns": columns, "rows": []}
        # "rows" comes last, so the encoder's last "[]" is its place in the document
        head, tail = _dump_json(payload).rsplit("[]", 1)
        head, tail = head + "[", ("\n  ]" if length else "]") + tail
        # each row is a list at indent 2 inside "rows" at indent 1, as _json_fragment lays it out;
        # every row leads with its separator, which the first row drops
        seps = [",\n    [\n      "] + [",\n      "] * (len(names) - 1) + ["\n    ]"]
    # a row is literal text between the columns whose cells vary; a column that prints alike is text
    texts, varying, text = [], [], seps[0]
    for (name, _, values), sep in zip(result.columns, seps[1:]):
        cells = _column_cells(name, values, quote)
        if isinstance(cells, str):
            text += cells + sep
        else:
            texts.append(text.encode())
            varying.append(cells)
            text = sep
    texts.append(text.encode())
    try:
        with open(path, "wb") as fh:
            fh.write(head.encode())
            first = fmt == "json"
            for chunk in rows(texts, varying, length):
                fh.write(chunk[1:] if first else chunk)
                first = False
            fh.write(tail.encode())
    except OSError as exc:
        raise _CliError(f"cannot write table {path}: {exc}") from exc


def _q(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# scenario runners
#
# Each runner imports the modules it calls when it runs, so a process loads
# only its own scenario's code, and `import qensemble.cli` loads none of it.


def _origin_amplitude(p: ParticleModel, k_hi: float):
    """The flat ball's closed-form amplitude at r = 0, (2 pi)^(-3/2) (4 pi / 3) sqrt(m) k_hi^3; inf past a double."""
    return (2.0 * np.pi) ** -1.5 * (4.0 * np.pi / 3.0) * p.flat_amplitude * np.float64(k_hi) ** 3


def _band(p: ParticleModel, v: float, convention: KineticConvention, where: str):
    """allowed_k_range(p, v), refused when the oracles' closed-form k^3 would be subnormal or 0."""
    from .ensemble import allowed_k_range

    kr = allowed_k_range(p, v, convention)
    # min() keeps the cube of a large k_hi from overflowing; only small ones can fall below tiny
    if kr.k_hi > 0.0 and min(kr.k_hi, 1.0) ** 3 < np.finfo(float).tiny:
        raise _CliError(
            f"e_total = {p.total_energy:g}{where} leaves a band up to k_hi = {kr.k_hi:g}, whose "
            f"closed-form k^3 underflows below the smallest normal double; raise e_total"
        )
    return kr


def _run_ensemble(params: dict, seed: int) -> ScenarioResult:
    from .ensemble import KineticConvention, ParticleModel, flat_norm_deviation, potential_wavefunction
    from .numerics import Grid1D

    p = ParticleModel(total_energy=params["e_total"])
    convention = KineticConvention[params["convention"].upper()]
    grid = Grid1D(params["r_min"], params["r_max"], params["n_r"])
    res = ScenarioResult("3d_radial", [], {}, {}, [])
    res.columns.append(("r", "length", grid.points()))
    res.notes.append("densities are unnormalized equal-weight member superpositions in natural units")
    origin_included = params["r_min"] == 0.0
    for v in params["potentials"]:
        kr = _band(p, v, convention, f" at potential {v:g}")
        tag = f"v={v:g}"
        psi = potential_wavefunction(p, v, grid, n_k=params["n_k"], convention=convention)
        res.columns.append((f"rho[{tag}]", "1/length^3", np.abs(psi) ** 2))
        res.outputs[f"k_hi[{tag}]"] = _q(kr.k_hi, "1/length")
        res.outputs[f"regime[{tag}]"] = kr.regime.name.lower()
        if kr.is_empty:
            res.notes.append(f"potential {v:g} exhausts the energy budget; the member range is empty")
        elif origin_included:
            measured = abs(psi[0])
            expected = _origin_amplitude(p, kr.k_hi)
            res.oracle_deltas[f"origin_amplitude[{tag}]"] = (
                abs(measured - expected) / expected,
                1e-8,
                "relative",
            )
    free_hi = _band(p, 0.0, convention, "").k_hi
    res.oracle_deltas["flat_spectral_norm"] = flat_norm_deviation(p, free_hi)
    if not origin_included:
        res.notes.append("origin oracle skipped: grid does not include r = 0")
    return res


def _run_spread(params: dict, seed: int) -> ScenarioResult:
    from .numerics import Grid1D, SingleMode
    from .wavepacket import GaussianPacket, propagate, spreading_deviation, truncation_bound

    grid = Grid1D(params["x_min"], params["x_max"], params["n_x"])
    x = grid.points()
    times = params["times"]
    if params["n_k"] < 0:
        raise _CliError(f"parameter 'n_k' must be 0 (automatic) or a node count, got {params['n_k']}")
    n_k = params["n_k"] or None
    res = ScenarioResult("1d_line", [], {}, {}, [])
    res.columns.append(("x", "length", x))
    kinds = ("gaussian", "single_mode") if params["packet"] == "both" else (params["packet"],)
    if "gaussian" in kinds:
        packet = GaussianPacket(b=params["b"], k0=params["k0"])
        runs = [(t, x, np.abs(propagate(packet, t, grid, n_k=n_k)) ** 2) for t in times]
        res.columns.extend((f"density_gaussian[t={t:g}]", "1/length", dens) for t, _, dens in runs)
        res.notes.append(
            "gaussian oracle holds nodes at or above 1e-8 of the packet's peak closed-form density"
            " to 1e-4 relative, and every node to 1e-10 of that peak absolute"
        )
        res.oracle_deltas["gaussian_vs_closed_form"] = spreading_deviation(packet, runs, res.notes)
        res.outputs["truncation_bound"] = _q(truncation_bound(packet), "dimensionless")
    if "single_mode" in kinds:
        mode = SingleMode(k0=params["k0"])
        worst = 0.0
        for t in times:
            dens = np.abs(propagate(mode, t, grid)) ** 2
            worst = max(worst, float(np.abs(dens - 1.0).max()))
            res.columns.append((f"density_single_mode[t={t:g}]", "1/length", np.broadcast_to(1.0, x.shape)))
        res.oracle_deltas["single_mode_unit_density"] = (worst, 1e-12, "absolute")
        res.notes.append(
            "single-mode columns carry the exact unit density; the propagated field is compared "
            "against it in the oracle delta"
        )
    # d omega / dk = k in natural units
    res.outputs["group_velocity"] = _q(params["k0"], "length/time")
    return res


def _run_collapse(params: dict, seed: int) -> ScenarioResult:
    from .ensemble import KineticConvention, ParticleModel, apply_retarding_filter, collapse_fraction
    from .numerics import Grid1D, radial_superposition

    p = ParticleModel(total_energy=params["e_total"])
    convention = KineticConvention[params["convention"].upper()]
    k_hi = _band(p, 0.0, convention, "").k_hi
    # the flat ball's density peaks at the origin; twice its amplitude, headroom for quadrature
    # rounding, must still square in a double
    with np.errstate(over="ignore"):
        squarable = np.isfinite((2.0 * _origin_amplitude(p, k_hi)) ** 2)
    if not squarable:
        raise _CliError(
            f"e_total = {p.total_energy:g} leaves a band up to k_hi = {k_hi:g}, whose origin density "
            "overflows a double; lower e_total"
        )
    filtered = apply_retarding_filter(p, params["e_rfa"], convention)
    k1, k0 = filtered.after.k_lo, filtered.after.k_hi
    # the surviving shell's odd node count must find room for distinct nodes between k1 and k0
    if k1 < k0 and k0 - k1 < (params["n_k"] | 1) * np.spacing(k0):
        raise _CliError(
            f"e_rfa = {params['e_rfa']!r} leaves a surviving band k = {k1:g} .. {k0:g} too narrow "
            f"for {params['n_k']} distinct quadrature nodes; lower e_rfa"
        )
    grid = Grid1D(params["r_min"], params["r_max"], params["n_r"])
    n_k = params["n_k"]
    res = ScenarioResult("3d_radial", [], {}, {}, [])

    def flat_field(k_hi: float) -> np.ndarray:
        return radial_superposition(p.flat_amplitude, k_hi, n_k, grid.points())

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
    from .ensemble import ParticleModel
    from .numerics import Grid1D, integrate_real
    from .squarewell import (
        WellConfig,
        _amplitude_overflow,
        density_parity,
        member_pairing,
        pair_member,
        resonant_members,
        well_ensemble_density,
    )

    cfg = WellConfig(
        ParticleModel(total_energy=params["e_total"]),
        v0=params["v0"],
        x0=params["x0"],
    )
    # every member of the pairing oracle decays at k2 >= k0', so its amplitude carries
    # exp(k2 x0) >= exp(k0' x0): past a double there, it is refused before any quadrature
    k2x0 = cfg.k0_prime * cfg.x0
    with np.errstate(over="ignore"):
        if np.isinf(np.exp(k2x0)):
            raise _amplitude_overflow(cfg, k2x0)
    grid = Grid1D(params["x_min"], params["x_max"], params["n_x"])
    n_k, tol = params["n_k"], params["resonance_tol"]
    profile = well_ensemble_density(cfg, grid, n_k=n_k, resonance_tol=tol)
    res = ScenarioResult("1d_line", [], {}, {}, [])
    res.columns.append(("x", "length", grid.points()))
    res.columns.append(("rho", "1/length", profile.values))
    res.outputs["pair_constant"] = _q(cfg.pair_constant, "1/length^2")
    res.outputs["k0_inner"] = _q(cfg.k0, "1/length")
    res.outputs["k0_outer"] = _q(cfg.k0_prime, "1/length")
    res.outputs["norm_constant"] = _q(profile.norm_constant, "dimensionless")
    res.outputs["excluded_k_measure"] = _q(profile.excluded_k_measure, "1/length")
    res.outputs["excluded_node_count"] = _q(profile.excluded_node_count, "count")
    k1 = np.linspace(0.0, cfg.k0, 102)[1:-1]
    resonant = resonant_members(cfg, k1, tol)
    if resonant.all():
        raise _CliError(
            f"resonance_tol = {tol:g} skips every one of the {k1.size} member-pairing oracle samples, "
            "leaving that oracle nothing to check; lower resonance_tol"
        )
    res.oracle_deltas["member_pairing"] = member_pairing(cfg, pair_member(cfg, k1[~resonant], tol))
    res.oracle_deltas["density_parity"] = density_parity(cfg, profile)
    res.oracle_deltas["density_norm"] = (
        abs(integrate_real(profile.values, grid.spacing) - 1.0),
        1e-8,
        "absolute",
    )
    skipped = np.count_nonzero(resonant)
    if skipped:
        res.notes.append(f"{skipped} oracle sample(s) sat on an interior-cosine zero and were skipped")
    res.notes.append("density is renormalized on the output grid; norm_constant records the raw integral")
    return res


def _run_eraser(params: dict, seed: int) -> ScenarioResult:
    from .optics import formalism_agreement, route_proportionality, visibility_targets

    report = formalism_agreement(
        n_phases=params["n_phases"],
        e_amp=params["e_amp"],
        b_amp=params["b_amp"],
        c=params["c"],
    )
    res = ScenarioResult("polarization_optics", [], {}, {}, [])
    res.columns.append(("phase", "radian", report.phases))
    for stage in report.field_curves:
        res.columns.append((f"intensity_fields[{stage}]", "intensity", report.field_curves[stage]))
        res.columns.append((f"intensity_state[{stage}]", "intensity", report.state_curves[stage]))
        res.outputs[f"visibility_fields[{stage}]"] = _q(report.field_visibility[stage], "dimensionless")
        res.outputs[f"visibility_state[{stage}]"] = _q(report.state_visibility[stage], "dimensionless")
    res.outputs["route_constant"] = _q(report.constant, "dimensionless")
    res.oracle_deltas["visibility_targets"] = visibility_targets(report)
    res.oracle_deltas["route_proportionality"] = route_proportionality(report)
    return res


def _run_bomb(params: dict, seed: int) -> ScenarioResult:
    from .optics import MZConfig, count_deviation, efficiency_account, mz_probabilities

    if seed < 0:
        raise _CliError(f"--seed must be at least 0, got {seed}")
    cfg = MZConfig(
        bomb_present=params["bomb_present"],
        reflectivity=params["reflectivity"],
        efficiency=params["efficiency"],
    )
    probs = mz_probabilities(cfg)
    silent = mz_probabilities(MZConfig(bomb_present=False, reflectivity=params["reflectivity"]))
    ledger = efficiency_account(cfg, params["n_trials"], seed=seed)
    res = ScenarioResult("two_port_interferometer", [], {}, {}, [])
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
    res.oracle_deltas["count_deviation_sigma"] = count_deviation(ledger)
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


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qensemble", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in RUNNERS:
        sp = sub.add_parser(
            name, help=f"run the {name} scenario", formatter_class=argparse.RawDescriptionHelpFormatter
        )
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
        keys = "".join(f"\n  {k} [{v.unit}] = {v.default!r}: {v.help}" for k, v in SCENARIO_PARAMS[name].items())
        sp.epilog = f"parameters:{keys}"
    st = sub.add_parser("selftest", help="run every invariant and acceptance check")
    st.add_argument("--timings", action="store_true", help="also print each check's duration")
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
    }
    # a report that cannot be serialized exits 1 before the table is written
    text = _dump_json(report)
    _write_table(out_path, args.format, result, name, params)
    # wall_time_s is the last key: its entry alone replaces the closing "\n}\n"
    wall = {"wall_time_s": _q(time.perf_counter() - start, "second")}
    report.update(wall)
    print(text[:-3] + "," + _dump_json(wall)[1:], end="")
    if breaches:
        worst = ", ".join(f"{k} = {_fmt_float(v)}" for k, v in breaches.items())
        print(f"qensemble {name}: oracle comparison failed: {worst}", file=sys.stderr)
        return 2
    return 0


def _run_selftest(timings: bool = False) -> int:
    # numpy.random is loaded here, not inside the first check that draws, so no check's time carries it
    start = time.perf_counter()
    import numpy.random  # noqa: F401

    from .acceptance import run_checks

    imports = time.perf_counter() - start
    results = run_checks()
    for res in results:
        print(res.line)
    failed = sum(not r.passed for r in results)
    print(f"selftest: {len(results)} checks, {len(results) - failed} passed, {failed} failed")
    if timings:
        print(f"time imports: {imports:.6f} s")
        for res in results:
            print(f"time {res.name}: {res.seconds:.6f} s")
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
            return _run_selftest(args.timings)
        return _run_scenario(args.command, args)
    except (_CliError, ValueError) as exc:
        print(f"qensemble {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # every node-count array is built, and every table check run, before the table file is
        # opened; the rows then go out in chunks of bounded size, so such a failure wrote nothing
        reason = str(exc) or "out of memory"
        print(f"qensemble {args.command}: error: {reason}; lower the node counts", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

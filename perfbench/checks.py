"""Independent checks of each CLI call's output.

Every reference is computed here, from closed forms, exact properties or
scipy quadrature; nothing is compared with stored output of the program.
`check_call` returns the problems it found; an empty list means the call
passed.  The checks assume natural units (hbar = m = 1), which the CLI
scenarios use.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import integrate

# (2 pi)^(-3/2) * 4 pi: symmetric-convention prefactor of a radial synthesis
RADIAL_PREFACTOR = (2.0 * math.pi) ** -1.5 * 4.0 * math.pi

SELFTEST_CHECKS = 20


def read_table(path: str, fmt: str) -> dict[str, list]:
    """Columns of a written table by name, without their unit tags."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            rows = list(csv.reader(fh))
            names = [cell.rsplit(" (", 1)[0] for cell in rows[0]]
            body = rows[1:]
        else:
            payload = json.load(fh)
            names = [col["name"] for col in payload["columns"]]
            body = payload["rows"]
    return {name: [row[i] for row in body] for i, name in enumerate(names)}


def _floats(table: dict, name: str) -> np.ndarray:
    return np.array([float(v) for v in table[name]])


def _grid(table: dict, name: str, want: np.ndarray) -> list[str]:
    # the table prints 17 significant digits, so parsing must give the
    # independently built nodes back bit for bit
    got = _floats(table, name)
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"column {name} is not the expected grid of {want.size} nodes"]
    return []


def _close(name: str, got: np.ndarray, ref: np.ndarray, tol: float) -> list[str]:
    """Max deviation relative to the reference peak must stay within tol."""
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(got - ref))) / scale if got.shape == ref.shape else math.inf
    return [] if err <= tol else [f"{name} deviates {err:.3e} of its peak (tolerance {tol:g})"]


def ball_integral(k_max: float, r: np.ndarray, kernel: str) -> np.ndarray:
    """int_0^K k^2 K(k r) dk for K = sin(kr)/(kr) or exp(-kr), in closed form.

    Below K r = 1 the closed forms lose digits to cancellation, so a power
    series is used there.
    """
    r = np.asarray(r, dtype=np.float64)
    z = k_max * np.abs(r)
    small = z < 1.0
    zs = z[small]
    series = np.zeros_like(zs)
    for n in range(20):
        if kernel == "oscillatory":
            series += (-1.0) ** n * zs ** (2 * n) / (math.factorial(2 * n + 1) * (2 * n + 3))
        else:
            series += (-zs) ** n / (math.factorial(n) * (n + 3))
    out = np.empty_like(z)
    out[small] = k_max**3 * series
    zl, rl = z[~small], np.abs(r[~small])
    if kernel == "oscillatory":
        out[~small] = (np.sin(zl) - zl * np.cos(zl)) / rl**3
    else:
        out[~small] = (2.0 - np.exp(-zl) * (zl * zl + 2.0 * zl + 2.0)) / rl**3
    return out


def check_ensemble(params: dict, table: dict, report: dict) -> list[str]:
    r = np.linspace(params["r_min"], params["r_max"], params["n_r"])
    problems = _grid(table, "r", r)
    c = 1.0 if params["convention"] == "single" else 2.0
    for v in params["potentials"]:
        gap = params["e_total"] - v
        kernel = "oscillatory" if gap > 0.0 else "decaying"
        ref = (RADIAL_PREFACTOR * ball_integral(math.sqrt(c * abs(gap)), r, kernel)) ** 2
        name = f"rho[v={v:g}]"
        problems += _close(name, _floats(table, name), ref, 1e-10)
    return problems


def check_collapse(params: dict, table: dict, report: dict) -> list[str]:
    r = np.linspace(params["r_min"], params["r_max"], params["n_r"])
    problems = _grid(table, "r", r)
    c = 1.0 if params["convention"] == "single" else 2.0
    k0 = math.sqrt(c * params["e_total"])
    k1 = math.sqrt(c * params["e_rfa"])
    before = RADIAL_PREFACTOR * ball_integral(k0, r, "oscillatory")
    # the surviving shell k1 <= k <= k0 is the full ball minus the core
    after = before - RADIAL_PREFACTOR * ball_integral(k1, r, "oscillatory")
    problems += _close("rho_before", _floats(table, "rho_before"), before**2, 1e-10)
    problems += _close("rho_after", _floats(table, "rho_after"), after**2, 1e-10)
    fraction = report["outputs"]["surviving_fraction"]["value"]
    expected = (k0**3 - k1**3) / k0**3
    if not abs(fraction - expected) <= 1e-10:
        problems.append(f"surviving fraction {fraction!r} differs from {expected!r}")
    return problems


def well_density_quad(params: dict, x: float) -> float:
    """Unnormalized two-branch well density at x by adaptive quadrature."""
    e, v0, x0 = params["e_total"], params["v0"], params["x0"]
    pair = v0  # k1^2 + k2^2 = m v0 / hbar^2
    ax = abs(x)
    if ax <= x0:
        def member(k1):
            k2 = math.sqrt(pair - k1 * k1)
            return k2 / (1.0 + k2 * x0) * math.cos(k1 * ax) ** 2
        upper = math.sqrt(e)
    else:
        def member(k2):
            k1 = math.sqrt(pair - k2 * k2)
            return k2 / (1.0 + k2 * x0) * math.cos(k1 * x0) ** 2 * math.exp(-2.0 * k2 * (ax - x0))
        upper = math.sqrt(v0 - e)
    value, _ = integrate.quad(member, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def check_well(params: dict, table: dict, report: dict) -> list[str]:
    x = np.linspace(params["x_min"], params["x_max"], params["n_x"])
    problems = _grid(table, "x", x)
    rho = _floats(table, "rho")
    peak = float(rho.max())
    if not float(rho.min()) >= 0.0:
        problems.append("density is negative somewhere")
    if not float(np.max(np.abs(rho - rho[::-1]))) <= 1e-10 * peak:
        problems.append("density is not even")
    norm = integrate.simpson(rho, x=x)
    if not abs(norm - 1.0) <= 1e-8:
        problems.append(f"density integrates to {norm!r}, not 1")
    if not np.all(rho[np.abs(x) <= params["x0"]] > 0.0):
        problems.append("density vanishes inside the well")
    # the table is renormalized on its grid, so compare shapes: ratios to the
    # value at the centre node, inside and outside the well
    centre = int(np.argmin(np.abs(x)))
    ref_centre = well_density_quad(params, x[centre])
    for target in (-4.0, -1.5, -0.5, 0.25, 0.75, 2.5, 5.0):
        i = int(np.argmin(np.abs(x - target)))
        want = well_density_quad(params, x[i]) / ref_centre
        got = rho[i] / rho[centre]
        if not abs(got - want) <= 1e-8 * abs(want):
            problems.append(f"density ratio at x = {x[i]!r} is {got!r}, quadrature gives {want!r}")
    return problems


def check_spread(params: dict, table: dict, report: dict) -> list[str]:
    x = np.linspace(params["x_min"], params["x_max"], params["n_x"])
    problems = _grid(table, "x", x)
    for t in params["times"]:
        if params["packet"] == "single_mode":
            name = f"density_single_mode[t={t:g}]"
            if not np.all(_floats(table, name) == 1.0):
                problems.append(f"{name} is not exactly 1 everywhere")
            continue
        name = f"density_gaussian[t={t:g}]"
        b, k0 = params["b"], params["k0"]
        # textbook free spreading; 1/b^2 from the symmetric Fourier convention
        s = 1.0 + (t / (b * b)) ** 2
        ref = s**-0.5 * np.exp(-((x - k0 * t) ** 2) / (b * b * s)) / (b * b)
        got = _floats(table, name)
        problems += _close(name, got, ref, 1e-10)
        above = ref >= 1e-8 * ref.max()
        rel = float(np.max(np.abs(got[above] - ref[above]) / ref[above]))
        if not rel <= 1e-4:
            problems.append(f"{name} deviates {rel:.3e} relative above 1e-8 of its peak")
    return problems


def check_eraser(params: dict, table: dict, report: dict) -> list[str]:
    phase = np.linspace(0.0, 2.0 * math.pi, params["n_phases"], endpoint=False)
    problems = _grid(table, "phase", phase)
    # a half-amplitude pair of beams: the field route carries the constant
    # (|E|^2/c^2 + |B|^2)/2 of the input beam times the state-route intensity
    constant = 0.5 * (params["e_amp"] ** 2 / params["c"] ** 2 + params["b_amp"] ** 2)
    fringe = 1.0 + np.cos(phase)
    state = {"baseline": fringe, "rotator_in_path1": np.ones_like(phase), "rotator_plus_diagonal": fringe / 2.0}
    targets = {"baseline": 1.0, "rotator_in_path1": 0.0, "rotator_plus_diagonal": 1.0}
    for stage, curve in state.items():
        problems += _close(f"intensity_state[{stage}]", _floats(table, f"intensity_state[{stage}]"), curve, 1e-12)
        problems += _close(
            f"intensity_fields[{stage}]", _floats(table, f"intensity_fields[{stage}]"), constant * curve, 1e-12
        )
        for route in ("fields", "state"):
            vis = report["outputs"][f"visibility_{route}[{stage}]"]["value"]
            if not abs(vis - targets[stage]) <= 1e-12:
                problems.append(f"{route} visibility of {stage} is {vis!r}, not {targets[stage]}")
    route = report["outputs"]["route_constant"]["value"]
    if not abs(route - constant) <= 1e-12 * constant:
        problems.append(f"route constant {route!r} differs from {constant!r}")
    return problems


def check_bomb(params: dict, table: dict, report: dict) -> list[str]:
    r, eta, n = params["reflectivity"], params["efficiency"], params["n_trials"]
    expected = {
        "absorbed": r,
        "detected_bright": (1.0 - r) ** 2 * eta,
        "detected_dark": r * (1.0 - r) * eta,
        "undetected": (1.0 - r) * (1.0 - eta),
    }
    if table["outcome"] != list(expected):
        return [f"outcome rows are {table['outcome']}, not {list(expected)}"]
    counts = _floats(table, "observed_count")
    problems = []
    if counts.sum() != n:
        problems.append(f"counts add up to {counts.sum():.0f}, not {n}")
    probs = _floats(table, "expected_probability")
    for (outcome, p), count, listed in zip(expected.items(), counts, probs):
        if not abs(listed - p) <= 1e-12:
            problems.append(f"{outcome} probability is {listed!r}, closed form {p!r}")
        z = abs(count - n * p) / math.sqrt(n * p * (1.0 - p))
        if not z <= 4.0:
            problems.append(f"{outcome} count {count:.0f} lies {z:.2f} sigma from {n * p:.1f}")
    return problems


def check_selftest(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    summary = f"selftest: {SELFTEST_CHECKS} checks, {SELFTEST_CHECKS} passed, 0 failed"
    passes = [line for line in lines[:-1] if line.startswith("PASS ")]
    if len(lines) != SELFTEST_CHECKS + 1 or len(passes) != SELFTEST_CHECKS or lines[-1] != summary:
        return [f"selftest printed {len(passes)} PASS lines of {len(lines)} and summary {lines[-1:]!r}"]
    return []


SCENARIO_CHECKS = {
    "ensemble": check_ensemble,
    "collapse": check_collapse,
    "well": check_well,
    "spread": check_spread,
    "eraser": check_eraser,
    "bomb": check_bomb,
}


def check_call(call, code, stdout: str, table_path: str) -> list[str]:
    """Problems with one call's exit code, report and table."""
    if code != 0:
        return [f"{call.scenario}: exit code {code}"]
    if call.scenario == "selftest":
        return check_selftest(stdout)
    try:
        report = json.loads(stdout)
        table = read_table(table_path, call.fmt)
        problems = SCENARIO_CHECKS[call.scenario](call.params, table, report)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"{call.scenario}: {p}" for p in problems]

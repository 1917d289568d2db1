"""Record the byte-identity manifest of the CLI's tables, reports and stderr.

Run from the repository root, with the sources to record on the path:

    PYTHONPATH=src python tests/make_identity_manifest.py [OUT]

OUT defaults to tests/identity_manifest.json.  Each case runs
`qensemble.cli.main` in process.  Its entry holds the exit code and the
SHA-256 of the written table (null when none is written), of stdout with the
report's `wall_time_s` value and the table path masked, and of stderr with
any warning appended.  The file also records the numpy version and machine
it was made on, since FFT rounding may differ on another of either.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from qensemble import cli

_FAR_TAIL = ["packet=gaussian", "b=1", "k0=5", "times=0,0.5,1,2", "x_min=-10", "x_max=-2.7", "n_x=1912", "n_k=4001"]


def _scenario(name, *overrides, flags=()):
    return [name, *flags, *(arg for item in overrides for arg in ("--set", item))]


# The first operation of perfbench's dense-figures and light-tables workloads
# at seed 7, written out: a change to perfbench's draws leaves the manifest as it is.
_CSV = ("--format", "csv")
_DENSE_FIGURES = [
    _scenario(
        "spread", "packet=gaussian", "b=1.0", "k0=5.250190933209334", "times=0.0,1.5",
        "x_min=-10.0", "x_max=25.0", "n_x=1201", "n_k=4001", flags=_CSV,
    ),
    _scenario(
        "ensemble", "potentials=-3.0,0.0,0.5,2.5", "e_total=1.5177710407756604", "r_min=0.0",
        "r_max=8.0", "n_r=801", "n_k=801", "convention=single", flags=_CSV,
    ),
    _scenario(
        "collapse", "e_rfa=0.7404337427766831", "e_total=1.5177710407756604", "r_min=0.0",
        "r_max=6.0", "n_r=601", "n_k=2001", "convention=double", flags=_CSV,
    ),
    _scenario(
        "well", "v0=3.6756215699717756", "x0=1.0", "e_total=1.5177710407756604", "x_min=-8.0",
        "x_max=8.0", "n_x=8001", "n_k=2001", "resonance_tol=1e-06", flags=_CSV,
    ),
]
_LIGHT_TABLES = [
    _scenario("eraser", "n_phases=256", "e_amp=1.6552114265052111", "b_amp=0.6678908664765264", "c=1.0", flags=_CSV),
    _scenario(
        "bomb", "bomb_present=true", "reflectivity=0.4", "efficiency=0.02", "n_trials=3000000",
        flags=(*_CSV, "--seed", "12345"),
    ),
    _scenario(
        "spread", "packet=single_mode", "k0=2.4395973540314513", "times=0.0,1.0,2.0,4.0",
        "x_min=-200.0", "x_max=200.0", "n_x=40001", flags=("--format", "json"),
    ),
]


CASES = [
    *(
        _scenario(name, flags=("--format", fmt))
        for name in ("ensemble", "spread", "collapse", "well", "eraser", "bomb")
        for fmt in ("csv", "json")
    ),
    _scenario("ensemble", "r_min=-2"),
    _scenario("well", "x_min=0"),
    _scenario("eraser", "n_phases=3"),
    _scenario("spread", *_FAR_TAIL),
    _scenario("bomb", "n_trials=20000", flags=("--seed", "2817")),
    _scenario("spread", "times=0,1e300"),
    _scenario("well", "v0=4e6"),
    _scenario("well", "x0=1e308"),
    _scenario("well", "x_min=-400", "x_max=400", "n_x=8001"),
    _scenario("ensemble", "potentials=1.0,3.0"),
    _scenario("collapse", "e_rfa=2"),
    _scenario("collapse", "r_max=8e307"),
    *_DENSE_FIGURES,
    *_LIGHT_TABLES,
    ["selftest"],
]

_WALL_TIME = re.compile(r'("wall_time_s": \{\s*"value": )[^,]+')


def _digest(text: str | bytes | None) -> str | None:
    if text is None:
        return None
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Exit code and digests of one CLI call; a scenario writes its table to a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table"
        full = argv if argv[0] == "selftest" else [*argv, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(full)
        report = _WALL_TIME.sub(r"\1<masked>", stdout.getvalue()).replace(str(out), "<out>")
        errors = stderr.getvalue().replace(str(out), "<out>")
        errors += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        table = out.read_bytes() if out.exists() else None
    return {"exit": code, "table": _digest(table), "report": _digest(report), "stderr": _digest(errors)}


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def sweep() -> dict:
    return {" ".join(argv): run_case(argv) for argv in CASES}


def main(path: str) -> None:
    manifest = {**environment(), "entries": sweep()}
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).with_name("identity_manifest.json")))

"""Runs benchmark operations in-process, one request at a time.

Reads one JSON request per line on stdin, `{"calls": [argv, ...]}`, runs
each argv through `qensemble.cli.main` with its stdout captured, and answers
with one JSON line `{"seconds": [...], "codes": [...], "stdout": [...]}`.
Only `main` is inside the timed region.  The request `{"stop": true}` ends
the loop; the last answer carries this process's peak resident memory, which
therefore holds the program's operations and none of the output checks.

With `--spans PATH` the package's functions are traced (see tracing.py) and
the spans are written to PATH when the loop ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

from tracing import Tracer, instrument

import qensemble.cli as cli


def _run(argv: list[str]):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a traceback is a failed call, reported by the caller
        traceback.print_exc()
        return "exception"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", metavar="PATH", help="trace, and write the spans here")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        instrument(tracer)
    channel = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            break
        if tracer is not None:
            tracer.op += 1
        answer = {"seconds": [], "codes": [], "stdout": []}
        for argv in request["calls"]:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                start = perf_counter()
                code = _run(argv)
                answer["seconds"].append(perf_counter() - start)
            answer["codes"].append(code)
            answer["stdout"].append(captured.getvalue())
        channel.write(json.dumps(answer) + "\n")
        channel.flush()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"ops": tracer.op + 1, "spans": tracer.spans}, fh)
    channel.write(json.dumps({"peak_rss_mib": peak_rss_mib}) + "\n")
    channel.flush()


if __name__ == "__main__":
    main()

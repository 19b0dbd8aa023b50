"""Run one CLI job in this fresh interpreter and print one JSON result line.

Usage: python3 perfbench/worker.py '{"argv": [...], "trace": false}'

The CLI's stdout and stderr are captured and returned in the result, with
the monotonic times at which `import pairideal.cli` finished and the
command returned (the parent records when it spawned this process), the
exit code, this process's peak
RSS, and the time of the reference workload run after the command (see
speed.py).  With "trace" set, the layer functions are wrapped first (see
layertrace.py) and the aggregated spans, with the estimated tracing
overhead, are returned instead of the reference time.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    import pairideal.cli

    imported_ns = time.monotonic_ns()
    if not os.path.abspath(pairideal.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pairideal was imported from {pairideal.cli.__file__}, not {SRC}")

    # imported after the timestamp: they are the benchmark's, not the user's
    import io
    import resource
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pairideal.cli.main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
    done_ns = time.monotonic_ns()
    result = {
        "imported_ns": imported_ns,
        "done_ns": done_ns,
        "exit_code": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer:
        result["trace"] = tracer.report()
        result["trace"]["overhead_s"] = tracer.overhead_s()
    else:
        from speed import reference_seconds

        result["reference_s"] = reference_seconds()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()

"""One round of a workload, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py '<job json>'

The job names the checkout root, the argv lists to pass to
``graphseq.cli.run`` one after the other, and optionally a file for the
spans of a traced round.  The last line of standard output is a JSON object
with each call's exit status and captured output, the monotonic clock when
set-up ended and when the last call returned, the CPU time the calls took
and the process's peak resident set.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["root"], "src").resolve()
    sys.path.insert(0, str(src))
    import graphseq
    from graphseq import cli

    if src not in Path(graphseq.__file__).resolve().parents:
        print(f"graphseq imported from {graphseq.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if job.get("spans"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install(graphseq)
    ready = time.monotonic()
    cpu0 = _cpu_s()
    calls = []
    for argv in job["calls"]:
        out = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(out):
                status = cli.run(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            status = exc.code
        except Exception:  # noqa: BLE001 - reported to run.py as a failed call
            status = None
            error = traceback.format_exc()
        calls.append({"argv": argv, "status": status, "stdout": out.getvalue(),
                      "error": error})
    done = time.monotonic()
    cpu_s = _cpu_s() - cpu0
    if tracer is not None:
        tracer.write(job["spans"])
    print(json.dumps({
        "ready": ready,
        "done": done,
        "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

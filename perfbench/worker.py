"""One pass of a workload in a fresh interpreter.

Reads a job from stdin as JSON: ``src`` (the directory holding the braidrep
package), ``degrees`` (cyclotomic tables to build during set-up),
``commands`` (argument vectors for ``braidrep.cli.main``), ``trace`` and
``spans`` (where a traced pass writes its spans).  Prints ``ready`` once
set-up is done, then one JSON line: the wall time of the timed region, the
peak resident memory, and per command its exit code, latency and captured
output; a traced pass adds the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_command(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed pass
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import braidrep
    from braidrep import cli, cyclo

    if Path(braidrep.__file__).resolve().parent != src / "braidrep":
        print(f"braidrep imported from {braidrep.__file__}, not {src}", file=sys.stderr)
        return 2
    for d in job["degrees"]:
        cyclo.zeta(d)
    print("ready", flush=True)
    if not job["commands"]:
        return 0

    tracer = None
    main_fn = cli.main
    if job["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

        def main_fn(argv):
            return tracer.call("cli", cli.main, (argv,), {})

    results = []
    start = time.perf_counter()
    for argv in job["commands"]:
        t0 = time.perf_counter()
        rc, out, err = run_command(main_fn, argv)
        results.append({"rc": rc, "ms": 1000 * (time.perf_counter() - t0), "out": out, "err": err})
    wall_s = time.perf_counter() - start
    doc = {
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
    }
    if tracer is not None:
        tracer.write(job["spans"])
        doc["layers"] = layer_metrics(tracer)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

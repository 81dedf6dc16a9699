"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload for about S seconds; pass number p runs the
commands the workload makes from the seed and p (see workloads.py).  Each pass runs in a fresh
single-threaded interpreter (worker.py) that imports braidrep from ``src/``
of this checkout, so no cache warmed by one pass or workload speeds up the
next.  Every command's output is checked.  The timed metrics are medians
over the passes or over all their commands.  With ``--trace 0`` the last
line of stdout reports the end-to-end metrics; with ``--trace 1`` every
untraced pass is followed by a traced pass of the same commands, and the
last line reports the per-layer metrics, while the spans go to
``.perfbench-out/``.  The line before it is a fuller report for people:
every metric with its unit and sample count, including ``fail_frac`` and,
where a pass has at least 100 commands, ``cmd_p90_ms``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracer import UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).with_name("worker.py")
SPANS = ROOT / ".perfbench-out"

SETUP_PROBES = 3  # set-up-only launches before the first pass
MIN_PASSES = 3  # untraced passes per run
RUN_LIMIT_S = 170  # a run must end within 180 s, however slow the program
P90_MIN_COMMANDS = 100
E2E = ("setup_s", "wall_s", "cmd_p50_ms", "peak_rss_mb")  # the metrics BENCHMARK.json gates


class PassError(RuntimeError):
    """A worker died or printed something other than its protocol."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def run_pass(wl: workloads.Workload, commands: list, trace: bool = False,
             timeout: float = RUN_LIMIT_S) -> tuple[float, dict]:
    """One fresh interpreter: returns (set-up seconds, worker result).  The
    worker is killed after ``timeout`` seconds."""
    job = {"src": str(SRC), "degrees": list(wl.degrees), "commands": commands,
           "trace": trace, "spans": str(SPANS / f"spans-{wl.name}.json")}
    if trace:
        SPANS.mkdir(exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=_child_env(), text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        body = proc.stdout.read()
        err = proc.stderr.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready != "ready\n":
        raise PassError(f"worker exited {rc}: {err.strip()[-2000:]}")
    return setup_s, json.loads(body) if commands else {}


def check(wl: workloads.Workload, commands: list, passes: list[dict], refs: dict,
          traced: list[dict] = ()) -> tuple[int, int]:
    """(attempted, failed) over every command of every pass.  ``commands[i]``
    is what ``passes[i]`` ran.  Besides the workload's own check, a traced
    pass must print exactly what the untraced pass of the same inputs
    printed."""
    attempted = failed = 0
    for i, (argvs, plain) in enumerate(zip(commands, passes)):
        for j, (argv, res) in enumerate(zip(argvs, plain["commands"])):
            a, f = wl.check(argv, res["rc"], res["out"], refs)
            attempted += a
            failed += f
            if i < len(traced):
                other = traced[i]["commands"][j]
                attempted += 1
                failed += int(other["out"] != res["out"] or other["rc"] != res["rc"])
    return attempted, failed


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()

    def left() -> float:
        return start + RUN_LIMIT_S - time.perf_counter()

    setups = [run_pass(wl, [], timeout=left())[0] for _ in range(SETUP_PROBES)]
    probed = time.perf_counter()
    commands, plain, traced = [], [], []
    while True:
        argvs = wl.commands(seed, len(plain))
        setup_s, res = run_pass(wl, argvs, timeout=left())
        setups.append(setup_s)
        plain.append(res)
        commands.append(argvs)
        if trace:
            setup_s, res = run_pass(wl, argvs, trace=True, timeout=left())
            setups.append(setup_s)
            traced.append(res)
        now = time.perf_counter()
        cycle = (now - probed) / len(plain)
        if len(plain) >= MIN_PASSES and now - start + cycle / 2 > seconds or cycle > left():
            break
    attempted, failed = check(wl, commands, plain, workloads.load_references(), traced)

    ms = [c["ms"] for p in plain for c in p["commands"]]
    walls = [p["wall_s"] for p in plain]
    report = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cmd_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB", len(plain)),
        "fail_frac": (failed / attempted, "ratio", attempted),
    }
    if len(commands[0]) >= P90_MIN_COMMANDS:
        report["cmd_p90_ms"] = (statistics.quantiles(ms, n=10)[8], "ms", len(ms))
    layers = {}
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace_overhead"] = statistics.median(
            t["wall_s"] / p["wall_s"] for t, p in zip(traced, plain))
    return {"report": report, "layers": layers, "attempted": attempted, "failed": failed,
            "passes": len(plain), "commands": sum(map(len, commands))}


def layer_unit(name: str) -> str:
    if name == "trace_overhead":
        return "ratio"
    return UNITS.get(name.rsplit(".", 1)[1], "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidrep" / "__init__.py").is_file():
        print(f"no braidrep package under {SRC}", file=sys.stderr)
        return 2
    try:
        res = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": res["passes"],
        "commands": res["commands"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in res["report"].items()},
        "layers": {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()},
    }))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res["report"][k][0], "unit": res["report"][k][1]} for k in E2E}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change runs of the benchmark, summarized as one JSON file.

    python3 tools/bench_pairs.py --parent REF --out BENCH_x.json \
        --plan words:901-910 --plan verify:911-920 --trace words:931

Both sides run ``perfbench/run.py --workload W --seed S --seconds T`` in a
fresh directory of their own: the parent from ``git archive REF``, the
change from the working tree (``src/``, ``perfbench/``, ``BENCHMARK.json``).
``T`` is the ``run_seconds`` of that side's ``BENCHMARK.json``.
Each ``--plan W:A-B`` runs one pair per seed A..B, the sides alternating
which runs first; each ``--trace W:S`` runs one traced pair (``--trace 1``)
and records the per-layer metrics of both sides.  Each ``--cli N:ARGS``
times the plain command ``python -m braidrep ARGS`` in N pairs of fresh
processes, start-up included, the sides alternating, and records each
run's seconds, exit code, the sha256 of its stdout and its own peak RSS
(``ru_maxrss`` from ``os.wait4``).  Linux carries the peak RSS of the
process that starts a child across ``exec`` into the child's
``ru_maxrss``, so each run also records this driver's own peak at the
start, the floor below which no reading can go.  Each ``--pytest N:ARGS``
runs ``python -m pytest -q -p no:cacheprovider ARGS`` in N pairs of fresh
processes in each side's checkout, which also holds ``tests/`` and
``pyproject.toml``, the sides alternating, and records each run's seconds,
exit code and number of passed tests.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("src", "perfbench", "BENCHMARK.json", "tests", "pyproject.toml")
E2E = ("setup_s", "wall_s", "cmd_p50_ms", "peak_rss_mb")


def checkout(parent: str, workdir: Path) -> dict[str, Path]:
    """Fresh directories of the parent commit and of the working tree."""
    sides = {"parent": workdir / "parent", "change": workdir / "change"}
    for path in sides.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent, *PARTS],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench-out")
    for part in PARTS:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, sides["change"] / part, ignore=ignore)
        else:
            shutil.copy2(src, sides["change"] / part)
    return sides


def src_digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under src/."""
    h = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run(side: Path, workload: str, seed: int, trace: bool) -> dict:
    seconds = json.loads((side / "BENCHMARK.json").read_text())["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=side, check=True, capture_output=True, text=True).stdout
    full, last = (json.loads(line) for line in out.strip().splitlines()[-2:])
    rec = {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"]}
    if trace:
        rec["layers"] = {k: round(v["value"], 6) for k, v in full["layers"].items()}
    else:
        rec.update({k: round(full["metrics"][k]["value"], 4) for k in E2E})
    return rec


def run_cli(side: Path, args: list[str]) -> dict:
    """One fresh ``python -m braidrep`` process of the side, timed from
    start to exit, with the peak RSS of the child and of this driver in MB.
    Stdout is hashed as it is read, so the driver holds none of it."""
    env = {**os.environ, "PYTHONPATH": str(side / "src")}
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "braidrep", *args], cwd=side, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"s": round(seconds, 4), "rc": proc.returncode, "stdout_sha256": digest.hexdigest(),
            "rss_mb": round(usage.ru_maxrss / 1024, 1), "driver_rss_mb": round(floor, 1)}


def run_pytest(side: Path, args: list[str]) -> dict:
    """One fresh pytest process in the side's checkout, timed from start to
    exit, with its exit code and the number of tests it passed."""
    env = {**os.environ, "PYTHONPATH": str(side / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=side, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    passed = re.search(r"(\d+) passed", lines[-1]) if lines else None
    return {"s": round(seconds, 4), "rc": proc.returncode, "passed": int(passed.group(1)) if passed else 0}


def pair(sides: dict[str, Path], label: str, measure, first: str) -> dict:
    """One record of measure(side) on both sides; the side named first runs
    first."""
    rec = {"first": first}
    for name in (first, "change" if first == "parent" else "parent"):
        rec[name] = measure(sides[name])
        print(label, name, json.dumps(rec[name])[:200], file=sys.stderr, flush=True)
    return rec


def fresh_pairs(sides: dict[str, Path], label: str, runs: int, measure) -> list[dict]:
    """runs pairs of measure(side), the sides alternating which runs first."""
    return [pair(sides, f"{label} {i}", measure, ("parent", "change")[i % 2]) for i in range(runs)]


def pytest_pairs(sides: dict[str, Path], text: str) -> tuple[str, dict]:
    runs, _, command = text.partition(":")
    args = shlex.split(command)
    pairs = fresh_pairs(sides, "pytest", int(runs), lambda side: run_pytest(side, args))
    return command, {"pairs": pairs, "summary": {
        **compare(pairs, "s"),
        "same_result": all(p["parent"]["rc"] == p["change"]["rc"] and p["parent"]["passed"] == p["change"]["passed"]
                           for p in pairs),
    }}


def cli_pairs(sides: dict[str, Path], text: str) -> tuple[str, dict]:
    runs, _, command = text.partition(":")
    args = shlex.split(command)
    pairs = fresh_pairs(sides, "cli", int(runs), lambda side: run_cli(side, args))
    return command, {"pairs": pairs, "summary": {
        **compare(pairs, "s"),
        "rss_mb": {**compare(pairs, "rss_mb"),
                   "driver_floor": max(p[side]["driver_rss_mb"] for p in pairs for side in ("parent", "change"))},
        "same_output": all(p["parent"]["stdout_sha256"] == p["change"]["stdout_sha256"]
                           and p["parent"]["rc"] == p["change"]["rc"] for p in pairs),
    }}


def compare(pairs: list[dict], metric: str) -> dict:
    """One metric of both sides: medians and quartiles, per-pair ratios,
    their median over the pairs that ran the parent first and over those
    that ran the change first (the side that runs first tends to read
    higher, so the two medians show that order effect), the geometric mean
    of those two medians, which cancels a first-side effect that scales
    every reading by one factor, and the number of pairs in which the
    change reads lower."""
    par = [p["parent"][metric] for p in pairs]
    chg = [p["change"][metric] for p in pairs]
    ratios = [c / p for p, c in zip(par, chg)]
    q = statistics.quantiles(par, n=4) if len(par) > 1 else [par[0]] * 3
    by_first = {first: [r for p, r in zip(pairs, ratios) if p["first"] == first] for first in ("parent", "change")}
    medians = {first: statistics.median(rs) if rs else None for first, rs in by_first.items()}
    return {
        "parent_median": round(statistics.median(par), 4),
        "parent_quartiles": [round(q[0], 4), round(q[2], 4)],
        "change_median": round(statistics.median(chg), 4),
        "ratio_of_medians": round(statistics.median(chg) / statistics.median(par), 3),
        "pair_ratios": [round(r, 3) for r in ratios],
        "pair_ratio_median_by_first": {first: None if m is None else round(m, 3) for first, m in medians.items()},
        "order_balanced_ratio": (round(math.sqrt(medians["parent"] * medians["change"]), 3)
                                 if None not in medians.values() else None),
        "change_lower": sum(r < 1 for r in ratios),
    }


def spec(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    lo, _, hi = seeds.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git commit of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--plan", action="append", type=spec, default=[],
                        help="WORKLOAD:FIRST-LAST, one untraced pair per seed")
    parser.add_argument("--trace", action="append", type=spec, default=[],
                        help="WORKLOAD:SEED, one traced pair per seed")
    parser.add_argument("--cli", action="append", default=[],
                        help="RUNS:ARGS, RUNS fresh-process pairs of python -m braidrep ARGS")
    parser.add_argument("--pytest", action="append", default=[],
                        help="RUNS:ARGS, RUNS fresh-process pairs of python -m pytest -q ARGS")
    parser.add_argument("--workdir", type=Path, help="where the two checkouts go (default: a temp dir)")
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                            check=True, capture_output=True, text=True).stdout.strip()
    sides = checkout(parent, workdir)
    doc = {
        "command": "python3 tools/bench_pairs.py " + shlex.join(argv or sys.argv[1:]),
        "parent_commit": parent,
        "src_sha256": {name: src_digest(path) for name, path in sides.items()},
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "workloads": {},
        "traced": {},
        "cli": {},
        "pytest": {},
    }

    def seed_pair(workload: str, seed: int, first: str, trace: bool) -> dict:
        return {"seed": seed, **pair(sides, f"{workload} {seed}", lambda side: run(side, workload, seed, trace), first)}

    flip = 0
    for workload, seeds in args.plan:
        pairs = []
        for seed in seeds:
            pairs.append(seed_pair(workload, seed, ("parent", "change")[flip % 2], False))
            flip += 1
        doc["workloads"][workload] = {"pairs": pairs, "summary": {metric: compare(pairs, metric) for metric in E2E}}
    for workload, seeds in args.trace:
        for seed in seeds:
            rec = seed_pair(workload, seed, "parent", True)
            doc["traced"][f"{workload}:{seed}"] = {
                "correct": [rec["parent"]["correct"], rec["change"]["correct"]],
                "layers": {k: {"parent": v, "change": rec["change"]["layers"][k]}
                           for k, v in rec["parent"]["layers"].items()},
            }
    for text in args.cli:
        command, rec = cli_pairs(sides, text)
        doc["cli"][command] = rec
    for text in args.pytest:
        command, rec = pytest_pairs(sides, text)
        doc["pytest"][command] = rec
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# a few cheap commands of every kind the workloads run
SAMPLE = {
    "verify": [["verify", "--suite", "forms", "--seed", "3", "--size", "1"]],
    "words": workloads.words_commands(5, 0)[:3],
    "criteria": workloads.criteria_commands(5, 0)[:12],
}


def _bench(*args: str) -> tuple[dict, dict]:
    """Run the benchmark; return (report line, result line)."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    report, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_traced_pass_prints_what_untraced_pass_prints(name):
    wl = workloads.WORKLOADS[name]
    _, plain = run.run_pass(wl, SAMPLE[name])
    _, traced = run.run_pass(wl, SAMPLE[name], trace=True)
    assert [c["out"] for c in traced["commands"]] == [c["out"] for c in plain["commands"]]
    assert [c["rc"] for c in traced["commands"]] == [0] * len(SAMPLE[name])
    assert "layers" in traced and "layers" not in plain
    refs = workloads.load_references()
    assert run.check(wl, [SAMPLE[name]], [plain], refs, [traced])[1] == 0
    traced["commands"][0]["out"] += " "
    assert run.check(wl, [SAMPLE[name]], [plain], refs, [traced])[1] == 1


def test_every_metric_is_reported_with_its_unit():
    report, result = _bench("--workload", "criteria", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert {"fail_frac", "cmd_p90_ms"} <= set(report["metrics"])
    assert report["metrics"]["fail_frac"]["value"] == 0

    _, result = _bench("--workload", "criteria", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["criteria.arithmeticity.calls"]["value"] > 0


def test_wrong_outputs_count_as_failures():
    refs = workloads.load_references()
    for name, commands in SAMPLE.items():
        wl = workloads.WORKLOADS[name]
        _, res = run.run_pass(wl, commands)
        assert run.check(wl, [commands], [res], refs)[1] == 0
        wrong = {**refs, **{" ".join(argv): "0" * 64 for argv in commands}}
        bad = json.loads(json.dumps(res))
        for c in bad["commands"]:
            c["out"] = c["out"].replace("0 failed", "1 failed").replace('"det": ["', '"det": ["2')
        assert run.check(wl, [commands], [bad], wrong)[1] > 0, name
    assert workloads.horo_check(workloads.horo_commands(1, 0)[0], 0, "{}", refs)[1] == 1


def test_commands_depend_on_the_seed_and_pass_only():
    for wl in workloads.WORKLOADS.values():
        assert wl.commands(7, 2) == wl.commands(8, 1)  # the same pool entry
        assert wl.commands(7, 2) != wl.commands(7, 3)
    assert len(workloads.criteria_commands(1, 0)) >= run.P90_MIN_COMMANDS


def test_every_criteria_command_has_a_reference():
    refs = workloads.load_references()
    assert all(" ".join(argv) in refs for argv in workloads.reference_argvs())
    assert len(refs) == len(workloads.reference_argvs())


def test_oracles_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(1, 41):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert workloads.cyclotomic(d) == [int(c) for c in phi]
    for d in workloads.WORD_DEGREES:
        for e in range(d):
            rem = sympy.Poly(x ** e, x).rem(sympy.Poly(sympy.cyclotomic_poly(d, x), x))
            coeffs = [int(c) for c in rem.all_coeffs()[::-1]]
            assert workloads.zeta_power(d, e) == coeffs + [0] * (len(workloads.cyclotomic(d)) - 1 - len(coeffs))


def test_det_exponent_of_block_twist_matches_its_pair_twists():
    kappa = [3, 5, 7, 2, 4]
    pairs = " ".join(f"A({i},{j})" for j in range(2, 5) for i in range(2, j))
    assert workloads._det_exponent(kappa, "FT(2,4)") == workloads._det_exponent(kappa, pairs)
    assert workloads._det_exponent(kappa, "T(3) T(3)^-1") == 0
    assert workloads._det_exponent(kappa, "T(3)") == 2 * (3 + 5 + 7)


def test_a_pass_that_overruns_is_killed():
    wl = workloads.WORKLOADS["verify"]
    with pytest.raises(run.PassError):
        run.run_pass(wl, [["verify", "--suite", "all", "--size", "50"]], timeout=2)

"""Acceptance gate: every numbered criterion runs at its stated tolerance and
prints one pass/fail line.  Criteria 1, 2, 4 and 7 share one seeded context
grid (d in 3..10, n in 3..6, >= 200 contexts)."""

import itertools
import math
import random
import time
from fractions import Fraction

from braidrep.criteria import (
    arithmeticity_verdict,
    density_verdict,
    eigenspace_dimension,
    find_signature_window,
    signature,
)
from braidrep.cyclo import CycloNum, euler_phi, order_of_power, units
from braidrep.horo import make_flag
from braidrep.linalg import CycloMatrix, inertia
from braidrep.rep import (
    block_twist_word,
    evaluate_word,
    galois_transport,
    lantern_block,
    make_context,
    pair_twist,
    prefix_twist,
    quotient_gram,
    radical_vector,
    transported_context,
)
from braidrep.suites import all_generators, horo_report, sample_context


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.criterion} exceeded {self.seconds}s budget"
        return False


def test_criterion_01_form_preservation(grid_contexts):
    with Budget("01 form preservation", 60.0):
        for ctx in grid_contexts:
            g = ctx.gram
            for kind, idx, m in all_generators(ctx):
                assert m.conj_transpose() @ g @ m == g, (ctx.d, ctx.weights, ctx.k, kind, idx)


def test_criterion_02_det_order_unipotency(grid_contexts):
    with Budget("02 determinant/order/unipotency", 60.0):
        for ctx in grid_contexts:
            d = ctx.d
            for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
                m = pair_twist(ctx, i, j)
                s = ctx.weights[i - 1] + ctx.weights[j - 1]
                assert m.det() == ctx.qpow(s)
                if s % d == 0:
                    assert m.is_unipotent()
                else:
                    assert m.multiplicative_order(d) == order_of_power(d, ctx.k * s)


def test_criterion_03_uniform_weight_specialization():
    with Budget("03 uniform-weight specialization", 60.0):
        for d in range(3, 11):
            for n in range(3, 7):
                for k in units(d):
                    ctx = make_context(d, (1,) * n, k)
                    q = ctx.q
                    one = CycloNum.one(d)
                    for a in range(n - 1):
                        assert ctx.gram.entry(a, a) == q - q.conj()
                    for i in range(1, n - 1):
                        assert ctx.jform(ctx.basis_vector(i), ctx.basis_vector(i + 1)) == q.conj() - one
                    expected_dim = n - 2 if (k * n) % d == 0 else n - 1
                    assert eigenspace_dimension(ctx) == expected_dim
                    r_q, s_q = signature(ctx)
                    assert r_q == math.ceil(Fraction(n * k, d) - 1)
                    assert s_q == math.ceil(n * (1 - Fraction(k, d)) - 1)
                    gram = quotient_gram(ctx) if ctx.eps0 == 1 else ctx.gram
                    assert inertia(gram, 1e-7) == (r_q, s_q, 0)


def test_criterion_04_full_twist_identity(grid_contexts):
    with Budget("04 full-twist identity", 60.0):
        for ctx in grid_contexts:
            for r in range(2, ctx.n):
                assert evaluate_word(ctx, block_twist_word(1, r)) == prefix_twist(ctx, r), (
                    ctx.d, ctx.weights, ctx.k, r,
                )


def test_criterion_05_radical_behavior(grid_contexts):
    with Budget("05 radical behavior", 60.0):
        seen = 0
        for ctx in grid_contexts:
            if ctx.eps0 != 1:
                continue
            seen += 1
            w = radical_vector(ctx)
            assert all(not x for x in ctx.gram.apply(w))
            for i in range(1, ctx.n):
                assert not ctx.jform(ctx.basis_vector(i), w)
            for _, _, m in all_generators(ctx):
                assert m.apply(w) == w
            assert quotient_gram(ctx).rank() == ctx.n - 2
        # the seeded grid must actually exercise the degenerate stratum
        assert seen >= 10, f"only {seen} degenerate contexts in the grid"


def test_criterion_06_lantern_block():
    with Budget("06 lantern block", 60.0):
        cases = [(make_context(5, (1, 1, 1, 2), 1), 3)]
        rng = random.Random(20241)
        while len(cases) < 24:
            ctx = sample_context(rng)
            r = rng.randint(3, ctx.n)
            if ctx.prefix_sums[r - 2] % ctx.d == 0 or ctx.prefix_sums[r] % ctx.d == 0:
                continue
            cases.append((ctx, r))
        for ctx, r in cases:
            d = ctx.d
            blk = lantern_block(ctx, r)
            zero, one = CycloNum.zero(d), CycloNum.one(d)
            printed_a = CycloMatrix.from_rows(d, [
                [ctx.qpow(ctx.prefix_sums[r - 2] + ctx.weights[r - 2]),
                 ctx.qpow(ctx.weights[r - 2]) - ctx.qpow(ctx.prefix_sums[r - 2] + ctx.weights[r - 2])],
                [zero, one],
            ])
            printed_b = CycloMatrix.from_rows(d, [
                [one, zero],
                [one - ctx.qpow(ctx.weights[r - 1]),
                 ctx.qpow(ctx.weights[r - 2] + ctx.weights[r - 1])],
            ])
            assert blk.A == printed_a, (ctx.d, ctx.weights, ctx.k, r)
            assert blk.B == printed_b, (ctx.d, ctx.weights, ctx.k, r)
            scalar = ctx.qpow(ctx.prefix_sums[r])
            assert blk.A @ blk.B @ blk.C == CycloMatrix.identity(d, 2).scale(scalar)
            assert blk.C.apply(blk.eigenvector) == tuple(
                blk.eigenvalue * x for x in blk.eigenvector
            )


def test_criterion_07_galois_equivariance(grid_contexts):
    with Budget("07 Galois equivariance", 120.0):
        for ctx in grid_contexts:
            for t in units(ctx.d):
                sibling = transported_context(ctx, t)
                for kind, idx, m in all_generators(ctx):
                    direct = (
                        pair_twist(sibling, *idx) if kind == "A" else prefix_twist(sibling, *idx)
                    )
                    assert galois_transport(ctx, m, t) == direct, (
                        ctx.d, ctx.weights, ctx.k, t, kind, idx,
                    )


def test_criterion_08_criteria_regression():
    with Budget("08 criteria regression", 5.0):
        assert arithmeticity_verdict(12, (7, 5, 4, 4, 4)).verdict == "unknown"
        assert arithmeticity_verdict(12, (7, 6, 5, 3, 3)).verdict == "unknown"
        assert arithmeticity_verdict(12, (7, 5, 3, 3, 3, 3)).verdict == "unknown"
        v = arithmeticity_verdict(5, (1, 1, 3, 2, 2, 1))
        assert v.verdict == "arithmetic" and v.witness == [1, 2, 3]
        assert density_verdict(7, (1, 1, 1, 1, 1, 1)).verdict == "maximal"


def test_criterion_09_horospherical_suite():
    with Budget("09 horospherical suite", 180.0):
        for d, kappa, m in ((5, (1, 1, 3, 2, 2, 1), 3), (7, (1, 1, 5, 2, 2, 3), 3)):
            ctx = make_context(d, kappa, 1)
            fc = make_flag(ctx, m)
            report, rep = horo_report(fc, seed=90, trials=50)
            assert rep.ok, rep.failures
            phi = euler_phi(d)
            assert report["ranks"]["lower"] + report["ranks"]["upper"] == phi * (ctx.n - 4)
            assert report["ranks"]["center"] == phi // 2


def test_criterion_10_window_scan_oracle():
    with Budget("10 signature-window oracle", 30.0):
        rng = random.Random(77)
        checked = 0
        while checked < 10_000:
            n = rng.randint(3, 8)
            denom = rng.randint(2, 48)
            x = [Fraction(rng.randint(1, denom - 1), denom) for _ in range(n)]
            if not 1 < sum(x) < n - 1:
                continue
            r = find_signature_window(x)
            partial = [sum(x[:j]) for j in range(n + 1)]
            valid = [
                j for j in range(3, n + 1)
                if partial[j - 2].denominator != 1
                and partial[j].denominator != 1
                and 1 < partial[j] - math.floor(partial[j - 2]) < 2
            ]
            assert r in valid, (x, r, valid)
            checked += 1

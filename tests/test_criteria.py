import itertools
import math
import random
from fractions import Fraction

import pytest

from braidrep.criteria import (
    _proper_subsets,
    arithmeticity_verdict,
    density_verdict,
    eigenspace_dimension,
    find_signature_window,
    is_good,
    signature,
)
from braidrep.errors import OutOfRange, PreconditionFailed
from braidrep.linalg import inertia
from braidrep.rep import make_context, quotient_gram

from conftest import sample_context

F = Fraction


def test_dimension():
    assert eigenspace_dimension(make_context(5, (1, 1, 1, 1), 1)) == 3
    assert eigenspace_dimension(make_context(4, (1, 1, 1, 1), 1)) == 2
    assert eigenspace_dimension(make_context(12, (7, 5, 4, 4, 4), 1)) == 3


def test_signature_closed_form_uniform_weights():
    # kappa = (1,...,1): (ceil(n k / d - 1), ceil(n (1 - k/d) - 1))
    for d in range(3, 11):
        for n in range(3, 7):
            for k in range(1, d):
                if math.gcd(k, d) != 1:
                    continue
                ctx = make_context(d, (1,) * n, k)
                r_q, s_q = signature(ctx)
                assert r_q == math.ceil(F(n * k, d) - 1)
                assert s_q == math.ceil(n * (1 - F(k, d)) - 1)
                assert r_q + s_q == eigenspace_dimension(ctx)


def test_signature_example():
    assert signature(make_context(5, (1, 1, 1, 1, 1), 1)) == (0, 3)


def test_signature_matches_inertia():
    # exhaustive in the exponent k for every sampled weight vector
    rng = random.Random(55)
    for _ in range(20):
        base = sample_context(rng)
        for k in range(1, base.d):
            if math.gcd(k, base.d) != 1:
                continue
            ctx = make_context(base.d, base.weights, k)
            gram = quotient_gram(ctx) if ctx.eps0 == 1 else ctx.gram
            r_q, s_q = signature(ctx)
            assert r_q + s_q == eigenspace_dimension(ctx)
            assert inertia(gram, 1e-7) == (r_q, s_q, 0), (ctx.d, ctx.weights, k)


def test_is_good_examples():
    assert is_good([F(1, 2)] * 3)
    assert is_good([F(1, 7)] * 4)          # clause with orders 7 and 7
    assert not is_good([F(1, 4)] * 3)      # all pair orders 2
    with pytest.raises(OutOfRange):
        is_good([F(1, 2), F(0), F(1, 2)])


def test_is_good_complement_symmetry():
    rng = random.Random(56)
    for _ in range(400):
        n = rng.randint(3, 7)
        denom = rng.randint(2, 15)
        mu = [F(rng.randint(1, denom - 1), denom) for _ in range(n)]
        assert is_good(mu) == is_good([1 - v for v in mu])


def test_density_verdicts():
    assert density_verdict(7, (1, 1, 1, 1, 1, 1)).verdict == "maximal"
    v = density_verdict(3, (1, 1, 1))
    assert v.verdict == "unknown"
    assert v.diagnostics["per_k"]["1"]["good"] is False


def test_density_direct_pair_clause():
    # dimension 2 with a coprime pair and all-good weights fires the criterion:
    # d=7, kappa=(1,1,2) has n-1-eps0 = 2, gcd(k_1+k_2, 7) = 1, and every
    # fractional sequence is good (pair orders are all 7)
    v = density_verdict(7, (1, 1, 2))
    assert v.verdict == "maximal"
    assert v.diagnostics["dimension"] == 2
    assert v.diagnostics["coprime_pair"] is not None
    # same dimension but no good sequence at k=1 stays unknown
    assert density_verdict(5, (1, 1, 2)).verdict == "unknown"


def test_density_permutation_invariance():
    rng = random.Random(57)
    for _ in range(10):
        d = rng.randint(3, 9)
        n = rng.randint(3, 5)
        kappa = [rng.randint(1, d - 1) for _ in range(n)]
        if math.gcd(d, *kappa) != 1:
            continue
        base = density_verdict(d, kappa).verdict
        shuffled = kappa[:]
        rng.shuffle(shuffled)
        assert density_verdict(d, shuffled).verdict == base


def test_arithmeticity_regressions():
    assert arithmeticity_verdict(12, (7, 5, 4, 4, 4)).verdict == "unknown"
    assert arithmeticity_verdict(12, (7, 6, 5, 3, 3)).verdict == "unknown"
    assert arithmeticity_verdict(12, (7, 5, 3, 3, 3, 3)).verdict == "unknown"
    v = arithmeticity_verdict(5, (1, 1, 3, 2, 2, 1))
    assert v.verdict == "arithmetic"
    assert v.witness == [1, 2, 3]


def test_proper_subsets_in_sorted_order():
    # the scan order arithmeticity_verdict documents, materialized and sorted
    for n in range(13):
        expected = sorted(
            combo
            for size in range(1, n)
            for combo in itertools.combinations(range(1, n + 1), size)
        )
        assert list(_proper_subsets(n)) == expected


def test_arithmeticity_mod_d_invariance():
    base = arithmeticity_verdict(5, (1, 1, 3, 2, 2, 1))
    lifted = arithmeticity_verdict(5, (6, 11, 3, 7, 2, 6))
    assert lifted.verdict == base.verdict
    assert lifted.witness == base.witness


def test_arithmeticity_permutation_invariance():
    rng = random.Random(58)
    for _ in range(10):
        d = rng.randint(3, 12)
        n = rng.randint(5, 6)
        kappa = [rng.randint(1, d - 1) for _ in range(n)]
        if math.gcd(d, *kappa) != 1:
            continue
        base = arithmeticity_verdict(d, kappa).verdict
        shuffled = kappa[:]
        rng.shuffle(shuffled)
        assert arithmeticity_verdict(d, shuffled).verdict == base


def test_find_signature_window_examples():
    assert find_signature_window([F(1, 2)] * 3) == 3
    with pytest.raises(PreconditionFailed):
        find_signature_window([F(2, 3)] * 3)      # sum equals n - 1
    with pytest.raises(PreconditionFailed):
        find_signature_window([F(1, 2), F(1, 2)])
    with pytest.raises(PreconditionFailed):
        find_signature_window([F(1, 8)] * 3)      # sum below 1


def test_find_signature_window_oracle():
    rng = random.Random(59)
    checked = 0
    while checked < 2000:
        n = rng.randint(3, 8)
        x = [F(rng.randint(1, 23), 24) for _ in range(n)]
        if not 1 < sum(x) < n - 1:
            continue
        r = find_signature_window(x)
        partial = [sum(x[:j]) for j in range(n + 1)]
        assert 3 <= r <= n
        assert partial[r - 2].denominator != 1
        assert partial[r].denominator != 1
        assert 1 < partial[r] - math.floor(partial[r - 2]) < 2
        # exhaustive scan: the returned index is among the valid ones
        valid = [
            j for j in range(3, n + 1)
            if partial[j - 2].denominator != 1
            and partial[j].denominator != 1
            and 1 < partial[j] - math.floor(partial[j - 2]) < 2
        ]
        assert r in valid
        checked += 1

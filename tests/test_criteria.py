import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import criteria
from braidrep.criteria import (
    Verdict,
    _divisible_subsets,
    arithmeticity_verdict,
    density_verdict,
    eigenspace_dimension,
    find_signature_window,
    is_good,
    signature,
)
from braidrep.cyclo import euler_phi, units
from braidrep.errors import OutOfRange, PreconditionFailed
from braidrep.linalg import inertia
from braidrep.rep import eps0_of, make_context, normalize_weights, quotient_gram
from braidrep.suites import sample_context

F = Fraction


def test_dimension():
    assert eigenspace_dimension(make_context(5, (1, 1, 1, 1), 1)) == 3
    assert eigenspace_dimension(make_context(4, (1, 1, 1, 1), 1)) == 2
    assert eigenspace_dimension(make_context(12, (7, 5, 4, 4, 4), 1)) == 3


def test_signature_closed_form_uniform_weights():
    # kappa = (1,...,1): (ceil(n k / d - 1), ceil(n (1 - k/d) - 1))
    for d in range(3, 11):
        for n in range(3, 7):
            for k in units(d):
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
        for k in units(base.d):
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


def brute_force_is_good(mu):
    """is_good by Fraction sums and their reduced denominators: the oracle."""
    mu = [Fraction(x) for x in mu]
    if any(not 0 < x < 1 for x in mu):
        raise OutOfRange(f"weights must lie strictly between 0 and 1: {mu}")
    n = len(mu)
    total = sum(mu)
    if 1 < total < n - 1:
        return True
    for i, j in itertools.combinations(range(n), 2):
        if (mu[i] + mu[j]).denominator <= 5:
            continue
        for l in range(n):
            if l in (i, j):
                continue
            if (mu[i] + mu[l]).denominator > 2 or (mu[j] + mu[l]).denominator > 2:
                return True
    return False


@st.composite
def mixed_weights(draw):
    """0..8 entries in (0, 1) over denominators 2..40 each, as Fraction or str."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        q = draw(st.integers(2, 40))
        x = F(draw(st.integers(1, q - 1)), q)
        out.append(draw(st.sampled_from((x, str(x)))))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mixed_weights())
def test_is_good_matches_fraction_oracle(mu):
    assert is_good(mu) == brute_force_is_good(mu)


def test_is_good_reads_what_fraction_reads():
    mu = ["1/2", 0.25, "0.5", F(1, 3)]
    assert is_good(mu) == brute_force_is_good([F(1, 2), F(1, 4), F(1, 2), F(1, 3)])
    assert is_good(["1/7"] * 4) and not is_good(["1/4"] * 3)


@pytest.mark.parametrize("bad", [0, 1, -1, F(-1, 3), "0", "1", "-2/7", F(7, 5), 1.0])
def test_is_good_out_of_range(bad):
    with pytest.raises(OutOfRange):
        is_good([F(1, 2), bad, F(1, 3)])


def brute_force_density(d, kappa_raw):
    """density_verdict by Fraction weights and brute_force_is_good: the oracle."""
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = eps0_of(d, kappa)
    dim = n - 1 - eps0

    per_k: dict[str, dict] = {}
    all_good = True
    for k in units(d):
        mu = [Fraction(k * ki, d) % 1 for ki in kappa]
        good = brute_force_is_good(mu)
        all_good = all_good and good
        per_k[str(k)] = {"good": good, "sum": str(sum(mu))}

    pair = next(
        (
            [i + 1, j + 1]
            for i, j in itertools.combinations(range(n), 2)
            if math.gcd(kappa[i] + kappa[j], d) == 1
        ),
        None,
    )
    dim_ok = dim >= 3 or (dim == 2 and pair is not None)
    diagnostics = {
        "per_k": per_k,
        "dimension": dim,
        "dimension_condition": dim_ok,
        "coprime_pair": pair,
    }
    if all_good and dim_ok:
        return Verdict("maximal", None, diagnostics).to_json()
    return Verdict("unknown", None, diagnostics).to_json()


@st.composite
def connected_covers(draw):
    """(d, kappa) with d 3..60, prime and composite, n 3..12 and gcd(d, kappa) = 1."""
    d = draw(st.integers(3, 60))
    kappa = draw(st.lists(st.integers(1, d - 1), min_size=3, max_size=12)
                 .filter(lambda ks: math.gcd(d, *ks) == 1))
    return d, kappa


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(connected_covers())
def test_density_matches_brute_force(case):
    d, kappa = case
    # the JSON text too: key order is part of the document
    got = density_verdict(d, kappa).to_json()
    expected = brute_force_density(d, kappa)
    assert got == expected and json.dumps(got) == json.dumps(expected)


def test_density_matches_brute_force_at_a_large_prime():
    assert density_verdict(10007, (1, 1, 1, 1, 1)).to_json() == brute_force_density(10007, (1, 1, 1, 1, 1))


@pytest.mark.parametrize("d", [3, 4, 7, 12, 30, 31, 60, 105])
def test_density_decides_each_complement_pair_once(d, monkeypatch):
    calls = []
    kernel = criteria._good_residues
    monkeypatch.setattr(criteria, "_good_residues", lambda d, r: calls.append(tuple(r)) or kernel(d, r))
    v = density_verdict(d, (1, 1, 2, d - 1))
    assert len(calls) == euler_phi(d) // 2
    assert list(v.diagnostics["per_k"]) == [str(k) for k in units(d)]


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


def sorted_proper_subsets(n):
    return sorted(
        combo
        for size in range(1, n)
        for combo in itertools.combinations(range(1, n + 1), size)
    )


def test_proper_subsets_in_sorted_order():
    # the scan order arithmeticity_verdict documents, materialized and sorted
    for n in range(13):
        expected = sorted_proper_subsets(n)
        # every sum is divisible by 1, so the walk prunes nothing
        assert list(_divisible_subsets(1, (0,) * n)) == expected


@st.composite
def raw_weights(draw):
    """(d, kappa) with d 1..40, n 0..12 and raw weights 0..3d, multiples of d included."""
    d = draw(st.integers(1, 40))
    n = draw(st.integers(0, 12))
    return d, [draw(st.integers(0, 3 * d)) for _ in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw_weights())
def test_divisible_subsets_oracle(case):
    d, kappa = case
    expected = [
        combo for combo in sorted_proper_subsets(len(kappa))
        if sum(kappa[i - 1] for i in combo) % d == 0
    ]
    assert list(_divisible_subsets(d, kappa)) == expected


def test_divisible_subsets_huge_degree():
    # n * d is far beyond the mask budget: the walk prunes nothing, yields the
    # same subsets and allocates no d-bit masks
    d = 10**18
    kappa = [d - 1, 1, 3, d - 3, 5, 7]
    expected = [(1, 2), (1, 2, 3, 4), (3, 4)]
    assert list(_divisible_subsets(d, kappa)) == expected
    v = arithmeticity_verdict(d, kappa)
    assert v.to_json() == brute_force_arithmeticity(d, kappa)


def brute_force_arithmeticity(d, kappa_raw):
    """arithmeticity_verdict as a scan of every sorted proper subset: the oracle."""
    kappa = normalize_weights(d, tuple(kappa_raw))
    n = len(kappa)
    eps0 = 1 if sum(kappa) % d == 0 else 0
    total = F(sum(kappa), d)
    size_ok = n + 1 - eps0 >= 5
    small_d_ok = d not in (3, 4, 6) or 2 < total < n - 2
    diagnostics = {"size_condition": size_ok, "small_d_condition": small_d_ok, "subsets": []}
    witness = None
    if size_ok and small_d_ok:
        for combo in sorted_proper_subsets(n):
            inside = [kappa[i - 1] for i in combo]
            if sum(inside) % d != 0:
                continue
            outside = [kappa[i - 1] for i in range(1, n + 1) if i not in combo]
            cond_ii = len(combo) < 3 or math.gcd(d, *inside) == 1
            cond_iii = len(combo) > n - 2 - eps0 or math.gcd(d, *outside) == 1
            diagnostics["subsets"].append(
                {"I": list(combo), "divisible": True, "ii": cond_ii, "iii": cond_iii}
            )
            if cond_ii and cond_iii:
                witness = list(combo)
                break
    return {
        "verdict": "arithmetic" if witness else "unknown",
        "witness": witness or [],
        "diagnostics": diagnostics,
    }


def test_arithmeticity_matches_brute_force():
    rng = random.Random(60)
    logged = 0
    for d in (12, 18, 20, 24, 30):
        checked = 0
        while checked < 100:
            n = rng.randint(3, 12)
            kappa = [rng.randint(1, d - 1) for _ in range(n)]
            if math.gcd(d, *kappa) != 1:
                continue
            expected = brute_force_arithmeticity(d, kappa)
            assert arithmeticity_verdict(d, kappa).to_json() == expected, (d, kappa)
            logged += len(expected["diagnostics"]["subsets"]) > 1
            checked += 1
    assert logged                  # some logs hold subsets that failed (ii) or (iii)


def test_arithmeticity_scan_is_output_sensitive():
    # no proper subset of forty 1s sums to 61: the scan prunes at the root
    # instead of visiting 2^40 subsets
    v = arithmeticity_verdict(61, (1,) * 40)
    assert v.verdict == "unknown"
    assert v.diagnostics["subsets"] == []
    # eps0 = 1 and only the full set is divisible: reachable, never logged
    v = arithmeticity_verdict(41, (1,) * 41)
    assert v.verdict == "unknown"
    assert v.diagnostics["subsets"] == []


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

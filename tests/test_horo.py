import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from braidrep.cyclo import CycloNum, euler_phi, from_coeffs, units
from braidrep import horo, linalg, suites
from braidrep.errors import (
    BadM,
    ConstraintViolation,
    NotDegenerate,
    NotParabolicElement,
    NotUnipotentElement,
    ShapeMismatch,
    Singular,
)
from braidrep.horo import (
    LOWER,
    UPPER,
    center_lattice_vectors,
    commutator_pairing,
    conjugation_action,
    corner_entry,
    in_parabolic,
    in_unipotent,
    make_flag,
    orbit_vectors,
    part_pairs,
    part_slice,
    part_witness,
    translation_part,
    upper_half_exponents,
    witness,
    witness_parts,
    word_flag_matrix,
)
from braidrep.linalg import CycloMatrix, RationalSpan, matrix_to_json, rank_over_rationals, realify, solve_rational
from braidrep.rep import (
    BraidWord,
    commutator,
    evaluate_quotient,
    evaluate_word,
    make_context,
    pair_twist,
    quotient_gram,
    quotient_matrix,
    transported_context,
)
from braidrep.suites import horo_report

CASES = [
    (5, (1, 1, 3, 2, 2, 1), 3),
    (7, (1, 1, 5, 2, 2, 3), 3),
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"d{c[0]}")
def flag(request):
    d, kappa, m = request.param
    return make_flag(make_context(d, kappa, 1), m)


def unit_vec(fc, idx):
    d = fc.ctx.d
    one, zero = CycloNum.one(d), CycloNum.zero(d)
    return tuple(one if t == idx else zero for t in range(fc.ctx.n - 2))


def test_make_flag_validation():
    ctx = make_context(5, (1, 1, 3, 2, 2, 1), 1)
    assert make_flag(ctx, 3).middle_size == 2
    with pytest.raises(BadM):
        make_flag(ctx, 4)            # d does not divide k_1 + ... + k_4
    with pytest.raises(BadM):
        make_flag(ctx, 1)
    with pytest.raises(NotDegenerate):
        make_flag(make_context(5, (1, 1, 1), 1), 2)


def test_flag_gram_shape(flag):
    fc = flag
    s = fc.middle_size
    gf = fc.gram_flag
    assert not gf.entry(0, 0)
    assert gf.entry(0, s + 1) == -fc.mu
    assert gf.entry(s + 1, 0) == fc.mu
    # the isotropic generator pairs to zero against the whole middle block
    for t in range(1, s + 1):
        assert not gf.entry(0, t) and not gf.entry(t, 0)
    assert fc.G_W.conj_transpose() == -fc.G_W
    assert fc.G_W @ fc.G_W_inv == CycloMatrix.identity(fc.ctx.d, s)


def test_identity_membership(flag):
    ident = BraidWord()
    assert word_flag_matrix(flag, ident) == CycloMatrix.identity(flag.ctx.d, flag.ctx.n - 2)
    assert in_parabolic(flag, ident)
    assert in_unipotent(flag, ident)
    assert translation_part(flag, ident) == tuple(
        CycloNum.zero(flag.ctx.d) for _ in range(flag.middle_size)
    )


def test_puncture_groups_are_parabolic(flag):
    fc = flag
    ctx, m, n = fc.ctx, fc.m, fc.ctx.n
    lower = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    upper = [(i, j) for i in range(m + 1, n + 1) for j in range(i + 1, n + 1)]
    assert horo.part_pairs(fc, LOWER) == lower and horo.part_pairs(fc, UPPER) == upper
    for i, j in lower + upper:
        mat = quotient_matrix(ctx, pair_twist(ctx, i, j))
        assert word_flag_matrix(fc, BraidWord.A(i, j)) == _by_inverse(fc, mat), (i, j)
        assert in_parabolic(fc, BraidWord.A(i, j)), (i, j)
    # a pair crossing the flag index does not preserve the flag
    crossing = BraidWord.A(m, m + 1)
    assert word_flag_matrix(fc, crossing) == _by_inverse(fc, quotient_matrix(ctx, pair_twist(ctx, m, m + 1)))
    assert not in_parabolic(fc, crossing)
    assert not in_unipotent(fc, crossing)


def test_witness_preconditions():
    ctx = make_context(4, (1, 1, 1, 1, 3, 1), 1)   # prefix sums 1,2,3,4,...
    fc = make_flag(ctx, 4)
    assert horo.witness_parts(fc) == (LOWER,)
    with pytest.raises(BadM):
        witness(fc, UPPER)                          # n - m = 2
    ctx2 = make_context(4, (1, 3, 1, 1, 1, 1), 1)
    fc2 = make_flag(ctx2, 2)
    assert horo.witness_parts(fc2) == (UPPER,)
    with pytest.raises(BadM):
        witness(fc2, LOWER)                         # m = 2


def test_a_bad_part_name_is_an_error():
    fc = make_flag(make_context(11, (1, 1, 9, 1, 1, 1, 1, 7), 1), 3)
    for reader in (horo.part_slice, horo.full_rank, witness, orbit_vectors, part_pairs):
        with pytest.raises(ValueError, match="'middle'"):
            reader(fc, "middle")


@pytest.mark.parametrize("n, m", [(n, m) for n in range(4, 13) for m in range(2, n - 1)])
def test_parts_tile_the_middle_block_and_the_punctures(n, m):
    """The lower block holds the middle flag columns g_a with a < m, the
    upper those with a > m; the punctures split at m."""
    d = 13
    kappa = (1,) * (m - 1) + (d - m + 1,) + (1,) * (n - m - 1) + (d - n + m + 1,)
    fc = make_flag(make_context(d, kappa, 1), m)
    lower, upper = (horo._part(n, m, part) for part in (LOWER, UPPER))
    middle = [a + 1 for a in horo.flag_columns(n, m)[:-1]]  # a of each g_a
    assert [*lower.block, *upper.block] == list(range(n - 4)) == list(range(len(middle)))
    assert [middle[i] for i in lower.block] == [a for a in middle if a < m]
    assert [middle[i] for i in upper.block] == [a for a in middle if a > m]
    assert [*lower.punctures, *upper.punctures] == list(range(1, n + 1))
    assert horo.full_rank(fc, LOWER) + horo.full_rank(fc, UPPER) == euler_phi(d) * (n - 4)


def test_witnesses_unipotent_with_itemized_images(flag):
    fc = flag
    ctx, m, n, d = fc.ctx, fc.m, fc.ctx.n, fc.ctx.d
    one = CycloNum.one(d)
    wl, wu = witness(fc, LOWER), witness(fc, UPPER)
    mt = evaluate_quotient(ctx, wl)
    assert in_unipotent(fc, wl)
    assert in_unipotent(fc, wu)
    nu, nup = translation_part(fc, wl), translation_part(fc, wu)
    assert any(nu[part_slice(fc, LOWER)]) and not any(nu[part_slice(fc, UPPER)])
    assert any(nup[part_slice(fc, UPPER)]) and not any(nup[part_slice(fc, LOWER)])
    # itemized images of the lower witness
    coef = ctx.qpow(-ctx.weights[m - 1]) - one
    g = unit_vec(fc, m - 3)
    assert mt.apply(g) == tuple(a + coef * b for a, b in zip(g, fc.w))
    for i in list(range(1, m - 2)) + list(range(m + 2, n - 1)):
        assert mt.apply(unit_vec(fc, i - 1)) == unit_vec(fc, i - 1)


def test_translation_part_additive(flag):
    fc = flag
    wl, wu = witness(fc, LOWER), witness(fc, UPPER)
    mt, mtp = evaluate_quotient(fc.ctx, wl), evaluate_quotient(fc.ctx, wu)
    nu, nup = translation_part(fc, wl), translation_part(fc, wu)
    # the product words' flag matrices are those of the products of the images
    assert word_flag_matrix(fc, wl * wu) == _by_inverse(fc, mt @ mtp)
    assert word_flag_matrix(fc, wl * wl) == _by_inverse(fc, mt @ mt)
    assert translation_part(fc, wl * wu) == tuple(a + b for a, b in zip(nu, nup))
    assert translation_part(fc, wl * wl) == tuple(a + a for a in nu)
    with pytest.raises(NotUnipotentElement):
        translation_part(fc, BraidWord.A(1, 2))


def test_conjugation_action(flag):
    fc = flag
    ctx, m, n = fc.ctx, fc.m, fc.ctx.n
    base_word = witness(fc, LOWER)
    base = evaluate_quotient(ctx, base_word)
    nu = translation_part(fc, base_word)
    assert conjugation_action(fc, BraidWord(), nu) == nu
    rng = random.Random(ctx.d)
    gens = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    gens += [(i, j) for i in range(m + 1, n + 1) for j in range(i + 1, n + 1)]
    for _ in range(15):
        word = BraidWord()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.choice(gens)
            word = word * BraidWord.A(i, j, rng.choice((1, -1)))
        a_mat = evaluate_quotient(ctx, word)
        conj = word * base_word * word.inverse()
        assert word_flag_matrix(fc, conj) == _by_inverse(fc, a_mat @ base @ a_mat.inverse())
        assert translation_part(fc, conj) == conjugation_action(fc, word, nu)
    crossing = BraidWord.A(m, m + 1)
    assert not in_parabolic(fc, crossing)
    with pytest.raises(NotParabolicElement):
        conjugation_action(fc, crossing, nu)


def test_word_with_a_crossing_letter_is_not_parabolic(flag):
    # every letter must preserve the flag, wherever it stands in the word
    fc = flag
    m = fc.m
    nu = part_witness(fc, LOWER)
    crossing = BraidWord.A(m, m + 1)
    for word in (crossing, BraidWord.A(1, 2) * crossing, crossing.inverse() * BraidWord.A(m + 1, m + 2),
                 crossing * crossing.inverse()):
        with pytest.raises(NotParabolicElement):
            conjugation_action(fc, word, nu)
    with pytest.raises(ShapeMismatch):
        conjugation_action(fc, BraidWord(), nu[:-1])


def test_conjugation_action_of_short_words_at_n8():
    fc = make_flag(make_context(N8[0], N8[1], 1), N8[2])
    rng = random.Random(8)
    gens = part_pairs(fc, LOWER) + part_pairs(fc, UPPER)
    for part in (LOWER, UPPER):
        base = witness(fc, part)
        nu = part_witness(fc, part)
        for length in (1, 2, 3):
            for _ in range(3):
                word = BraidWord()
                for _ in range(length):
                    word = word * BraidWord.A(*rng.choice(gens), rng.choice((1, -1)))
                conj = word * base * word.inverse()
                assert translation_part(fc, conj) == conjugation_action(fc, word, nu), (part, str(word))


def test_letter_flag_matrices_built_once_per_flag_context(flag, monkeypatch):
    fc = make_flag(flag.ctx, flag.m)
    # word_flag_matrix builds each flag matrix through one fold of its word
    calls = []
    real = horo._factored_word

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(horo, "_factored_word", counting)
    nu = translation_part(fc, witness(fc, LOWER))
    assert translation_part(fc, witness(fc, LOWER)) == nu
    assert len(calls) == 1
    a = BraidWord.A(1, 2)
    conjugation_action(fc, a, nu)
    assert len(calls) == 3                       # F(a) and F(a^-1)
    for word in (a, a.inverse(), a * a.inverse() * a):
        conjugation_action(fc, word, nu)
    assert len(calls) == 3
    conjugation_action(fc, a * BraidWord.A(1, 3, -1), nu)
    assert len(calls) == 5
    orbit_vectors(fc, LOWER)                     # the orbit reads the same table
    # the witness's flag matrix, and F(a), F(a^-1) of each lower generator
    assert len(calls) == 1 + 2 * len(part_pairs(fc, LOWER))
    # one n = 8 battery builds F(a), F(a^-1) of each of its 13 generators
    # once, shared by the check that they preserve the flag; each witness's
    # once, shared by its checks and its orbit; then one per conjugation
    # trial, the additivity product and one of the commutator; only the
    # lower witness's quotient image is evaluated, once, for its itemized
    # images
    calls.clear()
    evaluated = []
    real_evaluate = suites.evaluate_quotient
    monkeypatch.setattr(suites, "evaluate_quotient",
                        lambda ctx, word: evaluated.append(word) or real_evaluate(ctx, word))
    fc = make_flag(make_context(N8[0], N8[1], 1), N8[2])
    report, _ = horo_report(fc)
    assert report["failed"] == 0
    gens = part_pairs(fc, LOWER) + part_pairs(fc, UPPER)
    assert len(calls) == 2 * len(gens) + 2 + 20 + 1 + 1 == 50
    assert [evaluated.count(witness(fc, part)) for part in (LOWER, UPPER)] == [1, 0]


def test_lower_group_acts_trivially_on_upper_block(flag):
    fc = flag
    m, n = fc.m, fc.ctx.n
    nup = part_witness(fc, UPPER)
    for i, j in [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]:
        for e in (1, -1):
            assert conjugation_action(fc, BraidWord.A(i, j, e), nup) == nup, (i, j, e)
    nu = part_witness(fc, LOWER)
    for i, j in [(i, j) for i in range(m + 1, n + 1) for j in range(i + 1, n + 1)]:
        for e in (1, -1):
            assert conjugation_action(fc, BraidWord.A(i, j, e), nu) == nu, (i, j, e)


def test_commutator_lands_in_center(flag):
    fc = flag
    wl, wu = witness(fc, LOWER), witness(fc, UPPER)
    mt, mtp = evaluate_quotient(fc.ctx, wl), evaluate_quotient(fc.ctx, wu)
    comm = commutator(wl, wu)
    assert word_flag_matrix(fc, comm) == _by_inverse(fc, mt @ mtp @ mt.inverse() @ mtp.inverse())
    assert in_unipotent(fc, comm)
    assert not any(translation_part(fc, comm))
    val = commutator_pairing(fc, translation_part(fc, wl), translation_part(fc, wu))
    assert corner_entry(fc, comm) == val
    assert val.is_real()


@pytest.mark.parametrize("d,kappa,m", [*suites.HORO_CASES, (11, (1, 1, 9, 1, 1, 1, 1, 7), 3)],
                         ids=lambda c: str(c))
def test_commutator_corner_equals_a_nonzero_pairing(d, kappa, m):
    """The lower and upper witnesses braid disjoint punctures and pair to 0,
    so the battery's corner check compares 0 with 0.  A witness W and its
    conjugate V = a W a^-1 by a generator a of its own part pair non-zero
    for some a; for every a, [W, V] is unipotent and central and its
    corner is the pairing of their translation parts."""
    fc = make_flag(make_context(d, kappa, 1), m)
    assert witness_parts(fc) == (LOWER, UPPER)
    for part in witness_parts(fc):
        w = witness(fc, part)
        x = translation_part(fc, w)
        pairings = []
        for i, j in part_pairs(fc, part):
            a = BraidWord.A(i, j)
            conj = a * w * a.inverse()
            comm = commutator(w, conj)
            assert in_unipotent(fc, comm)
            assert not any(translation_part(fc, comm))
            pairings.append(commutator_pairing(fc, x, translation_part(fc, conj)))
            assert corner_entry(fc, comm) == pairings[-1], (part, i, j)
        assert any(pairings), part


def test_pairing_properties(flag):
    fc = flag
    d = fc.ctx.d
    phi = euler_phi(d)
    rng = random.Random(71)

    def rvec():
        return tuple(
            from_coeffs(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(phi)])
            for _ in range(fc.middle_size)
        )

    exponents = tuple(units(d))
    for _ in range(8):
        x, y, z = rvec(), rvec(), rvec()
        val = commutator_pairing(fc, x, y)
        assert val.is_real()
        assert commutator_pairing(fc, x, x).is_zero()
        assert commutator_pairing(fc, y, x) == -val
        assert commutator_pairing(fc, tuple(a + b for a, b in zip(x, z)), y) == val + commutator_pairing(fc, z, y)
        t = rng.choice(exponents)
        sibling = make_flag(transported_context(fc.ctx, t), fc.m)
        assert commutator_pairing(
            sibling,
            tuple(e.galois(t) for e in x),
            tuple(e.galois(t) for e in y),
        ) == val.galois(t)


def test_orbit_rank(flag):
    fc = flag
    phi = euler_phi(fc.ctx.d)
    m, n = fc.m, fc.ctx.n
    lo = orbit_vectors(fc, LOWER)
    hi = orbit_vectors(fc, UPPER)
    assert len(lo) == phi * (m - 2) == horo.full_rank(fc, LOWER)
    assert len(hi) == phi * (n - m - 2) == horo.full_rank(fc, UPPER)
    assert len(lo) + len(hi) == phi * (n - 4)
    # the basis starts at the witness and is independent over Q
    assert lo[0] == part_witness(fc, LOWER)
    assert rank_over_rationals(lo) == len(lo)
    # a copy: the caller cannot change the memoized orbit
    lo.clear()
    assert len(orbit_vectors(fc, LOWER)) == horo.full_rank(fc, LOWER)


def reference_orbit(fc, part, maxlen, rank_bound=None):
    """The orbit BFS as one loop with nothing shared: the oracle for orbit_vectors."""
    s = fc.middle_size
    actions = []
    for i, j in part_pairs(fc, part):
        f = _by_inverse(fc, evaluate_quotient(fc.ctx, BraidWord.A(i, j)))
        lam, middle = f.entry(0, 0), f.submatrix(range(1, s + 1), range(1, s + 1))
        actions += [(lam, middle.inverse()), (lam.inv(), middle)]
    start = part_witness(fc, part)
    seen, frontier, collected = {start}, [start], [start]
    for _ in range(maxlen):
        if rank_bound is not None and rank_over_rationals(collected) >= rank_bound:
            break
        new_frontier = []
        for v in frontier:
            for lam, c_inv in actions:
                image = horo._row_action(fc, lam, c_inv, v)
                if image not in seen:
                    seen.add(image)
                    new_frontier.append(image)
                    collected.append(image)
        frontier = new_frontier
    return collected


def greedy_basis(vectors, bound):
    """The vectors that enlarge a RationalSpan fed in order, up to rank bound."""
    span, basis = RationalSpan(), []
    for v in vectors:
        if len(basis) < bound and span.add(v):
            basis.append(v)
    return basis


@pytest.mark.parametrize("d,kappa,m", CASES, ids=lambda c: str(c))
def test_orbit_computed_once_per_part(monkeypatch, d, kappa, m):
    fc = make_flag(make_context(d, kappa, 1), m)
    phi = euler_phi(d)
    bounds = {LOWER: phi * (m - 2), UPPER: phi * (len(kappa) - m - 2)}
    witnessed = []
    monkeypatch.setattr(
        horo, "part_witness", lambda fc, part: witnessed.append(part) or part_witness(fc, part)
    )
    # repeated calls and the center all read one orbit per part
    for part in (LOWER, UPPER):
        expected = greedy_basis(reference_orbit(fc, part, 8, bounds[part]), bounds[part])
        for _ in range(2):
            assert orbit_vectors(fc, part) == expected
        assert len(expected) == bounds[part]
    center_lattice_vectors(fc)
    assert witnessed == [LOWER, UPPER]


def test_each_orbit_vector_is_reduced_once(monkeypatch):
    # one full battery at n = 8: every distinct image of the orbits enters a
    # RationalSpan once, and the one Q-rank elimination left is the center's
    added, ranked = [], []
    span_add, rank_q = RationalSpan.add, horo.rank_over_rationals
    monkeypatch.setattr(RationalSpan, "add", lambda span, v: added.append(v) or span_add(span, v))
    monkeypatch.setattr(horo, "rank_over_rationals", lambda vs: ranked.append(vs) or rank_q(vs))
    fc = make_flag(make_context(11, (1, 1, 9, 1, 1, 1, 1, 7), 1), 3)
    report, _ = horo_report(fc)
    assert report["failed"] == 0
    assert report["ranks"] == {LOWER: 10, UPPER: 30, "center": 5}
    seen = [v for part in (LOWER, UPPER) for v in fc.orbits[part].seen]
    assert len(added) == len(seen) == len(set(added)) and set(added) == set(seen)
    assert len(ranked) == 1


def orbit_work(monkeypatch, d, kappa, m):
    """Per part: the images formed (calls of horo._row_action) and the
    RationalSpan.add calls of orbit_vectors, which must reach full rank."""
    fc = make_flag(make_context(d, kappa, 1), m)
    counts = {"images": 0, "adds": 0}
    row_action, span_add = horo._row_action, RationalSpan.add

    def counted(key, fn):
        return lambda *a: counts.__setitem__(key, counts[key] + 1) or fn(*a)

    monkeypatch.setattr(horo, "_row_action", counted("images", row_action))
    monkeypatch.setattr(RationalSpan, "add", counted("adds", span_add))
    work = {}
    for part in (LOWER, UPPER):
        before = dict(counts)
        assert len(orbit_vectors(fc, part)) == horo.full_rank(fc, part)
        work[part] = {key: counts[key] - before[key] for key in counts}
    return fc, work


def test_orbit_work_equals_the_breadth_first_orbit_at_n8(monkeypatch):
    # the seen set skips images already formed: at d = 11 the orbits stop at
    # full rank after 128 images and 83 adds, as the breadth-first orbit of
    # every vector did
    _, work = orbit_work(monkeypatch, *N8)
    assert sum(w["images"] for w in work.values()) == 128
    assert sum(w["adds"] for w in work.values()) == 83


def test_orbit_work_is_bounded_by_basis_times_actions(monkeypatch):
    # only basis vectors are acted on: at most full rank times the
    # 2 * len(part_pairs) actions per part, 1452 images in all at n = 8,
    # d = 23, where whole levels grow about 15-fold
    fc, work = orbit_work(monkeypatch, 23, (1, 1, 21, 1, 1, 1, 1, 19), 3)
    for part in (LOWER, UPPER):
        assert work[part]["images"] <= horo.full_rank(fc, part) * 2 * len(part_pairs(fc, part))
        assert work[part]["adds"] <= work[part]["images"] + 1


def _off_block(fc, c_inv):
    """c_inv with a 1 in the first upper block row at the lower block's column 0."""
    rows = c_inv.to_lists()
    rows[part_slice(fc, UPPER).start][0] = CycloNum.one(fc.ctx.d)
    return CycloMatrix.from_rows(fc.ctx.d, rows)


def test_orbit_vector_off_its_block_is_named(monkeypatch):
    d, kappa, m = CASES[0]
    one = CycloNum.one(d)
    fc = make_flag(make_context(d, kappa, 1), m)
    # the witness itself is checked ...
    monkeypatch.setattr(horo, "part_witness", lambda fc, part: (one,) * fc.middle_size)
    with pytest.raises(ConstraintViolation):
        orbit_vectors(fc, LOWER)
    monkeypatch.undo()
    # ... and so is every action, whose block rows of C^-1 would move an
    # image off the block
    real = horo._letter_action
    monkeypatch.setattr(horo, "_letter_action", lambda fc, letter: (real(fc, letter)[0],
                                                                    _off_block(fc, real(fc, letter)[1])))
    with pytest.raises(ConstraintViolation):
        orbit_vectors(fc, UPPER)


def test_orbit_fault_is_raised_again(monkeypatch):
    # a spin that raised memoizes no orbit: every call raises again, and
    # no later call reads a cut orbit
    d, kappa, m = CASES[0]
    fc = make_flag(make_context(d, kappa, 1), m)
    first, real = (("A", *part_pairs(fc, UPPER)[0]), 1), horo._letter_action

    def faulty(fc, letter):
        # off the block for the first action only
        lam, c_inv = real(fc, letter)
        return (lam, _off_block(fc, c_inv)) if letter == first else (lam, c_inv)

    monkeypatch.setattr(horo, "_letter_action", faulty)
    for call in (orbit_vectors, orbit_vectors, lambda fc, part: center_lattice_vectors(fc)):
        with pytest.raises(ConstraintViolation):
            call(fc, UPPER)
        assert UPPER not in fc.orbits
    monkeypatch.undo()
    bound = horo.full_rank(fc, UPPER)
    assert orbit_vectors(fc, UPPER) == greedy_basis(reference_orbit(fc, UPPER, 8, bound), bound)


def test_part_witness_supported(flag):
    fc = flag
    nu = part_witness(fc, LOWER)
    assert any(nu[part_slice(fc, LOWER)]) and not any(nu[part_slice(fc, UPPER)])


def test_upper_half_exponents():
    for d, k in ((5, 1), (7, 1), (12, 5), (9, 2)):
        exps = upper_half_exponents(d, k)
        assert len(exps) == euler_phi(d) // 2
        from braidrep.cyclo import zeta

        for t in exps:
            assert zeta(d, (t * k) % d).embed().imag > 0


def test_center_lattice_vectors(flag):
    fc = flag
    ell = euler_phi(fc.ctx.d) // 2
    vectors, rank = center_lattice_vectors(fc)
    assert rank == ell
    assert len(vectors) == ell
    for v in vectors:
        assert len(v) == ell
        for entry in v:
            assert entry.is_real()


def test_make_flag_arrow_shape_is_checked(monkeypatch):
    # a Gram matrix that breaks the isotropy of w must be reported by name
    monkeypatch.setattr(
        horo, "quotient_gram",
        lambda ctx: quotient_gram(ctx) + CycloMatrix.identity(ctx.d, ctx.n - 2),
    )
    with pytest.raises(ConstraintViolation):
        make_flag(make_context(5, (1, 1, 3, 2, 2, 1), 1), 3)


def test_center_lattice_unsolvable_is_named(monkeypatch):
    # one target of the one solve left unsolved is enough
    fc = make_flag(make_context(5, (1, 1, 3, 2, 2, 1), 1), 3)
    monkeypatch.setattr(horo, "solve_rational", lambda columns, targets: solve_rational(columns, targets)[:-1] + [None])
    with pytest.raises(Singular):
        center_lattice_vectors(fc)


N8 = (11, (1, 1, 9, 1, 1, 1, 1, 7), 3)
# the kappas of the horo benchmark workload (d = 11, m = 3) and the horo
# document pinned in tests/test_cli.py that has both witnesses (the other
# two have one, and center_lattice_vectors raises BadM for them)
CENTER_CASES = [(11, (1, 1, 9, 1, 1, 1, 1, 7), 3), (11, (1, 1, 9, 1, 1, 1, 2, 6), 3),
                (11, (1, 1, 9, 1, 2, 1, 1, 6), 3), (11, (1, 1, 9, 1, 1, 1, 1, 1, 6), 3)]


@pytest.mark.parametrize("entry,message", [((3, 4), "differs from G_W by structure"),
                                           ((4, 3), "not tridiagonal per part")])
def test_make_flag_checks_g_w_by_structure(monkeypatch, entry, message):
    # a Gram matrix that keeps the arrow shape but is not anti-Hermitian where
    # only P* G P reads it, or not tridiagonal where middle_gram reads it
    def patched(ctx):
        rows = quotient_gram(ctx).to_lists()
        rows[entry[0]][entry[1]] += CycloNum.one(ctx.d)
        return CycloMatrix.from_rows(ctx.d, rows)

    monkeypatch.setattr(horo, "quotient_gram", patched)
    with pytest.raises(ConstraintViolation, match=message):
        make_flag(make_context(N8[0], N8[1], 1), N8[2])


@pytest.mark.parametrize("d,kappa,m", CASES + CENTER_CASES, ids=lambda c: str(c))
def test_sibling_pairing_matches_the_sibling_flag(d, kappa, m):
    """For every unit t, middle_gram of the transported context gives the
    G_W^-1 and mu of make_flag there, G_W is the middle block of that flag's
    P* G P and G_W^-1 its inverse by elimination, and a Pairing of them pairs
    as the sibling flag does."""
    ctx = make_context(d, kappa, 1)
    rng = random.Random(d)
    phi = euler_phi(d)
    for t in units(d):
        sibling_ctx = transported_context(ctx, t)
        fc = make_flag(sibling_ctx, m)
        G_W, G_W_inv = horo.middle_gram(sibling_ctx, m)
        s = fc.middle_size
        assert G_W == fc.gram_flag.submatrix(range(1, s + 1), range(1, s + 1))
        assert (G_W_inv, sibling_ctx.mu) == (fc.G_W_inv, fc.mu) and G_W_inv == G_W.inverse()
        x, y = ([from_coeffs(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(phi)])
                 for _ in range(s)] for _ in range(2))
        assert commutator_pairing(horo.Pairing(G_W_inv, sibling_ctx.mu), x, y) == commutator_pairing(fc, x, y)


def test_battery_builds_one_sibling_per_exponent(monkeypatch):
    # the battery's own flag is its one make_flag; a sibling is a middle_gram
    # of the transported context, once per distinct exponent drawn
    flags, grams = [], []
    real_flag, real_gram = horo.make_flag, horo.middle_gram
    monkeypatch.setattr(horo, "make_flag", lambda ctx, m: flags.append(ctx) or real_flag(ctx, m))
    monkeypatch.setattr(horo, "middle_gram", lambda ctx, m: grams.append(ctx.k) or real_gram(ctx, m))
    fc = real_flag(make_context(N8[0], N8[1], 1), N8[2])
    grams.clear()
    report, _ = horo_report(fc, seed=3)
    assert report["failed"] == 0 and flags == []
    # seed 3 draws one of its five exponents twice
    assert sorted(grams) == sorted(set(grams)) and len(grams) == 4


def test_report_holds_the_library_values():
    # the report keeps field elements as values, the ones the library
    # functions return; only the CLI writes them as strings
    d, kappa, m = CENTER_CASES[0]
    fc = make_flag(make_context(d, kappa, 1), m)
    report, _ = horo_report(fc)
    assert report["failed"] == 0
    assert report["center_vectors"] == center_lattice_vectors(fc)[0]
    for part in (LOWER, UPPER):
        assert report["translation_parts"][part] == part_witness(fc, part)
    assert all(isinstance(v, CycloNum) and v.is_real() for v in report["omega_samples"])


@pytest.mark.parametrize("d,kappa,m", CENTER_CASES + [(47, (1, 1, 45, 1, 1, 45), 3)], ids=lambda c: str(c))
def test_center_rank_from_first_components_is_the_full_rank(d, kappa, m):
    vectors, rank = center_lattice_vectors(make_flag(make_context(d, kappa, 1), m))
    assert rank == rank_over_rationals(vectors) == euler_phi(d) // 2


@pytest.mark.parametrize("d,kappa,m", CASES + CENTER_CASES, ids=lambda c: str(c))
def test_center_block_solve_matches_the_full_solve(d, kappa, m, monkeypatch):
    """center_lattice_vectors solves on the pivot's part block alone; the
    solve over the whole two-part basis gives the same coordinates there
    and 0 on the other part."""
    fc = make_flag(make_context(d, kappa, 1), m)
    solves = []

    def recording(columns, targets):
        solves.append((columns, targets, solve_rational(columns, targets)))
        return solves[-1][2]

    monkeypatch.setattr(horo, "solve_rational", recording)
    center_lattice_vectors(fc)
    bases = {part: orbit_vectors(fc, part) for part in (LOWER, UPPER)}
    assert all(len(bases[part]) == horo.full_rank(fc, part) for part in (LOWER, UPPER))
    full = [realify(b) for b in bases[LOWER] + bases[UPPER]]
    phi = euler_phi(d)
    # one solve, with one target per real-subfield basis element
    assert len(solves) == 1
    columns, targets, solutions = solves[0]
    assert len(targets) == len(solutions) == phi // 2
    part = next(p for p in (LOWER, UPPER)
                if columns == [realify(b[horo.part_slice(fc, p)]) for b in bases[p]])
    sl = horo.part_slice(fc, part)
    assert len(columns) == phi * (sl.stop - sl.start) < len(full)
    padded = []
    for target in targets:
        assert any(target)  # a multiple of the pivot vector, which lies in this block
        padded.append([0] * (phi * sl.start) + target + [0] * (phi * (fc.middle_size - sl.stop)))
    zeros = [0] * len(bases[UPPER if part == LOWER else LOWER])
    assert solve_rational(full, padded) == [coords + zeros if part == LOWER else zeros + coords
                                            for coords in solutions]


@pytest.mark.parametrize("d,kappa,m", CASES + [N8], ids=lambda c: str(c))
def test_orbit_resumes_after_stopping_mid_level(d, kappa, m):
    # the orbit stops at full rank, and later calls and the center read the
    # one spun orbit
    fc = make_flag(make_context(d, kappa, 1), m)
    for part in (LOWER, UPPER):
        assert len(orbit_vectors(fc, part)) == horo.full_rank(fc, part)
    center_lattice_vectors(fc)
    for part in (LOWER, UPPER):
        bound = horo.full_rank(fc, part)
        expected = reference_orbit(fc, part, 8, bound)
        assert orbit_vectors(fc, part) == greedy_basis(expected, bound)
        # only images of basis vectors are formed, up to the one that makes
        # the rank full: a strict part of the breadth-first orbit, whose
        # vectors vanish off the block in whose coordinates the orbit spins
        sl = horo.part_slice(fc, part)
        assert all(not any(v[: sl.start]) and not any(v[sl.stop :]) for v in expected)
        assert fc.orbits[part].seen < {v[sl] for v in expected}


def test_battery_adds_no_orbit_vector_after_full_rank(monkeypatch):
    added = []
    span_add = RationalSpan.add
    monkeypatch.setattr(RationalSpan, "add", lambda span, v: added.append((span, v)) or span_add(span, v))
    fc = make_flag(make_context(N8[0], N8[1], 1), N8[2])
    report, _ = horo_report(fc)
    assert report["failed"] == 0
    for part in (LOWER, UPPER):
        orbit = fc.orbits[part]
        assert len(orbit.basis) == horo.full_rank(fc, part)
        # the last vector the orbit's span took is the one that made it full
        assert [v for span, v in added if span is orbit.span][-1] is orbit.basis[-1]


def test_battery_inverts_no_braid_image(monkeypatch):
    # inverses of braid images come from inverse words and the letter-action
    # table, flag matrices from the factors of the flag context, and G_W^-1
    # from its tridiagonal blocks: nothing is inverted by elimination
    callers = []
    real = CycloMatrix.inverse

    def recording(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(m)

    monkeypatch.setattr(CycloMatrix, "inverse", recording)
    fc = make_flag(make_context(N8[0], N8[1], 1), N8[2])
    report, _ = horo_report(fc)
    assert report["failed"] == 0
    assert callers == []


# -- flag matrices by factors, against P^-1 M P ------------------------------------

# the pinned horo documents with one witness; the one with both is in CENTER_CASES
PINNED_FLAGS = [(5, (1, 1, 3, 2, 3), 3), (5, (2, 3, 1, 1, 1, 2), 2)]


@functools.cache
def _p_inverse(fc):
    return fc.P.inverse()


def _by_inverse(fc, m_quot):
    """The flag matrix of a quotient matrix by the oracle: P^-1 m P with P
    inverted by elimination, once per flag context."""
    return _p_inverse(fc) @ m_quot @ fc.P


def _draw_letters(draw, n, length):
    letters = []
    for _ in range(draw(st.integers(0, length))):
        kind, exp = draw(st.sampled_from(("A", "T", "FT"))), draw(st.sampled_from((1, -1)))
        if kind == "T":
            letters.append((("T", draw(st.integers(2, n - 1))), exp))
        else:
            i = draw(st.integers(1, n - 1))
            letters.append(((kind, i, draw(st.integers(i + 1, n))), exp))
    return BraidWord(tuple(letters))


def _check_against_the_inverse(fc, words):
    """word_flag_matrix equals P^-1 M P, byte for byte in JSON; G_W_inv is
    G_W's inverse."""
    s = fc.middle_size
    assert fc.G_W @ fc.G_W_inv == CycloMatrix.identity(fc.ctx.d, s)
    assert fc.G_W_inv == (fc.G_W.inverse() if s else fc.G_W)
    for word in words:
        m_quot = evaluate_quotient(fc.ctx, word)
        assert m_quot == quotient_matrix(fc.ctx, evaluate_word(fc.ctx, word))
        expected = _by_inverse(fc, m_quot)
        assert word_flag_matrix(fc, word) == expected, str(word)
        assert matrix_to_json(word_flag_matrix(fc, word)) == matrix_to_json(expected)


@pytest.mark.parametrize("d,kappa,m", CASES + CENTER_CASES + PINNED_FLAGS, ids=lambda c: str(c))
def test_flag_matrices_match_the_inverse_on_pinned_cases(d, kappa, m):
    """The CASES, the horo workload kappas and the pinned horo documents:
    every letter and its inverse, both witnesses, their commutator, and a
    seeded word."""
    fc = make_flag(make_context(d, kappa, 1), m)
    n = fc.ctx.n
    words = [BraidWord(((("A", i, j), e),)) for i, j in itertools.combinations(range(1, n + 1), 2) for e in (1, -1)]
    words += [BraidWord(((("T", r), 1),)) for r in range(2, n)]
    words += [witness(fc, part) for part in witness_parts(fc)]
    if len(witness_parts(fc)) == 2:
        words.append(commutator(witness(fc, LOWER), witness(fc, UPPER)))
    rng = random.Random(d * 100 + n)
    words.append(BraidWord(tuple((("A", i, rng.randint(i + 1, n)), rng.choice((1, -1)))
                                 for i in (rng.randint(1, n - 1) for _ in range(12)))))
    _check_against_the_inverse(fc, words)


@st.composite
def flag_contexts(draw):
    """A flag context at prime or composite d (12, 15, 25 among them), n 4..8
    and any 2 <= m <= n - 2: m = 2 and m = n - 2 leave g_{n-1} out of the
    flag or the lower block empty."""
    d = draw(st.sampled_from((5, 7, 11, 12, 15, 25)))
    n = draw(st.integers(4, 8))
    m = draw(st.integers(2, n - 2))
    kappa = [draw(st.integers(1, d - 1)) for _ in range(n)]
    kappa[m - 1] = -sum(kappa[: m - 1]) % d
    kappa[-1] = -sum(kappa[:-1]) % d
    assume(kappa[m - 1] and kappa[-1] and math.gcd(d, *kappa) == 1)
    ctx = make_context(d, tuple(kappa), draw(st.sampled_from(tuple(units(d)))))
    return make_flag(ctx, m)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(flag_contexts(), st.data())
def test_flag_matrices_match_the_inverse(fc, data):
    """Random words rewrite in flag coordinates as P^-1 M P does."""
    words = [_draw_letters(data.draw, fc.ctx.n, 10) for _ in range(2)]
    _check_against_the_inverse(fc, words)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(flag_contexts(), st.data())
def test_sibling_pairing_matches_the_sibling_flag_at_every_layout(fc, data):
    """At m = 2, m = n - 2 and composite d as well: for a drawn unit t,
    middle_gram of the transported context gives the G_W and G_W^-1 of
    make_flag there, and a Pairing of them pairs the Galois images of two
    vectors to the Galois image of their pairing at fc."""
    ctx, m, s = fc.ctx, fc.m, fc.middle_size
    d = ctx.d
    t = data.draw(st.sampled_from(tuple(units(d))))
    sibling_ctx = transported_context(ctx, t)
    sibling = make_flag(sibling_ctx, m)
    G_W, G_W_inv = horo.middle_gram(sibling_ctx, m)
    assert (G_W, G_W_inv) == (sibling.G_W, sibling.G_W_inv)
    assert G_W == sibling.gram_flag.submatrix(range(1, s + 1), range(1, s + 1))
    assert G_W_inv == (G_W.inverse() if s else G_W)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    x, y = (tuple(from_coeffs(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(euler_phi(d))])
                  for _ in range(s)) for _ in range(2))
    xs, ys = (tuple(e.galois(t) for e in v) for v in (x, y))
    assert commutator_pairing(horo.Pairing(G_W_inv, sibling_ctx.mu), xs, ys) == commutator_pairing(fc, x, y).galois(t)


def test_flag_columns_skip_the_two_divisor_rows():
    """After w the flag takes every ambient index below n - 1 but m - 2 and
    m, where FlagContext._factors divides by the radical, g_m last."""
    for n in range(4, 10):
        for m in range(2, n - 1):
            columns = horo.flag_columns(n, m)
            assert sorted(columns) == [a for a in range(n - 1) if a not in (m - 2, m)]
            assert columns[-1] == m - 1


def test_make_flag_eliminates_nothing(monkeypatch):
    """No _rref and no field inverse outside the one per tridiagonal block of
    G_W: the Gram matrix is a closed form and P is never inverted."""
    inverses = []
    inv = CycloNum.inv
    monkeypatch.setattr(linalg, "_rref", lambda *args: pytest.fail("elimination"))
    monkeypatch.setattr(CycloNum, "inv", lambda x: inverses.append(x) or inv(x))
    for d, kappa, m in CASES + CENTER_CASES + PINNED_FLAGS:
        fc = make_flag(make_context(d, kappa, 1), m)
        word_flag_matrix(fc, witness(fc, witness_parts(fc)[0]))
        word_flag_matrix(fc, BraidWord.A(1, 2))
        assert len(inverses) == sum(1 for part in (LOWER, UPPER) if horo.full_rank(fc, part)), (d, kappa, m)
        inverses.clear()


def test_flag_coordinates_check_their_divisors(monkeypatch):
    """u_{m-2} / r_{m-2} and u_m / r_m divide by radical coordinates that
    never vanish; were one 0, make_flag would raise Singular by name."""
    ctx = make_context(5, (1, 1, 3, 2, 2, 1), 1)
    radical = list(ctx._radical)
    radical[3] = CycloNum.zero(5)
    vars(ctx)["_radical"] = tuple(radical)
    with pytest.raises(Singular):
        make_flag(ctx, 3)


def test_tridiagonal_inverse_matches_elimination():
    rng = random.Random(5)
    for d in (5, 12):
        for k in range(1, 6):
            rows = [[CycloNum.zero(d)] * k for _ in range(k)]
            for i in range(k):
                for j in range(max(0, i - 1), min(k, i + 2)):
                    rows[i][j] = from_coeffs(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                                 for _ in range(euler_phi(d))])
            t = CycloMatrix.from_rows(d, rows)
            try:
                expected = t.inverse()
            except Singular:
                with pytest.raises(Singular):
                    horo._tridiagonal_inverse(t)
                continue
            assert horo._tridiagonal_inverse(t) == expected


def test_unipotent_constraints_are_checked(flag):
    """A flag matrix with the unipotent block pattern whose last column or
    corner breaks the forced identities raises ConstraintViolation."""
    fc = make_flag(flag.ctx, flag.m)  # its memo is overwritten below
    word = witness(fc, witness_parts(fc)[0])
    f = word_flag_matrix(fc, word)
    assert in_unipotent(fc, word)
    s = fc.middle_size
    for row, col in ((1, s + 1), (0, s + 1)):  # a last-column entry, the corner
        entries = list(f.entries)
        entries[row * f.cols + col] += CycloNum(fc.ctx.d, (0, 1) + (0,) * (euler_phi(fc.ctx.d) - 2), 1)
        fc.flags[word] = CycloMatrix(f.d, f.rows, f.cols, tuple(entries))
        with pytest.raises(ConstraintViolation):
            in_unipotent(fc, word)

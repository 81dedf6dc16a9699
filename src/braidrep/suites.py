"""Seeded verification suites behind the CLI `verify` command.

Each suite replays a deterministic battery of exact identities on sampled
contexts; a failure names the violated identity and the parameters that
exhibit it.  All randomness flows from the single seed argument.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import criteria, horo
from .cyclo import CycloNum, euler_phi, from_coeffs, order_of_power, units
from .errors import AmbiguousSign, BadM, InvalidParameter, NotParabolicElement
from .linalg import CycloMatrix, inertia
from .rep import (
    BraidWord,
    RepContext,
    block_twist_word,
    commutator,
    evaluate_quotient,
    evaluate_word,
    lantern_block,
    make_context,
    pair_twist,
    prefix_twist,
    quotient_gram,
    radical_vector,
    scalar_relation_holds,
    transported_context,
)

@dataclass
class SuiteReport:
    suite: str
    failures: list[str] = field(default_factory=list)
    by_identity: dict[str, list[int]] = field(default_factory=dict)  # identity -> [passed, failed]

    def check(self, ok: bool, identity: str, detail: str = "") -> None:
        tally = self.by_identity.setdefault(identity, [0, 0])
        if ok:
            tally[0] += 1
        else:
            tally[1] += 1
            self.failures.append(f"{identity}" + (f" [{detail}]" if detail else ""))

    def merge(self, other: SuiteReport) -> None:
        self.failures.extend(other.failures)
        for name, (p, f) in other.by_identity.items():
            tally = self.by_identity.setdefault(name, [0, 0])
            tally[0] += p
            tally[1] += f

    @property
    def passed(self) -> int:
        return sum(p for p, _ in self.by_identity.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.by_identity.values())

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "failures": self.failures,
            "invariants": {
                name: {"passed": p, "failed": f}
                for name, (p, f) in sorted(self.by_identity.items())
            },
        }


def _tag(ctx: RepContext) -> str:
    """The parameters that name a context in a failure detail."""
    return f"d={ctx.d} kappa={ctx.weights} k={ctx.k}"


def sample_context(
    rng: random.Random,
    d_range: tuple[int, int] = (3, 10),
    n_range: tuple[int, int] = (3, 6),
    force_eps0: bool = False,
) -> RepContext:
    """One valid seeded context: reduced weights, connected cover, unit k."""
    while True:
        d = rng.randint(*d_range)
        n = rng.randint(*n_range)
        kappa = [rng.randint(1, d - 1) for _ in range(n)]
        if force_eps0:
            last = (-sum(kappa[:-1])) % d
            if last == 0:
                continue
            kappa[-1] = last
        if math.gcd(d, *kappa) != 1:
            continue
        return make_context(d, tuple(kappa), rng.choice(tuple(units(d))))


def all_generators(ctx: RepContext):
    """(kind, indices, matrix) of every pair twist A(i, j), then of every prefix twist T(r)."""
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        yield ("A", (i, j), pair_twist(ctx, i, j))
    for r in range(2, ctx.n):
        yield ("T", (r,), prefix_twist(ctx, r))


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    word = BraidWord()
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        word = word * BraidWord.A(i, j, rng.choice((1, -1)))
    return word


def suite_forms(seed: int, size: int = 1) -> SuiteReport:
    """Form preservation, Gram structure, and the form-inverse identity."""
    rep = SuiteReport("forms")
    rng = random.Random(seed)
    for _ in range(12 * size):
        ctx = sample_context(rng)
        g = ctx.gram
        tag = _tag(ctx)
        rep.check(g.conj_transpose() == -g, "gram is anti-Hermitian", tag)
        tri = all(
            not g.entry(a, b)
            for a in range(ctx.n - 1)
            for b in range(ctx.n - 1)
            if abs(a - b) > 1
        )
        rep.check(tri, "gram is tridiagonal", tag)
        rep.check(ctx.mu.is_real() and ctx.mu.embed().real > 0, "mu is real positive", tag)
        g_inv = g.inverse() if ctx.eps0 == 0 else None
        ident = CycloMatrix.identity(ctx.d, ctx.n - 1)
        for kind, idx, m in all_generators(ctx):
            mg = m.conj_transpose() @ g
            rep.check(
                mg @ m == g,
                "generator preserves the form (M* G M = G)",
                f"{tag} {kind}{idx}",
            )
            if g_inv is not None:
                rep.check(
                    m @ (g_inv @ mg) == ident,
                    "inverse identity M^-1 = G^-1 M* G",
                    f"{tag} {kind}{idx}",
                )
        word = _random_word(rng, ctx.n, 4)
        m = evaluate_word(ctx, word)
        rep.check(
            m.conj_transpose() @ g @ m == g,
            "random word preserves the form",
            f"{tag} {word}",
        )
    return rep


def suite_relations(seed: int, size: int = 1) -> SuiteReport:
    """Pure-braid commutations, full-twist identity, determinant and orders."""
    rep = SuiteReport("relations")
    rng = random.Random(seed)
    for _ in range(10 * size):
        ctx = sample_context(rng)
        n, d = ctx.n, ctx.d
        tag = _tag(ctx)
        ident = CycloMatrix.identity(d, n - 1)
        # disjoint and nested supports commute
        quadruples = []
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
            quadruples.append(((i, j), (k, l)))   # disjoint: j < k
            quadruples.append(((i, l), (j, k)))   # nested: i < j < k < l
        for (a, b), (c, e) in quadruples:
            word = commutator(BraidWord.A(a, b), BraidWord.A(c, e))
            rep.check(
                evaluate_word(ctx, word) == ident,
                "disjoint/nested pair twists commute",
                f"{tag} A{(a, b)} A{(c, e)}",
            )
        for r in range(2, n):
            m = prefix_twist(ctx, r)
            rep.check(
                evaluate_word(ctx, block_twist_word(1, r)) == m,
                "full twist on 1..r equals the prefix twist",
                f"{tag} r={r}",
            )
            expected_trace = ctx.qpow(ctx.prefix_sums[r]) * (r - 1) + (n - r)
            rep.check(m.trace() == expected_trace, "prefix twist trace value", f"{tag} r={r}")
        for i, j in itertools.combinations(range(1, n + 1), 2):
            m = pair_twist(ctx, i, j)
            ki, kj = ctx.weights[i - 1], ctx.weights[j - 1]
            rep.check(m.det() == ctx.qpow(ki + kj), "pair twist determinant", f"{tag} ({i},{j})")
            if (ki + kj) % d == 0:
                rep.check(m.is_unipotent(), "pair twist unipotent when d | k_i + k_j", tag)
            else:
                expected = order_of_power(d, ctx.k * (ki + kj))
                rep.check(
                    m.multiplicative_order(d) == expected,
                    "pair twist order matches the root of unity",
                    f"{tag} ({i},{j})",
                )
    for _ in range(6 * size):
        ctx = sample_context(rng, force_eps0=True)
        tag = _tag(ctx)
        w = radical_vector(ctx)
        rep.check(all(not x for x in ctx.gram.apply(w)), "gram annihilates the radical", tag)
        fixed = all(m.apply(w) == w for _, _, m in all_generators(ctx))
        rep.check(fixed, "all generators fix the radical vector", tag)
        rep.check(quotient_gram(ctx).rank() == ctx.n - 2, "quotient Gram has full rank", tag)
        rep.check(scalar_relation_holds(ctx), "last pair twist is scalar times prefix twist", tag)
    return rep


def suite_lantern(seed: int, size: int = 1) -> SuiteReport:
    """Two-dimensional block restrictions and the lantern product."""
    rep = SuiteReport("lantern")
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < 20 * size and attempts < 4000:
        attempts += 1
        ctx = sample_context(rng)
        r = rng.randint(3, ctx.n)
        if ctx.prefix_sums[r - 2] % ctx.d == 0 or ctx.prefix_sums[r] % ctx.d == 0:
            continue
        d = ctx.d
        blk = lantern_block(ctx, r)
        tag = f"{_tag(ctx)} r={r}"
        zero_c, one_c = CycloNum.zero(d), CycloNum.one(d)
        printed_a = CycloMatrix.from_rows(d, [
            [ctx.qpow(ctx.prefix_sums[r - 2] + ctx.weights[r - 2]),
             ctx.qpow(ctx.weights[r - 2]) - ctx.qpow(ctx.prefix_sums[r - 2] + ctx.weights[r - 2])],
            [zero_c, one_c],
        ])
        printed_b = CycloMatrix.from_rows(d, [
            [one_c, zero_c],
            [one_c - ctx.qpow(ctx.weights[r - 1]),
             ctx.qpow(ctx.weights[r - 2] + ctx.weights[r - 1])],
        ])
        rep.check(blk.A == printed_a, "block restriction of the prefix twist", tag)
        rep.check(blk.B == printed_b, "block restriction of the pair twist", tag)
        scalar = ctx.qpow(ctx.prefix_sums[r])
        rep.check(
            blk.A @ blk.B @ blk.C == CycloMatrix.identity(d, 2).scale(scalar),
            "lantern product is the boundary scalar",
            tag,
        )
        image = blk.C.apply(blk.eigenvector)
        rep.check(
            image == tuple(blk.eigenvalue * x for x in blk.eigenvector),
            "lantern block eigenpair",
            tag,
        )
        done += 1
    return rep


def suite_galois(seed: int, size: int = 1) -> SuiteReport:
    """Entrywise Galois transport equals direct construction at k*t."""
    rep = SuiteReport("galois")
    rng = random.Random(seed)
    for _ in range(8 * size):
        ctx = sample_context(rng)
        tag = _tag(ctx)
        pairs = {(i, j): pair_twist(ctx, i, j) for i, j in itertools.combinations(range(1, ctx.n + 1), 2)}
        prefixes = {r: prefix_twist(ctx, r) for r in range(2, ctx.n)}
        for t in units(ctx.d):
            sibling = transported_context(ctx, t)
            rep.check(ctx.gram.galois(t) == sibling.gram, "gram transports entrywise", f"{tag} t={t}")
            for (i, j), m in pairs.items():
                rep.check(
                    m.galois(t) == pair_twist(sibling, i, j),
                    "pair twist transports entrywise",
                    f"{tag} t={t} ({i},{j})",
                )
            for r, m in prefixes.items():
                rep.check(
                    m.galois(t) == prefix_twist(sibling, r),
                    "prefix twist transports entrywise",
                    f"{tag} t={t} r={r}",
                )
    return rep


HORO_CASES = (
    (5, (1, 1, 3, 2, 2, 1), 3),
    (7, (1, 1, 5, 2, 2, 3), 3),
)


def horo_report(fc: horo.FlagContext, seed: int = 0, trials: int = 20) -> tuple[dict, SuiteReport]:
    """Full horospherical battery for one flag context.  The report holds
    values: its translation parts, pairing samples and center vectors are
    CycloNum tuples and lists, which cli encodes when it writes a document.

    Raises BadM when neither witness exists (m < 3 and n - m < 3), before
    any check runs.
    """
    ctx = fc.ctx
    d, n, m = ctx.d, ctx.n, fc.m
    parts = horo.witness_parts(fc)
    if not parts:
        raise BadM(f"no witness: need m >= 3 or n - m >= 3, got m = {m}, n = {n}")
    rep = SuiteReport("horo")
    rng = random.Random(seed)
    tag = f"{_tag(ctx)} m={m}"
    phi = euler_phi(d)

    report: dict = {"d": d, "kappa": list(ctx.weights), "k": ctx.k, "m": m}

    words = {part: horo.witness(fc, part) for part in parts}
    report["witnesses"] = {
        part: str(words[part]) if part in words else None for part in (horo.LOWER, horo.UPPER)
    }

    # parabolic membership of both puncture groups
    all_gens = horo.part_pairs(fc, horo.LOWER) + horo.part_pairs(fc, horo.UPPER)
    for i, j in all_gens:
        rep.check(horo.in_parabolic(fc, BraidWord.A(i, j)), "puncture-group generators preserve the flag",
                  f"{tag} A({i},{j})")

    chis = report["translation_parts"] = {}
    for part in parts:
        sl = horo.part_slice(fc, part)
        rep.check(horo.in_unipotent(fc, words[part]), "witness is unipotent with forced constraints",
                  f"{tag} {part}")
        nu = horo.part_witness(fc, part)
        chis[part] = nu
        rep.check(any(nu[sl]), "witness translation part is non-zero on its block", f"{tag} {part}")
        rep.check(not any(nu[: sl.start] + nu[sl.stop :]), "witness translation part vanishes off its block",
                  f"{tag} {part}")

    # itemized images of the lower witness
    if horo.LOWER in parts:
        unit = CycloMatrix.identity(d, n - 2).row
        mat = evaluate_quotient(ctx, words[horo.LOWER])
        coef = ctx.qpow(-ctx.weights[m - 1]) - 1
        expected = tuple(a + coef * b for a, b in zip(unit(m - 3), fc.w))
        rep.check(mat.apply(unit(m - 3)) == expected,
                  "lower witness shears g_{m-2} by (qbar^{k_m} - 1) w", tag)
        for a in horo.flag_columns(n, m)[:-1]:  # the middle columns but g_{m-2} and g_{n-1}
            if a not in (m - 3, n - 2):
                rep.check(mat.apply(unit(a)) == unit(a),
                          "lower witness fixes the untouched basis vectors", f"{tag} g_{a + 1}")

    # translation part is additive; conjugation matches the closed action
    if len(parts) == 2:
        rep.check(
            horo.translation_part(fc, words[horo.LOWER] * words[horo.UPPER])
            == tuple(a + b for a, b in zip(chis[horo.LOWER], chis[horo.UPPER])),
            "translation part is additive on products",
            tag,
        )
    base_nu = chis[parts[0]]
    for trial in range(trials):
        word = BraidWord()
        for _ in range(rng.randint(1, 3)):
            i, j = rng.choice(all_gens)
            word = word * BraidWord.A(i, j, rng.choice((1, -1)))
        try:
            moved = horo.conjugation_action(fc, word, base_nu)
        except NotParabolicElement:
            rep.check(False, "random puncture-group word preserves the flag", f"{tag} {word}")
            continue
        rep.check(
            horo.translation_part(fc, word * words[parts[0]] * word.inverse()) == moved,
            "conjugation acts by lambda x C^-1 on translation parts",
            f"{tag} {word}",
        )

    # commutator corner equals the pairing
    omega_samples = report["omega_samples"] = []
    if len(parts) == 2:
        x, y = chis[horo.LOWER], chis[horo.UPPER]
        comm = commutator(words[horo.LOWER], words[horo.UPPER])
        val = horo.commutator_pairing(fc, x, y)
        rep.check(horo.in_unipotent(fc, comm), "commutator of unipotents is unipotent", tag)
        rep.check(not any(horo.translation_part(fc, comm)),
                  "commutator of unipotents is central", tag)
        rep.check(horo.corner_entry(fc, comm) == val,
                  "commutator corner equals the pairing", tag)
        omega_samples.append(val)

    # pairing values: real, antisymmetric, Galois equivariant
    def rand_vec():
        return tuple(
            from_coeffs(d, [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(phi)])
            for _ in range(fc.middle_size)
        )

    # a Galois sibling is the pairing of the transported context, built from
    # its own closed-form Gram once per exponent drawn
    exponents = tuple(units(d))
    siblings: dict[int, horo.Pairing] = {}
    for _ in range(5):
        x, y = rand_vec(), rand_vec()
        val = horo.commutator_pairing(fc, x, y)
        omega_samples.append(val)
        rep.check(val.is_real(), "pairing takes values in the real subfield", tag)
        rep.check(horo.commutator_pairing(fc, y, x) == -val, "pairing is antisymmetric", tag)
        t = rng.choice(exponents)
        if t not in siblings:
            sibling_ctx = transported_context(ctx, t)
            siblings[t] = horo.Pairing(horo.middle_gram(sibling_ctx, m)[1], sibling_ctx.mu)
        xs = tuple(e.galois(t) for e in x)
        ys = tuple(e.galois(t) for e in y)
        rep.check(
            horo.commutator_pairing(siblings[t], xs, ys) == val.galois(t),
            "pairing is Galois equivariant",
            f"{tag} t={t}",
        )

    # orbit ranks and the lattice vectors in the center
    ranks = {}
    for part in parts:
        ranks[part] = len(horo.orbit_vectors(fc, part))
        rep.check(ranks[part] == horo.full_rank(fc, part), f"{part} orbit reaches full rational rank", tag)
    if len(parts) == 2:
        rep.check(
            sum(ranks.values()) == sum(horo.full_rank(fc, part) for part in parts),
            "orbit ranks sum to the middle dimension over Q",
            tag,
        )
        vectors, rank = horo.center_lattice_vectors(fc)
        ranks["center"] = rank
        rep.check(rank == phi // 2, "center lattice vectors have rank phi(d)/2", tag)
        rep.check(
            all(e.is_real() for v in vectors for e in v),
            "center lattice vectors are real",
            tag,
        )
        report["center_vectors"] = vectors
    report["ranks"] = ranks
    report.update((key, value) for key, value in rep.to_json().items() if key != "suite")
    return report, rep


def suite_horo(seed: int, size: int = 1) -> SuiteReport:
    rep = SuiteReport("horo")
    for d, kappa, m in HORO_CASES:
        ctx = make_context(d, kappa, 1)
        fc = horo.make_flag(ctx, m)
        _, sub = horo_report(fc, seed=seed, trials=10 * size)
        rep.merge(sub)
    return rep


def suite_criteria(seed: int, size: int = 1) -> SuiteReport:
    rep = SuiteReport("criteria")
    rng = random.Random(seed)

    regressions = [
        ((12, (7, 5, 4, 4, 4)), "unknown", None),
        ((12, (7, 6, 5, 3, 3)), "unknown", None),
        ((12, (7, 5, 3, 3, 3, 3)), "unknown", None),
        ((5, (1, 1, 3, 2, 2, 1)), "arithmetic", [1, 2, 3]),
    ]
    for (d, kappa), verdict, witness in regressions:
        v = criteria.arithmeticity_verdict(d, kappa)
        rep.check(v.verdict == verdict, "arithmeticity regression verdict", f"d={d} kappa={kappa}")
        if witness is not None:
            rep.check(v.witness == witness, "arithmeticity witness subset", f"d={d} kappa={kappa}")
    v = criteria.density_verdict(7, (1, 1, 1, 1, 1, 1))
    rep.check(v.verdict == "maximal", "density regression verdict", "d=7 kappa=(1,)*6")

    # signature formula vs numeric inertia of the acting space Gram
    for _ in range(10 * size):
        ctx = sample_context(rng)
        gram = quotient_gram(ctx) if ctx.eps0 == 1 else ctx.gram
        try:
            numeric = inertia(gram)
        except AmbiguousSign:
            rep.check(False, "numeric inertia tolerance is safe", _tag(ctx))
            continue
        r_q, s_q = criteria.signature(ctx)
        rep.check(
            numeric == (r_q, s_q, 0),
            "closed signature formula matches numeric inertia",
            _tag(ctx),
        )

    # goodness symmetry under complement
    for _ in range(50 * size):
        n = rng.randint(3, 7)
        denom = rng.randint(2, 12)
        mu = [Fraction(rng.randint(1, denom - 1), denom) for _ in range(n)]
        rep.check(
            criteria.is_good(mu) == criteria.is_good([1 - v for v in mu]),
            "goodness is invariant under complement",
            f"mu={mu}",
        )

    # signature-window scan against the brute-force post-condition
    checked = 0
    while checked < 200 * size:
        n = rng.randint(3, 8)
        x = [Fraction(rng.randint(1, 23), 24) for _ in range(n)]
        if not 1 < sum(x) < n - 1:
            continue
        r = criteria.find_signature_window(x)
        partial = [sum(x[:j]) for j in range(n + 1)]
        ok = (
            3 <= r <= n
            and partial[r - 2].denominator != 1
            and partial[r].denominator != 1
            and 1 < partial[r] - math.floor(partial[r - 2]) < 2
        )
        rep.check(ok, "signature-window post-condition", f"x={x} r={r}")
        checked += 1
    return rep


SUITES = {
    "forms": suite_forms,
    "relations": suite_relations,
    "lantern": suite_lantern,
    "galois": suite_galois,
    "horo": suite_horo,
    "criteria": suite_criteria,
}
SUITE_NAMES = tuple(SUITES)


def run_suites(names: list[str], seed: int, size: int = 1) -> list[SuiteReport]:
    """Run the named suites; size multiplies every sample count and must be >= 1."""
    if size < 1:
        raise InvalidParameter(f"size must be >= 1, got {size}")
    return [SUITES[name](seed, size) for name in names]

"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line with its runtime so the whole
battery can be read off a plain pytest -s run.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from hnbundles.bundle import (Atom, PlainBundle, SlBundle, SoBundle, SpBundle,
                              adjoint, bundle_from_degrees, direct_sum, dual,
                              is_semistable, tensor, underlying,
                              vertical_degree)
from hnbundles.canon import (ad_degree, ad_degree_max_oracle, bh_conditions,
                             canonical_reduction, check_bh, hn_type)
from hnbundles.hnfilt import (extend_with_perps, hn_filtration,
                              hn_filtration_isotropic)
from hnbundles.lattice import (fundamental_groups, obstruction_class,
                               topological_type)
from hnbundles.oracles import hn_uniqueness_oracle
from hnbundles.parabolic import (ParabolicIndex, character_generators,
                                 is_dominant_character)
from hnbundles.rootsys import GroupFamily, evaluate
from hnbundles.strata import (enumerate_strata, gl_dominance, hull_membership,
                              stratum_leq)
from oracles import (forced_index, is_dominant, simple_roots,
                     vertical_degree_composite)


def _report(num: int, budget, fn):
    start = time.perf_counter()
    failure = None
    try:
        fn()
    except BaseException as exc:  # report, then re-raise
        failure = exc
    elapsed = time.perf_counter() - start
    in_budget = budget is None or elapsed <= budget
    verdict = "PASS" if failure is None and in_budget else "FAIL"
    print(f"criterion {num}: {verdict} ({elapsed:.2f}s)")
    if failure is not None:
        raise failure
    assert in_budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_fundamental_group_table():
    def check():
        for r in range(3, 13):
            assert [g.describe() for g in fundamental_groups(GroupFamily("gl", r))] \
                == ["1", "Z", "Z"]
            assert [g.describe() for g in fundamental_groups(GroupFamily("sl", r))] \
                == ["1", "1", "1"]
            if r % 2 == 0:
                assert [g.describe()
                        for g in fundamental_groups(GroupFamily("sp", r))] \
                    == ["1", "1", "1"]
            assert [g.describe() for g in fundamental_groups(GroupFamily("so", r))] \
                == ["Z/2", "Z/2", "1"]
    _report(1, 1.0, check)


def test_criterion_2_dominant_character():
    def check():
        gl4 = GroupFamily("gl", 4)
        index = ParabolicIndex(gl4, frozenset({1}))
        gens = character_generators(gl4, index)
        assert gens == [(1, 1, -1, -1)]
        ok, coeffs = is_dominant_character(gl4, index, gens[0])
        assert ok and tuple(coeffs) == (1, 2, 1)
    _report(2, None, check)


def test_criterion_3_adjoint_filtration():
    def check():
        rng = random.Random(3)
        done = 0
        while done < 100:
            d, r = rng.randint(-5, 5), rng.randint(1, 3)
            dp, rp = rng.randint(-5, 5), rng.randint(1, 3)
            if Fraction(d, r) <= Fraction(dp, rp):
                continue
            e = PlainBundle((Atom(d, r),))
            ep = PlainBundle((Atom(dp, rp),))
            ad = adjoint(direct_sum(e, ep))
            assert isinstance(ad, SoBundle)
            filt = hn_filtration_isotropic(ad)
            hom = tensor(dual(ep), e)
            assert [q.atoms for q in filt.quotients] == [hom.atoms]
            full = extend_with_perps(filt)
            plain = hn_filtration(underlying(ad))
            assert full.quotients == plain.quotients
            assert len(plain.quotients) == 3
            done += 1
    _report(3, 5.0, check)


def test_criterion_4_vertical_degrees():
    def check():
        for r in range(2, 13):
            fam = GroupFamily("gl", r)
            for l in range(1, r):
                for f in range(-5, 6):
                    for d in range(-5, 6):
                        v = vertical_degree(fam, (d, r), (f, l))
                        assert v == vertical_degree_composite(fam, (d, r), (f, l))
                        assert (v >= 0) == (Fraction(f, l) <= Fraction(d, r))
        for n in range(1, 7):
            fam = GroupFamily("sp", 2 * n)
            for l in range(1, n + 1):
                for f in range(-5, 6):
                    v = vertical_degree(fam, (0, 2 * n), (f, l))
                    assert v == vertical_degree_composite(fam, (0, 2 * n), (f, l))
                    assert (v >= 0) == (f <= 0)
        for r in range(3, 13):
            fam = GroupFamily("so", r)
            for l in range(1, r // 2 + 1):
                for f in range(-5, 6):
                    v = vertical_degree(fam, (0, r), (f, l))
                    assert v == vertical_degree_composite(fam, (0, r), (f, l))
                    if l != r // 2 - 1 or r % 2 == 1:
                        assert (v >= 0) == (f <= 0)
    _report(4, 5.0, check)


def test_criterion_5_hn_uniqueness():
    def check():
        pool = [Atom(d, r) for d in range(-3, 4) for r in (1, 2)]
        for size in (1, 2, 3):
            for atoms in combinations_with_replacement(pool, size):
                assert hn_uniqueness_oracle(PlainBundle(atoms))
        rng = random.Random(5)
        for _ in range(500):
            atoms = tuple(Atom(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(rng.randint(1, 4)))
            assert hn_uniqueness_oracle(PlainBundle(atoms))
        for _ in range(250):
            positive = tuple(Atom(rng.randint(1, 3), rng.randint(1, 2))
                             for _ in range(rng.randint(0, 2)))
            half = sum(a.rank for a in positive)
            spare = max(0, (8 - 2 * half) // 2)
            zeros = 2 * rng.randint(0, spare)
            # no atoms at all is the zero bundle, which the model refuses
            if positive or zeros:
                assert hn_uniqueness_oracle(SpBundle(positive, tuple([Atom(0, 1)] * zeros)))
            so = SoBundle(positive, tuple([Atom(0, 1)] * (zeros + 1)))
            # SO below rank 3 has no isotropic filtration
            if so.rank >= 3:
                assert hn_uniqueness_oracle(so)
    _report(5, 60.0, check)


def _canonical_families(max_dim):
    fams = []
    for r in range(2, max_dim + 1):
        fams.append(GroupFamily("gl", r))
        fams.append(GroupFamily("sl", r))
    for n in range(1, max_dim + 1):
        fams.append(GroupFamily("sp", 2 * n))
    for r in range(3, 2 * max_dim + 2):
        fams.append(GroupFamily("so", r))
    return [f for f in fams if f.cartan_dim <= max_dim]


def test_criterion_6_canonical_equals_bh():
    def check():
        for family in _canonical_families(4):
            dim = family.cartan_dim
            count = len(simple_roots(family))
            for a in product(range(-2, 3), repeat=dim):
                if family.kind == "sl" and sum(a) != 0:
                    continue
                red = canonical_reduction(family, a)
                mu = red.mu.mu
                best, argmax = ad_degree_max_oracle(family, a)
                assert ad_degree(family, red.index, mu) == best
                ok, degrees = check_bh(family, a, red)
                assert ok and all(d > 0 for d in degrees)
                # the canonical parabolic is inclusion-maximal among the
                # attaining pairs; any other attainer at the same parabolic
                # must break a BH condition
                for index, v in argmax:
                    assert index.members >= red.index.members
                    if index.members == red.index.members and v != mu:
                        levi_ss, degs = bh_conditions(family, index, v)
                        assert not (levi_ss and all(d > 0 for d in degs))
    _report(6, 120.0, check)


def test_criterion_7_chamber_law():
    def check():
        rng = random.Random(7)
        fams = [GroupFamily("gl", 4), GroupFamily("sl", 3), GroupFamily("sp", 6),
                GroupFamily("so", 7), GroupFamily("so", 6), GroupFamily("sp", 4)]
        for _ in range(900):
            family = rng.choice(fams)
            a = [rng.randint(-4, 4) for _ in range(family.cartan_dim)]
            if family.kind == "sl":
                a[-1] -= sum(a)
            red = canonical_reduction(family, a)
            mu = red.mu.mu
            assert is_dominant(family, mu)
            for i, alpha in enumerate(simple_roots(family)):
                assert (evaluate(alpha, mu) > 0) == (i in red.index.members)
        for _ in range(100):
            n = rng.randint(2, 4)
            so = GroupFamily("so", 2 * n)
            positive = tuple(sorted(
                (Atom(rng.randint(1, 3), 1) for _ in range(n - 1)), reverse=True))
            b = SoBundle(positive, (Atom(0, 2),))
            t = hn_type(b)
            assert is_dominant(so, t.mu)
            index = forced_index(so, t.mu)
            assert {n - 2, n - 1} <= index.members
    _report(7, None, check)


def test_criterion_8_hull_vs_dominance():
    def check():
        for dim in (2, 3):
            fam = GroupFamily("gl", dim)
            vecs = [v for v in product(range(-3, 4), repeat=dim)
                    if list(v) == sorted(v, reverse=True)]
            for mu in vecs:
                for nu in vecs:
                    assert hull_membership(fam, mu, nu) == gl_dominance(mu, nu)
        fam4 = GroupFamily("gl", 4)
        vecs4 = [v for v in product(range(-3, 4), repeat=4)
                 if list(v) == sorted(v, reverse=True)]
        by_total = {}
        for v in vecs4:
            by_total.setdefault(sum(v), []).append(v)
        for group in by_total.values():
            for mu in group:
                for nu in group:
                    assert hull_membership(fam4, mu, nu) == gl_dominance(mu, nu)
        rng = random.Random(8)
        for _ in range(200):
            mu, nu = rng.choice(vecs4), rng.choice(vecs4)
            if sum(mu) != sum(nu):
                assert not hull_membership(fam4, mu, nu)
                assert not gl_dominance(mu, nu)
        poset = enumerate_strata(GroupFamily("gl", 3), 2)
        k = len(poset.labels)
        leq = [[stratum_leq(poset.labels[i], poset.labels[j]) for j in range(k)]
               for i in range(k)]
        for i in range(k):
            assert leq[i][i]
            for j in range(k):
                if i != j and leq[i][j]:
                    assert not leq[j][i]
                for m in range(k):
                    if leq[i][j] and leq[j][m]:
                        assert leq[i][m]
    _report(8, 60.0, check)


def test_criterion_9_semistability_equivalences():
    def check():
        rng = random.Random(9)
        for _ in range(400):
            atoms = [Atom(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(rng.randint(1, 3))]
            deg = sum(a.degree for a in atoms)
            atoms.append(Atom(-deg, 1))
            b = PlainBundle(tuple(atoms))
            assert is_semistable(SlBundle(b.atoms)) == is_semistable(b)
        for _ in range(400):
            positive = tuple(Atom(rng.randint(1, 3), rng.randint(1, 2))
                             for _ in range(rng.randint(0, 2)))
            zeros = 2 * rng.randint(0, 2)
            # no atoms at all is the zero bundle, which the model refuses
            if positive or zeros:
                sp = SpBundle(positive, tuple([Atom(0, 1)] * zeros))
                assert is_semistable(sp) == is_semistable(underlying(sp))
            so = SoBundle(positive, tuple([Atom(0, 1)] * (zeros + 1)))
            if so.rank > 2:
                assert is_semistable(so) == is_semistable(underlying(so))
        for _ in range(200):
            atoms = tuple(Atom(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(rng.randint(1, 3)))
            b = PlainBundle(atoms)
            ad = adjoint(b)
            if ad.rank > 2:
                assert is_semistable(ad) == is_semistable(b)
    _report(9, None, check)


def test_criterion_10_symplectic_embedding():
    def check():
        for n in range(1, 5):
            sp = GroupFamily("sp", 2 * n)
            gl = GroupFamily("gl", 2 * n)
            for a in product(range(-2, 3), repeat=n):
                g = tuple(a) + tuple(-x for x in reversed(a))
                assert obstruction_class(sp, a) == ((), ())
                assert obstruction_class(gl, g) == ((0,), ())
                assert topological_type(sp, a) == tuple([Fraction(0)] * n)
                assert topological_type(gl, g) == tuple([Fraction(0)] * 2 * n)
                mu_sp = canonical_reduction(sp, a).mu.mu
                mu_gl = canonical_reduction(gl, g).mu.mu
                assert mu_gl == mu_sp + tuple(-x for x in reversed(mu_sp))
                b_sp = bundle_from_degrees(sp, a)
                b_gl = bundle_from_degrees(gl, g)
                assert hn_type(b_gl).mu == mu_gl
                assert hn_type(b_sp).mu == mu_sp
    _report(10, None, check)

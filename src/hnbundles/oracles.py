"""Brute-force oracles, each independent of the fast path it checks, and
the seeded check suites that compare the two: the HN uniqueness oracle
walks the ordered partitions of the atoms, and the LP hull oracle runs
an exact phase-1 simplex over the whole Weyl orbit.  No production
module imports this one at load: ``hnbundles check`` loads it on its
first run, and the package export hn_uniqueness_oracle on its first read.
"""

from fractions import Fraction
from math import gcd, lcm

from .bundle import Atom, IsotropicBundle, PlainBundle, SpBundle, underlying
from .canon import ad_degree, ad_degree_max_oracle, canonical_reduction, check_bh
from .cli import BundleSpec, serialize_bundle_spec
from .errors import InvariantBreach, TooLarge
from .hnfilt import extend_with_perps, hn_filtration, hn_filtration_isotropic
from .lattice import fundamental_groups, obstruction_class, topological_type
from .rootsys import (GL, SL, SO, SP, GroupFamily, _point, weyl_orbit,
                      weyl_orbit_size)
from .strata import hull_membership

ORACLE_ATOM_GUARD = 8


def _hn_candidates(atoms):
    """Every ordered partition of the atoms into semistable blocks whose
    slopes strictly decrease, as a tuple of blocks, each block its atoms
    in descending order.

    A walk over bit masks of the atoms.  One table gives, for each mask,
    its block's (degree, rank) when all its atoms share one slope, and
    None otherwise, by integer cross-multiplication.  A prefix is
    extended only by a submask of the atoms left whose block is uniform
    and has slope below the previous block's: a prefix that breaks the
    definition has no valid completion.  A block's atoms are gathered
    only when it closes a winner.  Nothing here reads the bundle model
    or the fast path."""
    atoms = sorted(atoms, reverse=True)
    n = len(atoms)
    uniform = [None] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        a = atoms[low.bit_length() - 1]
        if mask == low:
            uniform[mask] = (a.degree, a.rank)
        elif (rest := uniform[mask ^ low]) and \
                a.degree * rest[1] == rest[0] * a.rank:
            uniform[mask] = (rest[0] + a.degree, rest[1] + a.rank)

    def block(mask):
        return tuple(a for i, a in enumerate(atoms) if mask >> i & 1)

    def walk(left, above):
        if not left:
            yield ()
            return
        sub = left
        while sub:
            slope = uniform[sub]
            # slope d / r below the previous D / R, as d R < D r
            if slope is not None and (above is None or
                                      slope[0] * above[1] < above[0] * slope[1]):
                for tail in walk(left & ~sub, slope):
                    yield (block(sub),) + tail
            sub = (sub - 1) & left

    return walk((1 << n) - 1, None)


def hn_uniqueness_oracle(b) -> bool:
    """Verify by exhaustive search that exactly one filtration satisfies
    the defining conditions, and that it is the fast-path output.

    Refuses more than ORACLE_ATOM_GUARD atoms to partition (the positive
    part for Sp/SO)."""
    # an Sp/SO isotropic part takes every positive atom: one left out would
    # sit in the slope-0 middle with its negative mirror, and the middle
    # would not be semistable; so only the positive part is partitioned
    isotropic = isinstance(b, IsotropicBundle)
    atoms = b.positive if isotropic else b.atoms
    if len(atoms) > ORACLE_ATOM_GUARD:
        raise TooLarge(f"{len(atoms)} atoms exceed the oracle guard")
    winners = set(_hn_candidates(atoms))
    fast = hn_filtration_isotropic(b) if isotropic else hn_filtration(b)
    return winners == {tuple(q.atoms for q in fast.quotients)}


# The LP oracle's simplex has one column per point of W.mu.  The limit is
# the orbit of a regular SO10 point, or of an Sp10 or SO11 point with one
# zero entry: each answers in 0.1-2.5 s by nu (Python 3.11, one core of a
# 2-vCPU Xeon VM), while a regular SO11 point (3,840 columns) takes up to
# 2.8 s and a regular Sp12 point (46,080) more than 600 s.
HULL_ORBIT_GUARD = 1920


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row):
    """The rational row times the least positive integer that clears its
    denominators, made primitive."""
    scale = lcm(*(Fraction(x).denominator for x in row))
    return _primitive([int(x * scale) for x in row])


def _phase_one_feasible(columns, target):
    """Exact feasibility of: nonnegative lambda with sum 1 and
    sum(lambda_j * columns[j]) = target.  Phase-1 simplex, Bland's rule.

    Each row of the tableau, and the objective, is held as an integer row
    up to a positive scale, divided by its gcd after each pivot.  The
    scale changes no sign and cancels from the cross-multiplied ratio
    test, so the pivots are those of the rational tableau."""
    m = len(target) + 1
    n = len(columns)
    rows = []
    for i in range(m - 1):
        row = [Fraction(c[i]) for c in columns] + [Fraction(target[i])]
        rows.append([-x for x in row] if row[-1] < 0 else row)
    rows.append([Fraction(1)] * (n + 1))
    # minus the sum of the rows; each artificial sits in one row at cost 1,
    # so its entry cancels to 0
    total = [-sum(col) for col in zip(*rows)]
    obj = _integer_row(total[:n] + [0] * m + total[n:])
    # tableau with one artificial per row
    tab = [_integer_row(row[:n] + [int(j == i) for j in range(m)] + row[n:])
           for i, row in enumerate(rows)]
    width = n + m
    basis = list(range(n, width))
    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            return obj[width] == 0
        prow = None
        for i in range(m):
            if tab[i][enter] > 0:
                if prow is None:
                    prow = i
                    continue
                # rhs_i / a_i against rhs_p / a_p, both a > 0
                lhs = tab[i][width] * tab[prow][enter]
                rhs = tab[prow][width] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[prow]):
                    prow = i
        if prow is None:
            # the phase-1 objective is bounded below by 0, so an entering
            # column always has a pivot row
            raise InvariantBreach("phase-1 simplex found an unbounded objective")
        pivot = tab[prow]
        pv = pivot[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != prow and f:
                tab[i] = _primitive([pv * x - f * y for x, y in zip(tab[i], pivot)])
        f = obj[enter]
        if f:
            obj = _primitive([pv * x - f * y for x, y in zip(obj, pivot)])
        basis[prow] = enter


def hull_membership_lp_oracle(family: GroupFamily, mu, nu) -> bool:
    """hull_membership by brute force, for tests and the hull check suite:
    the phase-1 simplex on nu as a convex combination of the points of W.mu.
    Refuses an orbit of more than HULL_ORBIT_GUARD points before building
    it."""
    nu = _point(family, nu)
    if weyl_orbit_size(family, mu, limit=HULL_ORBIT_GUARD) > HULL_ORBIT_GUARD:
        raise TooLarge("hull guard exceeded")
    return _phase_one_feasible(weyl_orbit(family, tuple(mu)), nu)


def _spec_text(b):
    return repr(serialize_bundle_spec(BundleSpec(b, None)))


def _suite_hn(rng, drawn):
    atoms = tuple(Atom(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(rng.randint(1, 4)))
    b = PlainBundle(atoms)
    drawn[:] = b.family, lambda: _spec_text(b)
    yield hn_uniqueness_oracle(b), "the HN filtration is not the unique one"
    positive = tuple(Atom(rng.randint(1, 3), 1) for _ in range(rng.randint(0, 2)))
    zeros = tuple([Atom(0, 1)] * (2 * rng.randint(0, 1)))
    # no atoms would make the zero bundle, which the model refuses
    if positive or zeros:
        sp = SpBundle(positive, zeros)
        drawn[:] = sp.family, lambda: _spec_text(sp)
        yield (extend_with_perps(hn_filtration_isotropic(sp)).quotients ==
               hn_filtration(underlying(sp)).quotients,
               "the isotropic HN filtration completed by perps differs "
               "from the HN filtration of the underlying bundle")


def _suite_canon(rng, drawn):
    # SO6 and SO8 reach the D_n fork
    family = rng.choice([GroupFamily(GL, 3), GroupFamily(SP, 4),
                         GroupFamily(SO, 5), GroupFamily(SO, 6),
                         GroupFamily(SO, 8), GroupFamily(GL, 4)])
    a = tuple(rng.randint(-2, 2) for _ in range(family.cartan_dim))
    drawn[:] = family, lambda: str(a)
    red = canonical_reduction(family, a)
    best, _ = ad_degree_max_oracle(family, a)
    attained = ad_degree(family, red.index, red.mu.mu)
    yield (attained == best,
           f"the canonical reduction has adjoint degree {attained}, "
           f"the oracle maximum is {best}")
    levi_ss, degrees = check_bh(family, a, red)
    yield (levi_ss and all(d > 0 for d in degrees),
           f"BH conditions fail: levi_semistable={levi_ss}, "
           f"char_degrees={[str(d) for d in degrees]}")


def _suite_hull(rng, drawn):
    # SO6 reaches the D_n fork entry of the order key.  mu and nu need not
    # be dominant; on GL, nu takes the total of mu, off which it is outside
    family = rng.choice([GroupFamily(GL, 3), GroupFamily(SP, 4),
                         GroupFamily(SO, 5), GroupFamily(SO, 6)])
    mu, nu = (tuple(rng.randint(-3, 3) for _ in range(family.cartan_dim))
              for _ in range(2))
    if family.kind == GL:
        nu = (nu[0] + sum(mu) - sum(nu),) + nu[1:]
    drawn[:] = family, lambda: f"mu={mu}, nu={nu}"
    inside = hull_membership(family, mu, nu)
    feasible = hull_membership_lp_oracle(family, mu, nu)
    yield (inside == feasible,
           f"hull membership is {inside}, the LP oracle says {feasible}")


def _suite_lattice(rng, drawn):
    family = rng.choice([GroupFamily(GL, 4), GroupFamily(SL, 3),
                         GroupFamily(SP, 6), GroupFamily(SO, 7)])
    a, b = ([rng.randint(-3, 3) for _ in range(family.cartan_dim)]
            for _ in range(2))
    if family.kind == SL:
        a[-1] -= sum(a)
        b[-1] -= sum(b)
    drawn[:] = family, lambda: f"a={tuple(a)}, b={tuple(b)}"
    fa, ta = obstruction_class(family, a)
    fb, tb = obstruction_class(family, b)
    fs, ts = obstruction_class(family, [x + y for x, y in zip(a, b)])
    yield (fs == tuple(x + y for x, y in zip(fa, fb)),
           "the free part of the obstruction class is not additive")
    _, pi1, _ = fundamental_groups(family)
    yield (ts == tuple((x + y) % d for x, y, d in zip(ta, tb, pi1.torsion)),
           "the torsion part of the obstruction class is not additive")
    # every translate is checked, but a check is yielded only when it fails
    top = topological_type(family, a)
    for w in weyl_orbit(family, tuple(a)):
        if topological_type(family, w) != top:
            yield (False,
                   f"the topological type of a differs at its Weyl translate {w}")
        if obstruction_class(family, w) != (fa, ta):
            yield (False,
                   f"the obstruction class of a differs at its Weyl translate {w}")


# each suite draws one case from the rng, sets drawn to the family it has
# drawn and a function that renders the input, called only when the case
# fails, and yields its checks on that input in order, as (ok, what)
_SUITES = {"hn": _suite_hn, "canon": _suite_canon,
           "hull": _suite_hull, "lattice": _suite_lattice}

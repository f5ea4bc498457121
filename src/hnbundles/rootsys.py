"""Root systems of the classical groups GL, SL, Sp, SO in diagonal coordinates.

Cartan vectors are tuples of exact rationals of length ``cartan_dim``:
r for GL/SL, n for Sp(2n) and SO(2n)/SO(2n+1).  Roots are integer
functionals of the same length, evaluated by the dot product.  A
family's ``kind`` names the group and its ``cartan_type`` the root
system and Weyl group: A for GL/SL, B for odd SO, C for Sp, D for even
SO (Bourbaki, Lie Groups and Lie Algebras ch. VI, Plates I-IV).  Every
root-system formula reads the type, none the kind.

The Weyl group acts by permutations (A) and signed permutations (B, C;
D changes an even number of signs), so the simple-root pairings, the
dominant chamber, the simple-root coordinates and the orbit sizes have
closed forms.  So does the orbit itself, which _weyl_orbit lists.  The
simple-root coordinates are the integer key of the stratum order,
halved at the end of the diagram.  The hull test reads the key of a
point's dominant representative in one pass, the chamber step and the
prefix sums in one frame; the chamber step followed by the key is its
reference.  The sign of each simple-root pairing, which is all that
dominance, the forced index of a type and the Levi test read, is
decided by comparing two coordinates, with no subtraction.  No root is
listed here: the explicit root table (simple and positive roots, their
coroots) is kept in the tests as the reference for these closed forms,
which they also check against a loop of simple reflections and a
solve.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product, repeat
from math import comb
from operator import lt, mul
from threading import Lock
from weakref import WeakValueDictionary

from .errors import FamilyMismatch, NotInKernelLattice, TooLarge, UnsupportedRank

GL, SL, SP, SO = "gl", "sl", "sp", "so"
KINDS = (GL, SL, SP, SO)
A, B, C, D = "A", "B", "C", "D"

# The coordinates (points times cartan_dim) of the largest orbit weyl_orbit
# builds, 16 MiB of pointers: GL1200 at e1 (1,440,000) and regular Sp12
# and SO13 points (46,080 of 6) pass; GL2000 at e1 and a regular GL9 point
# do not.  The two oracles that enumerate orbits refuse far smaller ones
# by their own counts of work, so this limit bounds weyl_orbit alone.
WEYL_ORBIT_GUARD = 2 ** 21

# the entry types of a cocharacter that as_cocharacter returns unconverted
_INT_ONLY = frozenset({int})


class _Interned(type):
    """Hands out the one live family per (kind, r), so that == and hash
    on a family are object's identity slots: a rank that is not an int is
    refused first, since 2.0 and True hash and compare like 2; then the
    family comes from _family_table, which reads _live_families on a miss
    and runs __post_init__ only for a (kind, r) with no live family.  An
    unhashable kind misses the table and is refused by __post_init__ like
    any other unknown kind."""

    def __call__(cls, kind, r):
        if type(r) is not int:
            raise ValueError(f"rank must be an int, got {r!r}")
        try:
            return _family_table(cls, kind, r)
        except TypeError:
            return type.__call__(cls, kind, r)


# Every family alive, by (class, kind, r), hash-consed (Filliatre and
# Conchon, "Type-safe modular hash-consing", 2006): its entry goes with
# the last reference to the family.  The lock makes the read and the
# insert one step, so threads that build a new (kind, r) at once all get
# one object.
_live_families = WeakValueDictionary()
_live_lock = Lock()


# The families used last, least recently used out first: they stay alive,
# so a caller that builds and drops a family on every call finds it here
# and does not rebuild it.
@lru_cache(maxsize=256)
def _family_table(cls, kind, r):
    with _live_lock:
        family = _live_families.get((cls, kind, r))
        if family is None:
            family = _live_families[cls, kind, r] = type.__call__(cls, kind, r)
        return family


@dataclass(frozen=True, eq=False)
class GroupFamily(metaclass=_Interned):
    """One of GL(r), SL(r), Sp(r) with r even, SO(r), r >= 3: one object
    per (kind, r) while any reference to it lives, built and checked
    once, so == and hash are identity."""

    kind: str
    r: int

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, and so the table
        return type(self), (self.kind, self.r)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("rank must be positive")
        if self.kind == SP and self.r % 2 != 0:
            raise UnsupportedRank(f"Sp requires even matrix size, got {self.r}")
        if self.kind == SO and self.r < 2:
            raise UnsupportedRank(f"SO requires r >= 2, got {self.r}")
        if self.kind == SO and self.r == 2:
            raise UnsupportedRank("SO(2) has no usable root system")
        # not fields: repr and replace read (kind, r) alone
        t = A if self.kind in (GL, SL) else C if self.kind == SP else \
            B if self.r % 2 else D
        object.__setattr__(self, "cartan_type", t)
        object.__setattr__(self, "cartan_dim", self.r if t == A else self.r // 2)

    def __str__(self):
        return f"{self.kind}{self.r}"

    @property
    def torus_dim(self) -> int:
        """Dimension of the maximal torus (Cartan subgroup)."""
        return self.cartan_dim - (self.kind == SL)


def evaluate(functional, v):
    """Dot-product pairing of an integer functional against a Cartan vector."""
    return sum(a * b for a, b in zip(functional, v))


def simple_root_count(family: GroupFamily) -> int:
    """The number of simple roots: the rank of the root system."""
    return family.cartan_dim - (family.cartan_type == A)


def positive_root_count(family: GroupFamily) -> int:
    """|Phi+|, the number of positive roots: n(n - 1)/2 for A, n^2 for B
    and C, n(n - 1) for D."""
    n = family.cartan_dim
    if family.cartan_type == A:
        return n * (n - 1) // 2
    return n * (n - (family.cartan_type == D))


def as_cocharacter(family: GroupFamily, a):
    """The int tuple of a point of the cocharacter lattice Gamma, its one
    check: exactly cartan_dim integral entries, summing to 0 on SL, else
    NotInKernelLattice.  A tuple of ints passes after one scan of the
    entry types; any other input (a bool, an int subclass, a Fraction) is
    checked and converted entry by entry, so every entry is an int."""
    a = tuple(a)
    if {*map(type, a)} != _INT_ONLY or len(a) != family.cartan_dim:
        if len(a) != family.cartan_dim or any(
                not isinstance(c, int) and getattr(c, "denominator", None) != 1 for c in a):
            raise NotInKernelLattice(f"{a} is not a cocharacter: need {family.cartan_dim} integral entries")
        a = tuple(int(c) for c in a)
    if family.kind == SL and sum(a):
        raise NotInKernelLattice("SL cocharacters have trace zero")
    return a


def _point(family: GroupFamily, v=None, index=None):
    """v as a tuple of cartan_dim coordinates, or None when v is None.
    Raises FamilyMismatch for an index of another family, then ValueError
    for a point or functional v of another length, which evaluate would
    silently truncate."""
    if index is not None and index.family != family:
        raise FamilyMismatch("index belongs to a different family")
    if v is None:
        return None
    v = tuple(v)
    if len(v) != family.cartan_dim:
        raise ValueError(f"point ({', '.join(map(str, v))}) has {len(v)} "
                         f"coordinates, {family} needs {family.cartan_dim}")
    return v


def weyl_orbit_size(family: GroupFamily, v, *, limit=None) -> int:
    """|W.v| in closed form: the ways to place the multiset of entries
    (of absolute values, off type A), times a sign for each nonzero entry
    off type A, halved on D when no entry is zero.  The placements
    are counted as a product of binomials, largest multiplicity first, so
    the cost follows the answer rather than the factorial of len(v).

    With a limit, the product stops as soon as it passes the limit: the
    answer is exact when |W.v| <= limit, and otherwise only over it."""
    v = _point(family, v)
    signed = family.cartan_type != A
    size, remaining = 1, len(v)
    if signed:
        nonzero = sum(1 for x in v if x)
        halved = family.cartan_type == D and nonzero == len(v)
        size <<= nonzero - halved
    for count in sorted(Counter(abs(x) if signed else x for x in v).values(),
                        reverse=True):
        if limit is not None and size > limit:
            break
        size *= comb(remaining, count)
        remaining -= count
    return size


def _descending_arrangements(p):
    """Every distinct arrangement of the list p, which must be sorted
    descending, in lexicographically descending order, each once.  Each
    is the previous permutation of the one before: find the rightmost i
    with p[i] > p[i + 1], swap p[i] with the rightmost entry below it,
    reverse the suffix after i.  Works on p in place."""
    n = len(p)
    while True:
        yield tuple(p)
        i = n - 2
        while i >= 0 and p[i] <= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while p[j] >= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]


# The orbit cache keeps an orbit of at most this many coordinates (points
# times cartan_dim): a regular Sp10 or SO11 orbit, 3,840 points of 5.
ORBIT_CACHE_LIMIT = 3840 * 5


# keyed by the dominant point, so every point of an orbit finds it; 128
# orbits of at most ORBIT_CACHE_LIMIT coordinates.  Its hits come from the
# lattice check suite: 73 of 144 lookups in a seed-1 cli_mix benchmark
# pass.  The adjoint-degree oracle keeps its answer per orbit and so looks
# each orbit up once: 0 hits in 215 lookups in a seed-1 canon_oracle pass.
@lru_cache(maxsize=128)
def _weyl_orbit(family: GroupFamily, v):
    """The sorted orbit of v, a point of any chamber.  The entries, or
    their absolute values off type A, are sorted descending, each equal
    value taking the object of its first occurrence in v, and their
    arrangements listed by previous-permutation steps (Knuth, TAOCP 4A,
    7.2.1.2, Algorithm L), with no recursion: on A that list is the
    orbit, sorted.  On B and C every arrangement p adds the product
    of the sign choices of its entries, (x, -x) for a nonzero x and (x,)
    for a zero one, tabled once per value; on D with no zero entry, the
    sign patterns that keep the parity of v's negative entries, tabled
    once, multiply each p.  The signed points are sorted once."""
    first = {}
    if family.cartan_type == A:
        return tuple(_descending_arrangements(
            sorted((first.setdefault(x, x) for x in v), reverse=True)))
    arrangements = _descending_arrangements(
        sorted((first.setdefault(x, x) for x in map(abs, v)), reverse=True))
    points = []
    if family.cartan_type == D and all(v):
        # W(D_n) changes an even number of signs: with no zero entry to
        # absorb one, the count of negative entries keeps its parity
        negatives = sum(1 for x in v if x < 0)
        signs = [s for s in product((1, -1), repeat=len(v))
                 if (s.count(-1) - negatives) % 2 == 0]
        for p in arrangements:
            points.extend(tuple(map(mul, s, p)) for s in signs)
    else:
        choices = {x: (x, -x) if x else (x,) for x in first}
        for p in arrangements:
            points.extend(product(*map(choices.__getitem__, p)))
    points.sort(reverse=True)
    return tuple(points)


def weyl_orbit(family: GroupFamily, v):
    """Finite Weyl orbit of v in closed form, sorted descending, as
    _weyl_orbit lists it.  Refuses an orbit of more than
    WEYL_ORBIT_GUARD coordinates before building it, from its size
    capped at the guard over the length of v.  W.v = W.dom(v), and the
    sorted orbit is the same tuple from every one of its points, so the
    cache is keyed by the dominant representative: a lookup at any
    translate of a cached orbit hits.
    An orbit of more than ORBIT_CACHE_LIMIT coordinates is built afresh
    on each call and not cached."""
    v = dominant_representative(family, v)
    # 1 == Fraction(1) with one hash, so the cache keeps one orbit per
    # number: an integral Fraction entry becomes an int.  A sum of ints is
    # an int, and one Fraction makes it a Fraction.
    if type(sum(v)) is not int:
        v = tuple(int(x) if getattr(x, "denominator", None) == 1 else x for x in v)
    size = weyl_orbit_size(family, v, limit=WEYL_ORBIT_GUARD // len(v))
    if size * len(v) > WEYL_ORBIT_GUARD:
        raise TooLarge(f"the Weyl orbit has more than {WEYL_ORBIT_GUARD} "
                       f"coordinates, its guard")
    if size * len(v) > ORBIT_CACHE_LIMIT:
        return _weyl_orbit.__wrapped__(family, v)
    return _weyl_orbit(family, v)


weyl_orbit.cache_info = _weyl_orbit.cache_info
weyl_orbit.cache_clear = _weyl_orbit.cache_clear


def dominant_representative(family: GroupFamily, v):
    """Unique orbit element in the closed Weyl chamber (all simple roots >= 0):
    the entries sorted descending on type A, their absolute values sorted
    descending off A, with the last one negated on D when no entry is
    zero and an odd number of them are negative.  Read in one frame, as
    _stratum_key reads it; a point of another length raises _point's
    ValueError."""
    v = tuple(v)
    if len(v) != family.cartan_dim:
        _point(family, v)
    t = family.cartan_type
    if t == A:
        return tuple(sorted(v, reverse=True))
    out = sorted(map(abs, v), reverse=True)
    if t == D and all(v) and sum(map(lt, v, repeat(0))) % 2:
        out[-1] = -out[-1]
    return tuple(out)


def _simple_root_signs(family: GroupFamily, v):
    """The sign (-1, 0 or 1) of <alpha_i, v> for each simple root alpha_i,
    in order (Bourbaki, Plates I-IV), each decided by comparing two
    coordinates, with no subtraction: v_i against v_(i+1) for the step
    v_i - v_(i+1), then v_n against 0 for v_n on B and 2 v_n on C, and
    v_(n-1) against -v_n for v_(n-1) + v_n on D.  Checks the length of v
    first."""
    v = _point(family, v)
    pairs = list(zip(v, v[1:]))
    t = family.cartan_type
    if t != A:
        pairs.append((v[-2], -v[-1]) if t == D else (v[-1], 0))
    return [(x > y) - (x < y) for x, y in pairs]


def _order_key(family: GroupFamily, v):
    """The key of the stratum order, of a checked point v: its prefix sums
    s, with the D_n fork entry made s_(n-1) - v_n.  These are the
    simple-root coordinates with the last one on C and the last two on D
    doubled, so they are ints for an int point."""
    s = list(accumulate(v))
    if family.cartan_type == D:
        s[-2] -= v[-1]
    return s


def _stratum_key(family: GroupFamily, v):
    """The order key of dom(v), a W-invariant function of v, read in one
    pass: the chamber step of dominant_representative, then the prefix
    sums of _order_key, whose composition is its reference.  A point of
    another length raises _point's ValueError."""
    v = tuple(v)
    if len(v) != family.cartan_dim:
        _point(family, v)
    t = family.cartan_type
    if t == A:
        return list(accumulate(sorted(v, reverse=True)))
    out = sorted(map(abs, v), reverse=True)
    if t == D and all(v) and sum(map(lt, v, repeat(0))) % 2:
        out[-1] = -out[-1]
    s = list(accumulate(out))
    if t == D:
        s[-2] -= out[-1]
    return s


def simple_root_coordinates(family: GroupFamily, d):
    """The exact c with d = sum c_i alpha_i over the simple roots, or None
    when d is off their span (on A: when the entries of d do not sum to 0).

    c is the order key of d with its doubled ends halved: the prefix sums
    s of d, except c_n = s_n / 2 on C, and on D the fork splits
    into (s_{n-1} - d_n) / 2 and s_n / 2."""
    c = _order_key(family, _point(family, d))
    t = family.cartan_type
    if t == A:
        return c[:-1] if c[-1] == 0 else None
    if t == B:
        return c
    ends = 1 if t == C else 2
    return c[:-ends] + [Fraction(x, 2) for x in c[-ends:]]


def root_name(family: GroupFamily, index: int) -> str:
    """Stable display name of the index-th simple root."""
    n, t = family.cartan_dim, family.cartan_type
    if t == A or index < n - 1:
        return f"a{index + 1},{index + 2}"
    return {B: f"a{n}", C: f"2a{n}", D: f"a{n - 1}+a{n}"}[t]

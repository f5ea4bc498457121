"""Root systems of the classical groups GL, SL, Sp, SO in diagonal coordinates.

Cartan vectors are tuples of exact rationals of length ``cartan_dim``:
r for GL/SL, n for Sp(2n) and SO(2n)/SO(2n+1).  Roots are integer
functionals of the same length, evaluated by the dot product.

The Weyl group acts by permutations (GL/SL) and signed permutations
(Sp, SO; even SO changes an even number of signs), so the simple-root
pairings, the dominant chamber, the simple-root coordinates and the
orbit sizes have closed forms (Bourbaki, Lie Groups and Lie Algebras
ch. VI, Plates I-IV).  So does the orbit itself: the distinct
arrangements of the entries, or for Sp/SO of their absolute values with
every sign pattern on the nonzero ones.  The tests check the closed
forms against a loop of simple reflections and a solve.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import factorial

from .errors import (FamilyMismatch, NotARoot, NotIntegral, TooLarge,
                     UnsupportedRank)

GL, SL, SP, SO = "gl", "sl", "sp", "so"
KINDS = (GL, SL, SP, SO)

# |W(B6)| = |W(C6)|, the largest orbit the hull LP oracle can need under
# its dimension guard; a regular GL9 point (9! translates) is refused.
WEYL_ORBIT_GUARD = 46080


@dataclass(frozen=True)
class GroupFamily:
    """One of GL(r), SL(r), Sp(r) with r even, SO(r)."""

    kind: str
    r: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("rank must be positive")
        if self.kind == SP and self.r % 2 != 0:
            raise UnsupportedRank(f"Sp requires even matrix size, got {self.r}")
        if self.kind == SO and self.r < 2:
            raise UnsupportedRank(f"SO requires r >= 2, got {self.r}")

    @property
    def cartan_dim(self) -> int:
        if self.kind in (GL, SL):
            return self.r
        return self.r // 2

    @property
    def torus_dim(self) -> int:
        """Dimension of the maximal torus (Cartan subgroup)."""
        if self.kind == GL:
            return self.r
        if self.kind == SL:
            return self.r - 1
        return self.r // 2

    def require_root_system(self):
        """Reject the degenerate SO(2) root system."""
        if self.kind == SO and self.r < 3:
            raise UnsupportedRank("SO(2) has no usable root system")


def _e(i, dim, c=1):
    v = [0] * dim
    v[i] = c
    return tuple(v)


def evaluate(functional, v):
    """Dot-product pairing of an integer functional against a Cartan vector."""
    return sum(a * b for a, b in zip(functional, v))


def simple_roots(family: GroupFamily):
    """Ordered simple roots of the family in diagonal coordinates."""
    family.require_root_system()
    dim = family.cartan_dim
    out = [tuple(_sub(_e(l, dim), _e(l + 1, dim))) for l in range(dim - 1)]
    if family.kind in (GL, SL):
        return tuple(out)
    n = dim
    if family.kind == SP:
        out.append(_e(n - 1, dim, 2))
    elif family.r % 2 == 1:
        out.append(_e(n - 1, dim))
    else:
        last = list(_e(n - 2, dim))
        last[n - 1] = 1
        out.append(tuple(last))
    return tuple(out)


def simple_root_count(family: GroupFamily) -> int:
    """len(simple_roots(family)) without building them."""
    family.require_root_system()
    return family.cartan_dim - (family.kind in (GL, SL))


def as_cocharacter(family: GroupFamily, a):
    """The integer tuple of a Cartan vector that must be a cocharacter:
    exactly cartan_dim entries, each an integer or an integral rational."""
    a = tuple(a)
    if len(a) != family.cartan_dim or any(
            not isinstance(c, int) and getattr(c, "denominator", None) != 1 for c in a):
        raise NotIntegral(f"{a} is not a cocharacter: need {family.cartan_dim} integral entries")
    return tuple(int(c) for c in a)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def positive_roots(family: GroupFamily):
    """Positive roots: closure of the simple system, listed deterministically."""
    family.require_root_system()
    dim = family.cartan_dim
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(_sub(_e(i, dim), _e(j, dim)))
            if family.kind in (SP, SO):
                out.append(tuple(a + b for a, b in zip(_e(i, dim), _e(j, dim))))
    if family.kind == SP:
        out.extend(_e(i, dim, 2) for i in range(dim))
    elif family.kind == SO and family.r % 2 == 1:
        out.extend(_e(i, dim) for i in range(dim))
    return tuple(sorted(out, reverse=True))


def all_roots(family: GroupFamily):
    pos = positive_roots(family)
    return pos + tuple(tuple(-c for c in a) for a in pos)


def is_root(family: GroupFamily, functional) -> bool:
    return tuple(functional) in all_roots(family)


def coroot(family: GroupFamily, root):
    """The coroot 2a/<a,a> of a root, under the standard dot product;
    classical coroots are integral in these coordinates."""
    if not is_root(family, root):
        raise NotARoot(f"{root} is not a root of {family}")
    norm = sum(c * c for c in root)
    return tuple(2 * c // norm for c in root)


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
                         f"coordinates, {family.kind}{family.r} needs "
                         f"{family.cartan_dim}")
    return v


def weyl_orbit_size(family: GroupFamily, v) -> int:
    """|W.v| in closed form: the ways to place the multiset of entries
    (of absolute values, for Sp/SO), times a sign for each nonzero entry
    off GL/SL, halved for even SO when no entry is zero."""
    family.require_root_system()
    v = _point(family, v)
    signed = family.kind not in (GL, SL)
    size = factorial(len(v))
    for count in Counter(abs(x) if signed else x for x in v).values():
        size //= factorial(count)
    if signed:
        size <<= sum(1 for x in v if x)
        if family.kind == SO and family.r % 2 == 0 and all(v):
            size //= 2
    return size


def _arrangements(counts, n):
    """Every distinct sequence of length n that uses each entry as often
    as counts says, each once; counts is restored on return."""
    if not n:
        return [()]
    out = []
    for x, m in counts.items():
        if m:
            counts[x] = m - 1
            out += [(x,) + rest for rest in _arrangements(counts, n - 1)]
            counts[x] = m
    return out


# keyed by the dominant point, so every point of an orbit finds it; holds
# every distinct orbit of a cli_mix benchmark run (103-135 of them)
@lru_cache(maxsize=128)
def _weyl_orbit(family: GroupFamily, v):
    size = weyl_orbit_size(family, v)
    if size > WEYL_ORBIT_GUARD:
        raise TooLarge(f"the Weyl orbit has {size} points, over the guard "
                       f"of {WEYL_ORBIT_GUARD}")
    if family.kind in (GL, SL):
        return tuple(sorted(_arrangements(Counter(v), len(v)), reverse=True))
    # even SO changes an even number of signs: with no zero entry to absorb
    # one, the count of negative entries keeps its parity
    parity = family.kind == SO and family.r % 2 == 0 and all(v)
    negatives = sum(1 for x in v if x < 0)
    points = []
    for p in _arrangements(Counter(map(abs, v)), len(v)):
        for signs in product(*((1, -1) if x else (1,) for x in p)):
            if not parity or (signs.count(-1) - negatives) % 2 == 0:
                points.append(tuple(s * x for s, x in zip(signs, p)))
    return tuple(sorted(points, reverse=True))


def weyl_orbit(family: GroupFamily, v):
    """Finite Weyl orbit of v in closed form, sorted descending: the
    distinct arrangements of the entries for GL/SL; for Sp/SO those of
    the absolute values, with every sign pattern on the nonzero ones.
    Refuses an orbit of more than WEYL_ORBIT_GUARD points before building
    it.  W.v = W.dom(v), and the sorted orbit is the same tuple from
    every one of its points, so the cache is keyed by the dominant
    representative: a lookup at any translate of a cached orbit hits."""
    return _weyl_orbit(family, dominant_representative(family, v))


weyl_orbit.cache_info = _weyl_orbit.cache_info
weyl_orbit.cache_clear = _weyl_orbit.cache_clear


def dominant_representative(family: GroupFamily, v):
    """Unique orbit element in the closed Weyl chamber (all simple roots >= 0):
    the entries sorted descending for GL/SL, their absolute values sorted
    descending for Sp/SO, with the last one negated for even SO when no
    entry is zero and an odd number of them are negative."""
    family.require_root_system()
    v = _point(family, v)
    if family.kind in (GL, SL):
        return tuple(sorted(v, reverse=True))
    out = sorted(map(abs, v), reverse=True)
    if family.kind == SO and family.r % 2 == 0 and all(v) \
            and sum(1 for x in v if x < 0) % 2:
        out[-1] = -out[-1]
    return tuple(out)


def _simple_root_values(family: GroupFamily, v):
    """<alpha_i, v> for each simple root alpha_i, in order: the steps
    v_i - v_(i+1), then 2 v_n for Sp, v_n for odd SO and v_(n-1) + v_n for
    even SO (Bourbaki, Plates I-IV).  Checks the length of v first."""
    v = _point(family, v)
    family.require_root_system()
    values = [x - y for x, y in zip(v, v[1:])]
    if family.kind == SP:
        values.append(2 * v[-1])
    elif family.kind == SO:
        values.append(v[-1] if family.r % 2 else v[-2] + v[-1])
    return values


def is_dominant(family: GroupFamily, v) -> bool:
    return all(x >= 0 for x in _simple_root_values(family, v))


def simple_root_coordinates(family: GroupFamily, d):
    """The exact c with d = sum c_i alpha_i over the simple roots, or None
    when d is off their span (GL/SL: when the entries of d do not sum to 0).

    With s the prefix sums of d, c_i = s_i except at the end of the
    diagram: c_n = s_n / 2 for Sp, and for even SO the fork splits into
    (s_{n-1} - d_n) / 2 and s_n / 2."""
    family.require_root_system()
    d = _point(family, d)
    s = list(accumulate(d))
    if family.kind in (GL, SL):
        return s[:-1] if s[-1] == 0 else None
    if family.kind == SP:
        return s[:-1] + [Fraction(s[-1], 2)]
    if family.r % 2:
        return s
    return s[:-2] + [Fraction(s[-2] - d[-1], 2), Fraction(s[-1], 2)]


def root_name(family: GroupFamily, index: int) -> str:
    """Stable display name of the index-th simple root."""
    n = family.cartan_dim
    if family.kind in (GL, SL) or index < n - 1:
        return f"a{index + 1},{index + 2}"
    if family.kind == SP:
        return f"2a{n}"
    if family.r % 2 == 1:
        return f"a{n}"
    return f"a{n - 1}+a{n}"

"""Solve, Hermite and kernel routes that the closed forms replaced, kept
as independent oracles for the tests: the rational solve and the
Hermite-reduced integer row kernel, the point v_I and its sign test for
the root split, and the integer row kernel for the character generators.
"""

from fractions import Fraction
from math import gcd

from hnbundles.rootsys import all_roots, coroot, evaluate, simple_roots


def solve_rational(rows, rhs):
    """Solve sum_j x_j * rows[j] = rhs over the rationals.

    Returns the coefficient list, or None if rhs is not in the row span.
    If the rows are dependent, an arbitrary consistent solution is returned.
    """
    k = len(rows)
    if k == 0:
        return [] if not any(rhs) else None
    m = len(rows[0])
    # augmented system A^T x = rhs
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = aug[i][k]
    return sol


def _hermite_reduce(rows):
    """Row-style Hermite normal form with positive pivots (for determinism)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    m = len(rows[0])
    out = []
    work = rows
    col = 0
    while work and col < m:
        cand = [r for r in work if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                nr = [a - q * b for a, b in zip(r, piv)]
                r[:] = nr
                if r[col] != 0:
                    done = False
            cand = [r for r in cand if r[col] != 0] or [piv]
            if done or len(cand) == 1:
                break
        piv = cand[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        out.append(piv)
        rest = [r for r in work if r != piv]
        # eliminate this column from the rest
        nrest = []
        for r in rest:
            if r[col] != 0:
                q = r[col] // piv[col]
                r = [a - q * b for a, b in zip(r, piv)]
            if any(r):
                nrest.append(list(r))
        work = nrest
        col += 1
    # reduce entries above pivots
    for i in reversed(range(len(out))):
        pcol = next(j for j, a in enumerate(out[i]) if a != 0)
        for j in range(i):
            q = out[j][pcol] // out[i][pcol]
            if q:
                out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    return [tuple(r) for r in out]


def _row_kernel(mat):
    """Integer basis of {x : x * mat = 0}, Hermite-reduced, positive pivots."""
    m = len(mat)
    if m == 0:
        return []
    k = len(mat[0])
    # [mat | I] row reduction over Z (fraction-free via gcd steps)
    work = [list(mat[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(k):
        piv = None
        for i in range(row, m):
            if work[i][col] != 0 and (piv is None or abs(work[i][col]) < abs(work[piv][col])):
                piv = i
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        changed = True
        while changed:
            changed = False
            for i in range(row + 1, m):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
                    if work[i][col] != 0:
                        work[row], work[i] = work[i], work[row]
                        changed = True
        row += 1
        if row == m:
            break
    kernel = [w[k:] for w in work[row:]]
    return _hermite_reduce(kernel)


def primitive(vec):
    """Divide an integer vector by the gcd of its entries; fix leading sign > 0."""
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    if g == 0:
        return tuple(vec)
    out = [c // g for c in vec]
    lead = next((c for c in out if c != 0), 0)
    if lead < 0:
        out = [-c for c in out]
    return tuple(out)


def index_point(index):
    """The point v_I where the simple roots in I take the value 1 and the
    others 0, from one solve on the transposed simple-root matrix."""
    simples = simple_roots(index.family)
    columns = [[a[t] for a in simples] for t in range(index.family.cartan_dim)]
    return solve_rational(columns, [int(i in index.members)
                                    for i in range(len(simples))])


def root_split_oracle(index):
    """(Levi roots, nilradical roots) by one sign test per root at v_I: a
    root's simple-root coefficients share one sign, so the Levi roots are
    the roots vanishing at v_I and the nilradical roots those positive
    there."""
    point = index_point(index)
    levi, nilrad = [], []
    for a in all_roots(index.family):
        value = evaluate(a, point)
        if value == 0:
            levi.append(a)
        elif value > 0:
            nilrad.append(a)
    return tuple(levi), tuple(nilrad)


def generator_oracle(family, i):
    """The character generator of the i-th simple root (0-based) by the
    kernel route: the line in the span of the simple roots that pairs to
    zero with every other simple coroot, its primitive point with positive
    pairing, scaled to the least multiple with integral simple-root
    coordinates."""
    simples = simple_roots(family)
    coroots = [coroot(family, a) for a in simples]
    others = [k for k in range(len(simples)) if k != i]
    mat = [[evaluate(simples[j], coroots[k]) for k in others]
           for j in range(len(simples))]
    kernel = _row_kernel(mat)
    if len(kernel) != 1:
        raise AssertionError(f"the character line of simple root {i} has "
                             f"rank {len(kernel)}, not 1")
    c = kernel[0]
    chi = primitive(tuple(sum(c[j] * simples[j][t] for j in range(len(simples)))
                          for t in range(family.cartan_dim)))
    if evaluate(chi, coroots[i]) < 0:
        chi = tuple(-x for x in chi)
    scale = 1
    for q in solve_rational(simples, chi):
        scale = scale * q.denominator // gcd(scale, q.denominator)
    return tuple(scale * x for x in chi)

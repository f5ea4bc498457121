"""Small exact linear algebra kernel: the Smith normal form of an integer
matrix with its column transform, over Python ints.  Matrices are lists of
row tuples/lists."""


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (diag, V, V^{-1}) where diag is the list of invariant factors
    (including zeros up to min(k, m)) and V is the unimodular m x m column
    transform with U * mat * V diagonal for some unimodular U; V^{-1} is
    built alongside from the inverse of each column operation.  Row space
    of mat over the integers equals span{diag[i] * row_i(V^{-1})}.
    """
    a = [list(r) for r in mat]
    k = len(a)
    m = len(a[0]) if k else 0
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vinv = [row[:] for row in v]  # rows of V^{-1}

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        v[i] = [x - q * y for x, y in zip(v[i], v[j])]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    t = 0
    while t < min(k, m):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, k):
            for j in range(t, m):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, k):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, k)) \
                    and all(a[t][j] == 0 for j in range(t + 1, m)):
                break
        # divisibility fix-up: pivot must divide the remaining block
        entry = None
        for i in range(t + 1, k):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t] != 0:
                    entry = (i, j)
                    break
            if entry:
                break
        if entry:
            add_row(t, entry[0], -1)  # row_t += row_i
            continue
        if a[t][t] < 0:
            for r in a:
                r[t] = -r[t]
            v[t] = [-x for x in v[t]]
            vinv[t] = [-x for x in vinv[t]]
        t += 1
    diag = [a[i][i] if i < m else 0 for i in range(min(k, m))]
    # note: columns of the work matrix were transformed; v rows track columns
    v_mat = [[v[j][i] for j in range(m)] for i in range(m)]
    return diag, v_mat, vinv


"""Confluent divided differences of exp, pure Python reference kernel.

ddexp(nodes) returns exp[b_0, ..., b_{m-1}], the divided difference of the
exponential over the given nodes, repeated nodes allowed.  The classical
recursive formula divides by node gaps and is catastrophically unstable for
clustered nodes, so this kernel instead exponentiates the Opitz bidiagonal
matrix (diagonal = nodes, superdiagonal = 1), whose exponential carries every
divided difference exp[b_i..b_j] in entry (i, j).

Stability comes from three ingredients: nodes are centered (factor exp(c)
pulled out), scaled by 2^-K until the spread is at most 1/2, and the seed
table is filled entry by entry from the complete-homogeneous-symmetric series

    exp[x_0..x_r] = sum_k h_k(x_0..x_r) / (r + k)!

which converges fast for small nodes.  The K squarings that undo the scaling
only ever add and multiply nonnegative numbers, so no cancellation occurs at
any point.

Every series goes through _series, which dispatches on the number of nodes.
Two to five nodes, the node counts of the entropy moments (up to two
factors) on 1-D and 2-D polytopes, run straight-line code: h_k(x_0..x_t)
lives in local floats instead of a list, and the row of 1/(r + k)! is
computed once at import by the same repeated divisions.  The
multiplications and additions are those of the generic loop _dd_series, in
the same order, so the results have the same bits.  Longer node lists run
_dd_series itself.

Only the entries the answer B^(2^K)[0][m-1] reads are computed.  At K = 0
that is the one seed entry (0, m-1): a single series, no table.  At K = 1
the one squaring reads row 0 and column m-1 of the seed table, so those
2m - 3 series and two diagonal exps are all that is filled.  At K >= 2 the
whole seed table is filled and squared K - 1 times.  The last squaring
always forms just the corner, the sum over k of B[0][k] * B[k][m-1] from
0.0 with k ascending, as a full squaring would, so the result has the same
bits as squaring the whole table K times.

The small tables, the most common in the integrators, run straight-line
code.  Two to four nodes take _ddexp2, _ddexp3 and _ddexp4, which keep
their table entries in locals from the centering to the corner and call
the straight-line series directly; at K >= 2 three and four nodes square
with _corner3 and _corner4, whose entries are locals too.  Each step makes
the generic path's float operations in the same order (each squared entry
is _square_upper's sum, from 0.0 with k ascending), so the bits are those
of the lists and loops, which serve five or more nodes.

Every float sum of the package, the centring here included, goes left to
right from 0.0 through _float_sum or written out as 0.0 + a + b + ...: from
Python 3.12 on builtin sum compensates, and would give other bits.
"""

from math import exp, factorial, frexp


def _safe_exp(x):
    if x > 709.0:
        return float("inf")
    return exp(x)


def _float_sum(values):
    """The package's one float sum: left to right from 0.0, uncompensated."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dd_series(x):
    """Divided difference of exp over small nodes (|x_i| <= 1/2).

    The generic series loop: ddexp uses it for more than five nodes, and it
    is the reference the straight-line series are tested against."""
    r = len(x) - 1
    invf = 1.0 / factorial(r)
    total = invf
    # h[t] holds h_k(x_0..x_t); each pass turns h_{k-1} into h_k in place,
    # left to right: acc is the new h[t - 1] when h[t] still holds the old
    h = [1.0] * (r + 1)
    x0 = x[0]
    rest = range(1, r + 1)
    small = 0
    for k in range(1, 60):
        invf /= r + k
        acc = h[0] = x0 * h[0]
        for t in rest:
            acc = h[t] = acc + x[t] * h[t]
        term = acc * invf
        total += term
        # sign-symmetric nodes zero out alternate terms, so one small term
        # is not yet convergence
        if abs(term) <= 1e-19 * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


def _factorial_row(n):
    """1/(r+k)! for k = 0..59, r = n - 1, by _dd_series's own divisions."""
    r = n - 1
    invf = 1.0 / factorial(r)
    row = [invf]
    for k in range(1, 60):
        invf /= r + k
        row.append(invf)
    return row[0], tuple(row[1:])


# The straight-line series below are _dd_series for two to five nodes with
# h0..h4 in locals.  Their stop test drops the two abs calls:
# -lim <= term <= lim with lim = 1e-19 * total.  That is exact because every
# partial sum is at least (2 - e^(1/2)) / r! > 0.35 / r! > 0 when
# |x_i| <= 1/2 (|h_k| is at most C(r+k, k) / 2^k), so abs(total) == total;
# and a NaN term or total fails both tests alike.
_F2, _ROW2 = _factorial_row(2)
_F3, _ROW3 = _factorial_row(3)
_F4, _ROW4 = _factorial_row(4)
_F5, _ROW5 = _factorial_row(5)


def _series2(x):
    x0, x1 = x
    total = _F2
    h0 = h1 = 1.0
    small = False
    for invf in _ROW2:
        h0 = x0 * h0
        h1 = h0 + x1 * h1
        term = h1 * invf
        total += term
        lim = 1e-19 * total
        if -lim <= term <= lim:
            if small:
                break
            small = True
        else:
            small = False
    return total


def _series3(x):
    x0, x1, x2 = x
    total = _F3
    h0 = h1 = h2 = 1.0
    small = False
    for invf in _ROW3:
        h0 = x0 * h0
        h1 = h0 + x1 * h1
        h2 = h1 + x2 * h2
        term = h2 * invf
        total += term
        lim = 1e-19 * total
        if -lim <= term <= lim:
            if small:
                break
            small = True
        else:
            small = False
    return total


def _series4(x):
    x0, x1, x2, x3 = x
    total = _F4
    h0 = h1 = h2 = h3 = 1.0
    small = False
    for invf in _ROW4:
        h0 = x0 * h0
        h1 = h0 + x1 * h1
        h2 = h1 + x2 * h2
        h3 = h2 + x3 * h3
        term = h3 * invf
        total += term
        lim = 1e-19 * total
        if -lim <= term <= lim:
            if small:
                break
            small = True
        else:
            small = False
    return total


def _series5(x):
    x0, x1, x2, x3, x4 = x
    total = _F5
    h0 = h1 = h2 = h3 = h4 = 1.0
    small = False
    for invf in _ROW5:
        h0 = x0 * h0
        h1 = h0 + x1 * h1
        h2 = h1 + x2 * h2
        h3 = h2 + x3 * h3
        h4 = h3 + x4 * h4
        term = h4 * invf
        total += term
        lim = 1e-19 * total
        if -lim <= term <= lim:
            if small:
                break
            small = True
        else:
            small = False
    return total


_STRAIGHT = {2: _series2, 3: _series3, 4: _series4, 5: _series5}


def _series(x):
    """Divided difference of exp over 2 or more small nodes (|x_i| <= 1/2):
    a straight-line series for two to five nodes, else _dd_series."""
    return _STRAIGHT.get(len(x), _dd_series)(x)


def _square_upper(B):
    """B @ B for an upper-triangular B: entry (i, j) sums B[i][k] * B[k][j]
    from 0.0 with k ascending.  ddexp squares tables of five or more nodes
    with it; _corner3 and _corner4 repeat its sums in straight lines."""
    m = len(B)
    C = [[0.0] * m for _ in range(m)]
    for i in range(m):
        Bi = B[i]
        Ci = C[i]
        for j in range(i, m):
            acc = 0.0
            for k in range(i, j + 1):
                acc += Bi[k] * B[k][j]
            Ci[j] = acc
    return C


def _corner_of_square(B):
    """Entry (0, m-1) of B @ B, summed exactly as _square_upper sums it."""
    last = len(B) - 1
    B0 = B[0]
    acc = 0.0
    for k in range(last + 1):
        acc += B0[k] * B[k][last]
    return acc


# _corner3 and _corner4 square a 3 x 3 or 4 x 4 upper-triangular table the
# given number of times, then return the corner of one more squaring: the
# entries live in locals, and each is _square_upper's sum, from 0.0 with k
# ascending, so the corner has the same bits as the loops give.


def _corner3(B, squarings):
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = B
    for _ in range(squarings):
        b00, b01, b02, b11, b12, b22 = (
            0.0 + b00 * b00,
            0.0 + b00 * b01 + b01 * b11,
            0.0 + b00 * b02 + b01 * b12 + b02 * b22,
            0.0 + b11 * b11,
            0.0 + b11 * b12 + b12 * b22,
            0.0 + b22 * b22,
        )
    return 0.0 + b00 * b02 + b01 * b12 + b02 * b22


def _corner4(B, squarings):
    (b00, b01, b02, b03), (_, b11, b12, b13), (_, _, b22, b23), B3 = B
    b33 = B3[3]
    for _ in range(squarings):
        b00, b01, b02, b03, b11, b12, b13, b22, b23, b33 = (
            0.0 + b00 * b00,
            0.0 + b00 * b01 + b01 * b11,
            0.0 + b00 * b02 + b01 * b12 + b02 * b22,
            0.0 + b00 * b03 + b01 * b13 + b02 * b23 + b03 * b33,
            0.0 + b11 * b11,
            0.0 + b11 * b12 + b12 * b22,
            0.0 + b11 * b13 + b12 * b23 + b13 * b33,
            0.0 + b22 * b22,
            0.0 + b22 * b23 + b23 * b33,
            0.0 + b33 * b33,
        )
    return 0.0 + b00 * b03 + b01 * b13 + b02 * b23 + b03 * b33


def _depth(spread):
    """Smallest K with spread / 2^K <= 1/2, for spread > 1/2."""
    K = max(0, frexp(spread / 0.5)[1])
    while spread * (0.5 ** K) > 0.5:
        K += 1
    return K


def _ddexp2(a, b):
    """exp[a, b]: ddexp's steps for two nodes, with the 2 x 2 table in locals.

    At K = 1 the one squaring is the corner alone, which is the K >= 2 loop
    run zero times."""
    c = (0.0 + a + b) / 2
    h0 = a - c
    h1 = b - c
    spread = abs(h0)  # max(abs(h0), abs(h1)), NaN included
    if abs(h1) > spread:
        spread = abs(h1)
    if not spread > 0.5:
        return _safe_exp(c) * _series2((h0, h1))
    K = _depth(spread)
    eps = 0.5 ** K
    s0 = h0 * eps
    s1 = h1 * eps
    b00 = exp(s0)
    b01 = eps * _series2((s0, s1))
    b11 = exp(s1)
    for _ in range(K - 1):
        b00, b01, b11 = 0.0 + b00 * b00, 0.0 + b00 * b01 + b01 * b11, 0.0 + b11 * b11
    return _safe_exp(c) * (0.0 + b00 * b01 + b01 * b11)


def _ddexp3(a, b, c):
    """exp[a, b, c]: ddexp's steps for three nodes, with the table in locals.

    At K = 1 the one squaring is the corner alone, which reads every seed
    entry but b11; at K >= 2 _corner3 squares the whole table."""
    mean = (0.0 + a + b + c) / 3
    h0 = a - mean
    h1 = b - mean
    h2 = c - mean
    spread = abs(h0)  # max(map(abs, [h0, h1, h2])), NaN included
    if abs(h1) > spread:
        spread = abs(h1)
    if abs(h2) > spread:
        spread = abs(h2)
    if not spread > 0.5:
        return _safe_exp(mean) * _series3((h0, h1, h2))
    K = _depth(spread)
    eps = 0.5 ** K
    s0 = h0 * eps
    s1 = h1 * eps
    s2 = h2 * eps
    b00 = exp(s0)
    b01 = eps * _series2((s0, s1))
    b02 = eps**2 * _series3((s0, s1, s2))
    b12 = eps * _series2((s1, s2))
    b22 = exp(s2)
    if K == 1:
        return _safe_exp(mean) * (0.0 + b00 * b02 + b01 * b12 + b02 * b22)
    B = ((b00, b01, b02), (0.0, exp(s1), b12), (0.0, 0.0, b22))
    return _safe_exp(mean) * _corner3(B, K - 1)


def _ddexp4(a, b, c, d):
    """exp[a, b, c, d]: ddexp's steps for four nodes, with the table in locals.

    At K = 1 the one squaring is the corner alone, which reads row 0 and
    column 3 of the seed table; at K >= 2 _corner4 squares the whole table."""
    mean = (0.0 + a + b + c + d) / 4
    h0 = a - mean
    h1 = b - mean
    h2 = c - mean
    h3 = d - mean
    spread = abs(h0)  # max(map(abs, [h0, h1, h2, h3])), NaN included
    if abs(h1) > spread:
        spread = abs(h1)
    if abs(h2) > spread:
        spread = abs(h2)
    if abs(h3) > spread:
        spread = abs(h3)
    if not spread > 0.5:
        return _safe_exp(mean) * _series4((h0, h1, h2, h3))
    K = _depth(spread)
    eps = 0.5 ** K
    s0 = h0 * eps
    s1 = h1 * eps
    s2 = h2 * eps
    s3 = h3 * eps
    b00 = exp(s0)
    b01 = eps * _series2((s0, s1))
    b02 = eps**2 * _series3((s0, s1, s2))
    b03 = eps**3 * _series4((s0, s1, s2, s3))
    b13 = eps**2 * _series3((s1, s2, s3))
    b23 = eps * _series2((s2, s3))
    b33 = exp(s3)
    if K == 1:
        return _safe_exp(mean) * (0.0 + b00 * b03 + b01 * b13 + b02 * b23 + b03 * b33)
    B = (
        (b00, b01, b02, b03),
        (0.0, exp(s1), eps * _series2((s1, s2)), b13),
        (0.0, 0.0, exp(s2), b23),
        (0.0, 0.0, 0.0, b33),
    )
    return _safe_exp(mean) * _corner4(B, K - 1)


def ddexp(nodes):
    """Divided difference exp[nodes[0], ..., nodes[-1]] (order insensitive)."""
    m = len(nodes)
    if m == 2:
        return _ddexp2(*nodes)
    if m == 3:
        return _ddexp3(*nodes)
    if m == 4:
        return _ddexp4(*nodes)
    if m == 0:
        raise ValueError("need at least one node")
    if m == 1:
        return _safe_exp(nodes[0])
    c = _float_sum(nodes) / m
    h = [b - c for b in nodes]
    spread = max(map(abs, h))
    K = _depth(spread) if spread > 0.5 else 0
    if K == 0:
        # eps = 1, so s = h and the answer is the one seed entry (0, m-1)
        return _safe_exp(c) * _series(h)
    eps = 0.5 ** K
    s = [v * eps for v in h]
    epow = [eps**j for j in range(m)]
    last = m - 1

    B = [[0.0] * m for _ in range(m)]
    if K == 1:
        # one squaring reads only row 0 and column m-1 of the seed table
        B[0][0] = exp(s[0])
        B[last][last] = exp(s[last])
        for j in range(1, m):
            B[0][j] = epow[j] * _series(s[: j + 1])
        for i in range(1, last):
            B[i][last] = epow[last - i] * _series(s[i:])
        return _safe_exp(c) * _corner_of_square(B)
    for i in range(m):
        B[i][i] = exp(s[i])
    for i in range(m):
        for j in range(i + 1, m):
            B[i][j] = epow[j - i] * _series(s[i : j + 1])
    for _ in range(K - 1):
        B = _square_upper(B)
    return _safe_exp(c) * _corner_of_square(B)


BACKEND = "python"

"""Reference matrices for the column-operation fold of braidrep.matrixrep,
and reference Laurent arithmetic for the packed keys of braidrep.laurent.

Every letter becomes a full matrix, written directly from the generator
formula, and a word is the plain sparse product of its letter matrices.
This is slow and independent of the fold; the tests compare the two.
Matrices here are sparse rows {r: {c: value}} unless a function says
otherwise.

The reference relation report folds every side of every relation instance
from the identity with braidrep.matrixrep._fold, letter by letter, with no
column shared between sides.

A reference polynomial is a plain dict {exponent tuple: nonzero int}, one
tuple slot per ring variable in ring order, with no packing and no bound.

The reference collinearity events work in Fractions throughout and
isolate each root by bisection, where braidrep.collinearity scales to
integers and compares roots in closed form.  The every-triple events are
braidrep.collinearity's integer detection without its savings: every point
is rescaled at every breakpoint time, and every pair and every triple is
solved on every interval.  The reference interval weights build the exact
positions that braidrep.collinearity bounds from floats.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

from braidrep import matrixrep
from braidrep.collinearity import (
    CollinearityEvent,
    DegenerateEventError,
    TrajectoryError,
    _emitted,
    _exact_order,
    _sign,
    _time,
)
from braidrep.laurent import LaurentRing
from braidrep.matrixrep import (
    PRODUCT_WORD_ORDER,
    PolyMatrix,
    basis_index,
)


def rho_generator(n, i, j, k, exponent=1):
    """Matrix of a(i,j,k)^exponent; the inverse letter is the matrix of the
    reversed triple a(k,j,i)."""
    if exponent == -1:
        return rho_generator(n, k, j, i, 1)
    if exponent != 1:
        raise ValueError(f"exponent must be +-1, got {exponent}")
    if len({i, j, k}) != 3:
        raise ValueError(f"indices must be pairwise distinct: {(i, j, k)}")
    for v in (i, j, k):
        if not 1 <= v <= n:
            raise ValueError(f"index {v} out of range 1..{n}")
    ring = LaurentRing.for_strands(n)
    index = basis_index(n)
    one = ring.one()
    m = PolyMatrix(n * (n - 1), {r: {r: one} for r in range(n * (n - 1))}, n)
    t_i = ring.var(f"t{i}")
    t_k_inv = ring.var(f"t{k}", -1)
    s_j = ring.var(f"s{j}")
    s_j_inv = ring.var(f"s{j}", -1)

    def set_column(col_pair, images):
        c = index[col_pair]
        for r in list(m.rows):
            m.rows[r].pop(c, None)
            if not m.rows[r]:
                del m.rows[r]
        for row_pair, value in images.items():
            if not value:
                continue
            m.rows.setdefault(index[row_pair], {})[c] = value

    set_column((i, j), {(i, j): t_i, (i, k): one - t_i})
    set_column((k, j), {(k, j): t_k_inv, (k, i): one - t_k_inv})
    set_column((j, k), {(j, k): s_j})
    set_column((j, i), {(j, i): s_j_inv})
    return m


def burau_generator(n, i, exponent):
    """n x n Burau matrix of s_i^exponent: the 2x2 block [[1-t, t], [1, 0]]
    (inverse [[0, 1], [t^-1, 1-t^-1]]) at strands (i, i+1)."""
    ring = LaurentRing.burau()
    one, zero = ring.one(), ring.zero()
    t, u = ring.var("t"), ring.var("t", -1)
    block = [[one - t, t], [one, zero]] if exponent == 1 else [[zero, one], [u, one - u]]
    rows = {r: {r: one} for r in range(n) if r not in (i - 1, i)}
    for dr in (0, 1):
        rows[i - 1 + dr] = {i - 1 + dc: block[dr][dc] for dc in (0, 1) if block[dr][dc]}
    return rows


def matmul(a, b):
    """Sparse product of row dicts; zero entries are dropped."""
    out = {}
    for r, arow in a.items():
        acc = {}
        for k, x in arow.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def product(dim, one, matrices, order=PRODUCT_WORD_ORDER):
    """Left-to-right (word order) or right-to-left product of the matrices."""
    m = {r: {r: one} for r in range(dim)}
    for g in matrices:
        m = matmul(m, g) if order == PRODUCT_WORD_ORDER else matmul(g, m)
    return m


def word_product(word, order=PRODUCT_WORD_ORDER, assignment=None):
    """Symbolic product of a GnWord's letter matrices or, given an
    assignment, the product of the letter matrices specialised one by one."""
    ring = LaurentRing.for_strands(word.n)
    letters = []
    for (i, j, k), e in word.letters:
        rows = rho_generator(word.n, i, j, k, e).rows
        if assignment is not None:
            rows = {r: {c: v.eval(assignment) for c, v in row.items()}
                    for r, row in rows.items()}
        letters.append(rows)
    one = ring.one() if assignment is None else 1
    return product(word.n * (word.n - 1), one, letters, order)


def burau_product(w):
    return product(w.n, LaurentRing.burau().one(),
                   [burau_generator(w.n, i, e) for i, e in w.letters])


def relation_report(n):
    """The report of matrixrep.check_relations(n), each side folded from the
    identity by matrixrep._fold with the rewrites of matrixrep._gn_ops (read
    when called, so a patched _gn_ops applies here too)."""
    ring = LaurentRing.for_strands(n)
    one, dim = ring.one(), n * (n - 1)
    ops = matrixrep._gn_ops(n, matrixrep._laurent_scalar(ring), one)
    triples = list(permutations(range(1, n + 1), 3))
    instances = [(1, f"a{t} a{t[::-1]} = 1", (t, t[::-1]), ()) for t in triples]
    instances += [
        (2, f"a{t1} a{t2} commute", (t1, t2), (t2, t1))
        for t1, t2 in combinations(triples, 2)
        if len(set(t1) | set(t2)) >= 5
    ]
    instances += [
        (3, f"tetrahedron ({i},{j},{k},{l})",
         ((i, j, k), (i, j, l), (i, k, l), (j, k, l)),
         ((j, k, l), (i, k, l), (i, j, l), (i, j, k)))
        for subset in combinations(range(1, n + 1), 4)
        for i, j, k, l in permutations(subset)
    ]
    fold = matrixrep._fold
    return [
        {"relation": relation, "instance": instance,
         "ok": fold(dim, one, lhs, ops) == fold(dim, one, rhs, ops)}
        for relation, instance, lhs, rhs in instances
    ]


def laurent_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def laurent_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def laurent_eval(names, a, assignment):
    total = Fraction(0)
    for vec, coeff in a.items():
        term = Fraction(coeff)
        for name, e in zip(names, vec):
            term *= Fraction(assignment[name]) ** e
        total += term
    return total


def laurent_str(names, a):
    """Terms in decreasing lexicographic order of exponent tuples, each as
    coefficient*name^e with unit coefficients and exponents left out."""
    if not a:
        return "0"
    parts = []
    for vec in sorted(a, reverse=True):
        coeff = a[vec]
        factors = "*".join(name if e == 1 else f"{name}^{e}"
                           for name, e in zip(names, vec) if e)
        if not factors:
            parts.append(str(coeff))
        elif coeff in (1, -1):
            parts.append(("-" if coeff < 0 else "") + factors)
        else:
            parts.append(f"{coeff}*{factors}")
    return " + ".join(parts)


def _at(path, t):
    """Exact position at time t of a path of (t, x, y) Fraction triples."""
    for (t0, x0, y0), (t1, x1, y1) in zip(path, path[1:]):
        if t0 <= t <= t1:
            u = (t - t0) / (t1 - t0)
            return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))
    raise ValueError(f"time {t} outside the path")


def _det(pa, pb, pc):
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def collinearity_events(paths):
    """(time, emitted triple) of every collinearity event of the motion, in
    time order, under the (O1, O2, M) convention of braidrep.collinearity.

    On each interval between consecutive breakpoint times of any path the
    orientation determinant f(u) of a triple is a quadratic in u; it is
    rebuilt from f(0), f(1/2) and f(1), split at its vertex into monotone
    pieces, and each sign change is bisected to a width of 2^-64.  Raises
    ValueError where the reference cannot decide: a zero at a piece's end
    or two roots whose brackets overlap."""
    paths = [[tuple(Fraction(v) for v in bp) for bp in path] for path in paths]
    times = sorted({bp[0] for path in paths for bp in path})
    found = []
    for t0, t1 in zip(times, times[1:]):
        def points(u):
            return [_at(path, t0 + u * (t1 - t0)) for path in paths]

        samples = (points(Fraction(0)), points(Fraction(1, 2)), points(Fraction(1)))
        for triple in combinations(range(len(paths)), 3):
            f0, fh, f1 = (_det(*(pts[p] for p in triple)) for pts in samples)
            a, b, c = 2 * f0 - 4 * fh + 2 * f1, -3 * f0 + 4 * fh - f1, f0

            def f(u):
                return (a * u + b) * u + c

            cuts = [Fraction(0), Fraction(1)]
            if a and 0 < -b / (2 * a) < 1:
                cuts.insert(1, -b / (2 * a))
            if not all(f(u) for u in cuts):
                raise ValueError(f"determinant of {triple} is zero at a piece end")
            for lo, hi in zip(cuts, cuts[1:]):
                before = f(lo) > 0
                if (f(hi) > 0) == before:
                    continue
                while hi - lo > Fraction(1, 2 ** 64):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if (f(mid) > 0) == before else (lo, mid)
                found.append((t0 + lo * (t1 - t0), t0 + hi * (t1 - t0), triple,
                              points(lo)))
    found.sort()
    if any(e1[1] >= e2[0] for e1, e2 in zip(found, found[1:])):
        raise ValueError("two events not told apart")
    events = []
    for lo, hi, triple, pts in found:
        # the outer points are the farthest pair just before the root
        o1, o2 = max(combinations(triple, 2), key=lambda pair: _dist2(
            *(pts[p] for p in pair)))
        m, = set(triple) - {o1, o2}
        if _det(pts[o1], pts[o2], pts[m]) < 0:
            o1, o2 = o2, o1
        events.append((float((lo + hi) / 2), (o1 + 1, o2 + 1, m + 1)))
    return events


def _dist2(pa, pb):
    return (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2


def interval_weights(paths, interval_bits):
    """ceil(B / interval_bits)^2 for every breakpoint interval of the motion,
    where B is one bit for a difference plus the most bits of a coordinate
    at either end of the interval over the least common denominator of all
    of them: the size of the interval's integers in exact detection."""
    paths = [[tuple(Fraction(v) for v in bp) for bp in path] for path in paths]
    times = sorted({bp[0] for path in paths for bp in path})
    ends = [[] for _ in times]
    for path in paths:
        starts = [bp[0] for bp in path]
        for k, t in enumerate(times):
            j = bisect_left(starts, t)
            still = starts[j] == t or path[j - 1][1:] == path[j][1:]
            ends[k] += path[j][1:] if still else _at(path[j - 1:j + 1], t)
    weights = []
    for values in (e0 + e1 for e0, e1 in zip(ends, ends[1:])):
        scale = math.lcm(*(v.denominator for v in values))
        bits = 1 + max((abs(v.numerator) * (scale // v.denominator)).bit_length()
                       for v in values)
        weights.append(math.ceil(bits / interval_bits) ** 2)
    return weights


def _every_segment(ts):
    """Each interval's (x, y, dx, dy) of every point, every point read and
    rescaled anew at every breakpoint time."""
    at, previous = [0] * ts.n, None
    for t in ts.times:
        ratios = []
        for p, path in enumerate(ts.paths):
            while path[at[p]][0] < t:
                at[p] += 1
            (t0, x0, y0), (t1, x, y) = path[at[p] - 1], path[at[p]]
            if t != t1 and (x0, y0) != (x, y):
                u = (Fraction(t) - Fraction(t0)) / (Fraction(t1) - Fraction(t0))
                x, y = (Fraction(v0) + u * (Fraction(v1) - Fraction(v0))
                        for v0, v1 in ((x0, x), (y0, y)))
            ratios.append(x.as_integer_ratio() + y.as_integer_ratio())
        scale = math.lcm(*(r[k] for r in ratios for k in (1, 3)))
        ends = [(a * (scale // b), c * (scale // d)) for a, b, c, d in ratios]
        if previous:
            s0, starts = previous
            f0, f1 = math.lcm(s0, scale) // s0, math.lcm(s0, scale) // scale
            yield [(x * f0, y * f0, x1 * f1 - x * f0, y1 * f1 - y * f0)
                   for (x, y), (x1, y1) in zip(starts, ends)]
        previous = scale, ends


def _every_crossing(quad, triple, t0, t1):
    """Roots in (0, 1) of a u^2 + b u + c with the sign just before each."""
    a, b, c = quad
    f0, f1, sa = _sign(c), _sign(a + b + c), _sign(a)
    if not f0 or not f1:
        raise DegenerateEventError(
            f"determinant of {triple} touches zero at t={t1 if f0 else t0:.12f}")
    if f0 != f1 and not a:
        return [((-c * _sign(b), 0, 0, abs(b)), f0)]
    if f0 != f1:
        return [((-b * sa, 1 if f1 == sa else -1, b * b - 4 * a * c, 2 * abs(a)), f0)]
    if sa != f0 or not 0 < -b * sa < 2 * a * sa or (disc := b * b - 4 * a * c) < 0:
        return []
    if not disc:
        vertex = _time(t0, t1, (-b * sa, 0, 0, 2 * abs(a)))
        raise DegenerateEventError(f"{triple} tangent to collinearity at t={vertex:.12f}")
    return [((-b * sa, -1, disc, 2 * abs(a)), f0), ((-b * sa, 1, disc, 2 * abs(a)), -f0)]


def every_triple_events(ts):
    """braidrep.collinearity.detect_events of a TrajectorySet, with every pair
    checked and every triple solved on every interval."""
    triples, events = list(combinations(range(1, ts.n + 1), 3)), []
    for segment, t0, t1 in zip(_every_segment(ts), ts.times, ts.times[1:]):
        cross = {}
        own = [x * dy - y * dx for x, y, dx, dy in segment]
        for (p, (x, y, dx, dy)), (q, (x2, y2, dx2, dy2)) in combinations(enumerate(segment, 1), 2):
            mid = x * dy2 - y * dx2 + dx * y2 - dy * x2
            cross[p, q] = (dx * dy2 - dy * dx2, mid, x * y2 - y * x2)
            if own[p - 1] + own[q - 1] == mid:
                ex, ey, fx, fy = x - x2, y - y2, dx - dx2, dy - dy2
                if ex * (ex + fx) + ey * (ey + fy) <= 0:
                    time = _time(t0, t1, (-(ex * fx + ey * fy), 0, 0, max(fx * fx + fy * fy, 1)))
                    raise TrajectoryError(f"points {p} and {q} coincide at time {time:.6f}")
        found = []
        for a, b, c in triples:
            (a2, a1, a0), (b2, b1, b0), (c2, c1, c0) = cross[a, b], cross[b, c], cross[a, c]
            quad = (a2 + b2 - c2, a1 + b1 - c1, a0 + b0 - c0)
            found += [(_time(t0, t1, root), root, before, (a, b, c))
                      for root, before in _every_crossing(quad, (a, b, c), t0, t1)]
        found.sort(key=lambda event: event[0])
        found.sort(key=cmp_to_key(_exact_order))
        events += [CollinearityEvent(time, _emitted(segment, triple, root, before))
                   for time, root, before, triple in found]
    return events

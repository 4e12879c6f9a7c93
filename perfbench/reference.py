"""Exact reference answers for the benchmark jobs.

Nothing here imports braidrep.  Each answer is computed from the
definitions in the braidrep module docstrings by a plain implementation
of its own, so a fast path in the program is checked against code that
shares none of its logic:

- phi: the image of sigma_i is the swap (i i+1) paired with the word
  a(i-1,i+1,i)..a(1,i+1,i) a(n,i+1,i)..a(i+2,i+1,i); products are
  (p1, w1)(p2, w2) = (p1 p2, p2(w1) w2); words are freely reduced.
- the letter a(i,j,k) acts on the basis x_pq by
      x_ij -> t_i x_ij + (1 - t_i) x_ik      x_jk -> s_j x_jk
      x_kj -> t_k^-1 x_kj + (1 - t_k^-1) x_ki  x_ji -> s_j^-1 x_ji
  and a(i,j,k)^-1 acts as a(k,j,i); a word u v maps to M(u) M(v).
  Matrices are dense lists of columns and each letter rewrites four of
  them.
- Burau: sigma_i^+-1 has the 2x2 block [[1-t, t], [1, 0]] or its inverse
  at strands (i, i+1); the reduced matrix is the action on the basis
  f_i = e_i - e_(i+1) of the sum-zero row vectors.
- collinearity events: breakpoints are dyadic floats, so positions are
  exact integers after one power-of-two scaling, each orientation
  determinant is an exact integer quadratic per breakpoint interval, and
  its roots are isolated and ordered with exact sign tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations


class Degenerate(ValueError):
    """An input on which the exact event order is not defined."""


# ---------------------------------------------------------------------------
# Braids and phi.  A braid is a list of (i, e) with e = +-1; a word in the
# triple generators is a list of ((i, j, k), e).

def bigelow_letters():
    """Bigelow's 5-strand Burau-kernel braid [x, y] = x y x^-1 y^-1 with
    x = psi1^-1 s4 psi1 and y = psi2^-1 s4 s3 s2 s1^2 s2 s3 s4 psi2."""
    psi1 = [(3, -1), (2, 1), (1, 1), (1, 1), (2, 1), (4, 1), (4, 1), (4, 1),
            (3, 1), (2, 1)]
    psi2 = [(4, -1), (3, 1), (2, 1), (1, -1), (1, -1), (2, 1), (1, 1), (1, 1),
            (2, 1), (2, 1), (1, 1)] + [(4, 1)] * 5
    core = [(4, 1), (3, 1), (2, 1), (1, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    x = inverse(psi1) + [(4, 1)] + psi1
    y = inverse(psi2) + core + psi2
    return x + y + inverse(x) + inverse(y)


def inverse(braid):
    return [(i, -e) for i, e in reversed(braid)]


def braid_text(braid):
    return " ".join(f"s{i}" if e == 1 else f"s{i}^-1" for i, e in braid)


def generator_word(n, i):
    """Word component of phi(sigma_i)."""
    return ([((p, i + 1, i), 1) for p in range(i - 1, 0, -1)]
            + [((p, i + 1, i), 1) for p in range(n, i + 1, -1)])


def free_reduce(word):
    stack = []
    for triple, e in word:
        if stack:
            prev, prev_e = stack[-1]
            if (prev == triple and prev_e == -e) or (
                    prev == triple[::-1] and prev_e == e):
                stack.pop()
                continue
        stack.append((triple, e))
    return stack


def phi_word(n, braid):
    """Freely reduced word of phi(braid), and whether the braid is pure.

    Letter p contributes its generator word renumbered by the product of
    the swaps of all later letters, so one pass from the right suffices."""
    suffix = list(range(n + 1))
    pieces = []
    for i, e in reversed(braid):
        word = generator_word(n, i)
        if e == -1:
            swap = {i: i + 1, i + 1: i}
            word = [(tuple(swap.get(v, v) for v in t), -1)
                    for t, _ in reversed(word)]
        pieces.append([((suffix[a], suffix[b], suffix[c]), x)
                       for (a, b, c), x in word])
        suffix[i], suffix[i + 1] = suffix[i + 1], suffix[i]
    pure = suffix == list(range(n + 1))
    return free_reduce([letter for piece in reversed(pieces) for letter in piece]), pure


# ---------------------------------------------------------------------------
# The representation, specialised and symbolic.

def basis_pairs(n):
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]


def strand_names(n):
    return [f"t{i}" for i in range(1, n + 1)] + [f"s{i}" for i in range(1, n + 1)]


def identity_columns(dim, one, zero):
    return [[one if r == c else zero for r in range(dim)] for c in range(dim)]


def numeric_columns(n, word, values):
    """Columns of the specialised matrix of a word.  values maps every
    variable name to a nonzero int or Fraction; all +-1 keeps plain ints."""
    if all(v in (1, -1) for v in values.values()):
        inv = {name: int(v) for name, v in values.items()}
        values = inv
    else:
        values = {name: Fraction(v) for name, v in values.items()}
        inv = {name: 1 / v for name, v in values.items()}
    index = {pq: pos for pos, pq in enumerate(basis_pairs(n))}
    cols = identity_columns(len(index), 1, 0)
    for (i, j, k), e in word:
        if e == -1:
            i, k = k, i
        ti, tk, sj, sj_inv = values[f"t{i}"], inv[f"t{k}"], values[f"s{j}"], inv[f"s{j}"]
        ij, ik, kj, ki = index[i, j], index[i, k], index[k, j], index[k, i]
        jk, ji = index[j, k], index[j, i]
        a, b = cols[ij], cols[ik]
        cols[ij] = [ti * x + (1 - ti) * y for x, y in zip(a, b)]
        a, b = cols[kj], cols[ki]
        cols[kj] = [tk * x + (1 - tk) * y for x, y in zip(a, b)]
        cols[jk] = [sj * x for x in cols[jk]]
        cols[ji] = [sj_inv * x for x in cols[ji]]
    return cols


def is_identity(cols):
    return all(v == (1 if r == c else 0)
               for c, col in enumerate(cols) for r, v in enumerate(col))


# Laurent polynomials: dict mapping an exponent tuple to a nonzero int.

def _shift(exps, var, d):
    return exps[:var] + (exps[var] + d,) + exps[var + 1:]


def _linear(parts, var):
    """Sum of sign * x_var^d * poly over parts (poly, d, sign)."""
    out = {}
    for poly, d, sign in parts:
        for exps, c in poly.items():
            key = _shift(exps, var, d) if d else exps
            out[key] = out.get(key, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _combine(a, b, var, d):
    """m a + (1 - m) b with the monomial m = x_var^d."""
    return _linear(((a, d, 1), (b, 0, 1), (b, d, -1)), var)


def _times_monomial(a, var, d):
    return {_shift(e, var, d): c for e, c in a.items()}


def symbolic_entries(n, word):
    """Nonzero entries {(row, col): poly} of the symbolic matrix of a word,
    exponents ordered t1..tn, s1..sn."""
    index = {pq: pos for pos, pq in enumerate(basis_pairs(n))}
    dim = len(index)
    cols = identity_columns(dim, {(0,) * (2 * n): 1}, {})
    for (i, j, k), e in word:
        if e == -1:
            i, k = k, i
        ij, ik, kj, ki = index[i, j], index[i, k], index[k, j], index[k, i]
        jk, ji = index[j, k], index[j, i]
        cols[ij] = [_combine(x, y, i - 1, 1) for x, y in zip(cols[ij], cols[ik])]
        cols[kj] = [_combine(x, y, k - 1, -1) for x, y in zip(cols[kj], cols[ki])]
        cols[jk] = [_times_monomial(x, n + j - 1, 1) for x in cols[jk]]
        cols[ji] = [_times_monomial(x, n + j - 1, -1) for x in cols[ji]]
    return {(r, c): v for c, col in enumerate(cols) for r, v in enumerate(col) if v}


def burau_entries(n, braid, reduced):
    """Nonzero entries {(row, col): poly in t} of the Burau matrix."""
    one, zero = {(0,): 1}, {}
    cols = identity_columns(n, one, zero)
    for i, e in braid:
        a, b = cols[i - 1], cols[i]
        if e == 1:   # block [[1-t, t], [1, 0]]
            cols[i - 1] = [_linear(((x, 0, 1), (x, 1, -1), (y, 0, 1)), 0)
                           for x, y in zip(a, b)]
            cols[i] = [_times_monomial(x, 0, 1) for x in a]
        else:        # block [[0, 1], [t^-1, 1 - t^-1]]
            cols[i - 1] = [_times_monomial(y, 0, -1) for y in b]
            cols[i] = [_linear(((x, 0, 1), (y, 0, 1), (y, -1, -1)), 0)
                       for x, y in zip(a, b)]
    rows = [[cols[c][r] for c in range(n)] for r in range(n)]
    if reduced:
        out = []
        for i in range(n - 1):
            acc, row = {}, []
            for c in range(n - 1):
                acc = _linear(((acc, 0, 1), (rows[i][c], 0, 1), (rows[i + 1][c], 0, -1)), 0)
                row.append(acc)
            out.append(row)
        rows = out
    return {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}


def parse_poly(text, names):
    """Parse the program's canonical polynomial text, e.g.
    "2*t1^2*s3^-1 + -t2 + 1", into {exponents: coefficient}."""
    index = {name: pos for pos, name in enumerate(names)}
    poly = {}
    for term in text.split(" + "):
        coeff, factors = 1, term.split("*")
        if factors[0].lstrip("-").isdigit():
            coeff = int(factors.pop(0))
        elif factors[0].startswith("-"):
            coeff, factors[0] = -1, factors[0][1:]
        exps = [0] * len(names)
        for factor in factors:
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        key = tuple(exps)
        if key in poly or coeff == 0:
            raise ValueError(f"non-canonical polynomial {text!r}")
        poly[key] = coeff
    return poly


def poly_sizes(polys):
    """(largest term count, largest coefficient bit length, total terms)."""
    polys = list(polys)
    return (max((len(p) for p in polys), default=0),
            max((abs(c).bit_length() for p in polys for c in p.values()), default=0),
            sum(len(p) for p in polys))


# ---------------------------------------------------------------------------
# Verification suites: the documents the program must print, since every
# relation holds in a representation and the swap motion is calibrated.

def gn_relations_doc(n):
    ts = list(permutations(range(1, n + 1), 3))
    inst = [{"relation": 1, "instance": f"a{t} a{t[::-1]} = 1", "ok": True} for t in ts]
    for a in range(len(ts)):
        for b in range(a + 1, len(ts)):
            if len(set(ts[a]) | set(ts[b])) >= 5:
                inst.append({"relation": 2, "instance": f"a{ts[a]} a{ts[b]} commute",
                             "ok": True})
    for subset in combinations(range(1, n + 1), 4):
        for q in permutations(subset):
            inst.append({"relation": 3, "instance": "tetrahedron ({},{},{},{})".format(*q),
                         "ok": True})
    return {"check": "gn-relations", "n": n, "passed": True, "instances": inst}


def braid_relations_doc(n):
    inst = [{"relation": "artin", "instance": f"i={i}", "ok": True}
            for i in range(1, n - 1)]
    inst += [{"relation": "far-commutativity", "instance": f"(i,j)=({i},{j})", "ok": True}
             for i in range(1, n - 1) for j in range(i + 2, n)]
    return {"check": "braid-relations", "n": n, "passed": True, "instances": inst}


def word_text(word):
    return " ".join(f"a({i},{j},{k})" + ("" if e == 1 else "^-1")
                    for (i, j, k), e in word) or "<empty>"


def oracle_doc(n):
    inst = []
    for i in range(1, n):
        text = word_text(generator_word(n, i))
        inst.append({"relation": "oracle", "instance": f"i={i}", "ok": True, "i": i,
                     "match": "exact", "events": n - 2, "geometric": text,
                     "expected": text})
    return {"check": "oracle", "n": n, "passed": True, "instances": inst}


# ---------------------------------------------------------------------------
# Exact collinearity events of a piecewise-linear motion whose paths share
# their breakpoint times.  Within breakpoint interval k a point moves as
# P(u) = P0 + u D for u in [0, 1], and the orientation determinant of a
# triple is a quadratic in u with integer coefficients.

def _sign(v):
    return (v > 0) - (v < 0)


def _qsign(q, u):
    """Exact sign of the integer quadratic q = (a, b, c) at a rational u."""
    a, b, c = q
    m, d = u.numerator, u.denominator
    return _sign((a * m + b * d) * m + c * d * d)


def _constant_sign(q, lo, hi):
    """Sign of quadratic q on [lo, hi] if it has no root there, else 0."""
    s = _qsign(q, lo)
    if s == 0 or _qsign(q, hi) != s:
        return 0
    a, b, _ = q
    if a:
        v = Fraction(-b, 2 * a)
        if lo < v < hi and _qsign(q, v) != s:
            return 0
    return s


def _approx_roots(q):
    a, b, c = (float(v) for v in q)
    if a == 0:
        return [-c / b] if b else []
    disc = float(q[1] * q[1] - 4 * q[0] * q[2])
    if disc < 0:
        return []
    h = -(b + math.copysign(math.sqrt(disc), b)) / 2
    return [h / a, c / h] if h else [-b / (2 * a)]


_BRACKET = 2.0 ** -40
_MIN_WIDTH = Fraction(1, 2 ** 200)


class _Root:
    """One root of an interval's orientation quadratic, isolated in
    [lo, hi] inside (0, 1); `before` is the quadratic's sign just before
    it.  A float estimate gives a narrow bracket, kept only after exact
    sign tests confirm it; otherwise exact bisection narrows the interval."""

    __slots__ = ("interval", "lo", "hi", "quad", "before", "triple")

    def __init__(self, interval, lo, hi, quad, before, triple):
        self.interval, self.lo, self.hi = interval, Fraction(lo), Fraction(hi)
        self.quad, self.before, self.triple = quad, before, triple
        flo, fhi = float(self.lo), float(self.hi)
        for u in _approx_roots(quad):
            if flo <= u <= fhi:
                s1, s2 = Fraction(u - _BRACKET), Fraction(u + _BRACKET)
                if (self.lo < s1 < s2 < self.hi and _qsign(quad, s1) == before
                        and _qsign(quad, s2) == -before):
                    self.lo, self.hi = s1, s2
                break

    def refine(self):
        if self.lo == self.hi:
            return
        mid = (self.lo + self.hi) / 2
        s = _qsign(self.quad, mid)
        if s == 0:
            self.lo = self.hi = mid
        elif s == self.before:
            self.lo = mid
        else:
            self.hi = mid

    def width(self):
        return self.hi - self.lo


def exact_events(motion):
    """Emitted triples of all collinearity events, in exact time order,
    each with its time to within 2^-30 of the interval length.

    The emitted triple is (O1, O2, M): M lies strictly between O1 and O2,
    and det[x(O2) - x(O1), x(M) - x(O1)] goes from + to - through the
    event.  Raises Degenerate on roots at breakpoints, tangencies,
    simultaneous events and points meeting at an event."""
    paths = motion["paths"]
    n = len(paths)
    times = [bp[0] for bp in paths[0]]
    if any([bp[0] for bp in path] != times for path in paths):
        raise ValueError("reference needs shared breakpoint times")
    coords = [[(Fraction(x), Fraction(y)) for _, x, y in path] for path in paths]
    scale = max(v.denominator for path in coords for pt in path for v in pt)
    pts = [[(int(x * scale), int(y * scale)) for x, y in path] for path in coords]
    triples3 = list(combinations(range(n), 3))
    roots = []
    for k in range(len(times) - 1):
        # cross(P_p(u), P_q(u)) as a quadratic in u, for every pair p < q
        motion_k = [(path[k][0], path[k][1], path[k + 1][0] - path[k][0],
                     path[k + 1][1] - path[k][1]) for path in pts]
        cross = {}
        for p, q in combinations(range(n), 2):
            x, y, dx, dy = motion_k[p]
            x2, y2, dx2, dy2 = motion_k[q]
            cross[p, q] = (dx * dy2 - dy * dx2, x * dy2 - y * dx2 + dx * y2 - dy * x2,
                           x * y2 - y * x2)
        for a, b, c in triples3:
            # det[Pb - Pa, Pc - Pa] = cross(a,b) + cross(b,c) - cross(a,c)
            ab, bc, ac = cross[a, b], cross[b, c], cross[a, c]
            quad = (ab[0] + bc[0] - ac[0], ab[1] + bc[1] - ac[1], ab[2] + bc[2] - ac[2])
            f0, f1 = _sign(quad[2]), _sign(quad[0] + quad[1] + quad[2])
            # equal end signs that match the leading sign rule out any root
            if f0 != f1 or not f0 or _sign(quad[0]) == f0:
                roots.extend(_interval_roots(k, quad, f0, f1, (a + 1, b + 1, c + 1)))
    _order(roots)
    events = []
    for root in roots:
        triple = _emitted(root, pts)
        while root.width() > 2 ** -30:
            root.refine()
        u = float((root.lo + root.hi) / 2)
        events.append((triple, times[root.interval] + u * (
            times[root.interval + 1] - times[root.interval])))
    return events


def _interval_roots(k, quad, f0, f1, triple):
    a, b, c = quad
    if f0 == 0 or f1 == 0:
        raise Degenerate(f"triple {triple} collinear at a breakpoint")
    if f0 != f1:
        return [_Root(k, 0, 1, quad, f0, triple)]
    if f0 != _sign(a):
        return []
    sa = _sign(a)
    if not 0 < -b * sa < 2 * a * sa:   # the vertex -b / 2a lies outside (0, 1)
        return []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        raise Degenerate(f"triple {triple} tangent to collinearity")
    vertex = Fraction(-b, 2 * a)
    return [_Root(k, 0, vertex, quad, f0, triple),
            _Root(k, vertex, 1, quad, -f0, triple)]


def _order(roots):
    """Sort roots by time, refining isolating intervals until adjacent
    ones within a breakpoint interval are disjoint."""
    while True:
        roots.sort(key=lambda r: (r.interval, r.lo, r.hi))
        clash = False
        for r1, r2 in zip(roots, roots[1:]):
            if r1.interval == r2.interval and not r1.hi < r2.lo:
                if r1.lo == r1.hi == r2.lo == r2.hi:
                    raise Degenerate(f"events {r1.triple} and {r2.triple} coincide")
                wide = r1 if r1.width() >= r2.width() else r2
                if wide.width() < _MIN_WIDTH:
                    raise Degenerate(f"events {r1.triple} and {r2.triple} unresolved")
                wide.refine()
                clash = True
        if not clash:
            return


def _emitted(root, pts):
    k = root.interval
    lines = {}
    for p in root.triple:
        x0, y0 = pts[p - 1][k]
        x1, y1 = pts[p - 1][k + 1]
        lines[p] = (x0, y0, x1 - x0, y1 - y0)
    middle = None
    for m in root.triple[:2]:
        o1, o2 = (p for p in root.triple if p != m)
        if _between_sign(root, lines[m], lines[o1], lines[o2]) < 0:
            middle = m
            break
    if middle is None:
        middle = root.triple[2]
    outers = [p for p in root.triple if p != middle]
    emitted = (outers[0], outers[1], middle)
    # the emitted order's determinant is the sorted one's times the parity
    positions = [root.triple.index(p) for p in emitted]
    inversions = sum(1 for x, y in combinations(positions, 2) if x > y)
    if (-1) ** inversions * root.before < 0:
        emitted = (outers[1], outers[0], middle)
    return emitted


def _between_sign(root, m, o1, o2):
    """Sign at the root of (M - O1).(M - O2), which is negative exactly
    when M lies between O1 and O2 on their common line."""
    ax, ay = m[0] - o1[0], m[1] - o1[1]
    adx, ady = m[2] - o1[2], m[3] - o1[3]
    bx, by = m[0] - o2[0], m[1] - o2[1]
    bdx, bdy = m[2] - o2[2], m[3] - o2[3]
    quad = (adx * bdx + ady * bdy,
            ax * bdx + adx * bx + ay * bdy + ady * by,
            ax * bx + ay * by)
    while True:
        s = _constant_sign(quad, root.lo, root.hi)
        if s:
            return s
        if root.width() < _MIN_WIDTH:
            raise Degenerate(f"points of {root.triple} coincide at an event")
        root.refine()


def common_subsequence(a, b):
    """Length of a longest common subsequence."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]

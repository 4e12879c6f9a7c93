"""Geometric derivation of the braid-to-events map: move points along
piecewise-linear trajectories, detect the moments when three points become
collinear, and emit one triple-generator letter per event.

Detection is exact.  Floats are dyadic rationals, so between consecutive
breakpoint times a point moves as P0 + u D, u in [0, 1], with integer P0
and D after scaling, and each orientation determinant is an integer
quadratic in u, whose roots (p + q sqrt(d)) / r exact sign tests find,
order and classify.  Event times are those roots rounded to floats.  After
the first interval only the pairs and triples that hold a moving point are
solved: the others cannot meet or turn collinear.

Emission convention (calibrated, see calibrate_against_phi): an event with
collinear points O1, O2, M, where M lies between the other two, is emitted
as the triple (O1, O2, M) whose orientation determinant
det[x(O2) - x(O1), x(M) - x(O1)] crosses zero from positive to negative.
Under the swap motion produced by sigma_motion (points placed clockwise on
the unit circle, the swapping pair turning counterclockwise about the
midpoint of their chord) the emitted word coincides, letter by letter,
with the word of the algebraic generator image phi_generator(n, i) for
3 <= n <= 11.  With SEGMENTS = 256 that fails beyond: at n = 12 six of
the eleven words differ, and for n = 13..16 every word does, so
sigma_motion refuses more than MAX_SIGMA_POINTS = 11 points.
"""

import json
import math
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import chain, combinations, repeat
from operator import ge, or_
from typing import NamedTuple

from .gn3 import GnWord, phi_generator

# Straight segments in each moving path of a built-in swap motion, and the
# most points whose swap-motion word at that count is the generator image.
SEGMENTS = 256
MAX_SIGMA_POINTS = 11
# Bounds on a trajectory file: its bytes, checked before it is parsed (at the
# cap, parsing peaks near 70 MB), its points, and the exact work of detection,
# checked from the floats before any exact number is built.  That work is one
# quadratic per point triple and interval, and one whose integers need B bits
# counts ceil(B / INTERVAL_BITS)^2 times: under 10 s per admitted file.
MAX_FILE_BYTES = 2 ** 21
MAX_POINTS = 32
MAX_TRIPLE_INTERVALS = 2 ** 16
INTERVAL_BITS = 112


class TrajectoryError(ValueError):
    """Malformed trajectory data."""


class DegenerateEventError(RuntimeError):
    """Tangency or coinciding event times; the motion is not generic."""


class CollinearityEvent(NamedTuple):
    time: float
    triple: tuple


class TrajectorySet:
    """Piecewise-linear paths of n labelled points over the time interval
    [0, 1], with matching start and end point sets and detection work within
    MAX_TRIPLE_INTERVALS.  `times` is the sorted union of all breakpoint
    times.  Two points that meet are found, and refused, by detect_events."""

    __slots__ = ("n", "paths", "times")

    def __init__(self, paths):
        self.n = len(paths)
        try:
            self.paths = [[(float(t), float(x), float(y)) for t, x, y in path] for path in paths]
        except OverflowError as exc:    # an int past the float range
            raise TrajectoryError(f"breakpoint values must be finite: {exc}") from exc
        if not all(map(math.isfinite, chain.from_iterable(chain(*self.paths)))):
            raise TrajectoryError("breakpoint values must be finite")
        if self.n < 3:
            raise TrajectoryError("need at least 3 points")
        for p, path in enumerate(self.paths, 1):
            times = [t for t, _, _ in path]
            if len(times) < 2:
                raise TrajectoryError(f"path {p} needs at least two breakpoints")
            if times[0] != 0.0:
                raise TrajectoryError(f"path {p} must start at time 0, got {times[0]}")
            if times[-1] != 1.0:
                raise TrajectoryError(f"path {p} must end at time 1, got {times[-1]}")
            if any(map(ge, times, times[1:])):
                raise TrajectoryError(f"path {p} breakpoint times must be strictly increasing")
        start, end = (sorted(path[k][1:] for path in self.paths) for k in (0, -1))
        if start != end:    # finite floats compare exactly
            raise TrajectoryError("start and end point sets differ (braid boundary condition)")
        self.times = sorted({t for path in self.paths for t, _, _ in path})
        self._check_work()

    def _check_work(self):
        """Refuse the motion once an upper bound on its weighted work, read
        off the floats, passes MAX_TRIPLE_INTERVALS.  On an interval a path is
        on a segment from A at time ta to B at tb; at a time t inside it the
        point A + (B - A)(t - ta) / (tb - ta) is no larger than A and B, and
        its denominator divides den(A, B) max(den(t), den(ta)) times the odd
        part of the numerator of tb - ta.  So the interval's integers have at
        most 1 + log2 max(|A|, |B|) + log2 max(den) + bits of odd parts."""
        where = {t: k for k, t in enumerate(self.times)}
        time_den = max(t.as_integer_ratio()[1] for t in self.times)
        tops, dens, odds = [], [], []    # per path, over the intervals
        for path in self.paths:
            ts, xs, ys = zip(*path)
            top = [*map(max, map(abs, xs), map(abs, ys))]
            den = [x.as_integer_ratio()[1] | y.as_integer_ratio()[1] for x, y in zip(xs, ys)]
            # per segment, where | of powers of two is their max
            top, den = [*map(max, top, top[1:])], [*map(or_, den, den[1:])]
            if len(ts) < len(self.times):    # some segments pass a time
                runs = [where[tb] - where[ta] for ta, tb in zip(ts, ts[1:])]
                odd = [0] * len(runs)
                for j, run in enumerate(runs):
                    if run > 1 and (xs[j], ys[j]) != (xs[j + 1], ys[j + 1]):
                        (a, da), (b, db) = ts[j].as_integer_ratio(), ts[j + 1].as_integer_ratio()
                        gap = b * da - a * db
                        den[j] *= time_den
                        odd[j] = gap.bit_length() - (gap & -gap).bit_length() + 1
                top, den, odd = (chain.from_iterable(map(repeat, per_segment, runs))
                                 for per_segment in (top, den, odd))
                odds.append(odd)
            tops.append(top)
            dens.append(den)
        triples, work = math.comb(self.n, 3), 0
        for t, m, d, o in zip(self.times[1:], map(max, *tops), map(max, *dens),
                              map(sum, zip(*odds)) if odds else repeat(0)):
            bits = math.frexp(m)[1] + d.bit_length() + o
            work += triples * math.ceil(bits / INTERVAL_BITS) ** 2
            if work > MAX_TRIPLE_INTERVALS:
                raise TrajectoryError(f"over {MAX_TRIPLE_INTERVALS} triple-intervals weighted "
                                      f"by integer size by time {t:.6f}")

    def segments(self):
        """For each interval [times[k], times[k + 1]], built as it comes, every
        point's motion (x, y, dx, dy) in integers over one positive scale: the
        point is at (x + u dx, y + u dy) / scale for u in [0, 1].  While the
        scale holds, a point that rests keeps one tuple (x, y, 0, 0)."""
        ratios = [[x.as_integer_ratio() + y.as_integer_ratio() for _, x, y in path]
                  for path in self.paths]    # each breakpoint's, read once
        at = [0] * self.n    # each path's first breakpoint at or after t
        scale, was, ends = None, [None] * self.n, [None] * self.n
        for t in self.times:
            now = []
            for p, path in enumerate(self.paths):
                while path[at[p]][0] < t:
                    at[p] += 1
                # at time 0, path[-1] stands in for the breakpoint before path[0]
                (t0, x0, y0), (t1, x, y) = path[at[p] - 1], path[at[p]]
                if t == t1 or (x0, y0) == (x, y):
                    now.append(ratios[p][at[p]])
                    continue
                u = (Fraction(t) - Fraction(t0)) / (Fraction(t1) - Fraction(t0))
                x, y = (Fraction(v0) + u * (Fraction(v1) - Fraction(v0))
                        for v0, v1 in ((x0, x), (y0, y)))
                now.append(x.as_integer_ratio() + y.as_integer_ratio())
            s0, scale, starts = scale, math.lcm(*(r[k] for r in now for k in (1, 3))), ends
            # each end is (x, y, 0, 0): also the motion of a point resting there
            ends = [end if scale == s0 and r == r0 else
                    (r[0] * (scale // r[1]), r[2] * (scale // r[3]), 0, 0)
                    for r, r0, end in zip(now, was, ends)]
            if t:    # times[0] is 0
                f0, f1 = math.lcm(s0, scale) // s0, math.lcm(s0, scale) // scale
                yield [start if start is end else
                       (start[0] * f0, start[1] * f0,
                        end[0] * f1 - start[0] * f0, end[1] * f1 - start[1] * f0)
                       for start, end in zip(starts, ends)]
            was = now


def load_trajectories(path):
    with open(path, "rb") as fh:
        raw = fh.read(MAX_FILE_BYTES + 1)
    if len(raw) > MAX_FILE_BYTES:
        raise TrajectoryError(f"file larger than {MAX_FILE_BYTES} bytes")
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:    # not JSON or UTF-8, too deep
        raise TrajectoryError(f"not valid JSON: {exc}") from exc
    return trajectories_from_json(data)


def trajectories_from_json(data):
    if not isinstance(data, dict) or "paths" not in data or "n" not in data:
        raise TrajectoryError('expected an object with "n" and "paths"')
    paths = data["paths"]
    if type(data["n"]) is not int or not isinstance(paths, list) or len(paths) != data["n"]:
        raise TrajectoryError('"n" must be an integer and "paths" list one path per point')
    if len(paths) > MAX_POINTS:
        raise TrajectoryError(f"at most {MAX_POINTS} points")
    if not all(isinstance(path, list) and all(isinstance(bp, list) and len(bp) == 3
                                              for bp in path) for path in paths):
        raise TrajectoryError("each breakpoint must be a [t, x, y] triple")
    # float() would also read strings such as "0.5", and booleans
    if not {type(v) for path in paths for bp in path for v in bp} <= {int, float}:
        raise TrajectoryError("breakpoint values must be JSON numbers")
    return TrajectorySet(paths)


def sigma_motion(n, i):
    """Swap motion of the i-th Artin generator: n points in clockwise index
    order on the unit circle; points i and i+1 make a counterclockwise
    half-turn about the midpoint of their chord in SEGMENTS straight
    segments, starting and ending exactly on the resting vertices, while
    everything else rests.  Its event word is that of phi_generator(n, i),
    so n must lie in 3..MAX_SIGMA_POINTS."""
    if not 3 <= n <= MAX_SIGMA_POINTS:
        raise ValueError(f"the swap motion needs 3 to {MAX_SIGMA_POINTS} points")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")

    def vertex(p):
        angle = -2.0 * math.pi * (p - 1) / n
        return (math.cos(angle), math.sin(angle))

    mx = (vertex(i)[0] + vertex(i + 1)[0]) / 2.0
    my = (vertex(i)[1] + vertex(i + 1)[1]) / 2.0
    paths = []
    for p in range(1, n + 1):
        x, y = vertex(p)
        if p in (i, i + 1):
            rx, ry = x - mx, y - my
            path = [(0.0, x, y)]
            for step in range(1, SEGMENTS):
                t = step / SEGMENTS
                ca, sa = math.cos(math.pi * t), math.sin(math.pi * t)
                path.append((t, mx + ca * rx - sa * ry, my + sa * rx + ca * ry))
            paths.append(path + [(1.0, *vertex(2 * i + 1 - p))])
        else:
            paths.append([(0.0, x, y), (1.0, x, y)])
    return TrajectorySet(paths)


def detect_events(ts):
    """All triple collinearity events of the motion, in time order.  Two
    points that meet raise TrajectoryError; a zero determinant at a breakpoint,
    a tangency, or two events at the same instant raise DegenerateEventError.

    The first interval solves every triple and checks every pair.  After it,
    only the triples and pairs that hold a moving point are solved: where no
    point moves, a determinant is constant and an earlier interval's end
    test found it nonzero, and two points stay as far apart as they were."""
    n = ts.n
    pairs = list(combinations(range(n), 2))
    slot = {pair: s for s, pair in enumerate(pairs)}
    triples = [((a + 1, b + 1, c + 1), slot[a, b], slot[b, c], slot[a, c])
               for a, b, c in combinations(range(n), 3)]

    @cache
    def touching(points):
        """The pair slots and the triples that hold one of the points."""
        hit = [p in points for p in range(n)]
        return ([(s, p, q) for s, (p, q) in enumerate(pairs) if hit[p] or hit[q]],
                [triple for triple in triples if any(hit[v - 1] for v in triple[0])])

    cross, last, events = [None] * len(pairs), [None] * n, []
    for k, (segment, t0, t1) in enumerate(zip(ts.segments(), ts.times, ts.times[1:])):
        # cross(P_p(u), P_q(u)) as a quadratic in u, for p < q, kept while
        # neither motion changes
        for s, p, q in touching(tuple(p for p in range(n) if segment[p] != last[p]))[0]:
            (x, y, dx, dy), (x2, y2, dx2, dy2) = segment[p], segment[q]
            cross[s] = (dx * dy2 - dy * dx2, x * dy2 - y * dx2 + dx * y2 - dy * x2,
                        x * y2 - y * x2)
        last = segment
        # the first interval checks every pair and solves every triple
        moving = touching(tuple(p for p, (_, _, dx, dy) in enumerate(segment)
                                if dx or dy or not k))
        own = [x * dy - y * dx for x, y, dx, dy in segment]
        for s, p, q in moving[0]:
            # P - Q moves from e to e + f, e x f = own(p) + own(q) - mid: it meets
            # 0 if e x f = 0 and e, e + f are not on one side of 0
            if own[p] + own[q] == cross[s][1]:
                (x, y, dx, dy), (x2, y2, dx2, dy2) = segment[p], segment[q]
                ex, ey, fx, fy = x - x2, y - y2, dx - dx2, dy - dy2
                if ex * (ex + fx) + ey * (ey + fy) <= 0:
                    time = _time(t0, t1, (-(ex * fx + ey * fy), 0, 0, max(fx * fx + fy * fy, 1)))
                    raise TrajectoryError(
                        f"points {p + 1} and {q + 1} coincide at time {time:.6f}")
        found = []
        for triple, ab, bc, ac in moving[1]:
            # det[P_b - P_a, P_c - P_a] = cross(a, b) + cross(b, c) - cross(a, c)
            (a2, a1, a0), (b2, b1, b0), (c2, c1, c0) = cross[ab], cross[bc], cross[ac]
            q2, q1, q0 = quad = (a2 + b2 - c2, a1 + b1 - c1, a0 + b0 - c0)
            end = q2 + q1 + q0
            if q0 > 0 < end and not 0 < -q1 < 2 * q2 or q0 < 0 > end and not 0 < q1 < -2 * q2:
                continue    # equal end signs, no vertex in (0, 1) turned to zero: no root
            found += [(_time(t0, t1, root), root, before, triple)
                      for root, before in _crossings(quad, triple, t0, t1)]
        found.sort(key=lambda event: event[0])    # leaves the exact sort little to do
        found.sort(key=cmp_to_key(_exact_order))
        events += [CollinearityEvent(time, _emitted(segment, triple, root, before))
                   for time, root, before, triple in found]
    return events


# A root (p, q, d, r) stands for u = (p + q sqrt(d)) / r, with r > 0.

def _sign(v):
    return (v > 0) - (v < 0)


def _crossings(quad, triple, t0, t1):
    """Roots in (0, 1) of the integer quadratic a u^2 + b u + c, each with
    the quadratic's sign just before it.  Where the end signs are equal,
    detect_events calls it only if the vertex -b / 2a lies in (0, 1) with a
    of their sign."""
    a, b, c = quad
    f0, f1, sa = _sign(c), _sign(a + b + c), _sign(a)
    if not f0 or not f1:
        raise DegenerateEventError(
            f"determinant of {triple} touches zero at t={t1 if f0 else t0:.12f}")
    if f0 != f1 and not a:
        return [((-c * _sign(b), 0, 0, abs(b)), f0)]
    if f0 != f1:    # one root; the larger one is where the sign turns to a's
        return [((-b * sa, 1 if f1 == sa else -1, b * b - 4 * a * c, 2 * abs(a)), f0)]
    if (disc := b * b - 4 * a * c) < 0:    # equal end signs: two roots or none
        return []
    if not disc:
        vertex = _time(t0, t1, (-b * sa, 0, 0, 2 * abs(a)))
        raise DegenerateEventError(f"{triple} tangent to collinearity at t={vertex:.12f}")
    return [((-b * sa, -1, disc, 2 * abs(a)), f0), ((-b * sa, 1, disc, 2 * abs(a)), -f0)]


def _sign_sqrt(a, b, d):
    """Sign of a + b sqrt(d) for integers a, b and d >= 0."""
    sa, sb = _sign(a), _sign(b) if d else 0
    if sa == sb or not sb:
        return sa
    return sa * _sign(a * a - b * b * d) if sa else sb


def _exact_order(event1, event2):
    """Sign of u1 - u2 for two events of one interval.  A comparison sort
    compares every two neighbours of its result, so a tie is always seen."""
    time, (p1, q1, d1, r1), _, triple1 = event1
    _, (p2, q2, d2, r2), _, triple2 = event2
    # r1 r2 (u1 - u2) = x + y with x = a + b sqrt(d1), y = -c sqrt(d2)
    a, b, c = p1 * r2 - p2 * r1, q1 * r2, q2 * r1
    sx, sy = _sign_sqrt(a, b, d1), -_sign_sqrt(0, c, d2)
    sign = sx or sy
    if sx and sy and sx != sy:    # the larger square wins
        sign = sx * _sign_sqrt(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    if not sign:
        raise DegenerateEventError(
            f"events {triple1} and {triple2} coincide at t={time:.12f}")
    return sign


def _emitted(segment, triple, root, before):
    """The letter (O1, O2, M) of an event: M lies between O1 and O2, where
    (M - O1).(M - O2) < 0, and det[O2 - O1, M - O1] falls through zero."""
    p, q, d, r = root
    for m in triple[:2]:
        o1, o2 = (v for v in triple if v != m)
        (ax, ay, adx, ady), (bx, by, bdx, bdy) = (
            [v - w for v, w in zip(segment[m - 1], segment[o - 1])] for o in (o1, o2))
        # r^2 (g2 u^2 + g1 u + g0) at the root, for the dot product g(u)
        g2, g1, g0 = (adx * bdx + ady * bdy, ax * bdx + adx * bx + ay * bdy + ady * by,
                      ax * bx + ay * by)
        if _sign_sqrt(g2 * (p * p + q * q * d) + g1 * r * p + g0 * r * r,
                      q * (2 * g2 * p + g1 * r), d) < 0:
            break
    else:
        m, (o1, o2) = triple[2], triple[:2]
    # det(o1, o2, m) is det(triple) times the sign of the permutation,
    # which is odd exactly when m is the middle index of the triple
    return (o1, o2, m) if (before if m != triple[1] else -before) > 0 else (o2, o1, m)


def _time(t0, t1, root):
    """t0 + u (t1 - t0) rounded to a float, from a rational within 2^-128
    of the exact time (int / int rounds once)."""
    p, q, d, r = root
    (a0, b0), (a1, b1) = t0.as_integer_ratio(), t1.as_integer_ratio()
    num, den = (p << 128) + q * math.isqrt(d << 256), r << 128
    return (a0 * b1 * den + num * (a1 * b0 - a0 * b1)) / (b0 * b1 * den)


def events_to_word(events, n):
    """One positive letter per event, in time order."""
    return GnWord(n, [(e.triple, 1) for e in events])


def calibrate_against_phi(n):
    """Compare, for every Artin generator, the geometric event word of the
    swap motion with the algebraic generator image: one report entry per
    generator, shaped like the relation suites' entries, with "ok" true and
    "match" "exact" when the letter sequences coincide, else "mismatch"."""
    if n < 3:
        raise ValueError("need at least 3 points")
    report = []
    for i in range(1, n):
        events = detect_events(sigma_motion(n, i))
        geometric, expected = events_to_word(events, n), phi_generator(n, i).word
        exact = geometric == expected
        report.append({"relation": "oracle", "instance": f"i={i}", "ok": exact, "i": i,
                       "match": "exact" if exact else "mismatch", "events": len(events),
                       "geometric": str(geometric), "expected": str(expected)})
    return report

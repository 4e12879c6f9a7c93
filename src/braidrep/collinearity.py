"""Geometric derivation of the braid-to-events map: move points along
piecewise-linear trajectories, detect the moments when three points become
collinear, and emit one triple-generator letter per event.

This module is the only place floating point appears; it feeds the exact
pipeline through discrete words alone.

Emission convention (calibrated, see calibrate_against_phi): an event with
collinear points O1, O2, M, where M lies between the other two, is emitted
as the triple (O1, O2, M) whose orientation determinant
det[x(O2) - x(O1), x(M) - x(O1)] crosses zero from positive to negative.
Under the swap motion produced by sigma_motion (points placed clockwise on
the unit circle, the swapping pair turning counterclockwise about the
midpoint of their chord) the emitted word coincides, letter by letter,
with the word of the algebraic generator image phi_generator(n, i) for
3 <= n <= 11.  With SEGMENTS = 256 that fails beyond: at n = 12 the
motions of i = 2, 3, 5, 7, 8, 9, 10 raise DegenerateEventError, and for
n = 13..16 every generator's word differs, so sigma_motion refuses more
than MAX_SIGMA_POINTS = 11 points.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from itertools import combinations

from .gn3 import GnWord, phi_generator

# Time resolution of detect_events: sign changes are bisected down to it,
# and two events closer than it are degenerate.
TOLERANCE = 1e-12
# Straight segments in each moving path of a built-in swap motion, and the
# most points whose swap-motion word at that count is the generator image.
SEGMENTS = 256
MAX_SIGMA_POINTS = 11


class TrajectoryError(ValueError):
    """Malformed trajectory data."""


class DegenerateEventError(RuntimeError):
    """Tangency or coinciding event times; the motion is not generic."""


class CollinearityEvent:
    __slots__ = ("time", "triple")

    def __init__(self, time, triple):
        i, j, k = triple
        if len({i, j, k}) != 3:
            raise ValueError(f"event triple must be pairwise distinct: {triple}")
        self.time = float(time)
        self.triple = (i, j, k)

    def __repr__(self):
        return f"CollinearityEvent(t={self.time:.6f}, triple={self.triple})"

    def __eq__(self, other):
        return (
            isinstance(other, CollinearityEvent)
            and self.time == other.time
            and self.triple == other.triple
        )


class TrajectorySet:
    """Piecewise-linear paths of n labelled points over the time interval
    [0, 1], with matching start and end point sets."""

    __slots__ = ("n", "paths", "_times")

    MIN_SEPARATION = 1e-9

    def __init__(self, paths):
        self.n = len(paths)
        self.paths = [
            [(float(t), float(x), float(y)) for t, x, y in path] for path in paths
        ]
        self._times = [[bp[0] for bp in path] for path in self.paths]
        self._validate()

    def _validate(self):
        if self.n < 3:
            raise TrajectoryError("need at least 3 points")
        for p, path in enumerate(self.paths):
            if len(path) < 2:
                raise TrajectoryError(f"path {p + 1} needs at least two breakpoints")
            times = self._times[p]
            if times[0] != 0.0:
                raise TrajectoryError(
                    f"path {p + 1} must start at time 0, got {times[0]}"
                )
            if times[-1] != 1.0:
                raise TrajectoryError(
                    f"path {p + 1} must end at time 1, got {times[-1]}"
                )
            if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
                raise TrajectoryError(
                    f"path {p + 1} breakpoint times must be strictly increasing"
                )
        start = sorted((round(x, 6), round(y, 6)) for _, x, y in
                       (path[0] for path in self.paths))
        end = sorted((round(x, 6), round(y, 6)) for _, x, y in
                     (path[-1] for path in self.paths))
        if start != end:
            raise TrajectoryError(
                "start and end point sets differ (braid boundary condition)"
            )
        for t in self.sample_times():
            pts = [self.position(p, t) for p in range(1, self.n + 1)]
            for a, b in combinations(range(self.n), 2):
                dx = pts[a][0] - pts[b][0]
                dy = pts[a][1] - pts[b][1]
                if dx * dx + dy * dy < self.MIN_SEPARATION ** 2:
                    raise TrajectoryError(
                        f"points {a + 1} and {b + 1} coincide at time {t:.6f}"
                    )

    def position(self, p, t):
        """Interpolated position of point p (1-based) at time t in [0, 1]."""
        path = self.paths[p - 1]
        times = self._times[p - 1]
        if t <= 0.0:
            return (path[0][1], path[0][2])
        if t >= 1.0:
            return (path[-1][1], path[-1][2])
        hi = bisect_right(times, t)
        t0, x0, y0 = path[hi - 1]
        t1, x1, y1 = path[hi]
        u = (t - t0) / (t1 - t0)
        return (x0 + u * (x1 - x0), y0 + u * (y1 - y0))

    def sample_times(self):
        """Union of all breakpoint times plus the midpoint of every gap."""
        times = sorted({t for ts in self._times for t in ts})
        grid = []
        for a, b in zip(times, times[1:]):
            grid.append(a)
            grid.append((a + b) / 2.0)
        grid.append(times[-1])
        return grid


def load_trajectories(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(f"not valid JSON: {exc}") from exc
    return trajectories_from_json(data)


def trajectories_from_json(data):
    if not isinstance(data, dict) or "paths" not in data or "n" not in data:
        raise TrajectoryError('expected an object with "n" and "paths"')
    paths = data["paths"]
    if not isinstance(paths, list) or len(paths) != data["n"]:
        raise TrajectoryError('"paths" must list one path per point')
    for path in paths:
        if not isinstance(path, list) or not all(
            isinstance(bp, list) and len(bp) == 3 for bp in path
        ):
            raise TrajectoryError("each breakpoint must be a [t, x, y] triple")
    try:
        paths = [[tuple(float(v) for v in bp) for bp in path] for path in paths]
    except (TypeError, ValueError) as exc:
        raise TrajectoryError(f"breakpoint values must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for path in paths for bp in path for v in bp):
        raise TrajectoryError("breakpoint values must be finite")
    return TrajectorySet(paths)


def sigma_motion(n, i):
    """Swap motion of the i-th Artin generator: n points in clockwise index
    order on the unit circle; points i and i+1 make a counterclockwise
    half-turn about the midpoint of their chord in SEGMENTS straight
    segments, everything else rests.  Its event word is that of
    phi_generator(n, i), so n must lie in 3..MAX_SIGMA_POINTS."""
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
            path = []
            for step in range(SEGMENTS + 1):
                t = step / SEGMENTS
                a = math.pi * t
                ca, sa = math.cos(a), math.sin(a)
                path.append((t, mx + ca * rx - sa * ry, my + sa * rx + ca * ry))
            paths.append(path)
        else:
            paths.append([(0.0, x, y), (1.0, x, y)])
    return TrajectorySet(paths)


def _orientation(pa, pb, pc):
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


_PARITY = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


def detect_events(ts):
    """Locate all triple collinearity moments, refined by bisection.

    Sign changes of the orientation determinant over the sample grid are
    bisected down to TOLERANCE.  A determinant that touches zero at a grid
    point without changing sign, or two events closer than TOLERANCE,
    raise DegenerateEventError."""
    grid = ts.sample_times()
    events = []
    for triple in combinations(range(1, ts.n + 1), 3):
        events.extend(_triple_events(ts, triple, grid))
    events.sort(key=lambda e: e.time)
    for e1, e2 in zip(events, events[1:]):
        if e2.time - e1.time <= TOLERANCE:
            raise DegenerateEventError(
                f"events {e1.triple} and {e2.triple} coincide at t={e1.time:.12f}"
            )
    return events


def _triple_events(ts, triple, grid):
    a, b, c = triple

    def det(t):
        return _orientation(
            ts.position(a, t), ts.position(b, t), ts.position(c, t)
        )

    values = [det(t) for t in grid]
    out = []
    for pos in range(len(grid) - 1):
        v0, v1 = values[pos], values[pos + 1]
        if v0 == 0.0:
            prev = values[pos - 1] if pos > 0 else None
            if prev is None or v1 == 0.0 or (prev < 0) == (v1 < 0):
                raise DegenerateEventError(
                    f"determinant of {triple} touches zero at t={grid[pos]:.12f}"
                )
            out.append(_make_event(ts, triple, grid[pos], prev))
            continue
        if v0 * v1 < 0.0:
            lo, hi = grid[pos], grid[pos + 1]
            flo = v0
            while hi - lo > TOLERANCE:
                mid = (lo + hi) / 2.0
                fmid = det(mid)
                if fmid == 0.0 or (fmid < 0) == (flo < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            out.append(_make_event(ts, triple, (lo + hi) / 2.0, v0))
    return out


def _make_event(ts, triple, time, sign_before):
    pts = {p: ts.position(p, time) for p in triple}
    middle = _middle_point(pts)
    outers = [p for p in triple if p != middle]
    # orient the outer pair so the emitted triple's orientation determinant
    # falls from + to - through the event
    for o1, o2 in (tuple(outers), tuple(reversed(outers))):
        emitted = (o1, o2, middle)
        parity = _PARITY[tuple(sorted(range(3), key=lambda pos: emitted[pos]))]
        # parity maps the sorted triple's determinant sign to emitted's
        if parity * (1 if sign_before > 0 else -1) > 0:
            return CollinearityEvent(time, emitted)
    raise AssertionError("unreachable: one outer order must match")


def _middle_point(pts):
    """The point lying between the other two: the endpoints of the longest
    pairwise segment are the outer ones."""
    (pa, va), (pb, vb), (pc, vc) = pts.items()

    def dist2(u, v):
        return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2

    spans = [
        (dist2(va, vb), pc),
        (dist2(va, vc), pb),
        (dist2(vb, vc), pa),
    ]
    spans.sort()
    return spans[-1][1]


def events_to_word(events, n):
    """One positive letter per event, in time order."""
    return GnWord(n, [(e.triple, 1) for e in events])


def calibrate_against_phi(n):
    """Compare, for every Artin generator, the geometric event word of the
    swap motion with the algebraic generator image.

    Returns one report entry per generator, shaped like the relation
    suites' entries: "ok" is true and "match" is "exact" when the letter
    sequences coincide, "mismatch" otherwise."""
    if n < 3:
        raise ValueError("need at least 3 points")
    report = []
    for i in range(1, n):
        events = detect_events(sigma_motion(n, i))
        geometric = events_to_word(events, n)
        expected = phi_generator(n, i).word
        exact = geometric == expected
        report.append(
            {
                "relation": "oracle",
                "instance": f"i={i}",
                "ok": exact,
                "i": i,
                "match": "exact" if exact else "mismatch",
                "events": len(events),
                "geometric": str(geometric),
                "expected": str(expected),
            }
        )
    return report

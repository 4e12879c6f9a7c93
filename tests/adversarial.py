"""Trajectory files built to be slow for `braidrep simulate`: each family is
grown until collinearity's work bound would refuse it, and the largest file
it admits is timed through the command line.

    PYTHONPATH=src python tests/adversarial.py

Families: three points turning at their own breakpoint times, so that most
points of the motion are interpolated; four to six such points; and 32
points of mixed magnitudes (2^-S, 1 or 2^S) that flip through the origin on
every shared interval, so that every triple is collinear twice per interval.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time

from braidrep import collinearity


def grid(rng, bits, scale=1.0):
    return round(rng.uniform(-2, 2) * 2 ** bits) / 2 ** bits * scale


def misaligned(rng, n, count, time_bits):
    """n points on a 2^-20 grid, each turning at its own count times; times
    are on a 2^-time_bits grid, or any float when time_bits is None."""
    paths = []
    for _ in range(n):
        start = (grid(rng, 20), grid(rng, 20))
        times = set()
        while len(times) < count:
            t = rng.random()
            times.add(t if time_bits is None else round(t * 2 ** time_bits) / 2 ** time_bits)
        times -= {0.0, 1.0}
        paths.append([[0.0, *start]] + [[t, grid(rng, 20), grid(rng, 20)] for t in sorted(times)]
                     + [[1.0, *start]])
    return paths


def flip(rng, n, intervals, shift):
    """n points at scale 2^-shift, 1 or 2^shift; every odd breakpoint is the
    start under diag(-(1 - 1/16), -(1 + 1/16)) plus 2^-20 relative noise, and
    every even one is the start."""
    paths = []
    for _ in range(n):
        scale = 2.0 ** rng.choice((-shift, 0, shift))
        x, y = grid(rng, 20, scale), grid(rng, 20, scale)
        away = [-(1 - 1 / 16) * x + grid(rng, 20, scale) * 2 ** -20,
                -(1 + 1 / 16) * y + grid(rng, 20, scale) * 2 ** -20]
        paths.append([[k / intervals, *(away if k % 2 else (x, y))] for k in range(intervals)]
                     + [[1.0, x, y]])
    return paths


def admitted(paths):
    if len(json.dumps({"n": len(paths), "paths": paths})) > collinearity.MAX_FILE_BYTES:
        return False
    try:
        collinearity.trajectories_from_json({"n": len(paths), "paths": paths})
    except collinearity.TrajectoryError:
        return False
    return True


def largest(make, lo, hi):
    """The motion make(size) for the largest admitted size in [lo, hi]."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if admitted(make(mid)) else (lo, mid - 1)
    return make(lo)


def timed(paths):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"n": len(paths), "paths": paths}, fh)
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "braidrep", "simulate", fh.name],
                            capture_output=True, text=True)
    seconds = time.perf_counter() - start
    os.unlink(fh.name)
    events = len(json.loads(result.stdout)["events"]) if result.returncode == 0 else None
    return seconds, result.returncode, events


def main():
    # (name, motion of a given size, smallest and largest size tried)
    families = [(f"n=3 misaligned, times on 2^-{bits or 53}",
                 lambda k, b=bits: misaligned(random.Random(1), 3, k, b), 2, most)
                for bits, most in ((12, 4000), (24, 40000), (None, 40000))]
    families += [(f"n={n} misaligned, any float times",
                  lambda k, n=n: misaligned(random.Random(2), n, k, None), 2, 4000)
                 for n in (4, 5, 6)]
    families += [(f"n=32 flip, scales 2^-{s}, 1, 2^{s}",
                  lambda k, s=s: flip(random.Random(3), 32, k, s), 1, 64)
                 for s in (0, 24, 30, 34, 36, 90)]
    worst = 0.0
    for name, make, lo, hi in families:
        paths = largest(make, lo, hi)
        intervals = len({bp[0] for path in paths for bp in path}) - 1
        seconds, code, events = timed(paths)
        worst = max(worst, seconds)
        print(f"{name}: {intervals} intervals, exit {code}, {events} events, {seconds:.2f} s",
              flush=True)
    print(f"worst admitted file: {worst:.2f} s")


if __name__ == "__main__":
    main()

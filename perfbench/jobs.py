"""Seeded job streams, one per workload.

A stream is an endless sequence of cycles.  Every cycle holds the same
job kinds with the same input sizes in the same order, so a run that
stops at a cycle boundary has the same mix whatever the seed and however
many cycles fit; the seed chooses the braid letters, assignments, entries
and motions.  The program sees only argv and, for `simulate FILE`, the
file written before the job starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference as ref

# one warm-up job per workload: run once by every fresh set-up process and
# once by the timed process before its clock starts
WARMUP = {
    "kernel": ["rep", "--n", "5", "--bigelow", "--set", "t1=-1", "--set-rest", "1",
               "--entry", "x_1_2", "x_1_2"],
    "symbolic": ["check", "--n", "5", "gn-relations"],
    "motions": ["check", "--n", "6", "oracle"],
}

RATIONALS = ("2/3", "-3/2", "3/4", "-4/3", "5/7")
COORD_BITS = 20   # motion coordinates are multiples of 2^-20


@dataclass
class Job:
    kind: str
    argv: list        # "{file}" stands for the trajectory file of `motion`
    answer: tuple     # what reference.py needs to compute the expected output
    motion: dict = None


def stream(workload, seed):
    """Yield (cycle, Job) forever."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"kernel": _kernel_cycle, "symbolic": _symbolic_cycle,
            "motions": _motions_cycle}[workload]
    cycle = 0
    while True:
        for job in make(rng, cycle):
            yield cycle, job
        cycle += 1


def sizes(count, lo, hi):
    """count sizes evenly spaced from lo to hi."""
    return [lo + (hi - lo) * k // (count - 1) for k in range(count)]


# ---------------------------------------------------------------------------
# kernel: numeric rep of Burau-kernel-shaped pure braids, and reduced Burau

def random_word(rng, n, length):
    """Random freely reduced braid word."""
    word = []
    while len(word) < length:
        letter = (rng.randint(1, n - 1), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return word


def commutator_braid(rng, n, length):
    """Pure braid [x, y] shaped like Bigelow's: x = p^-1 s_a^+-1 p and
    y = q^-1 P q with P a positive pure braid s_{b-1}..s_{a+1} s_a^2 ..
    s_{b-1}; length is the total letter count, rounded down to even."""
    a = rng.randint(1, n - 2)
    b = rng.randint(a + 1, n - 1)
    core = ([(i, 1) for i in range(b, a, -1)] + [(a, 1), (a, 1)]
            + [(i, 1) for i in range(a + 1, b + 1)])
    conj = max(length // 2 - 1 - len(core), 2) // 2
    left = rng.randint(1, conj - 1) if conj > 1 else 1
    p = random_word(rng, n, left)
    q = random_word(rng, n, conj - left)
    x = ref.inverse(p) + [(rng.randint(1, n - 1), rng.choice((1, -1)))] + p
    y = ref.inverse(q) + core + q
    return x + y + ref.inverse(x) + ref.inverse(y)


def unit_values(rng, n):
    """A +-1 assignment: a random nonempty set of variables at -1."""
    names = ref.strand_names(n)
    minus = rng.sample(names, rng.randint(1, 3))
    return {name: (-1 if name in minus else 1) for name in names}


def rational_values(rng, n):
    """+-1 everywhere except one or two non-unit rationals."""
    values = unit_values(rng, n)
    for name in rng.sample(list(values), rng.randint(1, 2)):
        values[name] = rng.choice(RATIONALS)
    return values


def assignment_args(values):
    args = []
    for name, v in values.items():
        if v != 1:
            args += ["--set", f"{name}={v}"]
    return args + ["--set-rest", "1"]


def entry_args(pair_row, pair_col):
    return ["--entry", "x_{}_{}".format(*pair_row), "x_{}_{}".format(*pair_col)]


def rep_job(kind, n, braid, values, entry, builtin=False):
    argv = ["rep", "--n", str(n)] + (["--bigelow"] if builtin else [ref.braid_text(braid)])
    argv += assignment_args(values)
    if entry:
        argv += entry_args(*entry)
    return Job(kind, argv, ("rep", n, tuple(braid), tuple(values.items()), entry))


def burau_job(kind, n, braid, reduced, builtin=False):
    argv = ["burau", "--n", str(n)] + (["--bigelow"] if builtin else [ref.braid_text(braid)])
    if reduced:
        argv.append("--reduced")
    return Job(kind, argv, ("burau", n, tuple(braid), reduced))


BIGELOW = ref.bigelow_letters()


def _named(n, **values):
    out = {name: 1 for name in ref.strand_names(n)}
    out.update(values)
    return out


# phi letters per braid letter of commutator_braid, near the median at
# every length; random rep braids keep within PHI_BAND of it, so a job's
# cost depends on its kind and length and hardly on the seed
PHI_RATE = {5: 2.65, 6: 3.65}
PHI_BAND = 0.05


def sized_commutator(rng, n, length):
    target = PHI_RATE[n] * length
    while True:
        braid = commutator_braid(rng, n, length)
        if abs(len(ref.phi_word(n, braid)[0]) - target) <= PHI_BAND * target:
            return braid


def _kernel_cycle(rng, cycle):
    # One cycle fills a 25 s run at seed speed.  Its 28 jobs fall into
    # three cost groups: 6 Burau jobs below, 14 n=5 rep jobs in the middle
    # (four on Bigelow's braid and ten on 130-letter random braids, whose
    # phi words are about as long as Bigelow's), and 8 n=6 rep jobs above.
    # job_ms.p50 (ranks 14 and 15) and job_ms.tail (rank 18, ten jobs
    # beyond it) both fall among the ten random n=5 jobs, so they do not
    # jump between groups from seed to seed.  The n=6 braids and the Burau
    # jobs span the whole 60-200 letter range.
    corner = ((1, 2), (1, 2))

    def entry(n):
        return tuple(tuple(rng.sample(range(1, n + 1), 2)) for _ in range(2))

    r5 = [sized_commutator(rng, 5, 130) for _ in range(5)]
    r6 = [sized_commutator(rng, 6, length) for length in (60, 130, 200)]
    b5 = [commutator_braid(rng, 5, length) for length in sizes(3, 60, 200)]
    b6 = [commutator_braid(rng, 6, length) for length in (60, 200)]
    jobs = [
        rep_job("bigelow5_unit_entry", 5, BIGELOW, _named(5, t1=-1), corner, True),
        rep_job("bigelow5_rational_full", 5, BIGELOW, _named(5, t1="2/3"), None, True),
        # the same input again: a cross-job cache would show in repeat_share
        rep_job("bigelow5_unit_entry", 5, BIGELOW, _named(5, t1=-1), corner, True),
        rep_job("bigelow5_rational_entry", 5, BIGELOW, _named(5, t1=-1, t3="-4/3"),
                entry(5), True),
        rep_job("bigelow6_unit_entry", 6, BIGELOW, _named(6, t1=-1, s1=-1), corner, True),
        rep_job("bigelow6_rational_full", 6, BIGELOW,
                _named(6, t1="-3/2", s1=-1), None, True),
        burau_job("bigelow5_burau_reduced", 5, BIGELOW, True, True),
    ]
    # every random braid gets a unit and a rational assignment; entry and
    # full matrix alternate
    for n, braids in ((5, r5), (6, r6)):
        for k, braid in enumerate(braids):
            ends = ("entry", "full") if k % 2 else ("full", "entry")
            jobs.append(rep_job(f"random{n}_unit_{ends[0]}", n, braid, unit_values(rng, n),
                                entry(n) if ends[0] == "entry" else None))
            jobs.append(rep_job(f"random{n}_rational_{ends[1]}", n, braid,
                                rational_values(rng, n),
                                entry(n) if ends[1] == "entry" else None))
    jobs += [burau_job("random5_burau_reduced", 5, braid, True) for braid in b5]
    jobs += [burau_job("random6_burau_reduced", 6, braid, True) for braid in b6]
    # interleave the groups, in the same order every cycle and for every
    # seed, so that slow drift of the machine touches all of them alike
    order = random.Random("kernel order").sample(range(len(jobs)), len(jobs))
    return [jobs[k] for k in order]


# ---------------------------------------------------------------------------
# symbolic: relation suites, symbolic rep of short pure braids, symbolic Burau

def short_pure_braid(rng, n, phi_max):
    """Product of random pure generators A_ab^+-1 whose phi word has at
    most phi_max letters (and at least one generator)."""
    braid = []
    while True:
        a = rng.randint(1, n - 1)
        b = rng.randint(a + 1, n)
        e = rng.choice((1, -1))
        conj = [(i, 1) for i in range(b - 1, a, -1)]
        gen = conj + [(a, e), (a, e)] + ref.inverse(conj)
        word, _ = ref.phi_word(n, braid + gen)
        if braid and len(word) > phi_max:
            return braid
        braid += gen


def _symbolic_cycle(rng, cycle):
    jobs = [
        Job("gn_relations4", ["check", "--n", "4", "gn-relations"], ("gn", 4)),
        Job("gn_relations5", ["check", "--n", "5", "gn-relations"], ("gn", 5)),
    ]
    jobs += [Job(f"braid_relations{n}", ["check", "--n", str(n), "braid-relations"],
                 ("braid", n)) for n in (3, 4, 5)]
    for n, phi_max in zip((4, 5, 4, 5), sizes(4, 20, 60)):
        braid = short_pure_braid(rng, n, phi_max)
        jobs.append(Job(f"symbolic_rep{n}", ["rep", "--n", str(n), ref.braid_text(braid)],
                        ("symbolic", n, tuple(braid))))
    shapes = list(zip(((4, False), (5, True), (6, False), (4, True), (5, False), (6, True)),
                      sizes(6, 50, 200)))
    # four more of the mid-cost shape put a dense block of similar jobs
    # around the median job
    for (n, reduced), length in shapes + [shapes[1]] * 4:
        braid = random_word(rng, n, length)
        jobs.append(burau_job(f"burau{n}_{'reduced' if reduced else 'unreduced'}",
                              n, braid, reduced))
    return jobs


# ---------------------------------------------------------------------------
# motions: trajectory files, the built-in swap motions and the oracle suite

def _grid(v):
    return round(v * 2 ** COORD_BITS) / 2 ** COORD_BITS


def smooth_loop(rng, n, breakpoints):
    """Each point runs a closed epicycle around its own centre."""
    times = [k / (breakpoints - 1) for k in range(breakpoints)]
    paths = []
    for _ in range(n):
        cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
        r1, r2 = rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.3)
        w1, w2 = rng.choice((-2, -1, 1, 2)), rng.choice((-3, 3))
        f1, f2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        path = []
        for t in times[:-1]:
            a1, a2 = 2 * math.pi * w1 * t + f1, 2 * math.pi * w2 * t + f2
            path.append([t, _grid(cx + r1 * math.cos(a1) + r2 * math.cos(a2)),
                         _grid(cy + r1 * math.sin(a1) + r2 * math.sin(a2))])
        path.append([1.0] + path[0][1:])
        paths.append(path)
    return paths


def coarse_motion(rng, n, breakpoints):
    """Random waypoints with large jumps; every point returns home."""
    times = [k / (breakpoints - 1) for k in range(breakpoints)]
    paths = []
    for _ in range(n):
        path = [[t, _grid(rng.uniform(-2, 2)), _grid(rng.uniform(-2, 2))]
                for t in times[:-1]]
        path.append([1.0] + path[0][1:])
        paths.append(path)
    return paths


def min_separation(paths):
    """Smallest distance between two points over the whole motion."""
    best = math.inf
    for k in range(len(paths[0]) - 1):
        for p in range(len(paths)):
            for q in range(p + 1, len(paths)):
                x0 = paths[p][k][1] - paths[q][k][1]
                y0 = paths[p][k][2] - paths[q][k][2]
                dx = paths[p][k + 1][1] - paths[q][k + 1][1] - x0
                dy = paths[p][k + 1][2] - paths[q][k + 1][2] - y0
                a, b = dx * dx + dy * dy, x0 * dx + y0 * dy
                u = min(max(-b / a, 0.0), 1.0) if a else 0.0
                best = min(best, math.hypot(x0 + u * dx, y0 + u * dy))
    return best


def motion_job(kind, rng, make, points, breakpoints, separation):
    while True:
        paths = make(rng, points, breakpoints)
        if min_separation(paths) >= separation:
            return Job(kind, ["simulate", "{file}"], ("events",),
                       {"n": points, "paths": paths})


# (points, breakpoints); the repeated mid-size shape puts a dense block
# of similar jobs around the median job
SMOOTH_SHAPES = ((4, 32), (5, 64), (5, 64), (5, 64), (6, 96), (8, 128))
COARSE_SHAPES = ((4, 12), (5, 8), (6, 10), (8, 4))


def _motions_cycle(rng, cycle):
    jobs = [motion_job("smooth_file", rng, smooth_loop, points, breakpoints, 0.02)
            for points, breakpoints in SMOOTH_SHAPES]
    points, breakpoints = COARSE_SHAPES[cycle % len(COARSE_SHAPES)]
    jobs.append(motion_job("coarse_file", rng, coarse_motion, points, breakpoints, 0.01))
    n = 3 + cycle % 6
    i = rng.randint(1, n - 1)
    jobs.append(Job("sigma", ["simulate", "--sigma", str(n), str(i)], ("sigma", n, i)))
    # the slowest oracle (n=8) in every cycle, so a run holds far more than
    # ten of them and job_ms.tail falls well inside that group
    for n in (3 + cycle % 5, 8):
        jobs.append(Job("oracle", ["check", "--n", str(n), "oracle"], ("oracle", n)))
    return jobs

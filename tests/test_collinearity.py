import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest

import oracle

from braidrep import collinearity
from braidrep.collinearity import (
    INTERVAL_BITS,
    MAX_SIGMA_POINTS,
    SEGMENTS,
    DegenerateEventError,
    TrajectoryError,
    TrajectorySet,
    calibrate_against_phi,
    detect_events,
    events_to_word,
    load_trajectories,
    sigma_motion,
    trajectories_from_json,
)
from braidrep.gn3 import GnWord, phi_generator
from words import gn_word

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def still_square():
    # four generic stationary points (no three collinear)
    pts = [(0.0, 0.0), (1.0, 0.1), (0.2, 1.0), (1.3, 1.2)]
    return TrajectorySet([[(0.0, x, y), (1.0, x, y)] for x, y in pts])


def test_sigma_motion_moves_only_the_swapping_pair():
    ts = sigma_motion(5, 1)
    assert len(ts.paths[0]) > 2 and len(ts.paths[1]) > 2
    for p in (3, 4, 5):
        assert len(ts.paths[p - 1]) == 2
        assert ts.paths[p - 1][0][1:] == ts.paths[p - 1][1][1:]


def test_sigma_motion_swaps_the_pair():
    ts = sigma_motion(5, 2)
    path2, path3 = ts.paths[1], ts.paths[2]
    assert path2[-1][1:] == path3[0][1:]
    assert path3[-1][1:] == path2[0][1:]


def test_sigma_motion_keeps_points_separated():
    # closest approach of every pair along each straight segment
    ts = sigma_motion(6, 3)
    tracks = [path if len(path) > 2 else path[:1] * (SEGMENTS + 1) for path in ts.paths]
    for a, b in combinations(tracks, 2):
        for (_, ax, ay), (_, ax1, ay1), (_, bx, by), (_, bx1, by1) in zip(
            a, a[1:], b, b[1:]
        ):
            x0, y0 = ax - bx, ay - by
            dx, dy = ax1 - bx1 - x0, ay1 - by1 - y0
            u = min(max(-(x0 * dx + y0 * dy) / (dx * dx + dy * dy), 0.0), 1.0) if dx or dy else 0.0
            assert math.hypot(x0 + u * dx, y0 + u * dy) > 1e-6


def test_sigma_motion_validates_arguments():
    with pytest.raises(ValueError):
        sigma_motion(5, 5)
    with pytest.raises(ValueError):
        sigma_motion(2, 1)
    with pytest.raises(ValueError, match="11"):
        sigma_motion(12, 1)
    assert sigma_motion(11, 10).n == 11


def test_no_events_for_stationary_generic_points():
    assert detect_events(still_square()) == []


def test_sigma_motion_event_count():
    events = detect_events(sigma_motion(5, 1))
    assert len(events) == 3
    assert {frozenset(e.triple) for e in events} == {
        frozenset({3, 2, 1}),
        frozenset({4, 2, 1}),
        frozenset({5, 2, 1}),
    }


def test_event_times_strictly_increase():
    events = detect_events(sigma_motion(6, 2))
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(t2 - t1 > 1e-9 for t1, t2 in zip(times, times[1:]))
    assert all(0.0 < t < 1.0 for t in times)


def test_detection_is_deterministic():
    a = detect_events(sigma_motion(5, 2))
    b = detect_events(sigma_motion(5, 2))
    assert a == b


def test_sweep_order_for_n4_sigma2():
    events = detect_events(sigma_motion(4, 2))
    assert [e.triple[0] for e in events] == [1, 4]


def test_sweep_order_for_n5_sigma1():
    events = detect_events(sigma_motion(5, 1))
    assert [e.triple[0] for e in events] == [5, 4, 3]


def test_events_to_word():
    events = detect_events(sigma_motion(5, 1))
    word = events_to_word(events, 5)
    assert len(word) == len(events)
    assert word == gn_word("a(5,2,1) a(4,2,1) a(3,2,1)", 5)
    assert events_to_word([], 5) == GnWord(5)


def test_calibration_matches_generator_images_exactly():
    for n in range(3, 7):
        for entry in calibrate_against_phi(n):
            assert entry["match"] == "exact", entry
            assert entry["events"] == n - 2


def test_calibration_letter_content():
    for n in (4, 5):
        for i in range(1, n):
            word = events_to_word(detect_events(sigma_motion(n, i)), n)
            expected_multiset = {
                frozenset({p, i + 1, i}) for p in range(1, n + 1) if p not in (i, i + 1)
            }
            assert {frozenset(t) for t, _ in word.letters} == expected_multiset
            assert word == phi_generator(n, i).word


def test_reversed_motion_reverses_events_and_swaps_outer_slots():
    # running time backwards flips every crossing direction, so the outer
    # pair of each emitted triple swaps while the middle slot stays put
    ts = sigma_motion(5, 1)
    reversed_paths = [
        [(round(1.0 - t, 12), x, y) for t, x, y in reversed(path)]
        for path in ts.paths
    ]
    rev = TrajectorySet(reversed_paths)
    forward = detect_events(ts)
    backward = detect_events(rev)
    assert len(forward) == len(backward)
    for fwd, bwd in zip(forward, reversed(backward)):
        assert abs(fwd.time - (1.0 - bwd.time)) < 1e-6
        assert bwd.triple == (fwd.triple[1], fwd.triple[0], fwd.triple[2])


def test_tangency_raises_degenerate_event():
    paths = [
        [(0.0, -2.0, 0.0), (1.0, -2.0, 0.0)],
        [(0.0, 2.0, 0.0), (1.0, 2.0, 0.0)],
        [(0.0, -1.0, 0.5), (0.5, 0.0, 0.0), (1.0, -1.0, 0.5)],
    ]
    ts = TrajectorySet(paths)
    with pytest.raises(DegenerateEventError, match="touches zero"):
        detect_events(ts)


def test_tangency_inside_an_interval_raises_degenerate_event():
    # det(1, 2, 3) = (2u - 1)^2 / 4 on the first interval: points 1, 2, 3
    # touch a line, at (0, 0), (1, 0) and (2, 0), without crossing it
    paths = [
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 1.0, -0.5), (0.5, 1.0, 0.5), (1.0, 1.0, -0.5)],
        [(0.0, 2.5, -1.0), (0.5, 1.5, 1.0), (1.0, 2.5, -1.0)],
    ]
    with pytest.raises(DegenerateEventError, match="tangent"):
        detect_events(TrajectorySet(paths))


def test_coinciding_event_times_raise_degenerate_event():
    # two points cross the line of the static pair at the same moment
    paths = [
        [(0.0, -2.0, 0.0), (1.0, -2.0, 0.0)],
        [(0.0, 2.0, 0.0), (1.0, 2.0, 0.0)],
        [(0.0, 0.5, -1.0), (1.0, 0.5, 1.0)],
        [(0.0, -0.5, -1.0), (1.0, -0.5, 1.0)],
    ]
    # make the boundary sets match by closing the moving paths' gap
    paths[2] = [(0.0, 0.5, -1.0), (0.5, 0.5, 1.0), (1.0, 0.5, -1.0)]
    paths[3] = [(0.0, -0.5, -1.0), (0.5, -0.5, 1.0), (1.0, -0.5, -1.0)]
    ts = TrajectorySet(paths)
    with pytest.raises(DegenerateEventError):
        detect_events(ts)


def test_save_load_round_trip(tmp_path):
    # every swap motion stays inside the file bounds; their coordinates go
    # down to about 6e-17
    path = tmp_path / "motion.json"
    for n in range(3, MAX_SIGMA_POINTS + 1):
        for i in range(1, n):
            ts = sigma_motion(n, i)
            path.write_text(json.dumps({"n": ts.n, "paths": ts.paths}))
            loaded = load_trajectories(path)
            assert loaded.n == ts.n
            assert loaded.paths == ts.paths


def test_load_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(TrajectoryError):
        load_trajectories(path)
    with pytest.raises(TrajectoryError):
        trajectories_from_json({"n": 2})
    with pytest.raises(TrajectoryError):
        trajectories_from_json({"n": 1, "paths": [[[0, 0, 0]]]})


def test_rejects_identical_constant_paths():
    paths = [
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 1.0, 1.0), (1.0, 1.0, 1.0)],
    ]
    ts = TrajectorySet(paths)
    with pytest.raises(TrajectoryError, match="points 1 and 2 coincide at time 0.000000"):
        detect_events(ts)


def test_rejects_times_not_spanning_unit_interval():
    good = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(TrajectoryError, match="start at time 0"):
        TrajectorySet([[(0.1, 0.0, 0.0), (1.0, 0.0, 0.0)], good, good])
    with pytest.raises(TrajectoryError, match="end at time 1"):
        TrajectorySet([[(0.0, 0.0, 0.0), (0.9, 0.0, 0.0)], good, good])


def test_rejects_non_monotone_times():
    path = [(0.0, 0.0, 0.0), (0.5, 1.0, 0.0), (0.5, 2.0, 0.0), (1.0, 0.0, 0.0)]
    other = [(0.0, 5.0, 5.0), (1.0, 5.0, 5.0)]
    third = [(0.0, -5.0, 5.0), (1.0, -5.0, 5.0)]
    with pytest.raises(TrajectoryError, match="strictly increasing"):
        TrajectorySet([path, other, third])


def test_rejects_mismatched_boundary_sets():
    paths = [
        [(0.0, 0.0, 0.0), (1.0, 3.0, 3.0)],
        [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
        [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0)],
    ]
    with pytest.raises(TrajectoryError, match="boundary"):
        TrajectorySet(paths)


def test_double_crossing_inside_one_interval_is_found():
    # point 3 crosses the line of points 1 and 2 twice within each
    # breakpoint interval, so the determinant has equal signs at both ends
    events = detect_events(load_trajectories(DEMOS / "double_crossing.json"))
    assert [e.triple for e in events] == [(2, 3, 1), (3, 2, 1), (2, 3, 1), (3, 2, 1)]
    assert [e.time for e in events] == [0.1, 0.2, 0.8, 0.9]


def test_cross_and_return_swaps_the_outer_slots():
    paths = [
        [(0.0, -1.0, 0.0), (1.0, -1.0, 0.0)],
        [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
        [(0.0, 0.0, 1.0), (0.5, 0.0, -1.0), (1.0, 0.0, 1.0)],
    ]
    there, back = detect_events(TrajectorySet(paths))
    assert (there.time, back.time) == (0.25, 0.75)
    assert there.triple[2] == 3
    assert back.triple == (there.triple[1], there.triple[0], 3)


def test_collision_between_grid_times_is_refused():
    # points 1 and 2 meet at t = 0.1, away from every breakpoint and
    # interval midpoint (0, 0.25, 0.5, 0.75, 1)
    paths = [
        [(0.0, 0.0, 0.0), (0.5, 5.0, 0.0), (1.0, 0.0, 0.0)],
        [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
        [(0.0, 0.0, 3.0), (1.0, 0.0, 3.0)],
    ]
    ts = TrajectorySet(paths)
    with pytest.raises(TrajectoryError, match="points 1 and 2 coincide at time 0.100000"):
        detect_events(ts)


def random_motion(rng, n, aligned):
    """Coarse random jumps on a 2^-20 grid, ending on the start points in a
    random order.  Aligned paths share their breakpoint times; otherwise
    each path has its own, so most breakpoint times of the motion fall
    inside another path's segment and are interpolated."""
    def grid():
        return round(rng.uniform(-2, 2) * 2 ** 20) / 2 ** 20

    starts = [(grid(), grid()) for _ in range(n)]
    shared = sorted(rng.random() for _ in range(rng.randint(1, 4)))
    paths = []
    for start, end in zip(starts, rng.sample(starts, n)):
        # a point that moves away turns at least once, so that no two
        # points swap along one straight segment and meet halfway
        least = 0 if start == end else 1
        inner = shared if aligned else sorted(
            rng.random() for _ in range(rng.randint(least, 4)))
        path = [(t, grid(), grid()) for t in inner]
        paths.append([(0.0, *start)] + path + [(1.0, *end)])
    return paths


def test_events_match_the_fraction_reference_on_coarse_motions():
    rng = random.Random(20261018)
    total = 0
    for trial in range(48):
        n = 4 + trial % 3
        paths = random_motion(rng, n, aligned=trial % 2 == 0)
        events = detect_events(TrajectorySet(paths))
        expected = oracle.collinearity_events(paths)
        assert [e.triple for e in events] == [triple for _, triple in expected]
        assert all(abs(e.time - t) < 1e-12 for e, (t, _) in zip(events, expected))
        total += len(events)
    assert total > 500


def bound_admits(paths, work):
    """Whether the float bound of TrajectorySet admits the motion when the
    work limit is set to work."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collinearity, "MAX_TRIPLE_INTERVALS", work)
        try:
            TrajectorySet(paths)
        except TrajectoryError as exc:
            assert "triple-intervals weighted by integer size" in str(exc)
            return False
    return True


def reference_work(paths):
    return math.comb(len(paths), 3) * sum(oracle.interval_weights(paths, INTERVAL_BITS))


def test_work_bound_is_an_upper_bound_of_the_exact_weights():
    # the bound never admits a motion below its exact weighted work; where no
    # point is interpolated (aligned motions, swap motions) it is that work
    rng = random.Random(20261020)
    motions = [(random_motion(rng, 4 + trial % 3, aligned=trial % 2 == 0), trial % 2 == 0)
               for trial in range(24)]
    demo = json.loads((DEMOS / "double_crossing.json").read_text())["paths"]
    motions.append((demo, True))
    # integers 2^111, 1 and 2^100 over the scale 2^100: 113 bits, one past a weight step
    motions.append(([[(0.0, x, y), (1.0, x, y)]
                     for x, y in ((2.0 ** 11, 0.0), (0.0, 2.0 ** -100), (1.0, 1.0))], True))
    motions += [(sigma_motion(n, i).paths, True)
                for n in range(3, MAX_SIGMA_POINTS + 1) for i in range(1, n)]
    loose = 0
    for paths, aligned in motions:
        work = reference_work(paths)
        assert not bound_admits(paths, work - 1)
        if aligned:
            assert bound_admits(paths, work)
        else:
            loose += not bound_admits(paths, work)
    assert loose > 0    # the misaligned motions do interpolate points

import json
import math

import pytest

from braidrep.collinearity import (
    CollinearityEvent,
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
    start2, end2 = ts.position(2, 0.0), ts.position(2, 1.0)
    start3, end3 = ts.position(3, 0.0), ts.position(3, 1.0)
    assert math.dist(end2, start3) < 1e-9
    assert math.dist(end3, start2) < 1e-9


def test_sigma_motion_keeps_points_separated():
    ts = sigma_motion(6, 3)
    for t in ts.sample_times():
        pts = [ts.position(p, t) for p in range(1, 7)]
        for a in range(6):
            for b in range(a + 1, 6):
                assert math.dist(pts[a], pts[b]) > 1e-6


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


def test_event_validation():
    with pytest.raises(ValueError):
        CollinearityEvent(0.5, (1, 1, 2))


def test_save_load_round_trip(tmp_path):
    ts = sigma_motion(4, 2)
    path = tmp_path / "motion.json"
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
    with pytest.raises(TrajectoryError, match="coincide"):
        TrajectorySet(paths)


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

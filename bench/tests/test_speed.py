"""Tests for the speed probe's scaling and the benchmark's case statistics."""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402

REF = speed.REF_PROBE_S


def test_probe_at_takes_the_median_of_the_nearest_samples():
    samples = [(0.0, 1.0), (1.0, 1.0), (2.0, 5.0), (3.0, 1.0), (10.0, 9.0)]
    # one slow probe among its neighbours does not decide the speed
    assert speed.probe_at(samples, 2.0) == 1.0
    # beyond the samples the nearest ones are used
    assert speed.probe_at(samples, 50.0) == 5.0
    assert speed.probe_at([(0.0, 3.0)], 7.0) == 3.0


def test_scaled_divides_out_the_machine_speed():
    half_speed = [(t, 2 * REF) for t in (0.0, 1.0, 2.0)]
    assert speed.scaled(half_speed, 4.0, 0.0) == pytest.approx(2.0)
    assert speed.scaled_by_median(half_speed, 4.0) == pytest.approx(2.0)
    full_speed = [(t, REF) for t in (0.0, 1.0, 2.0)]
    assert speed.scaled(full_speed, 4.0, 0.0) == pytest.approx(4.0)


def test_samples_are_grouped_by_process_in_time_order():
    samples = [(7, 2.0, 0.1), (8, 1.0, 0.2), (7, 0.5, 0.3)]
    assert speed.by_pid(samples) == {7: [(0.5, 0.3), (2.0, 0.1)], 8: [(1.0, 0.2)]}
    assert speed.probed_between([(0.5, 0.3), (2.0, 0.1)], 0.0, 2.0) == 0.3


def test_drain_returns_each_sample_once():
    probes = speed.Probes()
    probes.take_several()
    assert len(probes.drain()) == speed.NEAREST
    assert probes.drain() == []
    probes.take()
    assert len(probes.drain()) == 1
    assert len(probes.samples) == speed.NEAREST + 1


def serial_record(pid=1):
    """A serial run spawned at t = 0 on a machine at half the reference
    speed: 0.2 s of setup after three probes, two cases of 1 s and 2 s with
    a probe before each, then 0.1 s of report output."""
    d = 2 * REF
    probes = [(pid, 0.05 + i * d + d / 2, d) for i in range(3)]
    first = 0.05 + 3 * d + 0.2
    probes.append((pid, first + d / 2, d))
    second = first + d + 1.0
    probes.append((pid, second + d / 2, d))
    end = second + d + 2.0 + 0.1
    return {
        "pid": pid,
        "probes": probes,
        "first_case": first,
        "end": end,
        "case_stamps": [(pid, first + d), (pid, second + d)],
        "report": {"cases": [{"elapsed_ms": 1000.0}, {"elapsed_ms": 2000.0}]},
    }


def test_serial_times_scale_setup_cases_and_rest():
    rec = serial_record()
    setup, cases, rest = run.serial_times(rec, 0.0)
    assert setup == pytest.approx((0.05 + 0.2) / 2)
    assert cases == pytest.approx([0.5, 1.0])
    assert rest == pytest.approx(0.05)
    assert run.raw_wall(rec, 0.0) == pytest.approx(0.05 + 0.2 + 3.1)


def test_jobs2_wall_is_scaled_by_the_speed_of_the_workers():
    rec = serial_record()
    # both cases ran in a worker at reference speed; the coordinator was
    # at half speed, which does not matter for the pool's wall time
    rec["probes"] += [(2, rec["first_case"] + 0.001, REF), (2, rec["end"] - 0.001, REF)]
    rec["case_stamps"] = [(2, t) for _, t in rec["case_stamps"]]
    wall, scaled = run.jobs2_wall(rec, 0.0)
    assert wall == pytest.approx(rec["end"] - 3 * 2 * REF - 2 * 2 * REF)
    assert scaled == pytest.approx(wall)


def test_harrell_davis_median():
    assert run.harrell_davis_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert run.harrell_davis_median([4.0] * 9) == pytest.approx(4.0)
    # a gap at the middle: the estimate sits in it, and moving one case
    # next to the gap moves it far less than it moves the plain median
    gap = [1.0] * 60 + [100.0] * 60
    assert run.harrell_davis_median(gap) == pytest.approx(50.5)
    moved = [1.0] * 59 + [30.0] + [100.0] * 60
    plain_shift = statistics.median(moved) - statistics.median(gap)
    hd_shift = run.harrell_davis_median(moved) - run.harrell_davis_median(gap)
    assert 0 < hd_shift < plain_shift / 4
    assert math.isfinite(run.harrell_davis_median([0.5] * 3000))

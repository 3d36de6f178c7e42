"""The host probe and the division of latencies by host slowness."""

import pytest

import host


def test_reference_kernel_is_the_pinned_workload():
    # The kernel defines the nominal host speed; editing it moves every
    # normalised metric, so its result is pinned.
    assert host.reference_kernel(1) == 6622.0
    assert host.reference_kernel(host.SLICE_ROUNDS) == 6622.0 * host.SLICE_ROUNDS


def test_slowness_is_the_median_of_the_nearest_window():
    samples = [(float(t), s) for t, s in enumerate([1.0, 1.0, 5.0, 2.0, 2.0, 2.0, 9.0])]
    assert host.slowness_at(samples, 1.0, window=3) == 1.0
    assert host.slowness_at(samples, 4.2, window=3) == 2.0
    # Clamped at both ends, and every sample when there are fewer.
    assert host.slowness_at(samples, -5.0, window=3) == 1.0
    assert host.slowness_at(samples, 50.0, window=3) == 2.0
    assert host.slowness_at(samples[:2], 0.0, window=9) == 1.0
    with pytest.raises(ValueError):
        host.slowness_at([], 0.0)


def test_normalise_divides_each_latency_by_the_slowness_around_it():
    samples = [(float(t), 1.0) for t in range(9)] + [(100.0 + t, 2.0) for t in range(9)]
    got = host.normalise(samples, [(0.0, 0.5), (104.0, 1.0)])
    assert got == pytest.approx([0.5, 0.5])
    assert host.normalise(samples, []) == []


def test_probe_records_positive_slowness_in_time_order():
    probe = host.HostProbe()
    values = [probe.sample() for _ in range(3)]
    samples = probe.samples()
    assert [s for _, s in samples] == values
    assert all(value > 0 for value in values)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)

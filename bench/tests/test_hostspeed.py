"""Reference-time arithmetic of hostspeed.HostSpeed."""

import numpy as np
import pytest

from hostspeed import REF_TICK_S, WINDOW_S, HostSpeed


def host_with(mids, durs, exponent=1.0):
    h = HostSpeed(exponent=exponent)
    h.mids, h.durs = list(mids), list(durs)
    return h


def test_steady_host_scales_wall_time_by_its_speed():
    h = host_with(np.arange(0.0, 10.0, 0.1), [2 * REF_TICK_S] * 100)
    assert h.reference_s(1.0, 3.0) == pytest.approx(1.0)
    assert h.reference_s([0.05, 9.0], [0.15, 12.0]) == pytest.approx([0.05, 1.5])


def test_speed_change_is_integrated_over_the_span():
    # twice as slow from t = 5 on; the windowed median switches at t = 5
    mids = np.arange(0.0, 10.0, 0.01)
    h = host_with(mids, np.where(mids < 5.0, REF_TICK_S, 2 * REF_TICK_S))
    assert h.reference_s(4.0, 6.0) == pytest.approx(1.0 + 0.5, abs=0.02)
    assert h.reference_s(0.0, 4.0) == pytest.approx(4.0)


def test_windowed_median_ignores_a_lone_slow_tick():
    mids = np.arange(0.0, 2.0, 0.1)
    durs = np.full(mids.size, REF_TICK_S)
    durs[10] = 10 * REF_TICK_S
    assert np.allclose(host_with(mids, durs).speeds(), 1.0)
    assert WINDOW_S >= 0.1


def test_exponent_and_disabled_host():
    h = host_with([0.0, 1.0], [4 * REF_TICK_S] * 2, exponent=0.5)
    assert h.reference_s(0.0, 2.0) == pytest.approx(1.0)
    off = HostSpeed(enabled=False)
    off.tick()
    assert off.durs == [] and off.reference_s(1.0, 3.5) == pytest.approx(2.5)


def test_ticks_record_and_count_their_time():
    h = HostSpeed()
    h.tick(3)
    assert len(h.durs) == 3 and h.spent >= sum(h.durs) > 0

"""The machine-speed scaling of the end-to-end times."""
import calibrate


def test_scale_is_relative_to_the_median_probe_time():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale(2.0, [ref], 1.0) == 2.0
    assert calibrate.scale(2.0, [ref / 2, ref * 4, ref * 4], 1.0) == 0.5
    assert calibrate.scale(2.0, [ref * 4], 0.5) == 1.0
    assert calibrate.scale(2.0, [ref * 4], 0.0) == 2.0


def test_timer_returns_the_result_and_probes_after_each_op():
    timer = calibrate.Timer()
    seconds, result = timer.time(lambda: 42)
    assert result == 42 and seconds >= 0
    timer.time(lambda: None)
    assert len(timer.probes) == 2

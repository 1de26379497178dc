"""Unit tests for the Timer."""

import time

from repro.obs.timers import Timer


class TestTimer:
    def test_records_elapsed(self):
        timer = Timer("t")
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        assert timer.calls == 1

    def test_accumulates(self):
        timer = Timer()
        for _ in range(3):
            with timer:
                pass
        assert timer.calls == 3

    def test_running_flag(self):
        timer = Timer()
        assert not timer.running
        with timer:
            assert timer.running
        assert not timer.running

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0
        assert timer.calls == 0

    def test_repr(self):
        assert "timer" in repr(Timer())
        assert "select" in repr(Timer("select"))

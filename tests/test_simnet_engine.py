"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.simnet.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "latest")
    sim.run()
    assert out == ["early", "late", "latest"]


def test_ties_run_in_scheduling_order():
    sim = Simulator()
    out = []
    for i in range(5):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(5.0, out.append, "b")
    sim.run(until=2.0)
    assert out == ["a"]
    assert sim.now == 2.0  # time advanced to the horizon
    sim.run()
    assert out == ["a", "b"]


def test_cancelled_events_are_skipped():
    sim = Simulator()
    out = []
    event = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    event.cancel()
    sim.run()
    assert out == ["kept"]


def test_cannot_schedule_into_the_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limit():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(float(i), out.append, i)
    sim.run(max_events=4)
    assert out == [0, 1, 2, 3]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 3


def test_at_batch_matches_sequential_at():
    from repro.simnet.engine import Simulator

    tasks = [(0.5, "a"), (0.1, "b"), (0.5, "c"), (0.0, "d"), (0.3, "e")]
    seq_out, batch_out = [], []
    seq_sim = Simulator()
    for t, label in tasks:
        seq_sim.at(t, seq_out.append, label)
    seq_sim.run()

    batch_sim = Simulator()
    batch_sim.at_batch([(t, batch_out.append, (label,)) for t, label in tasks])
    batch_sim.run()
    assert batch_out == seq_out  # including the 0.5 tie broken by order


def test_schedule_batch_relative_delays():
    from repro.simnet.engine import Simulator

    sim = Simulator(start_time=10.0)
    out = []
    events = sim.schedule_batch([(1.0, out.append, ("x",)), (0.5, out.append, ("y",))])
    assert len(events) == 2
    events[0].cancel()
    sim.run()
    assert out == ["y"]


def test_at_batch_validates_before_mutating():
    from repro.simnet.engine import Simulator

    sim = Simulator(start_time=5.0)
    sim.at(6.0, lambda: None)
    with pytest.raises(ValueError):
        sim.at_batch([(7.0, lambda: None, ()), (1.0, lambda: None, ())])
    assert sim.pending == 1  # bad batch left the heap untouched

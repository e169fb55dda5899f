"""Tests for the discrete-event loop."""

import pytest

from repro.sim import Event, SimulationError, Simulator, Timeout


def test_initial_time_is_zero(sim):
    assert sim.now == 0


def test_timeout_advances_clock(sim):
    sim.timeout(10)
    sim.run()
    assert sim.now == 10


def test_events_fire_in_time_order(sim):
    order = []
    for delay in [30, 10, 20]:
        ev = Event(sim)
        ev.add_callback(lambda e, d=delay: order.append(d))
        sim.schedule(ev, delay)
        ev._value = None  # pre-trigger manually for bare scheduling
    sim.run()
    assert order == [10, 20, 30]


def test_ties_broken_by_schedule_order(sim):
    order = []

    def proc(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(Event(sim), -1)


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError, match="negative timeout"):
        sim.timeout(-5)


def test_run_until_is_exclusive(sim):
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10)
    assert fired == []
    assert sim.now == 10
    sim.run()
    assert fired == [10]


def test_run_until_clamps_time_forward(sim):
    sim.run(until=42)
    assert sim.now == 42


def test_step_on_empty_queue_raises(sim):
    with pytest.raises(SimulationError, match="empty"):
        sim.step()


def test_peek_returns_next_event_time(sim):
    sim.timeout(7)
    sim.timeout(3)
    assert sim.peek() == 3


def test_peek_empty_is_inf(sim):
    assert sim.peek() == float("inf")


def test_event_count_increments(sim):
    for _ in range(5):
        sim.timeout(1)
    sim.run()
    assert sim.event_count == 5


def test_run_process_returns_value(sim):
    def proc():
        yield sim.timeout(1)
        return 99

    assert sim.run_process(proc()) == 99


def test_run_process_detects_deadlock(sim):
    def proc():
        yield Event(sim)  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc())


def test_run_not_reentrant(sim):
    def proc():
        with pytest.raises(SimulationError, match="not reentrant"):
            sim.run()
        yield sim.timeout(1)

    sim.process(proc())
    sim.run()


def test_zero_delay_events_run_before_time_advances(sim):
    order = []

    def proc():
        yield sim.timeout(0)
        order.append(("zero", sim.now))
        yield sim.timeout(5)
        order.append(("five", sim.now))

    sim.process(proc())
    sim.run()
    assert order == [("zero", 0), ("five", 5)]


def test_simultaneous_heavy_load_is_deterministic():
    def build():
        s = Simulator()
        log = []

        def proc(i):
            for _ in range(10):
                yield s.timeout(1)
                log.append(i)

        for i in range(20):
            s.process(proc(i))
        s.run()
        return log

    assert build() == build()


def test_fractional_delays(sim):
    times = []

    def proc():
        yield sim.timeout(0.5)
        times.append(sim.now)
        yield sim.timeout(0.25)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0.5, 0.75]


def test_epoch_processes_strictly_fewer_events():
    """A multi-chunk exchange on the epoch kernel skips the oracle's
    per-chunk event storm: the kernel must process strictly fewer events
    while producing the identical simulated clock."""
    import numpy as np

    from repro.machine.config import MachineConfig
    from repro.qsmlib.config import SoftwareConfig
    from repro.qsmlib.program import QSMMachine, RunConfig

    def exchange(ctx, A):
        # ~5 chunks per destination at the default 16 KiB chunk size.
        n_words = 12000
        values = np.arange(n_words, dtype=np.int64)
        dst = (ctx.pid + 1) % ctx.p
        ctx.put_range(A, dst * n_words, values)
        yield ctx.sync()

    def run(sync_path):
        qm = QSMMachine(
            RunConfig(
                machine=MachineConfig(p=4),
                software=SoftwareConfig(sync_path=sync_path),
                check_semantics=False,
            )
        )
        A = qm.allocate("a", 4 * 12000)
        qm.run(exchange, A=A)
        return qm.machine.sim.event_count, qm.machine.sim.now

    epoch_events, epoch_now = run("epoch")
    slow_events, slow_now = run("slow")
    assert epoch_now == slow_now  # identical simulated time
    assert epoch_events < slow_events  # strictly less kernel work

"""The stage machine against generator processes on the same kernel.

A :class:`~repro.membank.stages.Walker` must push the same queue
entries, in the same order, as a generator process that yields a
``Timeout`` per delay and a ``Request`` plus ``Timeout`` per served
stage.  Random paths with small integer times (so same-instant ties are
common) must therefore give identical access logs, event counts and
server busy time.
"""

import random

import pytest

from repro.membank.stages import Server, Walker, delay, serve
from repro.sim import Resource, Simulator
from repro.sim.monitor import TimeWeightedStat


def _random_case(rng: random.Random):
    n_servers = rng.randint(1, 4)
    capacities = [rng.randint(1, 3) for _ in range(n_servers)]
    routes = []
    for _ in range(rng.randint(2, 5)):
        route = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.4:
                route.append((None, rng.randint(0, 3)))
            else:
                route.append((rng.randrange(n_servers), rng.randint(0, 4)))
        routes.append(route)
    p = rng.randint(1, 6)
    plans = [[rng.randrange(len(routes)) for _ in range(rng.randint(1, 8))] for _ in range(p)]
    return capacities, routes, plans


def _run_walkers(capacities, routes, plans):
    sim = Simulator()
    servers = [Server(c, busy=TimeWeightedStat(sim)) for c in capacities]
    paths = [
        tuple(delay(c) if s is None else serve(servers[s], c) for s, c in route)
        for route in routes
    ]
    log = []

    def on_begin(pid, k):
        log.append(("begin", pid, k, sim.now))

    def on_end(pid, k, t0):
        log.append(("end", pid, k, t0, sim.now))

    for pid, plan in enumerate(plans):
        Walker(sim, pid, [paths[r] for r in plan], on_begin, on_end)
    sim.run()
    busy = [s.busy.time_average() for s in servers]
    return log, sim.event_count, sim.now, busy


def _run_processes(capacities, routes, plans):
    sim = Simulator()
    servers = [Resource(sim, capacity=c) for c in capacities]
    log = []

    def proc(pid, plan):
        for k, r in enumerate(plan):
            t0 = sim.now
            log.append(("begin", pid, k, t0))
            for s, c in routes[r]:
                if s is None:
                    yield sim.timeout(c)
                else:
                    yield from servers[s].serve(c)
            log.append(("end", pid, k, t0, sim.now))

    for pid, plan in enumerate(plans):
        sim.process(proc(pid, plan))
    sim.run()
    busy = [s.busy_stat.time_average() for s in servers]
    return log, sim.event_count, sim.now, busy


@pytest.mark.parametrize("seed", range(40))
def test_walkers_match_generator_processes(seed):
    case = _random_case(random.Random(seed))
    assert _run_walkers(*case) == _run_processes(*case)


def test_note_runs_as_its_delay_starts():
    sim = Simulator()
    bank = Server()
    seen = []
    path = (serve(bank, 5.0), delay(2.0, lambda: seen.append(sim.now)), delay(1.0))
    Walker(sim, 0, [path, path])
    sim.run()
    assert seen == [5.0, 13.0]
    assert sim.now == 16.0


def test_server_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Server(capacity=0)

"""Memory banks as FCFS servers."""

from __future__ import annotations

from typing import List

from repro.membank.stages import Server, Stage, serve
from repro.sim import Simulator
from repro.sim.monitor import TimeWeightedStat


class BankArray:
    """An array of memory banks, each a single-ported FCFS server.

    ``service_cycles`` is the bank-busy time per access (row activate +
    column access + precharge for DRAM of the era).  Queue-wait is where
    contention shows up.
    """

    def __init__(self, sim: Simulator, n_banks: int, service_cycles: float) -> None:
        if n_banks < 1:
            raise ValueError(f"need at least one bank, got {n_banks}")
        if service_cycles <= 0:
            raise ValueError(f"service time must be positive, got {service_cycles}")
        self.n_banks = n_banks
        self.service_cycles = service_cycles
        self.banks: List[Server] = [Server(busy=TimeWeightedStat(sim)) for _ in range(n_banks)]

    def stage(self, bank: int) -> Stage:
        """The stage that holds *bank* for one service."""
        if not 0 <= bank < self.n_banks:
            raise ValueError(f"bank {bank} out of range (0..{self.n_banks - 1})")
        return serve(self.banks[bank], self.service_cycles)

    def utilization(self, bank: int) -> float:
        """Time-averaged busy fraction of *bank*."""
        return self.banks[bank].busy.time_average()

"""Superscalar operation-profile cost model (the Armadillo substitute).

The paper measures algorithm running time on Armadillo, a cycle-level
out-of-order processor simulator configured per Table 2.  We replace
instruction-level simulation with an *operation-profile* model: an
algorithm phase describes itself as counts of integer ops, FP ops,
loads/stores (with access-pattern descriptors) and branches, and the
model converts that to cycles using Table 2's resources:

* issue is limited to 4 instructions/cycle,
* each functional-unit class has its own throughput bound
  (4 int / 4 FP / 2 load-store per cycle),
* loads and stores stall per the two-level cache model,
* a small fraction of branches mispredict and pay a flush penalty.

Out-of-order execution is modelled by taking the *max* of the
throughput bounds (the window is large enough to overlap independent
work) and adding only the non-overlappable memory and branch stalls.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.machine.cache import AnalyticCache, MemoryAccess
from repro.machine.config import NodeConfig


@dataclass(frozen=True)
class OpProfile:
    """An abstract description of a chunk of local computation.

    ``mem`` lists access-pattern descriptors covering the loads/stores;
    ``loads``/``stores`` that exceed the references described in ``mem``
    are charged as L1 hits (register-blocked traffic).
    """

    int_ops: float = 0.0
    fp_ops: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    branches: float = 0.0
    mem: Tuple[MemoryAccess, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("int_ops", "fp_ops", "loads", "stores", "branches"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total_instructions(self) -> float:
        return self.int_ops + self.fp_ops + self.loads + self.stores + self.branches

    def __add__(self, other: "OpProfile") -> "OpProfile":
        if not isinstance(other, OpProfile):
            return NotImplemented
        return OpProfile(
            int_ops=self.int_ops + other.int_ops,
            fp_ops=self.fp_ops + other.fp_ops,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            branches=self.branches + other.branches,
            mem=self.mem + other.mem,
        )

    def scaled(self, k: float) -> "OpProfile":
        """The profile repeated *k* times (patterns keep their shape)."""
        if k < 0:
            raise ValueError("scale factor must be >= 0")
        return OpProfile(
            int_ops=self.int_ops * k,
            fp_ops=self.fp_ops * k,
            loads=self.loads * k,
            stores=self.stores * k,
            branches=self.branches * k,
            mem=tuple(replace(m, count=int(m.count * k)) for m in self.mem),
        )


#: Most profiles a node's cycles() memo keeps.  Every sweep input
#: charges profiles of its own sizes, so an unbounded memo grows with
#: the number of runs a process makes; a run's profiles are reused
#: within the run, which this comfortably holds.
MEMO_CAP = 4096


class CPUModel:
    """Convert :class:`OpProfile` chunks to cycle counts for one node."""

    #: cycles() memos, one per distinct (frozen) node config — shared
    #: across CPUModel instances so the p per-node models of a machine,
    #: fresh machines built for every sweep point, and the predictors'
    #: cost sources all hit the same cache.  Each holds at most
    #: :data:`MEMO_CAP` entries, evicting the oldest first.
    _shared_memos: Dict[NodeConfig, "OrderedDict[OpProfile, float]"] = {}

    def __init__(self, node: NodeConfig) -> None:
        self.node = node
        self.cache = AnalyticCache(node)
        # cycles() is a pure function of the (frozen) profile and the
        # immutable node config; memoised because SPMD programs charge
        # the same profile once per processor every phase.
        self._cycles_memo = CPUModel._shared_memos.setdefault(node, OrderedDict())

    def cycles(self, profile: OpProfile) -> float:
        """Expected execution cycles for *profile* on this node."""
        memo = self._cycles_memo
        cached = memo.get(profile)
        if cached is not None:
            return cached
        node = self.node
        issue_bound = profile.total_instructions / node.issue_width
        int_bound = profile.int_ops * node.fu_latency / node.int_units
        fp_bound = profile.fp_ops * node.fu_latency / node.fp_units
        ls_bound = (profile.loads + profile.stores) / node.ls_units
        throughput = max(issue_bound, int_bound, fp_bound, ls_bound)

        mem_stall = sum(self.cache.stall_cycles(m) for m in profile.mem)
        branch_stall = (
            profile.branches * node.branch_mispredict_rate * node.branch_mispredict_penalty
        )
        result = throughput + mem_stall + branch_stall
        memo[profile] = result
        if len(memo) > MEMO_CAP:
            memo.popitem(last=False)
        return result

    def copy_cycles(self, nbytes: float, resident: bool = False) -> float:
        """Cycles to memcpy *nbytes* (used by the qsmlib software model)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return nbytes * self.cache.copy_cycles_per_byte(resident=resident)

"""Bulk-synchronous shared-memory library (the paper's QSM runtime).

The shared-memory interface of §3.1.2: remote memory is accessed with
explicit ``get()``/``put()`` calls that merely enqueue requests; all
communication happens inside ``sync()``, which builds and distributes a
communication plan, exchanges data in a contention-avoiding order, and
closes with a tree barrier.  Programs are SPMD generators driven by
:class:`~repro.qsmlib.program.QSMMachine`.

Quick example::

    from repro.qsmlib import QSMMachine, RunConfig

    def program(ctx, A):
        me = ctx.local(A)                       # node-local view
        ctx.put(A.array if hasattr(A, "array") else A, [0], [ctx.pid])
        yield ctx.sync()

    qm = QSMMachine(RunConfig())
    A = qm.allocate("A", 1024)
    result = qm.run(program, A=A)
    print(result.summary())
"""

from repro.qsmlib.address_space import AddressSpace, SharedArray
from repro.qsmlib.collective_patterns import AllShareBoard, scatter_from_root, ship_block_to
from repro.qsmlib.config import SoftwareConfig
from repro.qsmlib.context import QSMContext, SharedArrayRef, SyncToken
from repro.qsmlib.costmodel import CommCostModel
from repro.qsmlib.layout import HASH_BLOCK_WORDS, Layout, LayoutMap
from repro.qsmlib.plan import (
    PhaseTraffic,
    QSMSemanticsError,
    apply_phase_semantics,
    build_traffic,
    check_phase_semantics,
    compute_kappa,
)
from repro.qsmlib.program import (
    QSMMachine,
    Recording,
    RunConfig,
    SPMDError,
    cost_model_for,
    host_key,
    run_program,
)
from repro.qsmlib.requests import GetHandle, RequestQueue
from repro.qsmlib.runtime import PhaseTiming, SyncEngine
from repro.qsmlib.stats import PhaseRecord, RunResult

__all__ = [
    "AddressSpace",
    "SharedArray",
    "SoftwareConfig",
    "AllShareBoard",
    "scatter_from_root",
    "ship_block_to",
    "QSMContext",
    "SharedArrayRef",
    "SyncToken",
    "CommCostModel",
    "Layout",
    "LayoutMap",
    "HASH_BLOCK_WORDS",
    "PhaseTraffic",
    "QSMSemanticsError",
    "apply_phase_semantics",
    "build_traffic",
    "check_phase_semantics",
    "compute_kappa",
    "QSMMachine",
    "Recording",
    "RunConfig",
    "SPMDError",
    "cost_model_for",
    "host_key",
    "run_program",
    "GetHandle",
    "RequestQueue",
    "PhaseTiming",
    "SyncEngine",
    "PhaseRecord",
    "RunResult",
]

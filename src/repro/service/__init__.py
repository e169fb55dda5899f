"""``repro.service`` — sweep-as-a-service batch front-end.

An asyncio server (:class:`~repro.service.server.SweepService`) that
accepts sweep requests over a local NDJSON-over-TCP endpoint, backs
them with the content-addressed result store (:mod:`repro.store`), and
streams per-point progress and the final experiment payload back to
the client.  A second identical submission — same experiment, seed,
grid and model set, any job count — answers entirely from cache,
executing zero simulator points.

The hardened (protocol v2) service is built for real multi-user
traffic: admitted requests run concurrently in forked runner processes,
one long-lived runner per worker slot, reset before every request
(:mod:`repro.service.runner`), behind an admission controller
(:mod:`repro.service.admission` — token auth, bounded queue,
per-client quotas), every state transition lands in a durable request
journal (:mod:`repro.service.journal`) so a crashed server replays
interrupted work on restart, and ``drain``/``health``/``ready`` give
operators a graceful way in and out.

The CLI front doors are ``python -m repro.experiments.cli serve`` /
``submit`` / ``service`` / ``cache``; :mod:`repro.service.client` is
the blocking client they use.  See docs/SERVICE.md.
"""

from __future__ import annotations

from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.service.client import (
    ServiceError,
    drain,
    health,
    ping,
    ready,
    shutdown,
    stats,
    submit,
    wait_ready,
)
from repro.service.journal import RequestJournal
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ERROR_CODES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    SweepRequest,
)
from repro.service.server import SweepService

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "AdmissionController",
    "AdmissionPolicy",
    "RequestJournal",
    "ServiceError",
    "SweepRequest",
    "SweepService",
    "TokenBucket",
    "drain",
    "health",
    "ping",
    "ready",
    "shutdown",
    "stats",
    "submit",
    "wait_ready",
]

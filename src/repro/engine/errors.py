"""Shared error shaping for the serving tiers (JSONL loop and HTTP).

Both front-ends answer failures with the same machine-readable record::

    {"error": {"type": "<kind>", "status": <http status>, "message": ...},
     "id": <request id, when known>}

:func:`classify_error` maps an exception to the (HTTP status, kind)
pair; the JSONL ``serve`` loop embeds the payload per line (the stream
never dies on one bad request), while the HTTP tier additionally uses
the status as the response code — so a client sees the identical error
body whether it arrived over a socket or a pipe.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Mapping, Optional, Tuple

from ..core.connection_index import StaleIndexError

__all__ = [
    "Refusal",
    "ShardUnavailableError",
    "classify_error",
    "error_message",
    "error_payload",
]


class ShardUnavailableError(RuntimeError):
    """A sharded-executor worker process died (or is respawning) while
    holding this request.

    The router answers the affected in-flight requests with this error —
    shaped as a structured 503, so clients retry against the (respawned)
    shard or another replica — and forks a replacement worker.  Defined
    here rather than in :mod:`repro.engine.sharded` so the error shaping
    has no import cycle with the router.
    """


class Refusal(Exception):
    """A request the serving tier declines on its own account.

    The server raises (or returns) one of these instead of hand-building
    an error dict, so every refusal is shaped by :func:`error_payload`
    like any other failure.  The refusals the HTTP tier issues:

    ======  =====================  =============================================
    status  kind                   when
    ======  =====================  =============================================
    405     ``method_not_allowed`` wrong method for the endpoint (``allow``)
    413     ``batch_too_large``    a batch larger than the whole admission queue
    429     ``overloaded``         the admission queue is full (``retry-after``)
    503     ``draining``           the server is draining (``connection: close``)
    ======  =====================  =============================================

    *headers* are extra response headers the refusal carries.
    """

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.headers: Dict[str, str] = dict(headers or {})


def classify_error(exc: BaseException) -> Tuple[int, str]:
    """(HTTP status, machine-readable kind) for a serving failure.

    * malformed request (bad JSON, unknown fields, wrong shapes) → 400;
    * unknown seeker / entity (the kernel raises ``KeyError``) → 404;
    * stale persisted index slabs → 503 (the operator must re-index or
      opt into ``--rebuild-stale-index``);
    * a crashed / respawning shard worker → 503 (retryable: the router
      respawns the worker; a load balancer retries elsewhere meanwhile);
    * an expired per-request deadline → 504;
    * a :class:`Refusal` → its own status and kind;
    * anything else → 500.
    """
    if isinstance(exc, Refusal):
        return exc.status, exc.kind
    if isinstance(exc, StaleIndexError):
        return 503, "stale_index"
    if isinstance(exc, ShardUnavailableError):
        return 503, "shard_unavailable"
    if isinstance(exc, asyncio.TimeoutError):
        return 504, "deadline_exceeded"
    if isinstance(exc, KeyError):
        return 404, "not_found"
    if isinstance(exc, (TypeError, ValueError)):
        # json.JSONDecodeError subclasses ValueError: one arm covers the
        # parse failure and the QueryRequest shape errors alike.
        return 400, "bad_request"
    return 500, "internal"


def error_message(exc: BaseException) -> str:
    """A human-readable one-liner (``str(KeyError)`` keeps its quotes,
    which reads badly in a JSON error body)."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc) or type(exc).__name__


def error_payload(
    exc: BaseException, request_id: Optional[object] = None
) -> Dict[str, object]:
    """The shared error record for one failed request."""
    status, kind = classify_error(exc)
    payload: Dict[str, object] = {
        "error": {"type": kind, "status": status, "message": error_message(exc)}
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload

"""The planning application: frame dispatch + a thin ASGI interface.

:class:`PlanningApp` is transport-neutral.  Its core is
:meth:`~PlanningApp.dispatch_raw`: one request frame in, one response
frame out (see :mod:`repro.service.protocol`).  Around that core it
implements the ASGI 3 callable shape — ``await app(scope, receive,
send)`` for ``http`` and ``websocket`` scopes — so the bundled
:mod:`repro.service.server` *and* any external ASGI server (uvicorn,
hypercorn) can host it unchanged.  No ASGI framework is imported;
the callable is ~everything the spec requires for this protocol.

Blocking platform work never runs on the event loop: writes are ordered
through each tenant's single-writer worker
(:meth:`repro.service.tenants.Tenant.run_write`), reads hop onto the
default executor (the platform's own locks make them consistent).

HTTP surface::

    GET  /healthz      liveness + tenant count (no protocol envelope)
    GET  /v1/tenants   alias for the "tenants" action
    POST /v1/rpc       one protocol frame per request body
    WS   /v1/stream    one protocol frame per message, pipelined

Errors map to HTTP statuses via :data:`repro.service.protocol
.HTTP_STATUS`; over WebSocket the envelope's ``ok``/``error`` fields
carry the same information.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

from repro.obs import get_recorder
from repro.scale.batched import BatchResult
from repro.service.protocol import (
    E_ALREADY_PUBLISHED,
    E_BAD_REQUEST,
    E_INTERNAL,
    E_NOT_FOUND,
    E_NOT_PUBLISHED,
    E_SHUTTING_DOWN,
    E_UNKNOWN_ACTION,
    ProtocolError,
    decode_operations,
    encode_operations,
    error_frame,
    ok_frame,
    parse_frame,
    require,
)
from repro.service.tenants import Tenant, TenantManager, TenantSpec


def _best_effort_id(raw: str | bytes) -> Any:
    """Salvage the request id from a frame that failed validation.

    A version-mismatch or bad-frame error should still echo the id when
    the envelope was at least parseable JSON, so pipelined clients can
    correlate the refusal.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        frame = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(frame, dict):
        identifier = frame.get("id")
        if isinstance(identifier, (str, int, float)) or identifier is None:
            return identifier
    return None


class PlanningApp:
    """Dispatches protocol frames against a :class:`TenantManager`."""

    def __init__(self, manager: TenantManager) -> None:
        self.manager = manager
        self._obs = get_recorder()
        self._actions: dict[
            str, Callable[[dict[str, Any]], Awaitable[dict[str, Any]]]
        ] = {
            "ping": self._do_ping,
            "tenants": self._do_tenants,
            "create": self._do_create,
            "publish": self._do_publish,
            "submit": self._do_submit,
            "plan": self._do_plan,
            "attendees": self._do_attendees,
            "summary": self._do_summary,
            "plan-summary": self._do_plan_summary,
            "oplog": self._do_oplog,
        }

    # ------------------------------------------------------------------ #
    # Frame dispatch (transport-neutral core)
    # ------------------------------------------------------------------ #

    async def dispatch_raw(
        self, raw: str | bytes
    ) -> tuple[dict[str, Any], int]:
        """One frame in, ``(response_frame, http_status)`` out.

        Every refusal is a structured error with tenant state provably
        untouched: validation (parse, version, action, tenant lookup,
        operation decode) all happens before anything reaches a worker.
        """
        frame_id: Any = None
        self._obs.count("service.frames")
        try:
            frame = parse_frame(raw)
            frame_id = frame.get("id")
            action = require(frame, "action", str)
            handler = self._actions.get(action)
            if handler is None:
                raise ProtocolError(
                    E_UNKNOWN_ACTION, f"unknown action {action!r}"
                )
            with self._obs.span(f"service.dispatch.{action}"):
                result = await handler(frame)
            return ok_frame(frame_id, result), 200
        except ProtocolError as err:
            if frame_id is None:
                frame_id = _best_effort_id(raw)
            self._obs.count("service.errors")
            self._obs.count(f"service.errors.{err.code}")
            return error_frame(frame_id, err), err.http_status
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A handler bug must not kill the connection loop; surface
            # it as a structured internal error and count it loudly.
            self._obs.count("service.errors")
            self._obs.count("service.errors.internal")
            err = ProtocolError(
                E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            return error_frame(frame_id, err), err.http_status

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    async def _tenant(self, frame: dict[str, Any]) -> Tenant:
        # The registry lookup takes the manager's lock — an executor hop
        # keeps that (briefly) blocking wait off the event loop (RL009).
        name = require(frame, "tenant", str)
        return await self._read(lambda: self.manager.get(name))

    async def _published_tenant(self, frame: dict[str, Any]) -> Tenant:
        tenant = await self._tenant(frame)
        if not tenant.published:
            # EBSNPlatform.submit raises RuntimeError pre-publish, which
            # is *not* in its rejection contract — refuse at the
            # protocol layer so nothing touches the WAL.
            raise ProtocolError(
                E_NOT_PUBLISHED,
                f"tenant {tenant.name!r} has not published plans yet",
            )
        return tenant

    async def _read(self, fn: Callable[[], Any]) -> Any:
        return await asyncio.get_running_loop().run_in_executor(None, fn)

    async def _do_ping(self, frame: dict[str, Any]) -> dict[str, Any]:
        count = await self._read(lambda: len(self.manager))
        return {"pong": True, "tenants": count}

    async def _do_tenants(self, frame: dict[str, Any]) -> dict[str, Any]:
        return {"tenants": await self._read(self.manager.describe_all)}

    async def _do_create(self, frame: dict[str, Any]) -> dict[str, Any]:
        spec = TenantSpec.from_dict(require(frame, "spec", dict))
        tenant = await self._read(lambda: self.manager.create(spec))
        tenant.start()
        return {"tenant": tenant.describe()}

    async def _do_publish(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = await self._tenant(frame)
        if tenant.published:
            raise ProtocolError(
                E_ALREADY_PUBLISHED,
                f"tenant {tenant.name!r} already published its plans",
            )
        if await self._read(lambda: self.manager.closing):
            raise ProtocolError(
                E_SHUTTING_DOWN, "service is shutting down"
            )
        utility = await tenant.run_write(tenant.platform.publish_plans)
        return {"utility": utility, "seq": tenant.seq}

    async def _do_submit(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = await self._published_tenant(frame)
        if await self._read(lambda: self.manager.closing):
            raise ProtocolError(
                E_SHUTTING_DOWN, "service is shutting down"
            )
        operations = decode_operations(frame.get("ops"))
        obs = self._obs

        def apply() -> BatchResult:
            with obs.span("service.apply"):
                for operation in operations:
                    tenant.platform.enqueue(operation)
                with obs.span("service.flush"):
                    return tenant.platform.flush()

        result = await tenant.run_write(apply)
        obs.count("service.submitted", len(operations))
        obs.count("service.rejected", len(result.rejected))
        return {
            "applied": len(result.applied),
            "folded": result.folded,
            "rejected": [
                {"op": encode_operations([op])[0], "reason": reason}
                for op, reason in result.rejected
            ],
            "utility": result.utility,
            "violations": result.violations,
            "seq": tenant.seq,
        }

    async def _do_plan(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = await self._published_tenant(frame)
        user = require(frame, "user", int)
        if not 0 <= user < tenant.platform.instance.n_users:
            raise ProtocolError(
                E_NOT_FOUND, f"tenant {tenant.name!r} has no user {user}"
            )
        events = await self._read(lambda: tenant.platform.plan_for(user))
        return {"user": user, "events": events}

    async def _do_attendees(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = await self._published_tenant(frame)
        event = require(frame, "event", int)
        if not 0 <= event < tenant.platform.instance.n_events:
            raise ProtocolError(
                E_NOT_FOUND,
                f"tenant {tenant.name!r} has no event {event}",
            )
        users = await self._read(lambda: tenant.platform.attendees_of(event))
        return {"event": event, "users": users}

    async def _do_summary(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = await self._published_tenant(frame)
        audit = await self._read(tenant.platform.snapshot)
        return {
            "audit": audit,
            "stats": tenant.platform.stats(),
            "seq": tenant.seq,
        }

    async def _do_plan_summary(
        self, frame: dict[str, Any]
    ) -> dict[str, Any]:
        tenant = await self._published_tenant(frame)
        summary = await self._read(tenant.platform.plan_summary)
        return {
            "assignments": [list(events) for events in summary.assignments],
            "seq": tenant.seq,
        }

    async def _do_oplog(self, frame: dict[str, Any]) -> dict[str, Any]:
        """The tenant's applied log — serial-replay ground truth."""
        tenant = await self._published_tenant(frame)
        operations = await self._read(
            lambda: encode_operations(tenant.platform.applied_log)
        )
        return {"ops": operations, "seq": tenant.seq}

    # ------------------------------------------------------------------ #
    # ASGI 3 interface
    # ------------------------------------------------------------------ #

    async def __call__(
        self,
        scope: dict[str, Any],
        receive: Callable[[], Awaitable[dict[str, Any]]],
        send: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        if scope["type"] == "http":
            await self._asgi_http(scope, receive, send)
        elif scope["type"] == "websocket":
            await self._asgi_websocket(scope, receive, send)
        elif scope["type"] == "lifespan":
            await self._asgi_lifespan(receive, send)
        else:  # pragma: no cover - transports we do not speak
            raise RuntimeError(f"unsupported ASGI scope {scope['type']!r}")

    async def _asgi_http(
        self,
        scope: dict[str, Any],
        receive: Callable[[], Awaitable[dict[str, Any]]],
        send: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        method, path = scope["method"], scope["path"]
        body = await _read_body(receive)
        if method == "GET" and path == "/healthz":
            health = await self._read(
                lambda: {
                    "ok": True,
                    "tenants": len(self.manager),
                    "closing": self.manager.closing,
                }
            )
            await _send_json(send, 200, health)
            return
        if method == "GET" and path == "/v1/tenants":
            response, status = await self.dispatch_raw(
                json.dumps({"v": 1, "id": None, "action": "tenants"})
            )
        elif method == "POST" and path == "/v1/rpc":
            response, status = await self.dispatch_raw(body)
        else:
            err = ProtocolError(
                E_NOT_FOUND
                if method in ("GET", "POST")
                else E_BAD_REQUEST,
                f"no route for {method} {path}",
            )
            response, status = error_frame(None, err), err.http_status
        await _send_json(send, status, response)

    async def _asgi_websocket(
        self,
        scope: dict[str, Any],
        receive: Callable[[], Awaitable[dict[str, Any]]],
        send: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:
        event = await receive()
        if event["type"] != "websocket.connect":  # pragma: no cover
            return
        if scope["path"] != "/v1/stream":
            await send({"type": "websocket.close", "code": 4404})
            return
        await send({"type": "websocket.accept"})
        self._obs.count("service.ws_connections")
        while True:
            event = await receive()
            if event["type"] == "websocket.disconnect":
                return
            raw = event.get("text")
            if raw is None:
                raw = event.get("bytes") or b""
            response, _ = await self.dispatch_raw(raw)
            await send(
                {"type": "websocket.send", "text": json.dumps(response)}
            )

    async def _asgi_lifespan(
        self,
        receive: Callable[[], Awaitable[dict[str, Any]]],
        send: Callable[[dict[str, Any]], Awaitable[None]],
    ) -> None:  # pragma: no cover - exercised only under external hosts
        while True:
            event = await receive()
            if event["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif event["type"] == "lifespan.shutdown":
                await self.manager.close_all()
                await send({"type": "lifespan.shutdown.complete"})
                return


async def _read_body(
    receive: Callable[[], Awaitable[dict[str, Any]]],
) -> bytes:
    chunks: list[bytes] = []
    while True:
        event = await receive()
        if event["type"] != "http.request":  # pragma: no cover
            return b"".join(chunks)
        chunks.append(event.get("body", b""))
        if not event.get("more_body", False):
            return b"".join(chunks)


async def _send_json(
    send: Callable[[dict[str, Any]], Awaitable[None]],
    status: int,
    payload: dict[str, Any],
) -> None:
    body = json.dumps(payload).encode("utf-8")
    await send(
        {
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode()),
            ],
        }
    )
    await send({"type": "http.response.body", "body": body})


__all__ = ["PlanningApp"]

"""The concurrent, fault-isolated classification server runtime.

:class:`ClassificationServer` replaces the serial accept loop that
``repro.smc.transport.serve_deployment`` shipped with: one listener
thread accepts connections and dispatches each one to a bounded
``ThreadPoolExecutor``, so a slow (or stuck, or malicious) client only
occupies one worker slot instead of the whole server. The design
invariants, in order of importance:

1. **Fault isolation.** Any exception inside a request handler is
   converted into a sanitized ``KIND_ERROR`` frame for that client,
   counted in ``serve.errors`` and marked on the request's telemetry
   span -- and the server keeps serving. A crashing request never
   terminates the process (pinned by ``tests/serving/test_runtime.py``).
2. **No shared mutable request state.** Each request is captured into
   an immutable :class:`~repro.serving.session.RequestSession` at
   admission (row, seed, a *copy* of the effective disclosure set) and
   gets its own context, codec and transport. Nothing on the shared
   ``DeployedClassifier`` is ever mutated.
3. **Bounded queueing with load shedding.** At most
   ``max_workers + queue_depth`` requests are admitted; beyond that the
   listener answers a ``KIND_ERROR {code: "overloaded"}`` frame
   immediately (constant-time, without reading the request) instead of
   letting connections pile up, and counts ``serve.shed``.
4. **Deadlines.** ``request_timeout_s`` bounds every blocking socket
   operation of a request (threaded through
   :class:`~repro.smc.transport.TcpTransport`); a request that exceeds
   it gets ``KIND_ERROR {code: "deadline"}`` and its socket closed.
5. **Graceful drain.** :meth:`ClassificationServer.shutdown` stops the
   accept loop; in-flight requests run to completion before
   :meth:`serve_forever` returns.

Serving telemetry: ``serve.requests`` / ``serve.errors`` (plus one
``serve.errors.<cause>`` counter per cause) / ``serve.shed`` counters,
the ``serve.queue_wait`` histogram (accept-to-handler latency), and
the ``serve.queue_depth`` / ``serve.queue_peak`` gauges. See
``docs/DEPLOYMENT.md`` for the operator view and
``docs/OBSERVABILITY.md`` for the catalogue.
"""

from __future__ import annotations

import hmac
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import repro.telemetry as telemetry
from repro.core.session import SessionConfig
from repro.crypto.engine import CryptoEngine
from repro.crypto.rand import secure_rng
from repro.secure.backends import make_protocol_backend
from repro.serving.budget import BudgetEnforcer, identity_for_context
from repro.serving.session import BadRequest, RequestSession
from repro.smc import wire
from repro.smc.transport import TcpTransport, TransportError


class ClassificationServer:
    """Concurrent server for live hybrid classification queries.

    Parameters
    ----------
    deployed:
        A :class:`repro.core.serialization.DeployedClassifier` (treated
        as read-only by every handler).
    listener:
        An already-bound, listening TCP socket. The server owns its
        lifecycle from :meth:`serve_forever` on: :meth:`shutdown`
        closes it to break the accept loop.
    config:
        A :class:`~repro.core.session.SessionConfig`; the serving
        runtime reads ``max_workers``, ``queue_depth``,
        ``request_timeout_s``, ``protocol_backend`` (built once, so a
        ``"shares"`` server shares one offline triple store across
        requests), ``ledger_path`` / ``privacy_budget`` (per-client
        cumulative privacy-budget enforcement; see
        :mod:`repro.serving.budget` and ``docs/PRIVACY.md``) and
        ``io_timeout`` (the socket deadline when ``request_timeout_s``
        is unset).
    max_connections:
        Stop accepting after this many accepted connections (shed ones
        included) and drain; ``None`` serves until :meth:`shutdown` or
        an *authorized* ``KIND_SHUTDOWN`` frame.
    shard_name:
        Optional fleet identity (e.g. ``"s0"``). Prefixes every request
        id (``s0-req-000001``) and is echoed in ``KIND_HEALTH`` replies
        so fleet clients and tests can attribute work to a shard.

    A remote ``KIND_SHUTDOWN`` frame is honored only when its body
    carries :attr:`shutdown_token` -- a per-server secret generated at
    construction (bind) time and never sent on the wire by the server
    itself. Anyone else gets a ``bad-request`` error and the server
    keeps serving; the CLI prints the token and the fleet frontend uses
    it for graceful drain.

    Example::

        listener = socket.create_server(("127.0.0.1", 0))
        server = ClassificationServer(
            deployed, listener,
            config=SessionConfig(max_workers=4, queue_depth=16),
        )
        threading.Thread(target=server.serve_forever).start()
        ...
        server.shutdown()   # stop accepting, drain in-flight requests
    """

    def __init__(
        self,
        deployed,
        listener: socket.socket,
        config: Optional[SessionConfig] = None,
        max_connections: Optional[int] = None,
        shard_name: str = "",
    ) -> None:
        self.deployed = deployed
        self.listener = listener
        self.config = config if config is not None else SessionConfig()
        self.max_connections = max_connections
        self.shard_name = str(shard_name)
        self._id_prefix = f"{self.shard_name}-" if self.shard_name else ""
        #: Per-server shutdown secret, minted at bind time from OS
        #: entropy. 128 bits rendered as hex; compared constant-time.
        self.shutdown_token = f"{secure_rng().getrandbits(128):032x}"
        # One engine, on the process-default bignum backend, shared by
        # every request context.
        self._engine = CryptoEngine()
        # One protocol backend for the whole server: per-request
        # contexts share it, so a shares backend amortizes one offline
        # triple store across every query this process answers.
        self._protocol_backend = make_protocol_backend(
            self.config.protocol_backend
        )
        # Optional per-client privacy-budget enforcement: present only
        # when config.ledger_path is set (and the bundle carries a
        # risk_model). One enforcer -> one ledger for this process.
        self._budget = BudgetEnforcer.from_config(deployed, self.config)
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._lock = threading.Lock()
        self._admitted = 0     # requests holding a worker/queue slot
        self._accepted = 0     # connections accepted (request ids)
        self._queue_peak = 0
        capacity = self.config.max_workers + self.config.queue_depth
        self._slots = threading.BoundedSemaphore(capacity)

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept-and-dispatch loop; returns after shutdown + drain.

        Runs on the calling thread (the *listener thread*); request
        handlers run on the pool. On exit -- shutdown requested, the
        listener closed under us, or ``max_connections`` reached -- the
        pool is drained: every in-flight request finishes before this
        method returns.
        """
        executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve",
        )
        # Closing a listener does not wake a blocked accept() on Linux,
        # so the loop polls: a short accept timeout bounds how long a
        # shutdown() from another thread can go unnoticed.
        self.listener.settimeout(0.1)
        try:
            while not self._stopping.is_set():
                if (
                    self.max_connections is not None
                    and self._accepted >= self.max_connections
                ):
                    break
                try:
                    sock, _ = self.listener.accept()
                except socket.timeout:
                    continue  # re-check the stop/limit conditions
                except OSError:
                    break  # listener closed (shutdown) or torn down
                with self._lock:
                    self._accepted += 1
                    request_id = f"{self._id_prefix}req-{self._accepted:06d}"
                if not self._slots.acquire(blocking=False):
                    self._shed(sock, request_id)
                    continue
                self._note_admitted(+1)
                executor.submit(
                    self._worker, sock, request_id, time.monotonic()
                )
        finally:
            self._stopping.set()
            executor.shutdown(wait=True)  # graceful drain
            if self._budget is not None:
                self._budget.close()  # after drain: no in-flight charges
            self._drained.set()

    def shutdown(self) -> None:
        """Stop accepting new connections and let in-flight requests
        finish (the drain itself happens in :meth:`serve_forever`).

        Safe to call from any thread, including a request handler (the
        ``KIND_SHUTDOWN`` frame path) -- it only signals and closes the
        listener, it never joins the pool.
        """
        self._stopping.set()
        for stopper in (
            lambda: self.listener.shutdown(socket.SHUT_RDWR),
            self.listener.close,
        ):
            try:
                stopper()
            except OSError:
                pass  # already closed, or the platform rejects the nudge

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`serve_forever` finished draining."""
        return self._drained.wait(timeout)

    # -- admission control ---------------------------------------------

    def _note_admitted(self, delta: int) -> None:
        with self._lock:
            self._admitted += delta
            depth = max(0, self._admitted - self.config.max_workers)
            self._queue_peak = max(self._queue_peak, depth)
            peak = self._queue_peak
        telemetry.gauge("serve.queue_depth", depth)
        telemetry.gauge("serve.queue_peak", peak)

    def _shed(self, sock: socket.socket, request_id: str) -> None:
        """Reject one connection beyond capacity, in bounded time.

        Runs on the listener thread: the request is never decoded, the
        error frame fits in the empty send buffer of a fresh
        connection, and every socket operation is capped at a fraction
        of a second. The half-close-and-drain before ``close`` matters:
        closing with the client's unread request bytes still in our
        receive buffer would send a TCP RST, which flushes the
        client's buffered ``KIND_ERROR`` before it can read it.
        """
        telemetry.count("serve.shed")
        try:
            sock.settimeout(0.25)
            body = wire.encode(wire.error_payload(
                "overloaded",
                "server at capacity; retry with backoff",
                request_id,
            ))
            wire.send_frame(sock, wire.KIND_ERROR, body)
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(4096):
                pass
        except OSError:
            pass  # client already gone, or slow enough to forfeit
        finally:
            sock.close()

    # -- request handling ----------------------------------------------

    def _worker(
        self, sock: socket.socket, request_id: str, accepted_at: float
    ) -> None:
        """Pool entry point: queue accounting + the isolation boundary."""
        telemetry.observe(
            "serve.queue_wait", time.monotonic() - accepted_at
        )
        try:
            with sock:
                self._handle(sock, request_id)
        except Exception:
            # The handler reports its own failures to the client; this
            # boundary only guarantees a broken socket or a bug in the
            # error path itself cannot take a pool thread down with it.
            _count_error("handler")
        finally:
            self._note_admitted(-1)
            self._slots.release()

    def _io_timeout(self) -> float:
        """Per-request socket deadline: ``request_timeout_s`` if set."""
        cfg = self.config
        if cfg.request_timeout_s is not None:
            return cfg.request_timeout_s
        return cfg.io_timeout

    def _handle(self, sock: socket.socket, request_id: str) -> None:
        """Serve one accepted connection end to end."""
        sock.settimeout(self._io_timeout())
        try:
            kind, body = wire.recv_frame(sock)
        except wire.FrameTooLarge as error:
            _count_error("frame_too_large")
            self._send_error(sock, "bad-request", str(error), request_id)
            return
        except (wire.WireError, OSError):
            return  # client vanished before sending a request
        if kind == wire.KIND_SHUTDOWN:
            if self._authorized_shutdown(body):
                self._send_health(sock, "stopping")
                self.shutdown()
            else:
                telemetry.count("serve.shutdown_denied")
                self._send_error(
                    sock, "bad-request",
                    "shutdown requires this server's shutdown token",
                    request_id,
                )
            return
        if kind == wire.KIND_HEALTH:
            self._send_health(sock, "ok", body)
            return
        if kind != wire.KIND_REQUEST:
            return
        telemetry.count("serve.requests")
        try:
            session = RequestSession.from_payload(
                request_id,
                wire.WireCodec().decode(body),
                default_disclosure=self.deployed.disclosure,
            )
        except (BadRequest, wire.WireError) as error:
            _count_error("bad_request")
            self._send_error(sock, "bad-request", str(error), request_id)
            return
        try:
            with telemetry.span(
                "serve.request", request_id=request_id
            ) as request_span:
                result = self._classify(session, sock, request_span)
        except Exception as error:  # the per-request fault boundary
            code, message = _sanitize(error)
            _count_error(code)
            self._send_error(sock, code, message, request_id)
            return
        try:
            wire.send_frame(sock, wire.KIND_RESULT, wire.encode(result))
        except OSError:
            # The client hung up after the protocol finished. The
            # result is only theirs to lose -- count it, keep serving.
            _count_error("result_send")

    def _classify(self, session: RequestSession, sock, request_span) -> dict:
        """Run one classification on a private context/codec/transport."""
        import numpy as np

        from repro.smc.context import make_context

        ctx = make_context(
            config=SessionConfig(
                seed=session.seed,
                paillier_bits=self.deployed.paillier_bits,
                dgk_bits=self.deployed.dgk_bits,
                protocol_backend=self.config.protocol_backend,
            ),
            engine=self._engine,
            protocol_backend=self._protocol_backend,
        )
        # Budget enforcement happens between key derivation and the
        # protocol run: the keyring fingerprint identifies the client,
        # and the granted (possibly shrunk, possibly empty) disclosure
        # set replaces the requested one. The charge is durable before
        # a single plaintext feature leaves this process.
        effective_disclosure = list(session.disclosure)
        decision = None
        if self._budget is not None:
            decision = self._budget.admit(
                identity_for_context(ctx),
                effective_disclosure,
                session.request_id,
            )
            effective_disclosure = list(decision.granted)
            request_span.set("budget_mode", decision.mode)
        # The transport gets a *duplicate* descriptor: on a deadline it
        # closes its socket before raising, and the handler still needs
        # the original to deliver the KIND_ERROR report.
        wire_sock = sock.dup()
        try:
            transport = TcpTransport(
                wire_sock, wire.codec_for_context(ctx), self._io_timeout()
            )
            ctx.channel.transport = transport
            label = self.deployed.classify(
                ctx,
                np.asarray(session.row),
                disclosure=effective_disclosure,
            )
            request_span.set("label", int(label))
            request_span.set("trace_bytes", ctx.trace.total_bytes)
            result = {
                "label": int(label),
                "request_id": session.request_id,
                "trace": ctx.trace.summary(),
                "measured": {
                    "frames": transport.stats.frames,
                    "bytes_client_to_server":
                        transport.stats.bytes_client_to_server,
                    "bytes_server_to_client":
                        transport.stats.bytes_server_to_client,
                },
            }
            if decision is not None:
                # Tell the client what the budget actually granted --
                # a degraded request is otherwise indistinguishable
                # from a full one.
                result["budget"] = decision.to_dict()
            return result
        finally:
            try:
                wire_sock.close()
            except OSError:  # pragma: no cover - already dropped
                pass

    def _authorized_shutdown(self, body: bytes) -> bool:
        """Does this ``KIND_SHUTDOWN`` body carry our shutdown token?

        Accepts the canonical ``{"token": "..."}`` payload
        (:func:`repro.smc.wire.shutdown_payload`) or a bare string.
        Comparison is constant-time; a malformed body is simply
        unauthorized, never an exception.
        """
        try:
            payload = wire.WireCodec().decode(body)
        except wire.WireError:
            return False
        token = payload.get("token") if isinstance(payload, dict) else payload
        if not isinstance(token, str):
            return False
        return hmac.compare_digest(token, self.shutdown_token)

    def _send_health(
        self, sock: socket.socket, status: str, body: bytes = b""
    ) -> None:
        """Best-effort ``KIND_HEALTH`` reply to a probe (or as an ack).

        A probe whose body asks ``{"telemetry": true}`` gets this
        process's full registry snapshot attached, which is how the
        fleet frontend collects per-shard metrics to merge.
        """
        with_telemetry = False
        if body:
            try:
                probe = wire.WireCodec().decode(body)
                with_telemetry = bool(
                    isinstance(probe, dict) and probe.get("telemetry")
                )
            except wire.WireError:
                pass  # a bare probe still deserves a liveness answer
        payload = wire.health_payload(
            status,
            shard=self.shard_name,
            telemetry=telemetry.snapshot() if with_telemetry else None,
        )
        try:
            wire.send_frame(sock, wire.KIND_HEALTH, wire.encode(payload))
        except OSError:  # pragma: no cover - prober already disconnected
            pass

    def _send_error(
        self, sock: socket.socket, code: str, message: str, request_id: str
    ) -> None:
        """Best-effort ``KIND_ERROR`` reply (the client may be gone)."""
        try:
            body = wire.encode(wire.error_payload(code, message, request_id))
            wire.send_frame(sock, wire.KIND_ERROR, body)
        except OSError:  # pragma: no cover - peer already disconnected
            pass


def _count_error(cause: str) -> None:
    """Count a failed request in ``serve.errors`` and its cause's counter."""
    telemetry.count("serve.errors")
    telemetry.count(f"serve.errors.{cause}")


def _sanitize(error: Exception) -> tuple:
    """Map a handler exception to a safe ``(code, message)`` pair.

    The client gets the exception *class* name and a fixed sentence --
    never ``str(error)``, which for crypto-layer failures can embed
    plaintexts, key material or file paths.
    """
    if isinstance(error, TransportError) and isinstance(
        error.__cause__, socket.timeout
    ):
        return "deadline", "request exceeded its deadline"
    return (
        "internal",
        f"request failed ({type(error).__name__}); the server kept serving",
    )

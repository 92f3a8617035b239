"""The concurrent, fault-isolated classification server runtime.

:class:`ClassificationServer` is the one way to serve a deployment
(``python -m repro serve`` runs it; the fleet's shards are instances of
it): one listener thread accepts connections and dispatches each one to
a bounded ``ThreadPoolExecutor``, so a slow (or stuck, or malicious)
client only occupies one worker slot instead of the whole server. The
design invariants, in order of importance:

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
   ``max_workers + queue_depth`` requests are admitted. Beyond that the
   listener reads the first frame itself in bounded time and still
   answers control frames (so a full server can be stopped and
   probed); anything else gets ``KIND_ERROR {code: "overloaded"}``
   before any key generation or crypto, counted in ``serve.shed``.
4. **Deadlines.** ``request_timeout_s`` bounds every blocking socket
   operation of a request (threaded through
   :class:`~repro.smc.transport.TcpTransport`); a request that exceeds
   it gets ``KIND_ERROR {code: "deadline"}`` and its socket closed.
5. **A typed answer to every first frame**, never a silent close (see
   :class:`FrontDoor`, which the fleet frontend shares).
6. **Graceful drain.** :meth:`ClassificationServer.shutdown` (or a
   ``KIND_SHUTDOWN`` carrying the server's token) stops the accept
   loop; in-flight requests run to completion before
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


#: Whole time the accept thread spends reading a connection beyond
#: capacity: its first frame and, after an overloaded reply, the drain.
#: One deadline for both, so a client that trickles bytes cannot hold
#: the accept thread longer. The reply fits in the empty send buffer of
#: a fresh connection.
_SHED_S = 0.5

#: Largest first-frame body read beyond capacity. A shutdown or health
#: frame fits; a request frame is larger and is shed unread.
_CONTROL_FRAME_BYTES = 256


class FrontDoor:
    """One listener's admission: accept, shed and answer the first frame.

    Shared by :class:`ClassificationServer` and the fleet frontend
    (:class:`~repro.serving.fleet.ClassificationFleet`). The door mints
    :attr:`shutdown_token`, polls ``self.listener``, admits at most
    ``capacity`` connections to a pool of ``workers`` threads, and
    answers each first frame: ``KIND_SHUTDOWN`` carrying the token
    stops the front end, ``KIND_HEALTH`` gets :meth:`_health`,
    ``KIND_REQUEST`` goes to :meth:`_answer_request`, any other kind is
    ``bad-request``. Beyond capacity the same dispatch runs on the
    accept thread in bounded time: control frames still get through,
    anything else is shed ``overloaded`` (``<family>.shed``).

    A front end defines ``_answer_request(sock, body, request_id)``,
    ``_health(body) -> dict``, ``_stop()`` (which may run on the accept
    thread), ``_count_error(cause)`` and ``_request_id() -> str``.
    """

    #: Prefix of the ``.shed`` and ``.shutdown_denied`` counters.
    family = "serve"
    #: Named in the ``KIND_HEALTH`` acknowledgement of a shutdown.
    shard_name = ""

    def __init__(
        self, capacity: int, workers: int, request_timeout_s: float
    ) -> None:
        #: Shutdown secret, minted at bind time from OS entropy. 128
        #: bits rendered as hex; compared constant-time.
        self.shutdown_token = f"{secure_rng().getrandbits(128):032x}"
        self._workers = workers
        self._request_timeout_s = request_timeout_s
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._admitted = 0     # connections holding a slot
        self._queue_peak = 0
        self._slots = threading.BoundedSemaphore(capacity)

    def _accept_loop(self) -> None:
        """Accept and dispatch on the calling thread until stopped (or
        the listener closed), then drain: every admitted connection
        finishes before this returns."""
        executor = ThreadPoolExecutor(
            max_workers=self._workers,
            thread_name_prefix=f"repro-{self.family}",
        )
        # Closing a listener does not wake a blocked accept() on Linux,
        # so the loop polls: a short accept timeout bounds how long a
        # stop from another thread can go unnoticed.
        self.listener.settimeout(0.1)
        try:
            while not self._stopping.is_set():
                try:
                    sock, _ = self.listener.accept()
                except socket.timeout:
                    continue  # re-check the stop condition
                except OSError:
                    break  # listener closed (shutdown) or torn down
                request_id = self._request_id()
                if self._slots.acquire(blocking=False):
                    self._note_admitted(+1)
                    executor.submit(
                        self._worker, sock, request_id, time.monotonic()
                    )
                else:
                    self._serve_connection(sock, request_id, admitted=False)
        finally:
            self._stopping.set()
            executor.shutdown(wait=True)  # graceful drain

    def _note_admitted(self, delta: int) -> None:
        # Only a server queues (and reports serve.queue_*): a fleet
        # frontend has a relay thread per slot.
        with self._lock:
            self._admitted += delta
            depth = max(0, self._admitted - self._workers)
            self._queue_peak = max(self._queue_peak, depth)
            peak = self._queue_peak
        if self.family == "serve":
            telemetry.gauge("serve.queue_depth", depth)
            telemetry.gauge("serve.queue_peak", peak)

    def _worker(
        self, sock: socket.socket, request_id: str, accepted_at: float
    ) -> None:
        if self.family == "serve":
            telemetry.observe(
                "serve.queue_wait", time.monotonic() - accepted_at
            )
        self._serve_connection(sock, request_id, admitted=True)

    def _serve_connection(
        self, sock: socket.socket, request_id: str, admitted: bool
    ) -> None:
        try:
            with sock:
                self._answer_first_frame(sock, request_id, admitted)
        except Exception:
            # Handlers report their own failures to the client; this
            # boundary only guarantees a broken socket or a bug in the
            # error path itself cannot take a thread down with it.
            self._count_error("handler")
        finally:
            if admitted:
                self._note_admitted(-1)
                self._slots.release()

    def _answer_first_frame(
        self, sock: socket.socket, request_id: str, admitted: bool
    ) -> None:
        """Read a connection's first frame and answer it.

        An admitted connection may send any frame up to the wire cap
        within the request deadline. Beyond capacity the accept thread
        reads at most :data:`_CONTROL_FRAME_BYTES` of body, all of it
        and the drain within :data:`_SHED_S`, and answers only control
        frames; a request, a slow or oversized frame, or a vanished
        client is shed ``overloaded``.
        """
        kind = body = None
        if admitted:
            sock.settimeout(self._request_timeout_s)
            try:
                kind, body = wire.recv_frame(sock)
            except wire.FrameTooLarge as error:
                self._count_error("frame_too_large")
                send_error(sock, "bad-request", str(error), request_id)
                return
            except (wire.WireError, OSError):
                return  # client vanished before sending a request
        else:
            reader = _ReadDeadline(sock, time.monotonic() + _SHED_S)
            try:
                kind, body = wire.recv_frame(reader, _CONTROL_FRAME_BYTES)
            except (wire.WireError, OSError):
                pass  # slow, oversized or gone: shed below
        if kind == wire.KIND_SHUTDOWN:
            if token_matches(body, self.shutdown_token):
                send_reply(sock, wire.KIND_HEALTH, wire.health_payload(
                    "stopping", shard=self.shard_name
                ))
                self._stop()
            else:
                telemetry.count(f"{self.family}.shutdown_denied")
                send_error(
                    sock, "bad-request",
                    "shutdown requires this server's shutdown token",
                    request_id,
                )
        elif kind == wire.KIND_HEALTH:
            send_reply(sock, wire.KIND_HEALTH, self._health(body))
        elif not admitted:
            telemetry.count(f"{self.family}.shed")
            send_error(
                sock, "overloaded", "server at capacity; retry with backoff",
                request_id,
            )
            # Half-close and drain before the close: closing with the
            # client's unread bytes in our receive buffer would send a
            # TCP RST, which flushes the client's buffered KIND_ERROR
            # before it can read it.
            try:
                sock.shutdown(socket.SHUT_WR)
                while reader.recv(4096):
                    pass
            except OSError:
                pass  # client already gone, or slow enough to forfeit
        elif kind == wire.KIND_REQUEST:
            self._answer_request(sock, body, request_id)
        else:
            # A protocol frame (MSG, KEYS, RESULT, ERROR) or an unknown
            # kind byte opens no session: a client bug, answered.
            count_error("bad_request")
            send_error(
                sock, "bad-request",
                f"a connection must open with a request, health or "
                f"shutdown frame, not kind 0x{kind:02X}",
                request_id,
            )


class _ReadDeadline:
    """A socket's reads, all of which must end by one deadline."""

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self._sock = sock
        self._deadline = deadline

    def recv(self, size: int) -> bytes:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout("read deadline passed")
        self._sock.settimeout(remaining)
        return self._sock.recv(size)


class ClassificationServer(FrontDoor):
    """Concurrent server for live hybrid classification queries.

    Parameters
    ----------
    deployed:
        A :class:`repro.core.serialization.DeployedClassifier` (treated
        as read-only by every handler).
    listener:
        An already-bound, listening TCP socket. The server owns its
        lifecycle from :meth:`serve_forever` on: :meth:`shutdown` closes
        it to break the accept loop.
    config:
        A :class:`~repro.core.session.SessionConfig`; the serving
        runtime reads ``max_workers``, ``queue_depth``,
        ``request_timeout_s``, ``protocol_backend`` (built once, so a
        ``"shares"`` server shares one offline triple store across
        requests), ``ledger_path`` / ``privacy_budget`` (per-client
        cumulative privacy-budget enforcement; see
        :mod:`repro.serving.budget` and ``docs/PRIVACY.md``).
    shard_name:
        Optional fleet identity (e.g. ``"s0"``). Prefixes every request
        id (``s0-req-000001``) and is echoed in ``KIND_HEALTH`` replies
        so fleet clients and tests can attribute work to a shard.

    A remote ``KIND_SHUTDOWN`` frame is honored, even when every slot
    is taken, only when its body carries :attr:`shutdown_token` -- a
    per-server secret minted at construction (bind) time and never sent
    on the wire by the server itself. The CLI prints the token and the
    fleet frontend uses it for graceful drain.

    Example::

        listener = socket.create_server(("127.0.0.1", 0), backlog=128)
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
        shard_name: str = "",
    ) -> None:
        self.deployed = deployed
        self.listener = listener
        self.config = config if config is not None else SessionConfig()
        self.shard_name = str(shard_name)
        self._id_prefix = f"{self.shard_name}-" if self.shard_name else ""
        self._accepted = 0  # connections accepted (request ids)
        super().__init__(
            self.config.max_workers + self.config.queue_depth,
            self.config.max_workers,
            self.config.request_timeout_s,
        )
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
        self._drained = threading.Event()

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept-and-dispatch loop; returns after shutdown + drain."""
        try:
            self._accept_loop()
        finally:
            if self._budget is not None:
                self._budget.close()  # after drain: no in-flight charges
            self._drained.set()

    def shutdown(self) -> None:
        """Stop accepting new connections and let in-flight requests
        finish (the drain itself happens in :meth:`serve_forever`).

        Safe to call from any thread, including a request handler or
        the accept thread (the ``KIND_SHUTDOWN`` frame path) -- it only
        signals and closes the listener, it never joins the pool.
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

    _stop = shutdown

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`serve_forever` finished draining."""
        return self._drained.wait(timeout)

    # -- request handling ----------------------------------------------

    def _request_id(self) -> str:
        with self._lock:
            self._accepted += 1
            return f"{self._id_prefix}req-{self._accepted:06d}"

    def _count_error(self, cause: str) -> None:
        count_error(cause)

    def _answer_request(
        self, sock: socket.socket, body: bytes, request_id: str
    ) -> None:
        """Serve one admitted ``KIND_REQUEST`` end to end."""
        telemetry.count("serve.requests")
        try:
            session = RequestSession.from_payload(
                request_id,
                wire.WireCodec().decode(body),
                default_disclosure=self.deployed.disclosure,
                n_features=len(self.deployed.features),
            )
        except (BadRequest, wire.WireError) as error:
            count_error("bad_request")
            send_error(sock, "bad-request", str(error), request_id)
            return
        try:
            with telemetry.span(
                "serve.request", request_id=request_id
            ) as request_span:
                result = self._classify(session, sock, request_span)
        except Exception as error:  # the per-request fault boundary
            code, message = _sanitize(error)
            count_error(code)
            send_error(sock, code, message, request_id)
            return
        try:
            wire.send_frame(sock, wire.KIND_RESULT, wire.encode(result))
        except OSError:
            # The client hung up after the protocol finished. The
            # result is only theirs to lose -- count it, keep serving.
            count_error("result_send")

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
                wire_sock, wire.codec_for_context(ctx),
                self.config.request_timeout_s,
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

    def _health(self, body: bytes) -> dict:
        """Liveness reply; a probe whose body asks ``{"telemetry":
        true}`` gets this process's full registry snapshot attached,
        which is how the fleet frontend collects per-shard metrics."""
        try:
            probe = wire.WireCodec().decode(body) if body else None
        except wire.WireError:
            probe = None  # a bare probe still deserves a liveness answer
        with_telemetry = isinstance(probe, dict) and bool(
            probe.get("telemetry")
        )
        return wire.health_payload(
            "ok",
            shard=self.shard_name,
            telemetry=telemetry.snapshot() if with_telemetry else None,
        )


# -- frame helpers -----------------------------------------------------------


def count_error(cause: str) -> None:
    """Count a failed request in ``serve.errors`` and its cause's counter."""
    telemetry.count("serve.errors")
    telemetry.count(f"serve.errors.{cause}")


def send_reply(sock: socket.socket, kind: int, payload) -> None:
    """Best-effort reply frame (the client may be gone)."""
    try:
        wire.send_frame(sock, kind, wire.encode(payload))
    except OSError:  # pragma: no cover - peer already disconnected
        pass


def send_error(
    sock: socket.socket, code: str, message: str, request_id: str
) -> None:
    """Best-effort ``KIND_ERROR`` reply."""
    send_reply(
        sock, wire.KIND_ERROR, wire.error_payload(code, message, request_id)
    )


def token_matches(body: bytes, token: str) -> bool:
    """Does this ``KIND_SHUTDOWN`` body carry ``token``?

    Accepts the canonical ``{"token": "..."}`` payload
    (:func:`repro.smc.wire.shutdown_payload`) or a bare string.
    Comparison is constant-time; a malformed body is simply
    unauthorized, never an exception.
    """
    try:
        payload = wire.WireCodec().decode(body)
    except wire.WireError:
        return False
    candidate = payload.get("token") if isinstance(payload, dict) else payload
    if not isinstance(candidate, str):
        return False
    return hmac.compare_digest(candidate, token)


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

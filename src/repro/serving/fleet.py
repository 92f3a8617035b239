"""Multi-process serving fleet: shard processes behind a routing frontend.

The single-process :class:`~repro.serving.runtime.ClassificationServer`
scales with threads, which stops working the moment Paillier/DGK math
dominates a request: the GIL serialises the crypto and four workers buy
barely any throughput. :class:`ClassificationFleet` is the
shared-nothing answer -- N independent *shard processes*, each with its
own crypto engine, precompute state and telemetry registry, behind a
thin frontend that speaks the existing wire protocol to clients and
relays frames to shards. Online capacity then scales with cores, which
is the offline/online split the paper's serving story depends on.

Frontend responsibilities, in routing order:

1. **Bounded admission.** The frontend is a
   :class:`~repro.serving.runtime.FrontDoor`, like a server: it relays
   at most ``shards * (max_workers + queue_depth)`` client connections
   at once -- what its shards can admit. Beyond that it answers control
   frames and anything else ``KIND_ERROR {code: "overloaded"}``,
   counted in ``fleet.shed``.
2. **Sticky routing.** The first client frame is the ``KIND_REQUEST``
   handshake; its ``seed`` keys the session, and ``seed % n`` picks the
   home shard, so a session always lands on the same shard while the
   fleet is healthy.
3. **Shed-aware failover.** A shard answering the relayed request with
   ``KIND_ERROR {code: "overloaded"}`` (or refusing the connection)
   makes the frontend try the next healthy shard; only when *every*
   shard sheds does the client see ``overloaded``.
4. **Health tracking.** A heartbeat thread probes each shard with
   ``KIND_HEALTH`` frames. Any framed reply counts as alive (an
   overloaded shard still answers its accept loop); a refused
   connection or EOF marks the shard unhealthy until a later probe
   succeeds -- and optionally restarts the process if it died.
5. **Budget enforcement stays on the shards.** Every shard gets the
   frontend's ``SessionConfig`` unchanged, ``ledger_path`` included,
   and charges the shared ledger file exactly as a single server does
   (:mod:`repro.serving.budget`): after it has admitted the request and
   derived the session keys. The frontend reads only the routing seed
   and relays frames unchanged, so a request a shard sheds is never
   charged, and the one that serves it charges once.
6. **Graceful drain.** :meth:`ClassificationFleet.drain_shard` stops
   routing to one shard, asks it to stop with an *authorized*
   ``KIND_SHUTDOWN`` (the token minted by the shard at bind time and
   reported to the frontend over the spawn pipe), waits for its
   in-flight requests to finish, and restarts it -- without dropping
   the rest of the fleet.

Shard telemetry is pulled through the same health frames
(``{"telemetry": true}`` probes) and merged at the frontend with the
registry's picklable snapshot/merge machinery, so ``--metrics`` output
covers the whole fleet. Each shard records telemetry exactly when the
frontend's process did at spawn time (:func:`repro.telemetry.enabled`);
with it on, :meth:`shutdown` keeps the merged document in
``telemetry_at_shutdown`` before it stops the shards. Surface:
``repro serve --shards N`` or ``SessionConfig(shards=N)``; measured by
``benchmarks/bench_e24_fleet``.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from typing import Any, Dict, List, Optional

import repro.telemetry as telemetry
from repro.core.exceptions import ReproError
from repro.core.session import SessionConfig
from repro.serving.runtime import (
    ClassificationServer,
    FrontDoor,
    send_error,
)
from repro.smc import wire
from repro.telemetry import MetricsRegistry

_LOCALHOST = "127.0.0.1"

#: Seconds the frontend allows for one connect to a shard (a localhost
#: dial: a shard that takes longer is treated as unreachable).
_CONNECT_TIMEOUT_S = 5.0

#: Frames that end the server->client leg of a relayed session.
_TERMINAL_KINDS = (wire.KIND_RESULT, wire.KIND_ERROR)


def _shard_main(
    ready,
    deployed,
    config: SessionConfig,
    shard_name: str,
    telemetry_on: bool,
) -> None:
    """Child-process entry point: one ClassificationServer shard.

    The ``DeployedClassifier`` reaches the child as the process's own
    copy (it pickles, so any start method works), and every shard owns
    a private model and engine. The shard starts from an empty
    telemetry registry, recording iff the frontend's process was.
    Reports ``(port, shutdown_token)`` through the spawn pipe.
    """
    telemetry.configure(telemetry_on, reset=True)
    listener = socket.create_server((_LOCALHOST, 0), backlog=128)
    server = ClassificationServer(
        deployed, listener, config=config, shard_name=shard_name
    )
    ready.send((listener.getsockname()[1], server.shutdown_token))
    ready.close()
    with listener:
        server.serve_forever()


class ShardHandle:
    """The frontend's view of one shard process.

    ``healthy`` is flipped by the heartbeat thread and by routing
    failures; ``draining`` parks the shard out of the rotation while
    :meth:`ClassificationFleet.drain_shard` waits for its in-flight
    work. ``generation`` counts restarts (visible in ``fleet.status()``
    so operators can spot crash loops).
    """

    def __init__(
        self,
        name: str,
        process: multiprocessing.Process,
        port: int,
        token: str,
    ) -> None:
        self.name = name
        self.process = process
        self.port = port
        self.token = token
        self.healthy = True
        self.draining = False
        self.generation = 0

    @property
    def routable(self) -> bool:
        """Should the frontend send new sessions here?"""
        return self.healthy and not self.draining and self.process.is_alive()


class ClassificationFleet(FrontDoor):
    """N shard processes behind one wire-protocol routing frontend.

    Parameters
    ----------
    deployed:
        A :class:`repro.core.serialization.DeployedClassifier`; shipped
        to every shard process.
    config:
        A :class:`~repro.core.session.SessionConfig`; ``shards`` is the
        process count, and each shard runs a full
        :class:`~repro.serving.runtime.ClassificationServer` with these
        knobs (``max_workers`` / ``queue_depth`` are per shard).
    heartbeat_interval:
        Seconds between health probes of each shard.
    restart_dead:
        Whether the heartbeat thread respawns a shard whose process
        died (the fleet-smoke CI job turns this off to prove the
        *surviving* shard carries the load).

    Example::

        fleet = ClassificationFleet(deployed, SessionConfig(shards=4))
        fleet.start()
        result = request_classification("127.0.0.1", fleet.port, row,
                                        seed=7)
        fleet.drain_shard(0)     # rolling restart, fleet keeps serving
        fleet.shutdown()
    """

    family = "fleet"

    def __init__(
        self,
        deployed,
        config: Optional[SessionConfig] = None,
        heartbeat_interval: float = 0.5,
        restart_dead: bool = True,
        host: str = _LOCALHOST,
        port: int = 0,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        # Client connections the frontend holds at once, one relay
        # thread each: what the shards behind it can admit. The
        # fleet-level shutdown_token stops the whole fleet (the CLI
        # path).
        capacity = self.config.shards * (
            self.config.max_workers + self.config.queue_depth
        )
        super().__init__(capacity, capacity, self.config.request_timeout_s)
        self.heartbeat_interval = float(heartbeat_interval)
        self.restart_dead = bool(restart_dead)
        self.deployed = deployed
        self.shards: List[ShardHandle] = []
        self.listener: Optional[socket.socket] = None
        self.host = host
        self.port: int = int(port)
        self._threads: List[threading.Thread] = []
        self._spawn_lock = threading.Lock()  # guards shard spawn/replace
        #: The whole fleet's merged metrics as :meth:`shutdown` found
        #: them, before it stopped the shards (telemetry on only).
        self.telemetry_at_shutdown: Optional[Dict[str, Any]] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClassificationFleet":
        """Spawn the shards, bind the frontend, start its threads."""
        for index in range(self.config.shards):
            self.shards.append(self._spawn(index))
        self.listener = socket.create_server(
            (self.host, self.port), backlog=128
        )
        self.port = self.listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="repro-fleet-accept", daemon=True
        )
        beat = threading.Thread(
            target=self._heartbeat_loop, name="repro-fleet-beat", daemon=True
        )
        self._threads = [accept, beat]
        for thread in self._threads:
            thread.start()
        return self

    def _spawn(self, index: int) -> ShardHandle:
        name = f"s{index}"
        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_shard_main,
            args=(child, self.deployed, self.config, name,
                  telemetry.enabled()),
            daemon=True,
        )
        process.start()
        child.close()
        try:
            port, token = parent.recv()
        except EOFError:  # e.g. a ledger configured, no risk_model
            process.join()
            raise ReproError(
                f"shard {name} exited during startup (exit code "
                f"{process.exitcode}); its error is on stderr"
            ) from None
        finally:
            parent.close()
        return ShardHandle(name, process, port, token)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the fleet has been told to stop (the CLI path:
        a fleet-token ``KIND_SHUTDOWN`` frame to the frontend)."""
        return self._stopping.wait(timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop routing, stop every shard gracefully, join the threads.

        With telemetry on, the first call merges every shard's metrics
        into :attr:`telemetry_at_shutdown` first: once the shards stop,
        their registries are gone.
        """
        if telemetry.enabled() and not self._stopping.is_set():
            self.telemetry_at_shutdown = self.telemetry_snapshot()
        self._stopping.set()
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
        for shard in self.shards:
            shard.draining = True
            self._send_shutdown(shard)
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            shard.process.join(max(0.1, deadline - time.monotonic()))
            if shard.process.is_alive():  # pragma: no cover - stuck shard
                shard.process.terminate()
                shard.process.join(5)
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "ClassificationFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- shard control --------------------------------------------------

    def _send_shutdown(self, shard: ShardHandle) -> bool:
        """Ask one shard to stop, with its own token. Best-effort."""
        try:
            with socket.create_connection(
                (_LOCALHOST, shard.port), timeout=5
            ) as sock:
                sock.settimeout(5)
                wire.send_frame(
                    sock, wire.KIND_SHUTDOWN,
                    wire.encode(wire.shutdown_payload(shard.token)),
                )
                wire.recv_frame(sock)  # the "stopping" ack
            return True
        except (OSError, wire.WireError):
            return False  # already gone -- that is what drain verifies

    def drain_shard(self, index: int, restart: bool = True) -> None:
        """Gracefully recycle one shard without dropping the fleet.

        Stops routing new sessions to the shard, sends its authorized
        shutdown (the shard's own accept loop then drains in-flight
        requests before exiting), waits for the process, and spawns a
        fresh generation in its slot when ``restart``. The rest of the
        fleet serves throughout -- the drain runbook in DEPLOYMENT.md.
        """
        shard = self.shards[index]
        shard.draining = True
        self._send_shutdown(shard)
        shard.process.join(timeout=60)
        if shard.process.is_alive():  # pragma: no cover - stuck shard
            shard.process.terminate()
            shard.process.join(5)
        if restart:
            self._replace(index)

    def _replace(self, index: int) -> None:
        with self._spawn_lock:
            generation = self.shards[index].generation + 1
            fresh = self._spawn(index)
            fresh.generation = generation
            self.shards[index] = fresh

    def status(self) -> List[Dict[str, Any]]:
        """One status dict per shard (the operator/testing view)."""
        return [
            {
                "name": shard.name,
                "port": shard.port,
                "alive": shard.process.is_alive(),
                "healthy": shard.healthy,
                "draining": shard.draining,
                "generation": shard.generation,
            }
            for shard in self.shards
        ]

    # -- health ---------------------------------------------------------

    def _probe(self, shard: ShardHandle, telemetry_too: bool = False):
        """One KIND_HEALTH round trip; ``None`` means unreachable.

        Any framed reply proves the process is alive (a saturated shard
        still answers health); a refused connection, EOF, timeout or a
        health reply that does not decode under the normal wire caps is
        a health failure.
        """
        body = {"telemetry": True} if telemetry_too else None
        try:
            with socket.create_connection(
                (_LOCALHOST, shard.port), timeout=2
            ) as sock:
                sock.settimeout(5)
                wire.send_frame(sock, wire.KIND_HEALTH, wire.encode(body))
                kind, reply = wire.recv_frame(sock)
            if kind != wire.KIND_HEALTH:
                return {}  # alive, just busy shedding
            return wire.WireCodec().decode(reply)
        except (OSError, wire.WireError):
            return None

    def _heartbeat_loop(self) -> None:
        while not self._stopping.wait(self.heartbeat_interval):
            for index, shard in enumerate(self.shards):
                if shard.draining:
                    continue
                if not shard.process.is_alive():
                    shard.healthy = False
                    if self.restart_dead and not self._stopping.is_set():
                        self._replace(index)
                    continue
                alive = self._probe(shard) is not None
                if alive and not shard.healthy:
                    telemetry.count("fleet.recovered")
                shard.healthy = alive

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The whole fleet's metrics: every shard merged into one doc.

        Pulls each live shard's registry through a telemetry health
        probe and folds them together with the frontend's own global
        registry via the picklable snapshot/merge machinery.
        """
        merged = MetricsRegistry()
        merged.merge(telemetry.snapshot())
        for shard in self.shards:
            reply = self._probe(shard, telemetry_too=True)
            if reply and isinstance(reply.get("telemetry"), dict):
                merged.merge(reply["telemetry"])
        return merged.snapshot()

    # -- front door -----------------------------------------------------

    def _request_id(self) -> str:
        return ""  # a relayed session carries its shard's request id

    def _count_error(self, cause: str) -> None:
        telemetry.count("fleet.errors")

    def _health(self, body: bytes) -> dict:
        """Aggregate fleet status, one entry per shard."""
        routable = sum(1 for s in self.shards if s.routable)
        status = "ok" if routable else "degraded"
        payload = wire.health_payload(status, shard="frontend")
        payload["shards"] = self.status()
        return payload

    def _stop(self) -> None:
        # shutdown() joins the accept thread this may be running on.
        threading.Thread(target=self.shutdown, daemon=True).start()

    # -- routing --------------------------------------------------------

    def _sticky_order(self, body: bytes) -> List[int]:
        """Shard indices to try, home shard (``seed % n``) first."""
        try:
            payload = wire.WireCodec().decode(body)
            seed = int(payload.get("seed", 0))
        except (wire.WireError, AttributeError, TypeError, ValueError):
            seed = 0
        home = seed % len(self.shards)
        return [(home + i) % len(self.shards) for i in range(len(self.shards))]

    def _answer_request(
        self, client: socket.socket, body: bytes, request_id: str
    ) -> None:
        """Find a shard that accepts the request, then splice frames."""
        telemetry.count("fleet.requests")
        all_shed = False
        for index in self._sticky_order(body):
            shard = self.shards[index]
            if not shard.routable:
                continue
            try:
                upstream = socket.create_connection(
                    (_LOCALHOST, shard.port),
                    timeout=_CONNECT_TIMEOUT_S,
                )
            except OSError:
                shard.healthy = False  # heartbeat will re-probe/restart
                continue
            upstream.settimeout(self.config.request_timeout_s)
            try:
                wire.send_frame(upstream, wire.KIND_REQUEST, body)
                first_kind, first_body = wire.recv_frame(upstream)
            except (wire.WireError, OSError):
                upstream.close()
                shard.healthy = False
                continue
            if first_kind == wire.KIND_ERROR and _error_code(
                first_body
            ) == "overloaded":
                upstream.close()
                all_shed = True
                continue  # shed-aware failover: try the next shard
            telemetry.count("fleet.routed")
            with upstream:
                self._splice(client, upstream, shard, first_kind, first_body)
            return
        if all_shed:
            telemetry.count("fleet.shed")
            send_error(
                client, "overloaded",
                "every shard is at capacity; retry with backoff", "",
            )
        else:
            telemetry.count("fleet.unroutable")
            send_error(
                client, "internal", "no healthy shard available", "",
            )

    def _splice(
        self,
        client: socket.socket,
        upstream: socket.socket,
        shard: ShardHandle,
        first_kind: int,
        first_body: bytes,
    ) -> None:
        """Relay the session's frames between client and shard.

        The shard->client leg is frame-aware so the frontend knows
        whether the session reached a terminal frame; a shard that dies
        mid-request (EOF before ``KIND_RESULT``/``KIND_ERROR``) gets
        replaced by a synthesized ``internal`` error to the client and
        marked unhealthy. The client->shard leg is a plain pump on a
        helper thread. When the relay ends, the client socket's read
        side is shut down so the pump's ``recv`` returns at once: a
        close from this thread would neither wake it nor send the
        client its EOF until the request deadline.
        """
        pump = threading.Thread(
            target=_pump_frames, args=(client, upstream), daemon=True
        )
        pump.start()
        terminal = False
        try:
            kind, body = first_kind, first_body
            while True:
                try:
                    wire.send_frame(client, kind, body)
                except OSError:
                    return  # client hung up; shard's runtime cleans up
                if kind in _TERMINAL_KINDS:
                    terminal = True
                    return
                try:
                    kind, body = wire.recv_frame(upstream)
                except (wire.WireError, OSError):
                    # Shard gone mid-request: fail *this* request,
                    # keep the fleet.
                    shard.healthy = False
                    telemetry.count("fleet.shard_failures")
                    send_error(
                        client, "internal",
                        "shard failed mid-request; the fleet kept serving",
                        "",
                    )
                    return
        finally:
            if terminal:
                telemetry.count("fleet.completed")
            for sock, how in ((upstream, socket.SHUT_RDWR),
                              (client, socket.SHUT_RD)):
                try:
                    sock.shutdown(how)
                except OSError:
                    pass
            pump.join(timeout=2)


def _pump_frames(source: socket.socket, sink: socket.socket) -> None:
    """Forward frames source -> sink until either side goes away."""
    while True:
        try:
            kind, body = wire.recv_frame(source)
            wire.send_frame(sink, kind, body)
        except (wire.WireError, OSError):
            return


def _error_code(body: bytes) -> str:
    try:
        payload = wire.WireCodec().decode(body)
    except wire.WireError:
        return ""
    if isinstance(payload, dict):
        return str(payload.get("code", ""))
    return ""


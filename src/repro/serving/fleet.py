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

1. **Sticky routing.** The first client frame is the ``KIND_REQUEST``
   handshake; its ``seed`` keys the session, and ``seed % n`` picks the
   home shard, so a session always lands on the same shard while the
   fleet is healthy.
2. **Shed-aware failover.** A shard answering the relayed request with
   ``KIND_ERROR {code: "overloaded"}`` (or refusing the connection)
   makes the frontend try the next healthy shard; only when *every*
   shard sheds does the client see ``overloaded``.
3. **Health tracking.** A heartbeat thread probes each shard with
   ``KIND_HEALTH`` frames. Any framed reply counts as alive (an
   overloaded shard still answers its accept loop); a refused
   connection or EOF marks the shard unhealthy until a later probe
   succeeds -- and optionally restarts the process if it died.
4. **Budget enforcement.** With ``config.ledger_path`` set, the
   frontend owns the fleet's single privacy-budget ledger
   (:mod:`repro.serving.budget`): each ``KIND_REQUEST`` is attributed
   to a client (keyring fingerprint derived -- once, cached -- from its
   seed), its disclosure set priced, degraded and charged *before*
   relay, and the frame rewritten with the granted set. Shards run
   with ``ledger_path=None``, so a request is never double-charged.
5. **Graceful drain.** :meth:`ClassificationFleet.drain_shard` stops
   routing to one shard, asks it to stop with an *authorized*
   ``KIND_SHUTDOWN`` (the token minted by the shard at bind time and
   reported to the frontend over the spawn pipe), waits for its
   in-flight requests to finish, and restarts it -- without dropping
   the rest of the fleet.

Shard telemetry is pulled through the same health frames
(``{"telemetry": true}`` probes) and merged at the frontend with the
registry's picklable snapshot/merge machinery, so ``--metrics`` output
covers the whole fleet. Surface: ``repro serve --shards N`` or
``SessionConfig(shards=N)``; measured by ``benchmarks/bench_e24_fleet``.
"""

from __future__ import annotations

import hmac
import multiprocessing
import socket
import threading
import time
from typing import Any, Dict, List, Optional

import repro.telemetry as telemetry
from repro.core.exceptions import ReproError
from repro.core.session import SessionConfig
from repro.crypto.rand import secure_rng
from repro.privacy.risk import RiskError
from repro.serving.budget import BudgetEnforcer, identity_for_seed
from repro.smc import wire
from repro.telemetry import MetricsRegistry

_LOCALHOST = "127.0.0.1"

#: Frames that end the server->client leg of a relayed session.
_TERMINAL_KINDS = (wire.KIND_RESULT, wire.KIND_ERROR)


def _shard_main(
    ready,
    bundle: Dict[str, Any],
    config: SessionConfig,
    shard_name: str,
) -> None:
    """Child-process entry point: one ClassificationServer shard.

    The deployment ships as its plain-dict form (start-method agnostic)
    and is rebuilt here, so every shard owns a private model/engine.
    Reports ``(port, shutdown_token)`` through the spawn pipe.
    """
    from repro.core.serialization import deployment_from_dict
    from repro.serving.runtime import ClassificationServer

    if config.telemetry:
        telemetry.configure(True, reset=True)
    deployed = deployment_from_dict(bundle)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((_LOCALHOST, 0))
    listener.listen(64)
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


class ClassificationFleet:
    """N shard processes behind one wire-protocol routing frontend.

    Parameters
    ----------
    deployed:
        A :class:`repro.core.serialization.DeployedClassifier`; shipped
        to every shard in its plain-dict form.
    shards:
        Process count (defaults to ``config.shards``).
    config:
        A :class:`~repro.core.session.SessionConfig`; each shard runs a
        full :class:`~repro.serving.runtime.ClassificationServer` with
        these knobs (``max_workers`` / ``queue_depth`` are per shard).
    heartbeat_interval:
        Seconds between health probes of each shard.
    restart_dead:
        Whether the heartbeat thread respawns a shard whose process
        died (the fleet-smoke CI job turns this off to prove the
        *surviving* shard carries the load).

    Example::

        fleet = ClassificationFleet(deployed, shards=4)
        fleet.start()
        result = request_classification("127.0.0.1", fleet.port, row,
                                        seed=7)
        fleet.drain_shard(0)     # rolling restart, fleet keeps serving
        fleet.shutdown()
    """

    def __init__(
        self,
        deployed,
        shards: Optional[int] = None,
        config: Optional[SessionConfig] = None,
        heartbeat_interval: float = 0.5,
        restart_dead: bool = True,
        host: str = _LOCALHOST,
        port: int = 0,
    ) -> None:
        from repro.core.serialization import deployed_to_dict

        self.config = config if config is not None else SessionConfig()
        self.num_shards = int(shards or self.config.shards)
        if self.num_shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.heartbeat_interval = float(heartbeat_interval)
        self.restart_dead = bool(restart_dead)
        self._bundle = deployed_to_dict(deployed)
        # Budget enforcement is a *frontend* concern: one ledger for the
        # whole fleet, charged before a request is relayed. Shards are
        # spawned with ledger_path stripped so a fleet never
        # double-charges a request (frontend and shard each pricing it).
        self._budget = BudgetEnforcer.from_config(deployed, self.config)
        self._shard_config = self.config.with_overrides(ledger_path=None)
        self._default_disclosure = [int(i) for i in deployed.disclosure]
        self._key_bits = (deployed.paillier_bits, deployed.dgk_bits)
        #: Fleet-level shutdown secret: a ``KIND_SHUTDOWN`` frame to the
        #: *frontend* carrying it stops the whole fleet (the CLI path).
        self.shutdown_token = f"{secure_rng().getrandbits(128):032x}"
        self.shards: List[ShardHandle] = []
        self.listener: Optional[socket.socket] = None
        self.host = host
        self.port: int = int(port)
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()  # guards shard spawn/replace
        self._inflight: List[int] = [0] * self.num_shards

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ClassificationFleet":
        """Spawn the shards, bind the frontend, start its threads."""
        for index in range(self.num_shards):
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
            args=(child, self._bundle, self._shard_config, name),
            daemon=True,
        )
        process.start()
        child.close()
        try:
            port, token = parent.recv()
        finally:
            parent.close()
        return ShardHandle(name, process, port, token)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the fleet has been told to stop (the CLI path:
        a fleet-token ``KIND_SHUTDOWN`` frame to the frontend)."""
        return self._stopping.wait(timeout)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop routing, stop every shard gracefully, join the threads."""
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
        if self._budget is not None:
            self._budget.close()

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
        with self._lock:
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

        Any framed reply -- even ``KIND_ERROR {overloaded}`` from a
        saturated shard -- proves the process is alive; a refused
        connection, EOF, timeout or a health reply that does not decode
        under the normal wire caps is a health failure.
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

    # -- routing --------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self.listener is not None
        self.listener.settimeout(0.1)
        while not self._stopping.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # frontend listener closed (shutdown)
            thread = threading.Thread(
                target=self._route, args=(sock,), daemon=True
            )
            thread.start()

    def _route(self, client: socket.socket) -> None:
        """Route one client connection: handshake, pick shard, relay."""
        try:
            with client:
                self._route_inner(client)
        except Exception:  # the fleet-level fault boundary
            telemetry.count("fleet.errors")

    def _route_inner(self, client: socket.socket) -> None:
        client.settimeout(self.config.io_timeout)
        try:
            kind, body = wire.recv_frame(client)
        except wire.FrameTooLarge as error:
            telemetry.count("fleet.errors")
            self._client_error(client, "bad-request", str(error), "")
            return
        except (wire.WireError, OSError):
            return  # client vanished before the handshake
        if kind == wire.KIND_SHUTDOWN:
            self._frontend_shutdown_frame(client, body)
            return
        if kind == wire.KIND_HEALTH:
            self._frontend_health_frame(client)
            return
        if kind != wire.KIND_REQUEST:
            return
        telemetry.count("fleet.requests")
        decision = None
        if self._budget is not None:
            try:
                body, decision = self._enforce_budget(body)
            except (ReproError, RiskError) as error:
                telemetry.count("fleet.errors")
                self._client_error(client, "bad-request", str(error), "")
                return
        self._relay_session(client, kind, body, decision)

    def _enforce_budget(self, body: bytes):
        """Charge one request's disclosure and rewrite its frame.

        Decodes the ``KIND_REQUEST`` payload, attributes it to a client
        (the keyring fingerprint its seed deterministically implies --
        cached, so only a client's *first* request pays a key
        derivation), admits the requested disclosure set against the
        shared ledger, and re-encodes the frame with the granted set.
        Shards then serve exactly what the budget allows without ever
        seeing the ledger.
        """
        try:
            payload = wire.WireCodec().decode(body)
        except wire.WireError:
            return body, None  # let the shard reject the malformed frame
        if not isinstance(payload, dict):
            return body, None
        seed = int(payload.get("seed", 0))
        requested = payload.get("disclosure")
        if requested is None:
            requested = self._default_disclosure
        identity = identity_for_seed(seed, *self._key_bits)
        decision = self._budget.admit(
            identity, [int(i) for i in requested], f"fleet-{seed}"
        )
        payload = dict(payload)
        payload["disclosure"] = list(decision.granted)
        return wire.encode(payload), decision

    def _frontend_shutdown_frame(self, client: socket.socket, body) -> None:
        """KIND_SHUTDOWN at the frontend: fleet token stops everything."""
        try:
            payload = wire.WireCodec().decode(body)
        except wire.WireError:
            payload = None
        token = payload.get("token") if isinstance(payload, dict) else payload
        if isinstance(token, str) and hmac.compare_digest(
            token, self.shutdown_token
        ):
            try:
                wire.send_frame(
                    client, wire.KIND_HEALTH,
                    wire.encode(wire.health_payload("stopping")),
                )
            except OSError:
                pass
            threading.Thread(target=self.shutdown, daemon=True).start()
        else:
            telemetry.count("fleet.shutdown_denied")
            self._client_error(
                client, "bad-request",
                "fleet shutdown requires the frontend's shutdown token", "",
            )

    def _frontend_health_frame(self, client: socket.socket) -> None:
        """KIND_HEALTH at the frontend: aggregate fleet status."""
        routable = sum(1 for s in self.shards if s.routable)
        status = "ok" if routable else "degraded"
        payload = wire.health_payload(status, shard="frontend")
        payload["shards"] = self.status()
        try:
            wire.send_frame(client, wire.KIND_HEALTH, wire.encode(payload))
        except OSError:
            pass

    def _sticky_order(self, body: bytes) -> List[int]:
        """Shard indices to try, home shard (``seed % n``) first."""
        try:
            payload = wire.WireCodec().decode(body)
            seed = int(payload.get("seed", 0))
        except (wire.WireError, AttributeError, TypeError, ValueError):
            seed = 0
        home = seed % len(self.shards)
        return [(home + i) % len(self.shards) for i in range(len(self.shards))]

    def _relay_session(
        self,
        client: socket.socket,
        kind: int,
        body: bytes,
        decision=None,
    ) -> None:
        """Find a shard that accepts the request, then splice frames."""
        all_shed = False
        for index in self._sticky_order(body):
            shard = self.shards[index]
            if not shard.routable:
                continue
            try:
                upstream = socket.create_connection(
                    (_LOCALHOST, shard.port),
                    timeout=self.config.connect_timeout,
                )
            except OSError:
                shard.healthy = False  # heartbeat will re-probe/restart
                continue
            upstream.settimeout(self.config.io_timeout)
            try:
                wire.send_frame(upstream, kind, body)
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
                self._splice(client, upstream, shard,
                             first_kind, first_body, index, decision)
            return
        if all_shed:
            telemetry.count("fleet.shed")
            self._client_error(
                client, "overloaded",
                "every shard is at capacity; retry with backoff", "",
            )
        else:
            telemetry.count("fleet.unroutable")
            self._client_error(
                client, "internal", "no healthy shard available", "",
            )

    def _splice(
        self,
        client: socket.socket,
        upstream: socket.socket,
        shard: ShardHandle,
        first_kind: int,
        first_body: bytes,
        index: int,
        decision=None,
    ) -> None:
        """Relay the session's frames between client and shard.

        The shard->client leg is frame-aware so the frontend knows
        whether the session reached a terminal frame; a shard that dies
        mid-request (EOF before ``KIND_RESULT``/``KIND_ERROR``) gets
        replaced by a synthesized ``internal`` error to the client and
        marked unhealthy. The client->shard leg is a plain pump on a
        helper thread.
        """
        with self._lock:
            self._inflight[index] += 1
        pump = threading.Thread(
            target=_pump_frames, args=(client, upstream), daemon=True
        )
        pump.start()
        terminal = False
        try:
            kind, body = first_kind, first_body
            while True:
                if kind == wire.KIND_RESULT and decision is not None:
                    # Shards know nothing of the ledger; the frontend
                    # stamps the budget outcome into the result so
                    # clients see what was actually disclosed (same
                    # shape as single-server budget results).
                    body = _stamp_budget(body, decision)
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
                    self._client_error(
                        client, "internal",
                        "shard failed mid-request; the fleet kept serving",
                        "",
                    )
                    return
        finally:
            with self._lock:
                self._inflight[index] -= 1
            if terminal:
                telemetry.count("fleet.completed")
            try:
                upstream.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            pump.join(timeout=2)

    @staticmethod
    def _client_error(
        client: socket.socket, code: str, message: str, request_id: str
    ) -> None:
        try:
            body = wire.encode(wire.error_payload(code, message, request_id))
            wire.send_frame(client, wire.KIND_ERROR, body)
        except OSError:
            pass  # client already gone


def _stamp_budget(body: bytes, decision) -> bytes:
    """Attach the frontend's budget decision to a ``KIND_RESULT`` body."""
    try:
        payload = wire.WireCodec().decode(body)
    except wire.WireError:
        return body  # not ours to rewrite
    if not isinstance(payload, dict):
        return body
    payload = dict(payload)
    payload["budget"] = decision.to_dict()
    return wire.encode(payload)


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


def serve_fleet(
    deployed,
    shards: int,
    config: Optional[SessionConfig] = None,
) -> ClassificationFleet:
    """Start a fleet and return it (the ``repro serve --shards`` path).

    Convenience constructor-and-start; the caller owns the lifecycle
    (``fleet.shutdown()`` or a fleet-token ``KIND_SHUTDOWN`` frame).
    """
    return ClassificationFleet(deployed, shards=shards, config=config).start()

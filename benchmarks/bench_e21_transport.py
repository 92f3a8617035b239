"""E21 -- Extension: transport backends on the live protocol path.

Runs the same composed secure-comparison workload (DGK comparison,
encrypted comparison, secure argmax) over the three channel backends:

1. **bare** -- accounting only, no payload serialisation (the seed
   behaviour);
2. **inproc** -- every message round-trips through the canonical wire
   codec in-process;
3. **tcp** -- every message crosses a real socket (one end of a
   ``socket.socketpair()``) to the shared mirror loop
   (:func:`repro.smc.transport.mirror_frames`, the serving client's
   echo loop) running in a thread, and back.

All three must produce identical traces, so the byte counts printed
here are the *measured* socket traffic, not a model.  The tcp-vs-bare
wall-clock gap is the real serialisation+socket overhead, which the
bench compares against the LOOPBACK network model's prediction for the
same trace.

Results land in ``BENCH_transport.json`` so future PRs can track codec
and transport overhead over time.
"""

import contextlib
import os
import socket
import threading
import time

from repro.bench import Table, write_bench_json
from repro.core.session import SessionConfig
from repro.smc import wire
from repro.smc.argmax import secure_argmax
from repro.smc.comparison import compare_values_encrypted, dgk_compare
from repro.smc.context import make_context
from repro.smc.network import NetworkProfile
from repro.smc.transport import (
    InProcessTransport,
    TcpTransport,
    mirror_frames,
)

from conftest import BENCH_DGK_BITS, BENCH_PAILLIER_BITS

_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_transport.json"
)
REPEATS = 3
_SEED = 21


def _workload(ctx):
    dgk_compare(ctx, 3, 5, 4)
    compare_values_encrypted(ctx, ctx.server_encrypt(9),
                             ctx.server_encrypt(4), 5)
    secure_argmax(ctx, [ctx.server_encrypt(v) for v in (5, 9, 3)], 5)


def _contexts(count):
    """Pre-built identical contexts, so key generation is not billed to
    the transport measurement."""
    return [
        make_context(config=SessionConfig(
            seed=_SEED, paillier_bits=BENCH_PAILLIER_BITS,
            dgk_bits=BENCH_DGK_BITS, dgk_plaintext_bits=16,
        ))
        for _ in range(count)
    ]


def _best_of(contexts, attach):
    """Best-of-N wall time; ``attach(ctx)`` installs the transport."""
    best, trace = float("inf"), None
    for ctx in contexts:
        attach(ctx)
        start = time.perf_counter()
        _workload(ctx)
        best = min(best, time.perf_counter() - start)
        trace = ctx.trace
    return best, trace


def test_e21_transport_overhead():
    metrics = {}

    bare_s, bare_trace = _best_of(_contexts(REPEATS), lambda ctx: None)

    def attach_inproc(ctx):
        ctx.channel.transport = InProcessTransport(
            wire.codec_for_context(ctx)
        )

    inproc_s, inproc_trace = _best_of(_contexts(REPEATS), attach_inproc)

    sessions = []

    def attach_tcp(ctx):
        # One socket pair per repeat; the mirror loop echoes every frame
        # until the near end sends its KIND_RESULT.
        near, far = socket.socketpair()
        mirror = threading.Thread(target=mirror_frames, args=(far,),
                                  daemon=True)
        mirror.start()
        transport = TcpTransport(near, wire.codec_for_context(ctx), 30.0)
        sessions.append((near, far, mirror, transport))
        ctx.channel.transport = transport

    try:
        tcp_s, tcp_trace = _best_of(_contexts(REPEATS), attach_tcp)
    finally:
        for near, far, mirror, transport in sessions:
            with contextlib.suppress(OSError):  # closed by a failed run
                wire.send_frame(near, wire.KIND_RESULT, wire.encode(None))
            mirror.join(timeout=10)
            transport.close()
            far.close()

    # The backends must agree on every accounted quantity.
    for trace in (inproc_trace, tcp_trace):
        assert trace.total_bytes == bare_trace.total_bytes
        assert trace.messages == bare_trace.messages
        assert trace.rounds == bare_trace.rounds

    modeled_s = NetworkProfile.LOOPBACK.transfer_seconds(
        bare_trace.total_bytes, bare_trace.rounds
    )
    metrics.update(
        workload_bytes=bare_trace.total_bytes,
        workload_messages=bare_trace.messages,
        workload_rounds=bare_trace.rounds,
        bare_seconds=bare_s,
        inproc_seconds=inproc_s,
        tcp_seconds=tcp_s,
        codec_overhead_seconds=inproc_s - bare_s,
        socket_overhead_seconds=tcp_s - inproc_s,
        loopback_modeled_transfer_seconds=modeled_s,
    )

    table = Table(
        f"E21: transport overhead on a {bare_trace.total_bytes}-byte, "
        f"{bare_trace.rounds}-round workload "
        f"({BENCH_PAILLIER_BITS}-bit Paillier)",
        ["backend", "seconds", "overhead vs bare"],
    )
    table.add_row(["bare (accounting only)", bare_s, 0.0])
    table.add_row(["inproc (codec round-trip)", inproc_s, inproc_s - bare_s])
    table.add_row(["tcp (socket pair, mirror thread)", tcp_s, tcp_s - bare_s])
    table.print()

    print(f"LOOPBACK model predicts {modeled_s:.6f}s of transfer for this "
          f"trace; measured tcp-vs-bare gap is {tcp_s - bare_s:.6f}s "
          f"(codec alone: {inproc_s - bare_s:.6f}s)")

    write_bench_json(
        _BENCH_JSON, "e21_transport", metrics,
        meta={"paillier_bits": BENCH_PAILLIER_BITS,
              "dgk_bits": BENCH_DGK_BITS, "repeats": REPEATS},
    )

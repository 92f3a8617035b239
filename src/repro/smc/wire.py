"""Canonical wire codec for every payload that crosses the two-party link.

Every protocol message in this library is one of a small set of shapes:
signed integers (blinded differences, shares, labels), byte strings (OT
table entries), strings, floats, booleans, ``None`` signals, Paillier /
DGK ciphertexts, additive shares, and nested lists/tuples/dicts of those. This
module defines *the* encoding of each shape -- a one-byte type tag
followed by a length-prefixed body -- and both transport backends and
the :class:`~repro.smc.network.Channel` byte accounting derive from it,
so the simulator's accounting and the bytes observed on a real TCP
socket agree exactly, by construction.

Layout summary (all length prefixes are unsigned 32-bit big-endian):

====================  ========================================================
shape                 encoding
====================  ========================================================
``None``              ``0x00``
``False`` / ``True``  ``0x01`` / ``0x02``
``int``               ``0x03`` + u32 length + two's-complement big-endian
``float``             ``0x04`` + IEEE-754 big-endian double (8 bytes)
``bytes``             ``0x05`` + u32 length + raw bytes
``str``               ``0x06`` + u32 length + UTF-8 bytes
``list``              ``0x07`` + u32 count + encoded items
``tuple``             ``0x08`` + u32 count + encoded items
``dict``              ``0x09`` + u32 count + encoded key/value pairs
Paillier ciphertext   ``0x0A`` + u32 length + fixed-width big-endian value
DGK ciphertext        ``0x0B`` + u32 length + fixed-width big-endian value
(retired)             ``0x0C`` stays unassigned (was Goldwasser-Micali)
additive share        ``0x0D`` + u32 length + modulus + fixed-width value
Beaver triple         ``0x0E`` + u32 count (3) + the ``a``/``b``/``c`` shares
====================  ========================================================

Integers use a *signed* two's-complement body of ``bit_length() // 8 + 1``
bytes, so negative values (blinded differences, signed shares) are both
encodable and distinguishable from their absolute values -- the sizing
ambiguity the old magnitude-only accounting had. Numpy scalars
(``np.int64``, ``np.bool_``, ``np.float64``, ...) are canonicalised to
their Python equivalents before encoding.

Ciphertext bodies are fixed-width (the size of the key's ciphertext
group), so message sizes leak nothing about plaintext magnitudes.
Additive shares (the share backend's openings and input sharings) get
the same treatment: the value body is zero-padded to the byte width of
the ring modulus, so a share's wire size depends only on the ring --
never on the share's magnitude.
Decoding a ciphertext requires the matching public key; a
:class:`WireCodec` carries the session's public keys and is the decoding
entry point. Encoding is keyless.

Frames: a transport message is ``kind (1 byte) + u32 body length + body``
(:data:`FRAME_OVERHEAD` = 5 bytes). The channel charges exactly one
frame per logical message.
"""

from __future__ import annotations

import hashlib
import numbers
import struct
import socket
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.crypto.beaver import BeaverTriple
from repro.crypto.dgk import DgkCiphertext, DgkPublicKey
from repro.crypto.paillier import PaillierCiphertext, PaillierPublicKey
from repro.crypto.secret_sharing import AdditiveShare

try:  # numpy is a hard dependency of the repo, but keep the codec honest
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

WIRE_VERSION = 1

# -- type tags ---------------------------------------------------------------

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT = 0x03
TAG_FLOAT = 0x04
TAG_BYTES = 0x05
TAG_STR = 0x06
TAG_LIST = 0x07
TAG_TUPLE = 0x08
TAG_DICT = 0x09
TAG_PAILLIER = 0x0A
TAG_DGK = 0x0B
# 0x0C is retired: it was the Goldwasser-Micali ciphertext tag, which no
# protocol sent. It stays unassigned so old frames never decode as
# something else.
TAG_SHARE = 0x0D
TAG_TRIPLE = 0x0E

#: tag byte + u32 length prefix, paid by every length-prefixed element.
ELEMENT_OVERHEAD = 5

#: Most containers (lists, tuples, dicts, triples) the decoder lets an
#: element sit inside. Protocol payloads nest a few levels; a hostile
#: frame nested thousands deep would otherwise exhaust the stack.
MAX_NESTING_DEPTH = 64

#: Most elements (scalars, ciphertexts and containers alike) one
#: payload may decode to. A one-byte ``None`` or a five-byte empty list
#: becomes a Python object ten times its wire size, so the frame cap
#: alone would let one frame cost the server gigabytes. The decoder
#: checks each container's declared length against what is left, so a
#: payload is refused before its items are built. Protocol payloads
#: stay far below: the largest flight of a 15-tree, depth-8 forest
#: query on the warfarin cohort holds 6 236 elements, at any key size.
MAX_DECODE_ELEMENTS = 1 << 20

#: Largest frame body :func:`recv_frame` accepts from a peer; a longer
#: declared length raises :class:`FrameTooLarge` before any of the body
#: is read. The largest protocol frames are batched comparison flights:
#: a whole 15-tree, depth-8 forest query at 4096/2048-bit keys moves
#: under 9 MB each way. A shard's ``KIND_HEALTH`` reply with telemetry
#: stays far below too: its span roots are a bounded ring
#: (:data:`repro.telemetry.registry.SPAN_ROOT_CAP`).
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- frame kinds -------------------------------------------------------------

#: ``kind`` byte + u32 body length, paid once per transport frame.
FRAME_OVERHEAD = 5

KIND_MSG = 0x01        # a protocol message (mirror/forward me)
KIND_KEYS = 0x02       # session keyring (public keys for the codec)
KIND_REQUEST = 0x03    # classification request (row, disclosure, seed)
KIND_RESULT = 0x04     # classification result (label + trace summary)
# 0x05 and 0x06 are retired: they were the echo peer's byte-stats query
# and end-of-session frames, which no served connection sends. They
# stay unassigned so old frames never read as something else.
KIND_SHUTDOWN = 0x07   # stop serving entirely (body carries the token)
KIND_ERROR = 0x08      # server-side failure report (code, message, id)
KIND_HEALTH = 0x09     # liveness probe / status reply (fleet heartbeats)

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def tag_registry() -> dict:
    """All ``TAG_*`` type-tag constants of this codec, by name.

    The authoritative enumeration of wire shapes: the round-trip
    property tests iterate it so a newly added tag is automatically
    covered (the test fails until a sample payload for it exists), and
    the ``wire-tags`` lint rule enforces that each entry has both an
    encode and a decode branch.
    """
    return {
        name: value
        for name, value in globals().items()
        if name.startswith("TAG_") and isinstance(value, int)
    }


def kind_registry() -> dict:
    """All ``KIND_*`` frame-kind constants, by name."""
    return {
        name: value
        for name, value in globals().items()
        if name.startswith("KIND_") and isinstance(value, int)
    }


def payload_tag_name(payload: Any) -> str:
    """Lower-case wire-tag name of ``payload``'s top level.

    Used by telemetry's per-tag wire-byte counters
    (``wire.bytes.tag.<name>``); payloads with no codec tag report as
    ``"opaque"``.
    """
    payload = _canonical(payload)
    if payload is None:
        return "none"
    if isinstance(payload, bool):
        return "true" if payload else "false"
    if isinstance(payload, numbers.Integral):
        return "int"
    if isinstance(payload, float):
        return "float"
    if isinstance(payload, bytes):
        return "bytes"
    if isinstance(payload, str):
        return "str"
    if isinstance(payload, PaillierCiphertext):
        return "paillier"
    if isinstance(payload, DgkCiphertext):
        return "dgk"
    if isinstance(payload, AdditiveShare):
        return "share"
    if isinstance(payload, BeaverTriple):
        return "triple"
    if isinstance(payload, list):
        return "list"
    if isinstance(payload, tuple):
        return "tuple"
    if isinstance(payload, dict):
        return "dict"
    return "opaque"


class WireError(Exception):
    """Raised on unencodable payloads or malformed wire data."""


class FrameTooLarge(WireError):
    """A frame header declared a body longer than the reader's cap
    (:data:`MAX_FRAME_BYTES` unless the reader lifts it)."""


def _canonical(payload: Any) -> Any:
    """Coerce numpy scalars to their Python equivalents.

    The codebase hands ``np.int64`` / ``np.bool_`` / ``np.float64``
    values around freely; the wire format only knows the canonical
    Python shapes.
    """
    if _np is not None and isinstance(payload, _np.generic):
        return payload.item()
    return payload


def _int_body_length(value: int) -> int:
    """Bytes in the canonical two's-complement body of ``value``.

    One byte more than the magnitude needs, so the sign bit always has
    room: ``255`` encodes as ``00 FF`` and ``-255`` as ``FF 01`` -- two
    different bodies of the same deterministic length.
    """
    return value.bit_length() // 8 + 1


def _share_value_width(modulus: int) -> int:
    """Fixed byte width of a share value in ``Z_modulus``.

    Every element of the ring fits (values are reduced, so strictly
    below the modulus), and the width depends only on the ring -- share
    sizes leak nothing about share magnitudes.
    """
    return (modulus.bit_length() + 7) // 8


def _share_body(share: AdditiveShare) -> bytes:
    """The length-prefixed body of one additive share element."""
    if not 0 <= share.value < share.modulus:
        raise WireError(
            f"share value {share.value} outside ring Z_{share.modulus}"
        )
    width = _share_value_width(share.modulus)
    return (
        _U32.pack(width)
        + share.modulus.to_bytes(width, "big")
        + share.value.to_bytes(width, "big")
    )


def encoded_size(payload: Any) -> int:
    """Exact length in bytes of :func:`encode` without materialising it.

    The in-process channel uses this for byte accounting, so simulated
    traffic equals real traffic byte-for-byte.
    """
    payload = _canonical(payload)
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, numbers.Integral):
        return ELEMENT_OVERHEAD + _int_body_length(int(payload))
    if isinstance(payload, float):
        return 1 + 8
    if isinstance(payload, bytes):
        return ELEMENT_OVERHEAD + len(payload)
    if isinstance(payload, str):
        return ELEMENT_OVERHEAD + len(payload.encode("utf-8"))
    if isinstance(payload, PaillierCiphertext):
        return ELEMENT_OVERHEAD + payload.serialized_size_bytes()
    if isinstance(payload, DgkCiphertext):
        return ELEMENT_OVERHEAD + payload.serialized_size_bytes()
    if isinstance(payload, AdditiveShare):
        # TAG_SHARE body: u32 width + modulus + fixed-width value.
        return ELEMENT_OVERHEAD + 4 + 2 * _share_value_width(payload.modulus)
    if isinstance(payload, BeaverTriple):
        # TAG_TRIPLE: u32 count (3) + the a/b/c share elements.
        return ELEMENT_OVERHEAD + sum(
            encoded_size(share)
            for share in (payload.a, payload.b, payload.c)
        )
    if isinstance(payload, (list, tuple)):
        return ELEMENT_OVERHEAD + sum(encoded_size(item) for item in payload)
    if isinstance(payload, dict):
        return ELEMENT_OVERHEAD + sum(
            encoded_size(k) + encoded_size(v) for k, v in payload.items()
        )
    raise WireError(f"cannot encode payload of type {type(payload).__name__}")


def encode(payload: Any) -> bytes:
    """Serialise ``payload`` to its canonical wire bytes."""
    out = bytearray()
    _encode_into(payload, out)
    return bytes(out)


def _encode_into(payload: Any, out: bytearray) -> None:
    payload = _canonical(payload)
    if payload is None:
        out.append(TAG_NONE)
        return
    if isinstance(payload, bool):
        out.append(TAG_TRUE if payload else TAG_FALSE)
        return
    if isinstance(payload, numbers.Integral):
        value = int(payload)
        body = value.to_bytes(_int_body_length(value), "big", signed=True)
        out.append(TAG_INT)
        out += _U32.pack(len(body))
        out += body
        return
    if isinstance(payload, float):
        out.append(TAG_FLOAT)
        out += _F64.pack(payload)
        return
    if isinstance(payload, bytes):
        out.append(TAG_BYTES)
        out += _U32.pack(len(payload))
        out += payload
        return
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        out.append(TAG_STR)
        out += _U32.pack(len(body))
        out += body
        return
    if isinstance(payload, PaillierCiphertext):
        body = payload.to_bytes()
        out.append(TAG_PAILLIER)
        out += _U32.pack(len(body))
        out += body
        return
    if isinstance(payload, DgkCiphertext):
        body = payload.to_bytes()
        out.append(TAG_DGK)
        out += _U32.pack(len(body))
        out += body
        return
    if isinstance(payload, AdditiveShare):
        body = _share_body(payload)
        out.append(TAG_SHARE)
        out += _U32.pack(len(body))
        out += body
        return
    if isinstance(payload, BeaverTriple):
        out.append(TAG_TRIPLE)
        out += _U32.pack(3)
        for share in (payload.a, payload.b, payload.c):
            _encode_into(share, out)
        return
    if isinstance(payload, (list, tuple)):
        out.append(TAG_LIST if isinstance(payload, list) else TAG_TUPLE)
        out += _U32.pack(len(payload))
        for item in payload:
            _encode_into(item, out)
        return
    if isinstance(payload, dict):
        out.append(TAG_DICT)
        out += _U32.pack(len(payload))
        for key, value in payload.items():
            _encode_into(key, out)
            _encode_into(value, out)
        return
    raise WireError(f"cannot encode payload of type {type(payload).__name__}")


@dataclass(frozen=True)
class WireCodec:
    """Decoder bound to a session's public keys.

    Encoding never needs keys (ciphertexts carry theirs); decoding a
    ciphertext tag does, so both endpoints construct a codec from the
    session keyring exchanged at handshake.
    """

    paillier: Optional[PaillierPublicKey] = None
    dgk: Optional[DgkPublicKey] = None

    # Encoding is stateless; expose it here for symmetry.
    encode = staticmethod(encode)
    encoded_size = staticmethod(encoded_size)

    def decode(
        self, data: bytes, max_elements: Optional[int] = MAX_DECODE_ELEMENTS
    ) -> Any:
        """Decode one payload; rejects trailing garbage and payloads of
        more than ``max_elements`` elements (``None`` lifts the cap)."""
        budget = [float("inf") if max_elements is None else max_elements]
        self._charge(budget, 1)
        value, offset = self._decode(memoryview(data), 0, 0, budget)
        if offset != len(data):
            raise WireError(
                f"{len(data) - offset} trailing bytes after decoded payload"
            )
        return value

    @staticmethod
    def _charge(budget: List[float], count: int) -> None:
        """Take ``count`` elements from the payload's remaining budget."""
        budget[0] -= count
        if budget[0] < 0:
            raise WireError("payload holds more elements than the decoder allows")

    def _decode(
        self, view: memoryview, offset: int, depth: int, budget: List[float]
    ) -> Tuple[Any, int]:
        """Decode the element at ``offset`` inside ``depth`` containers,
        charging each container's items to ``budget``."""
        if depth > MAX_NESTING_DEPTH:
            raise WireError(
                f"payload nests deeper than {MAX_NESTING_DEPTH} containers"
            )
        if offset >= len(view):
            raise WireError("truncated payload: missing type tag")
        tag = view[offset]
        offset += 1
        if tag == TAG_NONE:
            return None, offset
        if tag == TAG_FALSE:
            return False, offset
        if tag == TAG_TRUE:
            return True, offset
        if tag == TAG_FLOAT:
            body = self._take(view, offset, 8)
            return _F64.unpack(body)[0], offset + 8
        if tag in (TAG_INT, TAG_BYTES, TAG_STR, TAG_PAILLIER, TAG_DGK,
                   TAG_SHARE):
            length = _U32.unpack(self._take(view, offset, 4))[0]
            offset += 4
            body = bytes(self._take(view, offset, length))
            offset += length
            if tag == TAG_INT:
                return int.from_bytes(body, "big", signed=True), offset
            if tag == TAG_BYTES:
                return body, offset
            if tag == TAG_STR:
                return body.decode("utf-8"), offset
            if tag == TAG_PAILLIER:
                if self.paillier is None:
                    raise WireError("no Paillier key to decode ciphertext")
                return PaillierCiphertext.from_bytes(body, self.paillier), offset
            if tag == TAG_DGK:
                if self.dgk is None:
                    raise WireError("no DGK key to decode ciphertext")
                return DgkCiphertext.from_bytes(body, self.dgk), offset
            return self._decode_share(body), offset
        if tag == TAG_TRIPLE:
            count = _U32.unpack(self._take(view, offset, 4))[0]
            offset += 4
            if count != 3:
                raise WireError(
                    f"Beaver triple must carry 3 shares, got {count}"
                )
            self._charge(budget, 3)
            shares = []
            for _ in range(3):
                item, offset = self._decode(view, offset, depth + 1, budget)
                if not isinstance(item, AdditiveShare):
                    raise WireError(
                        f"Beaver triple element decoded as "
                        f"{type(item).__name__}, expected an additive share"
                    )
                shares.append(item)
            return BeaverTriple(a=shares[0], b=shares[1], c=shares[2]), offset
        if tag in (TAG_LIST, TAG_TUPLE):
            count = _U32.unpack(self._take(view, offset, 4))[0]
            offset += 4
            self._charge(budget, count)
            items = []
            for _ in range(count):
                item, offset = self._decode(view, offset, depth + 1, budget)
                items.append(item)
            return (items if tag == TAG_LIST else tuple(items)), offset
        if tag == TAG_DICT:
            count = _U32.unpack(self._take(view, offset, 4))[0]
            offset += 4
            self._charge(budget, 2 * count)
            result = {}
            for _ in range(count):
                key, offset = self._decode(view, offset, depth + 1, budget)
                value, offset = self._decode(view, offset, depth + 1, budget)
                result[key] = value
            return result, offset
        raise WireError(f"unknown type tag 0x{tag:02X}")

    @staticmethod
    def _decode_share(body: bytes) -> AdditiveShare:
        """Decode a ``TAG_SHARE`` body (keyless: shares carry their ring)."""
        if len(body) < 4:
            raise WireError("truncated share body: missing width")
        width = _U32.unpack(body[:4])[0]
        if len(body) != 4 + 2 * width:
            raise WireError(
                f"share body carries {len(body)} bytes, expected "
                f"{4 + 2 * width} for width {width}"
            )
        modulus = int.from_bytes(body[4:4 + width], "big")
        value = int.from_bytes(body[4 + width:], "big")
        if modulus < 2:
            raise WireError(f"share modulus {modulus} is not a ring")
        if value >= modulus:
            raise WireError(
                f"share value {value} outside ring Z_{modulus}"
            )
        return AdditiveShare(value=value, modulus=modulus)

    @staticmethod
    def _take(view: memoryview, offset: int, length: int) -> memoryview:
        if offset + length > len(view):
            raise WireError("truncated payload body")
        return view[offset:offset + length]


# -- session keyring ---------------------------------------------------------


def keyring_payload(
    paillier: Optional[PaillierPublicKey] = None,
    dgk: Optional[DgkPublicKey] = None,
) -> dict:
    """The handshake message describing a session's public keys."""
    payload: dict = {"wire_version": WIRE_VERSION}
    if paillier is not None:
        payload["paillier_n"] = paillier.n
    if dgk is not None:
        payload["dgk"] = {"n": dgk.n, "g": dgk.g, "h": dgk.h, "u": dgk.u}
    return payload


def codec_from_keyring(payload: dict) -> WireCodec:
    """Rebuild a :class:`WireCodec` from a keyring handshake message."""
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r}")
    paillier = None
    if "paillier_n" in payload:
        paillier = PaillierPublicKey(n=int(payload["paillier_n"]))
    dgk = None
    if "dgk" in payload:
        spec = payload["dgk"]
        dgk = DgkPublicKey(n=int(spec["n"]), g=int(spec["g"]),
                           h=int(spec["h"]), u=int(spec["u"]))
    return WireCodec(paillier=paillier, dgk=dgk)


def keyring_fingerprint(payload: dict) -> str:
    """Stable client identity derived from a keyring handshake message.

    SHA-256 over the keyring's canonical wire encoding, truncated to 16
    hex characters. Because every session's keys are derived
    deterministically from the client's seed, the fingerprint is stable
    across requests from the same client and collision-free across
    distinct keyrings -- which is what lets the serving runtime's
    privacy-budget ledger (:mod:`repro.privacy.ledger`) attribute
    cumulative disclosure to a client identity without any extra
    handshake field. See ``docs/PROTOCOLS.md`` (client identity) and
    ``docs/PRIVACY.md`` (what the identity is used for).
    """
    def _sorted(value: Any) -> Any:
        # The codec preserves dict insertion order; identity must not
        # depend on it, so sort keys recursively before encoding.
        if isinstance(value, dict):
            return {k: _sorted(value[k]) for k in sorted(value)}
        return value

    digest = hashlib.sha256(encode(_sorted(payload))).hexdigest()
    return f"pk-{digest[:16]}"


def error_payload(code: str, message: str, request_id: str = "") -> dict:
    """The body of a ``KIND_ERROR`` frame.

    ``code`` is a short machine-readable reason (``"overloaded"``,
    ``"bad-request"``, ``"deadline"``, ``"internal"``), ``message`` a
    sanitized human-readable sentence (never a raw traceback or secret
    material), ``request_id`` the server-assigned id of the failed
    request. Both the concurrent serving runtime
    (:mod:`repro.serving`) and the client
    (:func:`repro.smc.transport.request_classification`) use this shape.
    """
    return {
        "code": str(code),
        "message": str(message),
        "request_id": str(request_id),
    }


def shutdown_payload(token: str) -> dict:
    """The body of an authorized ``KIND_SHUTDOWN`` frame.

    ``token`` is the per-server shutdown token generated at bind time
    (:attr:`repro.serving.ClassificationServer.shutdown_token`). A
    ``KIND_SHUTDOWN`` frame whose body does not carry the right token
    is answered with a ``bad-request`` error and ignored, so a stray
    TCP client cannot stop a server it does not operate.
    """
    return {"token": str(token)}


def health_payload(
    status: str,
    shard: str = "",
    telemetry: Optional[dict] = None,
) -> dict:
    """The body of a ``KIND_HEALTH`` status reply.

    ``status`` is ``"ok"`` or ``"draining"``; ``shard`` the responding
    shard's name (empty for a standalone server); ``telemetry`` an
    optional picklable metrics snapshot
    (:meth:`repro.telemetry.MetricsRegistry.snapshot`) included when
    the probe body asked for one (``{"telemetry": True}``). The fleet
    frontend merges these snapshots into its own registry.
    """
    payload: dict = {"status": str(status), "shard": str(shard)}
    if telemetry is not None:
        payload["telemetry"] = telemetry
    return payload


def codec_for_context(ctx) -> WireCodec:
    """A codec carrying a :class:`~repro.smc.context.TwoPartyContext`'s
    public keys."""
    return WireCodec(
        paillier=ctx.paillier.public_key, dgk=ctx.dgk.public_key
    )


# -- framing -----------------------------------------------------------------


def pack_frame(kind: int, body: bytes) -> bytes:
    """One transport frame: kind byte + u32 body length + body."""
    return bytes((kind,)) + _U32.pack(len(body)) + body


def frame_size(payload: Any) -> int:
    """Total frame bytes for ``payload``: what the channel charges and
    what one leg of the socket actually carries."""
    return FRAME_OVERHEAD + encoded_size(payload)


def send_frame(sock: socket.socket, kind: int, body: bytes) -> int:
    """Write one frame; returns the number of bytes put on the wire."""
    frame = pack_frame(kind, body)
    sock.sendall(frame)
    return len(frame)


def recv_exact(sock: socket.socket, length: int) -> bytes:
    """Read exactly ``length`` bytes or raise :class:`WireError` on EOF."""
    chunks = bytearray()
    while len(chunks) < length:
        chunk = sock.recv(length - len(chunks))
        if not chunk:
            raise WireError(
                f"connection closed after {len(chunks)}/{length} bytes"
            )
        chunks += chunk
    return bytes(chunks)


def recv_frame(
    sock: socket.socket, max_bytes: Optional[int] = MAX_FRAME_BYTES
) -> Tuple[int, bytes]:
    """Read one frame; returns ``(kind, body)``.

    Raises :class:`FrameTooLarge` for a declared body longer than
    ``max_bytes``, before reading any of it. ``None`` lifts the cap, for
    a peer that is one of this deployment's own processes.
    """
    header = recv_exact(sock, FRAME_OVERHEAD)
    kind = header[0]
    length = _U32.unpack(header[1:5])[0]
    if max_bytes is not None and length > max_bytes:
        raise FrameTooLarge(
            f"frame declares {length} body bytes; the cap is {max_bytes}"
        )
    body = recv_exact(sock, length) if length else b""
    return kind, body

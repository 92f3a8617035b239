#!/usr/bin/env python
"""A guided tour of the SMC substrate, protocol by protocol.

Demonstrates every cryptographic building block this reproduction is
built on, bottom-up, with live keys and full cost accounting:

  Paillier / DGK encryption  ->  DGK private comparison
  ->  encrypted comparison  ->  secure argmax  ->  encrypted dot
  product  ->  private table lookup  ->  oblivious transfer
  ->  Beaver-triple share arithmetic

Each step prints what was computed and what it cost on the wire.

Run:  python examples/secure_protocols_tour.py
"""

from repro.core.session import SessionConfig
from repro.crypto.beaver import TrustedDealer
from repro.crypto.ot import one_of_n_transfer
from repro.crypto.rand import fresh_rng
from repro.crypto.triples import TripleStore
from repro.smc.argmax import secure_argmax
from repro.smc.comparison import compare_values_encrypted, dgk_compare
from repro.smc.context import make_context
from repro.smc.cost_model import CostModel, NATIVE_1024
from repro.smc.dotproduct import encrypt_feature_vector, encrypted_dot_product
from repro.smc.lookup import encrypt_indicator_vector
from repro.smc.shares import ShareSession


def section(title: str) -> None:
    print(f"\n--- {title} " + "-" * max(0, 50 - len(title)))


def show_cost(ctx, label: str, before_bytes: int, before_rounds: int) -> None:
    delta_bytes = ctx.trace.total_bytes - before_bytes
    delta_rounds = ctx.trace.rounds - before_rounds
    print(f"    cost: {delta_bytes} bytes over {delta_rounds} rounds")


def main() -> None:
    ctx = make_context(config=SessionConfig(
        seed=2024, paillier_bits=384, dgk_bits=192, dgk_plaintext_bits=16,
    ))
    public = ctx.paillier.public_key
    private = ctx.paillier.private_key

    section("Paillier additive homomorphism")
    enc_a, enc_b = public.encrypt(1200), public.encrypt(-458)
    print(f"  Dec(Enc(1200) + Enc(-458)) = {private.decrypt(enc_a + enc_b)}")
    print(f"  Dec(Enc(1200) * 3)         = {private.decrypt(enc_a * 3)}")

    section("DGK comparison with private inputs")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    shared = dgk_compare(ctx, client_value=37, server_value=53, bit_length=8)
    print(f"  client holds 37, server holds 53 -> shared bit (37 < 53) = "
          f"{shared.value}")
    show_cost(ctx, "dgk", b0, r0)

    section("Comparison of two *encrypted* values (Veugen/Bost)")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    enc_bit = compare_values_encrypted(
        ctx, public.encrypt(180), public.encrypt(75), bit_length=8
    )
    print(f"  server ends with Enc(180 >= 75) -> decrypts to "
          f"{private.decrypt(enc_bit)}")
    show_cost(ctx, "cmp", b0, r0)

    section("Secure argmax over encrypted class scores")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    scores = [public.encrypt(v) for v in (310, 912, 77, 645)]
    winner = secure_argmax(ctx, scores, bit_length=10)
    print(f"  scores [310, 912, 77, 645] -> client learns argmax = {winner}")
    show_cost(ctx, "argmax", b0, r0)

    section("Encrypted dot product (hyperplane score)")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    encrypted_features = encrypt_feature_vector(ctx, [3, 1, 4])
    score = encrypted_dot_product(ctx, encrypted_features, [10, -2, 5],
                                  plaintext_offset=7)
    print(f"  Enc(10*3 - 2*1 + 5*4 + 7) -> {private.decrypt(score)}")
    show_cost(ctx, "dot", b0, r0)

    section("Private table lookup via encrypted indicators")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    indicators = encrypt_indicator_vector(ctx, value_index=2, domain_size=4)
    entry = encrypted_dot_product(ctx, indicators, [-10, -20, -30, -40])
    print(f"  table[-10,-20,-30,-40][2] fetched blindly -> "
          f"{private.decrypt(entry)}")
    show_cost(ctx, "lookup", b0, r0)

    section("1-out-of-n oblivious transfer")
    table = [f"dose-plan-{i}".encode().ljust(16) for i in range(8)]
    chosen = one_of_n_transfer(table, 5, rng=fresh_rng(9), key_bits=256)
    print(f"  receiver picked index 5 -> {chosen.strip().decode()!r}; "
          f"sender learnt nothing")

    section("Beaver-triple share arithmetic")
    b0, r0 = ctx.trace.total_bytes, ctx.trace.rounds
    store = TripleStore(TrustedDealer(rng=fresh_rng(11), modulus=1 << 64))
    session = ShareSession(ctx, store)
    [x] = session.input_client([-12])
    [y] = session.input_server([34])
    [product] = session.multiply_batch([x], [y])
    print(f"  client's -12 times server's 34 over shares -> client opens "
          f"{session.reveal_to_client(product)}")
    show_cost(ctx, "beaver", b0, r0)

    section("Session totals")
    print(f"  total traffic : {ctx.trace.total_bytes} bytes, "
          f"{ctx.trace.rounds} rounds, {ctx.trace.messages} messages")
    model = CostModel(hardware=NATIVE_1024)
    print(f"  modeled time under native-1024/LAN: "
          f"{model.total_seconds(ctx.trace) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()

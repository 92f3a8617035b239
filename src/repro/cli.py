"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Describe the built-in synthetic cohorts.
``tradeoff``
    Sweep privacy budgets and print the speedup curve.
``classify``
    Run live hybrid (disclose-then-SMC) classifications through the
    in-process codec transport; ``--backend shares`` swaps the online
    phase onto the secret-sharing protocol engine.
``serve``
    Serve a saved deployment bundle over a TCP socket, concurrently
    (``--workers``/``--queue-depth``/``--request-timeout``; see
    ``docs/DEPLOYMENT.md``).
``attack``
    Run the Fredrikson-style model-inversion escalation.
``calibrate``
    Micro-benchmark this machine's crypto and print the profile.
``lint``
    Run the crypto/protocol invariant linter (see
    ``docs/STATIC_ANALYSIS.md``).
``metrics``
    Inspect (and schema-validate) a telemetry metrics document:
    spans, counters, gauges and histogram quantiles.
``budget``
    Inspect, rank or reset the per-client privacy-budget ledger that
    ``serve --ledger`` maintains (see ``docs/PRIVACY.md``).

Every command takes ``--format {text,json}`` (the convention ``lint``
introduced); ``tradeoff``, ``classify`` and ``serve`` also take
``--metrics PATH`` to switch telemetry on and export the session's
spans/counters as JSON (see ``docs/OBSERVABILITY.md``). Every command
is deterministic given ``--seed``. The bignum kernel is the process
default, chosen by the ``REPRO_CRYPTO_BACKEND`` environment variable
(``auto``, ``python`` or ``gmpy2``; see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import repro.telemetry as telemetry
from repro.api import (
    PipelineConfig,
    PrivacyAwareClassifier,
    SessionConfig,
    TradeoffAnalyzer,
)
from repro.bench import Table
from repro.cliutil import add_format_argument, add_metrics_argument, emit
from repro.core.session import PROTOCOL_BACKENDS, RNG_MODES
from repro.data import (
    generate_adult_like,
    generate_cancer_like,
    generate_warfarin,
    train_test_split,
)

DATASETS = {
    "warfarin": generate_warfarin,
    "adult": generate_adult_like,
    "cancer": generate_cancer_like,
}
CLASSIFIERS = ("linear", "naive_bayes", "tree")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Privacy-aware feature selection for secure classification "
            "(reproduction of Pattuk et al., ICDE 2016)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    commands = parser.add_subparsers(dest="command", required=True)

    datasets = commands.add_parser(
        "datasets", help="describe the built-in cohorts"
    )
    add_format_argument(datasets)

    tradeoff = commands.add_parser(
        "tradeoff", help="sweep privacy budgets, print the speedup curve"
    )
    _add_common(tradeoff)
    tradeoff.add_argument(
        "--budgets", default="0,0.01,0.05,0.1,0.5,1.0",
        help="comma-separated privacy budgets",
    )
    add_format_argument(tradeoff)
    add_metrics_argument(tradeoff)

    classify = commands.add_parser(
        "classify", help="live hybrid classification demo"
    )
    _add_common(classify)
    classify.add_argument("--budget", type=float, default=0.05,
                          help="privacy budget (default 0.05)")
    classify.add_argument("--rows", type=int, default=3,
                          help="number of test rows to classify live")
    add_format_argument(classify)
    add_metrics_argument(classify)

    serve = commands.add_parser(
        "serve", help="serve a saved deployment bundle over TCP"
    )
    serve.add_argument("--bundle", required=True,
                       help="path to a deployment bundle JSON")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: ephemeral, printed)")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="stop after this many connections "
                            "(default: serve forever)")
    serve.add_argument("--workers", type=int, default=4,
                       help="request handler threads (default 4)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admitted requests that may wait for a free "
                            "worker before new connections are shed with "
                            "an 'overloaded' error (default 16)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       help="per-request wall-clock deadline in seconds "
                            "(default: the transport io timeout)")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard processes behind a routing frontend; "
                            "each shard runs its own crypto engine and "
                            "--workers thread pool (default 1: a single "
                            "in-process server)")
    serve.add_argument("--backend", choices=PROTOCOL_BACKENDS, default=None,
                       help="online-phase protocol backend for served "
                            "queries: 'paillier' or 'shares' (shares "
                            "requires a linear bundle; one triple store "
                            "is shared per server process; default "
                            "paillier)")
    serve.add_argument("--ledger", default=None,
                       help="sqlite privacy-budget ledger path; enables "
                            "per-client cumulative disclosure pricing "
                            "(requires a bundle with a risk_model "
                            "section; see docs/PRIVACY.md; default: no "
                            "ledger, full disclosure served)")
    serve.add_argument("--privacy-budget", type=float, default=None,
                       dest="privacy_budget",
                       help="default per-client budget rho in [0, 1] for "
                            "clients the ledger has not seen before "
                            "(default 0.5; existing clients keep their "
                            "recorded budget)")
    add_format_argument(serve)
    add_metrics_argument(serve)

    budget = commands.add_parser(
        "budget", help="inspect or administer a privacy-budget ledger"
    )
    budget.add_argument(
        "action", choices=("inspect", "top", "reset"),
        help="inspect: one client's record (or all clients); top: "
             "highest-spend clients; reset: forget a client's history "
             "(grants budget back -- see the runbook in docs/PRIVACY.md)",
    )
    budget.add_argument("--ledger", required=True,
                        help="path to the sqlite ledger file")
    budget.add_argument("--client", default=None,
                        help="client identity (pk-...) to inspect or reset")
    budget.add_argument("--limit", type=int, default=10,
                        help="rows for 'top' and the charge journal "
                             "(default 10)")
    budget.add_argument("--all", action="store_true", dest="reset_all",
                        help="with 'reset': wipe every client (required "
                             "when no --client is given)")
    add_format_argument(budget)

    attack = commands.add_parser(
        "attack", help="model-inversion escalation (Fredrikson-style)"
    )
    attack.add_argument("--victims", type=int, default=400,
                        help="number of attacked records")
    add_format_argument(attack)

    calibrate = commands.add_parser(
        "calibrate", help="micro-benchmark this machine's crypto"
    )
    add_format_argument(calibrate)

    lint = commands.add_parser(
        "lint", help="run the crypto/protocol invariant linter"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    metrics = commands.add_parser(
        "metrics",
        help="inspect a telemetry metrics JSON document (spans, "
             "counters, gauges, histogram quantiles)",
    )
    metrics.add_argument(
        "path", help="metrics document to read ('-' for stdin)"
    )
    metrics.add_argument(
        "--check", action="store_true",
        help="schema-validate the document; non-zero exit on problems",
    )
    add_format_argument(metrics)
    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", choices=sorted(DATASETS), default="warfarin")
    sub.add_argument("--classifier", choices=CLASSIFIERS,
                     default="naive_bayes")
    sub.add_argument("--rng-mode", choices=RNG_MODES, default=None,
                     help="randomness mode for the live session "
                          "(default deterministic)")
    sub.add_argument("--backend", choices=PROTOCOL_BACKENDS, default=None,
                     help="online-phase protocol backend: 'paillier' runs "
                          "the paper's homomorphic stack, 'shares' runs "
                          "additive secret sharing over precomputed Beaver "
                          "triples (requires --classifier linear; default "
                          "paillier)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "datasets": _cmd_datasets,
        "tradeoff": _cmd_tradeoff,
        "classify": _cmd_classify,
        "serve": _cmd_serve,
        "attack": _cmd_attack,
        "calibrate": _cmd_calibrate,
        "lint": _cmd_lint,
        "metrics": _cmd_metrics,
        "budget": _cmd_budget,
    }[args.command]
    return handler(args)


# -- telemetry plumbing shared by the session commands -----------------------


def _begin_metrics(args: argparse.Namespace) -> bool:
    """Enable telemetry for this invocation when ``--metrics`` was given."""
    if getattr(args, "metrics", None) is None:
        return False
    telemetry.configure(True, reset=True)
    return True


def _finish_metrics(args: argparse.Namespace) -> None:
    """Export the telemetry snapshot to the ``--metrics`` destination."""
    telemetry.write_metrics(args.metrics, telemetry.snapshot())


# -- command implementations ------------------------------------------------


def _cmd_datasets(args: argparse.Namespace) -> int:
    entries = []
    for name, generator in sorted(DATASETS.items()):
        dataset = generator(seed=args.seed)
        entries.append({
            "name": name,
            "samples": dataset.n_samples,
            "features": dataset.n_features,
            "description": dataset.describe(),
        })
    text = "\n\n".join(entry["description"] for entry in entries)
    emit(args.format, text=text, payload={"datasets": entries})
    return 0


def _fitted_pipeline(args: argparse.Namespace) -> tuple:
    dataset = DATASETS[args.dataset](seed=args.seed)
    train, test = train_test_split(dataset, seed=args.seed)
    session = SessionConfig.from_args(
        args, paillier_bits=384, dgk_bits=192, seed=args.seed
    )
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(
            classifier=args.classifier, paillier_bits=384, dgk_bits=192,
            seed=args.seed,
            session=session,
        )
    ).fit(train)
    return pipeline, train, test


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    _begin_metrics(args)
    pipeline, _, _ = _fitted_pipeline(args)
    budgets = [float(b) for b in args.budgets.split(",") if b.strip()]
    points = TradeoffAnalyzer(pipeline).sweep(budgets)
    header = f"dataset={args.dataset} classifier={args.classifier}"
    text = header + "\n" + TradeoffAnalyzer.format_table(points)
    payload = {
        "dataset": args.dataset,
        "classifier": args.classifier,
        "points": [
            {
                "risk_budget": p.risk_budget,
                "achieved_risk": p.achieved_risk,
                "disclosed_count": p.disclosed_count,
                "disclosed_names": list(p.disclosed_names),
                "cost_seconds": p.cost_seconds,
                "speedup": p.speedup,
            }
            for p in points
        ],
    }
    emit(args.format, text=text, payload=payload)
    if getattr(args, "metrics", None) is not None:
        _finish_metrics(args)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.smc import wire
    from repro.smc.transport import InProcessTransport

    metered = _begin_metrics(args)
    pipeline, train, test = _fitted_pipeline(args)
    solution = pipeline.select_disclosure(args.budget)
    names = [train.features[i].name for i in solution.disclosed]
    lines = [
        f"disclosure (risk {solution.risk:.4f} <= {args.budget}): "
        f"{', '.join(names) or '(nothing)'}",
        f"modeled speedup over pure SMC: {pipeline.speedup():.1f}x",
    ]
    ctx = pipeline.make_context(seed=args.seed + 1)
    transport = InProcessTransport(wire.codec_for_context(ctx))
    lines.append("transport: inproc (canonical codec round-trip)")
    ctx.channel.transport = transport
    mismatches = 0
    rows = []
    payload = {
        "dataset": args.dataset,
        "classifier": args.classifier,
        "budget": args.budget,
        "risk": solution.risk,
        "disclosed": names,
        "speedup": pipeline.speedup(),
        "rows": rows,
    }
    for row_id, row in enumerate(test.X[: args.rows]):
        label = pipeline.classify(row, ctx=ctx)
        expected = pipeline.secure_model.predict_quantized(row)
        mismatches += label != expected
        rows.append({
            "row": row_id,
            "secure": int(label),
            "plaintext": int(expected),
            "match": bool(label == expected),
        })
        lines.append(
            f"row {row_id}: secure={label} plaintext={expected} "
            f"{'OK' if label == expected else 'MISMATCH'}"
        )
    lines.append(f"traffic: {ctx.trace.total_bytes} bytes over "
                 f"{ctx.trace.rounds} rounds")
    live_ops = {op.value: n for op, n in ctx.trace.ops.items()}
    payload["traffic"] = {
        "bytes": ctx.trace.total_bytes,
        "rounds": ctx.trace.rounds,
        "messages": ctx.trace.messages,
        "ops": live_ops,
    }
    measured = transport.stats.total_bytes
    payload["measured_bytes"] = measured
    if measured != ctx.trace.total_bytes:
        lines.append(f"WARNING: transport measured {measured} bytes; "
                     f"accounting disagrees")
        mismatches += 1
    if metered:
        telemetry_bytes = telemetry.wire_bytes_total(telemetry.snapshot())
        payload["telemetry_wire_bytes"] = telemetry_bytes
        if telemetry_bytes != ctx.trace.total_bytes:
            lines.append(
                f"WARNING: telemetry attributed {telemetry_bytes} wire "
                f"bytes; trace accounted {ctx.trace.total_bytes}"
            )
            mismatches += 1
        else:
            lines.append(
                f"telemetry wire bytes reconcile with the trace: "
                f"{telemetry_bytes} bytes"
            )
        counters = telemetry.snapshot()["counters"]
        published = {
            name[len("op."):]: value for name, value in counters.items()
            if name.startswith("op.")
        }
        if published != live_ops:
            lines.append(
                "WARNING: telemetry op.* counters disagree with the "
                "trace's ops"
            )
            mismatches += 1
    payload["mismatches"] = mismatches
    emit(args.format, text="\n".join(lines), payload=payload)
    if metered:
        _finish_metrics(args)
    return 1 if mismatches else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import socket

    from repro.core.serialization import load_deployment

    metered = _begin_metrics(args)
    deployed = load_deployment(args.bundle)
    config = SessionConfig(
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout_s=args.request_timeout,
        protocol_backend=args.backend or "paillier",
        shards=args.shards,
        telemetry=bool(metered),
        ledger_path=args.ledger,
        privacy_budget=args.privacy_budget,
    )
    if config.shards > 1:
        from repro.serving import ClassificationFleet

        fleet = ClassificationFleet(
            deployed, config=config, host=args.host, port=args.port
        )
        fleet.start()
        emit(
            args.format,
            text=(
                f"serving {args.bundle} ({deployed.kind}) on "
                f"{fleet.host}:{fleet.port} with {config.shards} shards x "
                f"{args.workers} workers (queue depth {args.queue_depth})\n"
                f"shutdown token: {fleet.shutdown_token}"
            ),
            payload={
                "bundle": args.bundle,
                "kind": deployed.kind,
                "host": fleet.host,
                "port": fleet.port,
                "shards": config.shards,
                "workers": args.workers,
                "queue_depth": args.queue_depth,
                "shutdown_token": fleet.shutdown_token,
            },
        )
        sys.stdout.flush()
        try:
            fleet.wait()
        finally:
            fleet.shutdown()
        if metered:
            _finish_metrics(args)
        return 0

    from repro.serving import ClassificationServer

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((args.host, args.port))
    listener.listen(max(4, args.workers + args.queue_depth))
    host, port = listener.getsockname()
    server = ClassificationServer(
        deployed, listener, config=config,
        max_connections=args.max_connections,
    )
    emit(
        args.format,
        text=(
            f"serving {args.bundle} ({deployed.kind}) on {host}:{port} "
            f"with {args.workers} workers (queue depth {args.queue_depth})\n"
            f"shutdown token: {server.shutdown_token}"
        ),
        payload={
            "bundle": args.bundle,
            "kind": deployed.kind,
            "host": host,
            "port": port,
            "workers": args.workers,
            "queue_depth": args.queue_depth,
            "shutdown_token": server.shutdown_token,
        },
    )
    sys.stdout.flush()
    with listener:
        server.serve_forever()
    if metered:
        _finish_metrics(args)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.classifiers import LogisticRegressionClassifier
    from repro.privacy.inversion import (
        ModelInversionAttack,
        augment_with_model_output,
    )

    cohort = generate_warfarin(seed=args.seed)
    model = LogisticRegressionClassifier(iterations=150).fit(
        cohort.X, cohort.y
    )
    augmented = augment_with_model_output(cohort, model)
    attack = ModelInversionAttack(augmented)
    demographics = [
        augmented.feature_index(n)
        for n in ("race", "age_decade", "height_bin", "weight_bin", "gender")
    ]
    table = Table("Model-inversion escalation",
                  ["target", "knowledge", "accuracy", "advantage"])
    records = []
    for target_name in ("vkorc1", "cyp2c9"):
        target = augmented.feature_index(target_name)
        reports = attack.escalation_curve(
            augmented.X[: args.victims], target, demographics
        )
        for stage, report in zip(
            ("prior", "+demographics", "+model output"), reports
        ):
            table.add_row([target_name, stage, report.attack_accuracy,
                           report.advantage])
            records.append({
                "target": target_name,
                "knowledge": stage,
                "accuracy": report.attack_accuracy,
                "advantage": report.advantage,
            })
    emit(args.format, text=table.render(), payload={"escalation": records})
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.smc.cost_model import calibrate_hardware_profile

    profile = calibrate_hardware_profile()
    table = Table(f"Calibrated profile: {profile.name}",
                  ["operation", "seconds"])
    op_seconds = {}
    for op, seconds in sorted(profile.op_seconds.items(),
                              key=lambda kv: kv[0].value):
        table.add_row([op.value, seconds])
        op_seconds[op.value] = seconds
    emit(
        args.format,
        text=table.render(),
        payload={"profile": profile.name, "op_seconds": op_seconds},
    )
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    import os

    from repro.privacy.ledger import LedgerError, PrivacyLedger

    if not os.path.exists(args.ledger):
        print(f"no ledger at {args.ledger}", file=sys.stderr)
        return 1
    with PrivacyLedger(args.ledger) as ledger:
        if args.action == "reset":
            if args.client is None and not args.reset_all:
                print("reset needs --client ID or --all", file=sys.stderr)
                return 1
            removed = ledger.reset(args.client)
            emit(
                args.format,
                text=f"forgot {removed} client(s) from {args.ledger}",
                payload={"ledger": args.ledger, "removed": removed},
            )
            return 0
        if args.action == "top":
            records = ledger.top(args.limit)
        elif args.client is not None:
            try:
                records = [ledger.client(args.client)]
            except LedgerError as error:
                print(str(error), file=sys.stderr)
                return 1
        else:
            records = [ledger.client(c) for c in ledger.clients()]
        table = Table(
            f"Privacy-budget ledger {args.ledger} "
            f"(schema v{ledger.schema_version})",
            ["client", "spent", "budget", "remaining", "disclosed",
             "charges"],
        )
        for record in records:
            table.add_row([
                record.client_id, record.spent, record.budget,
                record.remaining, len(record.disclosed), record.charges,
            ])
        payload = {
            "ledger": args.ledger,
            "schema_version": ledger.schema_version,
            "clients": [record.to_dict() for record in records],
        }
        lines = [table.render()]
        if args.action == "inspect" and args.client is not None and records:
            journal = ledger.charges(args.client, limit=args.limit)
            payload["charges"] = [charge.to_dict() for charge in journal]
            lines.append("recent charges (newest first):")
            for charge in journal:
                lines.append(
                    f"  {charge.created_at} {charge.request_id} "
                    f"mode={charge.mode} delta={charge.delta:.6f} "
                    f"features={list(charge.features)}"
                )
    emit(args.format, text="\n".join(lines), payload=payload)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    document = telemetry.load_metrics(args.path)
    problems = telemetry.validate_metrics(document)
    if args.check:
        for problem in problems:
            print(f"invalid metrics document: {problem}", file=sys.stderr)
        if problems:
            return 1
    if args.format == "json":
        emit("json", text="", payload=document)
    else:
        text = telemetry.render_text(document)
        total = telemetry.wire_bytes_total(document)
        if total:
            text += f"\nwire bytes total: {total}"
        emit("text", text=text, payload=document)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_defaults(self):
        args = build_parser().parse_args(["tradeoff"])
        assert args.dataset == "warfarin"
        assert args.classifier == "naive_bayes"

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tradeoff", "--dataset", "mnist"])


class TestDatasetsCommand:
    def test_lists_all_cohorts(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("warfarin-like", "adult-like", "cancer-like"):
            assert name in out
        assert "sensitive" in out


class TestTradeoffCommand:
    def test_prints_curve(self, capsys):
        code = main([
            "tradeoff", "--dataset", "cancer", "--classifier", "naive_bayes",
            "--budgets", "0,1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert out.count("\n") >= 5


class TestClassifyCommand:
    def test_live_rows_match(self, capsys):
        code = main([
            "classify", "--dataset", "cancer", "--classifier", "tree",
            "--budget", "0.2", "--rows", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "MISMATCH" not in out
        assert "speedup" in out


class TestAttackCommand:
    def test_escalation_table(self, capsys):
        assert main(["attack", "--victims", "150"]) == 0
        out = capsys.readouterr().out
        assert "vkorc1" in out
        assert "+model output" in out


class TestFormatFlag:
    def test_every_subcommand_has_format(self):
        parser = build_parser()
        cases = {
            "datasets": ["datasets"],
            "tradeoff": ["tradeoff"],
            "classify": ["classify"],
            "serve": ["serve", "--bundle", "b.json"],
            "attack": ["attack"],
            "calibrate": ["calibrate"],
            "lint": ["lint"],
            "metrics": ["metrics", "m.json"],
            "budget": ["budget", "inspect", "--ledger", "l.db"],
        }
        for name, argv in cases.items():
            args = parser.parse_args(argv)
            assert args.format == "text", name
            args = parser.parse_args(argv + ["--format", "json"])
            assert args.format == "json", name

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["datasets", "--format", "yaml"])

    def test_metrics_flag_only_on_session_commands(self):
        parser = build_parser()
        for argv in (["tradeoff"], ["classify"],
                     ["serve", "--bundle", "b.json"]):
            assert parser.parse_args(argv).metrics is None
        with pytest.raises(SystemExit):
            parser.parse_args(["attack", "--metrics", "out.json"])

    def test_datasets_json_roundtrip(self, capsys):
        import json

        assert main(["datasets", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload["datasets"]]
        assert names == ["adult", "cancer", "warfarin"]
        assert all(entry["samples"] > 0 for entry in payload["datasets"])

    def test_tradeoff_json_roundtrip(self, capsys):
        import json

        code = main([
            "tradeoff", "--dataset", "cancer", "--budgets", "0,1.0",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "cancer"
        budgets = [p["risk_budget"] for p in payload["points"]]
        assert budgets == [0.0, 1.0]
        assert all("speedup" in p for p in payload["points"])

    def test_calibrate_json_roundtrip(self, capsys):
        import json

        assert main(["calibrate", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["op_seconds"]
        assert all(v >= 0 for v in payload["op_seconds"].values())


class TestClassifyMetrics:
    def test_metrics_file_reconciles(self, tmp_path, capsys):
        import json

        import repro.telemetry as telemetry

        path = tmp_path / "metrics.json"
        try:
            code = main([
                "classify", "--dataset", "cancer", "--classifier", "tree",
                "--budget", "0.2", "--rows", "1", "--format", "json",
                "--metrics", str(path),
            ])
        finally:
            telemetry.configure(False, reset=True)
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        document = json.loads(path.read_text())
        assert telemetry.validate_metrics(document) == []
        assert telemetry.wire_bytes_total(document) == \
            payload["traffic"]["bytes"]
        assert payload["telemetry_wire_bytes"] == payload["traffic"]["bytes"]
        span_names = {s["name"] for s in document["spans"]}
        assert "pipeline.classify" in span_names
        assert "session.keygen" in span_names

    def test_op_counters_equal_the_live_trace(self, tmp_path, capsys):
        """Only the served query's ops reach ``op.*``: the optimizer's
        analytic traces (thousands of ``estimated_trace`` calls) do not."""
        import json

        import repro.telemetry as telemetry

        path = tmp_path / "metrics.json"
        try:
            code = main([
                "classify", "--dataset", "cancer", "--classifier", "tree",
                "--budget", "0.2", "--rows", "1", "--format", "json",
                "--metrics", str(path),
            ])
        finally:
            telemetry.configure(False, reset=True)
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        counters = json.loads(path.read_text())["counters"]
        published = {
            name[len("op."):]: value for name, value in counters.items()
            if name.startswith("op.")
        }
        assert published == payload["traffic"]["ops"]
        assert published

    def test_without_metrics_flag_telemetry_stays_off(self, capsys):
        import repro.telemetry as telemetry

        code = main([
            "classify", "--dataset", "cancer", "--classifier", "tree",
            "--budget", "0.2", "--rows", "1",
        ])
        capsys.readouterr()
        assert code == 0
        assert not telemetry.enabled()


class TestServeFleetMetrics:
    def test_fleet_metrics_document_covers_every_shard(
        self, warfarin_split, tmp_path, capsys
    ):
        """``serve --shards 2 --ledger ... --metrics ...`` stopped by its
        fleet token writes the shards' merged registries: every served
        request and every budget charge lives on a shard."""
        import json
        import socket
        import threading
        import time

        import repro.telemetry as telemetry
        from repro.api import PipelineConfig, PrivacyAwareClassifier
        from repro.core.serialization import save_deployment
        from repro.smc import wire
        from repro.smc.transport import request_classification

        n_requests = 3
        train, test = warfarin_split
        pipeline = PrivacyAwareClassifier(PipelineConfig(
            classifier="naive_bayes", risk_sample_rows=100,
            paillier_bits=384, dgk_bits=192,
        )).fit(train)
        pipeline.select_disclosure(0.1)
        bundle = str(tmp_path / "bundle.json")
        save_deployment(bundle, pipeline)
        metrics = tmp_path / "fleet-metrics.json"
        outcome = {}

        def serve():
            outcome["code"] = main([
                "serve", "--bundle", bundle, "--shards", "2",
                "--ledger", str(tmp_path / "fleet.db"),
                "--metrics", str(metrics), "--format", "json",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            out = ""
            deadline = time.monotonic() + 60
            while "shutdown_token" not in out:
                assert thread.is_alive() and time.monotonic() < deadline
                time.sleep(0.1)
                out += capsys.readouterr().out
            banner = json.loads(out)
            row = [int(v) for v in test.X[0]]
            for seed in range(n_requests):
                request_classification(
                    "127.0.0.1", banner["port"], row, seed=seed
                )
            with socket.create_connection(
                ("127.0.0.1", banner["port"]), timeout=10
            ) as sock:
                wire.send_frame(sock, wire.KIND_SHUTDOWN, wire.encode(
                    wire.shutdown_payload(banner["shutdown_token"])
                ))
                wire.recv_frame(sock)  # the "stopping" ack
            thread.join(timeout=60)
        finally:
            telemetry.configure(False, reset=True)
        assert not thread.is_alive()
        assert outcome["code"] == 0
        document = json.loads(metrics.read_text())
        assert telemetry.validate_metrics(document) == []
        counters = document["counters"]
        assert counters["fleet.routed"] == n_requests
        assert counters["serve.requests"] == n_requests
        assert counters["budget.requests"] == n_requests


class TestBudgetCommand:
    @pytest.fixture()
    def ledger_path(self, tmp_path):
        from repro.privacy.ledger import PrivacyLedger

        path = str(tmp_path / "budget.db")
        with PrivacyLedger(path, default_budget=0.3) as ledger:
            ledger.ensure_client("pk-aaaa")
            ledger.charge("pk-aaaa", features=[1, 2], delta=0.05,
                          spent_after=0.05, request_id="r1", mode="full")
            ledger.ensure_client("pk-bbbb")
        return path

    def test_inspect_lists_all_clients(self, ledger_path, capsys):
        assert main(["budget", "inspect", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "pk-aaaa" in out and "pk-bbbb" in out

    def test_inspect_one_client_shows_charges(self, ledger_path, capsys):
        assert main(["budget", "inspect", "--ledger", ledger_path,
                     "--client", "pk-aaaa"]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "mode=full" in out
        assert "pk-bbbb" not in out

    def test_json_format(self, ledger_path, capsys):
        import json

        assert main(["budget", "top", "--ledger", ledger_path,
                     "--limit", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] >= 2
        assert [c["client_id"] for c in payload["clients"]] == ["pk-aaaa"]

    def test_reset_requires_target(self, ledger_path, capsys):
        assert main(["budget", "reset", "--ledger", ledger_path]) == 1
        assert "--client" in capsys.readouterr().err

    def test_reset_one_client(self, ledger_path, capsys):
        assert main(["budget", "reset", "--ledger", ledger_path,
                     "--client", "pk-bbbb"]) == 0
        assert "1 client(s)" in capsys.readouterr().out

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.db")
        assert main(["budget", "inspect", "--ledger", missing]) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_unknown_client_is_an_error(self, ledger_path, capsys):
        assert main(["budget", "inspect", "--ledger", ledger_path,
                     "--client", "pk-ghost"]) == 1
        assert "pk-ghost" in capsys.readouterr().err

    def test_no_metrics_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["budget", "inspect", "--ledger", "l.db",
                 "--metrics", "m.json"]
            )


class TestMetricsCommand:
    def test_check_accepts_valid_document(self, tmp_path, capsys):
        import json

        from repro.telemetry import SCHEMA

        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "schema": SCHEMA,
            "counters": {"op.x": 3},
            "histograms": {},
            "spans": [],
        }))
        assert main(["metrics", str(path), "--check"]) == 0
        assert "op.x" in capsys.readouterr().out

    def test_check_rejects_mangled_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope", "counters": 3}')
        assert main(["metrics", str(path), "--check"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_json_format_echoes_document(self, tmp_path, capsys):
        import json

        path = tmp_path / "doc.json"
        document = {"schema": "repro.telemetry/v1", "counters": {},
                    "histograms": {}, "spans": []}
        path.write_text(json.dumps(document))
        assert main(["metrics", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == document

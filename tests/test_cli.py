"""Command-line interface: offline subcommands end to end."""

import hashlib
import json
import socket

import pytest

from repro.cli import build_parser, main

#: Registry instruments that only copied a number a service already
#: reports in its own stats pairs (or that timed the consumer too).
_DELETED_REGISTRY_COPIES = (
    "ted_dedup_logical_chunks_total",
    "ted_dedup_logical_bytes_total",
    "ted_dedup_unique_chunks_total",
    "ted_dedup_unique_bytes_total",
    "ted_dedup_duplicate_chunks_total",
    "ted_dedup_ratio",
    "ted_provider_tenants",
    "ted_keymanager_keygen_requests_total",
    "ted_keymanager_tunes_total",
    "ted_keymanager_t",
    "ted_wire_server_events_total",
    "ted_chunking_call_seconds",
    "ted_kernel_batch_size",
    "ted_kernel_seconds",
    "ted_kernel_bytes_total",
    "ted_sketch_estimates_total",
    "ted_sketch_estimate_seconds",
    "ted_chunking_chunks_total",
    "ted_client_operations_total",
    "ted_client_bytes_total",
    "ted_client_chunks_total",
    "ted_client_fp_cache_events_total",
    "ted_container_sealed_bytes_total",
    "ted_keymanager_batch_size",
    "ted_keymanager_batch_seconds",
    "ted_keymanager_state_batches_logged_total",
    "ted_wal_appends_total",
    "ted_shard_routed_batches_total",
    "ted_shard_imbalance",
    "ted_scrub_passes_total",
    "ted_slo_window_p50_seconds",
    "ted_loadgen_tenant_ops_total",
    "ted_scrub_chunks_healed_total",
    "ted_scrub_entries_dropped_total",
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate-trace", "--out", "/tmp/x"],
            ["analyze", "trace.trc"],
            ["tune", "trace.trc", "--b", "1.2"],
            ["upload", "file.bin"],
            ["download", "name", "--out", "o.bin"],
            ["stats", "--km", "127.0.0.1:9401", "--format", "prom"],
            ["trace", "--size-kb", "64"],
        ],
    )
    def test_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_endpoints_parse_to_address_tuples(self):
        args = build_parser().parse_args(["upload", "f", "--km", ":7"])
        assert args.km == ("127.0.0.1", 7)
        assert args.provider == ("127.0.0.1", 9402)

    @pytest.mark.parametrize("command", ["stats", "upload", "loadgen"])
    @pytest.mark.parametrize("flag", ["--km", "--provider"])
    def test_malformed_endpoint_is_a_usage_error(self, command, flag, capsys):
        argv = [command, flag, "localhost"]
        if command == "upload":
            argv.append("file.bin")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "'localhost'" in err

    @pytest.mark.parametrize("command", ["upload", "download"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--workers", "0"],
            ["--batch-size", "0"],
            ["--sketch-width", "0"],
            ["--fp-cache", "-1"],
            ["--crypto-workers", "2"],  # removed flags stay removed
            ["--pipeline-depth", "4"],
        ],
        ids="=".join,
    )
    def test_bad_client_flag_exits_2_before_connecting(
        self, command, flag, tmp_path
    ):
        """A bad numeric flag is a usage error raised while parsing:
        pointed at a closed port, the call exits 2 instead of failing to
        connect (or connecting first and raising a traceback)."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            closed = f"127.0.0.1:{probe.getsockname()[1]}"
        target = tmp_path / "f.bin"
        target.write_bytes(b"x" * 100)
        argv = [command, "--km", closed, "--provider", closed, *flag]
        if command == "upload":
            argv.append(str(target))
        else:
            argv += ["f.bin", "--out", str(tmp_path / "out.bin")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestOfflineCommands:
    def test_generate_and_analyze_and_tune(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(
            [
                "generate-trace",
                "--flavor",
                "fsl",
                "--snapshots",
                "1",
                "--scale",
                "0.05",
                "--out",
                str(out_dir),
            ]
        ) == 0
        traces = sorted(out_dir.glob("*.trc"))
        assert traces

        assert main(
            ["analyze", str(traces[0]), "--b", "1.1", "--sketch-width", "4096"]
        ) == 0
        captured = capsys.readouterr().out
        assert "MLE" in captured
        assert "FTED(b=1.1)" in captured

        assert main(["tune", str(traces[0]), "--b", "1.1"]) == 0
        captured = capsys.readouterr().out
        assert "t=" in captured

    def test_ms_flavor(self, tmp_path, capsys):
        out_dir = tmp_path / "ms"
        assert main(
            [
                "generate-trace",
                "--flavor",
                "ms",
                "--snapshots",
                "1",
                "--scale",
                "0.05",
                "--out",
                str(out_dir),
            ]
        ) == 0
        assert list(out_dir.glob("ms-*.trc"))


class TestNetworkedCommands:
    def test_upload_download_via_cli(self, tmp_path, capsys):
        # Spin servers programmatically, then drive the CLI client paths.
        from repro.core.ted import TedKeyManager
        from repro.tedstore.keymanager import KeyManagerService
        from repro.tedstore.network import serve_key_manager, serve_provider
        from repro.tedstore.provider import ProviderService

        km = KeyManagerService(
            TedKeyManager(
                secret=b"cli-secret",
                blowup_factor=1.05,
                batch_size=1000,
                sketch_width=2**14,
            )
        )
        provider = ProviderService(in_memory=True)
        source = tmp_path / "payload.bin"
        source.write_bytes(hashlib.sha256(b"cli").digest() * 2000)
        restored = tmp_path / "restored.bin"
        key_file = tmp_path / "master.key"
        key_file.write_bytes(b"cli-master-secret")

        with serve_key_manager(km) as kmh, serve_provider(provider) as prh:
            km_addr = f"{kmh.address[0]}:{kmh.address[1]}"
            pr_addr = f"{prh.address[0]}:{prh.address[1]}"
            common = [
                "--km", km_addr,
                "--provider", pr_addr,
                "--master-key", str(key_file),
                "--sketch-width", str(2**14),
                "--batch-size", "1000",
            ]
            assert main(["upload", *common, str(source), "--name", "f"]) == 0
            assert main(
                ["download", *common, "f", "--out", str(restored)]
            ) == 0

            capsys.readouterr()
            assert main(
                ["stats", "--km", km_addr, "--provider", pr_addr]
            ) == 0
            out = capsys.readouterr().out
            assert "[key_manager]" in out
            assert "[provider]" in out
            assert "requests" in out

            assert main(
                ["stats", "--km", km_addr, "--format", "prom"]
            ) == 0
            out = capsys.readouterr().out
            assert 'entity="key_manager"' in out

            assert main(
                ["stats", "--km", km_addr, "--provider", pr_addr,
                 "--format", "json"]
            ) == 0
            sections = json.loads(capsys.readouterr().out)
        assert restored.read_bytes() == source.read_bytes()
        # Each number comes from one source: the services' own pairs.
        prov, keys = sections["provider"], sections["key_manager"]
        assert prov["logical_bytes"] >= prov["unique_bytes"] > 0
        assert prov["tenants"] == 1 and prov["server_connections"] >= 1
        assert keys["requests"] > 0 and keys["current_t"] >= 1
        assert "batches_tuned" in keys
        for section in (prov, keys):
            names = {key.split("{", 1)[0] for key in section}
            for gone in _DELETED_REGISTRY_COPIES:
                assert gone not in names and f"{gone}_count" not in names

    def test_stats_requires_a_target(self, capsys):
        assert main(["stats"]) == 2


class TestFsckCommand:
    def _build_store(self, root):
        from repro.storage.dedup import DedupEngine

        engine = DedupEngine(root, container_bytes=1024)
        for i in range(10):
            chunk = bytes([i % 251]) * 400
            engine.store(hashlib.sha256(chunk).digest(), chunk)
        engine.flush()
        engine.close()

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        import json

        self._build_store(tmp_path)
        assert main(["fsck", "--storage", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["bad_chunk_count"] == 0

    def test_corrupt_chunk_exits_one(self, tmp_path, capsys):
        import json

        self._build_store(tmp_path)
        victim = next((tmp_path / "containers").glob("container-*.bin"))
        blob = bytearray(victim.read_bytes())
        blob[10] ^= 0xFF  # inside the data section, past the magic
        victim.write_bytes(bytes(blob))
        assert main(["fsck", "--storage", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert report["bad_chunk_count"] == 1

    def test_repair_restores_clean_verdict(self, tmp_path, capsys):
        self._build_store(tmp_path)
        victim = next((tmp_path / "containers").glob("container-*.bin"))
        blob = bytearray(victim.read_bytes())
        blob[10] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["fsck", "--storage", str(tmp_path), "--repair"]) == 1
        out = capsys.readouterr().out
        assert "dropped" in out or "healed" in out
        # Post-repair the store serves only verified data: clean.
        assert main(["fsck", "--storage", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_prints_span_tree_and_prometheus(self, capsys):
        assert main(["trace", "--size-kb", "64"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "client.upload" in out
        assert "client.download" in out
        assert "keymanager.keygen" in out
        assert "provider.put_chunks" in out
        assert "# TYPE ted_chunking_bytes_total counter" in out

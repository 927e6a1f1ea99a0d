"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_requires_endpoints_and_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--source", "1"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "atlantis"])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["stats"]).command == "stats"
        assert parser.parse_args(["build", "--tau", "10"]).tau == 10
        args = parser.parse_args(
            ["route", "--source", "0", "--destination", "5", "--budget", "300"]
        )
        assert args.budget == 300.0
        assert parser.parse_args(["bench", "table7"]).experiment == "table7"

    @pytest.mark.parametrize("method", ["T-BS-240", "V-BS-30", "T-B-EU"])
    def test_parameterised_method_names_accepted(self, method):
        # The old parser listed only the *-BS-60 palette as choices; any name
        # MethodSpec parses must work from the shell.
        args = build_parser().parse_args(
            ["route", "--method", method, "--source", "0", "--destination", "5",
             "--budget", "300"]
        )
        assert args.method == method
        prewarm = build_parser().parse_args(
            ["prewarm", "--method", method, "--destinations", "5", "--artifacts", "store"]
        )
        assert prewarm.method == method

    def test_unknown_method_rejected_with_palette(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["route", "--method", "V-B-EU", "--source", "0", "--destination", "5",
                 "--budget", "300"]
            )
        assert "unknown routing method" in capsys.readouterr().err

    def test_route_batch_parses(self):
        args = build_parser().parse_args(
            ["route-batch", "--input", "requests.jsonl", "--backend", "process",
             "--workers", "2"]
        )
        assert args.command == "route-batch"
        assert args.backend == "process"
        assert args.workers == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "--source", "0", "--destination", "5", "--budget", "300",
             "--heuristics", "h.json"],
            ["route-batch", "--input", "r.jsonl", "--heuristics", "h.json"],
            ["route-batch", "--input", "r.jsonl", "--backend", "thread"],
            ["prewarm", "--destinations", "5", "--artifacts", "store", "--out", "h.json"],
            ["prewarm", "--destinations", "5"],
        ],
        ids=["route-heuristics", "batch-heuristics", "batch-thread", "prewarm-out",
             "prewarm-no-store"],
    )
    def test_bundle_and_thread_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-artifacts", "--out", "store", "--format", "v1"],
            ["migrate-artifacts", "store", "--format", "v2"],
            ["catalog", "migrate", "--db", "catalog.sqlite", "--all", "--to", "v2"],
        ],
        ids=["build-format", "migrate-format", "catalog-migrate-to"],
    )
    def test_format_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_stats_prints_table(self, capsys):
        assert main(["stats", "--dataset", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "Number of vertices" in output

    def test_build_reports_index_sizes(self, capsys):
        assert main(["build", "--dataset", "tiny", "--tau", "20"]) == 0
        output = capsys.readouterr().out
        assert "T-paths" in output and "V-paths" in output

    def test_route_found(self, capsys, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        exit_code = main(
            [
                "route",
                "--dataset",
                "tiny",
                "--method",
                "V-B-P",
                "--source",
                str(trajectory.path.source),
                "--destination",
                str(trajectory.path.target),
                "--budget",
                str(trajectory.total_cost * 2),
                "--tau",
                "20",
            ]
        )
        assert exit_code == 0
        assert "P(arrive within" in capsys.readouterr().out

    def test_route_not_found_returns_nonzero(self, capsys, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        exit_code = main(
            [
                "route",
                "--dataset",
                "tiny",
                "--method",
                "T-B-P",
                "--source",
                str(trajectory.path.source),
                "--destination",
                str(trajectory.path.target),
                "--budget",
                "1",
            ]
        )
        assert exit_code == 1
        assert "no path" in capsys.readouterr().out

    def test_bench_table7(self, capsys):
        assert main(["bench", "table7", "--dataset", "tiny"]) == 0
        assert "Table 7" in capsys.readouterr().out

    def test_route_batch_jsonl_end_to_end(self, capsys, tmp_path, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        requests = tmp_path / "requests.jsonl"
        responses_path = tmp_path / "responses.jsonl"
        lines = [
            json.dumps(
                {
                    "source": trajectory.path.source,
                    "destination": trajectory.path.target,
                    "budget": trajectory.total_cost * 2,
                    "request_id": "good",
                }
            ),
            "this is not json",
            json.dumps(
                {"source": 0, "destination": 999999, "budget": 100.0, "request_id": "missing"}
            ),
        ]
        requests.write_text("\n".join(lines) + "\n", encoding="utf-8")
        exit_code = main(
            [
                "route-batch",
                "--dataset",
                "tiny",
                "--method",
                "T-B-P",
                "--input",
                str(requests),
                "--output",
                str(responses_path),
                "--tau",
                "20",
            ]
        )
        assert exit_code == 1  # some requests failed; pipelines can gate on it
        decoded = [
            json.loads(line)
            for line in responses_path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(decoded) == 3
        assert decoded[0]["ok"] and decoded[0]["request_id"] == "good"
        assert decoded[0]["method"] == "T-B-P"
        assert decoded[0]["probability"] > 0
        assert not decoded[1]["ok"]
        assert decoded[1]["error"]["code"] == "invalid_request"
        assert not decoded[2]["ok"]
        assert decoded[2]["error"]["code"] == "unknown_vertex"
        assert decoded[2]["request_id"] == "missing"

    def test_route_batch_stdout(self, capsys, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        import io
        import sys as _sys

        payload = json.dumps(
            {
                "source": trajectory.path.source,
                "destination": trajectory.path.target,
                "budget": trajectory.total_cost * 2,
            }
        )
        stdin = _sys.stdin
        _sys.stdin = io.StringIO(payload + "\n")
        try:
            exit_code = main(
                ["route-batch", "--dataset", "tiny", "--method", "T-B-P",
                 "--input", "-", "--tau", "20"]
            )
        finally:
            _sys.stdin = stdin
        assert exit_code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert json.loads(out[0])["ok"]

    def test_prewarm_into_store_then_route(self, capsys, tmp_path, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        destination = trajectory.path.target
        store = tmp_path / "store"
        assert main(
            [
                "build-artifacts",
                "--dataset",
                "tiny",
                "--out",
                str(store),
                "--sweeps",
                "1",
                "--max-budget",
                str(max(600.0, trajectory.total_cost * 4)),
            ]
        ) == 0
        assert main(
            [
                "prewarm",
                "--artifacts",
                str(store),
                "--method",
                "T-BS-60",
                "--destinations",
                str(destination),
            ]
        ) == 0
        assert "store entries" in capsys.readouterr().out
        exit_code = main(
            [
                "route",
                "--artifacts",
                str(store),
                "--method",
                "T-BS-60",
                "--source",
                str(trajectory.path.source),
                "--destination",
                str(destination),
                "--budget",
                str(trajectory.total_cost * 2),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "P(arrive within" in output

    def test_build_artifacts_then_serve_from_store(self, capsys, tmp_path, small_dataset):
        """The deployment pipeline end to end: mine once, serve from disk."""
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        destination = trajectory.path.target
        budget = trajectory.total_cost * 2
        store = tmp_path / "store"
        assert main(
            [
                "build-artifacts",
                "--dataset",
                "tiny",
                "--out",
                str(store),
                "--method",
                "T-BS-60",
                "--destinations",
                str(destination),
                "--max-budget",
                str(max(600.0, budget * 2)),
                "--sweeps",
                "2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "pace fingerprint" in output
        assert (store / "manifest.json").exists()

        # route boots from the store instead of re-mining.
        exit_code = main(
            [
                "route",
                "--artifacts",
                str(store),
                "--method",
                "T-BS-60",
                "--source",
                str(trajectory.path.source),
                "--destination",
                str(destination),
                "--budget",
                str(budget),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "P(arrive within" in output

        # route-batch boots from the store too (serial backend here; the
        # multiprocess path is covered in tests/test_backends.py).
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps(
                {
                    "source": trajectory.path.source,
                    "destination": destination,
                    "budget": budget,
                }
            )
            + "\n"
        )
        exit_code = main(
            [
                "route-batch",
                "--artifacts",
                str(store),
                "--method",
                "T-BS-60",
                "--input",
                str(requests),
                "--output",
                str(tmp_path / "responses.jsonl"),
            ]
        )
        assert exit_code == 0
        response = json.loads((tmp_path / "responses.jsonl").read_text().splitlines()[0])
        assert response["ok"] is True

    def test_prewarm_updates_artifact_store_in_place(self, capsys, tmp_path, small_dataset):
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        destination = trajectory.path.target
        store = tmp_path / "store"
        assert main(
            ["build-artifacts", "--dataset", "tiny", "--out", str(store), "--sweeps", "1"]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "prewarm",
                "--artifacts",
                str(store),
                "--method",
                "T-B-P",
                "--destinations",
                str(destination),
            ]
        ) == 0
        assert "store entries" in capsys.readouterr().out
        from repro.persistence.store import ArtifactStore

        manifest = ArtifactStore.open(store).manifest
        # v2 default layout: one addressable document per prewarmed heuristic.
        assert manifest.heuristic_entry_names()

    def test_prewarm_requires_a_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["prewarm", "--method", "T-B-P", "--destinations", "3"])
        assert excinfo.value.code == 2
        assert "--artifacts" in capsys.readouterr().err

    def test_route_from_missing_store_fails_cleanly(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "route",
                    "--artifacts",
                    str(tmp_path / "nowhere"),
                    "--source",
                    "0",
                    "--destination",
                    "1",
                    "--budget",
                    "100",
                ]
            )
        # Exit 2 = operational error, never confusable with route's exit 1
        # ("no route found").
        assert excinfo.value.code == 2
        assert "no artifact store" in capsys.readouterr().err

    def test_route_budget_above_store_coverage_errors(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(
            [
                "build-artifacts",
                "--dataset",
                "tiny",
                "--out",
                str(store),
                "--max-budget",
                "300",
                "--sweeps",
                "1",
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "route",
                "--artifacts",
                str(store),
                "--method",
                "T-BS-60",
                "--source",
                "0",
                "--destination",
                "1",
                "--budget",
                "500",
            ]
        ) == 2
        assert "heuristic-table coverage" in capsys.readouterr().err

    def test_route_batch_rejects_max_budget_with_artifacts(self, capsys, tmp_path):
        assert main(
            [
                "route-batch",
                "--artifacts",
                str(tmp_path / "store"),
                "--input",
                str(tmp_path / "requests.jsonl"),
                "--max-budget",
                "5000",
            ]
        ) == 2
        assert "cannot be combined with --artifacts" in capsys.readouterr().err

    def test_prewarm_artifacts_preserves_mine_provenance(self, capsys, tmp_path):
        """Re-saving the store in place must not drop the recorded mine time."""
        store = tmp_path / "store"
        assert main(
            ["build-artifacts", "--dataset", "tiny", "--out", str(store), "--sweeps", "1"]
        ) == 0
        capsys.readouterr()
        from repro.persistence.store import ArtifactStore

        before = ArtifactStore.open(store).manifest.provenance
        assert "mine_seconds" in before
        assert main(
            ["prewarm", "--artifacts", str(store), "--method", "T-B-P", "--destinations", "3"]
        ) == 0
        after = ArtifactStore.open(store).manifest.provenance
        assert after["mine_seconds"] == before["mine_seconds"]
        assert after["heuristic_entries"] >= 1

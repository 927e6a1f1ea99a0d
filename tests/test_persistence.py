"""Tests for persistence of the routable index and the heuristics."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.distributions import Distribution
from repro.core.errors import DataError
from repro.datasets.paper_example import VD, VS
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic
from repro.heuristics.binary import BinaryHeuristic
from repro.persistence.codecs import (
    decode_column_document,
    distribution_from_dict,
    distribution_to_dict,
    encode_column_document,
    is_column_document,
    strict_json_dumps,
    strict_json_loads,
)
from repro.persistence.heuristics import (
    HeuristicEntry,
    HeuristicSlot,
    decode_heuristic_entry,
    encode_heuristic_entry,
)
from repro.persistence.index import index_from_column_bytes, index_to_column_bytes
from repro.persistence.legacy import (
    binary_heuristic_from_dict,
    budget_heuristic_from_dict,
    heuristic_bundle_entries,
    heuristic_table_from_dict,
    index_from_dict,
    joint_from_dict,
)
from repro.routing import RouterSettings, RoutingQuery, create_router
from repro.vpaths.updated_graph import UpdatedPaceGraph

#: The v1 store fixture (see its README); its documents feed the legacy decoders.
TINY_V1_STORE = Path(__file__).parent / "fixtures" / "tiny-v1-store"


def _v1_document(prefix: str) -> dict:
    """The v1 fixture store's JSON document whose filename starts with ``prefix``."""
    (path,) = TINY_V1_STORE.glob(f"{prefix}-*.json")
    return json.loads(path.read_text())


class TestCodecs:
    def test_distribution_round_trip(self):
        original = Distribution.from_pairs([(8, 0.9), (10, 0.1)])
        assert distribution_from_dict(distribution_to_dict(original)) == original

    def test_distribution_malformed(self):
        with pytest.raises(DataError):
            distribution_from_dict({"costs": [1, 2]})
        with pytest.raises(DataError):
            distribution_from_dict({"costs": [1, 2], "probabilities": [1.0]})

    def test_joint_malformed(self):
        with pytest.raises(DataError):
            joint_from_dict({"edge_ids": [1]})

    def test_array_backed_distribution_is_json_serialisable(self):
        """The NumPy-backed kernel must round-trip through actual JSON text."""
        import json

        original = Distribution.from_pairs([(8, 0.9), (10, 0.1)])
        convolved = original.convolve(original, max_support=4)
        payload = json.dumps(distribution_to_dict(convolved))
        restored = distribution_from_dict(json.loads(payload))
        assert restored == convolved
        assert all(isinstance(c, float) for c in json.loads(payload)["costs"])


class TestColumnCodec:
    """The framed binary column container behind the v2 artifacts."""

    def _sample(self):
        import numpy as np

        meta = {"format_version": 2, "kind": "sample", "tau": 20}
        columns = {
            "floats": np.array([0.125, float("inf"), -3.5]),
            "ints": np.arange(4, dtype=np.int64),
            "empty": np.array([], dtype=float),
        }
        return meta, columns

    def test_round_trip_is_bit_exact(self):
        import numpy as np

        meta, columns = self._sample()
        blob = encode_column_document(meta, columns)
        assert is_column_document(blob)
        restored_meta, restored = decode_column_document(blob)
        assert restored_meta == meta
        for name, column in columns.items():
            assert restored[name].tobytes() == np.ascontiguousarray(column).tobytes()
        # decoded arrays are fresh and writable, never views of the input
        restored["floats"][0] = 99.0

    def test_encoding_is_deterministic(self):
        meta, columns = self._sample()
        assert encode_column_document(meta, columns) == encode_column_document(meta, columns)

    def test_rejects_wrong_magic_truncation_corruption_and_trailing_bytes(self):
        meta, columns = self._sample()
        blob = encode_column_document(meta, columns)
        with pytest.raises(DataError, match="bad magic"):
            decode_column_document(b"JSON" + blob[4:])
        for cut in (2, len(blob) // 3, len(blob) - 1):
            with pytest.raises(DataError):
                decode_column_document(blob[:cut])
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0xFF
        with pytest.raises(DataError):
            decode_column_document(bytes(flipped))
        with pytest.raises(DataError, match="trailing bytes"):
            decode_column_document(blob + b"\x00")

    def test_rejects_non_columnar_shapes_and_dtypes(self):
        import numpy as np

        with pytest.raises(DataError, match="one-dimensional"):
            encode_column_document({}, {"m": np.zeros((2, 2))})
        with pytest.raises(DataError, match="unsupported dtype"):
            encode_column_document({}, {"s": np.array(["a", "b"])})


class TestColumnarIndex:
    """The v2 columnar index document (format dispatch, bit-exact identity)."""

    def test_column_round_trip_preserves_content_fingerprints(self, paper_example):
        updated, _ = UpdatedPaceGraph.build(paper_example.pace_graph)
        restored = index_from_column_bytes(index_to_column_bytes(updated))
        assert (
            restored.pace_graph.content_fingerprint()
            == paper_example.pace_graph.content_fingerprint()
        )
        assert restored.content_fingerprint() == updated.content_fingerprint()

    def test_column_round_trip_without_vpaths(self, paper_example):
        restored = index_from_column_bytes(index_to_column_bytes(paper_example.pace_graph))
        assert restored.num_vpaths == 0
        assert (
            restored.pace_graph.content_fingerprint()
            == paper_example.pace_graph.content_fingerprint()
        )

    def test_routing_on_columnar_index_matches(self, paper_example):
        updated, _ = UpdatedPaceGraph.build(paper_example.pace_graph)
        restored = index_from_column_bytes(index_to_column_bytes(updated))
        settings = RouterSettings(max_budget=64)
        query = RoutingQuery(VS, VD, budget=30)
        original = create_router(
            "T-B-P", paper_example.pace_graph, updated, settings=settings
        ).route(query)
        reloaded = create_router(
            "T-B-P", restored.pace_graph, restored, settings=settings
        ).route(query)
        assert reloaded.path.edges == original.path.edges
        assert reloaded.probability == original.probability


class TestHeuristicEntryCodec:
    """The per-entry v2 heuristic documents and their addressable keys."""

    def _budget_entry(self, paper_example):
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=8.0, max_budget=64.0)
        )
        return HeuristicEntry(
            HeuristicSlot("budget", 8.0, "pace", VD),
            heuristic,
            graph_fingerprint=paper_example.pace_graph.content_fingerprint(),
            graph_signature=(1, 2, 3),
        )

    def test_budget_entry_round_trip_is_cell_exact(self, paper_example):
        entry = self._budget_entry(paper_example)
        blob = encode_heuristic_entry(entry)
        restored = decode_heuristic_entry(blob)
        assert restored.slot == entry.slot
        assert restored.graph_fingerprint == entry.graph_fingerprint
        assert restored.graph_signature == entry.graph_signature
        assert restored.admissible and entry.admissible
        original, decoded = entry.heuristic, restored.heuristic
        assert (decoded.table.delta, decoded.table.eta) == (original.table.delta, original.table.eta)
        assert decoded.table.rows.keys() == original.table.rows.keys()
        for vertex, row in original.table.rows.items():
            other = decoded.table.rows[vertex]
            assert other.first_index == row.first_index
            assert other.values.tobytes() == row.values.tobytes()
        assert decoded.binary.min_cost_map() == original.binary.min_cost_map()
        # Decode -> encode writes the same bytes (what makes a migrate idempotent).
        assert encode_heuristic_entry(restored) == blob

    def test_binary_entry_round_trips_infinite_get_min_natively(self):
        entry = HeuristicEntry(
            HeuristicSlot("binary", "P", "pace", 7),
            BinaryHeuristic(7, {7: 0.0, 1: 12.5, 2: float("inf")}),
            graph_fingerprint="f" * 32,
            graph_signature=(4, 5, 6),
        )
        blob = encode_heuristic_entry(entry)
        restored = decode_heuristic_entry(blob)
        assert restored.key == "binary-P-7"
        assert restored.heuristic.min_cost(2) == float("inf")
        assert restored.heuristic.min_cost(1) == 12.5
        assert encode_heuristic_entry(restored) == blob

    def test_entry_keys_are_stable_and_distinct(self, paper_example):
        budget = self._budget_entry(paper_example)
        assert budget.key == f"budget-8.0-pace-{VD}"
        assert HeuristicSlot("budget", 8.0, "updated", VD).key == f"budget-8.0-updated-{VD}"
        assert HeuristicSlot("budget", 0.1, "pace", 3).key == "budget-0.1-pace-3"
        assert HeuristicSlot("binary", "EU", "pace", 3).key == "binary-EU-3"
        with pytest.raises(DataError, match="unknown heuristic entry kind"):
            HeuristicSlot("mystery", "P", "pace", 1)

    def test_entry_refuses_a_heuristic_of_another_kind_or_destination(self):
        binary = BinaryHeuristic(7, {7: 0.0, 1: 12.5})
        with pytest.raises(DataError, match="destination 8 holds the heuristic of destination 7"):
            HeuristicEntry(HeuristicSlot("binary", "P", "pace", 8), binary)
        with pytest.raises(DataError, match="budget heuristic entry holds a BinaryHeuristic"):
            HeuristicEntry(HeuristicSlot("budget", 8.0, "pace", 7), binary)

    def test_decode_rejects_non_entry_documents(self):
        import numpy as np

        blob = encode_column_document({"kind": "something"}, {"c": np.zeros(1)})
        with pytest.raises(DataError, match="not a heuristic entry document"):
            decode_heuristic_entry(blob)

    def test_decode_rejects_malformed_columns_and_tags(self, paper_example):
        import numpy as np

        meta, columns = decode_column_document(
            encode_heuristic_entry(self._budget_entry(paper_example))
        )

        def decode(meta=meta, **changed):
            document = {**columns, **changed}
            document = {name: column for name, column in document.items() if column is not None}
            return decode_heuristic_entry(encode_column_document(meta, document))

        with pytest.raises(DataError, match="row_cell holds"):
            decode(row_cell_count=columns["row_cell_count"] + 1)
        with pytest.raises(DataError, match="row columns hold"):
            decode(row_first_index=columns["row_first_index"][:-1])
        with pytest.raises(DataError, match="malformed heuristic entry document"):
            decode(binary_vertex=None)
        with pytest.raises(DataError, match="NaN getMin"):
            decode(binary_min_cost=np.full(columns["binary_min_cost"].size, np.nan))
        with pytest.raises(DataError, match="getMin vertices"):
            decode(binary_min_cost=columns["binary_min_cost"][:-1])
        retagged = {**meta, "tags": {**meta["tags"], "destination": VD + 1}}
        with pytest.raises(DataError, match="destination"):
            decode(meta=retagged)
        with pytest.raises(DataError, match="malformed heuristic entry document"):
            decode(meta={**meta, "grid_rounding": "sideways"})

    def test_floor_document_decodes_inadmissible_and_re_encodes_verbatim(self, paper_example):
        """A document recording the paper's floor rounding is input from outside.

        Tables are only built rounding up, so such a document comes from an
        earlier release; it decodes as an inadmissible entry and encodes back
        to the same bytes.
        """
        meta, columns = decode_column_document(
            encode_heuristic_entry(self._budget_entry(paper_example))
        )
        assert meta["grid_rounding"] == "ceil"
        blob = encode_column_document({**meta, "grid_rounding": "floor"}, columns)
        restored = decode_heuristic_entry(blob)
        assert not restored.admissible
        assert encode_heuristic_entry(restored) == blob


class TestIndexPersistence:
    def test_round_trip_preserves_path_costs(self, paper_example):
        updated, _ = UpdatedPaceGraph.build(paper_example.pace_graph)
        restored = index_from_column_bytes(index_to_column_bytes(updated))
        assert restored.pace_graph.num_tpaths == paper_example.pace_graph.num_tpaths
        assert restored.num_vpaths == updated.num_vpaths
        for edge_ids in [(1, 4, 9), (1, 5, 6, 8), (2, 3, 6, 8)]:
            route = paper_example.network.path_from_edge_ids(list(edge_ids))
            original = paper_example.pace_graph.path_cost_distribution(route)
            rebuilt = restored.pace_graph.path_cost_distribution(
                restored.network.path_from_edge_ids(list(edge_ids))
            )
            assert rebuilt == original

    def test_malformed_payload(self):
        with pytest.raises(DataError):
            index_from_dict({"format_version": 1})
        with pytest.raises(DataError):
            index_from_dict({"format_version": 99})

    def test_non_numeric_edge_id_is_data_error(self):
        """Regression: int('not-an-id') used to escape as a bare ValueError."""
        payload = _v1_document("index")
        weights = dict(payload["edge_weights"])
        weights["not-an-id"] = next(iter(weights.values()))
        payload["edge_weights"] = weights
        with pytest.raises(DataError, match="malformed index payload"):
            index_from_dict(payload)


class TestHeuristicPersistence:
    def test_binary_malformed(self):
        with pytest.raises(DataError):
            binary_heuristic_from_dict({"destination": 1})

    def test_table_malformed(self):
        with pytest.raises(DataError):
            heuristic_table_from_dict({"format_version": 99})

    def test_non_numeric_vertex_is_data_error(self):
        """Regression: int('spindle') used to escape as a bare ValueError."""
        payload = _v1_document("heuristics")["entries"][0]["heuristic"]["table"]
        rows = dict(payload["rows"])
        rows["spindle"] = next(iter(rows.values()))
        payload["rows"] = rows
        with pytest.raises(DataError, match="malformed heuristic table payload"):
            heuristic_table_from_dict(payload)

    def test_binary_accepts_legacy_infinity_token(self):
        """Files written before the sentinel used json's non-standard Infinity."""
        import json

        legacy = '{"format_version": 1, "destination": 0, "min_costs": {"4": Infinity}}'
        restored = binary_heuristic_from_dict(json.loads(legacy))
        assert restored.min_cost(4) == float("inf")

    def test_binary_rejects_nan(self):
        with pytest.raises(DataError):
            binary_heuristic_from_dict(
                {"format_version": 1, "destination": 0, "min_costs": {"1": "nan"}}
            )

    def test_budget_heuristic_round_trip(self, paper_example):
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=3, max_budget=36)
        )
        entry = HeuristicEntry(HeuristicSlot("budget", 3.0, "pace", VD), heuristic)
        restored = decode_heuristic_entry(encode_heuristic_entry(entry)).heuristic
        assert restored.destination == VD
        assert restored.delta == 3
        assert restored.build_seconds == 0.0
        for vertex in range(8):
            assert restored.min_cost(vertex) == heuristic.min_cost(vertex)
            for budget in range(0, 42, 3):
                assert restored.probability(vertex, budget) == heuristic.probability(vertex, budget)


class TestHeuristicBundle:
    def test_fixture_bundle_decodes(self):
        loaded = heuristic_bundle_entries(_v1_document("heuristics"))
        assert [entry.key for entry in loaded] == ["budget-60.0-pace-35"]
        assert loaded[0].graph_signature == (36, 114, 19)
        restored = loaded[0].heuristic
        assert restored.destination == 35
        assert restored.table.storage_cells() > 0

    def test_malformed(self):
        with pytest.raises(DataError):
            heuristic_bundle_entries({"kind": "something-else", "format_version": 1, "entries": []})
        with pytest.raises(DataError):
            heuristic_bundle_entries({"kind": "heuristic-bundle", "format_version": 99, "entries": []})
        with pytest.raises(DataError):
            heuristic_bundle_entries({"kind": "heuristic-bundle", "format_version": 1, "entries": {}})


class TestFormatVersionHandling:
    """Every persisted document family refuses unknown format versions loudly.

    A reader silently accepting a newer ``format_version`` would mis-parse
    future documents; the error must name both the found and the supported
    version so operators know which side to upgrade.  Legacy (version-1)
    documents written by earlier releases keep loading verbatim.
    """

    def test_index_rejects_unknown_version_naming_it(self):
        with pytest.raises(DataError, match=r"index document format version 99.*supports version 1"):
            index_from_dict({"format_version": 99, "tau": 20})

    def test_index_rejects_missing_and_non_integer_version(self):
        with pytest.raises(DataError, match="no format_version"):
            index_from_dict({"tau": 20})
        with pytest.raises(DataError, match="must be an integer"):
            index_from_dict({"format_version": "1", "tau": 20})

    def test_binary_heuristic_rejects_unknown_version(self):
        payload = {"format_version": 2, "destination": 0, "min_costs": {"1": 5.0}}
        with pytest.raises(DataError, match=r"binary heuristic format version 2.*supports version 1"):
            binary_heuristic_from_dict(payload)

    def test_budget_heuristic_rejects_unknown_version(self):
        payload = _v1_document("heuristics")["entries"][0]["heuristic"]
        payload["format_version"] = 7
        with pytest.raises(DataError, match=r"budget heuristic format version 7.*supports version 1"):
            budget_heuristic_from_dict(payload)

    def test_bundle_rejects_unknown_version_naming_it(self):
        payload = {"kind": "heuristic-bundle", "format_version": 3, "entries": []}
        with pytest.raises(DataError, match=r"heuristic bundle format version 3.*supports version 1"):
            heuristic_bundle_entries(payload)

    def test_legacy_version_1_documents_still_load(self):
        """Regression: verbatim version-1 documents from earlier releases."""
        legacy_binary = json.loads(
            '{"format_version": 1, "destination": 3, "min_costs": {"0": 4.5, "1": "inf"}}'
        )
        restored = binary_heuristic_from_dict(legacy_binary)
        assert restored.min_cost(0) == 4.5
        assert restored.min_cost(1) == float("inf")

        # The v1 fixture's index document decodes to the graph its manifest names.
        manifest = json.loads((TINY_V1_STORE / "manifest.json").read_text())
        pace = index_from_dict(_v1_document("index")).pace_graph
        assert pace.num_tpaths > 0
        assert pace.content_fingerprint() == manifest["fingerprints"]["pace"]


class TestCodecErrorTaxonomy:
    def test_non_numeric_distribution_payload_raises_distribution_error(self):
        from repro.core.errors import DistributionError

        with pytest.raises(DistributionError):
            distribution_from_dict({"costs": ["x"], "probabilities": [1.0]})

    def test_from_normalised_rejects_mismatched_lengths(self):
        from repro.core.errors import DistributionError

        with pytest.raises(DistributionError, match="equal-length"):
            Distribution.from_normalised([1.0, 2.0, 3.0], [0.5, 0.5])

    def test_duplicate_joint_outcomes_accumulate_instead_of_collapsing(self):
        payload = {
            "edge_ids": [1],
            "outcomes": [
                {"costs": [2.0], "probability": 0.5},
                {"costs": [2.0], "probability": 0.25},
                {"costs": [3.0], "probability": 0.25},
            ],
        }
        joint = joint_from_dict(payload)
        # Last-wins collapsing would drop 0.5 and renormalise to 1/3 vs 2/3.
        assert joint.pmf[(2.0,)] == pytest.approx(0.75)
        assert joint.pmf[(3.0,)] == pytest.approx(0.25)


class TestStrictJsonHelpers:
    """The sanctioned codec entry points enforced by the strict-json lint rule."""

    def test_dumps_rejects_non_finite_floats(self):
        with pytest.raises(DataError, match="not strict-JSON serialisable"):
            strict_json_dumps({"cost": float("inf")})
        with pytest.raises(DataError, match="not strict-JSON serialisable"):
            strict_json_dumps({"cost": float("nan")})

    def test_dumps_round_trips_plain_payloads(self):
        payload = {"a": [1, 2.5], "b": None, "c": "τ"}
        assert strict_json_loads(strict_json_dumps(payload), what="test") == payload

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(DataError, match="manifest is not valid JSON"):
            strict_json_loads("{ nope", what="manifest")

    def test_loads_rejects_non_standard_tokens(self):
        with pytest.raises(DataError, match="non-standard JSON token 'NaN'"):
            strict_json_loads('{"x": NaN}', what="doc")
        with pytest.raises(DataError, match="non-standard JSON token 'Infinity'"):
            strict_json_loads('{"x": Infinity}', what="doc")

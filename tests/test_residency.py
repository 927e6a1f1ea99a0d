"""Tiered heuristic residency: streaming reads, lazy faulting, byte budgets.

PR 10's contract, pinned from four directions:

* the v2 streaming reader (``ColumnDocumentReader``) decodes without copying
  payloads, defers digest verification to first touch, and detects
  truncation/bit-rot exactly like the eager decoder,
* engines booted ``prewarm="none"`` (or with an explicit key list) answer
  every query identically to an eager boot — including under concurrent
  ``route_many`` on every backend and with eviction pressure mid-batch,
* faults of corrupt entries raise :class:`DataError` without crashing the
  process or wedging the cache, and a budget smaller than one table degrades
  to build-on-miss with a loud warning,
* the eager column decode path allocates each column once (the
  double-buffering regression), measured with tracemalloc.
"""

from __future__ import annotations

import shutil
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, DataError
from repro.persistence.codecs import (
    ColumnDocumentReader,
    decode_column_document,
    encode_column_document,
    open_column_document,
)
from repro.persistence.store import HEURISTIC_ENTRY_PREFIX, ArtifactStore
from repro.routing import (
    DatasetRecipe,
    HeuristicCache,
    ProcessBackend,
    RouterSettings,
    RoutingEngine,
    RoutingQuery,
    SerialBackend,
)
from repro.routing.residency import CacheCounters, heuristic_nbytes, normalise_prewarm

RECIPE = DatasetRecipe(dataset="tiny", regime="peak", tau=20)
SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000)
METHODS = ("T-BS-60", "T-B-P", "V-BS-60")


@pytest.fixture(scope="module")
def mined():
    engine = RECIPE.build_engine(settings=SETTINGS)
    vertices = sorted(engine.pace_graph.network.vertex_ids())
    destinations = [vertices[-1], vertices[len(vertices) // 2], vertices[len(vertices) // 3]]
    for method in METHODS:
        engine.prewarm(method, destinations)
    queries = [
        RoutingQuery(vertices[0], destinations[0], budget=500.0),
        RoutingQuery(vertices[1], destinations[1], budget=350.0),
        RoutingQuery(vertices[2], destinations[2], budget=420.0),
        RoutingQuery(vertices[0], destinations[1], budget=260.0),
        RoutingQuery(vertices[1], destinations[0], budget=610.0),
    ]
    return engine, destinations, queries


@pytest.fixture(scope="module")
def store_v2(mined, tmp_path_factory):
    engine, _, _ = mined
    root = tmp_path_factory.mktemp("residency") / "store-v2"
    engine.save_artifacts(root)
    return root


def _assert_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.path == b.path
        assert a.probability == b.probability
        assert a.distribution == b.distribution


def _entry_document(root, key):
    """The on-disk file backing one persisted heuristic entry."""
    manifest = ArtifactStore.open(root).manifest
    return root / manifest.artifacts[HEURISTIC_ENTRY_PREFIX + key].filename


# --------------------------------------------------------------------------- #
# Prewarm policy
# --------------------------------------------------------------------------- #
class TestPrewarmPolicy:
    def test_normalise_accepts_all_none_and_key_sequences(self):
        assert normalise_prewarm("all") == "all"
        assert normalise_prewarm("none") == "none"
        assert normalise_prewarm(["a", "b"]) == ("a", "b")
        assert normalise_prewarm(()) == ()

    @pytest.mark.parametrize("bad", ["everything", "", 7, ["ok", ""], [3]])
    def test_normalise_rejects_junk(self, bad):
        with pytest.raises(ConfigurationError):
            normalise_prewarm(bad)

    def test_prewarm_none_boots_with_an_empty_resident_tier(self, store_v2):
        engine = RoutingEngine.from_artifacts(store_v2, prewarm="none")
        counters = engine.heuristic_cache.counters()
        assert isinstance(counters, CacheCounters)
        assert counters.entries == 0
        assert counters.resident_bytes == 0

    def test_prewarm_all_matches_the_classic_eager_boot(self, store_v2):
        eager = RoutingEngine.from_artifacts(store_v2)  # default prewarm="all"
        explicit = RoutingEngine.from_artifacts(store_v2, prewarm="all")
        assert eager.heuristic_cache.counters().entries > 0
        assert (
            explicit.heuristic_cache.counters().entries
            == eager.heuristic_cache.counters().entries
        )

    def test_prewarm_key_list_loads_exactly_those(self, mined, store_v2):
        _, destinations, _ = mined
        key = f"binary-P-{destinations[0]}"
        engine = RoutingEngine.from_artifacts(store_v2, prewarm=[key])
        counters = engine.heuristic_cache.counters()
        assert counters.entries == 1
        assert counters.resident_bytes > 0

    def test_unknown_prewarm_key_is_rejected_loudly(self, store_v2):
        with pytest.raises(DataError, match="no-such-key"):
            RoutingEngine.from_artifacts(store_v2, prewarm=["no-such-key"])

    def test_artifact_ref_carries_the_boot_policy(self, store_v2):
        engine = RoutingEngine.from_artifacts(store_v2, prewarm="none", cache_bytes=1 << 20)
        assert engine.spec.prewarm == "none"
        assert engine.spec.cache_bytes == 1 << 20

    def test_stats_surface_the_residency_trio(self, mined, store_v2):
        _, _, queries = mined
        engine = RoutingEngine.from_artifacts(store_v2, prewarm="none")
        engine.route_many(queries, method="T-BS-60")
        stats = engine.stats()
        assert stats.cache_faults > 0
        assert stats.cache_misses == 0  # everything was persisted; nothing rebuilt
        assert stats.cache_resident_bytes > 0
        assert stats.cache_evictions == 0


# --------------------------------------------------------------------------- #
# Differential: lazy/evicting engines vs the eager boot
# --------------------------------------------------------------------------- #
class TestDifferentialRouting:
    @pytest.fixture(scope="class")
    def eager_results(self, mined, store_v2):
        _, _, queries = mined
        engine = RoutingEngine.from_artifacts(store_v2)
        return {method: engine.route_many(queries, method=method) for method in METHODS}

    @pytest.mark.parametrize("method", METHODS)
    def test_lazy_boot_is_result_identical(self, mined, store_v2, eager_results, method):
        _, _, queries = mined
        lazy = RoutingEngine.from_artifacts(store_v2, prewarm="none")
        _assert_identical(eager_results[method], lazy.route_many(queries, method=method))
        counters = lazy.heuristic_cache.counters()
        assert counters.faults > 0 and counters.misses == 0

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessBackend(2)],
        ids=["serial", "process"],
    )
    def test_route_many_on_every_backend(
        self, mined, store_v2, eager_results, backend_factory
    ):
        _, _, queries = mined
        lazy = RoutingEngine.from_artifacts(store_v2, prewarm="none")
        backend = backend_factory()
        try:
            results = lazy.route_many(queries, method="T-BS-60", backend=backend)
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        _assert_identical(eager_results["T-BS-60"], results)

    def test_concurrent_threads_share_one_fault_per_entry(self, mined, store_v2):
        _, _, queries = mined
        lazy = RoutingEngine.from_artifacts(store_v2, prewarm="none")
        errors = []

        def hammer():
            try:
                lazy.route_many(queries, method="T-BS-60")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        counters = lazy.heuristic_cache.counters()
        # The per-key build lock serialises concurrent misses: each persisted
        # table is faulted exactly once no matter how many threads race.
        assert counters.faults == counters.entries
        assert counters.misses == 0

    def test_eviction_mid_batch_stays_result_identical(self, mined, store_v2, eager_results):
        _, _, queries = mined
        eager = RoutingEngine.from_artifacts(store_v2)
        sizes = [heuristic_nbytes(h) for h in eager.heuristic_cache.snapshot().values()]
        # Room for roughly one table: routing a multi-destination batch must
        # evict mid-flight and still answer every query identically.
        budget = int(max(sizes) * 1.2)
        bounded = RoutingEngine.from_artifacts(store_v2, prewarm="none", cache_bytes=budget)
        for method in METHODS:
            _assert_identical(
                eager_results[method], bounded.route_many(queries, method=method)
            )
        counters = bounded.heuristic_cache.counters()
        assert counters.evictions > 0
        assert counters.resident_bytes <= budget
        assert counters.entries >= 1


# --------------------------------------------------------------------------- #
# Fault tier failure modes
# --------------------------------------------------------------------------- #
class TestFaultTier:
    def test_corrupt_entry_faults_as_data_error_and_cache_stays_consistent(
        self, mined, store_v2, tmp_path
    ):
        _, destinations, queries = mined
        root = tmp_path / "bitrot"
        shutil.copytree(store_v2, root)
        victim = _entry_document(root, f"binary-P-{destinations[0]}")
        pristine = victim.read_bytes()
        victim.write_bytes(pristine[:-3] + b"zzz")

        lazy = RoutingEngine.from_artifacts(root, prewarm="none")
        with pytest.raises(DataError, match="checksum"):
            lazy.route(queries[0], method="T-B-P")
        counters = lazy.heuristic_cache.counters()
        assert counters.entries == 0  # nothing half-inserted
        # Other destinations still fault and serve fine.
        ok = lazy.route(queries[1], method="T-B-P")
        assert ok.probability >= 0.0
        # Repairing the file lets the same key fault successfully on retry.
        victim.write_bytes(pristine)
        repaired = lazy.route(queries[0], method="T-B-P")
        eager = RoutingEngine.from_artifacts(store_v2)
        _assert_identical([eager.route(queries[0], method="T-B-P")], [repaired])
        assert lazy.heuristic_cache.counters().faults >= 2

    def test_budget_smaller_than_one_table_degrades_loudly(self, mined, store_v2):
        _, _, queries = mined
        with pytest.warns(RuntimeWarning, match="cache budget"):
            tiny = RoutingEngine.from_artifacts(store_v2, prewarm="none", cache_bytes=16)
            results = tiny.route_many(queries[:2], method="T-BS-60")
        eager = RoutingEngine.from_artifacts(store_v2)
        _assert_identical(eager.route_many(queries[:2], method="T-BS-60"), results)
        counters = tiny.heuristic_cache.counters()
        assert counters.entries == 0
        assert counters.resident_bytes == 0
        # Un-cacheable entries are re-faulted per lookup, never silently dropped.
        assert counters.faults >= 2

    def test_faulted_heuristic_owns_its_memory(self, store_v2, monkeypatch):
        """A faulted table holds no view of the mapped document it was decoded from.

        Its cells are copied out of the verified columns once, so the reader
        unmaps the document as soon as the decode returns.
        """
        handle = ArtifactStore.open(store_v2).open_heuristics()
        closed = []
        close = ColumnDocumentReader.close

        def recording_close(reader):
            close(reader)
            closed.append(reader._map.closed)

        monkeypatch.setattr(ColumnDocumentReader, "close", recording_close)
        for key in handle.keys():
            handle.load_entry(key)
        assert closed == [True] * len(handle)

        mapped = []
        column = ColumnDocumentReader.column

        def recording_column(reader, name):
            array = column(reader, name)
            mapped.append(array)
            return array

        monkeypatch.setattr(ColumnDocumentReader, "column", recording_column)
        budget_keys = [key for key in handle.keys() if key.startswith("budget-")]
        assert budget_keys
        for key in budget_keys:
            mapped.clear()
            table = handle.load_entry(key).heuristic.table
            assert mapped and table.rows
            for row in table.rows.values():
                assert not any(np.shares_memory(row.values, array) for array in mapped)

    def test_cache_bytes_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="cache_bytes"):
            HeuristicCache(cache_bytes=0)


# --------------------------------------------------------------------------- #
# Streaming reader unit tests
# --------------------------------------------------------------------------- #
class TestColumnDocumentReader:
    @pytest.fixture()
    def document(self, tmp_path):
        meta = {"format_version": 2, "kind": "unit-test"}
        columns = {
            "alpha": np.arange(64, dtype=np.float64),
            "beta": np.arange(64, dtype=np.int64),
        }
        path = tmp_path / "doc.bin"
        path.write_bytes(encode_column_document(meta, columns))
        return path, meta, columns

    def test_round_trip_views_are_read_only_and_bit_exact(self, document):
        path, meta, columns = document
        with open_column_document(path) as reader:
            assert reader.meta == meta
            assert set(reader.column_names) == set(columns)
            for name, expected in columns.items():
                view = reader.column(name)
                assert not view.flags.writeable
                np.testing.assert_array_equal(view, expected)
                with pytest.raises(ValueError):
                    view[0] = 0

    def test_digest_verification_is_deferred_to_first_touch(self, document):
        path, _, columns = document
        data = bytearray(path.read_bytes())
        # Flip a byte in the tail — the *last* column's ("beta") payload.
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with open_column_document(path) as reader:  # opens fine: structure intact
            np.testing.assert_array_equal(reader.column("alpha"), columns["alpha"])
            with pytest.raises(DataError, match="checksum"):
                reader.column("beta")

    def test_eager_verify_raises_at_open(self, document):
        path, _, _ = document
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="checksum"):
            open_column_document(path, verify=True)

    def test_truncated_document_is_rejected_at_open(self, document):
        path, _, _ = document
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataError):
            open_column_document(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="header"):
            open_column_document(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            open_column_document(tmp_path / "nope.bin")

    def test_close_with_outstanding_views_does_not_crash(self, document):
        path, _, columns = document
        reader = open_column_document(path)
        view = reader.column("alpha")
        reader.close()  # BufferError swallowed; the map stays alive for `view`
        np.testing.assert_array_equal(view, columns["alpha"])

    def test_unknown_column_name_is_rejected(self, document):
        path, _, _ = document
        with open_column_document(path) as reader:
            with pytest.raises(DataError, match="gamma"):
                reader.column("gamma")


# --------------------------------------------------------------------------- #
# Eager decode single-copy regression (the double-buffering fix)
# --------------------------------------------------------------------------- #
class TestEagerDecodePeak:
    def test_decode_column_document_allocates_each_column_once(self):
        """The eager decoder used to copy every payload twice (``bytes()`` of
        the frame slice, then the array copy): peak ≈ 2× column bytes.  The
        rewrite materialises exactly one array per column."""
        elements = 1_000_000  # 8 MB payload — dwarfs fixed overheads
        column = np.arange(elements, dtype=np.float64)
        payload = encode_column_document({"format_version": 2}, {"big": column})
        nbytes = column.nbytes
        tracemalloc.start()
        try:
            _, columns = decode_column_document(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(columns["big"], column)
        assert peak < 1.5 * nbytes, f"eager decode peak {peak} suggests double buffering"

    def test_streaming_reader_copies_nothing(self, tmp_path):
        elements = 1_000_000
        column = np.arange(elements, dtype=np.float64)
        path = tmp_path / "big.bin"
        path.write_bytes(encode_column_document({"format_version": 2}, {"big": column}))
        tracemalloc.start()
        try:
            with open_column_document(path) as reader:
                view = reader.column("big")
                total = float(view.sum())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == float(column.sum())
        # mmap pages are not Python heap: the decoded "array" is a view, so
        # the traced peak stays far below one materialised copy.
        assert peak < 0.5 * column.nbytes, f"streaming decode allocated {peak} bytes"

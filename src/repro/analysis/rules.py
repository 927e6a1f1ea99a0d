"""The project's rule set, grounded in this repo's actual bug history.

Each rule encodes an invariant a previous PR paid for the hard way:

* ``strict-json`` — PR 3 standardised strict JSON at every boundary; a bare
  ``json.dumps`` re-opens the NaN/Infinity corruption hole.
* ``data-error-taxonomy`` — decode paths must fail as
  :class:`~repro.core.errors.DataError`; PR 6's scan found ``ValueError``
  escaping ostensibly-taxonomised readers.
* ``format-version`` — PR 4 found readers silently accepting any
  ``format_version``; every read of the field must validate it.
* ``fingerprint-hygiene`` — PR 3 replaced ``id(graph)`` cache keys (they do
  not survive process boundaries), and PR 4 found codec constructors
  renormalising persisted floats and shifting content fingerprints by ULPs.
* ``lock-discipline`` — the heuristic cache is shared by serving threads;
  state written under a lock must never be touched outside one.
* ``float-equality`` — the heuristic grid arithmetic is float-based;
  ``==``/``!=`` on floats is almost always a latent off-by-ULP bug.
* ``sqlite-discipline`` — the fleet catalog (PR 8) runs SQLite in WAL mode
  with foreign keys on and explicit ``BEGIN IMMEDIATE`` transactions; a
  connection opened anywhere else silently loses all three guarantees.
* ``residency-discipline`` — PR 10 made v2 decode zero-copy via mmap
  streaming; a whole-file ``read()`` on the persistence path re-introduces
  the doubled boot peak, and a writable map would let consumers corrupt
  each other's zero-copy views.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from repro.analysis.framework import Rule, SourceFile, Violation, register

__all__ = [
    "StrictJsonRule",
    "DataErrorTaxonomyRule",
    "FormatVersionRule",
    "FingerprintHygieneRule",
    "LockDisciplineRule",
    "FloatEqualityRule",
    "SqliteDisciplineRule",
    "ResidencyDisciplineRule",
]


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for name/attribute chains, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _is_persistence(source: SourceFile) -> bool:
    return source.module_path.startswith("persistence/")


def _is_catalog(source: SourceFile) -> bool:
    return source.module_path.startswith("catalog/")


@register
class StrictJsonRule(Rule):
    """R1: persistence and the service boundary must use the strict JSON codecs.

    ``json.dumps(float("nan"))`` happily emits ``NaN`` — a token strict JSON
    parsers reject — and a bare ``json.loads`` accepts it back, so one bare
    call anywhere on the persistence path can write artifacts that only this
    process can read.  All (de)serialisation in ``persistence/``,
    ``routing/service.py`` and the HTTP serving tier (``serving/``) must go
    through
    :func:`repro.persistence.codecs.strict_json_dumps` /
    :func:`~repro.persistence.codecs.strict_json_loads` (which pass
    ``allow_nan=False`` and reject non-standard constants on decode).  The
    helpers' own internal calls carry the suppression comment.
    """

    rule_id = "strict-json"
    description = (
        "json.dumps/json.loads in persistence/, catalog/, routing/service.py and "
        "serving/ must go through the strict codec helpers (allow_nan=False, "
        "strict decode)"
    )

    _BARE: ClassVar[dict[str, str]] = {
        "json.dumps": "strict_json_dumps",
        "json.dump": "strict_json_dump",
        "json.loads": "strict_json_loads",
        "json.load": "strict_json_loads",
    }

    def applies_to(self, source: SourceFile) -> bool:
        return (
            _is_persistence(source)
            or _is_catalog(source)
            or source.module_path == "routing/service.py"
            or source.module_path.startswith("serving/")
        )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        aliases: dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"json.{alias.name}"
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            target = aliases.get(name, name)
            helper = self._BARE.get(target)
            if helper is not None:
                yield self.violation(
                    source,
                    node,
                    f"bare {target}() on the persistence path; route it through "
                    f"repro.persistence.codecs.{helper} so NaN/Infinity are "
                    "rejected on both directions",
                )


@register
class DataErrorTaxonomyRule(Rule):
    """R2: persistence read/decode paths may only raise the DataError taxonomy.

    Callers of the persistence readers catch :class:`DataError`; any builtin
    exception that escapes instead (a ``KeyError`` from a missing field, a
    ``ValueError`` from ``int()`` on garbage, an ``AssertionError``) turns a
    malformed document into a crash with a misleading traceback.  Flagged:
    ``raise`` of builtin exception types, ``assert`` statements, and
    ``int()``/``float()`` conversions inside ``try`` blocks whose handlers
    catch ``KeyError``/``TypeError`` but let ``ValueError`` through — the
    exact escape PR 6's scan found in the index and heuristic readers.
    """

    rule_id = "data-error-taxonomy"
    description = (
        "read/decode paths under persistence/ and catalog/ may only raise "
        "DataError (or taxonomy subclasses), never bare "
        "KeyError/ValueError/AssertionError"
    )

    _BUILTIN_RAISES: ClassVar[set[str]] = {
        "AssertionError",
        "AttributeError",
        "IndexError",
        "KeyError",
        "LookupError",
        "RuntimeError",
        "TypeError",
        "ValueError",
    }
    _CONVERSIONS: ClassVar[set[str]] = {"int", "float", "complex"}
    _VALUE_ERROR_CATCHERS: ClassVar[set[str]] = {"ValueError", "Exception", "BaseException"}

    def applies_to(self, source: SourceFile) -> bool:
        # The catalog is a persistence layer too: its readers (SQLite rows,
        # store manifests) answer to the same taxonomy.
        return _is_persistence(source) or _is_catalog(source)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(source, node)
            elif isinstance(node, ast.Assert):
                yield self.violation(
                    source,
                    node,
                    "assert escapes as AssertionError (and vanishes under -O); "
                    "raise DataError with a diagnostic message instead",
                )
            elif isinstance(node, ast.Try):
                yield from self._check_try(source, node)

    def _check_raise(self, source: SourceFile, node: ast.Raise) -> Iterator[Violation]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted_name(exc) if exc is not None else None
        if name in self._BUILTIN_RAISES:
            yield self.violation(
                source,
                node,
                f"raising builtin {name} from a persistence module; raise "
                "DataError (or a taxonomy subclass) so callers can catch "
                "malformed documents uniformly",
            )

    @staticmethod
    def _caught_names(node: ast.Try) -> set[str]:
        caught: set[str] = set()
        for handler in node.handlers:
            kind = handler.type
            types = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            for entry in types:
                if entry is None:
                    caught.add("BaseException")  # a bare except catches everything
                else:
                    name = _dotted_name(entry)
                    if name is not None:
                        caught.add(name.rsplit(".", 1)[-1])
        return caught

    def _check_try(self, source: SourceFile, node: ast.Try) -> Iterator[Violation]:
        caught = self._caught_names(node)
        if caught & self._VALUE_ERROR_CATCHERS:
            return
        # Only try statements that already map decode errors are considered:
        # the bug pattern is "caught KeyError/TypeError, forgot ValueError".
        if not caught & {"KeyError", "TypeError"}:
            return
        for call in self._body_calls(node):
            name = _dotted_name(call.func)
            if name in self._CONVERSIONS:
                yield self.violation(
                    source,
                    call,
                    f"{name}() raises ValueError on malformed input, which "
                    f"escapes this try (handlers catch {sorted(caught)}); add "
                    "ValueError to the except tuple",
                )

    def _body_calls(self, node: ast.Try) -> Iterator[ast.Call]:
        """Calls in the try body, not descending into nested try statements."""
        stack: list[ast.AST] = list(node.body)
        while stack:
            current = stack.pop()
            if isinstance(current, ast.Try):
                continue  # the nested try is analysed on its own
            if isinstance(current, ast.Call):
                yield current
            stack.extend(ast.iter_child_nodes(current))


@register
class FormatVersionRule(Rule):
    """R3: every read of a ``format_version`` field must validate it.

    PR 4 found readers that subscripted ``payload["format_version"]`` (or
    defaulted it with ``.get``) and then parsed whatever followed — so a
    document written by a newer codec was silently mis-parsed instead of
    refused.  Any function that reads the field must call
    :func:`repro.persistence.codecs.require_format_version` (the definer
    itself is exempt).
    """

    rule_id = "format-version"
    description = (
        "functions reading a format_version field must validate it via "
        "persistence.codecs.require_format_version"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "require_format_version":
                continue
            reads = [read for read in ast.walk(node) if self._reads_format_version(read)]
            if not reads:
                continue
            if any(self._calls_validator(child) for child in ast.walk(node)):
                continue
            for read in reads:
                yield self.violation(
                    source,
                    read,
                    f"{node.name}() reads format_version without calling "
                    "require_format_version; unknown versions must be refused, "
                    "not mis-parsed",
                )

    @staticmethod
    def _reads_format_version(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
            return isinstance(key, ast.Constant) and key.value == "format_version"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and node.args:
                first = node.args[0]
                return isinstance(first, ast.Constant) and first.value == "format_version"
        return False

    @staticmethod
    def _calls_validator(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _dotted_name(node.func)
        return name is not None and name.rsplit(".", 1)[-1] == "require_format_version"


@register
class FingerprintHygieneRule(Rule):
    """R4: identity is content, never ``id()``; codecs must not renormalise.

    ``id(graph)`` keys broke the moment heuristic bundles crossed a process
    boundary (PR 3); content fingerprints replaced them everywhere, so any
    new ``id(...)`` call is wrong by construction.  In ``persistence/``
    codec paths, ``Distribution(...)``/``JointDistribution(...)``
    constructor calls renormalise probabilities and can change a persisted
    graph's fingerprint by ULPs (PR 4's round-trip bug); decoders must use
    ``from_normalised``, with the lenient constructor allowed only as the
    fallback inside an ``except`` handler.
    """

    rule_id = "fingerprint-hygiene"
    description = (
        "no id(...) as a cache/dict key; persistence codec fast paths must use "
        "from_normalised, not renormalising Distribution(...) constructors"
    )

    _CONSTRUCTORS: ClassVar[set[str]] = {"Distribution", "JointDistribution"}

    def check(self, source: SourceFile) -> Iterator[Violation]:
        handler_spans = [
            (handler.lineno, handler.end_lineno or handler.lineno)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Try)
            for handler in node.handlers
        ]
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name == "id" and len(node.args) == 1:
                yield self.violation(
                    source,
                    node,
                    "id() is process-local object identity, not content; key "
                    "caches and bundles by content fingerprint instead",
                )
            elif (
                name in self._CONSTRUCTORS
                and _is_persistence(source)
                and not self._inside_handler(node, handler_spans)
            ):
                yield self.violation(
                    source,
                    node,
                    f"{name}(...) renormalises probabilities and can shift a "
                    "persisted graph's content fingerprint by ULPs; decode "
                    f"through {name}.from_normalised (the lenient constructor "
                    "is only sanctioned as an except-handler fallback)",
                )

    @staticmethod
    def _inside_handler(node: ast.Call, spans: list[tuple[int, int]]) -> bool:
        return any(start <= node.lineno <= end for start, end in spans)


@register
class LockDisciplineRule(Rule):
    """R5: state written under a lock is lock-guarded state, everywhere.

    A lightweight race detector for the serving-path modules: within one
    class, any attribute that is ever written inside a ``with self._lock``
    (or ``self._stats_lock`` / ``self._router_lock`` / any ``self.*_lock``)
    block is considered guarded, and every other touch of it — read or write
    — outside a lock context (and outside ``__init__``, which runs before
    the object is shared) is a violation.  This is what caught the engine's
    unlocked stats reads.  The serving tier (``repro.serving``) registers all
    of its modules here: every piece of state its request handlers, reload
    watcher and respawn loop share is lock-checked.
    """

    rule_id = "lock-discipline"
    description = (
        "attributes written inside `with self._lock` blocks in the serving "
        "modules must never be touched outside a lock context in the same class"
    )

    #: Modules whose classes are subject to the lock analysis.
    LOCKED_MODULES = (
        "routing/engine.py",
        "routing/backends.py",
        # The frontier accelerator is shared by every router over a graph
        # (including the serving tier's worker threads); its memo caches are
        # lock-guarded state.
        "routing/accel.py",
        "routing/service.py",
        "serving/admission.py",
        "serving/faults.py",
        "serving/reload.py",
        "serving/resilience.py",
        "serving/server.py",
        # The catalog is read by serving boxes while fleet jobs write it;
        # any locked state its helpers grow is held to the same discipline.
        "catalog/db.py",
        "catalog/registry.py",
        "catalog/fleet.py",
    )

    def applies_to(self, source: SourceFile) -> bool:
        return source.module_path in self.LOCKED_MODULES

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    # -- per-class analysis ------------------------------------------------ #
    def _check_class(self, source: SourceFile, klass: ast.ClassDef) -> Iterator[Violation]:
        methods = [
            child
            for child in klass.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        guarded: set[str] = set()
        for method in methods:
            if method.name == "__init__":
                continue
            for attr, _node, locked in self._self_attribute_writes(method):
                if locked:
                    guarded.add(attr)
        if not guarded:
            return
        for method in methods:
            if method.name == "__init__":
                continue
            for attr, node, locked in self._self_attribute_accesses(method):
                if attr in guarded and not locked:
                    yield self.violation(
                        source,
                        node,
                        f"self.{attr} is written under a lock elsewhere in "
                        f"{klass.name} but touched here without one; take the "
                        "lock (or snapshot under it) to avoid torn reads/races",
                    )

    @staticmethod
    def _is_lock_context(item: ast.withitem) -> bool:
        expr = item.context_expr
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and (expr.attr == "_lock" or expr.attr.endswith("_lock"))
        )

    def _walk_with_locks(
        self, node: ast.AST, locked: bool
    ) -> Iterator[tuple[ast.AST, bool]]:
        """Yield ``(node, inside-lock)`` pairs over a method body."""
        yield node, locked
        entered = locked
        if isinstance(node, (ast.With, ast.AsyncWith)):
            entered = locked or any(self._is_lock_context(item) for item in node.items)
        for child in ast.iter_child_nodes(node):
            yield from self._walk_with_locks(child, entered)

    @staticmethod
    def _written_attr(node: ast.AST) -> str | None:
        """The ``self.X`` attribute a statement writes, if any."""
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Starred)):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return target.attr
        return None

    def _self_attribute_writes(
        self, method: ast.AST
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        for node, locked in self._walk_with_locks(method, False):
            attr = self._written_attr(node)
            if attr is not None:
                yield attr, node, locked

    def _self_attribute_accesses(
        self, method: ast.AST
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        """Every ``self.X`` touch (read or write) with its lock status."""
        for node, locked in self._walk_with_locks(method, False):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield node.attr, node, locked


@register
class FloatEqualityRule(Rule):
    """R6: no ``==``/``!=`` on expressions that are textually float-typed.

    The heuristic grid arithmetic lives on floats; ``0.3 / 0.1 != 3.0`` is
    this codebase's canonical example (see ``heuristics/tables.py``).  The
    rule flags comparisons where an operand is a float literal or a
    ``float(...)`` call — the cases that are knowably floats without type
    inference.  Exact sentinel comparisons (``scale != 1.0`` against a
    default that was never computed) carry suppressions with a justification.
    """

    rule_id = "float-equality"
    description = (
        "no ==/!= on float-typed expressions outside tolerance helpers; "
        "use math.isclose or an explicit epsilon"
    )

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_float_typed(operand) for operand in operands):
                yield self.violation(
                    source,
                    node,
                    "==/!= on a float-typed expression; floats that should be "
                    "equal can differ by ULPs — compare with math.isclose or "
                    "an explicit tolerance",
                )

    @staticmethod
    def _is_float_typed(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
            return isinstance(node.operand.value, float)
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "float"
        return False


@register
class SqliteDisciplineRule(Rule):
    """R7: all SQLite access goes through the catalog's connection discipline.

    The fleet catalog requires WAL journaling (readers unblocked during
    writes), ``foreign_keys=ON`` (off by default!) and explicit ``BEGIN
    IMMEDIATE`` transactions.  ``sqlite3.connect`` delivers none of those, so
    a connection opened outside ``catalog/db.py`` silently loses all three —
    the catalog would still *work* on the happy path, which is exactly why
    this needs a rule.  Flagged:

    * any ``sqlite3.connect(...)`` call outside ``catalog/db.py`` (import
      aliases included) — open a :class:`~repro.catalog.db.CatalogDB` instead;
    * inside ``catalog/db.py``, a function that calls ``sqlite3.connect``
      without also calling the pragma helper (``*apply_pragmas``) — a raw
      connection must never escape the module either;
    * manual transaction control in ``catalog/`` modules outside ``db.py``:
      ``.commit()`` / ``.rollback()`` calls, or ``execute`` of a
      ``BEGIN``/``COMMIT``/``ROLLBACK`` statement — use
      ``CatalogDB.transaction()``.
    """

    rule_id = "sqlite-discipline"
    description = (
        "sqlite3 connections are opened only in catalog/db.py (with the pragma "
        "helper applied); transaction control goes through CatalogDB.transaction()"
    )

    _DB_MODULE: ClassVar[str] = "catalog/db.py"
    _TXN_METHODS: ClassVar[set[str]] = {"commit", "rollback"}
    _TXN_KEYWORDS: ClassVar[tuple[str, ...]] = ("BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT")

    def check(self, source: SourceFile) -> Iterator[Violation]:
        aliases = self._connect_aliases(source.tree)
        if source.module_path == self._DB_MODULE:
            yield from self._check_db_module(source, aliases)
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_connect(node, aliases):
                yield self.violation(
                    source,
                    node,
                    "sqlite3.connect() outside catalog/db.py skips the WAL + "
                    "foreign-keys pragmas and the transaction discipline; open a "
                    "repro.catalog.db.CatalogDB instead",
                )
            elif _is_catalog(source):
                yield from self._check_manual_txn(source, node)

    # -- helpers ----------------------------------------------------------- #
    @staticmethod
    def _connect_aliases(tree: ast.AST) -> set[str]:
        """Every local name that resolves to ``sqlite3.connect``."""
        names = {"sqlite3.connect"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "sqlite3" and alias.asname:
                        names.add(f"{alias.asname}.connect")
            elif isinstance(node, ast.ImportFrom) and node.module == "sqlite3":
                for alias in node.names:
                    if alias.name == "connect":
                        names.add(alias.asname or "connect")
        return names

    @staticmethod
    def _is_connect(node: ast.Call, aliases: set[str]) -> bool:
        name = _dotted_name(node.func)
        return name is not None and name in aliases

    def _check_manual_txn(self, source: SourceFile, node: ast.Call) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in self._TXN_METHODS and not node.args and not node.keywords:
            yield self.violation(
                source,
                node,
                f".{func.attr}() is manual transaction control; write inside "
                "'with db.transaction():' so the batch commits or rolls back "
                "as one unit",
            )
            return
        if func.attr in {"execute", "executescript"} and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                statement = first.value.lstrip().upper()
                if statement.startswith(self._TXN_KEYWORDS):
                    yield self.violation(
                        source,
                        node,
                        "hand-rolled BEGIN/COMMIT/ROLLBACK; transaction control "
                        "belongs to CatalogDB.transaction()",
                    )

    def _check_db_module(
        self, source: SourceFile, aliases: set[str]
    ) -> Iterator[Violation]:
        """Within db.py: every connect-calling function also applies the pragmas."""
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            connects = [
                call
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and self._is_connect(call, aliases)
            ]
            if not connects:
                continue
            applies = any(
                isinstance(call, ast.Call)
                and (name := _dotted_name(call.func)) is not None
                and name.rsplit(".", 1)[-1].endswith("apply_pragmas")
                for call in ast.walk(node)
            )
            if not applies:
                for call in connects:
                    yield self.violation(
                        source,
                        call,
                        f"{node.name}() opens a sqlite connection without applying "
                        "the catalog pragmas; call _apply_pragmas(connection, ...) "
                        "before the connection is used",
                    )


@register
class ResidencyDisciplineRule(Rule):
    """R8: persistence decode paths stream column documents, never slurp them.

    PR 10's country-scale boots hinge on the column containers being
    *mapped*, not read: one whole-file ``read()`` of a country-sized index
    holds every byte in Python heap alongside the decoded arrays, doubling
    the boot peak the streaming reader was built to eliminate.  Whole-file
    reads in ``persistence/`` are therefore opt-in: the migrator's JSON
    documents and manifest/summary reads carry an explicit suppression, everything else
    must go through :class:`~repro.persistence.codecs.ColumnDocumentReader`.
    Flagged:

    * ``.read_bytes()`` / ``.read_text()`` calls and argless ``.read()``
      calls (a bounded ``.read(n)`` — e.g. the 4-byte magic sniff — is
      fine) anywhere in ``persistence/``;
    * ``mmap.mmap(...)`` without ``access=mmap.ACCESS_READ`` — the streaming
      reader's maps hand out long-lived ndarray views, so a writable (or
      copy-on-write) map would let any consumer corrupt every other
      consumer's arrays.
    """

    rule_id = "residency-discipline"
    description = (
        "persistence/ must stream column documents through the mmap reader: "
        "whole-file read()/read_bytes()/read_text() calls need an explicit "
        "suppression, and mmap maps must be opened ACCESS_READ"
    )

    _WHOLE_FILE: ClassVar[set[str]] = {"read_bytes", "read_text"}

    def applies_to(self, source: SourceFile) -> bool:
        return _is_persistence(source)

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            method = name.rsplit(".", 1)[-1]
            if method in self._WHOLE_FILE:
                yield self.violation(
                    source,
                    node,
                    f".{method}() slurps a whole document into heap; column "
                    "containers must stream through "
                    "repro.persistence.codecs.ColumnDocumentReader (suppress "
                    "explicitly for JSON / manifest reads)",
                )
            elif method == "read" and not node.args and not node.keywords:
                yield self.violation(
                    source,
                    node,
                    "argless .read() slurps a whole stream into heap; read a "
                    "bounded .read(n) or stream through "
                    "repro.persistence.codecs.ColumnDocumentReader",
                )
            elif name in ("mmap.mmap", "mmap"):
                yield from self._check_mmap(source, node)

    def _check_mmap(self, source: SourceFile, node: ast.Call) -> Iterator[Violation]:
        for keyword in node.keywords:
            if keyword.arg != "access":
                continue
            if _dotted_name(keyword.value) == "mmap.ACCESS_READ":
                return
            break
        yield self.violation(
            source,
            node,
            "mmap.mmap() without access=mmap.ACCESS_READ; the streaming reader "
            "exports long-lived ndarray views, so persistence maps must be "
            "read-only",
        )

"""repro — a reproduction of IDL, the Interoperable Database Language.

Krishnamurthy, Litwin & Kent: *Language Features for Interoperability of
Databases with Schematic Discrepancies* (SIGMOD 1991). The paper designs
a higher-order Horn-clause language for multidatabase systems whose
schemata disagree about what is data and what is metadata; this package
implements it end to end, together with the substrates a working system
needs (storage, federation, baselines, workloads).

Quick start::

    from repro import IdlEngine

    engine = IdlEngine()
    engine.add_database("euter", {"r": [
        {"date": "3/3/85", "stkCode": "hp", "clsPrice": 50},
    ]})
    engine.ask("?.euter.r(.stkCode=hp, .clsPrice>40)")   # -> True

Subpackages: ``repro.core`` (the language), ``repro.objects`` (the
object model), ``repro.storage`` (relational substrate), ``repro.sql``
and ``repro.datalog`` (first-order baselines), ``repro.multidb``
(federation and transparency), ``repro.analysis`` (the ``idlcheck``
static analyzer), ``repro.workloads`` (synthetic data), ``repro.bench``
(experiment harness), ``repro.obs`` (tracing, metrics, query
profiles).

The public surface is this module's ``__all__``: the engine, the
federation with its result types, the error hierarchy, and the
observability entry points. Everything else is importable from its
subpackage but not part of the stable API.
"""

from repro.core.engine import IdlEngine, QueryAnswer
from repro.core.program import IdlProgram
from repro.core.updates import UpdateResult
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FederationError,
    IdlError,
    JournalError,
    MemberUnavailableError,
    StaleMemberError,
    ValidationError,
)
from repro.multidb.config import FederationConfig
from repro.multidb.executor import MemberExecutor
from repro.multidb.federation import AvailabilityReport, Federation
from repro.multidb.journal import (
    CrashInjector,
    CrashPoint,
    FileJournal,
    InMemoryJournal,
    NullJournal,
)
from repro.multidb.resilience import FakeClock, ResiliencePolicy
from repro.multidb.results import QueryResult
from repro.obs import (
    SLO,
    InMemoryCollector,
    JsonLinesExporter,
    MetricsRegistry,
    Observability,
    QueryProfile,
    SLOTracker,
    SlowQueryLog,
    Span,
    TelemetryServer,
    TraceLimits,
    Tracer,
    WindowConfig,
)
from repro.objects.universe import Universe

__version__ = "1.0.0"

__all__ = [
    # the language engine
    "IdlEngine",
    "IdlProgram",
    "QueryAnswer",
    "Universe",
    # the federation and its result types
    "AvailabilityReport",
    "Federation",
    "FederationConfig",
    "FakeClock",
    "MemberExecutor",
    "QueryResult",
    "ResiliencePolicy",
    "UpdateResult",
    # durability: the write-ahead update journal and crash injection
    "CrashInjector",
    "CrashPoint",
    "FileJournal",
    "InMemoryJournal",
    "NullJournal",
    # errors
    "CircuitOpenError",
    "DeadlineExceededError",
    "FederationError",
    "IdlError",
    "JournalError",
    "MemberUnavailableError",
    "StaleMemberError",
    "ValidationError",
    # observability
    "InMemoryCollector",
    "JsonLinesExporter",
    "MetricsRegistry",
    "Observability",
    "QueryProfile",
    "SLO",
    "SLOTracker",
    "SlowQueryLog",
    "Span",
    "TelemetryServer",
    "TraceLimits",
    "Tracer",
    "WindowConfig",
    "__version__",
]

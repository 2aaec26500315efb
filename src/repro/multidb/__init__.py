"""Multidatabase federation: members, transparency, discrepancies.

* :class:`Federation` — members + user groups in, the full Figure 1
  two-level mapping out (unified view, customized views, update
  programs, view updatability), with optional storage-backed members;
* :mod:`repro.multidb.transparency` — the program generators;
* :mod:`repro.multidb.schema_styles` — style detection/conversion;
* :mod:`repro.multidb.discrepancy` — data-vs-metadata overlap scanning;
* :mod:`repro.multidb.adapters` — storage <-> universe;
* :mod:`repro.multidb.connectors` — member transports + fault injection;
* :mod:`repro.multidb.resilience` — retry/backoff, circuit breakers,
  per-member health;
* :mod:`repro.multidb.journal` — write-ahead update journal, crash
  injection, and crash recovery for atomic multi-member flushes;
* :mod:`repro.multidb.executor` — bounded scatter-gather execution of
  per-member I/O (deadlines, hedged reads, pool metrics);
* :class:`FederationConfig` — the consolidated, validated construction
  surface (``Federation.from_config``);
* :class:`FirstOrderFederation` — the SQL-per-member counterfactual.
"""

from repro.multidb.authz import (
    AccessPolicy,
    AuthorizedSession,
    Grant,
    restrict_view,
)
from repro.multidb.adapters import (
    attach_storage,
    flush_rows_to_storage,
    flush_to_storage,
    infer_schema,
    storage_to_relations,
    universe_rows,
)
from repro.multidb.config import FederationConfig
from repro.multidb.connectors import (
    FaultyConnector,
    InMemoryConnector,
    MemberConnector,
    StorageConnector,
)
from repro.multidb.executor import (
    MemberExecutor,
    MemberOutcome,
    MemberTask,
)
from repro.multidb.discrepancy import (
    Discrepancy,
    detect_discrepancies,
    report,
)
from repro.multidb.federation import (
    AvailabilityReport,
    Federation,
    MemberAvailability,
)
from repro.multidb.journal import (
    CrashInjector,
    CrashPoint,
    FileJournal,
    InMemoryJournal,
    NullJournal,
    PendingUpdate,
    UpdateJournal,
)
from repro.multidb.results import QueryResult, UpdateResult
from repro.multidb.firstorder import FirstOrderFederation
from repro.multidb.resilience import (
    CircuitBreaker,
    FakeClock,
    MemberHealth,
    MonotonicClock,
    ResiliencePolicy,
    ResilientConnector,
    RetryPolicy,
)
from repro.multidb.msql import MsqlError, MsqlSession, parse_msql
from repro.multidb.schema_styles import (
    convert,
    detect_style,
    from_long,
    styles_equivalent,
    to_long,
)
from repro.multidb.transparency import (
    customized_view_rule,
    maintenance_programs,
    member_view_rule,
    reconciliation_rule,
    unified_view_rules,
    view_update_programs,
)

__all__ = [
    "AccessPolicy",
    "AuthorizedSession",
    "AvailabilityReport",
    "CircuitBreaker",
    "CrashInjector",
    "CrashPoint",
    "FakeClock",
    "FaultyConnector",
    "FederationConfig",
    "FileJournal",
    "Grant",
    "InMemoryConnector",
    "InMemoryJournal",
    "MemberAvailability",
    "MemberConnector",
    "MemberExecutor",
    "MemberHealth",
    "MemberOutcome",
    "MemberTask",
    "MonotonicClock",
    "NullJournal",
    "PendingUpdate",
    "QueryResult",
    "UpdateJournal",
    "UpdateResult",
    "ResiliencePolicy",
    "ResilientConnector",
    "RetryPolicy",
    "StorageConnector",
    "restrict_view",
    "Discrepancy",
    "MsqlError",
    "MsqlSession",
    "parse_msql",
    "Federation",
    "FirstOrderFederation",
    "attach_storage",
    "flush_rows_to_storage",
    "universe_rows",
    "convert",
    "customized_view_rule",
    "detect_discrepancies",
    "detect_style",
    "flush_to_storage",
    "from_long",
    "infer_schema",
    "maintenance_programs",
    "member_view_rule",
    "reconciliation_rule",
    "report",
    "storage_to_relations",
    "styles_equivalent",
    "to_long",
    "unified_view_rules",
    "view_update_programs",
]

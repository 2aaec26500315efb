"""FederationConfig: one validated object for federation construction.

The :class:`~repro.multidb.federation.Federation` constructor grew one
keyword at a time — ``obs=``, ``journal=``, ``crash=``, ``prune=`` —
and the scatter-gather executor would have added three more
(``parallel=``, ``max_workers=``, ``hedge_after=``). This module
consolidates the whole construction surface into a single dataclass
with validated fields::

    config = FederationConfig(parallel="on", max_workers=4,
                              journal=FileJournal("updates.jsonl"))
    federation = Federation.from_config(config)

Every field has the historical default, so ``FederationConfig()`` is
exactly ``Federation()``. The config is the only construction surface;
``docs/architecture.md`` carries the migration note for code written
against the old keyword form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import FederationError

_SWITCHES = ("on", "off")
_VALIDATE_MODES = ("off", "warn", "strict")


@dataclass(frozen=True)
class FederationConfig:
    """Everything a :class:`~repro.multidb.federation.Federation` is
    built from.

    Naming / engine surface:

    * ``unified_db`` / ``unified_relation`` — where the unified view U
      lives (the paper's ``dbI.p``);
    * ``control_db`` — the control database holding name mappings and
      update programs.

    Infrastructure:

    * ``obs`` — a configured :class:`~repro.obs.Observability`
      (``None`` builds one with tracing enabled);
    * ``journal`` — the write-ahead
      :class:`~repro.multidb.journal.UpdateJournal` (``None`` means an
      in-memory journal);
    * ``crash`` — a :class:`~repro.multidb.journal.CrashInjector` for
      deterministic crash testing (``None`` in production).

    Policy:

    * ``prune`` — ``"on"``/``"off"``: static effect analysis drives
      query-side member pruning (flushes stage the members an update's
      change log names either way);
    * ``validate`` — the default ``install()`` validation mode
      (``"off"``/``"warn"``/``"strict"``);
    * ``policy`` — the default
      :class:`~repro.multidb.resilience.ResiliencePolicy` (retries,
      backoff, per-operation deadline, breaker thresholds) for
      connector-backed members that don't pass their own.

    Concurrency (see ``docs/concurrency.md``):

    * ``parallel`` — ``"on"``/``"off"``: scatter-gather member I/O vs
      the deterministic serial fallback;
    * ``max_workers`` — worker-pool bound (``None`` =
      ``min(8, members)``);
    * ``hedge_after`` — wall seconds after which a straggling
      idempotent scan is retried on a second worker (``None`` disables
      hedging).

    Telemetry (see ``docs/observability.md``):

    * ``telemetry_port`` — when set, the federation starts a
      :class:`~repro.obs.server.TelemetryServer` on
      ``127.0.0.1:<port>`` serving ``/metrics`` (Prometheus text),
      ``/health``, ``/slo`` and ``/traces/*``. ``0`` binds an
      ephemeral port (read it back from ``federation.telemetry.port``);
      ``None`` (the default) serves nothing.
    """

    unified_db: str = "dbI"
    unified_relation: str = "p"
    control_db: str = "dbU"
    obs: object = None
    journal: object = None
    crash: object = None
    prune: str = "on"
    validate: str = "off"
    policy: object = None
    parallel: str = "on"
    max_workers: object = None
    hedge_after: object = None
    telemetry_port: object = None

    def __post_init__(self):
        if self.prune not in _SWITCHES:
            raise FederationError(
                f"prune must be 'on' or 'off', got {self.prune!r}"
            )
        if self.parallel not in _SWITCHES:
            raise FederationError(
                f"parallel must be 'on' or 'off', got {self.parallel!r}"
            )
        if self.validate not in _VALIDATE_MODES:
            raise FederationError(
                f"validate must be 'off', 'warn' or 'strict', "
                f"not {self.validate!r}"
            )
        if self.max_workers is not None and (
                not isinstance(self.max_workers, int)
                or isinstance(self.max_workers, bool)
                or self.max_workers < 1):
            raise FederationError(
                f"max_workers must be a positive integer or None, "
                f"got {self.max_workers!r}"
            )
        if self.hedge_after is not None:
            try:
                positive = self.hedge_after > 0
            except TypeError:
                positive = False
            if not positive:
                raise FederationError(
                    f"hedge_after must be positive seconds or None, "
                    f"got {self.hedge_after!r}"
                )
        if self.telemetry_port is not None and (
                not isinstance(self.telemetry_port, int)
                or isinstance(self.telemetry_port, bool)
                or not 0 <= self.telemetry_port <= 65535):
            raise FederationError(
                f"telemetry_port must be an integer in [0, 65535] or "
                f"None, got {self.telemetry_port!r}"
            )

    def replace(self, **changes):
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


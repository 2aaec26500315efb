"""FederationConfig: the consolidated federation construction surface.

Covers field validation, ``Federation.from_config``, ``replace``
re-validation, and that config construction neither warns nor changes
the validation errors the retired keyword form raised.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import FederationError
from repro.multidb import (
    Federation,
    FederationConfig,
    InMemoryConnector,
    InMemoryJournal,
)
from repro.multidb.resilience import ResiliencePolicy
from repro.workloads.stocks import StockWorkload

STYLES = ("euter", "chwab", "ource")


@pytest.fixture
def workload():
    return StockWorkload(n_stocks=2, n_days=2, seed=7)


def build_from(config, workload):
    federation = Federation.from_config(config)
    for style in STYLES:
        federation.add_member(
            style, style,
            connector=InMemoryConnector(workload.relations_for(style)),
        )
    federation.install()
    return federation


class TestValidation:
    def test_defaults_are_the_historical_federation(self):
        config = FederationConfig()
        assert (config.unified_db, config.unified_relation,
                config.control_db) == ("dbI", "p", "dbU")
        assert config.prune == "on"
        assert config.validate == "off"
        assert config.parallel == "on"
        assert config.max_workers is None
        assert config.hedge_after is None

    @pytest.mark.parametrize("field,bad,match", [
        ("prune", "maybe", "prune must be"),
        ("parallel", "auto", "parallel must be"),
        ("validate", "loud", "validate must be"),
        ("max_workers", 0, "max_workers must be"),
        ("max_workers", True, "max_workers must be"),
        ("max_workers", "two", "max_workers must be"),
        ("hedge_after", 0, "hedge_after must be"),
        ("hedge_after", -1.0, "hedge_after must be"),
        ("hedge_after", "soon", "hedge_after must be"),
    ])
    def test_bad_fields_raise(self, field, bad, match):
        with pytest.raises(FederationError, match=match):
            FederationConfig(**{field: bad})

    def test_replace_revalidates(self):
        config = FederationConfig(max_workers=4)
        assert config.replace(max_workers=2).max_workers == 2
        with pytest.raises(FederationError):
            config.replace(parallel="sideways")

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            FederationConfig().parallel = "off"


class TestFromConfig:
    def test_from_config_threads_every_field(self, workload):
        journal = InMemoryJournal()
        policy = ResiliencePolicy(max_attempts=1)
        config = FederationConfig(journal=journal, prune="off",
                                  policy=policy, parallel="off",
                                  max_workers=3, hedge_after=0.5)
        federation = Federation.from_config(config)
        assert federation.config is config
        assert federation.journal is journal
        assert federation.prune == "off"
        assert federation.executor.parallel == "off"
        assert federation.executor.max_workers == 3
        assert federation.executor.hedge_after == 0.5

    def test_parallel_and_serial_federations_answer_alike(self, workload):
        serial = build_from(FederationConfig(parallel="off"), workload)
        parallel = build_from(FederationConfig(parallel="on"), workload)
        assert serial.unified_quotes() == parallel.unified_quotes()

    def test_config_policy_is_the_member_default(self, workload):
        policy = ResiliencePolicy(max_attempts=7)
        federation = Federation.from_config(FederationConfig(policy=policy))
        federation.add_member(
            "euter", "euter",
            connector=InMemoryConnector(workload.relations_for("euter")),
        )
        assert federation.connectors["euter"].policy is policy

    def test_validate_default_drives_install(self, workload):
        """``validate`` in the config is the ``install()`` default."""
        federation = build_from(
            FederationConfig(validate="warn"), workload
        )
        assert federation.members  # install with warn mode succeeded


class TestLegacyShim:
    """The keyword form is gone; what it guaranteed still holds."""

    def test_legacy_validation_error_is_unchanged(self):
        with pytest.raises(FederationError,
                           match="prune must be 'on' or 'off'"):
            FederationConfig(prune="maybe")

    def test_plain_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Federation()
            Federation.from_config(FederationConfig())


class TestExports:
    def test_config_is_in_the_public_api(self):
        import repro
        import repro.multidb as multidb

        assert "FederationConfig" in repro.__all__
        assert "FederationConfig" in multidb.__all__
        assert repro.FederationConfig is FederationConfig

"""``repro.analysis`` — the ``idlcheck`` static analyzer.

Ahead-of-time, whole-program analysis of IDL multidatabase programs:
schema-aware name resolution against member catalogs, safety and
stratification, update-program coverage, dead-code detection, and a
type-and-effect system (:mod:`repro.analysis.types` /
:mod:`repro.analysis.effects`) whose inferred read sets also drive
the engine's member pruning. See ``docs/static_analysis.md`` for the diagnostic
code reference and the inference rules.
"""

from repro.analysis.catalog import Catalog
from repro.analysis.checker import (
    CallShape,
    ProgramChecker,
    check_engine,
    check_source,
    check_statements,
)
from repro.analysis.diagnostics import (
    CODES,
    ERROR,
    WARNING,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.effects import EffectAnalysis, Effects, EffectSet
from repro.analysis.types import TypeInference

__all__ = [
    "CODES",
    "ERROR",
    "WARNING",
    "CallShape",
    "Catalog",
    "Diagnostic",
    "DiagnosticReport",
    "EffectAnalysis",
    "EffectSet",
    "Effects",
    "ProgramChecker",
    "TypeInference",
    "check_engine",
    "check_source",
    "check_statements",
]

"""Structural validation and sanity reporting for SOC descriptions.

The :class:`~repro.soc.soc.Soc` and :class:`~repro.soc.module.Module`
dataclasses enforce hard invariants at construction time (non-negative
counts, unique names, ...).  This module adds *soft* validation: checks that
do not make a description invalid but usually indicate a modelling mistake,
such as a module with thousands of functional terminals and no scan, or a
pattern count of one.

The result of validation is a list of :class:`ValidationIssue` objects, each
carrying a severity, the offending module (if any) and a message.
Validation is opt-in: no library code path (catalog loading, the
experiments, the solvers) calls :func:`validate_soc` on its own.  Call it
on a description you do not trust -- a hand-written or converted ``.soc``
file, say -- before optimising it, so a corrupted description fails loudly
instead of silently producing odd numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.soc.module import Module
from repro.soc.soc import Soc


class Severity(Enum):
    """Severity of a validation issue."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ValidationIssue:
    """A single finding produced by :func:`validate_soc`."""

    severity: Severity
    message: str
    module_name: str | None = None

    def __str__(self) -> str:
        where = f" [{self.module_name}]" if self.module_name else ""
        return f"{self.severity.value.upper()}{where}: {self.message}"


# Thresholds for the soft checks.  They are deliberately generous: ITC'02
# benchmarks contain modules with hundreds of scan chains and tens of
# thousands of flip-flops, which is perfectly normal.
_MAX_REASONABLE_SCAN_CHAINS = 1024
_MAX_REASONABLE_CHAIN_LENGTH = 100_000
_MAX_REASONABLE_PATTERNS = 10_000_000
_MAX_REASONABLE_TERMINALS = 100_000


def _validate_module(module: Module) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if module.num_scan_chains > _MAX_REASONABLE_SCAN_CHAINS:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                f"{module.num_scan_chains} scan chains is unusually large",
                module.name,
            )
        )
    for chain in module.scan_chains:
        if chain.length > _MAX_REASONABLE_CHAIN_LENGTH:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    f"scan chain {chain.name or '?'} has length {chain.length}, "
                    "which is unusually long",
                    module.name,
                )
            )
            break
    if module.patterns > _MAX_REASONABLE_PATTERNS:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                f"pattern count {module.patterns} is unusually large",
                module.name,
            )
        )
    if module.patterns == 1:
        issues.append(
            ValidationIssue(
                Severity.INFO,
                "single-pattern module; test time will be dominated by one scan load",
                module.name,
            )
        )
    terminals = module.inputs + module.outputs + module.bidirs
    if terminals > _MAX_REASONABLE_TERMINALS:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                f"{terminals} functional terminals is unusually large",
                module.name,
            )
        )
    if module.num_scan_chains == 0 and terminals > 1000:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "module has no scan chains but more than 1000 terminals; "
                "wrapper chains will be built from terminal cells only",
                module.name,
            )
        )
    return issues


def validate_soc(soc: Soc) -> list[ValidationIssue]:
    """Run all soft checks on ``soc`` and return the findings.

    An empty list means the description looks healthy.  Hard structural
    errors are impossible here because they are rejected at construction
    time by the dataclasses themselves.
    """
    issues: list[ValidationIssue] = []
    for module in soc.modules:
        issues.extend(_validate_module(module))
    if len(soc.modules) > 2000:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                f"SOC has {len(soc.modules)} modules; optimisation will be slow",
            )
        )
    if soc.test_data_volume_bits == 0:
        issues.append(
            ValidationIssue(Severity.ERROR, "SOC has zero test-data volume")
        )
    return issues


def has_errors(issues: Sequence[ValidationIssue]) -> bool:
    """Return True when any issue has :class:`Severity.ERROR`."""
    return any(issue.severity is Severity.ERROR for issue in issues)


def format_issues(issues: Sequence[ValidationIssue]) -> str:
    """Format issues as a newline-separated report (empty string if none)."""
    return "\n".join(str(issue) for issue in issues)

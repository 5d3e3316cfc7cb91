"""Finding and waiver plumbing shared by every lint rule.

A :class:`Finding` names one violated invariant at one source line.
Waivers (``# repro: lint-waive R00N <reason>``) suppress a finding on
their own line or the line directly below — never a whole file — and
must carry a non-empty reason; a reasonless waiver is reported as
``R000`` and cannot itself be waived.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

__all__ = [
    "CORPUS_MARKER",
    "Finding",
    "collect_waivers",
    "corpus_logical_path",
    "suppress_waived",
]

#: Header token marking a lint-corpus fixture file (skipped by walks).
CORPUS_MARKER = "repro-lint-corpus"

_WAIVE_RE = re.compile(
    r"#\s*repro:\s*lint-waive\s+(R\d{3})\b[ \t]*(.*?)\s*$"
)
_CORPUS_RE = re.compile(r"#\s*" + CORPUS_MARKER + r":\s*(\S+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def corpus_logical_path(lines: Sequence[str]) -> str | None:
    """The pretend path a corpus fixture declares, if any.

    Corpus snippets exercise path-scoped rules (R002 only fires inside
    the engine/sort/ops/merge packages, R003's order in resilience.py),
    so each fixture names the path it pretends to live at in a header
    comment: ``# repro-lint-corpus: src/repro/engine/example.py``.
    """
    for line in lines[:5]:
        match = _CORPUS_RE.search(line)
        if match:
            return match.group(1)
    return None


def collect_waivers(
    path: str, lines: Sequence[str]
) -> Tuple[Dict[str, Set[int]], List[Finding]]:
    """Parse waiver comments; returns ``(covered, bad_waivers)``.

    ``covered`` maps a rule id to the set of line numbers it is waived
    on (the waiver's own line and the next line, so a waiver comment
    can sit inline or directly above the flagged statement).  A waiver
    without a reason string is returned as an R000 finding instead of
    taking effect — the escape hatch requires justification.
    """
    covered: Dict[str, Set[int]] = {}
    bad: List[Finding] = []
    for number, line in enumerate(lines, start=1):
        match = _WAIVE_RE.search(line)
        if match is None:
            continue
        rule, reason = match.group(1), match.group(2)
        if not reason:
            bad.append(
                Finding(
                    path,
                    number,
                    "R000",
                    f"waiver for {rule} has no reason; write "
                    f"'# repro: lint-waive {rule} <why this is safe>'",
                )
            )
            continue
        covered.setdefault(rule, set()).update((number, number + 1))
    return covered, bad


def suppress_waived(
    findings: Sequence[Finding], covered: Dict[str, Set[int]]
) -> List[Finding]:
    """Drop findings a (reasoned) waiver covers."""
    return [
        finding
        for finding in findings
        if finding.line not in covered.get(finding.rule, ())
    ]

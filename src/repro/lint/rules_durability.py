"""R003 — one durability seam, and the §11 order around it.

Every durable write goes through the seam in ``engine/resilience.py``
(DESIGN.md §11), so the first check is one call: ``os.fsync`` outside
the seam's ``_fsync``, or ``os.replace`` outside ``publish``, is a
finding.  A hand-written fsync escapes the fault harness and the
fsync-failure rule; a hand-written rename is the un-fsynced or
half-cleaned publish the seam exists to prevent.

The order around the seam is the caller's to keep — **write → sync →
journal append → delete inputs** — and is checked within each
function of a ``resilience`` module or a store module:

* a journal/manifest ``append`` whose entry literal carries a
  ``"file"`` key (or a ``**`` splat that may carry one) must be
  preceded — in source order — by a durability event: a ``sync``
  call, a ``write_marker`` call, or any call passing a literal
  ``fsync=True`` (``write_block_file``, the store's ``write_table``);
* once such an append exists in a function, any ``os.remove`` /
  ``unlink`` in that function must come *after* an append — deleting
  first would reorder the invariant.

Appends without a ``"file"`` key (``meta``, ``runs_done``) reference
no artifact and are exempt.  Source order approximates control flow —
precise enough for the straight-line journal code this rule guards,
and the corpus locks both directions.
"""

from __future__ import annotations

import ast
import posixpath
from typing import List

from repro.lint.astutil import (
    call_args_contain_dict_key,
    dotted,
    iter_scopes,
    last_component,
)
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, rule

_DELETERS = ("remove", "unlink")

#: The seam: the one function allowed to make each raw call.
_SEAM = {"os.fsync": "_fsync", "os.replace": "publish"}


def _is_durability_event(call: ast.Call) -> bool:
    if last_component(call.func) in ("sync", "write_marker"):
        return True
    # Any helper taking a literal ``fsync=True`` keyword —
    # ``write_block_file``, the store's ``write_table`` — declares
    # itself a durability event; a variable or False never counts.
    return any(
        keyword.arg == "fsync"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def _is_journal_append(call: ast.Call) -> bool:
    if last_component(call.func) != "append":
        return False
    if not isinstance(call.func, ast.Attribute):
        return False
    receiver = dotted(call.func.value) or ""
    receiver = receiver.lower()
    # The store MANIFEST is a journal in §11's sense: its append is
    # the commit point that must trail the artifact's fsync.
    return "journal" in receiver or "manifest" in receiver


@rule("R003")
def check_durability_order(ctx: FileContext) -> List[Finding]:
    path = ctx.logical_path.replace("\\", "/")
    if "tests/" in path:
        return []
    in_resilience = posixpath.basename(path) == "resilience.py"
    check_order = in_resilience or "repro/store/" in path
    findings: List[Finding] = []
    for scope in iter_scopes(ctx.tree):
        events: List[int] = []
        file_appends: List[int] = []
        deletes: List[int] = []
        for node in scope.nodes():
            if not isinstance(node, ast.Call):
                continue
            raw = dotted(node.func)
            if raw in _SEAM:
                if not (in_resilience and scope.name == _SEAM[raw]):
                    findings.append(
                        Finding(
                            ctx.path,
                            node.lineno,
                            "R003",
                            f"{raw} outside the durability seam — use "
                            f"resilience.sync / resilience.publish, which "
                            f"the fsync-failure rule and the fault "
                            f"harness cover (§11)",
                        )
                    )
            elif _is_durability_event(node):
                events.append(node.lineno)
            elif _is_journal_append(node) and call_args_contain_dict_key(
                node, "file"
            ):
                file_appends.append(node.lineno)
            elif last_component(node.func) in _DELETERS:
                deletes.append(node.lineno)
        if not check_order or isinstance(scope.node, ast.ClassDef):
            continue
        for line in file_appends:
            if not any(event < line for event in events):
                findings.append(
                    Finding(
                        ctx.path,
                        line,
                        "R003",
                        "journal append records a file with no preceding "
                        "sync in this function — the manifest would "
                        "claim bytes the OS may not have persisted "
                        "(§11 write→sync→journal order)",
                    )
                )
        if file_appends:
            first_append = min(file_appends)
            for line in deletes:
                if line < first_append:
                    findings.append(
                        Finding(
                            ctx.path,
                            line,
                            "R003",
                            "input deleted before the journal append "
                            "that supersedes it — a crash in between "
                            "loses both the data and its journal entry "
                            "(§11 journal→delete order)",
                        )
                    )
    return findings

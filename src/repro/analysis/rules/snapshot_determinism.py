"""Snapshot-determinism rule: the snapshot codec is a pure function.

A corpus snapshot must be byte-identical for identical corpus state:
differential tests compare files and CI caches depend on stable bytes.
Wall-clock timestamps, random values or fresh UUIDs anywhere in
:mod:`repro.storage.snapshot` would silently break that — so the module may
not even import the tempting modules (``time``, ``random``, ``uuid``,
``datetime``), nor call through to them via an attribute reference someone
smuggles in.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import FileContext, Rule, Scope, register_rule

__all__ = ["SnapshotDeterminismRule"]

#: Modules that must stay deterministic, and what they may not touch.
DETERMINISTIC_MODULES = ("repro.storage.snapshot",)
_FORBIDDEN_MODULES = frozenset({"time", "random", "uuid", "datetime"})


@register_rule
class SnapshotDeterminismRule(Rule):
    rule_id = "snapshot-determinism"
    description = "no time/random/uuid use inside the snapshot codec"
    interests = (ast.Import, ast.ImportFrom, ast.Call)

    def visit(self, node: ast.AST, scope: Scope, context: FileContext) -> None:
        if not context.is_module(*DETERMINISTIC_MODULES):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _FORBIDDEN_MODULES:
                    self._flag(context, node.lineno, f"imports {alias.name!r}")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _FORBIDDEN_MODULES:
                self._flag(context, node.lineno, f"imports from {node.module!r}")
        else:
            assert isinstance(node, ast.Call)
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in _FORBIDDEN_MODULES:
                    self._flag(context, node.lineno, f"calls {func.value.id}.{func.attr}()")

    def _flag(self, context: FileContext, line: int, what: str) -> None:
        context.report(
            self.rule_id,
            line,
            f"snapshot codec {what}: snapshots must be byte-identical for "
            "identical corpus state (no wall clock, randomness or UUIDs)",
        )

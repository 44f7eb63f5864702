"""RL007 shm-discipline: no raw shared-memory segments under ``repro``.

The sharded solver ships each worker a pickled shard instance; nothing
in the package creates or attaches ``multiprocessing.shared_memory``
segments, and a new raw one would have no owner: the resource tracker
double-registers it under fork pools, and a worker death leaves it in
``/dev/shm``.

The rule therefore flags, in every ``repro`` module not listed in the
``allow_modules`` option (empty by default):

* any call whose target is ``SharedMemory`` (bare or dotted, however the
  module was imported or aliased);
* any ``import multiprocessing.shared_memory`` /
  ``from multiprocessing.shared_memory import ...``.

A module that really needs shared memory must first own a lifecycle
(exactly-once unlink, untracked attaches, teardown on worker death) and
then be listed in ``allow_modules``.  See ``docs/linting.md``.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext, dotted_name, module_matches
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_SHM_MODULE = "multiprocessing.shared_memory"


@register
class ShmDiscipline(Rule):
    code = "RL007"
    name = "shm-discipline"
    description = (
        "no raw SharedMemory(...) or multiprocessing.shared_memory imports "
        "outside an allow-listed lifecycle owner"
    )
    default_options = {
        "modules": ["repro"],
        "allow_modules": [],
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        if not module_matches(context.module, self.options["modules"]):
            return []
        if module_matches(context.module, self.options["allow_modules"]):
            return []
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and (
                    dotted == "SharedMemory"
                    or dotted.endswith(".SharedMemory")
                ):
                    findings.append(
                        self.finding(
                            context,
                            node,
                            f"raw `{dotted}(...)` creates a segment with no "
                            "owner to unlink it — ship pickled data to "
                            "workers instead, or list a module that owns "
                            "the segment lifecycle in allow_modules",
                        )
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _SHM_MODULE or alias.name.startswith(
                        _SHM_MODULE + "."
                    ):
                        findings.append(self._import_finding(context, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == _SHM_MODULE or (
                    node.module == "multiprocessing"
                    and any(
                        alias.name == "shared_memory"
                        for alias in node.names
                    )
                ):
                    findings.append(self._import_finding(context, node))
        return findings

    def _import_finding(
        self, context: ModuleContext, node: ast.AST
    ) -> Finding:
        return self.finding(
            context,
            node,
            "importing multiprocessing.shared_memory outside an "
            "allow-listed module — segment creation and attachment need "
            "an owner that unlinks exactly once",
        )

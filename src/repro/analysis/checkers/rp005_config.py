"""RP005 — config drift.

Two config types are the tunables surface: ``CuTSConfig``
(``core/config.py``, the fingerprinted engine choices) and
``ServiceConfig`` (``service/config.py``, the serving knobs).  Every
experiment, benchmark, CLI run and server goes through them.  Drift
shows up two ways, and both have bitten engines like this one
silently: a field nobody reads (so "tuning" it is a no-op and ablations
lie), or a CLI flag that parses but never reaches a field (so the flag
is theater).  This rule closes the loop statically.

Flagged:

* a field of either config type never referenced (attribute access or
  keyword argument) outside its own module;
* an ``argparse`` flag whose destination is never read back off the
  parsed namespace in its module (``cli.py`` and ``service/http.py``);
* a ``CuTSConfig(...)`` or ``ServiceConfig(...)`` call passing a
  keyword that names no field.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Checker, call_keywords
from ..diagnostics import Diagnostic
from ..engine import Project, SourceModule
from ..registry import register

CONFIGS = (("core/config.py", "CuTSConfig"), ("service/config.py", "ServiceConfig"))
"""(logical module suffix, dataclass name) of each config type."""
CLI_MODULES = ("cli.py", "service/http.py")
"""Modules whose ``argparse`` flags must each be read back."""


def _config_fields(module: SourceModule, cls: str) -> dict[str, int] | None:
    """Annotated fields of the config dataclass (name -> line)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            fields: dict[str, int] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields[stmt.target.id] = stmt.lineno
            return fields
    return None


def _referenced_names(module: SourceModule) -> set[str]:
    """Attribute and keyword-argument names used in a module."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def _argparse_dests(module: SourceModule) -> dict[str, ast.Call]:
    """Namespace destinations declared by ``add_argument`` calls."""
    dests: dict[str, ast.Call] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "add_argument":
            continue
        kw = call_keywords(node)
        dest = kw.get("dest")
        if isinstance(dest, ast.Constant) and isinstance(dest.value, str):
            dests[dest.value] = node
            continue
        for arg in node.args:
            if not isinstance(arg, ast.Constant) or not isinstance(
                arg.value, str
            ):
                continue
            name = arg.value
            if name.startswith("--"):
                dests[name[2:].replace("-", "_")] = node
                break
            if not name.startswith("-"):
                dests[name] = node
                break
    return dests


def _namespace_reads(module: SourceModule) -> set[str]:
    """Attributes read off any name bound to a parsed namespace.

    Conservative: every ``<name>.<attr>`` where ``<name>`` is a plain
    variable counts, so passing ``args`` through helpers in the same
    module is recognized.
    """
    reads: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            reads.add(node.attr)
    return reads


@register
class ConfigDriftChecker(Checker):
    rule = "RP005"
    name = "config-drift"
    description = (
        "every CuTSConfig and ServiceConfig field is read somewhere "
        "real, every CLI flag reaches a live destination, no unknown "
        "config kwargs"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        schemas: dict[str, set[str]] = {}
        for suffix, cls in CONFIGS:
            config_module = project.find(suffix)
            if config_module is None:
                continue
            fields = _config_fields(config_module, cls)
            if fields is None:
                continue
            schemas[cls] = set(fields)
            used: set[str] = set()
            for module in project.modules:
                if module is not config_module:
                    used |= _referenced_names(module)
            for name, line in sorted(fields.items()):
                if name not in used:
                    yield Diagnostic(
                        path=config_module.rel,
                        line=line,
                        col=1,
                        rule=self.rule,
                        message=(
                            f"{cls}.{name} is dead: no module outside "
                            f"{suffix} reads or sets it"
                        ),
                    )

        yield from self._check_unknown_kwargs(project, schemas)

        for suffix in CLI_MODULES:
            cli_module = project.find(suffix)
            if cli_module is not None:
                yield from self._check_cli(cli_module)

    # ------------------------------------------------------------------
    def _check_unknown_kwargs(
        self, project: Project, schemas: dict[str, set[str]]
    ) -> Iterable[Diagnostic]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                fields = schemas.get(callee or "")
                if fields is None:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None and kw.arg not in fields:
                        yield self.diag(
                            module,
                            kw.value,
                            f"unknown {callee} kwarg '{kw.arg}': flag "
                            f"or call site drifted from the config schema",
                        )

    def _check_cli(self, cli: SourceModule) -> Iterable[Diagnostic]:
        reads = _namespace_reads(cli)
        for dest, node in sorted(_argparse_dests(cli).items()):
            if dest not in reads:
                yield self.diag(
                    cli,
                    node,
                    f"CLI flag with dest '{dest}' is parsed but never "
                    f"read: it maps to no live config field or action",
                )

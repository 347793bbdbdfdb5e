"""RP001 — shared-memory write safety.

The multi-core engine (:mod:`repro.parallel`) maps the data graph's CSR
arrays into one POSIX shared-memory segment that every worker process
attaches zero-copy.  A single in-place write through any attached view
corrupts the graph under every sibling worker *silently* — NumPy cannot
tell a shared mapping from a private one.  The same discipline applies
to the graph's lazily built edge-key index (``edge_keys``), which every
matcher and service thread bound to the graph shares, and to any
parameter a docstring documents as read-only.

Flagged:

* subscript stores / augmented stores whose target is an attribute chain
  ending in a CSR array field (``x.indices[i] = v``, ``g.indptr[:] += 1``);
* mutating method calls on such chains (``g.indices.sort()``);
* scatter-style ufunc writes (``np.add.at(g.indices, ...)``) whose first
  argument is such a chain;
* any of the above rooted at a parameter documented ``read-only`` in the
  enclosing function's docstring.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from ..base import Checker, attribute_chain, walk_functions
from ..diagnostics import Diagnostic
from ..engine import SourceModule
from ..registry import register

CSR_FIELDS = frozenset(
    {"indptr", "indices", "rindptr", "rindices", "labels", "edge_keys"}
)

MUTATING_METHODS = frozenset(
    {"sort", "fill", "resize", "partition", "put", "itemset", "byteswap"}
)

_READONLY_PARAM_RE = re.compile(
    r"``?(?P<name>\w+)``?[^\n]{0,100}read-?only", re.IGNORECASE
)


def _is_csr_chain(node: ast.AST) -> str | None:
    """Dotted name when ``node`` is an attribute chain ending in a CSR
    array field (``graph.indices``, ``self.data.indptr``)."""
    chain = attribute_chain(node)
    if chain is not None and len(chain) >= 2 and chain[-1] in CSR_FIELDS:
        return ".".join(chain)
    return None


def _readonly_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    doc = ast.get_docstring(func) or ""
    args = func.args
    names = {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        if a.arg not in ("self", "cls")
    }
    return {
        m.group("name")
        for m in _READONLY_PARAM_RE.finditer(doc)
        if m.group("name") in names
    }


def _rooted_at(node: ast.AST, names: set[str]) -> str | None:
    """Dotted name when the chain's root Name is in ``names``."""
    chain = attribute_chain(node)
    if chain is not None and chain[0] in names:
        return ".".join(chain)
    return None


@register
class SharedWriteChecker(Checker):
    rule = "RP001"
    name = "shared-memory-write-safety"
    description = (
        "no in-place mutation of CSR arrays shared across workers or of "
        "parameters documented read-only"
    )

    def check_module(self, module: SourceModule) -> Iterable[Diagnostic]:
        yield from self._check_csr_writes(module)
        yield from self._check_readonly_params(module)

    # ------------------------------------------------------------------
    def _check_csr_writes(self, module: SourceModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    name = _is_csr_chain(target.value)
                    if name:
                        yield self.diag(
                            module,
                            node,
                            f"in-place write to CSR array '{name}': CSR "
                            f"views are shared read-only across workers",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, None)

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        readonly: set[str] | None,
    ) -> Iterator[Diagnostic]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in MUTATING_METHODS:
            name = (
                _rooted_at(func.value, readonly)
                if readonly is not None
                else _is_csr_chain(func.value)
            )
            if name:
                what = (
                    "read-only parameter" if readonly is not None
                    else "CSR array"
                )
                yield self.diag(
                    module,
                    node,
                    f"mutating call '{name}.{func.attr}()' on {what} "
                    f"'{name}'",
                )
        elif func.attr == "at" and node.args:
            # np.add.at(target, ...) — scatter write into target.
            name = (
                _rooted_at(node.args[0], readonly)
                if readonly is not None
                else _is_csr_chain(node.args[0])
            )
            if name:
                what = (
                    "read-only parameter" if readonly is not None
                    else "CSR array"
                )
                yield self.diag(
                    module,
                    node,
                    f"scatter write 'ufunc.at' into {what} '{name}'",
                )

    # ------------------------------------------------------------------
    def _check_readonly_params(
        self, module: SourceModule
    ) -> Iterator[Diagnostic]:
        for func in walk_functions(module.tree):
            readonly = _readonly_params(func)
            if not readonly:
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        base: ast.AST | None = None
                        if isinstance(target, ast.Subscript):
                            base = target.value
                        elif isinstance(target, ast.Attribute):
                            base = target
                        if base is None:
                            continue
                        name = _rooted_at(base, readonly)
                        if name:
                            yield self.diag(
                                module,
                                node,
                                f"write through read-only parameter "
                                f"'{name}' (documented read-only in "
                                f"'{func.name}')",
                            )
                elif isinstance(node, ast.Call):
                    yield from self._check_call(module, node, readonly)

"""Reaching definitions.

A *definition* is a pair ``(var, sid)``.  Element stores (``d[k] = v``)
are weak updates: they generate a definition of ``d`` but do **not**
kill earlier definitions, because only part of the value changed.
Whole-variable stores kill every earlier definition of the variable.
A weak update through a name also weakly defines every name that may
alias it (:func:`may_aliases`): after ``q = pkt``, ``q.dport = 7``
changes what ``pkt`` holds.

A synthetic definition site :data:`INITIAL` represents values flowing in
from outside the analysed block: function parameters, module globals and
anything else live-on-entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.cfg.graph import CFG, ENTRY, EXIT
from repro.dataflow.framework import DataflowProblem, solve
from repro.lang.ir import (
    ECond,
    EList,
    EName,
    ETuple,
    Expr,
    LName,
    LTuple,
    LValue,
    Program,
    SAssign,
    Stmt,
    call_mutated_names,
    stmt_defs,
)

#: Synthetic sid for definitions that reach from outside the block.
INITIAL = -100

Definition = Tuple[str, int]
Facts = FrozenSet[Definition]


def _strong_defs(stmt: Stmt) -> Set[str]:
    """Variables *strongly* (whole-value) defined by ``stmt``."""
    if not isinstance(stmt, SAssign):
        return set()
    out: Set[str] = set()

    def visit(target: LValue) -> None:
        if isinstance(target, LName):
            out.add(target.id)
        elif isinstance(target, LTuple):
            for t in target.elts:
                visit(t)

    for t in stmt.targets:
        visit(t)
    # An augmented assign still replaces the whole value of an LName.
    out -= call_mutated_names(stmt.value)
    return out


def may_aliases(stmts: Iterable[Stmt]) -> Dict[str, FrozenSet[str]]:
    """Flow-insensitive may-alias classes of names.

    A name-to-name copy ``a = b`` may leave both names bound to one
    object; the flattener binds inlined parameters and return values
    with exactly such copies.  Classes are the union of every copy in
    ``stmts``, in any order.  Maps each name of a class with two or
    more members to the whole class.
    """
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = parent.setdefault(name, name)
        while root != parent[root]:
            root = parent[root]
        parent[name] = root
        return root

    def bind(target: LValue, value: Expr) -> None:
        if isinstance(value, ECond):
            bind(target, value.body)
            bind(target, value.orelse)
        elif isinstance(target, LName) and isinstance(value, EName):
            parent[find(target.id)] = find(value.id)
        elif (
            isinstance(target, LTuple)
            and isinstance(value, (ETuple, EList))
            and len(target.elts) == len(value.elts)
        ):
            for sub, item in zip(target.elts, value.elts):
                bind(sub, item)

    for stmt in stmts:
        if isinstance(stmt, SAssign) and stmt.aug is None:
            for target in stmt.targets:
                bind(target, stmt.value)
    classes: Dict[str, Set[str]] = {}
    for name in parent:
        classes.setdefault(find(name), set()).add(name)
    return {
        name: frozenset(members)
        for members in classes.values()
        if len(members) > 1
        for name in members
    }


class ReachingDefinitions(DataflowProblem[Facts]):
    """The reaching-definitions problem for one CFG."""

    direction = "forward"

    def __init__(self, stmts: Dict[int, Stmt], entry_vars: Set[str]) -> None:
        self._stmts = stmts
        self._entry_vars = entry_vars
        self._aliases = may_aliases(stmts.values())

    def bottom(self) -> Facts:
        return frozenset()

    def boundary(self) -> Facts:
        return frozenset((v, INITIAL) for v in self._entry_vars)

    def join(self, a: Facts, b: Facts) -> Facts:
        return a | b

    def transfer(self, node: int, fact: Facts) -> Facts:
        stmt = self._stmts.get(node)
        if stmt is None:
            return fact
        defs = stmt_defs(stmt)
        if not defs:
            return fact
        strong = _strong_defs(stmt)
        for name in defs - strong:
            defs = defs | self._aliases.get(name, frozenset())
        surviving = frozenset(d for d in fact if d[0] not in strong)
        generated = frozenset((v, node) for v in defs)
        return surviving | generated


def reaching_definitions(
    cfg: CFG,
    stmts: Dict[int, Stmt],
    entry_vars: Set[str],
) -> Tuple[Dict[int, Facts], Dict[int, Facts]]:
    """Solve reaching definitions; returns ``(in, out)`` fact maps.

    ``entry_vars`` should contain every variable that may hold a value
    when the block starts (parameters and globals); their definitions
    appear with the synthetic sid :data:`INITIAL`.
    """
    return solve(cfg, ReachingDefinitions(stmts, entry_vars))

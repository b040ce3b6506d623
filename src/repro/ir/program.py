"""Whole-program IR container.

An :class:`IRProgram` owns one :class:`IRMethod` per source method (plus
synthesized constructors, class initializers, and the program entry), the
class table from the frontend, and label maps from program points back to
commands and methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..lang.types import ClassTable
from .instructions import AllocSite, Command, Invoke, New, NewArray
from .stmts import AtomicStmt, Choice, Loop, Seq, Stmt, walk_commands, walk_statements

RET_VAR = "$ret"
FIN_VAR = "$fin"
ENTRY_CLASS = "$Program"
ENTRY_METHOD = f"{ENTRY_CLASS}.$entry"
CLINIT = "<clinit>"
INIT = "<init>"


@dataclass
class IRMethod:
    class_name: str
    name: str
    params: list[str]  # includes "this" first for instance methods
    body: Stmt
    is_static: bool
    ret_is_void: bool = True
    ret_is_ref: bool = False
    param_ref: list[bool] = field(default_factory=list)  # per param: reference?

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    def __str__(self) -> str:
        return self.qualified_name


class IRProgram:
    """A lowered program: methods, label maps, and allocation sites."""

    def __init__(self, class_table: ClassTable) -> None:
        self.class_table = class_table
        self.methods: dict[str, IRMethod] = {}
        self.entry: Optional[str] = None
        self.alloc_sites: list[AllocSite] = []
        #: Per class: how many allocation hints of each stem its lowering
        #: took (see :func:`repro.ir.builder.build_program`).
        self.hint_counts: dict[str, dict[str, int]] = {}
        # Label maps, filled by assign_labels().
        self.commands: dict[int, Command] = {}
        self.statements: dict[int, Stmt] = {}
        self.command_method: dict[int, str] = {}
        self._next_label = 0

    def add_method(self, method: IRMethod) -> None:
        if method.qualified_name in self.methods:
            raise ValueError(f"duplicate method {method.qualified_name}")
        self.methods[method.qualified_name] = method

    def method(self, qualified_name: str) -> IRMethod:
        return self.methods[qualified_name]

    def entry_method(self) -> IRMethod:
        if self.entry is None:
            raise ValueError("program has no entry point")
        return self.methods[self.entry]

    def assign_labels(self) -> None:
        """Assign unique labels to every statement and command."""
        for method in self.methods.values():
            self._label_method(method)

    def _label_method(self, method: IRMethod) -> None:
        for stmt in walk_statements(method.body):
            stmt.label = self._next_label
            self._next_label += 1
            self.statements[stmt.label] = stmt
            if isinstance(stmt, AtomicStmt):
                cmd = stmt.cmd
                cmd.label = stmt.label
                self.commands[stmt.label] = cmd
                self.command_method[stmt.label] = method.qualified_name

    def replace_method(self, method: IRMethod) -> None:
        """Graft a new body for an existing method: retire the old body's
        labels from the label maps and assign fresh ones to the new body.
        Labels are never reused, so every other method's labels — and any
        retained analysis state keyed on them — stay valid by construction."""
        old = self.methods.get(method.qualified_name)
        if old is None:
            raise KeyError(method.qualified_name)
        for stmt in walk_statements(old.body):
            self.statements.pop(stmt.label, None)
            self.commands.pop(stmt.label, None)
            self.command_method.pop(stmt.label, None)
        self.methods[method.qualified_name] = method
        self._label_method(method)

    def method_of_label(self, label: int) -> IRMethod:
        return self.methods[self.command_method[label]]

    def all_commands(self) -> Iterator[tuple[str, Command]]:
        for qname, method in self.methods.items():
            for cmd in walk_commands(method.body):
                yield qname, cmd

    def commands_of(self, qname: str) -> Iterator[Command]:
        yield from walk_commands(self.methods[qname].body)

    # -- queries used by analyses ---------------------------------------------

    def resolve_virtual(self, class_name: str, method_name: str) -> Optional[str]:
        """Resolve a virtual call on an exact runtime class to a qualified
        method name, walking up the hierarchy; None if no implementation."""
        for info in self.class_table.ancestors(class_name):
            qname = f"{info.name}.{method_name}"
            if qname in self.methods:
                return qname
        return None

    def new_commands(self) -> Iterator[tuple[str, Command]]:
        for qname, cmd in self.all_commands():
            if isinstance(cmd, (New, NewArray)):
                yield qname, cmd

    def invoke_commands(self) -> Iterator[tuple[str, Invoke]]:
        for qname, cmd in self.all_commands():
            if isinstance(cmd, Invoke):
                yield qname, cmd

    def stats(self) -> dict[str, int]:
        n_cmds = sum(1 for _ in self.all_commands())
        n_loops = sum(
            1
            for m in self.methods.values()
            for s in walk_statements(m.body)
            if isinstance(s, Loop)
        )
        n_choices = sum(
            1
            for m in self.methods.values()
            for s in walk_statements(m.body)
            if isinstance(s, Choice)
        )
        return {
            "methods": len(self.methods),
            "commands": n_cmds,
            "loops": n_loops,
            "choices": n_choices,
            "alloc_sites": len(self.alloc_sites),
        }

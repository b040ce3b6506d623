"""The mini-Java surface language: lexer, parser, AST, and type checker.

This package is the frontend substrate of the reproduction: the original
Thresher analyzed Java bytecode through WALA; we analyze a small Java subset
through this frontend. See DESIGN.md for the substitution rationale.
"""

from typing import Optional

from .ast import CompilationUnit
from .errors import FrontendError, LexError, ParseError, TypeCheckError
from .lexer import Token, tokenize
from .parser import parse_program
from .pretty import pretty_expr, pretty_program, pretty_stmt
from .types import CheckedProgram, ClassTable, check_program

__all__ = [
    "CompilationUnit",
    "FrontendError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "Token",
    "tokenize",
    "parse_program",
    "pretty_expr",
    "pretty_program",
    "pretty_stmt",
    "CheckedProgram",
    "ClassTable",
    "check_program",
]


def frontend(
    source: str,
    base: Optional[CheckedProgram] = None,
    at: Optional[tuple[int, int]] = None,
) -> CheckedProgram:
    """Parse and type-check ``source`` in one step.

    With ``base``, ``source`` is checked as the text that follows the
    base's on the next line: only ``source`` is parsed and checked, and
    the result (classes, class table, line and column numbers) is what
    ``frontend(base_text + "\\n" + source)`` gives, while ``base`` itself
    is left as it was, so one checked base can be shared.

    With ``at`` (a line and column), ``source`` instead holds classes
    that replace the same-named classes of ``base``, written at ``at`` in
    the base's text. Only they are parsed and checked, against the base's
    class table; the other classes keep their checked AST (and their
    positions), and ``base`` is again left as it was. Sound only while the replaced declarations are unchanged
    (see :func:`repro.lang.types.check_program`)."""
    if at is not None:
        line, column = at
        unit = parse_program(source, line, column)
        checked = check_program(unit, base, replace=True)
        old = {cls.name: cls for cls in base.unit.classes}
        checked.last_line = base.last_line + sum(
            _line_span(cls) - _line_span(old[cls.name]) for cls in unit.classes
        )
        return checked
    first_line = base.last_line + 1 if base is not None else 1
    checked = check_program(parse_program(source, first_line), base)
    checked.last_line = first_line + source.count("\n")
    return checked


def _line_span(cls) -> int:
    return cls.end.line - cls.pos.line

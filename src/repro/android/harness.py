"""Harness synthesis: a ``main`` that exercises every event handler.

Mirrors the paper's setup: "We use a top-level harness that invokes every
event handler defined for an application. Our harness allows event handlers
to be invoked in any order, but insists that each handler is called only
once in order to prevent termination issues."

We realize "called only once, possibly skipped" with nondeterministically
guarded calls in lifecycle order; the guard nondeterminism gives the
analysis every subset of handler invocations. (Arbitrary inter-handler
orderings beyond the lifecycle order are approximated — see DESIGN.md.)
"""

from __future__ import annotations

from ..lang import CheckedProgram, ast, frontend
from ..lang.types import ClassTable, MethodInfo
from .library import LIBRARY_SOURCE, checked_library
from .lifecycle import component_classes, default_argument, handlers_of

HARNESS_CLASS = "AndroidHarness"


def check_app(app_source: str, include_library: bool = True) -> CheckedProgram:
    """Library + app + synthesized harness, checked as one program.

    Equivalent to running :func:`repro.lang.frontend` over the text
    :func:`build_full_source` returns, but the library is parsed and
    checked once per process (:func:`checked_library`) and only the app
    and the harness are parsed here. Without the library the base is the
    empty text, so the app starts on line 2, as in that text."""
    app, harness = _app_and_harness(app_source, include_library)
    return frontend(harness, app)


def build_full_source(app_source: str, include_library: bool = True) -> str:
    """Library + app + synthesized harness, as one compilation unit.

    The library comes first so that its class initializers (e.g.
    ``Vec.EMPTY``) run before any app ``<clinit>`` that allocates library
    objects — our stand-in for Java's lazy class initialization.
    """
    library = LIBRARY_SOURCE if include_library else ""
    _, harness = _app_and_harness(app_source, include_library)
    return library + "\n" + app_source + "\n" + harness


def _app_and_harness(
    app_source: str, include_library: bool
) -> tuple[CheckedProgram, str]:
    """The app checked against its base, and the harness text for it."""
    base = checked_library() if include_library else frontend("")
    app = frontend(app_source, base)
    app_classes = {cls.name for cls in app.unit.classes[len(base.unit.classes):]}
    return app, generate_harness(app.table, app_classes)


def generate_harness(table: ClassTable, app_classes: set[str]) -> str:
    lines = [f"class {HARNESS_CLASS} {{", "    static void main() {"]
    components = component_classes(table, app_classes)
    for index, class_name in enumerate(components):
        var = f"act{index}"
        ctor_args = _ctor_args(table, class_name)
        lines.append(f"        {class_name} {var} = new {class_name}({ctor_args});")
        for handler in handlers_of(table, class_name):
            if handler.method.decl_class not in app_classes:
                continue  # library-defined defaults carry no app logic
            args = _handler_args(table, class_name, var, handler.method)
            lines.append(
                f"        if (nondet()) {{ {var}.{handler.name}({args}); }}"
            )
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _ctor_args(table: ClassTable, class_name: str) -> str:
    ctor = table.lookup_method(class_name, "<init>")
    if ctor is None:
        return ""
    return ", ".join(default_argument(table, p.type) for p in ctor.params)


def _handler_args(
    table: ClassTable, class_name: str, activity_var: str, method: MethodInfo
) -> str:
    args = []
    for param in method.params:
        if isinstance(param.type, ast.ClassType) and table.is_assignable(
            ast.ClassType(class_name), param.type
        ):
            # Context-like parameters receive the activity itself — the
            # typical way an Activity reference escapes into helpers.
            args.append(activity_var)
        else:
            args.append(default_argument(table, param.type))
    return ", ".join(args)

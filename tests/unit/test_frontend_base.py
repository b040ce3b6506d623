"""The checked front half: ``frontend(source, base)`` and ``check_app``.

``check_app`` checks the Android library once per process and each app
against it. Every test here holds it to the one-text path it replaces:
``frontend`` over library + app + harness, parsed as a single unit.
"""

import sys
import threading

import pytest

from repro.android import library
from repro.android.harness import (
    HARNESS_CLASS,
    build_full_source,
    check_app,
    generate_harness,
)
from repro.android.library import LIBRARY_SOURCE, checked_library
from repro.bench import APPS
from repro.ir import build_program
from repro.ir.printer import print_method
from repro.ir.stmts import AtomicStmt, Choice, Loop, Seq
from repro.lang import (
    FrontendError,
    LexError,
    ParseError,
    TypeCheckError,
    frontend,
    parse_program,
    pretty_program,
)
from repro.lang import parser as lang_parser

#: Needs no library: it brings its own ``Activity``.
STANDALONE_APP = """
class Activity {
    void onCreate() { }
}
class Holder {
    static Object held;
}
class Main extends Activity {
    Object mine;
    void onCreate() {
        mine = new Object();
        if (nondet()) { Holder.held = this; }
    }
}
"""


def one_text_source(app_source, include_library=True):
    """Library + app + harness as one text, the harness derived from a
    check of library + app as one text."""
    library_text = LIBRARY_SOURCE if include_library else ""
    combined = library_text + "\n" + app_source
    table = frontend(combined).table
    app_classes = {cls.name for cls in parse_program(app_source).classes}
    return combined + "\n" + generate_harness(table, app_classes)


def _atoms(stmt, out):
    if isinstance(stmt, AtomicStmt):
        out.append(f"[{stmt.label}] {stmt.cmd} @ {stmt.cmd.pos!r}")
    elif isinstance(stmt, Seq):
        for child in stmt.stmts:
            _atoms(child, out)
    elif isinstance(stmt, Choice):
        for branch in stmt.branches:
            _atoms(branch, out)
    elif isinstance(stmt, Loop):
        _atoms(stmt.body, out)


def ir_dump(checked) -> str:
    """The lowered program, method order, labels, source positions and
    allocation sites included."""
    program = build_program(checked)
    out = []
    for method in program.methods.values():
        out.append(print_method(method, show_labels=True))
        _atoms(method.body, out)
    out.extend(f"{site!r} {site.hint}" for site in program.alloc_sites)
    return "\n".join(out)


def error_of(thunk):
    with pytest.raises(FrontendError) as info:
        thunk()
    err = info.value
    return type(err), err.message, err.pos


@pytest.fixture
def fresh_library(monkeypatch):
    """Drop the process's checked library for the test's duration."""
    monkeypatch.setattr(library, "_CHECKED", None)


class TestFrontendBase:
    def test_positions_continue_after_base(self):
        base = frontend("class A {\n}\n")
        assert base.last_line == 3
        checked = frontend("class B {\n  int x;\n}", base)
        assert checked.last_line == 6
        whole = frontend("class A {\n}\n" + "\n" + "class B {\n  int x;\n}")
        assert [c.pos for c in checked.unit.classes] == [
            c.pos for c in whole.unit.classes
        ]
        field = checked.table.get("B").fields["x"]
        assert field.pos == whole.table.get("B").fields["x"].pos

    def test_base_is_left_alone(self):
        base = frontend("class A { int x; }")
        classes = list(base.unit.classes)
        checked = frontend("class B extends A { }", base)
        assert base.unit.classes == classes
        assert "B" not in base.table
        assert [c.name for c in checked.unit.classes] == ["A", "B"]
        assert checked.table.is_subclass("B", "A")

    def test_only_new_classes_are_checked(self):
        base = frontend("class A { int f() { return 1; } }")
        method = base.unit.classes[0].methods[0]
        before = pretty_program(base.unit)
        frontend("class B { int g() { A a = new A(); return a.f(); } }", base)
        assert pretty_program(base.unit) == before
        assert base.unit.classes[0].methods[0] is method


class TestCheckAppParity:
    @pytest.mark.parametrize("app", APPS, ids=lambda a: a.name)
    def test_ir_identical_with_library(self, app):
        expected = ir_dump(frontend(one_text_source(app.source)))
        assert ir_dump(check_app(app.source)) == expected

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a.name)
    def test_same_error_without_library(self, app):
        # Every benchmark app extends the library's Activity.
        expected = error_of(lambda: one_text_source(app.source, False))
        assert error_of(lambda: check_app(app.source, False)) == expected

    def test_ir_identical_without_library(self):
        expected = ir_dump(frontend(one_text_source(STANDALONE_APP, False)))
        assert ir_dump(check_app(STANDALONE_APP, False)) == expected
        # The app text starts on line 2, after the empty library text, so
        # its first class (on the text's second line) is on line 3.
        checked = check_app(STANDALONE_APP, False)
        assert checked.unit.classes[0].pos.line == 3

    def test_both_app_orders_in_one_process(self, fresh_library):
        expected = {
            app.name: ir_dump(frontend(one_text_source(app.source)))
            for app in APPS
        }
        for order in (APPS, list(reversed(APPS))):
            for app in order:
                assert ir_dump(check_app(app.source)) == expected[app.name], app.name

    def test_build_full_source_text_unchanged(self):
        for app in APPS:
            assert build_full_source(app.source) == one_text_source(app.source)
        assert build_full_source(STANDALONE_APP, False) == one_text_source(
            STANDALONE_APP, False
        )

    def test_library_ast_unchanged_after_all_apps(self):
        for app in APPS:
            build_program(check_app(app.source))
        assert pretty_program(checked_library().unit) == pretty_program(
            frontend(LIBRARY_SOURCE).unit
        )


class TestLibraryOnce:
    def test_library_tokenized_once_per_process(self, fresh_library, monkeypatch):
        texts = []
        tokenize = lang_parser.tokenize

        def counting(source, first_line=1):
            texts.append(source)
            return tokenize(source, first_line)

        monkeypatch.setattr(lang_parser, "tokenize", counting)
        for app in APPS[:3]:
            check_app(app.source)
        library.library_class_names()
        assert texts.count(LIBRARY_SOURCE) == 1
        # Per app: the app text and its harness, nothing else.
        assert len(texts) == 1 + 2 * 3

    def test_concurrent_check_app_matches_serial(self, fresh_library):
        apps = APPS[:4]
        serial = [ir_dump(frontend(one_text_source(a.source))) for a in apps]
        start = threading.Barrier(len(apps))
        results = [None] * len(apps)
        errors = []

        def work(index, app):
            try:
                start.wait()
                results[index] = ir_dump(check_app(app.source))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i, a)) for i, a in enumerate(apps)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == serial


MALFORMED = {
    "lex": "class A extends Activity {\n  int x = 1 # 2;\n}",
    "parse": "class A extends Activity {\n  void onCreate( {\n  }\n}",
    "unterminated": "class A extends Activity {\n  void onCreate() {",
    "type": "class A extends Activity {\n  void onCreate() { int x = true; }\n}",
    "library duplicate": "class Vec {\n}\nclass A extends Activity { }",
    "harness name": "class AndroidHarness extends Activity {\n"
    "  void onCreate() { }\n}",
    "harness name, not a component": "class AndroidHarness {\n}",
}


class TestMalformedApps:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_same_error_as_one_text_path(self, kind):
        source = MALFORMED[kind]
        expected = error_of(lambda: frontend(one_text_source(source)))
        assert error_of(lambda: check_app(source)) == expected

    def test_error_kinds(self):
        assert error_of(lambda: check_app(MALFORMED["lex"]))[0] is LexError
        assert error_of(lambda: check_app(MALFORMED["parse"]))[0] is ParseError
        kind, message, _ = error_of(lambda: check_app(MALFORMED["harness name"]))
        assert kind is TypeCheckError and HARNESS_CLASS in message


class TestReplaceClass:
    """``frontend(text, base, at=...)`` re-checks one class in place and
    ``build_program(..., classes=...)`` lowers only it; both must agree
    with a check and lowering of the whole edited text."""

    SOURCE = (
        "class Item { }\n"
        "class A {\n"
        "    Item make() { Item o = new Item(); return o; }\n"
        "}\n"
        "class B { Item keep; void go() { keep = new Item(); } }\n"
        "  class C { static void main() { B b = new B(); b.go(); } }\n"
    )

    def _replace(self, base, source, name):
        from repro.serve.session import class_layout

        ((start, end),) = [(s, e) for n, s, e in class_layout(source) if n == name]
        line = source.count("\n", 0, start) + 1
        column = start - source.rfind("\n", 0, start)
        return frontend(source[start:end], base, at=(line, column))

    def test_replacement_matches_the_whole_text(self):
        base = frontend(self.SOURCE)
        edited = self.SOURCE.replace(
            "keep = new Item();", 'keep = new Item(); String s = "x";'
        ).replace("b.go();", "b.go(); b.go();")
        checked = self._replace(base, edited, "B")
        checked = self._replace(checked, edited, "C")
        assert ir_dump(checked) == ir_dump(frontend(edited))
        assert checked.last_line == base.last_line

    def test_base_is_left_alone(self):
        base = frontend(self.SOURCE)
        classes = list(base.unit.classes)
        info = base.table.get("B")
        before = pretty_program(base.unit)
        edited = self.SOURCE.replace("keep = new Item();", "keep = null;")
        checked = self._replace(base, edited, "B")
        assert base.unit.classes == classes and base.table.get("B") is info
        assert pretty_program(base.unit) == before
        assert checked.unit.classes[0] is classes[0]
        assert checked.unit.classes[2] is not classes[2]

    def test_line_count_changes_move_last_line(self):
        base = frontend(self.SOURCE)
        edited = self.SOURCE.replace(
            "return o; }\n", "return o;\n    }\n\n"
        )
        checked = self._replace(base, edited, "A")
        assert checked.last_line == base.last_line + 2
        method = checked.table.get("A").methods["make"]
        assert method.pos == frontend(edited).table.get("A").methods["make"].pos

    def test_errors(self):
        base = frontend(self.SOURCE)
        with pytest.raises(TypeCheckError, match="no class 'D' to replace"):
            frontend("class D { }", base, at=(1, 1))
        with pytest.raises(TypeCheckError, match="cannot assign"):
            frontend("class B { Item keep; void go() { keep = 1; } }", base, at=(5, 1))

    def test_lowering_given_classes_continues_hints(self):
        edited = self.SOURCE.replace(
            "keep = new Item();", "keep = new Item(); Item more = new Item();"
        )
        whole = build_program(frontend(edited))
        base = build_program(frontend(self.SOURCE))
        partial = build_program(
            self._replace(frontend(self.SOURCE), edited, "B"),
            classes=["B"],
            base=base,
        )
        assert sorted(partial.methods) == ["B.<init>", "B.go"]
        assert partial.entry is None and not partial.commands
        for qname, method in partial.methods.items():
            assert print_method(method) == print_method(whole.methods[qname])
        hints = [site.hint for site in partial.alloc_sites]
        assert hints == ["item1", "item2"]
        assert partial.hint_counts == {"B": {"item": 2}}

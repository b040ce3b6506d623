"""The mini Android library, written in the mini-Java language.

The original evaluation analyzed Android 2.3.3 sources; our substitute
implements the classes that matter for the Activity-leak client:

* the ``Context``/``Activity`` hierarchy and UI classes that hold parent
  pointers back to their Activity (``View``, ``Adapter``,
  ``CursorAdapter.mContext`` — the field involved in the K9Mail leak of
  the paper's Figure 5);
* ``Vec``, the growable array of the paper's Figure 1, implemented with
  the null-object pattern (a shared static ``EMPTY`` backing array);
* ``HashMap``, implemented like Android's with a shared static
  ``EMPTY_TABLE`` — the major source of flow-insensitive pollution that
  the paper's single annotation (``Ann?=Y``) targets.

Container classes (``CONTAINER_CLASSES``) get object-sensitive contexts in
the points-to analysis, mirroring WALA's 0-1-Container-CFA.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..lang import CheckedProgram, frontend

LIBRARY_SOURCE = """
// ---------------------------------------------------------------- contexts --
class Context { }

class Application extends Context { }

class Activity extends Context {
    boolean destroyed;
    void finish() { this.destroyed = true; }
}

class Service extends Context {
    boolean running;
}

class BroadcastReceiver {
    Context lastContext;
}

class Fragment {
    Activity mActivity;
    void attach(Activity a) { this.mActivity = a; }
    Activity getActivity() { return this.mActivity; }
}

class AsyncTask {
    Object params;
    Object result;
    void execute(Object p) {
        this.params = p;
        this.result = this.doInBackground(p);
        this.onPostExecute(this.result);
    }
    Object doInBackground(Object p) { return null; }
    void onPostExecute(Object r) { }
}

class Bundle {
    Vec values;
    Bundle() { this.values = new Vec(); }
    void put(Object value) { this.values.push(value); }
    Object get(int i) { return this.values.get(i); }
}

class Intent {
    Bundle extras;
    Intent() { this.extras = new Bundle(); }
}

// --------------------------------------------------------------------- ui --
class View {
    Context mContext;
    View parent;
    View(Context c) { this.mContext = c; }
    Context getContext() { return this.mContext; }
    void setParent(View p) { this.parent = p; }
}

class TextView extends View {
    TextView(Context c) { super(c); }
}

class Button extends View {
    OnClickListener listener;
    Button(Context c) { super(c); }
    void setOnClickListener(OnClickListener l) { this.listener = l; }
}

class OnClickListener { }

class Adapter { }

class CursorAdapter extends Adapter {
    Context mContext;
    CursorAdapter(Context context) { this.mContext = context; }
}

class ResourceCursorAdapter extends CursorAdapter {
    ResourceCursorAdapter(Context context) { super(context); }
}

class Cursor {
    Context owner;
}

// ------------------------------------------------------------- containers --
// The growable array of the paper's Figure 1: all empty Vecs share the
// static EMPTY array (the null-object pattern); push() grows before the
// first write because the constructor establishes sz = 0 > cap = -1.
class Vec {
    static Object[] EMPTY = new Object[1];
    int sz;
    int cap;
    Object[] tbl;
    Vec() {
        this.sz = 0;
        this.cap = 0 - 1;
        this.tbl = Vec.EMPTY;
    }
    void push(Object val) {
        Object[] oldtbl = this.tbl;
        if (this.sz >= this.cap) {
            this.cap = this.tbl.length * 2;
            this.tbl = new Object[this.cap];
            for (int i = 0; i < this.sz; i++) {
                this.tbl[i] = oldtbl[i];
            }
        }
        this.tbl[this.sz] = val;
        this.sz = this.sz + 1;
    }
    Object get(int i) {
        if (i < this.sz) { return this.tbl[i]; }
        return null;
    }
    int size() { return this.sz; }
}

// Android-style HashMap: empty maps share the static EMPTY_TABLE, and
// put() doubles the table before the first insertion (size starts at 0,
// threshold at -1). This is the class the paper's Ann?=Y annotation
// targets: EMPTY_TABLE's contents may be declared always-empty.
class MapEntry {
    Object key;
    Object value;
    MapEntry(Object k, Object v) { this.key = k; this.value = v; }
}

class HashMap {
    static Object[] EMPTY_TABLE = new Object[2];
    int size;
    int threshold;
    Object[] table;
    HashMap() {
        this.size = 0;
        this.threshold = 0 - 1;
        this.table = HashMap.EMPTY_TABLE;
    }
    void put(Object key, Object value) {
        Object[] oldtab = this.table;
        if (this.size >= this.threshold) {
            this.threshold = this.table.length * 2;
            this.table = new Object[this.threshold];
            for (int i = 0; i < this.size; i++) {
                this.table[i] = oldtab[i];
            }
        }
        MapEntry e = new MapEntry(key, value);
        this.table[this.size] = e;
        this.size = this.size + 1;
    }
    Object get(Object key) {
        for (int i = 0; i < this.size; i++) {
            Object slot = this.table[i];
            if (slot != null) {
                return slot;
            }
        }
        return null;
    }
    int size() { return this.size; }
}

// ArrayList-style growable list WITHOUT the null-object pattern: each list
// owns its backing array from construction. Included as the contrast case:
// it never pollutes a shared static the way Vec/HashMap do.
class ArrayList {
    int count;
    Object[] elems;
    ArrayList() {
        this.count = 0;
        this.elems = new Object[4];
    }
    void add(Object val) {
        if (this.count >= this.elems.length) {
            Object[] old = this.elems;
            this.elems = new Object[this.count * 2];
            for (int i = 0; i < this.count; i++) {
                this.elems[i] = old[i];
            }
        }
        this.elems[this.count] = val;
        this.count = this.count + 1;
    }
    Object get(int i) {
        if (i < this.count) { return this.elems[i]; }
        return null;
    }
    int size() { return this.count; }
}

// ------------------------------------------------------------------ misc --
class Handler {
    Vec messages;
    Handler() { this.messages = new Vec(); }
    void post(Object message) { this.messages.push(message); }
}

class Log {
    static void d(String msg) { }
    static void e(String msg) { }
}
"""

#: Classes analyzed with object-sensitive contexts (0-1-Container-CFA).
CONTAINER_CLASSES = {"Vec", "HashMap", "Bundle", "Handler", "ArrayList"}

#: Component base classes whose app subclasses the harness drives.
COMPONENT_CLASSES = ("Activity", "Service", "BroadcastReceiver", "Fragment")

#: The paper's Ann?=Y annotation: the shared empty table never holds
#: anything.
EMPTY_TABLE_ANNOTATIONS = {("HashMap", "EMPTY_TABLE"), ("Vec", "EMPTY")}

_CHECKED: Optional[CheckedProgram] = None
_CHECKED_LOCK = threading.Lock()


def checked_library() -> CheckedProgram:
    """``LIBRARY_SOURCE`` parsed and type-checked, once per process.

    Built on first use, not at import. The result is shared and never
    mutated: apps are checked against it as a base (see
    :func:`repro.android.harness.check_app`)."""
    global _CHECKED
    if _CHECKED is None:
        with _CHECKED_LOCK:
            if _CHECKED is None:
                _CHECKED = frontend(LIBRARY_SOURCE)
    return _CHECKED


def library_class_names() -> set[str]:
    return {cls.name for cls in checked_library().unit.classes}

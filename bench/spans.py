"""In-memory spans around the calls into each layer of the gonal package.

``Tracer.install()`` swaps every traced callable, wherever a gonal module
or class holds a reference to it, for a wrapper that records one span:
name, start, end and parent span.  Swapping the references themselves
(rather than hooking ``sys.setprofile``) costs time only on the traced
calls and still catches names bound by ``from .x import y``, because
every gonal module's globals are patched.  ``uninstall()`` restores the
originals.  The package source is never edited.

Traced callables, per layer (the modules named in ``LAYERS``):

- every public function defined in the module;
- for every public class defined in it (enums and named tuples aside):
  ``__init__``, the arithmetic operators in ``METHODS`` and every public
  method;
- the private helpers in ``PRIVATE``, which per-layer metrics name.

Spans live in flat arrays and are written out once, by ``write()``.
"""

import enum
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("chow", "scroll", "invariants", "hirzebruch", "picard", "hyperelliptic", "report", "cli")
METHODS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
PRIVATE = {"hyperelliptic": ("_gcd_degree", "_resultant_nonzero")}
# Layers whose spans carry an argument key, for distinct-argument ratios.
KEYED_LAYERS = ("scroll", "hirzebruch")
# BinaryForm construction is keyed 1 when a prime p is given, else 0.
BINARY_FORM_INIT = "hyperelliptic.BinaryForm.__init__"
# Argument keys are non-negative 63-bit hashes, so these never collide.
NO_KEY, UNHASHABLE = -1, -2
_HASH_MASK = (1 << 63) - 1

FIELDS = (("parent", "i"), ("name", "i"), ("key", "q"), ("start", "q"), ("end", "q"))


def _targets():
    """Yield (span name, owner, attribute, callable) for every traced callable."""
    for layer in LAYERS:
        mod = importlib.import_module(f"gonal.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if not attr.startswith("_") or attr in PRIVATE.get(layer, ()):
                    yield f"{layer}.{attr}", mod, attr, obj
            elif (
                inspect.isclass(obj)
                and not attr.startswith("_")
                and not issubclass(obj, (tuple, enum.Enum))
            ):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth in METHODS):
                        yield f"{layer}.{attr}.{meth}", obj, meth, fn


def _binary_form_key(args, kwargs) -> int:
    p = kwargs["p"] if "p" in kwargs else (args[3] if len(args) > 3 else None)
    return 0 if p is None else 1


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("i")
        self.key = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.json_bytes = 0
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, key: int) -> int:
        idx = len(self.name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.key.append(key)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        idx = self._open(self.name_id(name), NO_KEY)
        self.start[idx] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn, keyer):
        nid = self.name_id(name)
        open_span, end, start, stack = self._open, self.end, self.start, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = open_span(nid, keyer(args, kwargs) if keyer else NO_KEY)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    @staticmethod
    def _arg_keyer(is_init: bool):
        # a hash, not the arguments themselves: keeping those alive would
        # hold every distinct argument object for the whole run
        def keyer(args, kwargs) -> int:
            try:
                return hash((args[1:] if is_init else args, tuple(kwargs.items()))) & _HASH_MASK
            except TypeError:  # unhashable argument: counted as distinct
                return UNHASHABLE

        return keyer

    def _count_json_bytes(self, fn):
        @functools.wraps(fn)
        def emit(*args, **kwargs):
            text = fn(*args, **kwargs)
            self.json_bytes += len(text)  # emit_json output is ASCII
            return text

        return emit

    def install(self) -> None:
        wrappers = {}
        for name, owner, attr, fn in _targets():
            layer = name.split(".", 1)[0]
            if name == BINARY_FORM_INIT:
                keyer = _binary_form_key
            elif layer in KEYED_LAYERS:
                keyer = self._arg_keyer(attr == "__init__")
            else:
                keyer = None
            wrapper = self._wrap(name, fn, keyer)
            if name == "report.emit_json":
                wrapper = self._count_json_bytes(wrapper)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "gonal" and not modname.startswith("gonal."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path) -> None:
        """Write every span: a JSON header line, then the raw arrays, gzipped."""
        header = {
            "names": self.names,
            "fields": [f for f, _ in FIELDS],
            "typecodes": [t for _, t in FIELDS],
            "count": len(self),
            "clock": "time.perf_counter_ns",
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                out.write(getattr(self, field).tobytes())


def read_spans(path) -> tuple[dict, dict]:
    """Load a file written by ``Tracer.write``: (header, field -> array)."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        fields = {}
        for field, code in zip(header["fields"], header["typecodes"]):
            arr = array(code)
            arr.frombytes(f.read(header["count"] * arr.itemsize))
            fields[field] = arr
    return header, fields


def summarize(tracer: Tracer) -> dict:
    """Per-name totals derived from the spans.

    Returns name -> {"calls", "self_ns", "incl_ns", "distinct"}: self time
    is a span's duration minus the part its child spans cover, and
    ``distinct`` counts distinct argument keys (0 for unkeyed names).
    """
    n = len(tracer)
    start, end, parent, name, key = tracer.start, tracer.end, tracer.parent, tracer.name, tracer.key
    child = array("q", bytes(8 * n))
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    rows = [[0, 0, 0, set()] for _ in tracer.names]
    for i in range(n):
        row = rows[name[i]]
        dur = end[i] - start[i]
        row[0] += 1
        row[1] += dur - child[i]
        row[2] += dur
        k = key[i]
        if k != NO_KEY:
            row[3].add(k if k != UNHASHABLE else ("unhashable", i))
    return {
        tracer.names[nid]: {"calls": c, "self_ns": s, "incl_ns": t, "distinct": len(keys)}
        for nid, (c, s, t, keys) in enumerate(rows)
    }


def incl_ns_with_key(tracer: Tracer, name: str, key: int) -> int:
    """Total duration of the spans of ``name`` that carry ``key``."""
    if name not in tracer.names:
        return 0
    nid = tracer.name_id(name)
    return sum(
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer))
        if tracer.name[i] == nid and tracer.key[i] == key
    )

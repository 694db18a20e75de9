"""Outside-in span tracer for the pairsim benchmark.

``Tracer.install`` replaces public pairsim functions with timing
wrappers.  A module that imported a function by name (``model`` imports
``encode``, ``cli`` imports ``load_lexicon``) holds its own binding, so
every loaded ``pairsim`` module attribute that *is* the original
function gets the wrapper.  Callers must reach a wrapped function through
a module or class attribute at call time for the wrapper to see them.

Each wrapped call opens a span: name, kind, start, end, parent span and
the operation id (``train:3``, ``eval:17``, ``score:0``...) that the
benchmark sets before each operation.  ``GradTape.record`` is wrapped
too: the backward closure it stores is timed, when the tape runs it, as
a ``bwd`` span of the layer whose span was innermost at record time.
Spans stay in memory until ``dump``.

Run as a script, this module is the traced ``pairsim score`` process:

    python perfbench/tracer.py OUT.json OP_ID score CKPT "s1" "s2"

It times ``import pairsim.cli``, installs the tracer, runs the command
and writes its spans and statistics to OUT.json.  Nothing above the
``__main__`` block imports numpy, so the import time is the same one a
plain ``python -m pairsim.cli`` process pays.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, layer name): plain functions whose calls become spans
FUNCTIONS = [
    ("pairsim.embeddings", "load_lexicon", "embeddings.load_lexicon"),
    ("pairsim.evaldata", "load_pairs", "evaldata.load_pairs"),
    ("pairsim.model", "build_model", "model.build_model"),
    ("pairsim.model", "predict_example", "model.predict_example"),
    ("pairsim.encoder", "encode", "encoder.encode"),
    ("pairsim.numcore", "max_over_time", "numcore.max_over_time"),
    ("pairsim.numcore", "lstm_last_state", "numcore.lstm_last_state"),
    ("pairsim.comparison", "word_word", "comparison.word_word"),
    ("pairsim.comparison", "sentence_sentence", "comparison.sentence_sentence"),
    ("pairsim.comparison", "word_sentence", "comparison.word_sentence"),
    ("pairsim.comparison", "fuse_head", "comparison.fuse_head"),
    ("pairsim.objectives", "kl_loss", "objectives.kl_loss"),
    ("pairsim.training", "train_step", "training.train_step"),
    ("pairsim.training", "adadelta_step", "training.adadelta_step"),
    ("pairsim.training", "load_checkpoint", "training.load_checkpoint"),
    ("pairsim.rng", "stream", "rng.stream"),
]


def _layer_table():
    return defaultdict(lambda: {"calls": 0, "fwd_s": 0.0, "self_s": 0.0, "bwd_s": 0.0})


def _malloc_trim():
    """Return free heap pages to the OS, so that RSS growth shows what a call
    needs resident rather than what the allocator happened to keep."""
    import ctypes
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):   # not glibc
        pass


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """In-memory spans plus the few counts a span cannot carry."""

    def __init__(self):
        self.spans: list[list] = []    # [name, kind, start, end, parent, op]
        self.stack: list[int] = []     # indices of open spans
        self.op = ""
        self.records = 0               # GradTape.record calls
        self.lookup_hits = 0           # lookup_all calls answered from the memo
        self.rss_growth = []           # bytes, one per batch_loss call, heap trimmed first
        self.checkpoint_bytes = 0
        self._seen = {}                # (id(lexicon), tokens) -> weakref to the matrix
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _open(self, name, kind="fwd") -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, kind, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("pairsim") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        import importlib
        for modname, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            if name == "training.load_checkpoint":
                replacement = self._checkpoint_wrapper(original, name)
            else:
                replacement = self._timed(original, name)
            self._replace_everywhere(original, replacement)
        from pairsim import model, numcore
        from pairsim.embeddings import FusedLexicon
        self._replace_everywhere(model.batch_loss,
                                 self._rss_wrapper(model.batch_loss, "model.batch_loss"))
        self._replace_method(FusedLexicon, "lookup_all",
                             self._lookup_wrapper(FusedLexicon.lookup_all))
        self._replace_method(numcore.GradTape, "backward",
                             self._timed(numcore.GradTape.backward,
                                         "numcore.GradTape.backward"))
        self._replace_method(numcore.GradTape, "record",
                             self._record_wrapper(numcore.GradTape.record))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- wrappers with extra counts ----------------------------------------

    def _rss_wrapper(self, fn, name):
        timed = self._timed(fn, name)

        def wrapper(*args, **kwargs):
            _malloc_trim()
            before = _rss_bytes()
            out = timed(*args, **kwargs)
            self.rss_growth.append(_rss_bytes() - before)
            return out
        return wrapper

    def _checkpoint_wrapper(self, fn, name):
        timed = self._timed(fn, name)

        def wrapper(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)
            return out
        return wrapper

    def _lookup_wrapper(self, fn):
        timed = self._timed(fn, "embeddings.lookup_all")

        def lookup_all(lex, words):
            out = timed(lex, words)
            key = (id(lex), tuple(words))
            ref = self._seen.get(key)
            if ref is not None and ref() is out:
                self.lookup_hits += 1
            else:
                self._seen[key] = weakref.ref(out)
            return out
        return lookup_all

    def _record_wrapper(self, fn):
        def record(tape, out, inputs, backward):
            self.records += 1
            layer = self.spans[self.stack[-1]][0] if self.stack else "untraced"

            def run(g):
                idx = self._open(layer, "bwd")
                try:
                    backward(g)
                finally:
                    self._close(idx)
            return fn(tape, out, inputs, run)
        return record

    # -- results -----------------------------------------------------------

    def retained_bytes(self) -> int:
        """Bytes of distinct lookup_all matrices still alive (held by a memo)."""
        alive = {id(a): a.nbytes for a in (r() for r in self._seen.values())
                 if a is not None}
        return sum(alive.values())

    def stats(self) -> dict:
        """Per-layer calls and seconds (inclusive, self, backward)."""
        child = defaultdict(float)
        for name, kind, t0, t1, parent, op in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        layers = _layer_table()
        toplevel = 0.0
        for i, (name, kind, t0, t1, parent, op) in enumerate(self.spans):
            st = layers[name]
            if kind == "bwd":
                st["bwd_s"] += t1 - t0
            else:
                st["calls"] += 1
                st["fwd_s"] += t1 - t0
                st["self_s"] += t1 - t0 - child[i]
            if parent is None:
                toplevel += t1 - t0
        return {"layers": dict(layers), "toplevel_s": toplevel,
                "records": self.records, "lookup_hits": self.lookup_hits,
                "rss_growth": self.rss_growth,
                "checkpoint_bytes": self.checkpoint_bytes}

    def dump(self) -> dict:
        return {"spans": self.spans, "stats": self.stats()}


def merge_stats(parts: list[dict]) -> dict:
    """Sum the stats of several processes' tracers."""
    out = {"layers": _layer_table(), "toplevel_s": 0.0, "records": 0, "lookup_hits": 0,
           "rss_growth": [], "checkpoint_bytes": 0}
    for p in parts:
        for name, st in p["layers"].items():
            for k, v in st.items():
                out["layers"][name][k] += v
        for k in ("toplevel_s", "records", "lookup_hits", "checkpoint_bytes"):
            out[k] += p[k]
        out["rss_growth"] += p["rss_growth"]
    return out


def _child_main(argv) -> int:
    out_path, op, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import pairsim.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        code = pairsim.cli.main(cli_args)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))

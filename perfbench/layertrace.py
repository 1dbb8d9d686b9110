"""Per-layer spans and counts, taken from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent, op) and, for
some functions, counts computed from the call's arguments and result.
The wrapper is put everywhere the original is bound: in every
``edgewise`` module namespace that imported it with ``from ... import``,
in module-level dispatch dicts, and on the class for ``FinCategory.hom``.
``uninstall`` puts the originals back.  Spans stay in memory; ``dump``
writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter


def _act(counts, args, kwargs, out, tracer):
    alpha, X = args
    key = (alpha, id(X))
    if key not in tracer.act_keys:
        tracer.act_keys.add(key)
        tracer.keep_alive.append(X)   # ids stay unique while X is held
        counts["sset.act.distinct_keys"] += 1
    counts["sset.act.cells_out"] += len(out)


def _pullback(counts, args, kwargs, out, tracer):
    f, g = args[0], args[1]
    counts["sset.strict_pullback.pairs_examined"] += len(f) * len(g)
    counts["sset.strict_pullback.pairs_out"] += len(out.pairs)


def _hom(counts, args, kwargs, out, tracer):
    counts["cat.FinCategory.hom.morphisms_scanned"] += len(args[0].morphisms)
    counts["cat.FinCategory.hom.morphisms_out"] += len(out)


def _s_construction(counts, args, kwargs, out, tracer):
    for G in out.levels:
        counts["groupoid.s_construction.compose_pairs_tried"] += \
            len(G.morphisms) ** 2
        counts["groupoid.s_construction.compose_pairs_kept"] += \
            len(G.compose)


def _iso_comma(counts, args, kwargs, out, tracer):
    counts["groupoid.iso_comma.objects_out"] += len(out.groupoid.objects)
    counts["groupoid.iso_comma.morphisms_out"] += \
        len(out.groupoid.morphisms)


def _bytes_in(name):
    def count(counts, args, kwargs, out, tracer):
        counts[f"{name}.bytes"] += len(args[0])
    return count


def _bytes_out(name):
    def count(counts, args, kwargs, out, tracer):
        counts[f"{name}.bytes"] += len(out)
    return count


def _cli_main(counts, args, kwargs, out, tracer):
    counts["cli.main.exit_nonzero"] += out != 0


# (module, attribute path, computed-count hook or None)
LAYERS = [
    ("delta", "epi_mono_factorize", None),
    ("sset", "act", _act),
    ("sset", "strict_pullback", _pullback),
    ("sset", "edgewise", None),
    ("sset", "validate", None),
    ("cat", "bar", None),
    ("cat", "nerve", None),
    ("cat", "FinCategory.hom", _hom),
    ("checks", "segal_map", None),
    ("checks", "two_segal_map", None),
    ("checks", "beta_gamma_equality", None),
    ("checks", "retract_verify", None),
    ("checks", "theorem_verify", None),
    ("corpus", "random_category", None),
    ("corpus", "random_partial_monoid", None),
    ("corpus", "random_coskeletal_sset", None),
    ("groupoid", "s_construction", _s_construction),
    ("groupoid", "iso_comma", _iso_comma),
    ("groupoid", "groupoid_equivalence", None),
    ("groupoid", "functor_violations", None),
    ("groupoid", "act_gpd", None),
    ("groupoid", "esd_gpd", None),
    ("groupoid", "validate_sgpd", None),
    ("io", "load_sset", _bytes_in("io.load_sset")),
    ("io", "save_sset", _bytes_out("io.save_sset")),
    ("io", "load_sgpd", _bytes_in("io.load_sgpd")),
    ("io", "save_sgpd", _bytes_out("io.save_sgpd")),
    ("io", "save_report", _bytes_out("io.save_report")),
    ("cli", "main", _cli_main),
]

# Counts the hooks add, so every metric is present even when zero.
COMPUTED = [
    "sset.act.distinct_keys", "sset.act.cells_out",
    "sset.strict_pullback.pairs_examined", "sset.strict_pullback.pairs_out",
    "cat.FinCategory.hom.morphisms_scanned",
    "cat.FinCategory.hom.morphisms_out",
    "groupoid.s_construction.compose_pairs_tried",
    "groupoid.s_construction.compose_pairs_kept",
    "groupoid.iso_comma.objects_out", "groupoid.iso_comma.morphisms_out",
    "io.load_sset.bytes", "io.save_sset.bytes", "io.load_sgpd.bytes",
    "io.save_sgpd.bytes", "io.save_report.bytes",
    "cli.main.exit_nonzero",
]

CORPUS_SPANS = ("corpus.random_category", "corpus.random_partial_monoid",
                "corpus.random_coskeletal_sset")


class Tracer:
    """Records spans and counts while installed; one op at a time."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index, op, error)
        self.stack = []
        self.counts = dict.fromkeys(COMPUTED, 0)
        self.op = None
        self.act_keys = set()
        self.keep_alive = []
        self._patches = []

    def begin_op(self, op):
        """Start op ``op``; act's distinct keys are counted per op."""
        self.op = op
        self.act_keys.clear()
        self.keep_alive.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, error)
            if hook is not None:
                hook(self.counts, args, kwargs, out, self)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, _, _ in LAYERS:
            importlib.import_module(f"edgewise.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "edgewise" or n.startswith("edgewise.")]
        for mod_name, attr, hook in LAYERS:
            home = sys.modules[f"edgewise.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, hook))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._set_item(value, k, wrapper)

    def _set(self, owner, key, value):
        self._patches.append((setattr, owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _set_item(self, table, key, value):
        self._patches.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self):
        while self._patches:
            restore, owner, key, value = self._patches.pop()
            restore(owner, key, value)
        self.keep_alive.clear()

    def metrics(self) -> dict:
        """``<module>.<function>.{calls,self_s}`` plus the computed counts."""
        calls = {f"{m}.{a}": 0 for m, a, _ in LAYERS}
        total = dict.fromkeys(calls, 0.0)
        child = [0.0] * len(self.spans)
        failures = 0
        for name, start, end, parent, _, error in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            if name in CORPUS_SPANS and error == "GenerationError":
                failures += 1
        self_s = dict.fromkeys(calls, 0.0)
        for span, below in zip(self.spans, child):
            self_s[span[0]] += span[2] - span[1] - below
        out = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name, value in self.counts.items():
            out[name] = (value, "bytes" if name.endswith(".bytes")
                         else "count")
        out["corpus.generation_failures"] = (failures, "count")
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, op, error in self.spans:
                handle.write(json.dumps(
                    [name, round(start - t0, 9), round(end - t0, 9), parent,
                     op, error]) + "\n")

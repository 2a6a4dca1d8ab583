"""Spans around the calls into each cohcheck module, recorded from outside.

Every hooked function is replaced, in every ``cohcheck`` module namespace
that holds it, by a wrapper that records a span: name, start, end and the
span it was called from. ``normalize_braid`` for example is bound in
``braid_core``, ``diagram_check`` and ``cli``, and all three are wrapped.
``FreeMor.__post_init__`` only counts, since it runs for every morphism
built. Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function, span name); the span name is the layer's metric prefix
HOOKS = (
    ("cli", "parse_source", "cli.parse_source"),
    ("cli", "build_diagram", "cli.build_diagram"),
    ("diagram_check", "validate_diagram", "diagram_check.validate_diagram"),
    ("diagram_check", "compose_path", "diagram_check.compose_path"),
    ("diagram_check", "check_goal", "diagram_check.check_goal"),
    ("diagram_check", "explain_goal", "diagram_check.explain_goal"),
    ("diagram_check", "report_json", "diagram_check.report_json"),
    ("ualg", "validate_umor", "ualg.validate_umor"),
    ("ualg", "dissolve", "ualg.dissolve"),
    ("free_cat", "fmor_compose", "free_cat.fmor_compose"),
    ("free_cat", "fmor_tensor", "free_cat.fmor_tensor"),
    ("free_cat", "fmor_equal", "free_cat.fmor_equal"),
    ("free_cat", "flatten_mu", "free_cat.flatten_mu"),
    ("functor_eval", "check_axioms", "functor_eval.check_axioms"),
    ("functor_eval", "lambda_eval", "functor_eval.lambda_eval"),
    ("braid_core", "normalize_braid", "braid_core.normalize_braid"),
    ("braid_core", "braid_perm", "braid_core.braid_perm"),
    ("braid_core", "cable", "braid_core.cable"),
    ("braid_core", "perm_braid", "braid_core.perm_braid"),
)

EXPLAIN = "diagram_check.explain_goal"
# span flags
OUTERMOST = 1  # no enclosing span of the same name
UNDER_EXPLAIN = 2  # inside an explain_goal span


def _measure_normalize(counts: dict, args, out) -> None:
    counts["nf_letters_in"] += len(args[0].letters)
    counts["nf_factors_out"] += len(out.factors)


def _measure_cable(counts: dict, args, out) -> None:
    counts["cable_letters_out"] += len(out.letters)


MEASURES = {
    "braid_core.normalize_braid": _measure_normalize,
    "braid_core.cable": _measure_cable,
}
COUNTS = ("freemor_built", "nf_letters_in", "nf_factors_out", "cable_letters_out")


class Tracer:
    def __init__(self) -> None:
        self.names = [name for _, _, name in HOOKS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flags = array("b")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._explain = self.names.index(EXPLAIN)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn):
        measure = MEASURES.get(self.names[nid])
        name, start, end, parent, flags = self.name, self.start, self.end, self.parent, self.flags
        stack, active, counts, explain = self._stack, self._active, self.counts, self._explain
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            flags.append((OUTERMOST if not active[nid] else 0) | (UNDER_EXPLAIN if active[explain] else 0))
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if measure is not None:
                measure(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "cohcheck" or n.startswith("cohcheck.")]
        for nid, (mod, attr, _) in enumerate(HOOKS):
            orig = getattr(sys.modules[f"cohcheck.{mod}"], attr)
            wrapper = self._wrap(nid, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        free_mor = sys.modules["cohcheck.free_cat"].FreeMor
        post_init = free_mor.__post_init__
        counts = self.counts

        def counted(obj) -> None:
            counts["freemor_built"] += 1
            post_init(obj)

        self._undo.append((free_mor, "__post_init__", post_init))
        free_mor.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "flags": self.flags.tolist(),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict) -> None:
        """Append the spans of another process (same hook table)."""
        base = len(self.start)
        self.name.extend(data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.flags.extend(data["flags"])
        for key, value in data["counts"].items():
            self.counts[key] += value

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only),
        self seconds, and calls inside explain_goal."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "under_explain": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            t = out[self.names[nid]]
            dur = self.end[i] - self.start[i]
            t["calls"] += 1
            t["self_s"] += dur - child[i]
            if self.flags[i] & OUTERMOST:
                t["incl_s"] += dur
            if self.flags[i] & UNDER_EXPLAIN:
                t["under_explain"] += 1
        return out

    def write(self, path, extra: dict) -> None:
        """The same JSON object as dump() plus extra, written column by
        column in chunks so that no second copy of the spans is built."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            head = {**extra, "names": self.names, "counts": self.counts}
            handle.write(json.dumps(head)[:-1])
            for key in ("name", "start", "end", "parent", "flags"):
                column = getattr(self, key)
                handle.write(f', "{key}": [')
                for lo in range(0, len(column), 65536):
                    handle.write(("," if lo else "") + ",".join(map(repr, column[lo : lo + 65536])))
                handle.write("]")
            handle.write("}")

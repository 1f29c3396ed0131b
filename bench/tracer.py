"""Outside-in span tracer for the dnas package.

``Tracer.install`` wraps every public function and public method defined in
a ``dnas`` module, and rebinds each wrapped function under every name any
``dnas`` module (the package included) holds it by, so that a call through
``from .keccak import keccak256`` is traced like one through
``dnas.keccak.keccak256``. Spans (name, start, end, parent, whether it
raised, and for ``SIZED`` names the returned length) stay in memory until
the run writes them out. Nothing inside the program changes.
"""

import enum
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

PACKAGE = "dnas"
# spans that also record the length of their return value
SIZED = ("contracts.ContractRuntime.state_bytes", "records.WineRecord.subset")


def _package_modules() -> List[object]:
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        # [name_id, start, end, parent, raised, returned length or -1]
        self.spans: List[list] = []
        self.marks: Dict[str, int] = {}
        self.enabled = False
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        sized = name in SIZED
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, False, -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if sized:
                span[5] = len(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        modules = _package_modules()
        prefix = len(PACKAGE) + 1
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            short = module.__name__[prefix:]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(obj, f"{short}.{attr}")
                    for holder in modules:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, bound, traced)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, f"{short}.{attr}")
        return self

    def _wrap_class(self, cls, qualname: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def mark(self, label: str) -> None:
        """Remember where a phase starts in the span list."""
        self.marks[label] = len(self.spans)

    # -- analysis ------------------------------------------------------------------

    def layer_stats(self, start: int, end: int) -> Dict[str, Dict[str, float]]:
        """Per span name over the spans [start, end): calls, self time, total
        time, calls that raised, returned bytes (SIZED names) and calls by
        parent name. Self time is a span's duration minus the time its direct
        children cover; calls made by one thread nest, so children never
        overlap. Total time counts a recursive call's span once, at its
        outermost frame."""
        child = [0.0] * (end - start)
        for span in self.spans[start:end]:
            parent = span[3]
            if parent >= start:
                child[parent - start] += span[2] - span[1]
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0, "bytes": 0})
        by_parent: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        names = self.names
        active = defaultdict(int)       # name id -> open spans in the chain
        chain: List[list] = []           # ancestors of the current span
        for offset, span in enumerate(self.spans[start:end]):
            while chain and chain[-1][2] <= span[1]:
                active[chain.pop()[0]] -= 1
            entry = stats[names[span[0]]]
            entry["calls"] += 1
            entry["self_s"] += span[2] - span[1] - child[offset]
            if not active[span[0]]:
                entry["total_s"] += span[2] - span[1]
            active[span[0]] += 1
            chain.append(span)
            entry["raised"] += span[4]
            entry["bytes"] += max(span[5], 0)
            parent = span[3]
            by_parent[names[span[0]]][names[self.spans[parent][0]] if parent >= 0 else ""] += 1
        for name, entry in stats.items():
            entry["by_parent"] = dict(by_parent[name])
        return dict(stats)

    def write(self, path) -> None:
        """Spans as gzip'd line-delimited JSON: a header, then one span a line."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write(json.dumps({"names": self.names, "marks": self.marks,
                                  "fields": ["name", "start", "end", "parent", "raised",
                                             "returned_bytes"]}))
            out.write("\n")
            for span in self.spans:
                out.write(f"[{span[0]},{span[1]!r},{span[2]!r},{span[3]},"
                          f"{int(span[4])},{span[5]}]\n")

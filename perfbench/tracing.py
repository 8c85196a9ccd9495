"""Spans around samsami's layers, recorded from the benchmark's side.

The traced run swaps each name in SITES, in every module that looks it
up at call time, for a wrapper that records a span, and puts the
originals back afterwards; the untraced run never installs them. A name
that a later change removes is reported as absent instead of failing.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns

# span name -> owners (modules of the samsami package, or a class in
# one) whose attribute of that name the program reads at call time
SITES = {
    "sampled_positions": ("core", "phrase"),
    "build_full_sa": ("core", "baselines", "phrase"),
    "extract_sampled": ("core",),
    "build": ("persistence",),
    "annotate": ("persistence",),
    "build_table": ("persistence",),
    "encode_text": ("persistence",),
    "suffix_order": ("phrase.EncodedText",),
    "window_minimizer": ("core", "hashindex", "minimizer"),
    "prune_mask": ("delta",),
    "suffix_range": ("core",),
    "text_checksum": ("persistence",),
}


def _resolve(owner: str):
    module, _, attr = owner.partition(".")
    try:
        found = importlib.import_module(f"samsami.{module}")
    except ImportError:
        return None
    return getattr(found, attr, None) if attr else found


class Tracer:
    """In-memory spans: name, phase, start, end, parent and root index."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.absent: set[str] = set()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name, nested in the open span."""
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][5] if parent >= 0 else i
        span = [name, self.phase, perf_counter_ns(), 0, parent, root]
        self.spans.append(span)
        self._open.append(i)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[3] = perf_counter_ns()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Record spans at every site in SITES while the block runs."""
        saved = []
        for name, owners in SITES.items():
            for owner_name in owners:
                owner = _resolve(owner_name)
                fn = getattr(owner, name, None) if owner is not None else None
                if fn is None:
                    self.absent.add(f"{owner_name}.{name}")
                    continue
                saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(name, fn))
        try:
            yield self
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def totals(self) -> dict[tuple[str, str], list[int]]:
        """(phase, name) -> [calls, total ns, self ns].

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        child = [0] * len(self.spans)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], list[int]] = {}
        for i, (name, phase, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault((phase, name), [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return out

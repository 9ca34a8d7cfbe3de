"""Spans and counters around the calls into each layer of ``mihailova``.

The tracer patches the package from outside: nothing under ``src/`` knows
about it.  A target is named by its home module and attribute path; the
tracer resolves it by name and replaces it at every site that binds the same
object (``mihailova.cli.in_mihailova`` and ``mihailova.pairs.in_mihailova``
are one function bound twice).  A target that no longer exists is recorded
in ``skipped`` and its metrics are left out, so renaming or deleting a
function in the package does not break the benchmark.

Span targets record (name, start, end, parent, query id) in memory; count
targets only increment a counter, for calls too frequent to time.  Layers
are the package modules, and a span's layer is its name up to the first dot.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, home module, attribute path)
SPAN_TARGETS = (
    ("presentations.parse", "mihailova.presentations", "parse_presentation"),
    ("presentations.refine", "mihailova.presentations", "is_concise"),
    ("presentations.refine", "mihailova.presentations", "check_strengthened_conciseness"),
    ("presentations.refine", "mihailova.presentations", "concise_refinement"),
    ("presentations.format", "mihailova.presentations", "format_presentation"),
    ("presentations.closure", "mihailova.presentations", "normal_closure_contains"),
    ("presentations.certificate", "mihailova.presentations", "certificate_product"),
    ("words.are_conjugate", "mihailova.words", "are_conjugate"),
    ("pairs.membership", "mihailova.pairs", "in_mihailova"),
    ("pairs.text", "mihailova.pairs", "parse_pair_word"),
    ("pairs.text", "mihailova.pairs", "parse_mixed_word"),
    ("pairs.text", "mihailova.pairs", "format_mixed_word"),
    ("pairs.relator_family", "mihailova.pairs", "relator_family"),
    ("pairs.kernel_check", "mihailova.pairs", "in_pair_kernel"),
    ("pairs.pair_image", "mihailova.pairs", "pair_image"),
    ("pairs.decompose", "mihailova.pairs", "decompose"),
    ("peiffer.search", "mihailova.peiffer", "reduce_to_empty"),
    ("peiffer.verify", "mihailova.peiffer", "verify_certificate"),
    ("peiffer.format", "mihailova.peiffer", "format_certificate"),
    ("automorphisms.embed", "mihailova.automorphisms", "orbit_undecidable_subgroup"),
    ("automorphisms.embed", "mihailova.automorphisms", "format_endomorphism"),
)

# (counter name, home module, attribute path, only these binding sites or None)
COUNT_TARGETS = (
    # the closure search's child construction; words.concat_reduced also
    # serves Word.__mul__, so only the binding in presentations is counted
    ("presentations.closure_children", "mihailova.presentations", "concat_reduced",
     ("mihailova.presentations",)),
    ("words.word_new", "mihailova.words", "Word.__post_init__", None),
    ("pairs.mixed_new", "mihailova.pairs", "MixedWord.__post_init__", None),
    ("peiffer.transforms", "mihailova.peiffer", "exchange_tracked", None),
    ("peiffer.transforms", "mihailova.peiffer", "inverse_exchange_tracked", None),
    ("peiffer.transforms", "mihailova.peiffer", "deletion_tracked", None),
    ("peiffer.transforms", "mihailova.peiffer", "insertion_tracked", None),
)


def _certificate_length(verdict):
    cert = getattr(verdict, "certificate", None)
    return None if cert is None else len(cert)


def _move_count(cert):
    moves = getattr(cert, "moves", None)
    return None if moves is None else len(moves)


# span name -> (sample name, function of the return value giving a number
# or None); samples are averaged into per-call means
PROBES = {
    "presentations.closure": ("presentations.cert_factors", _certificate_length),
    "peiffer.search": ("peiffer.cert_moves", _move_count),
}

ROOT = "cli.query"


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for a dotted path in a loaded module, or
    None when any part of it is missing."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _binding_sites(attr, original, only):
    """Every (module, name) in the package bound to ``original``; a class
    attribute has only its class."""
    if "." in attr:
        return []
    names = only or [n for n in sys.modules if n == "mihailova" or n.startswith("mihailova.")]
    out = []
    for n in names:
        mod = sys.modules.get(n)
        for name, value in list(vars(mod).items()) if mod else ():
            if value is original:
                out.append((mod, name))
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, query id)
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.skipped: list[str] = []  # "name: module.attribute" not found
        self.resolved: set[str] = set()  # names with at least one target
        self.query_id = -1
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _patch(self, metric, module_name, attr, make_wrapper, only=None):
        found = _resolve(module_name, attr)
        if found is None:
            self.skipped.append(f"{metric}: {module_name}.{attr}")
            return
        self.resolved.add(metric)
        owner, name, original = found
        wrapper = make_wrapper(original)
        sites = _binding_sites(attr, original, only) or [(owner, name)]
        for site, site_name in sites:
            self._patched.append((site, site_name, getattr(site, site_name)))
            setattr(site, site_name, wrapper)

    def install(self):
        for name, module_name, attr in SPAN_TARGETS:
            self._patch(name, module_name, attr, lambda f, n=name: self._span_wrapper(n, f))
        for name, module_name, attr, only in COUNT_TARGETS:
            self._patch(name, module_name, attr,
                        lambda f, n=name: self._count_wrapper(n, f), only)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _span_wrapper(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(span_name)
        samples = self.samples

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.query_id)
            if probe is not None:
                value = probe[1](result)
                if value is not None:
                    samples[probe[0]].append(value)
            return result

        return traced

    def _count_wrapper(self, counter_name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter_name] += 1
            return fn(*args, **kwargs)

        return counted

    def missing(self) -> set[str]:
        """Span and counter names none of whose targets could be found."""
        return {s.split(":", 1)[0] for s in self.skipped} - self.resolved

    # -- queries -----------------------------------------------------------

    def run_query(self, query_id: int, fn):
        """Run one query under the root span; returns fn's result."""
        self.query_id = query_id
        return self._span_wrapper(ROOT, fn)()

    # -- analysis ----------------------------------------------------------

    def totals(self, scale) -> dict[str, float]:
        """Seconds per span name, each span's duration multiplied by
        scale[query id], counting only spans with no ancestor of the same
        name, so recursion is not counted twice."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, qid in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += (end - start) * scale[qid]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self, scale) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's,
        multiplied by scale[query id]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, qid) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start - child[k]) * scale[qid]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": qid}) + "\n")

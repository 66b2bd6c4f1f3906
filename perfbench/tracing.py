"""In-process span recorder for the traced server run.

Spans are timed from outside the program: :func:`install` replaces public
callables (or the module-level names the callers bind them to) with thin
wrappers, so no file of the program changes.  Each thread keeps a stack of
open spans; a span opened on an empty stack is a *root*, and every span
below it belongs to that root's request.  When a root closes, one record
with its interval and ``[calls, self seconds]`` per span path (such as
``service.search/search.match``) is kept in memory; :func:`dump` writes all records out once, at shutdown.

Only the outermost call of a span name on a stack is timed, so recursive or
nested calls of one layer are counted once.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from typing import Callable, Dict, List

_clock = time.monotonic  # CLOCK_MONOTONIC: comparable with the client's clock


class Recorder:
    """Per-thread span stacks plus the finished root records."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.records: List[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each outermost call is timed as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
                path, totals, counters = f"{parent[3]}/{name}", parent[4], parent[5]
            else:
                path, totals, counters = name, {}, {}
            # frame: name, start, child seconds, path, per-path totals, counters, error
            frame = [name, _clock(), 0.0, path, totals, counters, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as error:
                frame[6] = type(error).__name__
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[1]
                entry = totals.setdefault(path, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.records.append(
                        {
                            "root": name,
                            "start": frame[1],
                            "end": end,
                            "error": frame[6],
                            "spans": totals,
                            "counters": counters,
                        }
                    )

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call bumps counter ``name`` of the open root."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = self._stack()
            if stack:
                counters = stack[0][5]
                counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.records), handle)


def _wrap_method(recorder: Recorder, owner, attribute: str, name: str) -> None:
    setattr(owner, attribute, recorder.span(name, owner.__dict__[attribute]))


def _wrap_classmethod(recorder: Recorder, owner, attribute: str, name: str) -> None:
    function = owner.__dict__[attribute].__func__
    setattr(owner, attribute, classmethod(recorder.span(name, function)))


def install(recorder: Recorder) -> None:
    """Wrap every traced layer boundary of the ``serve`` process."""
    from repro.comparison.table import ComparisonTable
    from repro.core.generator import DFSGenerator
    from repro.features.extractor import FeatureExtractor
    from repro.search import engine as engine_module
    from repro.search.engine import SearchEngine
    from repro.search.query import KeywordQuery
    from repro.service import protocol
    from repro.service import service as service_module
    from repro.service.http import _Handler
    from repro.storage.corpus import Corpus
    from repro.storage.inverted_index import InvertedIndex
    from repro.storage.lazy_store import LazyDocumentStore
    from repro.xmlmodel.node import XMLNode

    # Request roots: the HTTP endpoint of each request kind, so a root
    # covers the service call, its encoding and the response write.
    for attribute, name in (
        ("_search", "service.search"),
        ("_compare", "service.compare"),
        ("_ingest", "service.ingest"),
        ("_delete_document", "service.delete"),
    ):
        _wrap_method(recorder, _Handler, attribute, name)

    _wrap_classmethod(recorder, KeywordQuery, "parse", "search.parse")
    _wrap_method(recorder, InvertedIndex, "keyword_node_lists", "storage.postings")
    _wrap_method(recorder, XMLNode, "copy", "xmlmodel.copy")
    _wrap_method(recorder, LazyDocumentStore, "_decode", "storage.lazy_decode")
    _wrap_method(recorder, FeatureExtractor, "extract", "features.extract")
    _wrap_method(recorder, DFSGenerator, "generate", "core.dfs")
    _wrap_classmethod(recorder, ComparisonTable, "from_dfs_set", "comparison.table")
    _wrap_method(recorder, Corpus, "begin_generation", "storage.clone")
    _wrap_method(recorder, Corpus, "add_document", "storage.mutate")
    _wrap_method(recorder, Corpus, "remove_document", "storage.mutate")
    _wrap_method(recorder, Corpus, "finalize", "storage.finalize")
    _wrap_method(recorder, Corpus, "save", "storage.snapshot_save")
    _wrap_classmethod(recorder, Corpus, "load", "storage.snapshot_load")

    # Module-level bindings the engine and service call through.
    engine_module.infer_return_subtree = recorder.span(
        "search.xseek", engine_module.infer_return_subtree
    )
    engine_module.rank_results = recorder.span("search.rank", engine_module.rank_results)
    service_module.parse_xml = recorder.span("xmlmodel.parse", service_module.parse_xml)
    service_module.serialize = recorder.span(
        "service.encode", recorder.count("served_items", service_module.serialize)
    )
    for response in (protocol.SearchResponse, protocol.CompareResponse, protocol.IngestResponse):
        _wrap_method(recorder, response, "to_dict", "service.encode")

    # The registered semantics callable: hand the engine a registration
    # whose function is wrapped, one wrapper per registered function.
    original_registration = engine_module.get_registration
    wrapped: Dict[Callable, Callable] = {}

    def get_registration(name):
        registration = original_registration(name)
        fn = wrapped.get(registration.fn)
        if fn is None:
            fn = wrapped[registration.fn] = recorder.span("search.match", registration.fn)
        return dataclasses.replace(registration, fn=fn)

    engine_module.get_registration = get_registration

    # Cache probes versus evaluations give the engine's hit ratio.
    _count_method(recorder, SearchEngine, "_ranked_results", "cache_lookups")
    _count_method(recorder, SearchEngine, "_evaluate", "evaluations")


def _count_method(recorder: Recorder, owner, attribute: str, name: str) -> None:
    setattr(owner, attribute, recorder.count(name, owner.__dict__[attribute]))

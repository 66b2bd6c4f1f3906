"""The :class:`SearchEngine` facade.

This is the component labelled "Search Engine" in the XSACT architecture
diagram (Figure 3 of the paper): keywords go in, a ranked list of structured
results comes out.  The pipeline is

1. look up the posting list of every query keyword in the inverted index,
2. compute SLCA (or ELCA) match nodes,
3. infer the return node for each match with the XSeek rules,
4. deduplicate results that map to the same return node,
5. rank the results and keep each as a
   :class:`~repro.search.result.RankedHit`: document id, match and return
   labels, and score.

Steps 3–5 run on the corpus's structural index
(:attr:`~repro.storage.corpus.Corpus.structure`: per-document
pre/post/parent/tag arrays, restored from a snapshot or built once per
document), the index's posting spans and the corpus statistics.  Evaluation
therefore decodes no document tree: a match label maps to its ``pre`` number,
XSeek climbs ``parent[]``, and a return subtree's size is ``end[r] - r``.

Trees are read only for what is served.  :meth:`SearchEngine.materialise`
builds :class:`~repro.search.result.SearchResult` objects, each with a
detached copy of its return subtree and its title, for the requested ranks
only, so a page of ``k`` results costs ``k`` subtree copies whether its
ranked list was just evaluated or came from the cache, and callers may
annotate or prune what they are served without touching the corpus or the
cache.  The service's wire path copies nothing: it serialises the live
return node of each served hit.

Repeated queries are the dominant pattern under real traffic, so the engine
keeps a small LRU cache of ranked hit lists keyed by the normalised query
(:attr:`~repro.search.query.KeywordQuery.cache_key`) and the result semantics.
``cache_size`` caps the number of entries; since an entry holds labels, not
subtrees, that bound also bounds its memory.  The cache is invalidated
wholesale whenever the corpus :attr:`~repro.storage.corpus.Corpus.version`
changes.

The engine is safe to share between threads over a read-only corpus: cache
probes, insertions and the hit/miss counters are lock-guarded, while query
evaluation itself runs outside the lock so distinct queries proceed in
parallel (see :class:`~repro.service.service.SearchService`, which keeps one
engine per semantics behind a single service facade).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SearchError
from repro.search.query import KeywordQuery
from repro.search.ranking import Candidate, rank_results
from repro.search.result import RankedHit, SearchResult, SearchResultSet
from repro.search.semantics import (
    MatchContext,
    get_registration,
    get_semantics,
    semantics_generation,
)
from repro.search.structural import StructuredQuery
from repro.search.xseek import RepeatingTags, infer_return_subtree
from repro.storage.corpus import Corpus
from repro.storage.inverted_index import Posting

__all__ = ["SearchEngine"]


class SearchEngine:
    """Keyword search over a :class:`~repro.storage.corpus.Corpus`.

    Parameters
    ----------
    corpus:
        The corpus to search.
    semantics:
        Match semantics: ``"slca"`` (default), ``"elca"``, or any name
        registered through
        :func:`~repro.search.semantics.register_semantics`.
    cache_size:
        Maximum number of distinct queries whose ranked hits are kept in the
        LRU cache; ``0`` disables caching entirely.
    """

    def __init__(self, corpus: Corpus, semantics: str = "slca", cache_size: int = 128):
        get_semantics(semantics)  # reject unknown names at construction
        self.corpus = corpus
        self.semantics = semantics
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[Tuple[str, ...], str, int], Tuple[RankedHit, ...]]" = OrderedDict()
        self._cache_version = getattr(corpus, "version", None)
        self.cache_hits = 0
        self.cache_misses = 0
        # Guards every access to the cache dict and the hit/miss counters.
        # Query *evaluation* runs outside the lock — the corpus is shared
        # read-only — so concurrent distinct queries still evaluate in
        # parallel; only cache probes and insertions serialise.  RLock, not
        # Lock: clear_cache() is also called from inside the locked version
        # check.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def search(self, query: "KeywordQuery | str", limit: Optional[int] = None) -> SearchResultSet:
        """Evaluate a keyword query and return ranked results.

        Parameters
        ----------
        query:
            A :class:`KeywordQuery` or a raw query string.
        limit:
            Optional cap on the number of results returned (after ranking).
            The cache stores the full ranked list, so the same query with
            different limits is still a single cache entry.

        Raises
        ------
        SearchError
            If ``limit`` is negative — a negative value would silently slice
            from the wrong end of the ranked list (``ranked[:-1]`` drops the
            *last* result), which is never what the caller meant.
        """
        if limit is not None and limit < 0:
            raise SearchError(f"limit must be non-negative, got {limit}")
        query = self._parsed(query)
        return SearchResultSet(
            query=query, results=self.materialise(self._ranked_results(query), 0, limit)
        )

    def search_page(
        self, query: "KeywordQuery | str", offset: int, count: int
    ) -> Tuple[int, SearchResultSet]:
        """Evaluate a query and materialise one rank window of its results.

        Returns ``(total, page)`` where ``total`` is the full ranked result
        count and ``page`` holds the results at ranks ``offset+1`` to
        ``offset+count`` with their rank-stable ids (``"R{rank}"``).  Only
        the window is subtree-copied, so pagination stays O(page size) per
        request however long the ranked list is.

        Raises
        ------
        SearchError
            If ``offset`` or ``count`` is negative.
        """
        if offset < 0:
            raise SearchError(f"offset must be non-negative, got {offset}")
        if count < 0:
            raise SearchError(f"count must be non-negative, got {count}")
        query = self._parsed(query)
        hits = self._ranked_results(query)
        return len(hits), SearchResultSet(
            query=query, results=self.materialise(hits, offset, count)
        )

    def ranked_hits(self, query: "KeywordQuery | str") -> Sequence[RankedHit]:
        """The full ranked list of a query as hits, from the cache when possible.

        Nothing is copied; pass the ranks a caller is served to
        :meth:`materialise`.  The sequence may be shared with the cache and
        other threads, so it is immutable.
        """
        return self._ranked_results(self._parsed(query))

    def materialise(
        self, hits: Sequence[RankedHit], offset: int = 0, count: Optional[int] = None
    ) -> List[SearchResult]:
        """Results for the hits at ranks ``offset+1`` to ``offset+count``.

        Each result carries a fresh detached copy of its return subtree,
        read from this engine's corpus.  ``count=None`` runs to the end.
        """
        window = hits[offset:] if count is None else hits[offset : offset + count]
        store = self.corpus.store
        return [hit.materialise(store, rank) for rank, hit in enumerate(window, start=offset + 1)]

    @staticmethod
    def _parsed(query: "KeywordQuery | str") -> KeywordQuery:
        return KeywordQuery.parse(query) if isinstance(query, str) else query

    def clear_cache(self) -> None:
        """Drop every cached query result."""
        with self._lock:
            self._cache.clear()

    def cache_stats(self) -> Dict[str, int]:
        """Return a consistent snapshot of the cache counters.

        The hit/miss counters were always maintained but never exposed; the
        service layer's ``/stats`` endpoint and the ``serve`` logs read them
        through this accessor.  Keys: ``entries`` (cached queries),
        ``cached_results`` (ranked hits held, summed over the entries),
        ``hits`` and ``misses`` (lifetime counters, reset never — compute
        rates over deltas).
        """
        with self._lock:
            return {
                "entries": len(self._cache),
                "cached_results": sum(len(hits) for hits in self._cache.values()),
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    # ------------------------------------------------------------------ #
    # Caching
    # ------------------------------------------------------------------ #
    def _ranked_results(self, query: KeywordQuery) -> Tuple[RankedHit, ...]:
        """Return the full ranked hit list: the engine's only cache probe."""
        if self.cache_size <= 0:
            return self._evaluate(query)

        # The registration generation is part of the key: re-registering a
        # custom semantics (replace=True) changes what the name computes, and
        # entries cached under the old function must not answer for the new
        # one.  Old-generation entries linger unreachable until LRU eviction.
        key = (query.cache_key, self.semantics, semantics_generation(self.semantics))
        with self._lock:
            version = getattr(self.corpus, "version", None)
            if version != self._cache_version:
                self.clear_cache()
                self._cache_version = version
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1

        # Evaluate outside the lock: the corpus is shared read-only, so
        # distinct queries proceed in parallel.  Two threads racing on the
        # same cold query both evaluate (duplicate work, identical output);
        # the insertion below handles the race by replacing.
        ranked = self._evaluate(query)

        with self._lock:
            if getattr(self.corpus, "version", None) != version:
                # The corpus was mutated after this thread's cache probe; the
                # list may reflect a mix of versions, so hand it out uncached.
                # Compare against the version captured at *our* probe — the
                # shared _cache_version may already have been re-synced to the
                # new corpus version by another thread's probe, which would
                # let this stale list masquerade as current.
                return ranked
            self._cache[key] = ranked
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            return ranked

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #
    def _evaluate(self, query: KeywordQuery) -> Tuple[RankedHit, ...]:
        matches = self._compute_matches(query)
        candidates = self._return_nodes(matches)
        # Index-assisted scoring: posting spans already know where every
        # keyword occurs, so ranking never re-tokenises result subtrees.
        ranked = rank_results(candidates, query, self.corpus.statistics, self.corpus.index)
        return tuple(RankedHit(c.doc_id, c.match_label, c.return_label, c.score) for c in ranked)

    def _compute_matches(self, query: KeywordQuery) -> List[Posting]:
        # Resolve postings through the *normalised* keyword view — the same
        # identity the cache key and ranking use.  A directly-constructed,
        # un-normalised query (duplicate or multi-token keyword strings) must
        # evaluate exactly like its normalised spelling, because both share
        # one cache entry; resolving the raw keywords here would let the two
        # views drift apart and poison the shared entry.
        # copy=False: the match algorithms never mutate the lists, so the hot
        # path skips one posting-list copy per keyword.
        # Resolved through the registry on every call (a dict probe), so a
        # semantics registered after this engine was built is immediately
        # usable and the engine never hard-codes match algorithms.
        registration = get_registration(self.semantics)
        if (
            isinstance(query, StructuredQuery)
            and query.has_constraints
            and not registration.accepts_context
        ):
            # Silently evaluating only the keywords would return results the
            # constraints should have filtered — fail loudly instead.
            raise SearchError(
                f"semantics {self.semantics!r} ignores structural constraints; "
                "use a structure-aware semantics such as 'slca_struct'"
            )
        posting_lists = self.corpus.index.keyword_node_lists(
            query.normalized_keywords, copy=False
        )
        if not posting_lists:
            return []
        if registration.accepts_context:
            return registration.fn(
                posting_lists, MatchContext(corpus=self.corpus, query=query)
            )
        return registration.fn(posting_lists)

    def _return_nodes(self, matches: List[Posting]) -> List[Candidate]:
        """One scoring candidate per distinct return node, in match order.

        Runs on the structural index only: each match label maps to its
        ``pre`` number, XSeek infers the return node's ``pre``, and the
        candidate carries that node's label and element count.
        """
        table = self.corpus.structure
        repeating = RepeatingTags(self.corpus.statistics, table.tags)
        seen: Set[Tuple[str, int]] = set()
        candidates: List[Candidate] = []
        for match in matches:
            structure = table.get(match.doc_id)
            pre = infer_return_subtree(structure, structure.pre_of(match.label), repeating)
            key = (match.doc_id, pre)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(
                Candidate(
                    match.doc_id, match.label, structure.labels[pre], structure.end[pre] - pre
                )
            )
        return candidates

"""Search result model.

A search result is the subtree that the return-node inference decided to show
for one SLCA/ELCA match, together with enough provenance (document id, the
match node's Dewey label, the matched keywords) for downstream modules — the
entity identifier, the feature extractor and the comparison table — to do
their work and for the UI to link back to the source document.

The engine ranks and caches :class:`RankedHit` labels, not results: a
:class:`SearchResult` and its subtree copy exist only for the ranks a Python
caller or a comparison is served, built by :meth:`RankedHit.materialise`.
The wire path serialises the live return node instead and copies nothing.
Either way the display title is computed only for a served rank, by
:func:`result_title`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Sequence

from repro.errors import ResultNotFoundError, SearchError
from repro.search.query import KeywordQuery
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

if TYPE_CHECKING:
    from repro.storage.document_store import BaseDocumentStore

__all__ = ["RankedHit", "SearchResult", "SearchResultSet", "result_title"]

_TITLE_TAGS = ("name", "title", "brand_name", "product_name", "label")


def result_title(subtree: XMLNode, doc_id: str) -> str:
    """A short display name for a result: the first name-like text in it.

    Direct children named like a title win, then any such descendant; a
    subtree without one is named ``"{doc_id}:{tag}"``.
    """
    for tag in _TITLE_TAGS:
        child = subtree.find_child(tag)
        if child is not None:
            text = child.text_content()
            if text:
                return text
    for tag in _TITLE_TAGS:
        for descendant in subtree.find_descendants(tag):
            text = descendant.text_content()
            if text:
                return text
    return f"{doc_id}:{subtree.tag}"


@dataclass
class SearchResult:
    """One result of a keyword query.

    Attributes
    ----------
    result_id:
        Stable identifier, unique within a result set (``"R1"``, ``"R2"``, ...).
    doc_id:
        Identifier of the document the result was extracted from.
    match_label:
        Dewey label of the SLCA/ELCA match node inside the source document.
    return_label:
        Dewey label of the inferred return node (root of the displayed subtree).
    subtree:
        A detached copy of the return subtree.  Downstream modules may annotate
        or prune it without touching the corpus.
    score:
        Ranking score (higher is better).
    title:
        A short human-readable name for the result (e.g. the product name),
        see :func:`result_title`.
    """

    result_id: str
    doc_id: str
    match_label: DeweyLabel
    return_label: DeweyLabel
    subtree: XMLNode
    score: float = 0.0
    title: str = ""

    def element_count(self) -> int:
        """Number of element nodes in the result subtree."""
        return self.subtree.count_elements()

    def root_tag(self) -> str:
        """Tag of the result's root element."""
        return self.subtree.tag or ""

    def __repr__(self) -> str:
        return (
            f"SearchResult(id={self.result_id!r}, doc={self.doc_id!r}, "
            f"root=<{self.root_tag()}>, score={self.score:.3f})"
        )


class RankedHit(NamedTuple):
    """One ranked result as labels: what the engine ranks and caches.

    A hit names its return subtree by ``(doc_id, return_label)`` instead of
    holding a copy, so a cached ranked list costs a few small objects per
    result however large the subtrees are.  The score is computed once, when
    the query is evaluated, from the structural index; nothing about a hit
    needs its document's tree until the hit is served.
    """

    doc_id: str
    match_label: DeweyLabel
    return_label: DeweyLabel
    score: float

    def materialise(self, store: "BaseDocumentStore", rank: int) -> SearchResult:
        """Build the result served at ``rank``, with ``result_id`` ``"R{rank}"``.

        The one place a result subtree is copied: the live return node is
        detached with :meth:`XMLNode.copy`, so the caller may annotate or
        prune it without touching the corpus.
        """
        node = store.node_at(self.doc_id, self.return_label)
        return SearchResult(
            result_id=f"R{rank}",
            doc_id=self.doc_id,
            match_label=self.match_label,
            return_label=self.return_label,
            subtree=node.copy(),
            score=self.score,
            title=result_title(node, self.doc_id),
        )


@dataclass
class SearchResultSet:
    """The ordered list of results returned for one query."""

    query: KeywordQuery
    results: List[SearchResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    def top(self, count: int) -> List[SearchResult]:
        """Return the first ``count`` results.

        Raises
        ------
        SearchError
            If ``count`` is negative — ``results[:-n]`` would silently drop
            results from the *end* instead of selecting from the top.
        """
        if count < 0:
            raise SearchError(f"top() count must be non-negative, got {count}")
        return self.results[:count]

    def by_id(self, result_id: str) -> SearchResult:
        """Return the result with the given id.

        Raises
        ------
        ResultNotFoundError
            If no result carries that id (also catchable as
            :class:`KeyError`).
        """
        for result in self.results:
            if result.result_id == result_id:
                return result
        raise ResultNotFoundError(result_id)

    def select(self, result_ids: Sequence[str]) -> List[SearchResult]:
        """Return the results with the given ids, in the requested order.

        This mirrors the demo UI interaction where the user ticks checkboxes
        next to the results they want to compare.
        """
        return [self.by_id(result_id) for result_id in result_ids]

    def titles(self) -> List[str]:
        """Return the display titles of all results."""
        return [result.title for result in self.results]

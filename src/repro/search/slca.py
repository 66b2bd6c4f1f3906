"""Smallest Lowest Common Ancestor (SLCA) computation.

Given one posting list per query keyword, a node is an *LCA match* if its
subtree contains at least one occurrence of every keyword.  The SLCA semantics
keeps only the smallest such subtrees: an LCA match is an SLCA iff none of its
descendants is also an LCA match.  SLCA is the result semantics used by XSeek
and most XML keyword-search engines, and it is what feeds XSACT with results.

Two algorithms are provided:

* :func:`compute_slca` — the engine default.  Per document it dispatches
  between the two strategies below based on the posting-list shapes: when one
  keyword is much rarer than the others the indexed lookup wins, otherwise the
  linear merge does.
* :func:`_slca_single_document` (*indexed lookup eager*) — walks the shortest
  posting list and, for each of its postings, narrows the candidate by
  matching against the other lists with binary search; ``O(s * k * log N)``
  for shortest-list size ``s``, ``k`` keywords, ``N`` total postings.
* :func:`compute_slca_merge` (*stack merge*) — a single stack-based pass over
  all posting lists merged in document order (see
  :mod:`repro.search.linear_merge`); ``O(N log N + N * d)`` for maximum label
  depth ``d``, independent of how the postings split across keywords.

The test suite pins both against a brute-force scan oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

from repro.search.linear_merge import collect_per_document, stack_merge_document
from repro.storage.inverted_index import Posting
from repro.xmlmodel.dewey import DeweyLabel

__all__ = ["compute_slca", "compute_slca_merge"]


def compute_slca(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Return the SLCA nodes for the given per-keyword posting lists.

    The result is a list of :class:`Posting` (document id + Dewey label of the
    SLCA node) sorted in global document order.  If any keyword has an empty
    posting list the result is empty (conjunctive semantics).
    """
    lists = list(keyword_postings)
    if not lists or any(not postings for postings in lists):
        return []
    if len(lists) == 1:
        return _remove_ancestors(sorted(lists[0]))

    def dispatch(label_lists: List[List[DeweyLabel]]) -> List[DeweyLabel]:
        if _prefer_indexed(label_lists):
            return _slca_single_document(label_lists)
        return stack_merge_document(label_lists, exclusive=False)

    return collect_per_document(lists, dispatch, sort_lists=True)


def compute_slca_merge(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Stack-merge SLCA: one linear pass per document over all posting lists.

    Same contract as :func:`compute_slca`; exposed separately so that the
    property tests can pin the merge strategy against the scan oracle
    regardless of what the dispatch heuristic would pick.
    """
    return collect_per_document(
        keyword_postings, lambda label_lists: stack_merge_document(label_lists, exclusive=False)
    )


def _prefer_indexed(label_lists: List[List[DeweyLabel]]) -> bool:
    """Pick the indexed-lookup strategy when one keyword is rare enough.

    Indexed lookup costs roughly ``shortest * k * log(total)`` label
    comparisons, the stack merge roughly ``total`` (times a small depth
    factor); both are correct, so this is purely a cost model.
    """
    total = sum(len(labels) for labels in label_lists)
    shortest = min(len(labels) for labels in label_lists)
    log_total = max(total.bit_length(), 1)
    return shortest * len(label_lists) * log_total <= total


def _slca_single_document(label_lists: List[List[DeweyLabel]]) -> List[DeweyLabel]:
    """Indexed-lookup-eager SLCA over one document's label lists."""
    # Drive the computation from the shortest list.
    shortest_index = min(range(len(label_lists)), key=lambda i: len(label_lists[i]))
    shortest = label_lists[shortest_index]
    others = [labels for index, labels in enumerate(label_lists) if index != shortest_index]

    candidates: List[DeweyLabel] = []
    for label in shortest:
        candidate = label
        for other in others:
            candidate = _closest_lca(candidate, other)
            if candidate is None:
                break
        if candidate is not None:
            candidates.append(candidate)
    if not candidates:
        return []
    candidates.sort()
    return [posting.label for posting in _remove_ancestors(
        [Posting(doc_id="", label=label) for label in candidates]
    )]


def _closest_lca(label: DeweyLabel, other_labels: List[DeweyLabel]) -> Optional[DeweyLabel]:
    """Return the deepest LCA of ``label`` with any label in the sorted list."""
    if not other_labels:
        return None
    position = bisect_left(other_labels, label)
    best: Optional[DeweyLabel] = None
    best_depth = -1
    for neighbour_index in (position - 1, position):
        if 0 <= neighbour_index < len(other_labels):
            lca = label.lca(other_labels[neighbour_index])
            if lca.depth > best_depth:
                best = lca
                best_depth = lca.depth
    return best


def _remove_ancestors(postings: List[Posting]) -> List[Posting]:
    """Remove postings that are proper ancestors of another posting.

    Assumes the input is sorted; in document order an ancestor immediately
    precedes its descendants, so a single linear pass suffices.
    """
    result: List[Posting] = []
    for posting in sorted(set(postings)):
        while result and _is_ancestor_posting(result[-1], posting):
            result.pop()
        result.append(posting)
    # A second pass is unnecessary: ancestors always sort before descendants.
    return result


def _is_ancestor_posting(a: Posting, b: Posting) -> bool:
    return a.doc_id == b.doc_id and a.label.is_ancestor_of(b.label)

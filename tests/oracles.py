"""Brute-force reference implementations the property tests check against.

Each oracle follows its definition directly on trees or Dewey labels, with no
index, no structural encoding and no cleverness, so it shares no logic with
the optimised code it pins:

* :func:`compute_slca_scan` / :func:`compute_elca_scan` — SLCA / ELCA by
  enumerating every ancestor-or-self candidate (quadratic; small inputs only);
* :func:`tree_is_entity_node` / :func:`tree_infer_return_subtree` — XSeek
  return-node inference by walking live :class:`XMLNode` parents, the
  original tree implementation of :mod:`repro.search.xseek`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.search.linear_merge import collect_per_document
from repro.storage.inverted_index import Posting
from repro.storage.statistics import CorpusStatistics
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode


# --------------------------------------------------------------------------- #
# SLCA / ELCA scans
# --------------------------------------------------------------------------- #
def compute_slca_scan(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Brute-force SLCA.

    A node is an LCA match iff for every keyword list some posting lies in
    its subtree; the SLCAs are the LCA matches with no LCA-match descendant.
    Candidates are every ancestor-or-self of every posting of the first list.
    """
    lists = [list(postings) for postings in keyword_postings]
    if not lists or any(not postings for postings in lists):
        return []

    candidates: Set[Posting] = set()
    for posting in lists[0]:
        candidates.add(posting)
        for ancestor in posting.label.ancestors():
            candidates.add(Posting(doc_id=posting.doc_id, label=ancestor))

    def contains_keyword(candidate: Posting, postings: List[Posting]) -> bool:
        return any(
            posting.doc_id == candidate.doc_id
            and candidate.label.is_ancestor_or_self_of(posting.label)
            for posting in postings
        )

    lca_matches = [
        candidate
        for candidate in candidates
        if all(contains_keyword(candidate, postings) for postings in lists)
    ]
    return sorted(
        match
        for match in lca_matches
        if not any(
            other.doc_id == match.doc_id and match.label.is_ancestor_of(other.label)
            for other in lca_matches
        )
    )


def compute_elca_scan(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]:
    """Brute-force ELCA.

    Start from all LCA candidates (ancestors-or-self of keyword matches) and
    keep a candidate if, for every keyword, it has a witness occurrence that
    is not inside any *deeper* LCA candidate that itself contains all
    keywords.
    """
    return collect_per_document(keyword_postings, _elca_single_document)


def _elca_single_document(label_lists: List[List[DeweyLabel]]) -> List[DeweyLabel]:
    candidates: Set[DeweyLabel] = set()
    for labels in label_lists:
        for label in labels:
            candidates.add(label)
            candidates.update(label.ancestors())

    def contains_all(node: DeweyLabel) -> bool:
        return all(
            any(node.is_ancestor_or_self_of(label) for label in labels)
            for labels in label_lists
        )

    lca_matches = sorted(candidate for candidate in candidates if contains_all(candidate))

    elcas: List[DeweyLabel] = []
    for node in lca_matches:
        descendants = [other for other in lca_matches if node.is_ancestor_of(other)]
        witness_for_every_keyword = True
        for labels in label_lists:
            has_exclusive_witness = any(
                node.is_ancestor_or_self_of(label)
                and not any(descendant.is_ancestor_or_self_of(label) for descendant in descendants)
                for label in labels
            )
            if not has_exclusive_witness:
                witness_for_every_keyword = False
                break
        if witness_for_every_keyword:
            elcas.append(node)
    elcas.sort()
    return elcas


# --------------------------------------------------------------------------- #
# XSeek on trees
# --------------------------------------------------------------------------- #
def tree_is_entity_node(node: XMLNode, statistics: Optional[CorpusStatistics]) -> bool:
    """An element is an entity if its tag repeats under one parent somewhere
    in the corpus, or if it has at least two distinct child tags; leaf
    elements never are."""
    if not node.is_element or node.is_leaf_element:
        return False
    if statistics is not None and node.tag and statistics.tag_is_repeating(node.tag):
        return True
    child_tags = {child.tag for child in node.element_children()}
    return len(child_tags) >= 2


def tree_infer_return_subtree(
    match_node: XMLNode,
    statistics: Optional[CorpusStatistics] = None,
    max_climb: int = 10,
) -> XMLNode:
    """The lowest ancestor-or-self entity within ``max_climb`` levels, else
    the highest non-root ancestor-or-self visited (the match itself when it
    is the document root)."""
    current: Optional[XMLNode] = match_node
    climbed = 0
    highest_non_root = match_node
    while current is not None and climbed <= max_climb:
        if tree_is_entity_node(current, statistics):
            return current
        if current.parent is not None or current is match_node:
            highest_non_root = current
        current = current.parent
        climbed += 1
    return highest_non_root

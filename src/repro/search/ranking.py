"""TF-IDF ranking of search results.

XSACT itself is agnostic to ranking — the user picks which results to compare —
but the engine still orders results so that result ids (R1, R2, ...) are stable
and the "top n results" experiments are well defined.  The score is a standard
TF-IDF sum over the query keywords, computed against the result subtree, with a
mild size normalisation so that gigantic subtrees do not win on raw term count
alone.

The per-query work is resolved once, up front: :func:`query_idf_weights` turns
the normalised keywords into a keyword→idf table (one statistics lookup per
keyword per *query*, not per result), and the per-result pass counts keyword
occurrences inside the result subtree.  Two scorers exist:

* **Index-assisted** (:func:`rank_results`): term frequency is the number of
  the keyword's posting nodes — read from the inverted index's per-document
  offset map, one slice per (keyword, document) — that fall inside the
  returned subtree (descendant-or-self of the return label), and the size
  normaliser is the candidate's element count, which the engine reads from the
  structural index (``end[r] - r``).  Ranking therefore touches no document
  tree at all.
* **Tokenising** (:func:`tf_idf_score`): node texts of a subtree are
  tokenised by one batch :func:`~repro.storage.tokenizer.tokenize_many` pass
  per node and non-query tokens are discarded by a set probe.  This is the
  only option for detached subtrees that no index covers.

The scorers agree on which results score zero versus non-zero, but may
differ on multiplicity within a single node (the index posts a node once per
term, however often the term repeats in that node's texts), so scores are
comparable *within* one scorer, not across the two.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.search.query import KeywordQuery
from repro.storage.inverted_index import InvertedIndex
from repro.storage.statistics import CorpusStatistics
from repro.storage.tokenizer import tokenize_many
from repro.xmlmodel.dewey import DeweyLabel
from repro.xmlmodel.node import XMLNode

__all__ = ["Candidate", "query_idf_weights", "tf_idf_score", "rank_results"]


class Candidate:
    """One return node to rank, named by labels: no subtree, just its size.

    ``size`` is the element count of the return subtree (the size
    normaliser); :func:`rank_results` fills in ``score``.
    """

    __slots__ = ("doc_id", "match_label", "return_label", "size", "score")

    def __init__(
        self, doc_id: str, match_label: DeweyLabel, return_label: DeweyLabel, size: int
    ) -> None:
        self.doc_id = doc_id
        self.match_label = match_label
        self.return_label = return_label
        self.size = size
        self.score = 0.0


def query_idf_weights(
    query: KeywordQuery, statistics: CorpusStatistics
) -> Dict[str, float]:
    """Resolve a query's keywords to their idf weights, once per query.

    ``idf`` is computed from document frequencies in the corpus statistics;
    the returned mapping is the entire query-dependent part of the score, so
    ranking a result list performs exactly one statistics lookup per keyword.
    """
    document_count = max(statistics.document_count, 1)
    weights: Dict[str, float] = {}
    for keyword in query.normalized_keywords:
        document_frequency = statistics.document_frequency(keyword)
        weights[keyword] = (
            math.log((document_count + 1) / (document_frequency + 1)) + 1.0
        )
    return weights


def _query_term_frequencies(subtree: XMLNode, wanted: Dict[str, float]) -> Dict[str, int]:
    """Count query-keyword occurrences the same way the inverted index posts them.

    Tag names, direct text *and* attribute values all contribute — the index
    (:meth:`~repro.storage.inverted_index.InvertedIndex._node_term_ids`)
    matches on all three, so a result matched only via an attribute value must
    still score a non-zero term frequency here.  Only tokens present in
    ``wanted`` (the query keywords) are counted.
    """
    counts: Dict[str, int] = {}
    for node in subtree.iter_elements():
        texts = [node.tag or ""]
        direct = node.direct_text()
        if direct:
            texts.append(direct)
        if node.attributes:
            texts.extend(node.attributes.values())
        for token in tokenize_many(texts):
            if token in wanted:
                counts[token] = counts.get(token, 0) + 1
    return counts


def _score_subtree(subtree: XMLNode, weights: Dict[str, float]) -> float:
    """Score one subtree against precomputed keyword idf weights."""
    frequencies = _query_term_frequencies(subtree, weights)
    score = 0.0
    for keyword, idf in weights.items():
        term_frequency = frequencies.get(keyword, 0)
        if term_frequency == 0:
            continue
        score += (1.0 + math.log(term_frequency)) * idf
    normaliser = math.log(2 + subtree.count_elements())
    return score / normaliser if normaliser else score


def tf_idf_score(
    subtree: XMLNode,
    query: KeywordQuery,
    statistics: CorpusStatistics,
) -> float:
    """Score a result subtree against a query.

    ``tf`` is the keyword count inside the subtree (log-dampened), ``idf`` is
    computed from document frequencies in the corpus statistics, and the final
    sum is divided by ``log(2 + subtree element count)`` to normalise for size.
    Scores are computed over the normalised keyword view so that spelling
    variants of the same query (and directly-constructed un-tokenised queries)
    evaluate identically — the engine's cache relies on this.
    """
    return _score_subtree(subtree, query_idf_weights(query, statistics))


def _score_from_postings(
    candidate: Candidate, weights: Dict[str, float], index: InvertedIndex
) -> float:
    """Score a candidate from the index's posting spans, without re-tokenising.

    A keyword's term frequency is the number of its posting nodes inside the
    returned subtree, i.e. postings of ``(keyword, doc)`` whose label is a
    descendant-or-self of the result's return label.  The per-document offset
    map makes the posting span one dictionary lookup plus a slice, so scoring
    cost tracks the number of *matching* nodes, not subtree size.
    """
    return_label = candidate.return_label
    score = 0.0
    for keyword, idf in weights.items():
        term_frequency = 0
        for posting in index.postings_for_document(keyword, candidate.doc_id):
            if return_label.is_ancestor_or_self_of(posting.label):
                term_frequency += 1
        if term_frequency:
            score += (1.0 + math.log(term_frequency)) * idf
    normaliser = math.log(2 + candidate.size)
    return score / normaliser if normaliser else score


def rank_results(
    candidates: Sequence[Candidate],
    query: KeywordQuery,
    statistics: CorpusStatistics,
    index: InvertedIndex,
) -> List[Candidate]:
    """Assign scores and return the candidates sorted by descending score.

    Term frequencies come from the posting spans of ``index`` (the corpus's
    inverted index).  Ties are broken by (document id, match label) so the
    ordering is total and deterministic across runs.
    """
    weights = query_idf_weights(query, statistics)
    for candidate in candidates:
        candidate.score = _score_from_postings(candidate, weights, index)
    return sorted(
        candidates,
        key=lambda candidate: (-candidate.score, candidate.doc_id, candidate.match_label),
    )

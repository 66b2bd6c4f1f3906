"""XSeek-style return-node inference on the structural index.

An SLCA match node is rarely what a user wants to *see*: for the query
``{TomTom, GPS}`` the match may be the ``<name>`` leaf, while the meaningful
result is the whole ``<product>`` subtree around it.  XSeek [3, 4] infers the
return node from the data: it walks from the match node towards the root and
stops at the lowest ancestor-or-self node that denotes an *entity* — a node
whose tag occurs as a repeating sibling somewhere in the corpus (the ``*``
signal of a DTD), or failing that a node that groups multiple attribute
children.

The inference runs on a document's
:class:`~repro.structure.encoding.DocumentStructure` (pre/post/parent/tag
arrays), never on its tree, so evaluating a query decodes no document: the
climb follows ``parent[]``, an element is a leaf when ``end[p] == p + 1``, and
its children are visited by hopping ``c = end[c]`` over the subtree window.
The repeating-sibling signal comes from
:class:`~repro.storage.statistics.CorpusStatistics` through
:class:`RepeatingTags`, which memoises it per tag id for one evaluation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.storage.statistics import CorpusStatistics
from repro.structure.encoding import DocumentStructure, TagDictionary

__all__ = ["RepeatingTags", "infer_return_subtree", "is_entity_node"]


class RepeatingTags(Dict[int, bool]):
    """Tag id → whether the tag repeats under a single parent in the corpus.

    :meth:`CorpusStatistics.tag_is_repeating` scans every path summary of a
    tag on each call, so one evaluation builds one of these and asks each tag
    at most once.  ``statistics=None`` (standalone trees) means no tag
    repeats.
    """

    __slots__ = ("_statistics", "_tags")

    def __init__(self, statistics: Optional[CorpusStatistics], tags: TagDictionary) -> None:
        super().__init__()
        self._statistics = statistics
        self._tags = tags

    def __missing__(self, tag_id: int) -> bool:
        tag = self._tags.tag(tag_id)
        repeating = self[tag_id] = bool(
            tag and self._statistics is not None and self._statistics.tag_is_repeating(tag)
        )
        return repeating


def is_entity_node(structure: DocumentStructure, pre: int, repeating: RepeatingTags) -> bool:
    """Decide whether element ``pre`` denotes an entity in the XSeek sense.

    An element is treated as an entity when

    * its tag repeats under a single parent somewhere in the corpus (the
      DTD-star signal), or
    * it has at least two *distinct* child tags (it groups several
      attributes, as ``<product>`` groups name, rating, price, ...).

    Leaf elements (no element children) are never entities — they are
    attribute/value carriers.
    """
    end = structure.end
    stop = end[pre]
    child = pre + 1
    if stop == child:
        return False
    tag_ids = structure.tag_ids
    if repeating[tag_ids[pre]]:
        return True
    first = tag_ids[child]
    child = end[child]
    while child < stop:
        if tag_ids[child] != first:
            return True
        child = end[child]
    return False


def infer_return_subtree(
    structure: DocumentStructure,
    match_pre: int,
    repeating: RepeatingTags,
    max_climb: int = 10,
) -> int:
    """Return the pre number of the node whose subtree is the result.

    Walks from ``match_pre`` towards the root looking for the lowest
    ancestor-or-self entity node, climbing at most ``max_climb`` levels.  When
    no entity node is found the match node's highest non-root ancestor-or-self
    within the climb window is returned (the match node itself when it is the
    document root), so the caller always gets a displayable subtree.

    Parameters
    ----------
    structure:
        The structural index of the match's document.
    match_pre:
        Pre number of the SLCA/ELCA match node.
    repeating:
        The repeating-sibling test, memoised for the current evaluation.
    max_climb:
        Safety bound on how far towards the root the inference may walk.
    """
    parent = structure.parent
    current = match_pre
    climbed = 0
    highest_non_root = match_pre
    while current != -1 and climbed <= max_climb:
        if is_entity_node(structure, current, repeating):
            return current
        if parent[current] != -1:
            highest_non_root = current
        current = parent[current]
        climbed += 1
    # No entity found within the window: fall back to the highest non-root
    # node visited, so the result keeps as much context around the match as
    # the climb window allows without ever returning the whole document.
    # (When the match itself is the document root there is nothing below it
    # to prefer, so the match is returned as-is.)
    return highest_non_root

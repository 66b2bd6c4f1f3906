"""The validity constraint on DFSs (Desideratum 2 / Definition 1(2)).

"A DFS is valid if feature types are selected into the DFS in the order of
their significance" — i.e. within each entity of a result, a selected feature
type must have at least as many occurrences as every unselected feature type of
that entity.  Equivalently, the selection restricted to one entity is a
top-k-by-occurrences set, with ties broken freely.

The functions here implement that test plus the two incremental variants the
local-search algorithms need: which feature types may currently be *added*
without breaking validity, and which selected types may be *removed* without
breaking it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.dfs import DFS
from repro.errors import InvalidDFSError
from repro.features.feature import FeatureType
from repro.features.statistics import FeatureStatistics, ResultFeatures

__all__ = [
    "is_valid_selection",
    "validate_dfs",
    "addable_types",
    "removable_types",
    "max_unselected_occurrences",
    "min_selected_occurrences",
]


def is_valid_selection(source: ResultFeatures, selected: Set[FeatureType]) -> bool:
    """Return whether a set of feature types is a valid selection for a result.

    Validity holds iff for every entity, every selected type has at least as
    many occurrences as every unselected type of the same entity.
    """
    for entity in source.entities():
        rows = source.rows_for_entity(entity)
        selected_counts = [row.occurrences for row in rows if row.feature_type in selected]
        unselected_counts = [row.occurrences for row in rows if row.feature_type not in selected]
        if not selected_counts or not unselected_counts:
            continue
        if min(selected_counts) < max(unselected_counts):
            return False
    return True


def validate_dfs(dfs: DFS, size_limit: Optional[int] = None) -> None:
    """Raise :class:`InvalidDFSError` when a DFS violates validity or the size bound."""
    if size_limit is not None and len(dfs) > size_limit:
        raise InvalidDFSError(
            f"DFS of result {dfs.result_id!r} has {len(dfs)} features, exceeding the limit {size_limit}"
        )
    selected = set(dfs.feature_types())
    if not is_valid_selection(dfs.source, selected):
        raise InvalidDFSError(
            f"DFS of result {dfs.result_id!r} is not a significance-ordered selection"
        )


def min_selected_occurrences(dfs: DFS, entity: str) -> Optional[int]:
    """Smallest occurrence count among the selected rows of one entity."""
    counts = [row.occurrences for row in dfs.rows_for_entity(entity)]
    return min(counts) if counts else None


def max_unselected_occurrences(dfs: DFS, entity: str) -> Optional[int]:
    """Largest occurrence count among the *unselected* rows of one entity."""
    selected = set(dfs.feature_types())
    counts = [
        row.occurrences
        for row in dfs.source.rows_for_entity(entity)
        if row.feature_type not in selected
    ]
    return max(counts) if counts else None


def addable_types(dfs: DFS) -> List[FeatureStatistics]:
    """Rows whose addition keeps the DFS valid.

    A row may be added iff its occurrence count equals the maximum count among
    the unselected rows of its entity (it is a "next most significant" row).
    The size bound is the caller's concern.
    """
    selected = set(dfs.feature_types())
    candidates: List[FeatureStatistics] = []
    for entity in dfs.source.entities():
        unselected = [
            row for row in dfs.source.rows_for_entity(entity) if row.feature_type not in selected
        ]
        if not unselected:
            continue
        best = max(row.occurrences for row in unselected)
        candidates.extend(row for row in unselected if row.occurrences == best)
    return candidates


def removable_types(dfs: DFS) -> List[FeatureStatistics]:
    """Selected rows whose removal keeps the DFS valid.

    A row may be removed iff its occurrence count equals the minimum count
    among the selected rows of its entity (it is a "least significant selected"
    row), so that what remains is still a top-k prefix.  Entities are visited
    in the source's insertion order, like :func:`addable_types`: callers keep
    the first of equally good moves, so a set's per-process hash order here
    would make the chosen DFS depend on ``PYTHONHASHSEED``.
    """
    candidates: List[FeatureStatistics] = []
    for entity in dfs.source.entities():
        selected_rows = dfs.rows_for_entity(entity)
        if not selected_rows:
            continue
        worst = min(row.occurrences for row in selected_rows)
        candidates.extend(row for row in selected_rows if row.occurrences == worst)
    return candidates

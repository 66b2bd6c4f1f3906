"""Corpus-level registry of per-document structural indexes.

A :class:`StructuralTable` hangs off every
:class:`~repro.storage.corpus.Corpus`, and every query is evaluated on it
(XSeek return nodes and result sizes, see :mod:`repro.search.xseek`).

Snapshots with a persisted structural section restore through
:meth:`StructuralTable.restore`: the per-document encodings arrive
pre-computed (derived from the label tables plus the stored tag arrays), so
evaluating a query decodes no document.  Everywhere else — a fresh build, a
snapshot without the section, a corpus after ``refresh``, documents added
after a load — the table starts empty and its loader fetches a document's
root on first access; on a lazy store that decodes the document once.
:meth:`StructuralTable.stats` counts both origins (``restored`` and
``computed``), and ``GET /stats`` serves them as ``corpus.structure``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.structure.encoding import DocumentStructure, TagDictionary
from repro.xmlmodel.node import XMLNode

__all__ = ["StructuralTable"]

#: Fetches a document's root element by id — bound to the owning corpus's
#: store.  May raise :class:`~repro.errors.DocumentNotFoundError`.
RootLoader = Callable[[str], XMLNode]


class StructuralTable:
    """Per-document :class:`DocumentStructure` instances behind one lock.

    Thread-safe: the service evaluates queries concurrently, and two threads
    racing on the same uncached document both compute the (identical)
    structure — ``setdefault`` under the lock keeps one canonical instance.
    The shared :class:`TagDictionary` interns under its own lock, so ids stay
    consistent across concurrently-built documents.
    """

    def __init__(self, loader: RootLoader, tags: Optional[TagDictionary] = None):
        self._loader = loader
        self.tags = tags if tags is not None else TagDictionary()
        self._documents: Dict[str, DocumentStructure] = {}
        self._lock = threading.Lock()
        self._computed = 0
        self._restored = 0

    @classmethod
    def restore(
        cls,
        loader: RootLoader,
        tags: TagDictionary,
        documents: Dict[str, DocumentStructure],
    ) -> "StructuralTable":
        """Assemble a table from snapshot-decoded parts (no recomputation)."""
        table = cls(loader, tags=tags)
        table._documents = dict(documents)
        table._restored = len(documents)
        return table

    def clone(self, loader: RootLoader) -> "StructuralTable":
        """Copy for a new corpus generation, rebound to that generation's store.

        The per-document cache is copied (each :class:`DocumentStructure` is
        immutable once built, so instances are shared); the
        :class:`TagDictionary` is shared outright — it interns append-only
        under its own lock, so tag ids stay stable across generations.
        """
        with self._lock:
            documents = dict(self._documents)
            computed = self._computed
            restored = self._restored
        table = StructuralTable.restore(loader, self.tags, documents)
        table._computed = computed
        table._restored = restored
        return table

    def get(self, doc_id: str) -> DocumentStructure:
        """The structural index of one document, computed on first access.

        Raises
        ------
        DocumentNotFoundError
            If the owning store has no document ``doc_id``.
        """
        with self._lock:
            cached = self._documents.get(doc_id)
        if cached is not None:
            return cached
        # Compute outside the lock: the loader may decode a lazy record, and
        # tag interning is independently locked.
        structure = DocumentStructure.from_tree(self._loader(doc_id), self.tags)
        with self._lock:
            self._computed += 1
            return self._documents.setdefault(doc_id, structure)

    def peek(self, doc_id: str) -> Optional[DocumentStructure]:
        """The cached structure of ``doc_id``, or ``None`` — never computes."""
        with self._lock:
            return self._documents.get(doc_id)

    def discard(self, doc_id: str) -> None:
        """Drop one document's cached structure (after a document removal)."""
        with self._lock:
            self._documents.pop(doc_id, None)

    def clear(self) -> None:
        """Drop every cached structure (after a corpus refresh)."""
        with self._lock:
            self._documents.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for tests and operators: cache size and where it came from."""
        with self._lock:
            return {
                "documents": len(self._documents),
                "computed": self._computed,
                "restored": self._restored,
                "tags": len(self.tags),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    def __repr__(self) -> str:
        return f"StructuralTable(documents={len(self)}, tags={len(self.tags)})"

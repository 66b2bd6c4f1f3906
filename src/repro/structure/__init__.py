"""Structural index subsystem: the XPath-accelerator encoding.

Assigns every element node of every document ``(pre, post, level, tag_id)``
so that ancestor/descendant tests are two integer comparisons and axis scans
are binary searches over per-tag occurrence lists — see
:mod:`repro.structure.encoding` for the encoding and
:mod:`repro.structure.table` for the corpus-level table.  Every query's
return-node inference and result sizes run on it
(:mod:`repro.search.xseek`); the structured match semantics built on top
(``slca_struct``, axis constraints, tag-path filters) lives in
:mod:`repro.search.structural`;
snapshot persistence of the tag tables lives in
:mod:`repro.storage.snapshot`.  ``docs/structure.md`` has the full story.
"""

from repro.structure.encoding import DocumentStructure, TagDictionary
from repro.structure.table import StructuralTable

__all__ = ["DocumentStructure", "TagDictionary", "StructuralTable"]

"""Exception hierarchy for the XSACT reproduction library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries while still being able to
discriminate the failing subsystem (parsing, storage, search, feature
extraction, DFS construction) when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "XMLParseError",
    "DeweyError",
    "StructureError",
    "StorageError",
    "DocumentNotFoundError",
    "DuplicateDocumentError",
    "IndexError_",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "QueryError",
    "SearchError",
    "ResultNotFoundError",
    "ServiceError",
    "ProtocolError",
    "InvalidCursorError",
    "ReadOnlyServiceError",
    "EntityInferenceError",
    "FeatureExtractionError",
    "FeatureTypeParseError",
    "UnknownFeatureTypeError",
    "DFSConstructionError",
    "InvalidDFSError",
    "ComparisonError",
    "ComparisonLookupError",
    "DatasetError",
    "WorkloadError",
    "ExperimentError",
    "UnknownQueryError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Attributes
    ----------
    position:
        Character offset in the input at which parsing failed, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DeweyError(ReproError):
    """Raised for malformed Dewey labels or invalid Dewey operations."""


class StructureError(ReproError):
    """Raised by the structural index (:mod:`repro.structure`).

    Covers inconsistent label/tag tables handed to
    :class:`~repro.structure.encoding.DocumentStructure`, out-of-range tag
    ids, and structural lookups for nodes the index does not know.  Snapshot
    files whose *persisted* structural section is damaged raise
    :class:`SnapshotFormatError` instead — corruption is a storage concern,
    misuse of a live index is a structure concern.
    """


class StorageError(ReproError):
    """Base class for document-store and index errors."""


class DocumentNotFoundError(StorageError):
    """Raised when a document id is not present in a :class:`DocumentStore`."""

    def __init__(self, doc_id: str):
        super().__init__(f"document not found: {doc_id!r}")
        self.doc_id = doc_id


class DuplicateDocumentError(StorageError):
    """Raised when adding a document whose id is already present.

    Every writable backend (eager store, lazy store)
    raises this subclass so the service layer can map duplicates to a single
    HTTP 409 regardless of which corpus flavour backs the service.  Remains a
    :class:`StorageError` for callers that catch the broad class.
    """

    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class IndexError_(StorageError):
    """Raised when an inverted-index operation fails.

    The trailing underscore avoids shadowing the built-in :class:`IndexError`.
    """


class SnapshotError(StorageError):
    """Base class for binary corpus-snapshot errors."""


class SnapshotFormatError(SnapshotError):
    """Raised when a snapshot file cannot be decoded.

    Covers every way a file can fail structural validation: missing or
    malformed header, unsupported format version, truncation, checksum
    mismatch, and trailing or overrun payload bytes.  A load that raises this
    error has not constructed any corpus state.
    """


class SnapshotVersionError(SnapshotError):
    """Raised when a snapshot's corpus version does not match the caller's.

    Loading with ``expected_version`` set asserts that the snapshot captures a
    specific :attr:`~repro.storage.corpus.Corpus.version`; a mismatch means
    the corpus was mutated after the snapshot was taken (or the snapshot
    belongs to a different corpus lineage), so the stale file is rejected
    instead of silently resurrecting old data.
    """


class QueryError(ReproError):
    """Raised for malformed keyword queries (e.g. empty keyword lists)."""


class SearchError(ReproError):
    """Raised when search-engine evaluation fails."""


class ResultNotFoundError(SearchError, KeyError):
    """Raised when a result id is not present in a result or DFS set.

    Inherits :class:`KeyError` because the lookup is mapping-like and
    long-standing callers select results inside ``except KeyError`` blocks;
    ``__str__`` is pinned to the plain-message form so the error does not
    render with :class:`KeyError`'s quoted-repr formatting.
    """

    __str__ = Exception.__str__

    def __init__(self, result_id: str):
        super().__init__(f"no result with id {result_id!r}")
        self.result_id = result_id


class ServiceError(ReproError):
    """Base class for service-layer errors (requests, cursors, protocol)."""


class ProtocolError(ServiceError):
    """Raised when a request/response dictionary fails protocol validation.

    Covers missing required fields, wrong field types and malformed values in
    the JSON wire format of :mod:`repro.service.protocol`.  A decoder that
    raises this error has not constructed any request/response object.
    """


class InvalidCursorError(ServiceError):
    """Raised when a pagination cursor cannot be honoured.

    A cursor is opaque to callers but self-describing inside the service: it
    records the normalised query identity, the semantics, the page offset and
    the :attr:`~repro.storage.corpus.Corpus.version` it was issued against.
    This error covers both undecodable cursors (truncated, tampered, not ours)
    and *stale* cursors whose corpus version no longer matches — result
    positions are only stable within one corpus version, so paging across a
    mutation must restart rather than silently skip or repeat results.
    """


class ReadOnlyServiceError(ServiceError):
    """Raised when a mutation is attempted on a service booted read-only.

    The HTTP front-end maps this to 403: the request was well-formed, but
    this deployment does not accept writes (``serve`` without ``--writable``).
    """


class EntityInferenceError(ReproError):
    """Raised when node-category inference cannot classify a result tree."""


class FeatureExtractionError(ReproError):
    """Raised when feature extraction fails on a result tree."""


class FeatureTypeParseError(FeatureExtractionError, ValueError):
    """Raised when an ``entity.attribute`` feature-type string is malformed.

    Inherits :class:`ValueError` for callers that validate user input with
    the conventional ``except ValueError``.
    """


class UnknownFeatureTypeError(FeatureExtractionError, KeyError):
    """Raised when a feature type is absent from a statistics table.

    Inherits :class:`KeyError` because the lookup is mapping-like;
    ``__str__`` is pinned so messages render unquoted.
    """

    __str__ = Exception.__str__

    def __init__(self, feature_type: str):
        super().__init__(f"unknown feature type: {feature_type}")
        self.feature_type = feature_type


class DFSConstructionError(ReproError):
    """Raised when DFS construction receives inconsistent inputs."""


class InvalidDFSError(DFSConstructionError):
    """Raised when a DFS violates validity or the size bound."""


class ComparisonError(ReproError):
    """Raised when a comparison table cannot be assembled or rendered."""


class ComparisonLookupError(ComparisonError, KeyError):
    """Raised when a comparison-table row or column lookup misses.

    Inherits :class:`KeyError` because the lookup is mapping-like;
    ``__str__`` is pinned so messages render unquoted.
    """

    __str__ = Exception.__str__


class DatasetError(ReproError):
    """Raised by the synthetic dataset generators for invalid parameters."""


class WorkloadError(ReproError):
    """Raised when a workload definition is inconsistent."""


class ExperimentError(ReproError):
    """Raised when an experiment runner is misconfigured."""


class UnknownQueryError(ExperimentError, KeyError):
    """Raised when a workload has no query with the requested name.

    Inherits :class:`KeyError` because the lookup is mapping-like;
    ``__str__`` is pinned so messages render unquoted.
    """

    __str__ = Exception.__str__

    def __init__(self, query_name: str):
        super().__init__(f"no query named {query_name!r} in the workload")
        self.query_name = query_name


class AnalysisError(ReproError):
    """Raised when the static-analysis engine is misused or misconfigured.

    Covers unknown rule ids, unreadable targets, syntactically invalid
    sources and malformed baseline files — never a rule *finding*, which is
    data (:class:`repro.analysis.findings.Finding`), not an exception.
    """

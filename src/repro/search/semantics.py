"""The match-semantics registry.

The engine used to hard-code the two classic XML keyword-search semantics —
``"slca"`` and ``"elca"`` — as string literals inside
:meth:`~repro.search.engine.SearchEngine._compute_matches`.  This module
replaces the literals with a registry: a *match semantics* is any callable
that maps one posting list per query keyword to the list of match postings,

    fn(keyword_postings: Sequence[Sequence[Posting]]) -> List[Posting]

and new semantics plug in with :func:`register_semantics` without touching the
engine.  The service layer exposes the registered name per request, so a
deployment can add, say, a ``"vlca"`` or an intersection-only semantics and
query it over HTTP immediately.

Semantics that need more than the posting lists — the structural semantics
``slca_struct`` consults the corpus's structural table and the query's axis
constraints — register with ``accepts_context=True`` and receive a
:class:`MatchContext` as a second argument:

    fn(keyword_postings, context: MatchContext) -> List[Posting]

The engine resolves the registration (not just the function) per query and
passes the context only to semantics that declared the appetite, so plain
two-argument-free semantics keep their original signature.

Contract for registered functions: they must be **pure and thread-safe**
(the service evaluates queries concurrently), must not mutate the posting
lists they are given (the engine hands out zero-copy views of the index), and
should return postings sorted in global document order like the built-ins do.

The registry is process-global and guarded by a lock; the built-in semantics
are registered at import time and cannot be removed (the engine default and
the test oracles rely on them).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import SearchError
from repro.search.elca import compute_elca
from repro.search.query import KeywordQuery
from repro.search.slca import compute_slca
from repro.storage.corpus import Corpus
from repro.storage.inverted_index import Posting

__all__ = [
    "MatchSemantics",
    "MatchContext",
    "SemanticsRegistration",
    "register_semantics",
    "unregister_semantics",
    "get_semantics",
    "get_registration",
    "semantics_generation",
    "available_semantics",
    "BUILTIN_SEMANTICS",
]

MatchSemantics = Callable[..., List[Posting]]


@dataclass(frozen=True)
class MatchContext:
    """Evaluation context handed to ``accepts_context`` semantics.

    Attributes
    ----------
    corpus:
        The :class:`~repro.storage.corpus.Corpus` under evaluation.
        Context-aware semantics may rely on ``corpus.structure`` (the
        :class:`~repro.structure.table.StructuralTable`), ``corpus.index``
        and ``corpus.statistics``.
    query:
        The query being evaluated; a
        :class:`~repro.search.structural.StructuredQuery` carries axis
        constraints and tag-path filters on top of the keywords.
    """

    corpus: Corpus
    query: KeywordQuery


@dataclass(frozen=True)
class SemanticsRegistration:
    """One registry entry: the match function plus its calling convention."""

    name: str
    fn: MatchSemantics
    accepts_context: bool = False


BUILTIN_SEMANTICS: Tuple[str, ...] = ("slca", "elca")

_lock = threading.Lock()
_registry: Dict[str, SemanticsRegistration] = {
    "slca": SemanticsRegistration("slca", compute_slca),
    "elca": SemanticsRegistration("elca", compute_elca),
}
# Bumped on every (re-)registration of a name.  Engine caches fold the
# generation into their keys, so results computed under a replaced function
# can never be served for the new one (built-ins are generation 0 forever —
# they cannot be replaced).
_generations: Dict[str, int] = {}


def register_semantics(
    name: str,
    fn: MatchSemantics,
    *,
    replace: bool = False,
    accepts_context: bool = False,
) -> None:
    """Register a match semantics under ``name``.

    Parameters
    ----------
    name:
        The identifier callers pass as ``semantics=`` (engine constructor,
        ``SearchRequest.semantics``, the HTTP ``semantics`` query parameter).
        Lowercase identifiers keep the wire format predictable.
    fn:
        The match function; see the module docstring for its contract.
    replace:
        Allow overwriting an existing *custom* registration.  The built-in
        ``"slca"``/``"elca"`` entries can never be replaced — the engine
        default and every stored cache key assume their meaning is fixed.
    accepts_context:
        Declare that ``fn`` takes ``(keyword_postings, context)`` and should
        receive a :class:`MatchContext` per evaluation.  Only context-aware
        semantics can honour the structural constraints of a
        :class:`~repro.search.structural.StructuredQuery`.

    Raises
    ------
    SearchError
        If ``name`` is empty or already registered (without ``replace``), or
        if it would shadow a built-in semantics.
    """
    if not name or not isinstance(name, str):
        raise SearchError(f"semantics name must be a non-empty string, got {name!r}")
    if not callable(fn):
        raise SearchError(f"semantics {name!r} must be callable, got {fn!r}")
    with _lock:
        if name in BUILTIN_SEMANTICS:
            raise SearchError(f"cannot replace built-in semantics {name!r}")
        if name in _registry and not replace:
            raise SearchError(
                f"semantics {name!r} is already registered (pass replace=True to overwrite)"
            )
        _registry[name] = SemanticsRegistration(name, fn, accepts_context)
        _generations[name] = _generations.get(name, 0) + 1


def unregister_semantics(name: str) -> None:
    """Remove a custom semantics registration.

    Raises
    ------
    SearchError
        If ``name`` is a built-in semantics or is not registered.
    """
    with _lock:
        if name in BUILTIN_SEMANTICS:
            raise SearchError(f"cannot unregister built-in semantics {name!r}")
        if name not in _registry:
            raise SearchError(f"unknown result semantics: {name!r}")
        del _registry[name]
        # Unregistering changes the name's meaning just like replacing does:
        # bump the generation so engine caches stop answering for it (fresh
        # evaluations then fail resolution, as they should).
        _generations[name] = _generations.get(name, 0) + 1


def get_registration(name: str) -> SemanticsRegistration:
    """Resolve a semantics name to its full registry entry.

    The engine uses this to learn the calling convention
    (:attr:`SemanticsRegistration.accepts_context`) alongside the function.

    Raises
    ------
    SearchError
        If no semantics is registered under ``name``.  The message lists the
        registered names, so a typo in an HTTP request gets a self-explaining
        400 instead of a bare "unknown" error.
    """
    # Single dict probe without the lock: CPython dict reads are atomic, and
    # registration is rare (startup-time) while resolution is per-query.
    registration = _registry.get(name)
    if registration is None:
        raise SearchError(
            f"unknown result semantics: {name!r}; available: {available_semantics()}"
        )
    return registration


def get_semantics(name: str) -> MatchSemantics:
    """Resolve a semantics name to its match function (see :func:`get_registration`)."""
    return get_registration(name).fn


def semantics_generation(name: str) -> int:
    """Monotonic registration generation of a name (0 for the built-ins).

    Cache keys that depend on a semantics' *meaning* must include this value:
    ``register_semantics(name, fn, replace=True)`` changes what the name
    computes, and results cached under the old function must not survive the
    swap (the engine's query cache does exactly that).
    """
    return _generations.get(name, 0)


def available_semantics() -> List[str]:
    """Names of every registered semantics, sorted."""
    with _lock:
        return sorted(_registry)

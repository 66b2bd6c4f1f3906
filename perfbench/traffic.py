"""Seeded inputs for the three workloads.

Everything a run sends is fixed here, from one seed, before the server
starts: the corpus, the query trace, page-walk choices, compare tuples, the
write schedule and the documents it ingests.  The server only ever sees the
requests built from these values.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.datasets.imdb import ImdbConfig, generate_imdb_corpus
from repro.datasets.vocabulary import MovieVocabulary
from repro.storage.corpus import Corpus
from repro.workloads.queries import IMDB_QUERIES
from repro.xmlmodel.serializer import serialize

CORPUS_MOVIES = 1000

# Request mix of `browse`: every block of 20 walks holds 11 genre+keyword
# pairs, 8 three-keyword queries and 1 broad query, shuffled.  Fixed counts
# per block (rather than one Zipf over the whole pool) keep the number of
# expensive broad queries in a measured window the same for every seed.
BROWSE_BLOCK = (("narrow", 11), ("three", 8), ("broad", 1))
BROAD_CLASSES = ("genre", "keyword", "person")
# Pages followed per browse walk: mostly page 1, some cursor follow-ups.
BROWSE_PAGE_WEIGHTS = ((1, 0.75), (2, 0.15), (3, 0.10))
ZIPF_EXPONENT = 1.0

COMPARE_TOPS = (2, 5, 10)
COMPARE_ALGORITHMS = ("single_swap", "multi_swap")

# Writes on `read_write`: every third scheduled write deletes the oldest
# still-present document this schedule ingested.
WRITE_DELETE_EVERY = 3


@dataclass(frozen=True)
class Walk:
    """A `/search` for ``query`` followed by cursor follow-ups to ``pages``."""

    query: str
    pages: int


@dataclass(frozen=True)
class CompareStep:
    """A `/search` for ``query`` then `POST /compare` of its top results."""

    query: str
    top: int
    algorithm: str


@dataclass(frozen=True)
class Write:
    """One scheduled mutation; ``due`` is seconds after the schedule starts."""

    due: float
    action: str  # "ingest" or "delete"
    doc_id: str
    xml: str = ""
    token: str = ""  # unique search keyword carried by an ingested document


def build_corpus(seed: int, movies: int = CORPUS_MOVIES) -> Corpus:
    """The served corpus: ``movies`` IMDB documents generated from ``seed``."""
    return generate_imdb_corpus(ImdbConfig(num_movies=movies, seed=seed))


def query_pool(seed: int) -> dict:
    """Distinct queries by class, each list in a seeded Zipf rank order.

    * ``narrow``: every genre + plot keyword pair (150 queries);
    * ``three``: 100 seeded genre + two keyword triples;
    * ``genre``, ``keyword``, ``person``: the broad class — single genres,
      single plot keywords and 15 person names, which match hundreds of
      results each (40 queries, 14% of the 290-query pool).
    """
    vocabulary = MovieVocabulary()
    rng = random.Random(f"pool:{seed}")
    narrow = [f"{g} {k}" for g in vocabulary.genres for k in vocabulary.keywords]
    triples = set()
    while len(triples) < 100:
        first, second = sorted(rng.sample(vocabulary.keywords, 2))
        triples.add(f"{rng.choice(vocabulary.genres)} {first} {second}")
    names = [f"{f} {l}" for f in vocabulary.first_names for l in vocabulary.last_names]
    pool = {
        "narrow": narrow,
        "three": sorted(triples),
        "genre": list(vocabulary.genres),
        "keyword": list(vocabulary.keywords),
        "person": rng.sample(names, 15),
    }
    for queries in pool.values():
        rng.shuffle(queries)
    return pool


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, count + 1)]


def browse_trace(seed: int) -> Iterator[Walk]:
    """Endless seeded stream of browse walks.

    Narrow and three-keyword queries are Zipf-drawn within their class.
    Broad walks rotate genre, keyword, person, each class cycling through
    its seeded order, so every broad walk evaluates cold (the working set
    is larger than the query cache) and every window sees the same mix.
    """
    pool = query_pool(seed)
    rng = random.Random(f"browse:{seed}")
    zipf = {name: _zipf_weights(len(pool[name])) for name in ("narrow", "three")}
    broad = _round_robin([itertools.cycle(pool[name]) for name in BROAD_CLASSES])
    pages = [count for count, _ in BROWSE_PAGE_WEIGHTS]
    page_weights = [weight for _, weight in BROWSE_PAGE_WEIGHTS]
    while True:
        block = [name for name, count in BROWSE_BLOCK for _ in range(count)]
        rng.shuffle(block)
        for name in block:
            if name == "broad":
                query = next(broad)
            else:
                query = rng.choices(pool[name], zipf[name])[0]
            yield Walk(query, rng.choices(pages, page_weights)[0])


def _round_robin(iterators: List[Iterator[str]]) -> Iterator[str]:
    for iterator in itertools.cycle(iterators):
        yield next(iterator)


def read_walk_trace(seed: int) -> Iterator[Walk]:
    """Endless seeded stream of three-page walks over narrow queries."""
    narrow = query_pool(seed)["narrow"]
    rng = random.Random(f"reads:{seed}")
    weights = _zipf_weights(len(narrow))
    while True:
        yield Walk(rng.choices(narrow, weights)[0], 3)


def compare_trace(seed: int) -> Iterator[CompareStep]:
    """Endless seeded stream of QM1-QM8 checkbox steps.

    The first 8 steps (the warm-up prefix) search each query once at top=2.
    Then every run of 48 steps is a seeded order of all (query, top,
    algorithm) tuples, so every measured window sees the same mix.
    """
    rng = random.Random(f"compare:{seed}")
    queries = [spec.text for spec in IMDB_QUERIES]
    for query in rng.sample(queries, len(queries)):
        yield CompareStep(query, COMPARE_TOPS[0], COMPARE_ALGORITHMS[0])
    combos = list(itertools.product(queries, COMPARE_TOPS, COMPARE_ALGORITHMS))
    while True:
        rng.shuffle(combos)
        for query, top, algorithm in combos:
            yield CompareStep(query, top, algorithm)


def write_schedule(seed: int, rate: float, seconds: float) -> List[Write]:
    """Open-loop write schedule at ``rate`` writes/s for ``seconds``.

    Ingested movies come from a generator seeded apart from the corpus, under
    ids the corpus never uses, and each carries a unique title token so a
    search can prove it present or absent after the run.
    """
    count = max(1, int(rate * seconds))
    ingests = sum(1 for index in range(count) if (index + 1) % WRITE_DELETE_EVERY)
    fresh = generate_imdb_corpus(ImdbConfig(num_movies=max(1, ingests), seed=seed + 7_919_000))
    documents = iter(fresh.store)
    live: List[Write] = []
    schedule: List[Write] = []
    for index in range(count):
        due = index / rate
        if (index + 1) % WRITE_DELETE_EVERY == 0 and live:
            victim = live.pop(0)
            schedule.append(Write(due, "delete", victim.doc_id))
            continue
        number = len(schedule)
        token = f"ingest{seed}n{number}"
        xml = re.sub(
            r"<title>[^<]*</title>",
            f"<title>Fresh {token}</title>",
            serialize(next(documents).root),
            count=1,
        )
        write = Write(due, "ingest", f"bench_{seed}_{number:05d}", xml, token)
        schedule.append(write)
        live.append(write)
    return schedule


def sample(items: Sequence[str], count: int, seed: int, label: str) -> List[str]:
    """A seeded, order-stable sample of at most ``count`` distinct items."""
    distinct = sorted(set(items))
    return sorted(random.Random(f"{label}:{seed}").sample(distinct, min(count, len(distinct))))


def take(iterator: Iterator, count: int) -> Tuple[list, Iterator]:
    """Split ``count`` items off an iterator (the warm-up prefix)."""
    return list(itertools.islice(iterator, count)), iterator

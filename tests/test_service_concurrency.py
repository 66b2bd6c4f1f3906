"""Concurrency tests: one shared :class:`SearchService`, many threads.

The service owns one engine per semantics over a shared read-only corpus;
engines lock-guard their cache while evaluation runs outside the lock.  These
tests hammer a single service from N threads with a mixed workload (several
queries × both built-in semantics, cold and hot, paginated and not) and
assert:

* every concurrent response is byte-identical to the serial baseline — no
  torn cache entries, no cross-semantics mixups, no partially-ranked lists;
* the cache bound (``cache_size`` entries) holds at every observation
  point, even under eviction churn.
"""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.protocol import SearchRequest
from repro.service.service import SearchService

QUERIES = ["gps", "camera", "tomtom", "gps tomtom", "easy", "mp3 player"]
SEMANTICS = ["slca", "elca"]

THREADS = 8
ITERATIONS = 25

# Tight bounds so the hammer constantly evicts: 6 queries x 2 semantics
# across two 4-entry caches cannot all stay resident.
CACHE_SIZE = 4


def workload():
    return [
        (query, semantics) for query in QUERIES for semantics in SEMANTICS
    ]


@pytest.fixture(scope="module")
def serial_baseline(small_product_corpus):
    """Responses computed one at a time on a private service."""
    service = SearchService(small_product_corpus)
    return {
        (query, semantics): service.search(
            SearchRequest(query=query, semantics=semantics, page_size=100)
        )
        for query, semantics in workload()
    }


def test_hammered_service_matches_serial_evaluation(
    small_product_corpus, serial_baseline
):
    service = SearchService(small_product_corpus, cache_size=CACHE_SIZE)
    bound_violations = []

    def check_bounds():
        for name, stats in service.stats()["engines"].items():
            if stats["entries"] > CACHE_SIZE:
                bound_violations.append((name, stats))

    def hammer(seed: int) -> int:
        rng = random.Random(seed)
        mix = workload()
        checked = 0
        for _ in range(ITERATIONS):
            query, semantics = rng.choice(mix)
            response = service.search(
                SearchRequest(query=query, semantics=semantics, page_size=100)
            )
            assert response == serial_baseline[(query, semantics)]
            check_bounds()
            checked += 1
        return checked

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(hammer, seed) for seed in range(THREADS)]
        totals = [future.result() for future in futures]  # re-raises failures

    assert sum(totals) == THREADS * ITERATIONS
    assert not bound_violations
    # The counters must account for every request exactly once.
    stats = service.stats()["cache"]
    assert stats["hits"] + stats["misses"] == THREADS * ITERATIONS
    check_bounds()


def test_concurrent_pagination_is_stable(small_product_corpus, serial_baseline):
    """Cursor walks interleaved across threads see consistent pages."""
    service = SearchService(small_product_corpus, cache_size=CACHE_SIZE)

    def walk(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(10):
            query, semantics = rng.choice(workload())
            expected = serial_baseline[(query, semantics)].items
            collected = []
            response = service.search(
                SearchRequest(query=query, semantics=semantics, page_size=2)
            )
            while True:
                collected.extend(response.items)
                if response.next_cursor is None:
                    break
                response = service.search(SearchRequest(cursor=response.next_cursor))
            assert tuple(collected) == expected

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for future in [pool.submit(walk, seed) for seed in range(THREADS)]:
            future.result()


def test_concurrent_cold_start_on_same_query(small_product_corpus, serial_baseline):
    """Many threads racing the same cold query all get the right answer."""
    service = SearchService(small_product_corpus)

    def cold(_):
        return service.search(SearchRequest(query="gps", page_size=100))

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        responses = list(pool.map(cold, range(THREADS)))

    expected = serial_baseline[("gps", "slca")]
    assert all(response == expected for response in responses)
    stats = service.engine_for("slca").cache_stats()
    # Racing threads may duplicate the one evaluation, but bookkeeping must
    # balance: every request is either a hit or a miss, and the cache holds
    # the entry exactly once.
    assert stats["hits"] + stats["misses"] == THREADS
    assert stats["entries"] == 1

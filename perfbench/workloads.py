"""The three workloads: their servers, traffic loops and correctness checks.

* ``browse``: read-only search traffic, closed loop on one connection, over
  a server whose document LRU and query cache are both smaller than the
  working set.
* ``compare``: the checkbox flow, a `/search` for one of QM1-QM8 then
  `POST /compare`, closed loop on one connection, default cache sizes.
* ``read_write``: one connection sends an open-loop write schedule at a
  fixed rate while the other walks narrow queries three pages deep.

The read-only workloads use one connection, not two: the server runs every
request on one interpreter lock, so a second CPU-bound request only
interleaves with the first, and with two connections the spread across
seeds was wider on every end-to-end metric.

Each run boots the server, plays a warm-up prefix of the trace, measures
for the requested seconds and then checks the answers against an
in-process build of the same seeded corpus.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import traffic
from server import BenchError, Client, Server, clock

from repro.search.engine import SearchEngine
from repro.service.protocol import CompareRequest
from repro.service.service import SearchService
from repro.xmlmodel.parser import parse_xml

WORKLOADS = ("browse", "compare", "read_write")
PAGE_SIZE = 10  # the server's default page size

BROWSE_MAX_MATERIALISED = 200  # well below the 1000 documents
BROWSE_WARMUP_WALKS = 30  # the query cache and document LRU reach steady state
COMPARE_WARMUP_STEPS = 8  # one search of each of QM1-QM8
READ_WARMUP_WALKS = 30  # documents decoded and the heap grown before timing
WRITE_RATE = 1.0  # writes per second on read_write
# The first writes are a warm-up; after them the background re-snapshot
# (every SNAPSHOT_EVERY writes) falls mid-window, once per 15 s window.
WRITE_WARMUP_SECONDS = 3.0
SNAPSHOT_EVERY = 10

CHECK_QUERIES = 8  # sampled queries checked against the in-process engine
CHECK_BROAD = 1  # ... of which at most this many broad ones (about 1 s each)
CHECK_COMPARES = 6


@dataclass
class Sample:
    kind: str  # "search", "compare" or "write"
    start: float
    end: float
    latency: float


@dataclass
class Tally:
    """Everything the client observed in one run."""

    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gone: List[Sample] = field(default_factory=list)  # cursor walks answered 410
    walks: List[Tuple[float, bool]] = field(default_factory=list)  # (start, completed)
    lags: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def request(self, kind: str, status: int, start: float, end: float, ok: Tuple[int, ...] = (200,), due: Optional[float] = None) -> bool:
        with self.lock:
            self.attempted += 1
            if status in ok:
                self.samples.append(Sample(kind, start, end, end - (start if due is None else due)))
                return True
            self.failed += 1
            self._note(f"{kind} answered {status or 'no connection'}")
            return False

    def cursor_gone(self, start: float, end: float) -> None:
        with self.lock:
            self.attempted += 1
            self.gone.append(Sample("search", start, end, end - start))

    def walk(self, start: float, completed: bool) -> None:
        with self.lock:
            self.walks.append((start, completed))

    def check(self, passed: bool, message: str) -> None:
        with self.lock:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self._note(message)

    def crash(self, error: BaseException) -> None:
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self._note(f"client error: {type(error).__name__}: {error}")

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Run:
    """The outcome of one workload run against one server."""

    tally: Tally
    window: Tuple[float, float]
    setup: List[float]
    rss_mb: float
    spans_path: Optional[Path]
    phases: Dict[str, float]


def _signature(payload: dict) -> Tuple[int, Tuple[Tuple[str, str], ...]]:
    items = tuple((item["doc_id"], item["return_label"]) for item in payload["items"])
    return payload["total"], items


def _reference_signature(engine: SearchEngine, query: str):
    total, page = engine.search_page(query, 0, PAGE_SIZE)
    return total, tuple((result.doc_id, str(result.return_label)) for result in page)


def _loop(port: int, items: Iterator, step: Callable, tally: Tally, deadline: float) -> None:
    """Closed loop on one connection: each step is sent when the last ended."""
    client = Client(port)
    try:
        for item in items:
            if clock() >= deadline:
                return
            try:
                step(client, item)
            except Exception as error:  # a client-side bug must fail the run
                tally.crash(error)
    finally:
        client.close()


def _walk(client: Client, walk: traffic.Walk, tally: Tally, pages: Dict[str, Set]) -> None:
    """Page 1 of ``walk.query`` then cursor follow-ups; records page 1."""
    status, payload, start, end = client.search(walk.query)
    if not tally.request("search", status, start, end):
        tally.walk(start, False)
        return
    pages[walk.query].add((payload["corpus_version"],) + _signature(payload))
    cursor = payload["next_cursor"]
    for _ in range(walk.pages - 1):
        if cursor is None:
            break
        status, payload, page_start, page_end = client.search(cursor=cursor)
        if status == 410:
            tally.cursor_gone(page_start, page_end)
            tally.walk(start, False)
            return
        if not tally.request("search", status, page_start, page_end):
            tally.walk(start, False)
            return
        cursor = payload["next_cursor"]
    tally.walk(start, True)


class Bench:
    """One workload on one seed: inputs, server runs and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path, movies: int = traffic.CORPUS_MOVIES) -> None:
        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.corpus = traffic.build_corpus(seed, movies)
        self.boot_documents = len(self.corpus.store)
        self.snapshot = workdir / "corpus.snap"
        self.corpus.save(self.snapshot)
        self.schedule = (
            traffic.write_schedule(seed, WRITE_RATE, WRITE_WARMUP_SECONDS + seconds)
            if workload == "read_write"
            else []
        )

    # ------------------------------------------------------------------ #
    # Server runs
    # ------------------------------------------------------------------ #
    def _serve_args(self) -> List[str]:
        if self.workload == "browse":
            return ["--snapshot", str(self.snapshot), "--max-materialised", str(BROWSE_MAX_MATERIALISED)]
        if self.workload == "compare":
            return ["--snapshot", str(self.snapshot)]
        # A writable server re-snapshots over its --snapshot file: give it a copy.
        copy = self.workdir / "writable.snap"
        shutil.copyfile(self.snapshot, copy)
        return ["--snapshot", str(copy), "--writable", "--snapshot-every", str(SNAPSHOT_EVERY)]

    def _probe_query(self) -> str:
        return traffic.query_pool(self.seed)["narrow"][0]

    def run(self, boots: int, traced: bool = False) -> Run:
        """Boot ``boots`` times (setup samples), then drive the last server."""
        if boots < 1:
            raise BenchError("a run needs at least one boot")
        setup: List[float] = []
        spans_path = self.workdir / "spans.json" if traced else None
        began = clock()
        for boot in range(boots):
            server, ready = Server.boot(
                self._serve_args(),
                self.workdir / "serve.log",
                self._probe_query(),
                spans_path=spans_path if boot == boots - 1 else None,
            )
            setup.append(ready)
            if boot < boots - 1:
                server.kill()
        booted = clock()
        tally = Tally()
        try:
            drive = getattr(self, f"_drive_{self.workload}")
            window = drive(server, tally)
            measured = clock()
            rss = server.peak_rss_mb()
            self._post_run_requests(server, tally)
        finally:
            # Only the traced server has shutdown work to do: writing spans.
            if traced:
                server.stop()
            else:
                server.kill()
        self._check(tally)
        phases = {
            "boots": booted - began,
            "warm-up": window[0] - booted,
            "measured": measured - window[0],
            "checks": clock() - measured,
        }
        return Run(tally, window, setup, rss, spans_path, phases)

    def _drive_browse(self, server: Server, tally: Tally) -> Tuple[float, float]:
        self.pages: Dict[str, Set] = defaultdict(set)
        trace = traffic.browse_trace(self.seed)
        warmup, trace = traffic.take(trace, BROWSE_WARMUP_WALKS)
        step = lambda client, walk: _walk(client, walk, tally, self.pages)  # noqa: E731
        _loop(server.port, iter(warmup), step, tally, float("inf"))
        start = clock()
        _loop(server.port, trace, step, tally, start + self.seconds)
        return start, start + self.seconds

    def _drive_compare(self, server: Server, tally: Tally) -> Tuple[float, float]:
        self.pages = defaultdict(set)
        self.tables: Dict[Tuple[str, int, str], Set] = defaultdict(set)

        def step(client: Client, item: traffic.CompareStep) -> None:
            status, payload, start, end = client.search(item.query)
            if tally.request("search", status, start, end):
                self.pages[item.query].add((payload["corpus_version"],) + _signature(payload))
            status, payload, start, end = client.compare(item.query, item.top, item.algorithm)
            if tally.request("compare", status, start, end):
                self.tables[(item.query, item.top, item.algorithm)].add(
                    (payload["dod"], tuple(payload["column_ids"]))
                )

        trace = traffic.compare_trace(self.seed)
        warmup, trace = traffic.take(trace, COMPARE_WARMUP_STEPS)
        _loop(server.port, iter(warmup), step, tally, float("inf"))
        start = clock()
        _loop(server.port, trace, step, tally, start + self.seconds)
        return start, start + self.seconds

    def _drive_read_write(self, server: Server, tally: Tally) -> Tuple[float, float]:
        self.pages = defaultdict(set)
        self.acked: List[traffic.Write] = []
        reads = traffic.read_walk_trace(self.seed)
        warmup, reads = traffic.take(reads, READ_WARMUP_WALKS)
        step = lambda client, walk: _walk(client, walk, tally, self.pages)  # noqa: E731
        _loop(server.port, iter(warmup), step, tally, float("inf"))
        origin = clock()
        start = origin + WRITE_WARMUP_SECONDS
        deadline = start + self.seconds

        def writer() -> None:
            client = Client(server.port)
            try:
                for write in self.schedule:
                    due = origin + write.due
                    delay = due - clock()
                    if delay > 0:
                        time.sleep(delay)
                    tally.lags.append(max(0.0, clock() - due))
                    if write.action == "ingest":
                        status, _, sent, end = client.ingest(write.doc_id, write.xml)
                        ok = (201,)
                    else:
                        status, _, sent, end = client.delete(write.doc_id)
                        ok = (200,)
                    if tally.request("write", status, sent, end, ok=ok, due=due):
                        self.acked.append(write)
            except Exception as error:
                tally.crash(error)
            finally:
                client.close()

        thread = threading.Thread(target=writer)
        thread.start()
        _loop(server.port, reads, step, tally, deadline)
        thread.join()
        return start, deadline

    # ------------------------------------------------------------------ #
    # Correctness
    # ------------------------------------------------------------------ #
    def _post_run_requests(self, server: Server, tally: Tally) -> None:
        """After timing on ``read_write``: fetch the final state to check."""
        if self.workload != "read_write":
            return
        client = Client(server.port)
        try:
            status, health, _, _ = client.call("GET", "/healthz")
            ingested = [w for w in self.acked if w.action == "ingest"]
            deleted = {w.doc_id for w in self.acked if w.action == "delete"}
            expected = self.boot_documents + len(ingested) - len(deleted)
            tally.check(
                status == 200 and health["documents"] == expected,
                f"/healthz counts {health and health.get('documents')} documents, expected {expected}",
            )
            for write in ingested:
                status, payload, _, _ = client.search(write.token)
                want = [] if write.doc_id in deleted else [write.doc_id]
                got = [item["doc_id"] for item in payload["items"]] if status == 200 else None
                tally.check(got == want, f"search {write.token!r} found {got}, expected {want}")
            self.final_pages = {}
            for query in traffic.sample(list(self.pages), 4, self.seed, "final"):
                status, payload, _, _ = client.search(query)
                tally.check(status == 200, f"final search {query!r} answered {status}")
                if status == 200:
                    self.final_pages[query] = _signature(payload)
        finally:
            client.close()

    def _check(self, tally: Tally) -> None:
        """Compare sampled server answers with the in-process reference."""
        engine = SearchEngine(self.corpus, cache_size=0)
        boot_version = self.corpus.version
        pool = traffic.query_pool(self.seed)
        broad = set(pool["genre"] + pool["keyword"] + pool["person"])
        seen = [q for q, answers in self.pages.items() if any(a[0] == boot_version for a in answers)]
        chosen = traffic.sample([q for q in seen if q in broad], CHECK_BROAD, self.seed, "broad")
        chosen += traffic.sample([q for q in seen if q not in broad], CHECK_QUERIES - len(chosen), self.seed, "check")
        for query in chosen:
            answers = {a[1:] for a in self.pages[query] if a[0] == boot_version}
            want = _reference_signature(engine, query)
            tally.check(
                answers == {want},
                f"search {query!r}: server page 1 {sorted(answers)[:1]} != reference {want}",
            )
        if self.workload == "compare":
            service = SearchService(self.corpus)
            for key in traffic.sample(list(self.tables), CHECK_COMPARES, self.seed, "compare"):
                query, top, algorithm = key
                reference = service.compare(CompareRequest(query=query, top=top, algorithm=algorithm))
                want = (reference.dod, tuple(reference.column_ids))
                tally.check(
                    self.tables[key] == {want},
                    f"compare {key}: server {sorted(self.tables[key])} != reference {want}",
                )
        if self.workload == "read_write":
            # Replay the acknowledged writes in-process: the final server
            # state must rank exactly like this rebuilt corpus.
            corpus = self.corpus.begin_generation()
            for write in self.acked:
                if write.action == "ingest":
                    corpus.add_document(write.doc_id, parse_xml(write.xml))
                else:
                    corpus.remove_document(write.doc_id)
            engine = SearchEngine(corpus, cache_size=0)
            for query, got in self.final_pages.items():
                want = _reference_signature(engine, query)
                tally.check(got == want, f"final search {query!r}: {got} != reference {want}")

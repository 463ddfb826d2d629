"""``search-disk``: a single-threaded Boolean search stream on the disk index.

``TextClient`` -> ``BooleanTextServer`` -> ``DiskInvertedIndex``
(``io_mode="read"``) over a corpus three times the default size.  The
block cache's budget is a fixed share of the decoded size of the lists
one round touches, so the stream both fetches blocks and hits the cache.

A round is ``PER_SHAPE`` searches of each shape, in a seeded order:
single term, skewed AND (rare and frequent), dense AND of three frequent
terms, phrase, truncation AND term, AND NOT, and an OR batch of author
names up to the term limit M (the semi-join shape).
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import oracles
from harness import Round
from tracing import SpanRecorder, clock

from repro.gateway.client import TextClient
from repro.textsys.diskindex import DiskInvertedIndex, build_disk_index
from repro.textsys.query import AndQuery, NotQuery, OrQuery, PhraseQuery, TermQuery, TruncatedQuery
from repro.textsys.server import DEFAULT_TERM_LIMIT, BooleanTextServer
from repro.workload.corpus import SyntheticCorpus
from repro.workload.scenarios import DEFAULT_CONSTANTS
import repro.textsys.diskindex.reader

DOCUMENTS = 12_000
AUTHOR_POOL = 3_000
PER_SHAPE = 60
#: Block-cache budget as a share of the decoded bytes one round touches.
CACHE_SHARE = 0.4
SHORT_FIELDS = ("title", "author", "year", "institution")


def node(spec: Tuple[Any, ...]) -> Any:
    """The ``repro`` search node for an oracle spec."""
    kind = spec[0]
    if kind == "term":
        return TermQuery(spec[1], spec[2])
    if kind == "phrase":
        return PhraseQuery(spec[1], tuple(spec[2]))
    if kind == "prefix":
        return TruncatedQuery(spec[1], spec[2])
    if kind == "not":
        return NotQuery(node(spec[1]))
    parts = tuple(node(part) for part in spec[1])
    return AndQuery(parts) if kind == "and" else OrQuery(parts)


def stream(docs: List[oracles.DocView], seed: int) -> List[Tuple[str, Tuple[Any, ...]]]:
    """One round of ``(shape, spec)`` searches drawn from the corpus."""
    rng = random.Random(seed)
    frequency: Dict[str, Dict[str, int]] = {"title": {}, "abstract": {}, "author": {}}
    for doc in docs:
        for field, counts in frequency.items():
            for word in doc.sets.get(field, ()):
                counts[word] = counts.get(word, 0) + 1
    ranked = {
        field: sorted(counts, key=lambda word: (-counts[word], word))
        for field, counts in frequency.items()
    }
    title, authors = ranked["title"], ranked["author"]

    def term(field: str, low: int, high: int) -> Tuple[Any, ...]:
        return ("term", field, ranked[field][rng.randrange(low, min(high, len(ranked[field])))])

    rank = {field: {word: index for index, word in enumerate(words)} for field, words in ranked.items()}
    searches: List[Tuple[str, Tuple[Any, ...]]] = []
    for _ in range(PER_SHAPE):
        searches.append(("single", term(rng.choice(("title", "abstract")), 40, 400)))
        searches.append(("skewed-and", ("and", (term("title", 300, 1200), term("abstract", 0, 20)))))
        searches.append(
            ("dense-and", ("and", (term("abstract", 5, 40), term("abstract", 5, 40), term("title", 5, 40))))
        )
        while True:
            words = rng.choice(docs).fields["title"]
            start = rng.randrange(len(words) - 1)
            pair = (words[start], words[start + 1])
            if min(rank["title"][word] for word in pair) >= 10:
                break
        searches.append(("phrase", ("phrase", "title", pair)))
        stem = title[rng.randrange(30, 300)]
        searches.append(
            ("truncation-and", ("and", (("prefix", "title", stem), term("abstract", 10, 80))))
        )
        searches.append(("and-not", ("and", (term("abstract", 40, 300), ("not", term("title", 0, 40))))))
        names = rng.sample(authors, rng.randint(DEFAULT_TERM_LIMIT // 2, DEFAULT_TERM_LIMIT))
        searches.append(("or-batch", ("or", tuple(("term", "author", name) for name in names))))
    rng.shuffle(searches)
    return searches


class SearchDisk:
    name = "search-disk"

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.directory: Optional[str] = None
        self.index: Optional[DiskInvertedIndex] = None
        self.cache_budget: Optional[int] = None
        self.setup_problems: List[str] = []

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def build(self, seed: int) -> None:
        corpus = SyntheticCorpus(DOCUMENTS, seed=seed)
        corpus.pad_authors(per_document=2, pool_size=AUTHOR_POOL)
        self.store = corpus.build_store(short_fields=SHORT_FIELDS)
        os.makedirs(self.out_dir, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="search-disk-", dir=self.out_dir)
        path = build_disk_index(
            self.store,
            self.store.field_names,
            os.path.join(self.directory, "corpus.idx"),
            tmp_dir=os.path.join(self.directory, "spill"),
        )
        self.index = DiskInvertedIndex(path, io_mode="read", cache_budget=self.cache_budget)
        self.server = BooleanTextServer(self.store, index=self.index)
        self.client = TextClient(self.server, constants=DEFAULT_CONSTANTS)

    def prepare(self, seed: int) -> None:
        """The search stream, its brute-force answers, and the cache
        budget (measured with the unbounded cache of the first build)."""
        docs = oracles.views(self.store)
        self.searches = [(shape, spec, node(spec)) for shape, spec in stream(docs, seed)]
        memo: Dict[Tuple[Any, ...], Any] = {}
        self.answers = [oracles.search_answer(spec, docs, memo) for _, spec, _ in self.searches]
        for _, _, query in self.searches:
            self.server.search(query)
        touched = self.index.cache.stats.cached_bytes
        self.cache_budget = int(CACHE_SHARE * touched)
        self.index.cache.clear()
        self.index.cache.budget_bytes = self.cache_budget

    def warm(self) -> None:
        """One round warms the block cache."""
        for _, _, query in self.searches:
            self.client.search(query)

    def reference(self) -> None:
        """A second untraced round records every search's charged work."""
        self.expected: List[Tuple[int, int]] = []
        for _, _, query in self.searches:
            result = self.client.search(query)
            self.expected.append((result.postings_processed, len(result)))

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def instrument(self, recorder: SpanRecorder) -> None:
        for method in ("search", "search_batch", "retrieve", "retrieve_many"):
            recorder.patch(TextClient, method, "gateway.client")
        recorder.patch(BooleanTextServer, "search", "textsys.search")
        for function in ("decode_block_docs", "decode_block_positions"):
            recorder.patch(repro.textsys.diskindex.reader, function, "diskindex.decode")

    # ------------------------------------------------------------------
    # the measured phase
    # ------------------------------------------------------------------
    def _io(self) -> Tuple[int, int, int, int]:
        io, cache = self.index.io, self.index.cache.stats
        return io.block_fetches, io.bytes_read, cache.hits, cache.misses

    def begin_measurement(self) -> None:
        self._start_io = self._io()
        self._start_ledger = self.client.ledger.snapshot()
        self._op_ids = 0

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        client, server = self.client, self.server
        result = Round()
        results = []
        ledger_before = client.ledger.snapshot()
        server_before = server.counters.snapshot()
        for _, _, query in self.searches:
            result.attempted += 1
            context = None
            if recorder is not None:
                self._op_ids += 1
                context = recorder.begin_op(self._op_ids)
            started = clock()
            try:
                answer = client.search(query)
            except Exception as error:  # noqa: BLE001 — a failed search is counted
                answer = error
            finished = clock()
            if context is not None:
                recorder.end_op(context, "bench.self", started)
            results.append((answer, finished - started))

        check_started = clock()
        for (shape, spec, _), (answer, latency), expected, docids in zip(
            self.searches, results, self.expected, self.answers
        ):
            if isinstance(answer, Exception):
                result.failed += 1
                print(f"FAILED {shape}: {type(answer).__name__}: {answer}")
            elif answer.docids != docids:
                result.failed += 1
                result.mismatches.append(
                    f"{shape} {node(spec).to_expression()[:80]}: {len(answer)} docids, "
                    f"the brute-force evaluator finds {len(docids)}"
                )
            elif (answer.postings_processed, len(answer)) != expected:
                result.failed += 1
                result.mismatches.append(
                    f"{shape}: charged work {(answer.postings_processed, len(answer))} "
                    f"differs from the untraced warm round's {expected}"
                )
            else:
                result.latencies.append(latency)
        ledger = client.ledger.diff(ledger_before)
        work = server.counters.snapshot() - server_before
        result.charged = ledger.total
        counted = (ledger.searches, ledger.postings_processed, ledger.short_documents)
        served = (work.searches, work.postings_processed, work.short_documents)
        backend = (
            DEFAULT_CONSTANTS.invocation * work.searches
            + DEFAULT_CONSTANTS.per_posting * work.postings_processed
            + DEFAULT_CONSTANTS.short_form * work.short_documents
        )
        if counted != served or not math.isclose(ledger.total, backend, rel_tol=1e-9):
            result.mismatches.append(
                f"ledger counts {counted} (total {ledger.total!r}s) disagree with the "
                f"server's {served} (priced {backend!r}s)"
            )
        result.check_seconds = clock() - check_started
        return result

    def layer_counts(self, ops: int) -> Dict[str, float]:
        fetches, read, hits, misses = (
            now - then for now, then in zip(self._io(), self._start_io)
        )
        ledger = self.client.ledger.diff(self._start_ledger)
        return {
            "diskindex.block_fetches": fetches / ops,
            "diskindex.bytes_read": read / ops,
            "diskindex.block_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "textsys.postings_per_search": ledger.postings_processed / max(ledger.searches, 1),
        }

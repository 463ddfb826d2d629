"""``wire-hot``: a hot gateway cache over the sharded wire.

``TextClient`` with a ``GatewayCache`` over a ``ShardedTextTransport``
on the ``lan`` link profile with ``time_scale=0`` (no sleeps).  One
client thread; each operation is one search plus ``retrieve_many`` of a
few of its matches.

The router serves one shard, so every frame is handled on the client
thread.  With two shards each scatter hands work to the router's pool
threads; on a 2-core host that hand-off made throughput ten times lower
and its run-to-run spread too wide to bound (see the README), so the
two-shard figure is reported there instead of measured here.

Searches are Zipf-skewed draws from a pool of two-operand conjunctions
larger than the search cache, each sent with its operands in a random
order.  A round is a fixed sequence of ``OPS_PER_ROUND`` operations;
because it touches more distinct keys than either cache holds, the LRU
state at the end of a round depends on that round alone, so from the
second round on every round hits and misses identically.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, Dict, List, Optional, Tuple

import oracles
from harness import Round
from tracing import SpanRecorder, clock

from repro.gateway.cache import GatewayCache
from repro.gateway.client import TextClient
from repro.remote import RemoteTextTransport, ShardedTextTransport, build_sharded_transport
from repro.remote.channel import FaultInjectingChannel
from repro.remote.endpoint import TextServerEndpoint
from repro.textsys.query import AndQuery, TermQuery
from repro.textsys.server import BooleanTextServer
from repro.workload.corpus import SyntheticCorpus
from repro.workload.scenarios import DEFAULT_CONSTANTS
import repro.remote.endpoint
import repro.remote.transport

DOCUMENTS = 4_000
SHARDS = 1
POOL = 2_000
OPS_PER_ROUND = 3_000
ZIPF_EXPONENT = 1.0
SEARCH_CAPACITY = 256
RETRIEVE_CAPACITY = 256
RETRIEVE_PER_OP = 3
#: Operands come from the most frequent words of these fields; a
#: conjunction joins the pool only if it matches 1..MAX_MATCHES documents.
OPERAND_FIELDS = ("title", "abstract")
OPERAND_WORDS = 300
MAX_MATCHES = 60
SHORT_FIELDS = ("title", "author", "year", "institution")
CODEC_FUNCTIONS = (
    "node_to_wire",
    "node_from_wire",
    "document_to_wire",
    "document_from_wire",
    "result_to_wire",
    "result_from_wire",
    "encode_request",
    "decode_request",
    "encode_response",
    "encode_error",
    "decode_response",
)


class WireHot:
    name = "wire-hot"

    def __init__(self) -> None:
        self.transport: Optional[ShardedTextTransport] = None
        self.setup_problems: List[str] = []
        self.frame_bytes = 0

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def build(self, seed: int) -> None:
        corpus = SyntheticCorpus(DOCUMENTS, seed=seed)
        corpus.pad_authors(per_document=2)
        self.store = corpus.build_store(short_fields=SHORT_FIELDS)
        self.transport = build_sharded_transport(
            BooleanTextServer(self.store), SHARDS, profile="lan", time_scale=0.0, seed=seed
        )
        self.cache = GatewayCache(
            search_capacity=SEARCH_CAPACITY, retrieve_capacity=RETRIEVE_CAPACITY
        )
        self.client = TextClient(self.transport, constants=DEFAULT_CONSTANTS, cache=self.cache)

    def prepare(self, seed: int) -> None:
        """The conjunction pool with brute-force answers, and the round."""
        rng = random.Random(seed)
        docs = oracles.views(self.store)
        self.stored = oracles.stored_fields(self.store)
        memo: Dict[Any, Any] = {}
        frequent = {}
        for field in OPERAND_FIELDS:
            counts: Dict[str, int] = {}
            for doc in docs:
                for word in doc.sets.get(field, ()):
                    counts[word] = counts.get(word, 0) + 1
            frequent[field] = sorted(counts, key=lambda word: (-counts[word], word))[:OPERAND_WORDS]
        pool: List[Tuple[Tuple[Any, ...], Tuple[str, ...]]] = []
        seen = set()
        while len(pool) < POOL:
            operands = tuple(
                ("term", field, rng.choice(frequent[field]))
                for field in (rng.choice(OPERAND_FIELDS), rng.choice(OPERAND_FIELDS))
            )
            key = frozenset(operands)
            if len(key) < 2 or key in seen:
                continue
            seen.add(key)
            answer = oracles.search_answer(("and", operands), docs, memo)
            if 1 <= len(answer) <= MAX_MATCHES:
                pool.append((operands, answer))
        cumulative, total = [], 0.0
        for rank in range(POOL):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            cumulative.append(total)
        self.ops: List[Tuple[Any, Tuple[str, ...], List[str]]] = []
        for _ in range(OPS_PER_ROUND):
            operands, answer = pool[bisect.bisect_left(cumulative, rng.random() * total)]
            if rng.random() < 0.5:
                operands = operands[::-1]
            query = AndQuery(tuple(TermQuery(field, word) for _, field, word in operands))
            wanted = rng.sample(answer, min(RETRIEVE_PER_OP, len(answer)))
            self.ops.append((query, answer, wanted))

    def warm(self) -> None:
        """One round fills both caches."""
        self._play(None)

    def reference(self) -> None:
        """A second untraced round records each operation's charged work
        in the steady state."""
        self.expected = self._play(None)[1]

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def instrument(self, recorder: SpanRecorder) -> None:
        for method in ("search", "search_batch", "retrieve", "retrieve_many"):
            recorder.patch(TextClient, method, "gateway.client")
        for method in ("search", "search_batch", "retrieve", "retrieve_many", "data_fingerprint"):
            recorder.patch(ShardedTextTransport, method, "remote.scatter")
        for method in ("search", "search_batch", "retrieve", "retrieve_many", "data_fingerprint"):
            recorder.patch(RemoteTextTransport, method, "remote.transport")
        recorder.patch(TextServerEndpoint, "handle", "remote.transport")

        def counted(send):
            def send_counting(channel, frame):
                response = send(channel, frame)
                self.frame_bytes += len(frame) + len(response)
                return response

            return send_counting

        recorder.patch(FaultInjectingChannel, "send", "remote.transport", wrapper=counted)
        for module in (repro.remote.transport, repro.remote.endpoint):
            for function in CODEC_FUNCTIONS:
                if hasattr(module, function):
                    recorder.patch(module, function, "remote.codec")
        recorder.patch(BooleanTextServer, "search", "textsys.search")
        recorder.patch(BooleanTextServer, "retrieve", "textsys.retrieve")

    # ------------------------------------------------------------------
    # the measured phase
    # ------------------------------------------------------------------
    def _counts(self) -> Tuple[int, int, int, int]:
        ledger = self.client.ledger
        return (
            ledger.searches,
            ledger.postings_processed,
            ledger.short_documents,
            ledger.long_documents,
        )

    def _lookups(self) -> Tuple[int, int]:
        hits = self.cache.search.stats.hits + self.cache.retrieve.stats.hits
        misses = self.cache.search.stats.misses + self.cache.retrieve.stats.misses
        return hits, misses

    def begin_measurement(self) -> None:
        self._start_counts = self._counts()
        self._start_lookups = self._lookups()
        self.frame_bytes = 0
        self._op_ids = 0

    def _play(self, recorder: Optional[SpanRecorder]):
        """One round: latencies, each operation's charged work, answers."""
        client = self.client
        latencies: List[float] = []
        charged: List[Tuple[int, ...]] = []
        outcomes = []
        before = self._counts()
        for query, _, wanted in self.ops:
            context = None
            if recorder is not None:
                self._op_ids += 1
                context = recorder.begin_op(self._op_ids)
            started = clock()
            try:
                outcome = (client.search(query), client.retrieve_many(wanted))
            except Exception as error:  # noqa: BLE001 — a failed operation is counted
                outcome = error
            finished = clock()
            if context is not None:
                recorder.end_op(context, "bench.self", started)
            latencies.append(finished - started)
            outcomes.append(outcome)
            after = self._counts()
            charged.append(tuple(now - then for now, then in zip(after, before)))
            before = after
        return latencies, charged, outcomes

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        result = Round(attempted=len(self.ops))
        ledger_before = self.client.ledger.snapshot()
        served_before = self.transport.counters.snapshot()
        latencies, charged, outcomes = self._play(recorder)
        check_started = clock()
        ledger = self.client.ledger.diff(ledger_before)
        served = self.transport.counters.snapshot() - served_before
        for (query, answer, wanted), latency, work, expected, outcome in zip(
            self.ops, latencies, charged, self.expected, outcomes
        ):
            label = query.to_expression()
            if isinstance(outcome, Exception):
                result.failed += 1
                print(f"FAILED {label}: {type(outcome).__name__}: {outcome}")
                continue
            found, documents = outcome
            problem = None
            if found.docids != answer:
                problem = f"{label}: {len(found)} docids, the brute-force evaluator finds {len(answer)}"
            elif [document.docid for document in documents] != wanted or not all(
                oracles.same_document(document, self.stored) for document in documents
            ):
                problem = f"{label}: retrieved long forms differ from the stored documents"
            elif work != expected:
                problem = f"{label}: charged work {work} differs from the untraced warm round's {expected}"
            if problem:
                result.failed += 1
                result.mismatches.append(problem)
            else:
                result.latencies.append(latency)
        result.charged = ledger.total
        # Every search reaches every shard; each retrieval reaches one.
        counted = (
            ledger.searches * SHARDS,
            ledger.postings_processed,
            ledger.short_documents,
            ledger.long_documents,
        )
        constants = DEFAULT_CONSTANTS
        backend = (
            constants.invocation * served.searches / SHARDS
            + constants.per_posting * served.postings_processed
            + constants.short_form * served.short_documents
            + constants.long_form * served.long_documents
        )
        if counted != (
            served.searches,
            served.postings_processed,
            served.short_documents,
            served.long_documents,
        ) or not math.isclose(ledger.total, backend, rel_tol=1e-9):
            result.mismatches.append(
                f"ledger {ledger.report()} disagrees with the shards' counters "
                f"{served.as_dict()} (priced {backend!r}s)"
            )
        result.check_seconds = clock() - check_started
        return result

    def layer_counts(self, ops: int) -> Dict[str, float]:
        searches, postings, _, _ = (
            now - then for now, then in zip(self._counts(), self._start_counts)
        )
        hits, misses = (now - then for now, then in zip(self._lookups(), self._start_lookups))
        return {
            "gateway.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "gateway.cache_lookups": (hits + misses) / ops,
            "remote.frame_bytes": self.frame_bytes / ops,
            "textsys.postings_per_search": postings / searches if searches else 0.0,
        }

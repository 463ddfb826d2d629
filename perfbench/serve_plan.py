"""``serve-plan``: cost-planned join queries through the serving front-end.

Two tenants sharing one worker, the default scenario on the in-process
memory backend.  Every ticket is planned per query (feedback-blended statistics
from a registry warmed in set-up), executed, and charged to its tenant.
The default tracer stays on, the gateway cache is off and
``share_window=0`` (single-flight only).  One generator thread keeps one
query in flight per tenant (closed loop) and a monitor reads
``metrics_snapshot()`` every ``SNAPSHOT_EVERY`` completions.

A round is every query variant of the catalogue once, in a seeded order,
dealt alternately to the two tenants.  Q5 is left out: the service admits
it and the worker then fails (see the README).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import oracles
from harness import Round
from tracing import SpanRecorder, clock

from repro.core.feedback import FeedbackStore
from repro.core.inputs import build_cost_inputs
from repro.core.joinmethods import JoinContext, JoinMethod
from repro.core.optimizer import single_join
from repro.core.query import ResultShape, TextJoinPredicate, TextJoinQuery, TextSelection
from repro.errors import ReproError
from repro.gateway.client import TextClient
from repro.gateway.statistics import TextStatisticsRegistry
from repro.relational.expressions import And, ColumnRef, Comparison, Literal
from repro.serving import QueryService, TenantSpec
from repro.serving.sharing import SharedSearchExecutor
from repro.textsys.server import BooleanTextServer
from repro.workload import build_default_scenario
import repro.core.inputs

TENANTS = ("t0", "t1")
#: One worker: with two, the workers hand the interpreter lock back and
#: forth, and on a 2-core host whose cores are shared that made every
#: wall-clock figure swing by a third between sets of runs.
WORKERS = 1
SNAPSHOT_EVERY = 400
#: Q1/Q2 title terms: the two planted selections plus the words at these
#: document-frequency ranks of the scenario's titles.
TITLE_RANKS = (2, 4, 7, 11, 17, 26)
YEAR_THRESHOLDS = (3, 4, 5)
#: The world is the calibrated default scenario; the seed draws the
#: literals, the order and the tenant split.
SCENARIO_SEED = 7
#: Q3 and Q4 have few literal choices; each of their variants is
#: repeated so the four shapes weigh comparably in a round.
SMALL_SHAPE_REPEATS = 4


@dataclass
class Variant:
    """One query of the catalogue, as sent and as the oracle reads it."""

    key: str
    query: TextJoinQuery
    relation: str
    condition: Tuple[Any, ...]
    predicates: Tuple[Tuple[str, str], ...]
    selections: Tuple[Tuple[Any, ...], ...]
    shape: str


@dataclass
class Expected:
    """A variant's plan and charge in the untraced serial run."""

    method: str
    charge: float
    #: Server work of planning: the uncharged selection search.
    plan: Any


def _expression(condition: Tuple[Any, ...]) -> Any:
    if condition[0] == "and":
        return And(tuple(_expression(part) for part in condition[1]))
    return Comparison(condition[0], ColumnRef(condition[1]), Literal(condition[2]))


def _selection_spec(term: str, field: str) -> Tuple[Any, ...]:
    run = tuple(oracles.words(term))
    return ("term", field, run[0]) if len(run) == 1 else ("phrase", field, run)


def _variant(
    key: str,
    relation: str,
    condition: Tuple[Any, ...],
    predicates: Tuple[Tuple[str, str], ...],
    selections: Tuple[Tuple[str, str], ...],
    shape: ResultShape,
    long_form: bool = False,
) -> Variant:
    query = TextJoinQuery(
        relation=relation,
        join_predicates=tuple(TextJoinPredicate(column, field) for column, field in predicates),
        text_selections=tuple(TextSelection(term, field) for term, field in selections),
        relation_predicate=_expression(condition),
        shape=shape,
        long_form=long_form,
    )
    return Variant(
        key=key,
        query=query,
        relation=relation,
        condition=condition,
        predicates=predicates,
        selections=tuple(_selection_spec(term, field) for term, field in selections),
        shape=shape.value,
    )


def catalogue(scenario: Any, rng: random.Random) -> List[Variant]:
    """The round's Q1-Q4 variants: the paper's shapes with varied literals.

    Every (area, term), (advisor, term), sponsor and area appears; the
    seed draws which year threshold each Q1 (area, term) leaves out.
    """
    students = list(scenario.catalog.table("student").scan())
    areas = sorted({row["student.area"] for row in students})
    advisors = sorted({row["student.advisor"] for row in students})
    sponsors = sorted({row["project.sponsor"] for row in scenario.catalog.table("project").scan()})
    frequency: Dict[str, int] = {}
    for document in scenario.server.store:
        for word in set(oracles.words(document.field("title"))):
            frequency[word] = frequency.get(word, 0) + 1
    ranked = sorted(frequency, key=lambda word: (-frequency[word], word))
    terms = ["belief update", "text"] + [ranked[rank] for rank in TITLE_RANKS]

    variants: List[Variant] = []
    name_in_author = (("student.name", "author"),)
    for area in areas:
        if area == "distributed systems":
            continue
        # Each term keeps all thresholds but one; the seed decides which
        # term drops which, while every threshold is dropped equally often.
        shuffled = rng.sample(terms, len(terms))
        for index, term in enumerate(shuffled):
            dropped = YEAR_THRESHOLDS[index % len(YEAR_THRESHOLDS)]
            for year in YEAR_THRESHOLDS:
                if year == dropped:
                    continue
                variants.append(
                    _variant(
                        f"q1|{area}|{year}|{term}",
                        "student",
                        ("and", (("=", "student.area", area), (">", "student.year", year))),
                        name_in_author,
                        ((term, "title"),),
                        ResultShape.PAIRS,
                        long_form=True,
                    )
                )
    for advisor in advisors:
        for term in terms:
            variants.append(
                _variant(
                    f"q2|{advisor}|{term}",
                    "student",
                    ("=", "student.advisor", advisor),
                    name_in_author,
                    ((term, "title"),),
                    ResultShape.DOCIDS,
                )
            )
    for _ in range(SMALL_SHAPE_REPEATS):
        for sponsor in sponsors:
            variants.append(
                _variant(
                    f"q3|{sponsor}",
                    "project",
                    ("=", "project.sponsor", sponsor),
                    (("project.name", "title"), ("project.member", "author")),
                    (),
                    ResultShape.PAIRS,
                )
            )
        for area in areas:
            variants.append(
                _variant(
                    f"q4|{area}",
                    "student",
                    ("=", "student.area", area),
                    (("student.advisor", "author"), ("student.name", "author")),
                    (),
                    ResultShape.PAIRS,
                )
            )
    return variants


def _formula(constants: Any, counters: Any) -> float:
    """The Section 4.1 price of a backend's counted work."""
    return (
        constants.invocation * counters.searches
        + constants.per_posting * counters.postings_processed
        + constants.short_form * counters.short_documents
        + constants.long_form * counters.long_documents
    )


def _join_methods() -> List[type]:
    found, pending = [], [JoinMethod]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if "execute" in sub.__dict__:
                found.append(sub)
    return found


class ServePlan:
    name = "serve-plan"

    def __init__(self) -> None:
        self.service: Optional[QueryService] = None
        self.setup_problems: List[str] = []
        self._roots: Dict[str, Any] = {}
        self._snapshot_seconds: List[float] = []

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        self.scenario = build_default_scenario(seed=SCENARIO_SEED)
        self.variants = catalogue(self.scenario, rng)
        order = list(range(len(self.variants)))
        rng.shuffle(order)
        self.plan: Dict[str, List[Variant]] = {
            tenant: [self.variants[i] for i in order[index :: len(TENANTS)]]
            for index, tenant in enumerate(TENANTS)
        }
        self.registry = TextStatisticsRegistry()
        self.feedback = FeedbackStore()
        # The registry keeps one entry per (column, field), sampled from
        # the first query that needs it: warm it with the canonical
        # queries so the seed's literals never change the statistics.
        for query_id in ("q1", "q2", "q3", "q4"):
            build_cost_inputs(
                self.scenario.query(query_id), self.scenario.context(), registry=self.registry
            )
        self.service = QueryService(
            self.scenario,
            [TenantSpec(tenant) for tenant in TENANTS],
            workers=WORKERS,
            capacity=16,
            feedback=self.feedback,
            statistics=self.registry,
            share_window=0.0,
        )
        self.service.start()

    def prepare(self, seed: int) -> None:
        """The nested-loop join oracle's answer for every variant."""
        scenario = self.scenario
        docs = oracles.views(scenario.server.store)
        self.stored = oracles.stored_fields(scenario.server.store)
        rows_of = {
            relation: [(row.values, row) for row in scenario.catalog.table(relation).scan()]
            for relation in ("student", "project")
        }
        memo: Dict[Any, Any] = {}
        self.answers: Dict[str, frozenset] = {}
        for variant in self.variants:
            if variant.key not in self.answers:
                self.answers[variant.key] = oracles.join_answer(
                    rows_of[variant.relation],
                    docs,
                    variant.condition,
                    variant.predicates,
                    variant.selections,
                    variant.shape,
                    memo,
                )

    def warm(self) -> None:
        """Statistics are warmed in ``build``; nothing else is lazy."""

    def reference(self) -> None:
        """Each variant planned and run serially, untraced, outside the
        service: the plan and charge every served ticket must repeat,
        with the ledger checked against the server's counters."""
        scenario = self.scenario
        server: BooleanTextServer = scenario.server
        self.expected: Dict[str, Expected] = {}
        for variant in self.variants:
            if variant.key in self.expected:
                continue
            client = TextClient(server, constants=scenario.constants)
            context = JoinContext(scenario.catalog, client)
            before = server.counters.snapshot()
            inputs = build_cost_inputs(
                variant.query, context, registry=self.registry, feedback=self.feedback
            )
            choice = single_join.choose_join_method(variant.query, inputs)
            planned = server.counters.snapshot()
            execution = choice.method.execute(variant.query, context)
            executed = server.counters.snapshot() - planned
            ledger = client.ledger
            backend = _formula(scenario.constants, executed) + (
                scenario.constants.rtp_per_document * ledger.rtp_documents
            )
            if (
                ledger.searches,
                ledger.postings_processed,
                ledger.short_documents,
                ledger.long_documents,
            ) != (
                executed.searches,
                executed.postings_processed,
                executed.short_documents,
                executed.long_documents,
            ) or not math.isclose(ledger.total, backend, rel_tol=1e-12):
                self.setup_problems.append(
                    f"{variant.key}: ledger {ledger.report()} disagrees with the "
                    f"server's counters {executed.as_dict()}"
                )
            self.expected[variant.key] = Expected(
                method=choice.name,
                charge=execution.cost.total,
                plan=planned - before,
            )
            problem = self._check(variant, execution)
            if problem:
                self.setup_problems.append(f"serial run: {problem}")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def instrument(self, recorder: SpanRecorder) -> None:
        roots = self._roots
        recorder.patch(
            QueryService,
            "_execute",
            "serving.overhead",
            parent_of=lambda service, state, ticket: roots.get(ticket.tenant),
        )
        recorder.patch(SharedSearchExecutor, "submit_many", "serving.overhead")
        recorder.patch(repro.core.inputs, "build_cost_inputs", "core.stats")
        recorder.patch(single_join, "choose_join_method", "core.choose")
        for cls in _join_methods():
            recorder.patch(cls, "execute", "core.execute")
        for method in ("search", "probe", "search_batch", "retrieve", "retrieve_many"):
            recorder.patch(TextClient, method, "gateway.client")
        recorder.patch(BooleanTextServer, "search", "textsys.search")
        recorder.patch(BooleanTextServer, "document_frequency", "textsys.search")
        recorder.patch(BooleanTextServer, "retrieve", "textsys.retrieve")

    # ------------------------------------------------------------------
    # the measured phase
    # ------------------------------------------------------------------
    def _ledgers(self) -> Dict[str, Any]:
        return {tenant: self.service.tenant(tenant).ledger.snapshot() for tenant in TENANTS}

    def begin_measurement(self) -> None:
        self._start_ledgers = self._ledgers()
        self._start_shared = self.service.sharing.stats.snapshot()["shared_searches"]
        self._snapshot_seconds = []
        self._completions = 0
        self._op_ids = 0

    def _check(self, variant: Variant, execution: Any) -> Optional[str]:
        keys = execution.result_keys()
        if keys != self.answers[variant.key]:
            return (
                f"{variant.key}: {len(keys)} results, the nested-loop oracle "
                f"has {len(self.answers[variant.key])}"
            )
        if variant.query.long_form:
            for pair in execution.pairs:
                if not oracles.same_document(pair.document, self.stored):
                    return f"{variant.key}: long form of {pair.document.docid} differs"
        return None

    def run_round(self, recorder: Optional[SpanRecorder]) -> Round:
        service = self.service
        server = self.scenario.server
        constants = self.scenario.constants
        result = Round()
        queues = {tenant: deque(self.plan[tenant]) for tenant in TENANTS}
        inflight: deque = deque()
        done: List[Tuple[Variant, Any]] = []
        roots = self._roots
        ledgers_before = self._ledgers()
        shared_before = service.sharing.stats.snapshot()["seconds_shared"]
        server_before = server.counters.snapshot()

        def submit(tenant: str) -> None:
            while queues[tenant]:
                variant = queues[tenant].popleft()
                result.attempted += 1
                context = None
                if recorder is not None:
                    self._op_ids += 1
                    context = (recorder.new_id(), self._op_ids)
                    roots[tenant] = context
                started = clock()
                try:
                    ticket = service.submit(tenant, variant.query)
                except ReproError as error:
                    result.failed += 1
                    result.mismatches.append(f"{variant.key}: refused at admission ({error})")
                    continue
                inflight.append((tenant, variant, ticket, context, started))
                return

        for tenant in TENANTS:
            submit(tenant)
        while inflight:
            tenant, variant, ticket, context, started = inflight.popleft()
            try:
                execution = ticket.result(timeout=120)
            except Exception as error:  # noqa: BLE001 — a failed query is counted
                result.failed += 1
                print(f"FAILED {variant.key}: {type(error).__name__}: {error}")
            else:
                done.append((variant, execution))
                result.latencies.append(ticket.latency)
            if context is not None:
                recorder.record_root(
                    context, "serving.overhead", started, ticket.submitted_at + ticket.latency
                )
            submit(tenant)
            self._completions += 1
            if self._completions % SNAPSHOT_EVERY == 0:
                snapshot_started = clock()
                service.metrics_snapshot()
                self._snapshot_seconds.append(clock() - snapshot_started)

        check_started = clock()
        ledgers_after = self._ledgers()
        shared = service.sharing.stats.snapshot()["seconds_shared"] - shared_before
        server_work = server.counters.snapshot() - server_before
        result.charged = sum(
            ledgers_after[tenant].total - ledgers_before[tenant].total for tenant in TENANTS
        )
        planning = 0.0
        rtp_documents = 0
        for variant, execution in done:
            expected = self.expected[variant.key]
            problem = self._check(variant, execution)
            if problem is None and (
                execution.method != expected.method or execution.cost.total != expected.charge
            ):
                problem = (
                    f"{variant.key}: ran {execution.method} charging "
                    f"{execution.cost.total!r}s; the untraced serial run chose "
                    f"{expected.method} charging {expected.charge!r}s"
                )
            if problem:
                result.failed += 1
                result.mismatches.append(problem)
            planning += _formula(constants, expected.plan)
            rtp_documents += execution.cost.rtp_documents
        # Ledger identity against the backend's own counters.  Planning
        # sends uncharged selection searches, and a search that joins an
        # in-flight twin runs once on the server while both tenants are
        # charged (the join is credited to seconds_shared).
        backend = (
            _formula(constants, server_work)
            - planning
            + shared
            + constants.rtp_per_document * rtp_documents
        )
        if not result.failed and not math.isclose(result.charged, backend, rel_tol=1e-9):
            result.mismatches.append(
                f"round charged {result.charged!r}s but the backend's counters "
                f"price to {backend!r}s"
            )
        result.check_seconds = clock() - check_started
        return result

    def layer_counts(self, ops: int) -> Dict[str, float]:
        ledgers = self._ledgers()
        searches = sum(ledgers[t].searches - self._start_ledgers[t].searches for t in TENANTS)
        postings = sum(
            ledgers[t].postings_processed - self._start_ledgers[t].postings_processed
            for t in TENANTS
        )
        shared = self.service.sharing.stats.snapshot()["shared_searches"] - self._start_shared
        snapshots = self._snapshot_seconds
        return {
            "core.searches_per_query": searches / ops,
            "serving.snapshot_ms": 1e3 * sum(snapshots) / len(snapshots) if snapshots else 0.0,
            "serving.shared_joins": shared,
            "gateway.tracer_spans": len(self.service.tracer),
            "textsys.postings_per_search": postings / searches if searches else 0.0,
        }

"""Independent answers the benchmark checks the system's outputs against.

Nothing here calls ``repro``'s tokenizer, matcher or engine.  Searches
are described by plain tuples (the *spec*) that the workloads also turn
into ``repro`` search nodes:

- ``("term", field, word)`` — the word occurs in the field;
- ``("phrase", field, (word, ...))`` — the words occur consecutively;
- ``("prefix", field, prefix)`` — some word in the field starts with it;
- ``("and", (spec, ...))``, ``("or", (spec, ...))``, ``("not", spec)``.

The evaluators are deliberately brute force: every basic term is decided
by testing every document, never through an index.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
_SEPARATORS = str.maketrans(
    {chr(code): " " for code in range(128) if chr(code) not in _WORD_CHARS and chr(code) != "'"}
)


def words(text: str) -> List[str]:
    """Lower-cased word tokens: runs of ASCII letters and digits, where a
    single apostrophe between two such runs keeps them one word."""
    text = text.lower()
    if not text.isascii():
        text = "".join(char if char.isascii() else " " for char in text)
    out: List[str] = []
    for chunk in text.translate(_SEPARATORS).split():
        joined: List[str] = []
        for piece in chunk.split("'"):
            if piece:
                joined.append(piece)
            elif joined:
                out.append("'".join(joined))
                joined = []
        if joined:
            out.append("'".join(joined))
    return out


class DocView:
    """One stored document as the oracles see it: words per field."""

    __slots__ = ("docid", "fields", "sets")

    def __init__(self, docid: str, fields: Mapping[str, str]) -> None:
        self.docid = docid
        self.fields = {name: words(text) for name, text in fields.items()}
        self.sets = {name: frozenset(tokens) for name, tokens in self.fields.items()}


def views(documents: Iterable[Any]) -> List[DocView]:
    return [DocView(document.docid, document.fields) for document in documents]


def _has_run(tokens: Sequence[str], run: Sequence[str]) -> bool:
    width = len(run)
    first = run[0]
    for start in range(len(tokens) - width + 1):
        if tokens[start] == first and tuple(tokens[start : start + width]) == tuple(run):
            return True
    return False


def _column(field: str, docs: Sequence[DocView], memo: Dict[Any, Any]) -> List[FrozenSet[str]]:
    """Every document's word set for one field (empty where absent)."""
    key = ("column", field)
    column = memo.get(key)
    if column is None:
        column = memo[key] = [doc.sets.get(field, frozenset()) for doc in docs]
    return column


def matching(
    spec: Tuple[Any, ...],
    docs: Sequence[DocView],
    memo: Optional[Dict[Tuple[Any, ...], FrozenSet[int]]] = None,
) -> FrozenSet[int]:
    """Positions in ``docs`` of the documents satisfying ``spec``.

    Every basic term is decided by testing every document; connectives
    combine those answers.  ``memo`` shares basic-term answers between
    calls over the same documents.
    """
    if memo is None:
        memo = {}
    known = memo.get(spec)
    if known is not None:
        return known
    kind = spec[0]
    if kind == "term":
        field, word = spec[1], spec[2]
        found = frozenset(i for i, words_ in enumerate(_column(field, docs, memo)) if word in words_)
    elif kind == "phrase":
        field, run = spec[1], spec[2]
        found = frozenset(
            i
            for i, words_ in enumerate(_column(field, docs, memo))
            if run[0] in words_ and _has_run(docs[i].fields[field], run)
        )
    elif kind == "prefix":
        field, prefix = spec[1], spec[2]
        column = _column(field, docs, memo)
        vocabulary = memo.get(("vocabulary", field))
        if vocabulary is None:
            vocabulary = memo[("vocabulary", field)] = frozenset().union(*column)
        expanded = frozenset(word for word in vocabulary if word.startswith(prefix))
        found = frozenset(i for i, words_ in enumerate(column) if not expanded.isdisjoint(words_))
    elif kind == "not":
        found = frozenset(range(len(docs))) - matching(spec[1], docs, memo)
    elif kind == "or" and all(part[0] == "term" and part[1] == spec[1][0][1] for part in spec[1]):
        # A semi-join batch: one set test per document, not one per term.
        field, wanted = spec[1][0][1], frozenset(part[2] for part in spec[1])
        found = frozenset(
            i for i, words_ in enumerate(_column(field, docs, memo)) if not wanted.isdisjoint(words_)
        )
    elif kind in ("and", "or"):
        parts = [matching(part, docs, memo) for part in spec[1]]
        found = frozenset.intersection(*parts) if kind == "and" else frozenset.union(*parts)
    else:
        raise ValueError(f"unknown search spec {spec!r}")
    if kind in ("term", "phrase", "prefix"):
        memo[spec] = found
    return found


def search_answer(
    spec: Tuple[Any, ...],
    docs: Sequence[DocView],
    memo: Optional[Dict[Tuple[Any, ...], FrozenSet[int]]] = None,
) -> Tuple[str, ...]:
    """The docids matching ``spec``, in collection order."""
    return tuple(docs[i].docid for i in sorted(matching(spec, docs, memo)))


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def row_passes(condition: Tuple[Any, ...], row: Mapping[str, Any]) -> bool:
    """Evaluate a relation filter spec: ``("=", col, v)``, ``(">", col,
    v)`` or ``("and", (spec, ...))``; NULL compares false."""
    kind = condition[0]
    if kind == "and":
        return all(row_passes(part, row) for part in condition[1])
    value = row[condition[1]]
    if value is None:
        return False
    if kind == "=":
        return value == condition[2]
    if kind == ">":
        return value > condition[2]
    raise ValueError(f"unknown condition {condition!r}")


def join_answer(
    rows: Sequence[Tuple[Tuple[Any, ...], Mapping[str, Any]]],
    docs: Sequence[DocView],
    condition: Tuple[Any, ...],
    predicates: Sequence[Tuple[str, str]],
    selections: Sequence[Tuple[Any, ...]],
    shape: str,
    memo: Optional[Dict[Tuple[Any, ...], FrozenSet[int]]] = None,
) -> frozenset:
    """Nested-loop join of the filtered rows with the selected documents.

    A row joins a document when, for every ``(column, field)`` predicate,
    the words of the row's value occur consecutively in the field.
    Returns what the query's shape asks for: ``(row values, docid)``
    pairs, docids, or row values.
    """
    if memo is None:
        memo = {}
    outer = [
        (values, [words(str(row[column])) if row[column] is not None else [] for column, _ in predicates])
        for values, row in rows
        if row_passes(condition, row)
    ]
    selected = frozenset(range(len(docs)))
    for spec in selections:
        selected &= matching(spec, docs, memo)
    inner = [docs[i] for i in sorted(selected)]
    fields = [field for _, field in predicates]
    pairs = set()
    for values, runs in outer:
        if not all(runs):
            continue  # NULL or word-less values never join
        for doc in inner:
            for run, field in zip(runs, fields):
                if len(run) == 1:
                    if run[0] not in doc.sets.get(field, ()):
                        break
                elif not (run[0] in doc.sets.get(field, ()) and _has_run(doc.fields[field], run)):
                    break
            else:
                pairs.add((values, doc.docid))
    if shape == "pairs":
        return frozenset(pairs)
    if shape == "docids":
        return frozenset(docid for _, docid in pairs)
    return frozenset(values for values, _ in pairs)


def stored_fields(documents: Iterable[Any]) -> Dict[str, Dict[str, str]]:
    """A private copy of every document's long form, keyed by docid."""
    return {document.docid: dict(document.fields) for document in documents}


def same_document(document: Any, stored: Mapping[str, Mapping[str, str]]) -> bool:
    """Is a retrieved long form exactly the stored document?"""
    expected = stored.get(document.docid)
    return expected is not None and dict(document.fields) == expected

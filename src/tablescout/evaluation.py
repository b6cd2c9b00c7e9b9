"""Selection metrics, execution-match harness, and token cost accounting.

Selection quality is scored per query with set precision/recall/F1 plus a
perfect-recall indicator, then macro-averaged. The execution harness runs
predicted and gold SQL against a SQLite file under a wall-clock timeout and
compares result multisets. Each thread holds one read-only connection, kept
while its database file stays the same, so SQLite parses the schema once
rather than once per query. An authorizer on that connection refuses every
statement that is not a read (writes, temp DDL, ``ATTACH``, ``PRAGMA`` and
table-valued functions such as ``pragma_table_info``, ``BEGIN`` and
``SAVEPOINT``), so no statement can leave state behind for the next. Costs
are linear in token counts at per-million-token rates.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifacts import read_jsonl, require
from .corpus import connect_read_only
from .errors import CorpusError
from .services import GenerationRequest, Generator, TokenLedger

EXECUTION_TIMEOUT_SECONDS = 60.0
# SQLite virtual-machine steps between two deadline checks
_PROGRESS_STEPS = 1000
# page cache of the held connection; SQLite reads a negative size as KiB
_CACHE_SIZE_KIB = -128
# the only authorizer actions a scored statement may take
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE}
)
INPUT_RATE_PER_MILLION = 0.15
OUTPUT_RATE_PER_MILLION = 0.60
SQL_STAGE = "sql"


# ---------------------------------------------------------------------------
# Selection metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    query_id: str
    gold: frozenset[str]
    predicted: frozenset[str]
    precision: float
    recall: float
    f1: float
    perfect_recall: int


def selection_metrics(predicted: Iterable[str], gold: Iterable[str], query_id: str = "") -> EvalRecord:
    """Set precision/recall/F1 and the perfect-recall indicator (gold ⊆ predicted).

    An empty prediction scores zero across the board; empty gold is a caller
    error because such queries are excluded before scoring.
    """
    pred = frozenset(predicted)
    gold_set = frozenset(gold)
    if not gold_set:
        raise ValueError("gold table set must be non-empty")
    hits = len(pred & gold_set)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(gold_set)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return EvalRecord(
        query_id=query_id,
        gold=gold_set,
        predicted=pred,
        precision=precision,
        recall=recall,
        f1=f1,
        perfect_recall=1 if gold_set <= pred else 0,
    )


def aggregate_metrics(records: Sequence[EvalRecord]) -> dict[str, float]:
    """Macro-averages on the percent scale, plus average predicted-set size."""
    if not records:
        raise ValueError("cannot aggregate zero records")
    n = len(records)
    return {
        "queries": float(n),
        "avg_tables": sum(len(r.predicted) for r in records) / n,
        "precision": 100.0 * sum(r.precision for r in records) / n,
        "recall": 100.0 * sum(r.recall for r in records) / n,
        "f1": 100.0 * sum(r.f1 for r in records) / n,
        "perfect_recall": 100.0 * sum(r.perfect_recall for r in records) / n,
    }


def render_metrics_table(summary: Mapping[str, float]) -> str:
    """One-row text table: Avg #tab., P, R, F1, PR, all to one decimal."""
    header = "| Avg #tab. | P | R | F1 | PR |"
    rule = "|----------:|--:|--:|---:|---:|"
    row = (
        f"| {summary['avg_tables']:.1f} "
        f"| {summary['precision']:.1f} "
        f"| {summary['recall']:.1f} "
        f"| {summary['f1']:.1f} "
        f"| {summary['perfect_recall']:.1f} |"
    )
    return "\n".join([header, rule, row])


# ---------------------------------------------------------------------------
# Gold data and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoldQuery:
    query_id: str
    question: str
    gold_tables: frozenset[str]
    gold_sql: str | None = None


def _table_ids(record: dict, field: str, where: str, what: str) -> list[str]:
    """``record[field]``, which must be a list of table-id strings."""
    values = require(record, field, where, what, list)
    if not all(isinstance(value, str) for value in values):
        raise CorpusError(f"malformed {what} {where}: field {field!r} must list table-id strings")
    return values


def query_lines(path: str | Path, what: str) -> list[tuple[str, dict]]:
    """(``path:lineno``, object) for each line of a queries or gold file.

    Each line needs a string query_id no earlier line holds and a question
    that is not blank; a bad line raises :class:`CorpusError` naming
    ``path:lineno``.
    """
    lines = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path, what):
        where = f"{path}:{lineno}"
        query_id = require(record, "query_id", where, what, str)
        question = require(record, "question", where, what, str)
        if not question.strip():
            raise CorpusError(f"malformed {what} {where}: blank question")
        if query_id in seen:
            raise CorpusError(f"malformed {what} {where}: repeated query_id {query_id!r}")
        seen.add(query_id)
        lines.append((where, record))
    if not lines:
        raise CorpusError(f"{what} {path} holds no queries")
    return lines


def load_gold_queries(path: str | Path) -> list[GoldQuery]:
    """Read gold lines ``{query_id, question, gold_tables, gold_sql?}``.

    Each line gets the checks of a queries line (:func:`query_lines`); a
    gold_tables that is not a list of strings or a gold_sql present but
    neither a string nor null raises :class:`CorpusError` naming
    ``path:lineno`` too.
    """
    what = "gold file"
    gold = []
    for where, record in query_lines(path, what):
        gold_sql = record.get("gold_sql")
        if gold_sql is not None:
            require(record, "gold_sql", where, what, str)
        tables = frozenset(_table_ids(record, "gold_tables", where, what))
        gold.append(GoldQuery(record["query_id"], record["question"], tables, gold_sql))
    return gold


def load_result_records(path: str | Path) -> list[dict]:
    """Read per-query result records from JSON lines; each needs a string
    query_id and a ``final`` list of table-id strings."""
    what = "results file"
    records = []
    for lineno, record in read_jsonl(path, what):
        where = f"{path}:{lineno}"
        require(record, "query_id", where, what, str)
        _table_ids(record, "final", where, what)
        records.append(record)
    return records


def evaluate_selection(
    records: Sequence[dict],
    gold: Sequence[GoldQuery],
) -> tuple[list[EvalRecord], dict[str, float]]:
    """Score result records against gold tables, matching on query_id.

    Queries with empty gold sets are excluded and need no record. A record
    without gold, a query_id repeated in the records or in the gold, or a
    gold query with tables but no record is an input error, so mismatched
    files fail loudly instead of scoring a subset.
    """
    by_id: dict[str, GoldQuery] = {}
    for g in gold:
        if g.query_id in by_id:
            raise CorpusError(f"more than one gold annotation for query {g.query_id!r}")
        by_id[g.query_id] = g
    evaluated = []
    seen: set[str] = set()
    for record in records:
        qid = str(record["query_id"])
        if qid not in by_id:
            raise CorpusError(f"no gold annotation for query {qid!r}")
        if qid in seen:
            raise CorpusError(f"more than one result record for query {qid!r}")
        seen.add(qid)
        g = by_id[qid]
        if not g.gold_tables:
            continue
        evaluated.append(selection_metrics(record["final"], g.gold_tables, query_id=qid))
    missing = [g.query_id for g in gold if g.gold_tables and g.query_id not in seen]
    if missing:
        raise CorpusError(f"{len(missing)} gold queries have no result record, e.g. {missing[0]!r}")
    if not evaluated:
        raise CorpusError("no queries left to evaluate (all gold sets empty?)")
    return evaluated, aggregate_metrics(evaluated)


# ---------------------------------------------------------------------------
# Execution match
# ---------------------------------------------------------------------------


def _canonical_cell(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _authorize(action: int, *_: object) -> int:
    return sqlite3.SQLITE_OK if action in _READ_ACTIONS else sqlite3.SQLITE_DENY


class _Held(threading.local):
    """This thread's connection and the file key it was opened for; a
    ``sqlite3`` connection serves only the thread that opened it."""

    key: tuple | None = None
    conn: sqlite3.Connection | None = None


_held = _Held()


def _release() -> None:
    if _held.conn is not None:
        _held.conn.close()
    _held.key = _held.conn = None


def _connection(db_path: str | Path) -> sqlite3.Connection:
    """The held read-only connection to ``db_path``, opened again when the
    path or the file's device, inode, mtime or size changed.

    Raises ``OSError`` or ``sqlite3.Error`` when the file cannot be opened;
    the caller then calls :func:`_release`.
    """
    path = Path(db_path).as_posix()
    st = os.stat(path)
    key = (path, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    if key == _held.key:
        return _held.conn
    _release()
    # held before it is set up, so a failed set-up is closed by _release;
    # autocommit, so the module itself never sends the refused BEGIN
    _held.conn = connect_read_only(path, isolation_level=None)
    _held.conn.execute(f"PRAGMA cache_size = {_CACHE_SIZE_KIB}")
    _held.conn.set_authorizer(_authorize)
    _held.key = key
    return _held.conn


def _execute_sql(
    conn: sqlite3.Connection,
    sql: str,
    timeout: float,
) -> tuple[str, Counter | None, str]:
    """Run one statement. Returns (status, row multiset, detail)."""
    deadline = time.monotonic() + timeout
    # a true return from the handler makes SQLite abort the statement
    conn.set_progress_handler(lambda: time.monotonic() > deadline, _PROGRESS_STEPS)
    try:
        cursor = conn.execute(sql)
        rows = cursor.fetchall()
    except sqlite3.Error as exc:
        if time.monotonic() > deadline:
            return "timeout", None, f"exceeded {timeout:g}s"
        return "error", None, str(exc)
    # a statement with no result columns, such as a comment or a bare ";",
    # would otherwise read as an empty result
    if cursor.description is None:
        return "error", None, "not a query"
    return "ok", Counter(tuple(_canonical_cell(v) for v in row) for row in rows), ""


@dataclass(frozen=True)
class ExecutionOutcome:
    status: str  # match | mismatch | error | timeout | gen_error | gold_error
    detail: str = ""

    @property
    def correct(self) -> bool:
        return self.status == "match"


def check_database(db_path: str | Path) -> None:
    """Open this thread's held connection to ``db_path``, which
    :func:`execution_match` reuses, and read its schema; a file SQLite
    cannot read raises :class:`CorpusError` naming it."""
    try:
        conn = _connection(db_path)
        conn.set_progress_handler(None, 0)  # the deadline of an earlier statement
        conn.execute("SELECT count(*) FROM sqlite_master").fetchall()
    except (OSError, sqlite3.Error) as exc:
        _release()
        raise CorpusError(f"cannot read database {db_path}: {exc}") from exc


def execution_match(
    db_path: str | Path,
    pred_sql: str,
    gold_sql: str,
    timeout: float = EXECUTION_TIMEOUT_SECONDS,
) -> ExecutionOutcome:
    """Execute both statements; match means equal result multisets.

    Row order is ignored, column order respected, cells compared after
    canonical string rendering (floats via %.12g). A prediction that errors
    or exceeds the timeout is incorrect, and so is a blank one, which is not
    run, and a statement with no result columns; a failing or column-less
    gold statement is a dataset problem reported as gold_error so callers
    can exclude it. Both run, the gold statement
    first, on this thread's held read-only connection to ``db_path``; it is
    opened again when the file is replaced or changed, and an unreadable
    file is a gold_error. That connection's
    authorizer allows only reads: a write, temp DDL, ``ATTACH``, ``PRAGMA``
    (``pragma_*`` and other table-valued functions too), ``BEGIN`` or
    ``SAVEPOINT`` is refused, as an error for a prediction and a gold_error
    for gold.
    """
    try:
        conn = _connection(db_path)
    except (OSError, sqlite3.Error) as exc:
        _release()
        return ExecutionOutcome("gold_error", f"cannot open database: {exc}")
    gold_status, gold_rows, gold_detail = _execute_sql(conn, gold_sql, timeout)
    if gold_status != "ok":
        return ExecutionOutcome("gold_error", gold_detail)
    # SQLite runs a blank statement as one returning no rows
    if not pred_sql.strip():
        return ExecutionOutcome("error", "empty prediction")
    pred_status, pred_rows, pred_detail = _execute_sql(conn, pred_sql, timeout)
    if pred_status != "ok":
        return ExecutionOutcome(pred_status, pred_detail)
    if pred_rows == gold_rows:
        return ExecutionOutcome("match")
    return ExecutionOutcome("mismatch", f"{sum(pred_rows.values())} vs {sum(gold_rows.values())} rows")


def stratified_execution_summary(
    results: Sequence[tuple[ExecutionOutcome, int]],
) -> dict[str, float]:
    """Execution-match rates overall and split by gold-table count (1 vs 2+).

    ``results`` pairs each outcome with its query's gold-table count.
    Queries whose gold SQL failed are excluded from every rate.
    """
    def rate(pairs: Sequence[tuple[ExecutionOutcome, int]]) -> float:
        counted = [o for o, _ in pairs if o.status != "gold_error"]
        if not counted:
            return 0.0
        return 100.0 * sum(1 for o in counted if o.correct) / len(counted)

    return {
        "queries": float(sum(1 for o, _ in results if o.status != "gold_error")),
        "gold_errors": float(sum(1 for o, _ in results if o.status == "gold_error")),
        "em_all": rate(results),
        "em_single": rate([(o, n) for o, n in results if n == 1]),
        "em_multi": rate([(o, n) for o, n in results if n >= 2]),
    }


def render_execution_table(summary: Mapping[str, float]) -> str:
    header = "| EM | EM =1T | EM >=2T |"
    rule = "|---:|-------:|--------:|"
    row = f"| {summary['em_all']:.1f} | {summary['em_single']:.1f} | {summary['em_multi']:.1f} |"
    return "\n".join([header, rule, row])


# ---------------------------------------------------------------------------
# SQL generation (end-to-end harness)
# ---------------------------------------------------------------------------

SQL_PROMPT_TEMPLATE = (
    "You are a SQL expert. Given the question and the tables below, write one "
    "SQLite query that answers the question. Reply with only the SQL.\n\n"
    "Question: {question}\n\nTables:\n{tables_content}\n\nSQL:"
)
SQL_MAX_TOKENS = 512


def generate_sql(
    question: str,
    tables: Sequence[tuple[str, str]],
    generator: Generator,
    *,
    ledger: TokenLedger,
) -> str:
    """One generation call turning the retrieved tables into a SQL string.

    ``tables`` pairs table ids with their serialized content. The call's
    tokens go to ``ledger`` under the SQL stage. The reply is
    stripped of a surrounding code fence if present, a one-line fence
    included.
    """
    tables_content = "\n\n".join(text for _, text in tables)
    prompt = SQL_PROMPT_TEMPLATE.format(question=question, tables_content=tables_content)
    response = generator.generate(GenerationRequest(prompt=prompt, max_tokens=SQL_MAX_TOKENS))
    ledger.record(SQL_STAGE, response.input_tokens, response.output_tokens)
    text = response.text.strip()
    if text.startswith("```"):
        text = text.split("\n", 1)[1] if "\n" in text else text[3:]
        if text.rstrip().endswith("```"):
            text = text.rstrip()[:-3]
    return text.strip()


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostLedger:
    """Token totals plus dollar rates per million tokens."""

    input_tokens: int
    output_tokens: int
    input_rate_per_million: float = INPUT_RATE_PER_MILLION
    output_rate_per_million: float = OUTPUT_RATE_PER_MILLION

    def __post_init__(self) -> None:
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be nonnegative")

    @classmethod
    def from_token_ledger(
        cls,
        ledger: TokenLedger,
        input_rate_per_million: float = INPUT_RATE_PER_MILLION,
        output_rate_per_million: float = OUTPUT_RATE_PER_MILLION,
    ) -> "CostLedger":
        return cls(
            input_tokens=ledger.input_tokens,
            output_tokens=ledger.output_tokens,
            input_rate_per_million=input_rate_per_million,
            output_rate_per_million=output_rate_per_million,
        )


def cost_estimate(ledger: CostLedger) -> float:
    """Dollars: input_tokens/1e6 * in_rate + output_tokens/1e6 * out_rate."""
    return (
        ledger.input_tokens / 1e6 * ledger.input_rate_per_million
        + ledger.output_tokens / 1e6 * ledger.output_rate_per_million
    )

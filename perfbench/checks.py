"""Checks of the program's outputs against the benchmark's own computations.

Every function returns a list of problems (empty when the output is right),
so the benchmark can report all of them and the tests can corrupt one
output at a time. Nothing here calls the layer it checks: join scores are
re-derived by brute force from the planted table data, dense rankings by an
exhaustive numpy scan, restoration by a single pass over cached scores, and
selection metrics from the plan's gold sets.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

import numpy as np

TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def check_corpus(pooled, tables: Mapping[str, dict]) -> list[str]:
    """The pooled corpus holds exactly the planted tables under the planted
    ids, with their sources, columns and cells."""
    problems = []
    got = {t.id: t for t in pooled}
    if set(got) != set(tables):
        missing = sorted(set(tables) - set(got))[:5]
        extra = sorted(set(got) - set(tables))[:5]
        return [f"corpus ids differ from the plan: missing {missing}, unexpected {extra}"]
    for tid, want in tables.items():
        t = got[tid]
        if pooled.provenance.get(tid) != want["source"]:
            problems.append(f"table {tid}: source {pooled.provenance.get(tid)!r}, planted {want['source']!r}")
        if list(t.column_names()) != want["columns"]:
            problems.append(f"table {tid}: columns {list(t.column_names())}, planted {want['columns']}")
        elif [list(t.row(i)) for i in range(t.row_count)] != want["rows"]:
            problems.append(f"table {tid}: cells differ from the planted rows")
    return problems


# ---------------------------------------------------------------------------
# Compatibility cache
# ---------------------------------------------------------------------------


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class JoinOracle:
    """Brute-force best join between two planted tables.

    A column pair is valid when both normalized non-NULL value sets are
    non-empty, one contains the other, and at least one column has all
    values distinct. Its score is ``0.5 * jaccard + 0.5 * (0.5 * sem + 0.5 *
    exact)``, where ``exact`` compares header names up to case and -/space vs
    underscore and ``sem`` is the clamped cosine of the embedded
    ``table.column`` headers. The best pair wins; ties go to the lowest column
    positions with the tables in ascending id order.
    """

    def __init__(self, tables: Mapping[str, dict], embed: Callable[[str], np.ndarray]):
        self.tables = tables
        self.embed = embed
        self._profiles: dict[str, list] = {}

    def _profile(self, tid: str) -> list:
        if tid not in self._profiles:
            t = self.tables[tid]
            cols = []
            for pos, name in enumerate(t["columns"]):
                values = [row[pos].strip().casefold() for row in t["rows"] if row[pos] is not None]
                distinct = set(values)
                cols.append((
                    name,
                    distinct,
                    bool(values) and len(distinct) == len(values),
                    name.casefold().replace("-", "_").replace(" ", "_"),
                    self.embed(f"{tid}.{name}"),
                ))
            self._profiles[tid] = cols
        return self._profiles[tid]

    def best(self, ta: str, tb: str) -> tuple[float, str, str] | None:
        """(score, column of the lower id, column of the higher id) or None."""
        a, b = sorted((ta, tb))
        best = None
        for name_a, set_a, uniq_a, key_a, vec_a in self._profile(a):
            for name_b, set_b, uniq_b, key_b, vec_b in self._profile(b):
                if not set_a or not set_b or not (set_a <= set_b or set_b <= set_a):
                    continue
                if not (uniq_a or uniq_b):
                    continue
                jac = len(set_a & set_b) / len(set_a | set_b)
                sem = max(0.0, _cos(vec_a, vec_b))
                exact = 1.0 if key_a == key_b else 0.0
                score = 0.5 * jac + 0.5 * (0.5 * sem + 0.5 * exact)
                if best is None or score > best[0]:
                    best = (score, name_a, name_b)
        return best


def sample_pairs(tables: Mapping[str, dict], joins: Sequence[dict], seed: int, others: int) -> list[tuple[str, str]]:
    """Every planted pair plus a seeded sample of ``others`` unplanted pairs."""
    planted = {tuple(sorted((j["child"], j["parent"]))) for j in joins}
    ids = sorted(tables)
    rng = random.Random(f"pairs:{seed}")
    total = len(ids) * (len(ids) - 1) // 2
    want = min(others, total - len(planted))
    extra: set[tuple[str, str]] = set()
    while len(extra) < want:
        a, b = rng.sample(ids, 2)
        pair = (a, b) if a < b else (b, a)
        if pair not in planted:
            extra.add(pair)
    return sorted(planted) + sorted(extra)


def check_cache(cache, oracle: JoinOracle, pairs: Sequence[tuple[str, str]]) -> list[str]:
    """Cached score and join columns equal the brute-force oracle on each pair."""
    problems = []
    for a, b in pairs:
        want = oracle.best(a, b)
        edge = cache.edge(a, b)
        if want is None:
            if edge is not None:
                problems.append(f"cache pair {a}|{b}: score {edge.score}, oracle finds no valid join")
            continue
        if edge is None:
            problems.append(f"cache pair {a}|{b}: missing, oracle score {want[0]}")
            continue
        got = (edge.left_table, edge.left_column, edge.right_table, edge.right_column)
        if abs(edge.score - want[0]) > TOLERANCE or got != (a, want[1], b, want[2]):
            problems.append(f"cache pair {a}|{b}: {edge.score} on {got}, oracle {want}")
    return problems


def gold_join_records(joins: Sequence[dict], pairs: Sequence[tuple[str, str]]) -> list[dict]:
    """Gold annotations: planted joins are joinable on their columns, the
    sampled other pairs are not."""
    planted = {tuple(sorted((j["child"], j["parent"]))) for j in joins}
    records = [
        {"table_a": j["child"], "table_b": j["parent"], "joinable": True,
         "gold_columns": [j["child_column"], j["parent_column"]]}
        for j in joins
    ]
    records += [{"table_a": a, "table_b": b, "joinable": False} for a, b in pairs if (a, b) not in planted]
    return records


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


def exhaustive_topk(ids: Sequence[str], vectors: np.ndarray, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Rank every stored vector by cosine with one numpy scan; ties by id."""
    norms = np.linalg.norm(vectors, axis=1) * float(np.linalg.norm(query))
    dots = vectors @ query
    scores = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]


def check_topk(ids: Sequence[str], vectors: np.ndarray, query: np.ndarray, k: int, got: Sequence[str], label: str) -> list[str]:
    """``got`` equals the exhaustive top-k; rows whose scores differ by less
    than the tolerance may swap, since the scan sums in another order."""
    want = exhaustive_topk(ids, vectors, query, k)
    if [tid for tid, _ in want] == list(got):
        return []
    if len(got) != len(want):
        return [f"{label}: top-k has {len(got)} ids, expected {len(want)}"]
    score = dict(exhaustive_topk(ids, vectors, query, len(ids)))
    cutoff = want[-1][1] - TOLERANCE
    ranked = [score.get(tid, -np.inf) for tid in got]
    if all(s >= cutoff for s in ranked) and all(x >= y - TOLERANCE for x, y in zip(ranked, ranked[1:])):
        return []
    return [f"{label}: top-k {list(got)[:3]}... differs from the exhaustive scan {[t for t, _ in want][:3]}..."]


# ---------------------------------------------------------------------------
# Per-query invariants
# ---------------------------------------------------------------------------


def single_pass_restore(selected: Sequence[str], topk: Sequence[str], score: Callable[[str, str], float], tau: float) -> list[str]:
    """For each selected table, its best-scoring unselected candidate (first
    in rank order on ties) when that score is positive and at least tau;
    restored tables trigger no further lookups. Returned in rank order."""
    chosen = set(selected)
    unchosen = [t for t in topk if t not in chosen]
    restored = set()
    for t in (t for t in topk if t in chosen):
        best, best_score = None, 0.0
        for u in unchosen:
            s = score(t, u)
            if s > best_score:
                best, best_score = u, s
        if best is not None and best_score >= tau:
            restored.add(best)
    return [t for t in topk if t in restored]


def expected_pick(plan: dict, topk: Sequence[str]) -> list[str]:
    """The tables the planned model picks from this candidate list."""
    picked = [t for t in topk if t in plan["mention"]] or list(topk[:1])
    if plan["distractor"]:
        picked += [t for t in topk if t not in plan["gold_tables"] and t not in picked][:1]
    return [t for t in topk if t in picked]


def check_record(record: dict, plan: dict, score: Callable[[str, str], float], tau: float, k: int) -> tuple[list[str], bool]:
    """(problems, failed). ``failed`` marks the planted empty pick that the
    program accepts instead of falling back to the top-k."""
    qid = record["query_id"]
    topk, final = list(record["topk"]), list(record["final"])
    selected, restored = list(record["selected"]), list(record["restored"])
    problems = []
    if len(topk) != k:
        problems.append(f"{qid}: top-k holds {len(topk)} ids, expected {k}")
    if not set(final) <= set(topk):
        problems.append(f"{qid}: final set is not a subset of the top-k")
    if not set(selected) <= set(final):
        problems.append(f"{qid}: final set does not contain the pick")
    if plan["reply"] in ("malformed", "backend_error"):
        if not record["fallback_used"] or final != topk:
            problems.append(f"{qid}: planted {plan['reply']} reply did not fall back to the top-k")
        return problems, False
    if plan["reply"] == "empty_pick":
        if record["fallback_used"] and final == topk:
            return problems, False
        if not final and not selected and not record["fallback_used"]:
            return problems, True
        problems.append(f"{qid}: empty pick gave neither the top-k nor the known empty set")
        return problems, False
    if record["fallback_used"]:
        problems.append(f"{qid}: well-formed reply fell back")
        return problems, False
    if selected != expected_pick(plan, topk):
        problems.append(f"{qid}: pick {selected}, the reply named {expected_pick(plan, topk)}")
    want = single_pass_restore(selected, topk, score, tau)
    if restored != want:
        problems.append(f"{qid}: restored {restored}, single pass at tau gives {want}")
    if final != [t for t in topk if t in set(selected) | set(restored)]:
        problems.append(f"{qid}: final set is not pick plus restored in rank order")
    return problems, False


# ---------------------------------------------------------------------------
# Quality
# ---------------------------------------------------------------------------


def selection_quality(records: Sequence[dict], queries: Sequence[dict]) -> dict[str, float]:
    """Macro P/R/F1 and perfect recall in percent, one record per gold query."""
    by_id = {r["query_id"]: r for r in records}
    p = r = f = pr = 0.0
    for q in queries:
        final, gold = set(by_id[q["query_id"]]["final"]), set(q["gold_tables"])
        hits = len(final & gold)
        prec = hits / len(final) if final else 0.0
        rec = hits / len(gold)
        p += prec
        r += rec
        f += 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        pr += 1.0 if gold <= final else 0.0
    n = len(queries)
    return {"precision": 100 * p / n, "recall": 100 * r / n, "f1": 100 * f / n, "perfect_recall": 100 * pr / n}


def check_quality(records: Sequence[dict], queries: Sequence[dict], summary: Mapping[str, float], exec_rate: float) -> list[str]:
    """The program's selection summary and execution-match rate equal the
    benchmark's recomputation from its gold."""
    ids = [r["query_id"] for r in records]
    want_ids = [q["query_id"] for q in queries]
    if sorted(ids) != sorted(want_ids):
        return [f"results hold {len(ids)} records for {len(want_ids)} gold queries (one each expected)"]
    problems = []
    own = selection_quality(records, queries)
    for key, value in own.items():
        if abs(summary.get(key, float("nan")) - value) > TOLERANCE:
            problems.append(f"selection {key}: program reports {summary.get(key)}, recomputed {value}")
    if abs(exec_rate - own["perfect_recall"]) > TOLERANCE:
        problems.append(f"exec_match {exec_rate} differs from the share of covered gold sets {own['perfect_recall']}")
    return problems


def check_model_use(model_calls: int, model_tokens: int, program_calls: int, program_tokens: int) -> list[str]:
    """The program's generator and token ledger saw the calls and tokens the
    scripted model counted itself."""
    problems = []
    if model_calls != program_calls:
        problems.append(f"the generator recorded {program_calls} calls, the model answered {model_calls}")
    if model_tokens != program_tokens:
        problems.append(f"the token ledger holds {program_tokens} tokens, the model counted {model_tokens}")
    return problems


def check_repeat(first, again, what: str) -> list[str]:
    """The program is deterministic: repeating the same step on the same
    inputs gives the same output (artifact bytes, result records)."""
    return [] if again == first else [f"a repeated {what} gave a different output"]


# ---------------------------------------------------------------------------
# Growing a built pool
# ---------------------------------------------------------------------------


def grid_header(columns: Sequence[str]) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in columns) + " |"


def check_grow(texts: Mapping[str, str], index_ids: Sequence[str], tables: Mapping[str, dict],
               purpose_calls: int, new_ids: Sequence[str], stale_ids: Sequence[str]) -> tuple[list[str], list[str]]:
    """(problems, failed ids). Purpose calls go only to ids new to the store,
    and each id's indexed text shows the grid of the table that holds the id
    now; ids the known stale-store fault keeps on an older table are the
    failed ones."""
    problems, failed = [], []
    if purpose_calls != len(new_ids):
        problems.append(f"grow made {purpose_calls} purpose calls for {len(new_ids)} new ids")
    if sorted(index_ids) != sorted(tables):
        problems.append(f"index holds {len(index_ids)} ids for {len(tables)} tables")
    for tid, t in sorted(tables.items()):
        text = texts.get(tid)
        if text is not None and f"Table content: {grid_header(t['columns'])}\n" in text:
            continue
        if tid in stale_ids and text is not None:
            failed.append(tid)
        else:
            problems.append(f"indexed text for {tid} does not show its table's grid")
    return problems, failed

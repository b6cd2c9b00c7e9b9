"""Deterministic synthetic multi-source table corpora for the benchmark.

``make_plan(workload, seed, out_dir)`` writes the program's inputs (CSV
directories and SQLite files, pooled under source labels) plus a SQLite copy
of each pool for executing SQL, and returns the plan: every table under the
id the pooling rule gives it, the planted key/foreign-key joins, and the gold
queries with gold SQL. The plan is the benchmark's own record of what it
planted; the checks compare the program's outputs against it.

The seed gives the cell values: attribute values, which parent keys each
foreign key covers, and row order. The schema does not depend on it: table
and column names and counts, row counts, the join graph, which names collide
across sources, which joins are hard, and the gold queries with the reply
planted at each position. So every seed asks the program for the same work,
the share of failed operations is the same, and the quality figures move
only as far as the data moves retrieval. The fixture tables and the
questions about them do not depend on the seed at all.

Run as a script it writes the inputs and the plan (``plan.json``) into
``--out``; the benchmark does this in a child process so the generator's
memory does not count towards the program's peak RSS.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sqlite3
from pathlib import Path

DOMAINS = (
    "harbor", "summit", "meadow", "canyon", "delta", "prairie", "tundra", "lagoon",
    "orchard", "quarry", "glacier", "savanna", "marsh", "plateau", "fjord", "bayou",
    "mesa", "steppe", "atoll", "grove", "ridge", "basin", "cove", "dune",
    "estuary", "forest", "garden", "heath", "inlet", "jungle", "knoll", "lake",
    "moor", "nook", "oasis", "peak", "reef", "shore", "terrace", "upland",
    "vale", "wharf", "yard", "zenith", "alpine", "boreal", "coastal", "desert",
    "everglade", "foothill",
)
ENTITIES = (
    "invoice", "customer", "shipment", "product", "supplier", "payment", "account",
    "station", "reading", "patient", "visit", "ticket", "vessel", "voyage",
    "employee", "branch", "lease", "claim", "policy", "sensor", "device",
    "order", "warehouse", "route", "courier", "trip", "member", "loan",
    "course", "student", "exam", "grade", "flight", "crew", "airport",
    "batch", "lot", "recipe", "menu", "event",
)
ATTRS = ("name", "status", "amount", "date", "note", "level", "score", "region")
STATUS = ("open", "closed", "pending", "held", "void", "draft")
REGIONS = ("north", "south", "east", "west", "central")

#: Query positions repeat with this period; each position's reply kind is fixed.
PERIOD = 20
MALFORMED_AT = 3
BACKEND_ERROR_AT = 11
EMPTY_PICK_AT = 19
DISTRACTOR_EVERY = 5
KINDS = ("single", "pair_full", "pair_partial", "chain")

# Seed-independent fixture tables. ``orders``/``customers`` live in every
# pool; the grow workload's new source repeats both names with other columns.
FIXTURE_SOURCE = "zz_shop"
FIXTURES = {
    "customers": (
        ["customer_id", "name", "city"],
        [[f"C{i:03d}", n, c] for i, (n, c) in enumerate(
            [("Ada", "Oslo"), ("Bo", "Lima"), ("Cy", "Kobe"), ("Di", "Oslo"),
             ("Ed", "Lima"), ("Flo", "Pune"), ("Gus", "Kobe"), ("Hal", "Pune")]
        )],
    ),
    "orders": (
        ["order_id", "customer_id", "total"],
        [[f"O{i:04d}", f"C{(i * 3) % 6:03d}", f"{5 + (i * 7) % 40}.50"] for i in range(24)],
    ),
}
FIXTURE_JOIN = ("orders", "customer_id", "customers", "customer_id")
NEW_SOURCE = "aa_new"
NEW_FIXTURES = {
    "orders": (["sku", "price"], [[f"S{i:03d}", f"{1 + i}.25"] for i in range(12)]),
    "customers": (["region", "manager"], [["north", "Ivo"], ["south", "Jo"], ["west", "Kit"]]),
}

#: Generated sources: (label, kind, share of generated tables).
SOURCES = [("b_ledger", "csv", 0.4), ("c_archive", "sqlite", 0.3), ("d_ops", "csv", 0.3)]

# Pool shapes.
SHAPES = {
    "build": dict(
        tables=32, cols=8, rows=(100, 140), fks=3, root_every=8, hard_every=7,
        collisions=3, queries=200,
    ),
    "serve": dict(
        tables=600, cols=2, rows=(4, 4), fks=1, root_every=3, hard_every=8,
        collisions=20, queries=200,
    ),
    "grow": dict(
        tables=90, cols=4, rows=(16, 24), fks=2, root_every=6, hard_every=7,
        collisions=6, queries=200, new_tables=12,
    ),
}


def pooled_ids(sources: list[tuple[str, list[str]]]) -> list[tuple[str, str, str]]:
    """(label, source table name, pooled id) under the documented pooling rule:
    sources in sorted label order, the first table keeps its name and later
    ones get ``__2``, ``__3``, ..."""
    taken: set[str] = set()
    out = []
    for label, names in sorted(sources, key=lambda s: s[0]):
        for name in names:
            pid = name
            if pid in taken:
                k = 2
                while f"{name}__{k}" in taken:
                    k += 1
                pid = f"{name}__{k}"
            taken.add(pid)
            out.append((label, name, pid))
    return out


class _Pool:
    """Generated tables keyed by their logical index, before pooling."""

    def __init__(self, rng: random.Random, schema_rng: random.Random, shape: dict):
        self.rng = rng
        self.schema_rng = schema_rng
        self.shape = shape
        self.names: list[str] = []
        self.columns: list[list[str]] = []
        self.rows: list[list[list[str | None]]] = []
        self.fks: list[list[tuple[int, int, bool]]] = []  # (fk column, parent index, hard)
        self.attr: list[int | None] = []  # position of a non-NULL attribute column

    def name_pool(self, count: int) -> list[str]:
        combos = [f"{d}_{e}" for d in DOMAINS for e in ENTITIES]
        return self.schema_rng.sample(combos, count)

    def generate(self, count: int, names: list[str], first_fk_index: int = 0, parents: int | None = None) -> None:
        """Append ``count`` tables; FKs point at earlier tables (or, when
        ``parents`` is given, at the first ``parents`` tables)."""
        shape, rng = self.shape, self.rng
        fk_counter = first_fk_index
        for n in range(count):
            i = len(self.names)
            name = names[n]
            entity = name.split("_", 1)[1]
            code = f"{i:04d}"
            lo, hi = shape["rows"]
            n_rows = lo + (7 * i) % (hi - lo + 1)
            earlier = i if parents is None else parents
            n_fks = 0 if (parents is None and i % shape["root_every"] == 0) else min(earlier, shape["fks"], shape["cols"] - 1)
            cols = [f"{entity}_id"]
            data = [[f"K{code}x{r:04d}" for r in range(n_rows)]]
            fks = []
            for parent in self.schema_rng.sample(range(earlier), n_fks):
                hard = fk_counter % shape["hard_every"] == shape["hard_every"] - 1
                fk_counter += 1
                p_entity = self.names[parent].split("_", 1)[1]
                col = f"{p_entity}_ref" if hard else f"{p_entity}_id"
                if col in cols:
                    col = f"{self.names[parent]}_{'ref' if hard else 'id'}"
                keys = self.key_values(parent)
                share = 0.2 if hard else 0.6
                subset = rng.sample(keys, max(1, min(len(keys), n_rows - 1, round(share * len(keys)))))
                values = subset + [rng.choice(subset) for _ in range(n_rows - len(subset))]
                rng.shuffle(values)
                fks.append((len(cols), parent, hard))
                cols.append(col)
                data.append(values)
            attr_pos = None
            for a in range(shape["cols"] - len(cols)):
                attr = ATTRS[(i + a) % len(ATTRS)]
                cols.append(f"{entity}_{attr}")
                data.append(self.attr_values(attr, code, n_rows))
                if attr_pos is None and attr != "note":
                    attr_pos = len(cols) - 1
            self.names.append(name)
            self.columns.append(cols)
            self.rows.append([list(r) for r in zip(*data)])
            self.fks.append(fks)
            self.attr.append(attr_pos)

    def attr_values(self, attr: str, code: str, n: int) -> list[str | None]:
        rng = self.rng
        if self.shape["rows"][1] <= 8:
            # thin tables: per-table values so no accidental cross-table containment
            return [f"{attr[:2]}{code}v{rng.randint(0, 9)}" for _ in range(n)]
        if attr == "status":
            return [rng.choice(STATUS) for _ in range(n)]
        if attr == "region":
            return [rng.choice(REGIONS) for _ in range(n)]
        if attr == "amount":
            return [f"{rng.uniform(1, 900):.2f}" for _ in range(n)]
        if attr == "date":
            return [f"2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}" for _ in range(n)]
        if attr == "note":
            return [None if rng.random() < 0.15 else f"n{code}-{rng.randint(0, 99)}" for _ in range(n)]
        return [f"{attr[:2]}{code}-{rng.randint(0, n // 2)}" for _ in range(n)]

    def key_values(self, i: int) -> list[str]:
        return [row[0] for row in self.rows[i]]


def _write_source(base: Path, label: str, kind: str, tables: list[tuple[str, list[str], list[list]]]) -> dict:
    if kind == "csv":
        directory = base / label
        directory.mkdir(parents=True, exist_ok=True)
        for name, cols, rows in tables:
            with (directory / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(cols)
                writer.writerows([["" if v is None else v for v in row] for row in rows])
        return {"label": label, "kind": "csv-dir", "path": str(directory)}
    path = base / f"{label}.sqlite"
    _write_sqlite(path, tables)
    return {"label": label, "kind": "sqlite-file", "path": str(path)}


def _write_sqlite(path: Path, tables: list[tuple[str, list[str], list[list]]]) -> None:
    path.unlink(missing_ok=True)
    conn = sqlite3.connect(path)
    try:
        for name, cols, rows in tables:
            col_sql = ", ".join(f'"{c}" TEXT' for c in cols)
            conn.execute(f'CREATE TABLE "{name}" ({col_sql})')
            marks = ", ".join("?" for _ in cols)
            conn.executemany(f'INSERT INTO "{name}" VALUES ({marks})', rows)
        conn.commit()
    finally:
        conn.close()


def _layout(indices: list[int]) -> dict[str, list[int]]:
    """Split generated tables over the sources by their shares."""
    labels = [s[0] for s in SOURCES]
    by_label: dict[str, list[int]] = {label: [] for label in labels}
    cut = 0
    for j, (label, _, share) in enumerate(SOURCES):
        end = len(indices) if j == len(labels) - 1 else cut + round(share * len(indices))
        by_label[label] = indices[cut:end]
        cut = end
    return by_label


def make_plan(workload: str, seed: int, out_dir: str | Path) -> dict:
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SHAPES[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    schema_rng = random.Random(f"{workload}:schema")
    pool = _Pool(rng, schema_rng, shape)
    n = shape["tables"]
    extra = shape.get("new_tables", 0)
    names = pool.name_pool(n + extra)
    pool.generate(n, names[:n])
    by_label = _layout(list(range(n)))
    labels = list(by_label)
    for c in range(shape["collisions"]):
        # a table of a later source takes the name of a table of the first one
        a = by_label[labels[0]][c]
        b = by_label[labels[1 + c % (len(labels) - 1)]][c + 1]
        pool.names[b] = pool.names[a]

    def source_tables(label: str) -> list[tuple[str, list[str], list[list]]]:
        return [(pool.names[i], pool.columns[i], pool.rows[i]) for i in by_label[label]]

    base_sources = [(label, [pool.names[i] for i in by_label[label]]) for label in labels]
    base_sources.append((FIXTURE_SOURCE, list(FIXTURES)))
    src_dir = out / "sources"
    sources = [
        _write_source(src_dir, label, kind, source_tables(label))
        for label, kind, _ in SOURCES
    ]
    sources.append(_write_source(src_dir, FIXTURE_SOURCE, "csv", [(k, c, r) for k, (c, r) in FIXTURES.items()]))

    def pool_view(source_list, owners):
        """Tables keyed by pooled id, plus (label, name) -> pooled id."""
        tables, ids = {}, {}
        for label, name, pid in pooled_ids(source_list):
            owner = owners[(label, name)]
            cols, rows = owner
            tables[pid] = {"columns": cols, "rows": rows, "source": label}
            ids[(label, name)] = pid
        return tables, ids

    owners = {(label, pool.names[i]): (pool.columns[i], pool.rows[i]) for label in labels for i in by_label[label]}
    owners.update({(FIXTURE_SOURCE, k): v for k, v in FIXTURES.items()})

    plan: dict = {"workload": workload, "seed": seed, "sources": sources}
    base_tables, base_ids = pool_view(base_sources, owners)
    plan["base"] = _pool_plan(pool, base_tables, base_ids, by_label)
    final_sources, final_owners = base_sources, owners
    if workload == "grow":
        # a new source that sorts first, repeats the fixture names with other
        # columns, and adds tables joined to base tables
        pool.generate(extra, names[n:], first_fk_index=10_000, parents=n)
        new_idx = list(range(n, n + extra))
        new_tables = [(k, c, r) for k, (c, r) in NEW_FIXTURES.items()]
        new_tables += [(pool.names[i], pool.columns[i], pool.rows[i]) for i in new_idx]
        plan["new_source"] = _write_source(src_dir, NEW_SOURCE, "csv", new_tables)
        final_sources = base_sources + [(NEW_SOURCE, [t[0] for t in new_tables])]
        final_owners = dict(owners)
        final_owners.update({(NEW_SOURCE, k): v for k, v in NEW_FIXTURES.items()})
        final_owners.update({(NEW_SOURCE, pool.names[i]): (pool.columns[i], pool.rows[i]) for i in new_idx})
        by_label[NEW_SOURCE] = new_idx
        grown_tables, grown_ids = pool_view(final_sources, final_owners)
        plan["grown"] = _pool_plan(pool, grown_tables, grown_ids, by_label)
        # ids the base store already holds that now name a table with other columns
        plan["stale_ids"] = sorted(
            pid for pid in base_tables
            if pid in grown_tables and grown_tables[pid]["columns"] != base_tables[pid]["columns"]
        )
        plan["new_ids"] = sorted(set(grown_tables) - set(base_tables))
    final = plan.get("grown", plan["base"])
    db = out / "pool.sqlite"
    _write_sqlite(db, [(pid, t["columns"], t["rows"]) for pid, t in sorted(final["tables"].items())])
    plan["db"] = str(db)
    plan["queries"] = _queries(workload, schema_rng, final, shape["queries"])
    return plan


def _pool_plan(pool: _Pool, tables: dict, ids: dict, by_label: dict) -> dict:
    pid_of = {}
    for label, indices in by_label.items():
        for i in indices:
            pid_of[i] = ids[(label, pool.names[i])]
    joins = []
    for i, fks in enumerate(pool.fks):
        if i not in pid_of:
            continue
        for col, parent, hard in fks:
            joins.append({
                "child": pid_of[i], "child_column": pool.columns[i][col],
                "parent": pid_of[parent], "parent_column": pool.columns[parent][0],
                "hard": hard,
            })
    fa, fa_col, fb, fb_col = FIXTURE_JOIN
    joins.append({
        "child": ids[(FIXTURE_SOURCE, fa)], "child_column": fa_col,
        "parent": ids[(FIXTURE_SOURCE, fb)], "parent_column": fb_col, "hard": False,
    })
    attrs = {pid_of[i]: pool.columns[i][pool.attr[i]] for i in pid_of if pool.attr[i] is not None}
    return {"tables": tables, "joins": joins, "attrs": attrs}


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _queries(workload: str, rng: random.Random, pool_plan: dict, count: int) -> list[dict]:
    """Gold queries; position i's kind and reply depend on i alone."""
    tables = pool_plan["tables"]
    easy = [j for j in pool_plan["joins"] if not j["hard"] and j["child"] in tables and j["parent"] in tables]
    by_child: dict[str, list[dict]] = {}
    for j in easy:
        by_child.setdefault(j["child"], []).append(j)
    chains = [(j, k) for j in easy for k in by_child.get(j["parent"], []) if k["parent"] != j["child"]]
    singles = sorted(pool_plan["attrs"])
    queries = []
    for i in range(count):
        reply = "normal"
        if i % PERIOD == MALFORMED_AT:
            reply = "malformed"
        elif i % PERIOD == BACKEND_ERROR_AT:
            reply = "backend_error"
        qid = f"q{i:03d}"
        if workload == "serve" and i % PERIOD == EMPTY_PICK_AT:
            n = i // PERIOD
            queries.append({
                "query_id": qid,
                "question": f"{qid}: fixture check {n}, total of orders per customers name",
                "gold_tables": ["customers", "orders"],
                "gold_sql": (
                    'SELECT c."name", SUM(CAST(o."total" AS REAL)) FROM "orders" AS o '
                    'JOIN "customers" AS c ON o."customer_id" = c."customer_id" GROUP BY c."name"'
                ),
                "reply": "empty_pick", "mention": ["orders", "customers"], "distractor": False,
            })
            continue
        kind = KINDS[i % len(KINDS)]
        if kind == "chain" and not chains:
            kind = "pair_partial"
        if kind == "single":
            t = rng.choice(singles)
            a = pool_plan["attrs"][t]
            q = dict(
                question=f"{qid}: how many {t} rows have a {a}?",
                gold_tables=[t], mention=[t],
                gold_sql=f"SELECT COUNT(*) FROM {_q(t)} WHERE {_q(a)} IS NOT NULL",
            )
        elif kind in ("pair_full", "pair_partial"):
            j = rng.choice(easy)
            c, p = j["child"], j["parent"]
            sql = (
                f"SELECT p.{_q(j['parent_column'])}, COUNT(*) FROM {_q(c)} AS c JOIN {_q(p)} AS p "
                f"ON c.{_q(j['child_column'])} = p.{_q(j['parent_column'])} GROUP BY 1"
            )
            if kind == "pair_full":
                text = f"for each {p} {j['parent_column']}, how many {c} rows reference it?"
                mention = [c, p]
            else:
                text = f"how many {c} rows are there per {j['child_column']} of {p}?"
                mention = [c]
            q = dict(question=f"{qid}: {text}", gold_tables=sorted({c, p}), mention=mention, gold_sql=sql)
        else:
            j, k = rng.choice(chains)
            c, p, g = j["child"], j["parent"], k["parent"]
            sql = (
                f"SELECT g.{_q(k['parent_column'])}, COUNT(*) FROM {_q(c)} AS c "
                f"JOIN {_q(p)} AS p ON c.{_q(j['child_column'])} = p.{_q(j['parent_column'])} "
                f"JOIN {_q(g)} AS g ON p.{_q(k['child_column'])} = g.{_q(k['parent_column'])} GROUP BY 1"
            )
            q = dict(
                question=f"{qid}: how many {c} rows belong to each {g} {k['parent_column']} through {p}?",
                gold_tables=sorted({c, p, g}), mention=[c, g], gold_sql=sql,
            )
        q.update(query_id=qid, reply=reply, distractor=i % DISTRACTOR_EVERY == 2)
        queries.append(q)
    return queries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs and plan.json")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    plan = make_plan(args.workload, args.seed, args.out)
    Path(args.out, "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

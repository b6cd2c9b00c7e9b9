"""The scripted model behind ``ScriptedGenerator(reply=...)``.

It answers the three prompt kinds the program sends, instantly and from the
benchmark's plan, and keeps its own count of calls and tokens so the
program's token ledger can be checked against it:

* purpose prompts get a one-line purpose built from the table name, or
  ``None`` for a fixed share of tables;
* selection prompts get one group holding the candidates the question
  mentions by name (plus one distractor on some positions), or the planted
  malformed, ``BackendError`` or empty-pick reply for that query position;
* SQL prompts get the gold SQL when every gold table was handed over.
  Otherwise they get a statement over the first table handed over, as a
  model given the wrong tables writes one, that cannot match the gold rows.
  SQLite reads a database's schema for a statement that names a table, so
  either kind makes the SQL stage read it.
"""

from __future__ import annotations

import json
import re
import zlib

from tablescout.errors import BackendError
from tablescout.evaluation import SQL_PROMPT_TEMPLATE
from tablescout.indexing import PURPOSE_PROMPT
from tablescout.prompts import SELECTION_PROMPT_TEMPLATE

PURPOSE_PREFIX = PURPOSE_PROMPT.split("{table}")[0]
SQL_PREFIX = SQL_PROMPT_TEMPLATE.split("{question}")[0]
SELECTION_PREFIX = SELECTION_PROMPT_TEMPLATE.split("\n", 1)[0]
NO_ANSWER_SQL = "SELECT 'unanswerable'"
MALFORMED_REPLY = "I could not decide which tables to use."

_NAME = re.compile(r"^Table name: (.+)$", re.M)
_CANDIDATE = re.compile(r"^Table (\d+):\nTable name: (.+)$", re.M)
_QUERY = re.compile(r"^- \*\*Query\*\*: (.*)$", re.M)
_SQL_QUESTION = re.compile(r"^Question: (.*)$", re.M)


def count_tokens(text: str) -> int:
    """Whitespace tokens, the unit the scripted backend reports."""
    return len(text.split())


class PlannedModel:
    """Deterministic replies keyed by the question text of each planned query."""

    def __init__(self, queries: list[dict]):
        self.by_question = {q["question"]: q for q in queries}
        self.calls = 0
        self.tokens = 0
        self.purpose_calls = 0

    def reset(self) -> None:
        self.calls = self.tokens = self.purpose_calls = 0

    def __call__(self, prompt: str) -> str:
        self.calls += 1
        if prompt.startswith(PURPOSE_PREFIX):
            self.purpose_calls += 1
            text = self._purpose(prompt)
        elif prompt.startswith(SELECTION_PREFIX):
            text = self._selection(prompt)
        elif prompt.startswith(SQL_PREFIX):
            text = self._sql(prompt)
        else:
            raise ValueError("prompt of unknown kind")
        self.tokens += count_tokens(prompt) + count_tokens(text)
        return text

    @staticmethod
    def _purpose(prompt: str) -> str:
        name = _NAME.search(prompt).group(1)
        if zlib.crc32(name.encode()) % 10 == 0:
            return "None"
        base = name.split("__")[0]
        words = base.replace("_", " ")
        return f"The {base} table records {words} entities, one row per {words.split()[-1]}; see {base} rows."

    def _selection(self, prompt: str) -> str:
        plan = self.by_question[_QUERY.search(prompt).group(1)]
        if plan["reply"] == "malformed":
            return MALFORMED_REPLY
        if plan["reply"] == "backend_error":
            raise BackendError("planted backend failure")
        tables = prompt.split("- **Tables**:", 1)[1].split("\n- **Compatibility analysis", 1)[0]
        candidates = [(int(i), name) for i, name in _CANDIDATE.findall(tables)]
        if plan["reply"] == "empty_pick":
            picked: list[int] = []
        else:
            picked = [i for i, name in candidates if name in plan["mention"]] or [0]
            if plan["distractor"]:
                extra = [i for i, name in candidates if name not in plan["gold_tables"] and i not in picked]
                picked += extra[:1]
        reply = {
            "group_formation": {"groups_formed": [{"group_index": 0, "table_indices": sorted(picked)}]},
            "group_selection": {"selected_group_index": 0},
        }
        return json.dumps(reply)

    def _sql(self, prompt: str) -> str:
        plan = self.by_question[_SQL_QUESTION.search(prompt).group(1)]
        body = prompt.split("\nTables:\n", 1)[1]
        shown = _NAME.findall(body)
        if set(plan["gold_tables"]) <= set(shown):
            return plan["gold_sql"]
        if not shown:
            return NO_ANSWER_SQL
        table = shown[0].replace('"', '""')
        return f"{NO_ANSWER_SQL} FROM \"{table}\" LIMIT 1"

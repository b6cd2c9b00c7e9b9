"""Join-aware multi-table retrieval for open-book text-to-SQL.

Offline, tables from many sources are pooled into one corpus, enriched with
generated purpose descriptions, embedded into a dense index, and scored
pairwise for join compatibility. Online, a query retrieves its top-k tables,
one generation call selects a joinable subset, and a restoration pass adds
back strongly compatible candidates. An evaluation harness scores selections,
checks SQL execution matches, and accounts for token costs.

The package root re-exports the names a caller needs to run each stage and
the error types; everything else is imported from its module.
"""

from .compatibility import CompatibilityCache, build_cache, column_pair_score
from .corpus import Table, TableCorpus, markdown_grid, pool_corpora, sample_rows, serialize_markdown
from .errors import (
    BackendError,
    ConfigError,
    CorpusError,
    SelectionParseError,
    TablescoutError,
)
from .evaluation import (
    CostLedger,
    ExecutionOutcome,
    aggregate_metrics,
    cost_estimate,
    execution_match,
    generate_sql,
    render_execution_table,
    render_metrics_table,
    selection_metrics,
    stratified_execution_summary,
)
from .indexing import DenseIndex, enrich_tables, enriched_text
from .pipeline import OnlinePipeline, record_line, result_record
from .services import HashingEmbedder, ScriptedGenerator, TokenLedger

__version__ = "0.1.0"

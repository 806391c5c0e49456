"""Sapphire core: initialization, cache, QCM, QSM, server façade."""

from .answer_table import AnswerTable
from .cache import CachedTerm, CacheReader, SapphireCache
from .cache_tiered import LazyTermDictionary, TieredSapphireCache
from .config import SapphireConfig
from .initialization import EndpointInitializer, InitializationReport, initialize_endpoint
from .persistence import load_cache, load_store, save_cache, save_store
from .probes import PROBE_VAR, ProbeBatcher, build_probe_query
from .qcm import Completion, CompletionResult, QueryCompletionModule
from .qsm_relax import Edge, GraphExpander, RelaxationSuggestion, StructureRelaxer
from .qsm_terms import AlternativeTermsFinder, TermSuggestion
from .sapphire import QueryBuilder, QueryOutcome, SapphireServer
from .session import HistoryEntry, SapphireSession

__all__ = [
    "AnswerTable",
    "save_cache",
    "load_cache",
    "save_store",
    "load_store",
    "PROBE_VAR",
    "ProbeBatcher",
    "build_probe_query",
    "SapphireConfig",
    "CacheReader",
    "SapphireCache",
    "TieredSapphireCache",
    "LazyTermDictionary",
    "CachedTerm",
    "EndpointInitializer",
    "InitializationReport",
    "initialize_endpoint",
    "QueryCompletionModule",
    "Completion",
    "CompletionResult",
    "AlternativeTermsFinder",
    "TermSuggestion",
    "StructureRelaxer",
    "RelaxationSuggestion",
    "GraphExpander",
    "Edge",
    "QueryBuilder",
    "QueryOutcome",
    "SapphireServer",
    "SapphireSession",
    "HistoryEntry",
]

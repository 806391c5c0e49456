"""Sapphire reproduction: interactive SPARQL query assistance over RDF.

This library reproduces "Sapphire: Querying RDF Data Made Simple"
(El-Roby, Ammar, Aboulnaga, Lin — VLDB 2016) end to end:

* ``repro.rdf`` / ``repro.store`` / ``repro.sparql`` — the RDF + SPARQL
  substrate (terms, triple store, query engine),
* ``repro.endpoint`` / ``repro.federation`` — the remote-endpoint
  simulator and a FedX-style federated query processor,
* ``repro.text`` — suffix tree, residual bins, similarity, lexicon,
* ``repro.data`` — the synthetic mini-DBpedia and the QALD-style workload,
* ``repro.core`` — Sapphire itself: initialization, cache, QCM, QSM,
  the server façade,
* ``repro.baselines`` — QAKiS, KBQA, S4 and SPARQLByE re-implementations,
* ``repro.eval`` — QALD metrics, the Table 1 harness, the simulated
  user study behind Figures 8–11.

Quickstart::

    from repro import quickstart_server

    server, dataset = quickstart_server()
    print(server.complete("spo").surfaces())          # QCM
    outcome = server.run_query(
        'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
    )
    print(outcome.answers.rows)
"""

from __future__ import annotations

from typing import Optional, Tuple

from .core.answer_table import AnswerTable
from .core.cache import SapphireCache
from .core.config import SapphireConfig
from .core.initialization import InitializationReport, initialize_endpoint
from .core.persistence import load_cache, load_store, save_cache, save_store
from .core.qcm import QueryCompletionModule
from .core.qsm_relax import StructureRelaxer
from .core.qsm_terms import AlternativeTermsFinder
from .core.sapphire import QueryBuilder, QueryOutcome, SapphireServer
from .data.generator import DatasetConfig, SyntheticDataset, build_dataset
from .endpoint.endpoint import EndpointConfig, SparqlEndpoint
from .federation.fedx import FederatedQueryProcessor
from .net import HttpSparqlEndpoint, SparqlHttpServer
from .rdf import IRI, BlankNode, Literal, Triple, TriplePattern, Variable
from .sparql import evaluate, parse_query
from .store import MemoryBackend, SQLiteBackend, TermDictionary, TripleStore

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SapphireServer",
    "SapphireConfig",
    "SapphireCache",
    "AnswerTable",
    "save_cache",
    "load_cache",
    "save_store",
    "load_store",
    "QueryBuilder",
    "QueryOutcome",
    "QueryCompletionModule",
    "AlternativeTermsFinder",
    "StructureRelaxer",
    "initialize_endpoint",
    "InitializationReport",
    "SparqlEndpoint",
    "EndpointConfig",
    "FederatedQueryProcessor",
    "SparqlHttpServer",
    "HttpSparqlEndpoint",
    "TripleStore",
    "TermDictionary",
    "MemoryBackend",
    "SQLiteBackend",
    "parse_query",
    "evaluate",
    "IRI",
    "Literal",
    "BlankNode",
    "Variable",
    "Triple",
    "TriplePattern",
    "DatasetConfig",
    "SyntheticDataset",
    "build_dataset",
    "quickstart_server",
]


def quickstart_server(
    dataset_config: Optional[DatasetConfig] = None,
    sapphire_config: Optional[SapphireConfig] = None,
    endpoint_config: Optional[EndpointConfig] = None,
) -> Tuple[SapphireServer, SyntheticDataset]:
    """Build a synthetic dataset, wrap it in an endpoint, register it with
    a fresh Sapphire server, and return both — the three lines every
    example starts with."""
    config = sapphire_config or SapphireConfig(suffix_tree_capacity=500)
    dataset = build_dataset(dataset_config or DatasetConfig.tiny())
    endpoint = SparqlEndpoint(
        dataset.store,
        endpoint_config or EndpointConfig(timeout_s=1.0),
        name="dbpedia-mini",
    )
    server = SapphireServer(config)
    server.register_endpoint(endpoint)
    return server, dataset

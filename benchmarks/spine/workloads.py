"""The four replayed workloads: seeded request lists and nothing else.

A request is a plain dict (JSON-able, so lists are byte-comparable)::

    {"id": 17, "kind": "suggest_fix", "tag": "literal_typo",
     "session": "s0003", "query": "SELECT ..."}

``kind`` is the end-to-end metric family the latency sample lands in
(``complete`` / ``suggest_fix`` / ``suggest_run`` / ``sparql``); the HTTP
route follows from it.  A workload is two lists (:meth:`Workload.lists`):
its *mix*, which is the workload, and for the one-route workloads a short
fixed *off-mix block* replayed before and after the mix is measured (see
:func:`_off_mix`).

``--seed`` drives script generation, typos and parameter draws only.  The
dataset seed stays 42: it is a fixture of the program, not an input.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data import DatasetConfig, build_dataset
from repro.data.questions import QUESTIONS
from repro.eval.replay import ReplayConfig, SessionScript, corrupt_literal, generate_scripts

Request = Dict[str, object]

DEFAULT_SEED = 2016
#: The off-mix blocks are the same on every seed, so their metrics move
#: only with the program, not with the draw.
OFF_MIX_SEED = 2016

KINDS = ("complete", "suggest_fix", "suggest_run", "sparql")
ROUTE_OF = {"complete": "complete", "suggest_fix": "suggest",
            "suggest_run": "suggest", "sparql": "sparql"}


@dataclass(frozen=True)
class Sizing:
    """How big one run is.  ``full`` is what BENCHMARK.json's end-to-end
    metrics are measured on; ``traced`` is the shorter list the traced run
    peels (a layer budget is per request, and the driver gives one run
    180 s); ``smoke`` lets the test suite drive every code path in
    seconds."""

    name: str
    session_scale: str      # dataset of session_mix / sparql_analytic / replica_mix
    repair_scale: str       # dataset of qsm_repair
    n_sessions: int
    n_repairs: int          # qsm_repair requests, of 3 variants x len(QUESTIONS)
    analytic_rounds: int    # parameter draws per heavy sparql template
    point_lookups: int
    off_mix: Dict[str, int]     # off-mix requests per kind
    setups: int             # timed set-ups per run (median reported)


#: One pass of a full mix takes 7-9 s on the 2-core reference box for the
#: three session/repair workloads, so ``run_seconds`` (10) holds one
#: measured pass of them (ISSUE 11: "cut passes, not workloads") and six to
#: eight of ``sparql_analytic``.  README.md, "Fitted to the driver", has the
#: arithmetic that puts the sessions at 80, not the issue's 120.
FULL = Sizing("full", "medium", "small", n_sessions=80, n_repairs=3 * len(QUESTIONS),
              analytic_rounds=16, point_lookups=68, setups=3,
              off_mix={"complete": 200, "suggest_fix": 30, "suggest_run": 60, "sparql": 60})
TRACED = replace(FULL, name="traced", n_sessions=20, n_repairs=len(QUESTIONS))
SMOKE = Sizing("smoke", "tiny", "tiny", n_sessions=6, n_repairs=6,
               analytic_rounds=1, point_lookups=8, setups=1,
               off_mix={"complete": 8, "suggest_fix": 2, "suggest_run": 2, "sparql": 2})


@dataclass(frozen=True)
class Workload:
    name: str
    #: "memory" = one in-memory SapphireServer behind SparqlHttpServer;
    #: "prefork" = prepare_snapshots + PreforkServer (2 workers, 2 shards).
    serving: str
    clients: int
    tree_capacity: int
    scale_of: Callable[[Sizing], str]
    mix: Callable[[int, Sizing], List[Request]]
    #: The kinds the mix does not send, which the off-mix block covers.
    off_mix_kinds: Tuple[str, ...] = ()

    def scale(self, sizing: Sizing) -> str:
        return self.scale_of(sizing)

    def lists(self, seed: int, sizing: Sizing) -> Tuple[List[Request], List[Request]]:
        """``(mix, off-mix block)``, ids running through both."""
        mix = self.mix(seed, sizing)
        block = _off_mix(self.off_mix_kinds, sizing)
        for index, request in enumerate(mix + block):
            request["id"] = index
        return mix, block


# ----------------------------------------------------------------------
# Session scripts -> requests (session_mix, replica_mix, off-mix blocks)
# ----------------------------------------------------------------------

def _script_requests(scripts: Iterable[SessionScript], session_prefix: str = "") -> List[Request]:
    """Flatten session scripts into requests, in script order."""
    requests: List[Request] = []
    for script in scripts:
        for event in script.events:
            route = str(event["route"])
            request: Request = {"session": session_prefix + script.session}
            if route == "complete":
                request.update(kind="complete", tag="keystroke",
                               text=event["text"], k=event["k"])
            elif route == "suggest":
                fix = bool(event["suggest"])
                request.update(kind="suggest_fix" if fix else "suggest_run",
                               tag="broken_literal" if fix else "gold_rerun",
                               query=event["query"])
            else:
                request.update(kind="sparql", tag="closing", query=event["query"])
            requests.append(request)
    return requests


#: Which question each session asks comes from this seed on every run;
#: ``--seed`` draws the persona, the keystrokes and the typos.
MIX_SEED = 2016


def _session_mix(seed: int, sizing: Sizing) -> List[Request]:
    """The sessions ``generate_scripts`` writes for ``seed``.

    A /suggest repair costs from a third of to seven times the median
    depending on the question, and the questions are zipf draws: between
    seeds the work per session alone spreads by 7-15 % even at 120
    sessions, before the machine adds anything.  The *number of sessions
    per question* is therefore held to what ``MIX_SEED`` draws, and filled
    with the first sessions on those questions that ``seed`` generates.
    """
    n_sessions = sizing.n_sessions
    quota = Counter(script.qid for script in
                    generate_scripts(ReplayConfig(seed=MIX_SEED, n_sessions=n_sessions)))
    chosen: List[SessionScript] = []
    for script in generate_scripts(ReplayConfig(seed=seed, n_sessions=40 * n_sessions)):
        if quota[script.qid]:
            quota[script.qid] -= 1
            chosen.append(script)
    if sum(quota.values()):
        raise RuntimeError(f"seed {seed}: no session generated for {+quota}")
    return _script_requests(chosen)


def _off_mix(kinds: Sequence[str], sizing: Sizing) -> List[Request]:
    """A fixed list (the same on every seed) on the routes a one-route
    workload's mix does not use, taken from the session scripts.

    The driver behind BENCHMARK.json has every workload report every
    end-to-end metric, and rejects a constant.  So ``qsm_repair`` and
    ``sparql_analytic`` replay this block, one client, before and after
    the measured passes of their mix, never during them: the mix and its
    throughput window stay what ISSUE 11 defines, and e.g.
    ``complete_p50_ms`` on ``qsm_repair`` reads "a keystroke on an
    otherwise idle server over the small dataset".
    """
    wanted = {kind: sizing.off_mix[kind] for kind in kinds}
    if not wanted:
        return []
    scripts = generate_scripts(ReplayConfig(seed=OFF_MIX_SEED, n_sessions=max(wanted.values())))
    block: List[Request] = []
    for request in _script_requests(scripts, session_prefix="off-"):
        if wanted.get(str(request["kind"]), 0) > 0:
            wanted[str(request["kind"])] -= 1
            block.append(request)
    if sum(wanted.values()):
        raise RuntimeError(f"off-mix block is short of {wanted}")
    return block


# ----------------------------------------------------------------------
# qsm_repair
# ----------------------------------------------------------------------

_DBO_LOCAL = re.compile(r"dbo:([A-Za-z]{5,})")


def predicate_typo(query: str) -> Optional[str]:
    """Drop the third letter of the first ``dbo:`` local name of five or
    more letters (``dbo:spouse`` -> ``dbo:spuse``); None if there is none."""
    match = _DBO_LOCAL.search(query)
    if match is None:
        return None
    cut = match.start(1) + 2
    return query[:cut] + query[cut + 1:]


def _qsm_repair(seed: int, sizing: Sizing) -> List[Request]:
    """For every gold question a literal typo, a predicate typo and the
    unbroken query; ``seed`` draws the typos and the order.  Smaller
    sizings send the first ``n_repairs`` of the shuffled list."""
    rng = random.Random(seed)
    requests: List[Request] = []
    for question in QUESTIONS:
        gold = " ".join(question.gold_query.split())
        for tag, query in (("literal_typo", corrupt_literal(gold, rng) or gold),
                           ("predicate_typo", predicate_typo(gold) or gold),
                           ("gold_suggest", gold)):
            requests.append({"kind": "suggest_fix", "tag": tag,
                             "session": f"repair-{question.qid}", "query": query})
    rng.shuffle(requests)
    return requests[: sizing.n_repairs]


# ----------------------------------------------------------------------
# sparql_analytic
# ----------------------------------------------------------------------

_PERSON_CLASSES = ("Scientist", "Writer", "Politician", "Actor",
                   "MusicalArtist", "Athlete")
_COUNTRIES = ("United_States", "Canada", "Australia", "United_Kingdom",
              "Spain", "Greece")
_HUB_CITIES = ("New_York_City", "Toronto", "Sydney", "London")


def _analytic_templates(entities: Dict[str, object]) -> Dict[str, Callable[[random.Random], str]]:
    """Template name -> a function drawing one query text.

    Parameters come from the dataset's entity registry and are chosen so
    result sizes — and with them latency — spread continuously (a star
    on a hub city returns ~150 rows, on a village none; the wide scan's
    LIMIT runs from 50 to 2,000 rows) instead of piling onto one value
    per template.
    """
    cities = sorted(name for name in entities if name.startswith("City_"))
    people = sorted(name for name in entities if name.startswith("Person_"))
    surnames = sorted({name.split("_")[2] for name in people})
    initials = sorted({name[0] for name in surnames})

    def union(rng: random.Random) -> str:
        surname = rng.choice(surnames)
        return "SELECT ?w ?l WHERE { %s ?w rdfs:label ?l }" % " UNION ".join(
            '{ ?w dbo:%s ?p . ?p foaf:surname "%s"@en }' % (predicate, surname)
            for predicate in ("author", "director", "starring"))

    return {
        "star": lambda rng: (
            "SELECT ?s ?n ?d WHERE { ?s dbo:birthPlace dbr:%s . ?s foaf:name ?n . "
            "?s dbo:birthDate ?d }"
            % rng.choice((rng.choice(_HUB_CITIES), rng.choice(cities)))),
        "chain": lambda rng: (
            "SELECT ?f ?a ?c WHERE { ?f dbo:starring ?a . ?a dbo:birthPlace ?c . "
            "?c dbo:country dbr:%s }" % rng.choice(_COUNTRIES)),
        "cyclic": lambda rng: (
            "SELECT ?a ?b ?c WHERE { ?a dbo:spouse ?b . ?a dbo:birthPlace ?c . "
            "?b dbo:birthPlace ?c . ?a rdf:type dbo:%s }" % rng.choice(_PERSON_CLASSES)),
        "optional": lambda rng: (
            'SELECT ?s ?g ?u WHERE { ?s foaf:surname "%s"@en . ?s foaf:givenName ?g '
            "OPTIONAL { ?s dbo:almaMater ?u } }" % rng.choice(surnames)),
        "group_order": lambda rng: (
            "SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s rdf:type dbo:%s . "
            "?s dbo:birthPlace ?c } GROUP BY ?c ORDER BY DESC(?n) LIMIT %d"
            % (rng.choice(_PERSON_CLASSES + ("Person",)), rng.randint(5, 40))),
        "regex_filter": lambda rng: (
            'SELECT ?s ?n WHERE { ?s foaf:surname ?n FILTER (regex(?n, "^%s")) }'
            % rng.choice(initials)),
        "union": union,
        "wide_scan": lambda rng: (
            "SELECT ?s ?n ?d WHERE { ?s rdf:type dbo:Person . ?s foaf:name ?n . "
            "?s dbo:birthDate ?d } LIMIT %d" % rng.randint(50, 2000)),
    }


def _sparql_analytic(seed: int, sizing: Sizing) -> List[Request]:
    rng = random.Random(seed)
    dataset = build_dataset(getattr(DatasetConfig, sizing.session_scale)())
    people = sorted(name for name in dataset.entities if name.startswith("Person_"))
    requests: List[Request] = []
    for name, draw in _analytic_templates(dataset.entities).items():
        # Half the draws for the wide scan keep it near a quarter of a
        # pass's time instead of over a third.
        rounds = sizing.analytic_rounds if name != "wide_scan" else (sizing.analytic_rounds + 1) // 2
        for _ in range(rounds):
            requests.append({"kind": "sparql", "tag": name, "session": None, "query": draw(rng)})
    # More distinct point lookups than the evaluator's 64-entry plan
    # cache holds, while every heavy shape above repeats and fits; and
    # few enough (a third of the list) that the median sits well inside
    # the continuous 3–7 ms of the joins, not at the step up from the
    # 1.5 ms lookups.
    for local in rng.sample(people, min(sizing.point_lookups, len(people))):
        requests.append({"kind": "sparql", "tag": "point_lookup", "session": None,
                         "query": "SELECT ?p ?o WHERE { dbr:%s ?p ?o }" % local})
    rng.shuffle(requests)
    return requests


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Why each workload exists is BENCHMARK.json's ``why`` and README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("session_mix", "memory", 2, 2000, lambda sizing: sizing.session_scale, _session_mix),
        Workload("qsm_repair", "memory", 1, 2000, lambda sizing: sizing.repair_scale, _qsm_repair,
                 off_mix_kinds=("complete", "suggest_run", "sparql")),
        Workload("sparql_analytic", "memory", 1, 2000, lambda sizing: sizing.session_scale, _sparql_analytic,
                 off_mix_kinds=("complete", "suggest_fix", "suggest_run")),
        Workload("replica_mix", "prefork", 2, 300, lambda sizing: sizing.session_scale, _session_mix),
    )
}


def requests_json(requests: Sequence[Request]) -> str:
    """Canonical JSON of a request list: byte-identical per seed."""
    return json.dumps(list(requests), sort_keys=True, separators=(",", ":"))


def requests_digest(requests: Sequence[Request]) -> str:
    return hashlib.sha256(requests_json(requests).encode("utf-8")).hexdigest()[:16]

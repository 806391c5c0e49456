"""The QALD-style question workload (Appendix B + extensions).

Each :class:`Question` bundles everything every evaluated system needs:

* ``text`` — the natural-language question (QAKiS/KBQA input),
* ``gold_query`` — a SPARQL query that answers it over the synthetic
  dataset; gold answers are *computed*, never hard-coded, so they stay
  correct as the generator evolves,
* ``sketch`` — the triple-pattern conception a Sapphire user would type.
  Sketch tokens: ``?x`` variable, ``p:word`` predicate keyword,
  ``l:word`` literal keyword, ``c:Word`` class keyword.  Sketches for
  medium/difficult questions deliberately contain the vocabulary and
  structure mismatches the paper's QSM exists to fix (e.g. the
  Kerouac/Viking-Press sketch reproduces Figure 6's broken structure and
  the "Kennedys" sketch reproduces Figure 2's misspelled literal),
* ``modifiers`` — post-BGP operations (count / order / filter / limit),
* factoid metadata for the QAKiS and KBQA baselines,
* ``in_user_study`` — True for the 27 questions of Section 7.1.

The workload has 50 questions to mirror QALD-5's size; the first 27
mirror Appendix B's list one-for-one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sparql.evaluator import evaluate
from ..store.triplestore import TripleStore

__all__ = ["Question", "QUESTIONS", "questions_by_difficulty", "user_study_questions"]

Sketch = Tuple[Tuple[str, str, str], ...]


@dataclass(frozen=True)
class Question:
    """One benchmark question with gold data and per-system metadata."""

    qid: str
    text: str
    difficulty: str  # "easy" | "medium" | "difficult"
    gold_query: str
    answer_var: str
    sketch: Sketch
    modifiers: Dict = field(default_factory=dict, hash=False)
    factoid: bool = False
    entity_label: Optional[str] = None
    relation_phrase: Optional[str] = None
    in_user_study: bool = False

    def gold_answers(self, store: TripleStore) -> frozenset:
        """Evaluate the gold query and return the answer set."""
        result = evaluate(store, self.gold_query)
        return frozenset(result.value_set(self.answer_var))


def _q(
    qid: str,
    text: str,
    difficulty: str,
    gold_query: str,
    answer_var: str,
    sketch: Sequence[Sequence[str]],
    modifiers: Optional[Dict] = None,
    factoid: bool = False,
    entity_label: Optional[str] = None,
    relation_phrase: Optional[str] = None,
    in_user_study: bool = False,
) -> Question:
    return Question(
        qid=qid,
        text=text,
        difficulty=difficulty,
        gold_query=gold_query,
        answer_var=answer_var,
        sketch=tuple(tuple(t) for t in sketch),
        modifiers=modifiers or {},
        factoid=factoid,
        entity_label=entity_label,
        relation_phrase=relation_phrase,
        in_user_study=in_user_study,
    )


QUESTIONS: List[Question] = [
    # ==================================================================
    # EASY (Appendix B.1)
    # ==================================================================
    _q("E1", "Country in which the Ganges starts", "easy",
       """SELECT DISTINCT ?country WHERE {
            ?river rdfs:label "Ganges"@en .
            ?river dbo:sourceCountry ?country . }""",
       "country",
       [("?river", "p:label", "l:Ganges"), ("?river", "p:source", "?country")],
       factoid=True, entity_label="Ganges", relation_phrase="starts in",
       in_user_study=True),
    _q("E2", "John F. Kennedy's vice president", "easy",
       """SELECT DISTINCT ?vp WHERE {
            ?jfk foaf:name "John F. Kennedy"@en .
            ?jfk dbo:vicePresident ?vp . }""",
       "vp",
       [("?jfk", "p:name", "l:John F. Kennedy"), ("?jfk", "p:vice president", "?vp")],
       factoid=True, entity_label="John F. Kennedy", relation_phrase="vice president",
       in_user_study=True),
    _q("E3", "Time zone of Salt Lake City", "easy",
       """SELECT DISTINCT ?tz WHERE {
            ?city rdfs:label "Salt Lake City"@en .
            ?city dbo:timeZone ?tz . }""",
       "tz",
       [("?city", "p:label", "l:Salt Lake City"), ("?city", "p:time zone", "?tz")],
       factoid=True, entity_label="Salt Lake City", relation_phrase="time zone",
       in_user_study=True),
    _q("E4", "Tom Hanks's wife", "easy",
       """SELECT DISTINCT ?wife WHERE {
            ?tom foaf:name "Tom Hanks"@en .
            ?tom dbo:spouse ?wife . }""",
       "wife",
       [("?tom", "p:name", "l:Tom Hanks"), ("?tom", "p:wife", "?wife")],
       factoid=True, entity_label="Tom Hanks", relation_phrase="wife",
       in_user_study=True),
    _q("E5", "Children of Margaret Thatcher", "easy",
       """SELECT DISTINCT ?child WHERE {
            ?mt foaf:name "Margaret Thatcher"@en .
            ?mt dbo:child ?child . }""",
       "child",
       [("?mt", "p:name", "l:Margaret Thatcher"), ("?mt", "p:children", "?child")],
       factoid=True, entity_label="Margaret Thatcher", relation_phrase="children",
       in_user_study=True),
    _q("E6", "Currency of the Czech Republic", "easy",
       """SELECT DISTINCT ?currency WHERE {
            ?cz rdfs:label "Czech Republic"@en .
            ?cz dbo:currency ?currency . }""",
       "currency",
       [("?cz", "p:label", "l:Czech Republic"), ("?cz", "p:currency", "?currency")],
       factoid=True, entity_label="Czech Republic", relation_phrase="currency",
       in_user_study=True),
    _q("E7", "Designer of the Brooklyn Bridge", "easy",
       """SELECT DISTINCT ?designer WHERE {
            ?bridge rdfs:label "Brooklyn Bridge"@en .
            ?bridge dbo:designer ?designer . }""",
       "designer",
       [("?bridge", "p:label", "l:Brooklyn Bridge"), ("?bridge", "p:designer", "?designer")],
       factoid=True, entity_label="Brooklyn Bridge", relation_phrase="designer",
       in_user_study=True),
    _q("E8", "Wife of U.S. president Abraham Lincoln", "easy",
       """SELECT DISTINCT ?wife WHERE {
            ?al foaf:name "Abraham Lincoln"@en .
            ?al dbo:spouse ?wife . }""",
       "wife",
       [("?al", "p:name", "l:Abraham Lincoln"), ("?al", "p:wife", "?wife")],
       factoid=True, entity_label="Abraham Lincoln", relation_phrase="wife",
       in_user_study=True),
    _q("E9", "Creator of Wikipedia", "easy",
       """SELECT DISTINCT ?creator WHERE {
            ?wp rdfs:label "Wikipedia"@en .
            ?wp dbo:creator ?creator . }""",
       "creator",
       [("?wp", "p:label", "l:Wikipedia"), ("?wp", "p:creator", "?creator")],
       factoid=True, entity_label="Wikipedia", relation_phrase="creator",
       in_user_study=True),
    _q("E10", "Depth of Lake Placid", "easy",
       """SELECT DISTINCT ?depth WHERE {
            ?lake rdfs:label "Lake Placid"@en .
            ?lake dbo:depth ?depth . }""",
       "depth",
       [("?lake", "p:label", "l:Lake Placid"), ("?lake", "p:depth", "?depth")],
       factoid=True, entity_label="Lake Placid", relation_phrase="depth",
       in_user_study=True),

    # ==================================================================
    # MEDIUM (Appendix B.2)
    # ==================================================================
    _q("M1", "Instruments played by Cat Stevens", "medium",
       """SELECT DISTINCT ?instrument WHERE {
            ?cs foaf:name "Cat Stevens"@en .
            ?cs dbo:instrument ?instrument . }""",
       "instrument",
       [("?cs", "p:name", "l:Cat Stevens"), ("?cs", "p:instruments", "?instrument")],
       factoid=True, entity_label="Cat Stevens", relation_phrase="instruments",
       in_user_study=True),
    _q("M2", "Parents of the wife of Juan Carlos I", "medium",
       """SELECT DISTINCT ?parent WHERE {
            ?jc foaf:name "Juan Carlos I"@en .
            ?jc dbo:spouse ?wife .
            ?wife dbo:parent ?parent . }""",
       "parent",
       [("?jc", "p:name", "l:Juan Carlos I"), ("?jc", "p:wife", "?wife"),
        ("?wife", "p:parents", "?parent")],
       entity_label="Juan Carlos I", relation_phrase="parents of the wife",
       in_user_study=True),
    _q("M3", "U.S. state in which Fort Knox is located", "medium",
       """SELECT DISTINCT ?state WHERE {
            ?fk rdfs:label "Fort Knox"@en .
            ?fk dbo:location ?state . }""",
       "state",
       [("?fk", "p:label", "l:Fort Knox"), ("?fk", "p:located in", "?state")],
       factoid=True, entity_label="Fort Knox", relation_phrase="located in",
       in_user_study=True),
    _q("M4", "Person who is called Frank The Tank", "medium",
       """SELECT DISTINCT ?person WHERE {
            ?person dbo:nickName "Frank The Tank"@en . }""",
       "person",
       [("?person", "p:nickname", "l:Frank The Tank")],
       factoid=True, entity_label="Frank The Tank", relation_phrase="is called",
       in_user_study=True),
    _q("M5", "Birthdays of all actors of the television show Charmed", "medium",
       """SELECT DISTINCT ?bd WHERE {
            ?show rdfs:label "Charmed"@en .
            ?show dbo:starring ?actor .
            ?actor dbo:birthDate ?bd . }""",
       "bd",
       [("?show", "p:label", "l:Charmed"), ("?show", "p:actor", "?actor"),
        ("?actor", "p:birthday", "?bd")],
       entity_label="Charmed", relation_phrase="birthdays of all actors",
       in_user_study=True),
    _q("M6", "Country in which the Limerick Lake is located", "medium",
       """SELECT DISTINCT ?country WHERE {
            ?lake rdfs:label "Limerick Lake"@en .
            ?lake dbo:country ?country . }""",
       "country",
       [("?lake", "p:label", "l:Limerick Lake"), ("?lake", "p:country", "?country")],
       factoid=True, entity_label="Limerick Lake", relation_phrase="located in",
       in_user_study=True),
    _q("M7", "Person to which Robert F. Kennedy's daughter is married", "medium",
       """SELECT DISTINCT ?husband WHERE {
            ?rfk foaf:name "Robert F. Kennedy"@en .
            ?rfk dbo:child ?daughter .
            ?daughter dbo:spouse ?husband . }""",
       "husband",
       [("?rfk", "p:name", "l:Robert F. Kennedy"), ("?rfk", "p:daughter", "?daughter"),
        ("?daughter", "p:married", "?husband")],
       entity_label="Robert F. Kennedy", relation_phrase="daughter is married to",
       in_user_study=True),
    _q("M8", "Number of people living in the capital of Australia", "medium",
       """SELECT DISTINCT ?population WHERE {
            ?au rdfs:label "Australia"@en .
            ?au dbo:capital ?capital .
            ?capital dbo:populationTotal ?population . }""",
       "population",
       [("?au", "p:label", "l:Australia"), ("?au", "p:capital", "?capital"),
        ("?capital", "p:population", "?population")],
       entity_label="Australia", relation_phrase="people living in the capital",
       in_user_study=True),

    # ==================================================================
    # DIFFICULT (Appendix B.3)
    # ==================================================================
    _q("D1", "Chess players who died in the same place they were born in", "difficult",
       """SELECT DISTINCT ?player WHERE {
            ?player rdf:type dbo:ChessPlayer .
            ?player dbo:birthPlace ?place .
            ?player dbo:deathPlace ?place . }""",
       "player",
       [("?player", "p:type", "c:ChessPlayer"), ("?player", "p:born in", "?place"),
        ("?player", "p:died in", "?place")],
       in_user_study=True),
    _q("D2", "Books by William Goldman with more than 300 pages", "difficult",
       """SELECT DISTINCT ?book WHERE {
            ?book dbo:author ?wg .
            ?wg foaf:name "William Goldman"@en .
            ?book dbo:numberOfPages ?pages .
            FILTER (?pages > 300) . }""",
       "book",
       [("?book", "p:writer", "l:William Goldman"), ("?book", "p:pages", "?pages")],
       modifiers={"filters": [("pages", ">", 300)]},
       in_user_study=True),
    _q("D3", "Books by Jack Kerouac which were published by Viking Press", "difficult",
       """SELECT DISTINCT ?book WHERE {
            ?book dbo:author ?jk .
            ?jk foaf:name "Jack Kerouac"@en .
            ?book dbo:publisher ?vp .
            ?vp rdfs:label "Viking Press"@en . }""",
       "book",
       # Figure 6's *broken* conception: literals attached directly.
       [("?book", "p:writer", "l:Jack Kerouac"), ("?book", "p:publisher", "l:Viking Press")],
       in_user_study=True),
    _q("D4", "Films directed by Steven Spielberg with a budget of at least $80 million",
       "difficult",
       """SELECT DISTINCT ?film WHERE {
            ?film dbo:director ?ss .
            ?ss foaf:name "Steven Spielberg"@en .
            ?film dbo:budget ?budget .
            FILTER (?budget >= 80000000) . }""",
       "film",
       [("?film", "p:director", "l:Steven Spielberg"), ("?film", "p:budget", "?budget")],
       modifiers={"filters": [("budget", ">=", 80000000)]},
       in_user_study=True),
    _q("D5", "Most populous city in Australia", "difficult",
       """SELECT DISTINCT ?city WHERE {
            ?city rdf:type dbo:City .
            ?city dbo:country ?au .
            ?au rdfs:label "Australia"@en .
            ?city dbo:populationTotal ?pop . }
          ORDER BY DESC(?pop) LIMIT 1""",
       "city",
       [("?city", "p:type", "c:City"), ("?city", "p:country", "l:Australia"),
        ("?city", "p:population", "?pop")],
       modifiers={"order_by": ("pop", "desc"), "limit": 1},
       in_user_study=True),
    _q("D6", "Films starring Clint Eastwood directed by himself", "difficult",
       """SELECT DISTINCT ?film WHERE {
            ?film dbo:starring ?ce .
            ?film dbo:director ?ce .
            ?ce foaf:name "Clint Eastwood"@en . }""",
       "film",
       [("?film", "p:starring", "l:Clint Eastwood"), ("?film", "p:director", "l:Clint Eastwood")],
       in_user_study=True),
    _q("D7", "Presidents born in 1945", "difficult",
       """SELECT DISTINCT ?president WHERE {
            ?president rdf:type dbo:President .
            ?president dbo:birthDate ?bd .
            FILTER (STRSTARTS(STR(?bd), "1945")) . }""",
       "president",
       [("?president", "p:type", "c:President"), ("?president", "p:birthday", "?bd")],
       modifiers={"filters": [("bd", "starts", "1945")]},
       in_user_study=True),
    _q("D8", "Find each company that works in both the aerospace and medicine industries",
       "difficult",
       """SELECT DISTINCT ?company WHERE {
            ?company dbo:industry ?aero .
            ?aero rdfs:label "Aerospace"@en .
            ?company dbo:industry ?med .
            ?med rdfs:label "Medicine"@en . }""",
       "company",
       [("?company", "p:industry", "l:Aerospace"), ("?company", "p:industry", "l:Medicine")],
       in_user_study=True),
    _q("D9", "Number of inhabitants of the most populous city in Canada", "difficult",
       """SELECT DISTINCT ?pop WHERE {
            ?city rdf:type dbo:City .
            ?city dbo:country ?ca .
            ?ca rdfs:label "Canada"@en .
            ?city dbo:populationTotal ?pop . }
          ORDER BY DESC(?pop) LIMIT 1""",
       "pop",
       [("?city", "p:type", "c:City"), ("?city", "p:country", "l:Canada"),
        ("?city", "p:inhabitants", "?pop")],
       modifiers={"order_by": ("pop", "desc"), "limit": 1},
       in_user_study=True),

    # ==================================================================
    # EXTENSIONS (to QALD-5's 50-question size; not in the user study)
    # ==================================================================
    _q("E11", "Capital of Canada", "easy",
       """SELECT DISTINCT ?capital WHERE {
            ?ca rdfs:label "Canada"@en . ?ca dbo:capital ?capital . }""",
       "capital",
       [("?ca", "p:label", "l:Canada"), ("?ca", "p:capital", "?capital")],
       factoid=True, entity_label="Canada", relation_phrase="capital"),
    _q("E12", "Population of Prague", "easy",
       """SELECT DISTINCT ?pop WHERE {
            ?city rdfs:label "Prague"@en . ?city dbo:populationTotal ?pop . }""",
       "pop",
       [("?city", "p:label", "l:Prague"), ("?city", "p:population", "?pop")],
       factoid=True, entity_label="Prague", relation_phrase="population"),
    _q("E13", "Currency of the United States", "easy",
       """SELECT DISTINCT ?currency WHERE {
            ?us rdfs:label "United States"@en . ?us dbo:currency ?currency . }""",
       "currency",
       [("?us", "p:label", "l:United States"), ("?us", "p:currency", "?currency")],
       factoid=True, entity_label="United States", relation_phrase="currency"),
    _q("E14", "Nickname of Will Ferrell", "easy",
       """SELECT DISTINCT ?nick WHERE {
            ?wf foaf:name "Will Ferrell"@en . ?wf dbo:nickName ?nick . }""",
       "nick",
       [("?wf", "p:name", "l:Will Ferrell"), ("?wf", "p:nickname", "?nick")],
       factoid=True, entity_label="Will Ferrell", relation_phrase="nickname"),
    _q("E15", "Population of London", "easy",
       """SELECT DISTINCT ?pop WHERE {
            ?city rdfs:label "London"@en . ?city dbo:populationTotal ?pop . }""",
       "pop",
       [("?city", "p:label", "l:London"), ("?city", "p:population", "?pop")],
       factoid=True, entity_label="London", relation_phrase="population"),
    _q("E16", "Birth date of Garry Kasparov", "easy",
       """SELECT DISTINCT ?bd WHERE {
            ?gk foaf:name "Garry Kasparov"@en . ?gk dbo:birthDate ?bd . }""",
       "bd",
       [("?gk", "p:name", "l:Garry Kasparov"), ("?gk", "p:birthday", "?bd")],
       factoid=True, entity_label="Garry Kasparov", relation_phrase="birth date"),
    _q("E17", "Country of the city of Sydney", "easy",
       """SELECT DISTINCT ?country WHERE {
            ?city rdfs:label "Sydney"@en . ?city dbo:country ?country . }""",
       "country",
       [("?city", "p:label", "l:Sydney"), ("?city", "p:country", "?country")],
       factoid=True, entity_label="Sydney", relation_phrase="country"),
    _q("E18", "What is the revenue of IBM", "easy",
       """SELECT DISTINCT ?revenue WHERE {
            ?ibm rdfs:label "IBM"@en . ?ibm dbo:revenue ?revenue . }""",
       "revenue",
       [("?ibm", "p:label", "l:IBM"), ("?ibm", "p:revenue", "?revenue")],
       factoid=True, entity_label="IBM", relation_phrase="revenue"),

    _q("M9", "Universities affiliated with the Ivy League", "medium",
       """SELECT DISTINCT ?uni WHERE {
            ?uni rdf:type dbo:University .
            ?uni dbo:affiliation ?ivy .
            ?ivy rdfs:label "Ivy League"@en . }""",
       "uni",
       [("?uni", "p:type", "c:University"), ("?uni", "p:affiliation", "l:Ivy League")]),
    _q("M10", "Scientists who graduated from Princeton University", "medium",
       """SELECT DISTINCT ?sci WHERE {
            ?sci rdf:type dbo:Scientist .
            ?sci dbo:almaMater ?pu .
            ?pu rdfs:label "Princeton University"@en . }""",
       "sci",
       [("?sci", "p:type", "c:Scientist"), ("?sci", "p:graduated from", "l:Princeton University")]),
    _q("M11", "Lakes located in Canada", "medium",
       """SELECT DISTINCT ?lake WHERE {
            ?lake rdf:type dbo:Lake .
            ?lake dbo:country ?ca .
            ?ca rdfs:label "Canada"@en . }""",
       "lake",
       [("?lake", "p:type", "c:Lake"), ("?lake", "p:country", "l:Canada")]),
    _q("M12", "Chess players born in New York", "medium",
       """SELECT DISTINCT ?player WHERE {
            ?player rdf:type dbo:ChessPlayer .
            ?player dbo:birthPlace ?ny .
            ?ny rdfs:label "New York"@en . }""",
       "player",
       [("?player", "p:type", "c:ChessPlayer"), ("?player", "p:born in", "l:New York")]),
    _q("M13", "Books published by Grove Press", "medium",
       """SELECT DISTINCT ?book WHERE {
            ?book rdf:type dbo:Book .
            ?book dbo:publisher ?gp .
            ?gp rdfs:label "Grove Press"@en . }""",
       "book",
       [("?book", "p:type", "c:Book"), ("?book", "p:publisher", "l:Grove Press")]),
    _q("M14", "Actors starring in the television show Charmed", "medium",
       """SELECT DISTINCT ?actor WHERE {
            ?show rdfs:label "Charmed"@en .
            ?show dbo:starring ?actor . }""",
       "actor",
       [("?show", "p:label", "l:Charmed"), ("?show", "p:starring", "?actor")],
       factoid=True, entity_label="Charmed", relation_phrase="actors"),
    _q("M15", "Films directed by Clint Eastwood", "medium",
       """SELECT DISTINCT ?film WHERE {
            ?film dbo:director ?ce .
            ?ce foaf:name "Clint Eastwood"@en . }""",
       "film",
       [("?film", "p:director", "l:Clint Eastwood")],
       factoid=True, entity_label="Clint Eastwood", relation_phrase="films directed by"),
    _q("M16", "People whose alma mater is Harvard University", "medium",
       """SELECT DISTINCT ?person WHERE {
            ?person dbo:almaMater ?hu .
            ?hu rdfs:label "Harvard University"@en . }""",
       "person",
       [("?person", "p:alma mater", "l:Harvard University")]),
    _q("M17", "Companies in the software industry", "medium",
       """SELECT DISTINCT ?company WHERE {
            ?company dbo:industry ?sw .
            ?sw rdfs:label "Software"@en . }""",
       "company",
       [("?company", "p:industry", "l:Software")]),

    _q("D10", "How many scientists graduated from an Ivy League university", "difficult",
       """SELECT DISTINCT (COUNT(?uri) AS ?count) WHERE {
            ?uri rdf:type dbo:Scientist .
            ?uri dbo:almaMater ?university .
            ?university dbo:affiliation ?ivy .
            ?ivy rdfs:label "Ivy League"@en . }""",
       "count",
       [("?uri", "p:type", "c:Scientist"), ("?uri", "p:graduated", "?university"),
        ("?university", "p:affiliation", "l:Ivy League")],
       modifiers={"count_var": "uri"}),
    _q("D11", "Companies in the medicine industry with revenue over 50 billion dollars",
       "difficult",
       """SELECT DISTINCT ?company WHERE {
            ?company dbo:industry ?med .
            ?med rdfs:label "Medicine"@en .
            ?company dbo:revenue ?rev .
            FILTER (?rev > 50000000000) . }""",
       "company",
       [("?company", "p:industry", "l:Medicine"), ("?company", "p:revenue", "?rev")],
       modifiers={"filters": [("rev", ">", 50000000000)]}),
    _q("D12", "Books by Jack Kerouac with fewer than 250 pages", "difficult",
       """SELECT DISTINCT ?book WHERE {
            ?book dbo:author ?jk .
            ?jk foaf:name "Jack Kerouac"@en .
            ?book dbo:numberOfPages ?pages .
            FILTER (?pages < 250) . }""",
       "book",
       [("?book", "p:writer", "l:Jack Kerouac"), ("?book", "p:pages", "?pages")],
       modifiers={"filters": [("pages", "<", 250)]}),
    _q("D13", "Number of books written by William Goldman", "difficult",
       """SELECT DISTINCT (COUNT(?book) AS ?count) WHERE {
            ?book dbo:author ?wg .
            ?wg foaf:name "William Goldman"@en . }""",
       "count",
       [("?book", "p:writer", "l:William Goldman")],
       modifiers={"count_var": "book"}),
    _q("D14", "Films directed by Steven Spielberg with a budget below 70 million dollars",
       "difficult",
       """SELECT DISTINCT ?film WHERE {
            ?film dbo:director ?ss .
            ?ss foaf:name "Steven Spielberg"@en .
            ?film dbo:budget ?budget .
            FILTER (?budget < 70000000) . }""",
       "film",
       [("?film", "p:director", "l:Steven Spielberg"), ("?film", "p:budget", "?budget")],
       modifiers={"filters": [("budget", "<", 70000000)]}),
    _q("D15", "How many people have the surname Kennedy", "difficult",
       """SELECT DISTINCT (COUNT(?person) AS ?count) WHERE {
            ?person foaf:surname "Kennedy"@en . }""",
       "count",
       # Figure 2's example: the user types the plural "Kennedys".
       [("?person", "p:surname", "l:Kennedys!typo=Kennedy")],
       modifiers={"count_var": "person"}),
    _q("D16", "Average number of pages of books by William Goldman", "difficult",
       """SELECT DISTINCT (AVG(?pages) AS ?avg) WHERE {
            ?book dbo:author ?wg .
            ?wg foaf:name "William Goldman"@en .
            ?book dbo:numberOfPages ?pages . }""",
       "avg",
       [("?book", "p:writer", "l:William Goldman"), ("?book", "p:pages", "?pages")],
       modifiers={"aggregate": ("avg", "pages")}),
    _q("D17", "Companies that work in both the software and aerospace industries",
       "difficult",
       """SELECT DISTINCT ?company WHERE {
            ?company dbo:industry ?sw .
            ?sw rdfs:label "Software"@en .
            ?company dbo:industry ?aero .
            ?aero rdfs:label "Aerospace"@en . }""",
       "company",
       [("?company", "p:industry", "l:Software"), ("?company", "p:industry", "l:Aerospace")]),
]


def questions_by_difficulty(difficulty: str) -> List[Question]:
    """All questions labelled ``difficulty``."""
    return [q for q in QUESTIONS if q.difficulty == difficulty]


def user_study_questions() -> List[Question]:
    """The 27 questions used in the Section 7.1 user study."""
    return [q for q in QUESTIONS if q.in_user_study]

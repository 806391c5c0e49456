"""Synthetic mini-DBpedia generator.

Builds a deterministic, seeded RDF dataset with the *shape* of DBpedia:

* an RDFS class hierarchy (from :mod:`repro.data.ontology`),
* a predicate vocabulary that is tiny next to the literal count,
* hand-planted entities making the question workload answerable
  (from :mod:`repro.data.entities`),
* a cohort of people with surname "Kennedy" (the Figure 2/4 example:
  the paper's suggestion "Kennedys" -> "Kennedy" finds 1,051 answers),
* bulk random entities whose literals exercise every initialization
  heuristic: language-tagged labels (English plus German/French ones the
  language filter must drop), long abstracts (the <80-character length
  filter must drop), numeric literals, and a skewed in-degree
  distribution so literal *significance* (Definition 1) is non-trivial.

Everything is driven by :class:`DatasetConfig`; two presets are provided
(``tiny`` for unit tests, ``small`` for benchmarks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdf.namespaces import DBO, DBR, FOAF, RDF_TYPE, RDFS_LABEL
from ..rdf.terms import IRI, Literal, XSD_INTEGER
from ..rdf.triples import Triple
from ..store.triplestore import TripleStore
from .entities import PLANTED_ENTITIES
from .ontology import LITERAL_PREDICATE_KINDS, ancestors_of, ontology_triples

__all__ = ["DatasetConfig", "SyntheticDataset", "build_dataset"]


_FIRST_NAMES = (
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Grace",
    "Henry", "Rose", "Walter", "Edith", "Frank", "Clara", "Louis", "Anna",
    "Peter", "Nora", "Simon", "Ida", "Victor", "June", "Oscar", "Faye",
)

_LAST_NAMES = (
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Taylor", "Moore", "Jackson", "Martin", "Lee",
    "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark", "Ramirez",
    "Lewis", "Robinson", "Walker", "Young", "Allen", "King", "Wright",
)

_CITY_PARTS_A = (
    "Spring", "River", "Oak", "Maple", "Cedar", "Stone", "Iron", "Silver",
    "Golden", "North", "South", "East", "West", "Green", "Fair", "Lake",
)
_CITY_PARTS_B = (
    "field", "ton", "ville", "burg", "port", "haven", "wood", "dale",
    "bridge", "ford", "mouth", "stead", "view", "crest", "side", "gate",
)

_BOOK_WORDS = (
    "Shadow", "Light", "Journey", "Garden", "Winter", "Summer", "Secret",
    "Silent", "Broken", "Golden", "Lost", "Last", "First", "Night", "Day",
    "River", "Mountain", "Letter", "Song", "Road", "House", "Door",
)

_ABSTRACT_FILLER = (
    "is a widely discussed subject in the encyclopedic literature and has "
    "been described at length by many independent sources across decades "
    "of scholarship, commentary, and journalistic coverage worldwide"
)

_TIMEZONES = (
    "Eastern Time Zone", "Central Time Zone", "Mountain Time Zone",
    "Pacific Time Zone", "Central European Time", "Greenwich Mean Time",
)


@dataclass(frozen=True, slots=True)
class DatasetConfig:
    """Scale and composition knobs for the synthetic dataset."""

    seed: int = 42
    n_people: int = 400
    n_cities: int = 80
    n_books: int = 120
    n_films: int = 60
    n_companies: int = 40
    n_universities: int = 20
    kennedy_count: int = 60
    foreign_label_fraction: float = 0.15
    abstract_fraction: float = 0.5
    hub_city_count: int = 6

    @staticmethod
    def tiny(seed: int = 42) -> "DatasetConfig":
        """Small enough for fast unit tests, still shape-complete."""
        return DatasetConfig(
            seed=seed, n_people=60, n_cities=15, n_books=20, n_films=10,
            n_companies=8, n_universities=5, kennedy_count=12, hub_city_count=3,
        )

    @staticmethod
    def small(seed: int = 42) -> "DatasetConfig":
        """Benchmark default (a few tens of thousands of triples)."""
        return DatasetConfig(seed=seed)

    @staticmethod
    def medium(seed: int = 42) -> "DatasetConfig":
        """Used by the scaling ablations."""
        return DatasetConfig(
            seed=seed, n_people=2000, n_cities=300, n_books=600, n_films=300,
            n_companies=150, n_universities=60, kennedy_count=200,
        )


@dataclass
class SyntheticDataset:
    """The built dataset plus the entity registry used by tests/benchmarks."""

    store: TripleStore
    config: DatasetConfig
    entities: Dict[str, IRI] = field(default_factory=dict)
    planted: Dict[str, IRI] = field(default_factory=dict)

    def iri(self, local: str) -> IRI:
        """Look up an entity minted by the generator (planted or random)."""
        return self.entities[local]


def build_dataset(config: Optional[DatasetConfig] = None) -> SyntheticDataset:
    """Build the synthetic dataset for ``config`` (default: small preset)."""
    config = config or DatasetConfig.small()
    rng = random.Random(config.seed)
    store = TripleStore()
    dataset = SyntheticDataset(store=store, config=config)

    store.add_all(ontology_triples())
    _add_planted(dataset)
    _add_kennedys(dataset, rng)
    cities = _add_random_cities(dataset, rng)
    people = _add_random_people(dataset, rng, cities)
    _add_random_universities(dataset, rng, people)
    _add_random_books(dataset, rng, people)
    _add_random_films(dataset, rng, people)
    _add_random_companies(dataset, rng)
    return dataset


# ----------------------------------------------------------------------
# Planted entities
# ----------------------------------------------------------------------


def _add_planted(dataset: SyntheticDataset) -> None:
    store = dataset.store
    for local, class_name, literals, links in PLANTED_ENTITIES:
        entity = DBR.term(local)
        dataset.entities[local] = entity
        dataset.planted[local] = entity
        _add_type(store, entity, class_name)
        for pred_local, value in literals.items():
            values = value if isinstance(value, list) else [value]
            for item in values:
                store.add(Triple(entity, _literal_predicate(pred_local), _to_literal(pred_local, item)))
    # Second pass: links (targets must exist to be looked up).
    for local, _class_name, _literals, links in PLANTED_ENTITIES:
        entity = dataset.entities[local]
        for pred_local, targets in links.items():
            for target in targets:
                target_iri = dataset.entities.get(target, DBR.term(target))
                store.add(Triple(entity, DBO.term(pred_local), target_iri))


def _add_type(store: TripleStore, entity: IRI, class_name: str) -> None:
    """Type ``entity`` with ``class_name`` and all its ancestors.

    DBpedia materializes the transitive closure of rdf:type over the class
    hierarchy; initialization's class-hierarchy descent relies on root
    classes having large instance sets (that is what makes broad literal
    queries time out).
    """
    store.add(Triple(entity, RDF_TYPE, DBO.term(class_name)))
    for ancestor in ancestors_of(class_name):
        store.add(Triple(entity, RDF_TYPE, DBO.term(ancestor)))


def _literal_predicate(local: str) -> IRI:
    if local == "label":
        return RDFS_LABEL
    if local in ("name", "surname", "givenName"):
        return FOAF.term(local)
    return DBO.term(local)


def _to_literal(pred_local: str, value) -> Literal:
    if isinstance(value, bool):
        raise TypeError("boolean literals are not used by the generator")
    if isinstance(value, (int, float)):
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    kind = LITERAL_PREDICATE_KINDS.get(pred_local, "name")
    if kind == "date":
        return Literal(str(value))
    return Literal(str(value), lang="en")


# ----------------------------------------------------------------------
# The Kennedy cohort (Figures 2 and 4)
# ----------------------------------------------------------------------


def _add_kennedys(dataset: SyntheticDataset, rng: random.Random) -> None:
    store = dataset.store
    for i in range(dataset.config.kennedy_count):
        first = rng.choice(_FIRST_NAMES)
        local = f"{first}_Kennedy_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        full_name = f"{first} Kennedy"
        _add_type(store, entity, "Person")
        store.add(Triple(entity, RDFS_LABEL, Literal(full_name, lang="en")))
        store.add(Triple(entity, FOAF.name, Literal(full_name, lang="en")))
        store.add(Triple(entity, FOAF.surname, Literal("Kennedy", lang="en")))
        store.add(Triple(entity, FOAF.givenName, Literal(first, lang="en")))
        store.add(Triple(entity, DBO.birthDate, Literal(_random_date(rng, 1900, 1999))))


# ----------------------------------------------------------------------
# Bulk random entities
# ----------------------------------------------------------------------


def _random_date(rng: random.Random, start_year: int, end_year: int) -> str:
    year = rng.randint(start_year, end_year)
    return f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _maybe_abstract(dataset: SyntheticDataset, rng: random.Random, entity: IRI, name: str) -> None:
    if rng.random() < dataset.config.abstract_fraction:
        text = f"{name} {_ABSTRACT_FILLER}."
        dataset.store.add(Triple(entity, DBO.abstract, Literal(text, lang="en")))


def _maybe_foreign_label(dataset: SyntheticDataset, rng: random.Random, entity: IRI, name: str) -> None:
    if rng.random() < dataset.config.foreign_label_fraction:
        lang = rng.choice(("de", "fr"))
        dataset.store.add(Triple(entity, RDFS_LABEL, Literal(f"{name} ({lang})", lang=lang)))


def _add_random_cities(dataset: SyntheticDataset, rng: random.Random) -> List[IRI]:
    store = dataset.store
    countries = [dataset.planted[c] for c in
                 ("United_States", "Canada", "Australia", "United_Kingdom", "Spain", "Greece")]
    dataset_cities: List[IRI] = []
    seen_names = set()
    for i in range(dataset.config.n_cities):
        name = rng.choice(_CITY_PARTS_A) + rng.choice(_CITY_PARTS_B)
        if name in seen_names:
            name = f"{name} {chr(ord('A') + i % 26)}"
        seen_names.add(name)
        local = f"City_{name.replace(' ', '_')}_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        dataset_cities.append(entity)
        _add_type(store, entity, "City")
        store.add(Triple(entity, RDFS_LABEL, Literal(name, lang="en")))
        store.add(Triple(entity, DBO.populationTotal,
                         Literal(str(rng.randint(5_000, 2_000_000)), datatype=XSD_INTEGER)))
        store.add(Triple(entity, DBO.timeZone, Literal(rng.choice(_TIMEZONES), lang="en")))
        store.add(Triple(entity, DBO.country, rng.choice(countries)))
        _maybe_abstract(dataset, rng, entity, name)
        _maybe_foreign_label(dataset, rng, entity, name)
    return dataset_cities


def _hub_cities(dataset: SyntheticDataset, random_cities: List[IRI]) -> List[IRI]:
    """The cities random people are born in — the first few become
    high-in-degree hubs whose labels are *significant* (Definition 1)."""
    hubs = [dataset.planted["New_York_City"], dataset.planted["Toronto"],
            dataset.planted["Sydney"], dataset.planted["London"]]
    hubs.extend(random_cities[: dataset.config.hub_city_count])
    return hubs


def _add_random_people(dataset: SyntheticDataset, rng: random.Random,
                       cities: List[IRI]) -> List[IRI]:
    store = dataset.store
    hubs = _hub_cities(dataset, cities)
    all_cities = hubs + cities
    classes = ("Person", "Scientist", "Writer", "Politician",
               "Actor", "MusicalArtist", "Athlete")
    people: List[IRI] = []
    for i in range(dataset.config.n_people):
        first = rng.choice(_FIRST_NAMES)
        last = rng.choice(_LAST_NAMES)
        local = f"Person_{first}_{last}_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        people.append(entity)
        full_name = f"{first} {last}"
        _add_type(store, entity, rng.choice(classes))
        store.add(Triple(entity, RDFS_LABEL, Literal(full_name, lang="en")))
        store.add(Triple(entity, FOAF.name, Literal(full_name, lang="en")))
        store.add(Triple(entity, FOAF.surname, Literal(last, lang="en")))
        store.add(Triple(entity, FOAF.givenName, Literal(first, lang="en")))
        store.add(Triple(entity, DBO.birthDate, Literal(_random_date(rng, 1900, 2000))))
        # Skewed in-degree: 70% of birth places go to the hub cities.
        birth_city = rng.choice(hubs) if rng.random() < 0.7 else rng.choice(all_cities)
        store.add(Triple(entity, DBO.birthPlace, birth_city))
        if rng.random() < 0.3 and people[:-1]:
            store.add(Triple(entity, DBO.spouse, rng.choice(people[:-1])))
        _maybe_abstract(dataset, rng, entity, full_name)
        _maybe_foreign_label(dataset, rng, entity, full_name)
    return people


def _add_random_universities(dataset: SyntheticDataset, rng: random.Random,
                             people: List[IRI]) -> None:
    store = dataset.store
    universities: List[IRI] = []
    for i in range(dataset.config.n_universities):
        name = f"{rng.choice(_CITY_PARTS_A)}{rng.choice(_CITY_PARTS_B)} University"
        local = f"University_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        universities.append(entity)
        _add_type(store, entity, "University")
        store.add(Triple(entity, RDFS_LABEL, Literal(name, lang="en")))
        _maybe_abstract(dataset, rng, entity, name)
    for person in people:
        if rng.random() < 0.4 and universities:
            store.add(Triple(person, DBO.almaMater, rng.choice(universities)))


def _add_random_books(dataset: SyntheticDataset, rng: random.Random,
                      writers: List[IRI]) -> None:
    store = dataset.store
    publishers = [dataset.planted["Viking_Press"], dataset.planted["Grove_Press"],
                  dataset.planted["Penguin_Books"]]
    for i in range(dataset.config.n_books):
        title = f"The {rng.choice(_BOOK_WORDS)} {rng.choice(_BOOK_WORDS)}"
        local = f"Book_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        _add_type(store, entity, "Book")
        store.add(Triple(entity, RDFS_LABEL, Literal(title, lang="en")))
        store.add(Triple(entity, DBO.numberOfPages,
                         Literal(str(rng.randint(80, 900)), datatype=XSD_INTEGER)))
        if writers:
            store.add(Triple(entity, DBO.author, rng.choice(writers)))
        store.add(Triple(entity, DBO.publisher, rng.choice(publishers)))
        _maybe_abstract(dataset, rng, entity, title)


def _add_random_films(dataset: SyntheticDataset, rng: random.Random,
                      people: List[IRI]) -> None:
    store = dataset.store
    for i in range(dataset.config.n_films):
        title = f"{rng.choice(_BOOK_WORDS)} of the {rng.choice(_BOOK_WORDS)}"
        local = f"Film_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        _add_type(store, entity, "Film")
        store.add(Triple(entity, RDFS_LABEL, Literal(title, lang="en")))
        store.add(Triple(entity, DBO.budget,
                         Literal(str(rng.randint(1, 250) * 1_000_000), datatype=XSD_INTEGER)))
        if people:
            store.add(Triple(entity, DBO.director, rng.choice(people)))
            for _ in range(rng.randint(1, 4)):
                store.add(Triple(entity, DBO.starring, rng.choice(people)))
        _maybe_abstract(dataset, rng, entity, title)


def _add_random_companies(dataset: SyntheticDataset, rng: random.Random) -> None:
    store = dataset.store
    industries = [dataset.planted["Aerospace_Industry"], dataset.planted["Medicine_Industry"],
                  dataset.planted["Software_Industry"]]
    for i in range(dataset.config.n_companies):
        name = f"{rng.choice(_CITY_PARTS_A)}{rng.choice(_CITY_PARTS_B).capitalize()} Corp"
        local = f"Company_{i}"
        entity = DBR.term(local)
        dataset.entities[local] = entity
        _add_type(store, entity, "Company")
        store.add(Triple(entity, RDFS_LABEL, Literal(name, lang="en")))
        store.add(Triple(entity, DBO.revenue,
                         Literal(str(rng.randint(1, 500) * 10_000_000), datatype=XSD_INTEGER)))
        for industry in rng.sample(industries, k=rng.randint(1, 2)):
            store.add(Triple(entity, DBO.industry, industry))
        _maybe_abstract(dataset, rng, entity, name)

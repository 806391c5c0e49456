#!/usr/bin/env python3
"""The Figure 4 answer-table workflow + cache persistence.

Reproduces the paper's Figure 4 sequence: after accepting the
"Kennedys" -> "Kennedy" suggestion, the answers are filtered with a
keyword search on "john" and ordered by the person column; a value is
then dragged out of the table into a follow-up query.  Finally the
initialized cache is saved to disk and reloaded — initialization happens
only once per endpoint (Section 5), so a restarted server skips it.

Run:  python examples/answer_table.py
"""

import tempfile
from pathlib import Path

from repro import QueryBuilder, quickstart_server
from repro.core import AnswerTable, QueryCompletionModule, load_cache, save_cache
from repro.rdf import FOAF, Literal, Variable


def main() -> None:
    server, dataset = quickstart_server()

    print("== Run the (corrected) Kennedy query ==")
    outcome = server.run_query(
        QueryBuilder().triple(Variable("person"), FOAF.surname,
                              Literal("Kennedy", lang="en")),
        suggest=False,
    )
    table = AnswerTable(outcome.answers)
    print(f"answers: {len(table)} rows, columns {table.columns}")

    print('\n== Figure 4: keyword search "john", ordered by person ==')
    table.search("john").order_by("person")
    print(table.to_text(max_rows=6))

    print("\n== Drag an answer into a follow-up query ==")
    person = table.term_at(0, "person")
    followup = server.run_query(
        f"SELECT ?bd WHERE {{ {person.n3()} dbo:birthDate ?bd }}", suggest=False
    )
    print(f"{person.local_name()} was born on {followup.answers.first_value()}")

    print("\n== Persist the cache; a restarted server skips initialization ==")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sapphire-cache.sqlite"
        save_cache(server.cache, path)
        print(f"saved {path.stat().st_size:,} bytes")
        restored = load_cache(path, server.config)
        qcm = QueryCompletionModule(restored, server.config)
        print(f"restored cache stats: {restored.stats()}")
        print(f"completion from the restored cache: 'Kenn' -> "
              f"{qcm.complete('Kenn').surfaces()[:3]}")
        restored.close()


if __name__ == "__main__":
    main()

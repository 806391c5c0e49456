"""A physical plan's rows, read off its batches — for tests that check a
plan on its own, below the evaluator's tail.

A row is a tuple of dictionary IDs in ``plan.variables`` order, with
:data:`~repro.sparql.plan.UNBOUND` in an empty cell.
"""

from repro.sparql.plan import DEFAULT_BATCH_SIZE


def plan_rows(plan, store, meter=None, batch_size=DEFAULT_BATCH_SIZE, tracer=None):
    """Every row ``plan`` yields over ``store``, in stream order."""
    return [
        row
        for batch in plan.batches(store, meter, batch_size, tracer)
        for row in batch.iter_raw()
    ]

"""Two-phase (decomposable) aggregation: the one shape every
pre-aggregated groupby in the engine takes.

Phase 1 folds each batch to one row per key with ``pa.Table.group_by``
inside ``map_batches``, so only partial rows ever reach the exchange;
phase 2 merges the partials with one Ray ``groupby(keys).aggregate``.
Sums, row counts, mins and maxes are decomposable, so the merge of the
per-batch partials equals the aggregate over the whole input.
"""

from __future__ import annotations

import pyarrow as pa


def two_phase_agg(ds, keys, aggs: dict, prepare=None):
    """Group ``ds`` by ``keys`` and aggregate it in two phases.

    ``aggs`` maps each output column, in output order, to
    ``(input column, op)`` with ``op`` one of ``sum``, ``min``, ``max``
    or ``rows`` (the group's row count; its input column is ignored).
    ``prepare`` maps each pyarrow batch before the fold (derived keys,
    integer cents, window fan-out). The result has the key columns
    first, then the ``aggs`` columns."""
    from ray.data.aggregate import Max, Min, Sum

    key_list = [keys] if isinstance(keys, str) else list(keys)
    fold = [([], "count_all") if op == "rows" else (c, op) for c, op in aggs.values()]
    merge_op = {"sum": Sum, "rows": Sum, "min": Min, "max": Max}

    def partial(t: pa.Table) -> pa.Table:
        if prepare is not None:
            t = prepare(t)
        return t.group_by(key_list).aggregate(fold).rename_columns([*key_list, *aggs])

    merge = [merge_op[op](out, alias_name=out) for out, (_, op) in aggs.items()]
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(keys).aggregate(*merge)

"""The engine's two shuffle shapes, each written once.

- ``two_phase_agg`` — the pre-aggregated (decomposable) groupby. Phase 1
  folds each batch to one row per key with ``pa.Table.group_by`` inside
  ``map_batches``, so only partial rows ever reach the exchange; phase 2
  merges the partials with one Ray ``groupby(keys).aggregate``. Sums,
  row counts, mins and maxes are decomposable, so the merge of the
  per-batch partials equals the aggregate over the whole input.
- ``cogroup`` — the bucketed co-group. One or more Datasets (the
  sides) share one exchange keyed by ``key mod n_buckets``; a reduce
  function sees, per bucket, every side's rows of that bucket. Joins
  (semi, anti, inner, outer-compare) and per-key windows are all this
  shape: the key-level work runs vectorized inside the bucket group,
  so millions of distinct keys never become millions of Ray groups.

``mod_bucket`` and ``coarse_buckets`` are the bucket rule and the
cluster-sized bucket count the engine's other exchanges share.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def mod_bucket(col, n: int):
    """x % n over an Arrow int column (pyarrow has no modulo kernel):
    ``x - (x // n) * n`` with truncating division, so a negative ``x``
    gives a remainder in ``(-n, 0]`` — SQL's ``%``."""
    nn = pa.scalar(n, pa.int64())
    return pc.subtract(col, pc.multiply(pc.divide(col, nn), nn))


def coarse_buckets(requested: int | None = None, per_cpu: int = 2, floor: int = 64) -> int:
    """Coarse shuffle-bucket count sized to the cluster (``per_cpu``
    groups per CPU so every reducer core stays busy, never below
    ``floor`` so a skewed group stays bounded on tiny clusters). A
    fixed 64 would cap reducer parallelism at 64 on any fleet."""
    if requested:
        return requested
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(floor, per_cpu * cpus)


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


def cogroup(sides, key: str, n_buckets: int, fn, batch_format: str = "pandas"):
    """Co-group one Dataset or a list of them on ``key mod n_buckets``.

    ``fn(*parts)`` runs once per bucket that holds a row, with one
    frame per side, in ``sides`` order (``pandas`` DataFrames or, for
    ``batch_format="pyarrow"``, Arrow tables). A part holds exactly that
    side's rows in the bucket, with the side's own columns and types:
    no bucket, marker or filler column. A side with no rows in the
    bucket gets an empty part with no columns, so ``fn`` reads a side
    that may be missing with ``.get``, ``reindex`` or an emptiness
    check. ``fn`` returns one frame, and the result has Arrow blocks.

    Exchange layout: each block of side ``i`` is split into one part
    per bucket it holds rows of (those rows, in block order), each an
    Arrow IPC stream, shipped as ``(bucket, side, part)`` rows. Every
    side thus has one fixed layout and the union needs no column
    alignment; the exchange carries at most one row per block and
    bucket, and none for a bucket the block has no rows of."""
    sides = [sides] if not isinstance(sides, (list, tuple)) else list(sides)
    layout = pa.schema(
        [("bucket", pa.int64()), ("side", pa.int64()), ("part", pa.large_binary())]
    )

    def split(t: pa.Table, side: int) -> pa.Table:
        if not t.num_rows:  # an empty block may lack the key column
            return layout.empty_table()
        t = t.replace_schema_metadata(None)
        b = np.mod(t[key].to_numpy(), n_buckets)
        t = t.take(np.argsort(b, kind="stable"))
        rows = np.bincount(b, minlength=n_buckets)
        held = np.flatnonzero(rows)
        starts = np.cumsum(rows) - rows
        sink, offsets = pa.BufferOutputStream(), [0]
        for i in held:
            with pa.ipc.new_stream(sink, t.schema) as w:
                w.write_table(t.slice(starts[i], rows[i]))
            offsets.append(sink.tell())
        parts = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(),
            len(held),
            [None, pa.array(offsets, pa.int64()).buffers()[1], sink.getvalue()],
        )
        return pa.table(
            [pa.array(held, pa.int64()), pa.array(np.full(len(held), side, np.int64)), parts],
            schema=layout,
        )

    def reduce(g: pa.Table) -> pa.Table:
        frames = []
        for i in range(len(sides)):
            own = g.filter(pc.equal(g["side"], i))["part"]
            tables = [pa.ipc.open_stream(p.as_buffer()).read_all() for p in own]
            t = pa.concat_tables(tables or [pa.table({})], promote_options="permissive")
            frames.append(t.to_pandas() if batch_format == "pandas" else t)
        out = fn(*frames)
        if not isinstance(out, pa.Table):
            out = pa.Table.from_pandas(out, preserve_index=False)
        # no pandas metadata: Ray cannot hash a schema that carries it
        return out.replace_schema_metadata(None)

    split_sides = [
        ds.map_batches(split, batch_format="pyarrow", fn_args=(i,))
        for i, ds in enumerate(sides)
    ]
    unioned = split_sides[0].union(*split_sides[1:]) if split_sides[1:] else split_sides[0]
    return unioned.groupby("bucket").map_groups(reduce, batch_format="pyarrow")

"""Memory-budgeted, spillable operators.

These terminal operators work within an :class:`~repro.engine.memory.\
OperatorMemory` frame budget negotiated with the bufferpool, instead of
the classic operators' implicit infinite workspace.  When their state
outgrows the granted frames — or when the pool *claws frames back* under
scan pressure — they shed state to simulated temp space and merge it
back in the pipeline's finalize phase, after the feeding scan ends.

Determinism rules (the whole experiment stack depends on them):

* partition selection uses ``zlib.crc32`` over the key's ``repr`` —
  never the builtin ``hash``, which is salted per process;
* the spill victim is always the largest partition, ties broken by the
  lowest partition id;
* sort runs order groups by ``repr(key)``, a total order even when keys
  contain NaN.

The capacity model is deliberately coarse: a frame holds
:data:`GROUPS_PER_PAGE` group accumulators or :data:`KEYS_PER_PAGE`
join-hash entries.  What matters for the simulation is not the exact
constant but that state size maps *monotonically* to frames, so budget
cuts translate into spill I/O on the shared disk.
"""

from __future__ import annotations

import zlib
from itertools import islice, repeat
from math import ceil, log2
from typing import Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.costs import CostModel
from repro.engine.memory import OperatorMemory
from repro.engine.operators import (
    AggSpec,
    GroupByAggregate,
    Operator,
    PageUnits,
    _as_page_rows,
    _canonical_key_column,
    _page_bounds,
)
from repro.storage.datagen import PageData

#: Group accumulators per bufferpool-sized frame (hash aggregation).
GROUPS_PER_PAGE = 64
#: Join-hash entries per frame (key + row count payload).
KEYS_PER_PAGE = 128
#: Hash-aggregation fan-out: in-memory groups are bucketed into this
#: many partitions; spills evict one partition at a time.
N_PARTITIONS = 8

#: Valid values for the ``agg_strategy`` knob.
AGG_STRATEGIES = ("hash", "sort")


def partition_of(key: object, n_partitions: int) -> int:
    """Deterministic partition for a group/join key.

    ``repr`` of canonicalized Python scalars is stable across processes;
    ``zlib.crc32`` is an unsalted fixed function — together they make
    partitioning reproducible where builtin ``hash`` would not be.
    """
    return zlib.crc32(repr(key).encode()) % n_partitions


def split_chunks(build_table: Dict[object, int], n_chunks: int) -> List[Dict[object, int]]:
    """The share of a join's build table each of ``n_chunks`` probe
    passes covers: keys go to the chunk their CRC partition names."""
    if n_chunks == 1:
        return [build_table]
    chunks: List[Dict[object, int]] = [{} for _ in range(n_chunks)]
    for key, count in build_table.items():
        chunks[partition_of(key, n_chunks)][key] = count
    return chunks


def chunk_factor(pages_needed: int, pages_granted: int) -> int:
    """Multibuffer pass count: probe scans needed to cover a build side
    of ``pages_needed`` frames with ``pages_granted`` frames of memory."""
    if pages_needed <= 0:
        return 1
    return max(1, ceil(pages_needed / max(1, pages_granted)))


def _spill_victim(state: dict, buckets: List[List[object]]) -> dict:
    """Remove and return the fullest hash partition of ``state`` (ties go
    to the lowest partition id), in ``state``'s order.  ``buckets`` hold
    its live keys by partition, in insertion order; a table only gains
    keys, at its end, between spills, so only the tail no bucket holds
    yet is hashed — the key objects the table stores — and the victim
    costs O(:data:`N_PARTITIONS`), not O(live keys)."""
    tail = islice(reversed(state), len(state) - sum(map(len, buckets)))
    for key in reversed(list(tail)):
        buckets[partition_of(key, N_PARTITIONS)].append(key)
    victim = max(range(N_PARTITIONS), key=lambda pid: len(buckets[pid]))
    keys, buckets[victim] = buckets[victim], []
    return {key: state.pop(key) for key in keys}


def _write_run(operator, payload: dict, n_pages: int) -> float:
    """Queue ``payload`` as one temp run of ``n_pages`` pages of
    ``operator``; returns the CPU units of serialising it."""
    addr = operator.memory.spill_out(n_pages)
    operator._runs.append((addr, n_pages, payload))
    spill = operator.spill
    spill.spill_events += 1
    spill.spilled_partitions += 1
    spill.spilled_groups += len(payload)
    spill.spill_pages_written += n_pages
    return n_pages * operator.cost.spill_write_units_per_page


def _merge_runs(operator, db, merge) -> Generator:
    """Wait out ``operator``'s spill writes, then read its runs back one
    at a time (a real hash operator would partition recursively; one
    level is enough for the cost model), charging the temp read and the
    per-entry merge CPU on the simulated clock before ``merge(payload)``."""
    yield from operator.memory.drain()
    runs, operator._runs = operator._runs, []
    cost = operator.cost
    for addr, n_pages, payload in runs:
        yield from operator.memory.read_back(addr, n_pages)
        operator.spill.spill_pages_read += n_pages
        units = (
            n_pages * cost.spill_read_units_per_page
            + len(payload) * cost.spill_merge_units
        )
        yield from db.charge_cpu(cost.seconds(units))
        merge(payload)
        operator.spill.merged_groups += len(payload)


class SpillStats:
    """Counters every budgeted operator exposes to reports."""

    __slots__ = (
        "spill_events", "spilled_partitions", "spilled_groups",
        "spill_pages_written", "spill_pages_read", "peak_state",
        "merged_groups",
    )

    def __init__(self) -> None:
        self.spill_events = 0
        self.spilled_partitions = 0
        self.spilled_groups = 0
        self.spill_pages_written = 0
        self.spill_pages_read = 0
        self.peak_state = 0
        self.merged_groups = 0

    def as_dict(self) -> dict:
        return {
            "spill_events": self.spill_events,
            "spilled_partitions": self.spilled_partitions,
            "spilled_groups": self.spilled_groups,
            "spill_pages_written": self.spill_pages_written,
            "spill_pages_read": self.spill_pages_read,
            "peak_state": self.peak_state,
            "merged_groups": self.merged_groups,
        }


class _PageTimedSink:
    """A sink whose spills feed back into the simulation: a pure
    ``prepare(batch, page_rows)`` does a run's numpy work once, one
    prepared value per page, and ``absorb(prepared, rows)`` folds a page
    in and checks the budget when the scan reaches it (see
    :class:`~repro.engine.operators.PageFeed`)."""

    page_timed = True

    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        """A run taken as so many pages delivered now."""
        rows = _as_page_rows(page_rows).tolist()
        return np.array(list(map(self.absorb, self.prepare(batch, rows), rows)))

    def _spill_while_over(self, state: dict, units: float) -> float:
        """``units`` plus those of spilling while over budget or clawed."""
        memory = self.memory
        while state and (
            memory.spill_requested
            or self._pages_for(len(state)) > max(1, memory.pages)
        ):
            units += self._spill_one_partition(state)
        return units

    def _spill_one_partition(self, state: dict) -> float:
        """Evict the largest partition to temp space; returns CPU units."""
        payload = _spill_victim(state, self._buckets)
        return _write_run(self, payload, self._pages_for(len(payload)))


class BudgetedGroupBy(_PageTimedSink, GroupByAggregate):
    """Hash aggregation under a frame budget (the ``hash`` strategy).

    Behaves exactly like :class:`GroupByAggregate` until the in-memory
    group table outgrows ``memory.pages`` frames (or the pool claws
    frames back): it then spills the largest hash partition to temp
    space and keeps going.  Spilled partitions are read back and merged
    in :meth:`finalize_sim`, so results are always identical to the
    unbudgeted operator — only the simulated cost differs.

    The budget is checked after every page, against the group count and
    the claw-back flag as they stand at that moment.
    """

    def __init__(
        self,
        aggregates: Sequence[AggSpec],
        cost: CostModel,
        memory: OperatorMemory,
        group_by: Sequence[str] = (),
    ):
        super().__init__(aggregates, cost, group_by=group_by)
        self.memory = memory
        self.spill = SpillStats()
        # Spilled runs: (address, n_pages, groups payload).  The payload
        # stays in host memory — the simulation models the I/O, not the
        # bytes — but it is *removed* from the live table, so accumulator
        # state genuinely shrinks and later batches re-create groups.
        self._runs: List[Tuple[int, int, Dict[Tuple, List[float]]]] = []
        self._buckets: List[List[object]] = [[] for _ in range(N_PARTITIONS)]

    def _pages_for(self, n_groups: int) -> int:
        return ceil(n_groups / GROUPS_PER_PAGE) if n_groups else 0

    def prepare(self, batch: PageData, page_rows: Sequence[int]) -> List[List]:
        """Each page's ``(group key, slots)`` partials."""
        if not sum(page_rows):
            return [[]] * len(page_rows)
        return self._partials(batch, page_rows)

    def absorb(self, partials: List, rows: int) -> float:
        """Merge one page's partials; returns the page's CPU units."""
        if not rows:
            return 0.0
        self._merge(partials)
        self.spill.peak_state = max(self.spill.peak_state, len(self._groups))
        return self._spill_while_over(self._groups, self._units(rows))

    def finalize_sim(self, db) -> Generator:
        """Post-scan merge: read the spilled partitions back and fold them in."""
        return _merge_runs(self, db, lambda payload: self._merge(payload.items()))


class SortSpillGroupBy(BudgetedGroupBy):
    """Sort-based aggregation fallback (the ``sort`` strategy).

    Instead of evicting one hash partition, an overflow sorts the whole
    in-memory table by key (charging ``n·log₂n`` comparison units) and
    spills it as one sorted run — the classic external sort-aggregate
    shape.  Runs merge back in the finalize phase like the hash variant.
    """

    def _spill_one_partition(self, state: dict) -> float:
        n_groups = len(state)
        # Total order even for NaN-bearing keys: sort by repr.
        payload = dict(sorted(state.items(), key=lambda kv: repr(kv[0])))
        state.clear()
        sort_units = n_groups * max(1.0, log2(max(2, n_groups))) * (
            self.cost.sort_run_units
        )
        return _write_run(self, payload, self._pages_for(n_groups)) + sort_units


class HashBuildSink(_PageTimedSink, Operator):
    """Terminal build side of a budgeted hash join.

    Collects per-key row counts into a hash table bounded by the
    operator's frame budget; overflow spills the largest partition.
    ``finish()`` (after :meth:`finalize_sim` merged every spill back)
    returns the complete ``key -> build row count`` table the probe side
    consumes.  Like :class:`BudgetedGroupBy` it checks its budget after
    every page.
    """

    def __init__(self, key_column: str, cost: CostModel,
                 memory: Optional[OperatorMemory] = None):
        super().__init__(None)
        self.key_column = key_column
        self.cost = cost
        self.memory = memory
        self.table: Dict[object, int] = {}
        self.rows_in = 0
        self.spill = SpillStats()
        self._runs: List[Tuple[int, int, Dict[object, int]]] = []
        self._buckets: List[List[object]] = [[] for _ in range(N_PARTITIONS)]

    def required_columns(self) -> Optional[FrozenSet[str]]:
        return frozenset((self.key_column,))

    def estimate_units_per_row(self) -> float:
        """Static per-row cost for scan-speed estimation."""
        return self.cost.join_build_units

    def _pages_for(self, n_keys: int) -> int:
        return ceil(n_keys / KEYS_PER_PAGE) if n_keys else 0

    @property
    def pages_needed(self) -> int:
        """Frames the complete build table occupies (post-merge)."""
        total = len(self.table) + sum(len(p) for _, _, p in self._runs)
        return self._pages_for(total)

    def prepare(self, batch: PageData, page_rows: Sequence[int]) -> List[List]:
        """Each page's canonical build keys."""
        keys = _canonical_key_column(batch[self.key_column])
        bounds = _page_bounds(page_rows).tolist()
        return [keys[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def absorb(self, keys: List, rows: int) -> float:
        """Count one page's keys; returns the page's CPU units."""
        if not rows:
            return 0.0
        table = self.table
        for key in keys:
            table[key] = table.get(key, 0) + 1
        self.rows_in += rows
        self.spill.peak_state = max(self.spill.peak_state, len(table))
        units = rows * self.cost.join_build_units
        return units if self.memory is None else self._spill_while_over(table, units)

    def finalize_sim(self, db) -> Generator:
        """Read spilled build partitions back and merge their counts."""
        def merge(payload: Dict[object, int]) -> None:
            for key, count in payload.items():
                self.table[key] = self.table.get(key, 0) + count

        if self.memory is not None:
            yield from _merge_runs(self, db, merge)

    def finish(self) -> object:
        return self.table


class HashProbe(Operator):
    """Terminal probe side of a multibuffer hash join.

    A probe pass covers one *chunk* of the build table: when the build
    side needs more frames than the join was granted, the executor runs
    ``n_chunks`` full probe scans (the multibuffer trade — extra probe
    I/O instead of extra memory), handing each pass its share of the
    table (:func:`split_chunks`).  Chunk membership uses the same
    deterministic CRC partitioning as spilling and every key is in
    exactly one chunk, so the per-chunk match counts sum to exactly the
    single-pass total.  Probing a run is one dictionary lookup per row.
    """

    def __init__(self, key_column: str, cost: CostModel,
                 build_table: Dict[object, int]):
        super().__init__(None)
        self.key_column = key_column
        self.cost = cost
        self.build_table = build_table
        self.rows_probed = 0
        self.matches = 0

    def required_columns(self) -> Optional[FrozenSet[str]]:
        return frozenset((self.key_column,))

    def estimate_units_per_row(self) -> float:
        """Static per-row cost for scan-speed estimation."""
        return self.cost.join_probe_units

    def push(self, batch: PageData, page_rows: np.ndarray) -> PageUnits:
        page_rows = _as_page_rows(page_rows)
        n_rows = int(page_rows.sum())
        if n_rows:
            self.rows_probed += n_rows
            keys = _canonical_key_column(batch[self.key_column])
            self.matches += sum(map(self.build_table.get, keys, repeat(0)))
        return page_rows * self.cost.join_probe_units

    def finish(self) -> object:
        return {"rows_probed": self.rows_probed, "matches": self.matches}

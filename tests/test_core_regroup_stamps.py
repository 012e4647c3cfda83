"""Properties of the decisions the sharing manager makes once per regroup.

Every regroup stamps each scan's release priority on its state
(``ScanState.priority``), and the scan releases its pages with the stamp
instead of asking the policy per page.  The first property drives the
three policies through random lifecycles and checks, after every call,
the stamp against :func:`~repro.core.priority.release_priority` over the
flags, the policy's own invariants, and the push contract: every
registered scan consumes the pushes of exactly one driver.  The others
pin :func:`~repro.core.grouping.form_groups` and
``ScanSharingManager._order_violated``, which read each member's
position once per call, against copies of their position-per-use
versions kept below.
"""

from dataclasses import replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SharingConfig
from repro.core.grouping import ScanGroup, _circle_pages, form_groups
from repro.core.manager import ScanSharingManager
from repro.core.policy import SHARING_POLICY_NAMES, make_sharing_policy
from repro.core.priority import release_priority
from repro.core.scan_state import ScanDescriptor, ScanState
from repro.sim.kernel import Simulator
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnSpec
from repro.storage.table import Table
from repro.storage.tablespace import Tablespace

from tests.conftest import make_schema


# ----------------------------------------------------------------------
# Reference copies: position read on every use
# ----------------------------------------------------------------------

def reference_form_groups(
    scans_by_table: Dict[str, Sequence[ScanState]],
    pool_budget_pages: int,
    table_pages: Optional[Dict[str, int]] = None,
) -> List[ScanGroup]:
    sorted_scans: Dict[str, List[ScanState]] = {}
    modulus: Dict[str, int] = {}
    pairs: List[Tuple[int, str, int]] = []  # (distance, table, index of rear scan)
    for table_name, scans in scans_by_table.items():
        ordered = sorted(scans, key=lambda s: (s.position, s.scan_id))
        sorted_scans[table_name] = ordered
        if not ordered:
            continue
        circle = (table_pages or {}).get(table_name) or _circle_pages(ordered)
        modulus[table_name] = circle
        if len(ordered) > 1:
            for i in range(len(ordered)):
                nxt = ordered[(i + 1) % len(ordered)]
                distance = (nxt.position - ordered[i].position) % circle
                pairs.append((distance, table_name, i))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))

    accepted: Dict[str, set] = {name: set() for name in sorted_scans}
    total_extent = 0
    for distance, table_name, index in pairs:
        if len(accepted[table_name]) == len(sorted_scans[table_name]) - 1:
            continue
        if total_extent + distance > pool_budget_pages:
            continue
        accepted[table_name].add(index)
        total_extent += distance

    groups: List[ScanGroup] = []
    next_group_id = 0
    for table_name, ordered in sorted_scans.items():
        if not ordered:
            continue
        k = len(ordered)
        edges = accepted[table_name]
        starts = (
            [i for i in range(k) if (i - 1) % k not in edges] if k > 1 else [0]
        )
        for start in starts:
            length = 1
            while length < k and (start + length - 1) % k in edges:
                length += 1
            group = ScanGroup(
                group_id=next_group_id,
                table_name=table_name,
                members=[ordered[(start + j) % k] for j in range(length)],
                table_pages=modulus[table_name],
            )
            next_group_id += 1
            groups.append(group)

    for group in groups:
        for member in group.members:
            member.group_id = group.group_id
            member.is_leader = member.scan_id == group.leader.scan_id
            member.is_trailer = member.scan_id == group.trailer.scan_id
    return groups


def reference_order_violated(self, group: Optional[ScanGroup]) -> bool:
    if group is None or group.size <= 1:
        return False
    circle = group.table_pages
    if circle <= 0:
        circle = self.catalog.table(group.table_name).n_pages
    ordered = sorted(group.members, key=lambda s: (s.position, s.scan_id))
    k = len(ordered)
    gaps = [
        ordered[i].forward_distance_to(ordered[(i + 1) % k], circle)
        for i in range(k)
    ]
    leader_index = next(
        i for i, s in enumerate(ordered)
        if s.scan_id == group.leader.scan_id
    )
    successor = ordered[(leader_index + 1) % k]
    return (
        successor.scan_id != group.trailer.scan_id
        or gaps[leader_index] < max(gaps)
    )


# ----------------------------------------------------------------------
# Scan states with tied, wrapped and clustered positions
# ----------------------------------------------------------------------

TABLE_PAGES = {"a": 64, "b": 40, "c": 100}

#: ``(table, first, last, start offset, pages scanned)``.  Few distinct
#: starts and progress values make equal positions common; progress past
#: the range end wraps.
scan_specs = st.tuples(
    st.sampled_from(sorted(TABLE_PAGES)),
    st.sampled_from([0, 0, 0, 4, 8]),
    st.sampled_from([15, 39, 39, 63]),
    st.sampled_from([0, 0, 3, 8, 12, 30]),
    st.sampled_from([0, 0, 1, 5, 16, 33, 50, 77]),
)


def build_states(specs) -> Dict[str, List[ScanState]]:
    by_table: Dict[str, List[ScanState]] = {}
    for scan_id, (table, first, last, offset, scanned) in enumerate(specs):
        last = min(last, TABLE_PAGES[table] - 1)
        descriptor = ScanDescriptor(table, first, last, estimated_speed=100.0)
        state = ScanState(
            scan_id=scan_id, descriptor=descriptor,
            start_page=first + offset % (last - first + 1),
            start_time=0.0, speed=100.0, pages_scanned=scanned,
        )
        by_table.setdefault(table, []).append(state)
    return by_table


def describe(groups: List[ScanGroup], by_table) -> tuple:
    shape = [
        (g.group_id, g.table_name, g.table_pages,
         [m.scan_id for m in g.members])
        for g in groups
    ]
    flags = sorted(
        (s.scan_id, s.group_id, s.is_leader, s.is_trailer)
        for states in by_table.values() for s in states
    )
    return shape, flags


class TestFormGroupsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        specs=st.lists(scan_specs, max_size=9),
        budget=st.sampled_from([0, 1, 4, 10, 25, 60, 200]),
        known_pages=st.booleans(),
        reverse=st.booleans(),
    )
    def test_same_groups_members_and_flags(
        self, specs, budget, known_pages, reverse
    ):
        runs = []
        for impl in (reference_form_groups, form_groups):
            by_table = build_states(specs)
            if reverse:
                by_table = {t: s[::-1] for t, s in by_table.items()}
            pages = dict(TABLE_PAGES) if known_pages else None
            runs.append(describe(impl(by_table, budget, pages), by_table))
        assert runs[1] == runs[0]


class TestOrderViolatedMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        specs=st.lists(
            scan_specs.map(lambda spec: ("a",) + spec[1:]),
            min_size=1, max_size=7,
        ),
        budget=st.sampled_from([0, 10, 60, 200]),
        drift=st.lists(st.sampled_from([0, 0, 1, 7, 20, 40]), max_size=7),
        table_pages=st.sampled_from([0, 64]),
        member_order=st.randoms(use_true_random=False),
    )
    def test_same_verdicts(
        self, specs, budget, drift, table_pages, member_order
    ):
        catalog = SimpleNamespace(
            table=lambda name: SimpleNamespace(n_pages=TABLE_PAGES[name])
        )
        host = SimpleNamespace(catalog=catalog)
        by_table = build_states(specs)
        groups = form_groups(by_table, budget, dict(TABLE_PAGES))
        # Scans move on after the flags were stamped.
        for state, pages in zip(by_table["a"], drift):
            state.pages_scanned += pages
        # Groups as formed, then hand-built ones in arbitrary member order
        # (including the linear ``table_pages=0`` fallback).
        members = list(by_table["a"])
        member_order.shuffle(members)
        candidates = groups + [
            None,
            ScanGroup(group_id=99, table_name="a", members=members,
                      table_pages=table_pages),
        ]
        for group in candidates:
            assert ScanSharingManager._order_violated(host, group) == (
                reference_order_violated(host, group)
            )


# ----------------------------------------------------------------------
# The stamp through random lifecycles
# ----------------------------------------------------------------------

def make_policy(name: str, config: SharingConfig, pool: int):
    catalog = Catalog(Tablespace(10_000))
    for table, pages in TABLE_PAGES.items():
        schema = make_schema(table, [ColumnSpec("id", "sequence")])
        catalog.create_table(Table(schema, n_pages=pages, extent_size=4))
    sim = Simulator()
    return sim, make_sharing_policy(name, sim, catalog, pool, config)


TOGGLES = ("prioritization_enabled",)

#: Two tables, not three, so that groups of several scans are common.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("start"), st.sampled_from(["a", "a", "b"]),
                  st.sampled_from([0, 0, 5]), st.sampled_from([39, 39, 20])),
        st.tuples(st.just("update"), st.integers(0, 8),
                  st.sampled_from([0, 1, 4, 9, 20]),
                  st.sampled_from([0.0, 0.0, 0.05, 0.3])),
        st.tuples(st.just("end"), st.integers(0, 8)),
        st.tuples(st.just("abort"), st.integers(0, 8)),
        st.tuples(st.just("toggle"), st.sampled_from(TOGGLES)),
    ),
    max_size=40,
)


class TestPriorityStamp:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(SHARING_POLICY_NAMES),
        flags=st.lists(st.sampled_from([True, True, False]),
                       min_size=len(TOGGLES), max_size=len(TOGGLES)),
        pool=st.sampled_from([8, 30, 200]),
        ops=operations,
    )
    # A leader stamped HIGH, then prioritization switched off: the stamp
    # goes.
    @example("grouping-throttling", [True] * len(TOGGLES), 200,
             [("start", "a", 0, 39), ("start", "a", 0, 39),
              ("toggle", "prioritization_enabled")])
    # A newcomer placed at a follower that outran its driver: it must
    # ride the driver's push, not the follower's.
    @example("cooperative", [True] * len(TOGGLES), 200,
             [("start", "a", 0, 39), ("update", 0, 20, 0.3),
              ("start", "a", 0, 39), ("update", 1, 9, 0.05),
              ("start", "a", 0, 39)])
    def test_stamp_equals_release_priority_after_every_call(
        self, name, flags, pool, ops
    ):
        config = SharingConfig(**dict(zip(TOGGLES, flags)))
        sim, policy = make_policy(name, config, pool)
        live: List[ScanState] = []
        for op in ops:
            kind = op[0]
            if kind == "start":
                _, table, first, last = op
                last = min(last, TABLE_PAGES[table] - 1)
                live.append(policy.start_scan(
                    ScanDescriptor(table, first, last, estimated_speed=100.0)
                ))
            elif kind == "toggle":
                # A config swap takes effect at the next regroup, which
                # is forced here the way a new config is applied.
                flag = op[1]
                policy.config = replace(
                    policy.config, **{flag: not getattr(policy.config, flag)}
                )
                if isinstance(policy, ScanSharingManager):
                    policy._regroup(force=True)
            elif not live:
                continue
            elif kind == "update":
                _, index, pages, dt = op
                state = live[index % len(live)]
                sim.run(until=sim.now + dt)
                policy.update_location(
                    state.scan_id,
                    min(state.pages_scanned + pages, state.range_pages),
                )
            else:
                state = live.pop(op[1] % len(live))
                if kind == "end":
                    policy.end_scan(state.scan_id)
                else:
                    policy.abort_scan(state.scan_id)
            for state in live:
                group = policy.group_of(state.scan_id)
                size = group.size if group is not None else 1
                assert state.priority == release_priority(
                    state, size, policy.config
                )
            # Strict arc order holds right after a forced regroup.
            assert not list(policy.invariant_problems(
                strict_order=kind != "update"
            ))
            drivers = [s.scan_id for s in live
                       if policy.is_push_driver(s.scan_id)]
            consumers = [c for d in drivers for c in policy.push_consumer_set(d)]
            assert sorted(consumers) == sorted(s.scan_id for s in live)

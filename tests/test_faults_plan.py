"""Unit tests for fault-spec parsing and :class:`FaultPlan`."""

import math

import pytest

from repro.faults.plan import (
    BUILTIN_PLANS,
    DiskDelayFault,
    DiskErrorFault,
    FaultPlan,
    FaultSpecError,
    PoolPressureFault,
    ScanKillFault,
    parse_fault_spec,
)


class TestClauseParsing:
    def test_bare_kind_uses_defaults(self):
        (fault,) = parse_fault_spec("scan-kill")
        assert fault == ScanKillFault()
        assert fault.target == "any" and fault.at == 0.5 and fault.count == 1

    def test_options_parsed_and_coerced(self):
        (fault,) = parse_fault_spec("scan-kill:target=nth,nth=3,at=0.25,count=2")
        assert fault.target == "nth"
        assert fault.nth == 3
        assert isinstance(fault.nth, int)
        assert fault.at == 0.25
        assert fault.count == 2

    def test_from_alias_maps_to_start(self):
        (fault,) = parse_fault_spec("disk-delay:factor=2.0,from=1.5,until=3.0")
        assert fault.start == 1.5
        assert fault.until == 3.0

    def test_inf_window_end(self):
        (fault,) = parse_fault_spec("disk-error:rate=0.1,until=inf")
        assert fault.until == math.inf
        assert fault.active_at(1e9)

    def test_multiple_clauses_semicolon_separated(self):
        faults = parse_fault_spec(
            "scan-kill:target=leader; disk-delay:factor=2.0; pool-pressure"
        )
        assert [type(f) for f in faults] == [
            ScanKillFault, DiskDelayFault, PoolPressureFault,
        ]

    def test_whitespace_tolerated(self):
        (fault,) = parse_fault_spec("  disk-delay : factor=3.0 , from=0.5  ".replace(" : ", ":"))
        assert fault.factor == 3.0

    def test_builtin_aliases_expand(self):
        for alias, spec in BUILTIN_PLANS.items():
            assert parse_fault_spec(alias) == parse_fault_spec(spec)

    def test_builtin_alias_with_tail_rejected(self):
        # An alias is a whole clause; it takes no options.
        with pytest.raises(FaultSpecError):
            parse_fault_spec("leader-abort:at=0.9")

    def test_replica_pin_parsed_on_every_kind(self):
        for kind in ("scan-kill", "disk-delay", "disk-error",
                     "pool-pressure"):
            (fault,) = parse_fault_spec(f"{kind}:replica=1")
            assert fault.replica == 1
            assert isinstance(fault.replica, int)

    def test_replica_defaults_to_unpinned(self):
        (fault,) = parse_fault_spec("scan-kill")
        assert fault.replica == -1
        assert fault.matches_replica(0) and fault.matches_replica(7)

    def test_pinned_fault_matches_only_its_replica(self):
        (fault,) = parse_fault_spec("disk-delay:factor=2.0,replica=2")
        assert fault.matches_replica(2)
        assert not fault.matches_replica(0)
        assert not fault.matches_replica(3)


class TestValidation:
    @pytest.mark.parametrize("spec", [
        "",
        " ; ; ",
        "warp-core-breach",
        "scan-kill:target=ceo",
        "scan-kill:at=1.5",
        "scan-kill:at=-0.1",
        "scan-kill:count=0",
        "scan-kill:at",
        "scan-kill:frequency=1",
        "scan-kill:count=many",
        "disk-delay:factor=0.5",
        "disk-delay:from=2.0,until=1.0",
        "disk-delay:from=-1.0",
        "disk-error:rate=1.5",
        "disk-error:max_retries=0",
        "disk-error:backoff=-0.001",
        "pool-pressure:fraction=0.0",
        "pool-pressure:fraction=1.0",
        "scan-kill:replica=-2",
        "disk-delay:replica=-5",
        "disk-error:replica=one",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(spec)

    def test_fault_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_fault_spec("nope")


class TestFaultPlan:
    def test_from_spec_binds_seed_and_faults(self):
        plan = FaultPlan.from_spec("disk-degrade", seed=9)
        assert plan.seed == 9
        assert plan.spec == "disk-degrade"
        assert plan.faults == parse_fault_spec("disk-degrade")

    def test_same_inputs_equal_plans(self):
        a = FaultPlan.from_spec("leader-abort", seed=3)
        b = FaultPlan.from_spec("leader-abort", seed=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_seed_distinguishes_plans(self):
        assert FaultPlan.from_spec("leader-abort", seed=3) != \
            FaultPlan.from_spec("leader-abort", seed=4)

    def test_spec_distinguishes_plans(self):
        assert FaultPlan.from_spec("leader-abort", seed=3) != \
            FaultPlan.from_spec("trailer-abort", seed=3)


class TestForReplica:
    SPEC = ("scan-kill:replica=0; disk-delay:factor=2.0,replica=1; "
            "pool-pressure")

    def test_keeps_pinned_and_unpinned_clauses(self):
        plan = FaultPlan.from_spec(self.SPEC, seed=5)
        sub = plan.for_replica(0)
        assert [type(f) for f in sub.faults] == [
            ScanKillFault, PoolPressureFault,
        ]

    def test_drops_clauses_pinned_elsewhere(self):
        plan = FaultPlan.from_spec(self.SPEC, seed=5)
        sub = plan.for_replica(1)
        assert [type(f) for f in sub.faults] == [
            DiskDelayFault, PoolPressureFault,
        ]

    def test_preserves_spec_and_seed(self):
        plan = FaultPlan.from_spec(self.SPEC, seed=5)
        sub = plan.for_replica(2)
        assert sub.spec == plan.spec
        assert sub.seed == plan.seed

    def test_can_filter_to_empty(self):
        plan = FaultPlan.from_spec("scan-kill:replica=0", seed=1)
        assert plan.for_replica(3).faults == ()

    def test_unpinned_plan_passes_through_whole(self):
        plan = FaultPlan.from_spec("disk-degrade", seed=7)
        assert plan.for_replica(4).faults == plan.faults

"""ShardMap unit tests: placement identity, versioning, the move machine.

The load-bearing property is *placement compatibility*: a freshly built
map (no moves yet) must place every value on exactly the DN the seed's
direct ``shard_of_value(v, num_dns)`` chose, because the placement-
sensitive suites and replay traces predict DN indices that way.
"""

import pytest

from repro.cluster.shardmap import SLOTS_PER_DN, ShardMap, ShardMapError
from repro.storage.table import shard_of_value


class TestPlacementIdentity:
    @pytest.mark.parametrize("num_dns", [2, 3, 4, 8])
    def test_fresh_map_matches_seed_placement_for_ints(self, num_dns):
        shard_map = ShardMap(num_dns)
        for k in range(-50, 500):
            assert shard_map.owner_of_value(k) == shard_of_value(k, num_dns)

    @pytest.mark.parametrize("num_dns", [2, 3, 4, 8])
    def test_fresh_map_matches_seed_placement_for_text(self, num_dns):
        shard_map = ShardMap(num_dns)
        for k in ["w1", "item-42", "", "日本語", "a" * 100]:
            assert shard_map.owner_of_value(k) == shard_of_value(k, num_dns)

    def test_shard_of_value_accepts_the_map_as_router(self):
        # The storage-layer hash function dispatches to the map when handed
        # one instead of an int — the single hook every layer routes through.
        shard_map = ShardMap(4)
        for k in range(40):
            assert shard_of_value(k, shard_map) == shard_map.owner_of_value(k)

    def test_default_slot_count(self):
        assert ShardMap(4).num_slots == 4 * SLOTS_PER_DN

    def test_slot_count_must_divide(self):
        with pytest.raises(ShardMapError):
            ShardMap(3, num_slots=256)
        with pytest.raises(ShardMapError):
            ShardMap(0)


class TestMembership:
    def test_members_and_add(self):
        shard_map = ShardMap(4)
        assert shard_map.members() == (0, 1, 2, 3)
        v = shard_map.version
        shard_map.add_member(4)
        assert shard_map.members() == (0, 1, 2, 3, 4)
        assert shard_map.version == v + 1
        assert shard_map.slot_counts()[4] == 0    # owns nothing yet

    def test_add_existing_member_raises(self):
        shard_map = ShardMap(2)
        with pytest.raises(ShardMapError):
            shard_map.add_member(1)

    def test_remove_requires_drained(self):
        shard_map = ShardMap(2)
        with pytest.raises(ShardMapError):
            shard_map.remove_member(1)      # still owns slots

    def test_remove_drained_member(self):
        shard_map = ShardMap(2)
        for slot in shard_map.slots_owned_by(1):
            shard_map.begin_move(slot, 0)
        shard_map.flip(shard_map.slots_owned_by(1))
        v = shard_map.version
        shard_map.remove_member(1)
        assert shard_map.members() == (0,)
        assert shard_map.version == v + 1
        with pytest.raises(ShardMapError):
            shard_map.remove_member(0)      # never retire the last DN


class TestMoveMachine:
    def test_begin_excludes_target_and_keeps_owner(self):
        shard_map = ShardMap(2)
        source = shard_map.begin_move(3, 0)
        assert source == 1
        assert shard_map.owner_of_slot(3) == 1          # not flipped yet
        assert shard_map.moving_target(3) == 0
        assert 3 in shard_map.excluded_slots(0)          # partial copy hidden
        assert shard_map.excluded_slots(1) == frozenset()

    def test_route_is_owner_and_move_target(self):
        shard_map = ShardMap(2)
        shard_map.begin_move(3, 0)
        for value in [3, 3 + shard_map.num_slots, -3, 0, True, False, 2 ** 70,
                      -2 ** 63, "w3", 3.0, 2.5, None]:
            slot = shard_map.slot_of_value(value)
            assert shard_map.route(value) == (
                shard_map.owner_of_slot(slot), shard_map.moving_target(slot))
        assert shard_map.route(3) == (1, 0)

    def test_begin_twice_raises(self):
        shard_map = ShardMap(2)
        shard_map.begin_move(3, 0)
        with pytest.raises(ShardMapError):
            shard_map.begin_move(3, 0)

    def test_flip_is_one_version_bump_and_swaps_exclusion(self):
        shard_map = ShardMap(2)
        slots = shard_map.slots_owned_by(1)[:4]
        for slot in slots:
            shard_map.begin_move(slot, 0)
        v = shard_map.version
        shard_map.flip(slots)
        assert shard_map.version == v + 1               # batch = one bump
        assert shard_map.flips == len(slots)
        for slot in slots:
            assert shard_map.owner_of_slot(slot) == 0
            assert shard_map.moving_target(slot) is None
            assert slot in shard_map.excluded_slots(1)   # stale source copy
            assert slot not in shard_map.excluded_slots(0)
        for slot in slots:
            shard_map.clear_excluded(1, slot)
        assert shard_map.excluded_slots(1) == frozenset()

    def test_flip_unmoving_slot_raises(self):
        shard_map = ShardMap(2)
        with pytest.raises(ShardMapError):
            shard_map.flip([0])

    def test_abort_move_restores_steady_state(self):
        shard_map = ShardMap(2)
        v = shard_map.version
        shard_map.begin_move(3, 0)
        assert shard_map.abort_move(3) == 0
        assert shard_map.owner_of_slot(3) == 1
        assert not shard_map.has_moves()
        assert shard_map.excluded_slots(0) == frozenset()
        assert shard_map.version == v                   # nothing flipped

    def test_move_to_non_member_raises(self):
        shard_map = ShardMap(2)
        with pytest.raises(ShardMapError):
            shard_map.begin_move(0, 7)


class TestBalanceAccounting:
    def test_balanced_assignment_spreads_remainder_low_first(self):
        shard_map = ShardMap(4)
        shard_map.add_member(4)      # 256 slots over 5 members
        desired = shard_map.balanced_assignment()
        assert sum(desired.values()) == shard_map.num_slots
        assert desired[0] == 52 and desired[4] == 51

    def test_skew_flags_fresh_member(self):
        shard_map = ShardMap(4)
        assert shard_map.skew() == 1.0
        shard_map.add_member(4)
        assert shard_map.skew() > 1.2

    def test_rows_shape(self):
        shard_map = ShardMap(2)
        shard_map.begin_move(5, 0)
        rows = shard_map.rows()
        assert len(rows) == shard_map.num_slots
        slot, owner, moving_to, excluded_on = rows[5]
        assert (slot, owner, moving_to, excluded_on) == (5, 1, 0, "dn0")
        assert rows[4][2] == -1 and rows[4][3] == ""

"""Unit tests for the schedule representation."""

import re

import pytest

from repro.orderings.schedule import (
    Move,
    Schedule,
    Step,
    apply_moves,
    compose_moves,
    permutation_of_sweep,
)


class TestMove:
    def test_level_local(self):
        assert Move(0, 1).level == 0
        assert Move(0, 1).is_local

    def test_level_neighbour(self):
        assert Move(1, 2).level == 1  # leaf 0 -> leaf 1
        assert not Move(1, 2).is_local

    def test_level_far(self):
        assert Move(0, 7).level == 2  # leaf 0 -> leaf 3
        assert Move(0, 15).level == 3


class TestStepValidation:
    def test_accepts_disjoint_pairs(self):
        Step(pairs=((0, 1), (2, 3)))

    def test_rejects_degenerate_pair(self):
        with pytest.raises(ValueError):
            Step(pairs=((1, 1),))

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            Step(pairs=((0, 1), (1, 2)))

    def test_rejects_non_permutation_moves(self):
        with pytest.raises(ValueError):
            Step(pairs=(), moves=(Move(0, 1),))  # 1 never vacated

    def test_accepts_swap(self):
        Step(pairs=(), moves=(Move(0, 1), Move(1, 0)))

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            Step(pairs=(), moves=(Move(0, 1), Move(0, 2)))

    def test_remote_pairs_detection(self):
        s = Step(pairs=((0, 1), (1 + 1, 4)))
        assert s.remote_pairs == ((2, 4),)

    def test_message_moves_excludes_local(self):
        s = Step(pairs=(), moves=(Move(0, 1), Move(1, 0), Move(2, 4), Move(4, 2)))
        assert all(m.level > 0 for m in s.message_moves)
        assert len(s.message_moves) == 2


class TestApplyMoves:
    def test_identity_without_moves(self):
        assert apply_moves([5, 6, 7], []) == [5, 6, 7]

    def test_swap(self):
        assert apply_moves([5, 6], [Move(0, 1), Move(1, 0)]) == [6, 5]

    def test_three_cycle(self):
        out = apply_moves([1, 2, 3], [Move(0, 1), Move(1, 2), Move(2, 0)])
        assert out == [3, 1, 2]


class TestComposeMoves:
    def test_chained_travel_is_direct(self):
        first = (Move(0, 1), Move(1, 0))
        second = (Move(1, 2), Move(2, 1))
        net = compose_moves(first, second)
        applied = apply_moves([10, 20, 30], net)
        # sequential application for comparison
        ref = apply_moves(apply_moves([10, 20, 30], first), second)
        assert applied == ref

    def test_cancellation_drops_identity(self):
        first = (Move(0, 1), Move(1, 0))
        net = compose_moves(first, first)
        assert net == ()

    def test_disjoint_union(self):
        first = (Move(0, 1), Move(1, 0))
        second = (Move(4, 5), Move(5, 4))
        net = compose_moves(first, second)
        assert len(net) == 4

    def test_matches_sequential_on_random_perms(self):
        import random

        rnd = random.Random(7)
        for _ in range(50):
            n = 8
            slots = list(range(n))
            p1 = rnd.sample(slots, n)
            p2 = rnd.sample(slots, n)
            m1 = tuple(Move(s, d) for s, d in zip(slots, p1) if s != d)
            m2 = tuple(Move(s, d) for s, d in zip(slots, p2) if s != d)
            data = [rnd.random() for _ in range(n)]
            net = compose_moves(m1, m2)
            assert apply_moves(data, net) == apply_moves(apply_moves(data, m1), m2)


class TestValidationMessages:
    """Every rejection of the validating constructors raises
    ``ValueError`` with its exact message; the messages are built only
    when a check fails, so pin their text here."""

    @staticmethod
    def _raises(message):
        return pytest.raises(ValueError, match=f"^{re.escape(message)}$")

    def test_degenerate_pair(self):
        with self._raises("degenerate pair (3, 3)"):
            Step(pairs=((0, 1), (3, 3)))

    def test_slot_in_two_pairs(self):
        with self._raises(
                "slot appears in two pairs of one step: ((0, 1), (2, 3), (3, 4))"):
            Step(pairs=((0, 1), (2, 3), (3, 4)))

    def test_degenerate_pair_reported_before_a_later_overlap(self):
        with self._raises("degenerate pair (2, 2)"):
            Step(pairs=((0, 1), (2, 2), (1, 5)))

    def test_duplicate_move_sources(self):
        with self._raises("duplicate move sources in step"):
            Step(pairs=(), moves=(Move(0, 1), Move(0, 2), Move(1, 0)))

    def test_duplicate_move_destinations(self):
        with self._raises("duplicate move destinations in step"):
            Step(pairs=(), moves=(Move(0, 2), Move(1, 2)))

    def test_moves_not_a_partial_permutation(self):
        with self._raises(
                "moves must form a partial permutation (src set == dst set); "
                "got srcs=[0, 2] dsts=[1, 2]"):
            Step(pairs=(), moves=(Move(2, 1), Move(0, 2)))

    @pytest.mark.parametrize("pair", [(0, 4), (4, 0), (-1, 0)])
    def test_pair_slot_out_of_range(self, pair):
        with self._raises("pair slot out of range in sched-x"):
            Schedule(n=4, steps=[Step(pairs=((2, 3),)), Step(pairs=(pair,))],
                     name="sched-x")

    @pytest.mark.parametrize("move", [(0, 4), (4, 0)])
    def test_move_slot_out_of_range(self, move):
        src, dst = move
        with self._raises("move slot out of range in sched-y"):
            Schedule(n=4, steps=[Step(pairs=((0, 1),),
                                      moves=(Move(src, dst), Move(dst, src)))],
                     name="sched-y")

    def test_pair_checked_before_moves_of_the_same_step(self):
        with self._raises("pair slot out of range in schedule"):
            Schedule(n=2, steps=[Step(pairs=((0, 7),),
                                      moves=(Move(0, 9), Move(9, 0)))])


class TestSchedule:
    def _simple(self) -> Schedule:
        steps = [
            Step(pairs=((0, 1), (2, 3)), moves=(Move(1, 2), Move(2, 1))),
            Step(pairs=((0, 1), (2, 3))),
        ]
        return Schedule(n=4, steps=steps, name="t")

    def test_trace_tracks_layout(self):
        s = self._simple()
        traced = list(s.trace())
        assert traced[0][1] == [(1, 2), (3, 4)]
        assert traced[1][1] == [(1, 3), (2, 4)]

    def test_final_layout(self):
        assert self._simple().final_layout() == [1, 3, 2, 4]

    def test_rotation_steps_counts_only_pair_steps(self):
        steps = [
            Step(pairs=((0, 1),)),
            Step(pairs=(), moves=(Move(0, 1), Move(1, 0))),
            Step(pairs=((0, 1),)),
        ]
        s = Schedule(n=2, steps=steps)
        assert s.n_steps == 3
        assert s.n_rotation_steps == 2

    def test_level_histogram(self):
        s = self._simple()
        assert s.level_histogram() == {1: 2}

    def test_total_messages(self):
        assert self._simple().total_messages() == 2

    def test_permutation_of_sweep(self):
        perm = permutation_of_sweep(self._simple())
        assert perm == [0, 2, 1, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Schedule(n=2, steps=[Step(pairs=((0, 5),))])

    def test_custom_layout_trace(self):
        s = self._simple()
        pairs = s.index_pairs(layout=[10, 20, 30, 40])
        assert pairs[0] == [(10, 20), (30, 40)]

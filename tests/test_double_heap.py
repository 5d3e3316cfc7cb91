"""Tests for the shared-array DoubleHeap (Section 4.1) and its heapq kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heaps.binary_heap import HeapEmptyError, HeapFullError
from repro.core.records import FLOAT, FloatRecord, KeyOnlyRecord, binary_format
from repro.heaps.double_heap import DoubleHeap, HeapqDoubleHeap
from repro.heaps.run_heap import TaggedRecord, bottom_before, top_before


def make(capacity=16):
    """Bottom = max-heap, top = min-heap: the 2WRS arrangement."""
    return DoubleHeap(capacity, lambda a, b: a > b, lambda a, b: a < b)


class TestBasics:
    def test_empty(self):
        heaps = make()
        assert len(heaps) == 0
        assert not heaps
        assert heaps.free == 16

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            make(capacity=-1)

    def test_push_both_sides(self):
        heaps = make()
        heaps.bottom.push(3)
        heaps.top.push(7)
        assert len(heaps) == 2
        assert len(heaps.bottom) == 1
        assert len(heaps.top) == 1

    def test_bottom_pops_max(self):
        heaps = make()
        for v in (3, 9, 1, 7):
            heaps.bottom.push(v)
        assert [heaps.bottom.pop() for _ in range(4)] == [9, 7, 3, 1]

    def test_top_pops_min(self):
        heaps = make()
        for v in (3, 9, 1, 7):
            heaps.top.push(v)
        assert [heaps.top.pop() for _ in range(4)] == [1, 3, 7, 9]

    def test_pop_empty_side_raises(self):
        heaps = make()
        heaps.top.push(1)
        with pytest.raises(HeapEmptyError):
            heaps.bottom.pop()

    def test_peek_empty_side_raises(self):
        with pytest.raises(HeapEmptyError):
            make().top.peek()

    def test_replace(self):
        heaps = make()
        heaps.top.push(5)
        heaps.top.push(9)
        assert heaps.top.replace(7) == 5
        assert heaps.top.peek() == 7


class TestSharedCapacity:
    def test_one_side_can_use_all_capacity(self):
        heaps = make(capacity=8)
        for i in range(8):
            heaps.top.push(i)
        assert heaps.is_full
        with pytest.raises(HeapFullError):
            heaps.bottom.push(0)

    def test_sides_share_capacity(self):
        heaps = make(capacity=4)
        heaps.bottom.push(1)
        heaps.bottom.push(2)
        heaps.top.push(3)
        heaps.top.push(4)
        assert heaps.is_full
        with pytest.raises(HeapFullError):
            heaps.top.push(5)

    def test_growing_at_the_others_expense(self):
        # Figures 4.4-4.5: popping one side frees a slot the other may use.
        heaps = make(capacity=4)
        for v in (33, 28, 32, 16)[:2]:
            heaps.bottom.push(v)
        heaps.top.push(52)
        heaps.top.push(54)
        assert heaps.is_full
        heaps.bottom.pop()
        assert heaps.free == 1
        heaps.top.push(53)
        assert len(heaps.top) == 3
        assert len(heaps.bottom) == 1

    def test_zero_capacity(self):
        heaps = make(capacity=0)
        with pytest.raises(HeapFullError):
            heaps.top.push(1)


class TestArrayLayout:
    def test_figure_4_3_layout(self):
        # Figure 4.3: BottomHeap from index 0 upward, TopHeap stored in
        # reverse level order from the end of the array.
        heaps = make(capacity=14)
        for v in (33, 28, 32, 16, 20, 22, 4):
            heaps.bottom.push(v)
        for v in (52, 54, 72, 75, 64, 81, 77):
            heaps.top.push(v)
        array = heaps.as_array()
        assert array[0] == 33  # bottom root at index 0
        assert array[13] == 52  # top root at the last index
        assert heaps.check_invariant()

    def test_as_list_level_order(self):
        heaps = make()
        for v in (5, 2, 8):
            heaps.top.push(v)
        assert heaps.top.as_list()[0] == 2


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.sampled_from(["top", "bottom"]), st.integers()),
        max_size=60,
    )
)
def test_double_heap_matches_independent_heaps(operations):
    """The shared array must behave like two independent heaps."""
    import heapq

    heaps = make(capacity=100)
    reference_top = []
    reference_bottom = []
    for side, value in operations:
        if side == "top":
            heaps.top.push(value)
            heapq.heappush(reference_top, value)
        else:
            heaps.bottom.push(value)
            heapq.heappush(reference_bottom, -value)
    assert heaps.check_invariant()
    got_top = [heaps.top.pop() for _ in range(len(heaps.top))]
    got_bottom = [heaps.bottom.pop() for _ in range(len(heaps.bottom))]
    want_top = [heapq.heappop(reference_top) for _ in range(len(reference_top))]
    want_bottom = [
        -heapq.heappop(reference_bottom) for _ in range(len(reference_bottom))
    ]
    assert got_top == want_top
    assert got_bottom == want_bottom


@settings(max_examples=100)
@given(st.data())
def test_interleaved_push_pop_invariant(data):
    heaps = make(capacity=32)
    for _ in range(40):
        action = data.draw(st.sampled_from(["push_t", "push_b", "pop_t", "pop_b"]))
        if action == "push_t" and not heaps.is_full:
            heaps.top.push(data.draw(st.integers(0, 100)))
        elif action == "push_b" and not heaps.is_full:
            heaps.bottom.push(data.draw(st.integers(0, 100)))
        elif action == "pop_t" and heaps.top:
            heaps.top.pop()
        elif action == "pop_b" and heaps.bottom:
            heaps.bottom.pop()
        assert heaps.check_invariant()


# ---------------------------------------------------------------------------
# HeapqDoubleHeap: the production 2WRS heaps
# ---------------------------------------------------------------------------


def drain(heaps):
    top = [heaps.pop_top() for _ in range(len(heaps.top))]
    bottom = [heaps.pop_bottom() for _ in range(len(heaps.bottom))]
    return top, bottom


class TestHeapqDoubleHeap:
    def test_sides_share_one_capacity(self):
        heaps = HeapqDoubleHeap(3)
        heaps.push_top(0, 5)
        heaps.push_bottom(0, 1)
        heaps.push_bottom(0, 2)
        assert heaps.is_full and len(heaps) == 3
        with pytest.raises(HeapFullError):
            heaps.push_top(0, 6)
        with pytest.raises(HeapFullError):
            heaps.push_bottom(0, 0)
        heaps.pop_bottom()
        heaps.push_top(0, 6)  # the freed slot goes to the other side
        assert (len(heaps.top), len(heaps.bottom)) == (2, 1)

    def test_zero_capacity(self):
        with pytest.raises(HeapFullError):
            HeapqDoubleHeap(0).push_bottom(0, 1)
        with pytest.raises(ValueError):
            HeapqDoubleHeap(-1)

    def test_next_run_sinks_below_current_run_on_both_sides(self):
        heaps = HeapqDoubleHeap(8)
        for run, key in ((1, 0), (0, 7), (0, 3), (1, 99)):
            heaps.push_top(run, key)
            heaps.push_bottom(run, key)
        assert heaps.peek_top() == (0, 3)
        assert heaps.peek_bottom() == (0, 7)
        assert drain(heaps) == (
            [(0, 3), (0, 7), (1, 0), (1, 99)],
            [(0, 7), (0, 3), (1, 99), (1, 0)],
        )
        assert heaps.peek_top() is None and heaps.peek_bottom() is None

    def test_negated_bottom_keeps_signed_zero_and_exact_ints(self):
        heaps = HeapqDoubleHeap(8)
        for key in (0.0, -0.0, 2**80 + 1, -1.5):
            heaps.push_bottom(0, key)
        popped = [heaps.pop_bottom()[1] for _ in range(4)]
        assert popped == [2**80 + 1, 0.0, 0.0, -1.5]
        assert type(popped[0]) is int
        assert sorted(str(z) for z in popped[1:3]) == ["-0.0", "0.0"]

    def test_float_record_popped_from_bottom_keeps_its_text(self):
        heaps = HeapqDoubleHeap(8)
        for text in ("1e3", "2.5", "-0.0"):
            heaps.push_bottom(0, FLOAT.decode(text))
        popped = [heaps.pop_bottom()[1] for _ in range(3)]
        assert [type(r) for r in popped] == [FloatRecord] * 3
        assert [r.text for r in popped] == ["1e3", "2.5", "-0.0"]

    def test_key_only_records_pop_descending(self):
        fmt = binary_format(FLOAT)
        heaps = HeapqDoubleHeap(8)
        for text in ("3.5", "-1", "10"):
            heaps.push_bottom(0, fmt.decode(text))
        popped = [heaps.pop_bottom()[1] for _ in range(3)]
        assert all(isinstance(r, KeyOnlyRecord) for r in popped)
        assert [r.value for r in popped] == [10.0, 3.5, -1.0]

    def test_switch_to_wrapper_form_keeps_order(self):
        """ints first, then a FloatRecord: the negated entries are
        rewritten in place and the side still pops in (run, -key)
        order, mixing both key types."""
        heaps = HeapqDoubleHeap(16)
        for run, key in ((0, 4), (1, 9), (0, 11), (0, -2), (1, 1)):
            heaps.push_bottom(run, key)
        heaps.push_bottom(0, FloatRecord(5.0, "5e0"))
        heaps.push_bottom(1, 3)
        popped = [heaps.pop_bottom() for _ in range(7)]
        assert popped == [(0, 11), (0, 5.0), (0, 4), (0, -2),
                          (1, 9), (1, 3), (1, 1)]
        assert popped[1][1].text == "5e0"

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.sampled_from(["top", "bottom", "pop_t",
                                              "pop_b"]),
                              st.integers(0, 2), st.integers(-50, 50)),
                    max_size=80),
           st.integers(0, 80))
    def test_matches_double_heap_oracle(self, operations, switch_at):
        """Same pops as the Figure 4.3 structure under any interleaving,
        including a key-type switch part way through."""
        kernel = HeapqDoubleHeap(100)
        oracle = DoubleHeap(100, bottom_before, top_before)
        for step, (action, run, key) in enumerate(operations):
            if step >= switch_at:
                key = FloatRecord(key + 0.5)
            if action == "top":
                kernel.push_top(run, key)
                oracle.top.push(TaggedRecord(run, key))
            elif action == "bottom":
                kernel.push_bottom(run, key)
                oracle.bottom.push(TaggedRecord(run, key))
            elif action == "pop_t" and oracle.top:
                want = oracle.top.pop()
                assert kernel.pop_top() == (want.run, want.key)
            elif action == "pop_b" and oracle.bottom:
                want = oracle.bottom.pop()
                assert kernel.pop_bottom() == (want.run, want.key)
        top, bottom = drain(kernel)
        assert top == [(r.run, r.key) for r in
                       (oracle.top.pop() for _ in range(len(oracle.top)))]
        assert bottom == [(r.run, r.key) for r in
                          (oracle.bottom.pop() for _ in range(len(oracle.bottom)))]

"""Two heaps sharing one capacity (Section 4.1, Figures 4.2-4.5).

2WRS keeps a *BottomHeap* and a *TopHeap* in a single statically
allocated array so that one heap can grow at the expense of the other
without dynamic allocation.  The bottom heap occupies positions
``0 .. len(bottom) - 1`` growing upward; the top heap occupies positions
``capacity - len(top) .. capacity - 1`` growing downward, stored in
*reverse level order* (the top heap's logical node ``i`` lives at array
index ``capacity - 1 - i``).

:class:`DoubleHeap` exposes the combined structure; :class:`HeapSide`
gives each heap the familiar push/pop/peek interface while sharing the
backing array.  Both are the Figure 4.3 reference: every sift step is
interpreted Python, so production 2WRS runs on :class:`HeapqDoubleHeap`
instead — two C ``heapq`` lists of run-tagged tuples bound by one
shared capacity, which keeps the rule that matters (either side grows
at the other's expense) without the index arithmetic.  The tests drive
:class:`DoubleHeap` through the same interface as the oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

from repro.heaps.binary_heap import (
    HeapEmptyError,
    HeapFullError,
    left_child_index,
    parent_index,
)

T = TypeVar("T")


class HeapSide(Generic[T]):
    """One of the two heaps of a :class:`DoubleHeap`.

    The side does not own storage: it reads and writes the shared array
    through an index mapping supplied by the parent.

    Parameters
    ----------
    owner:
        The :class:`DoubleHeap` whose array this side shares.
    before:
        Ordering predicate; ``before(a, b)`` means ``a`` pops first.
    physical:
        Maps a logical node index (0 = root) to an index of the shared
        array.
    """

    def __init__(
        self,
        owner: "DoubleHeap[T]",
        before: Callable[[T, T], bool],
        physical: Callable[[int], int],
    ) -> None:
        self._owner = owner
        self._before = before
        self._physical = physical
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- logical array access ------------------------------------------------

    def _get(self, i: int) -> T:
        return self._owner._array[self._physical(i)]

    def _set(self, i: int, value: T) -> None:
        self._owner._array[self._physical(i)] = value

    # -- heap operations -------------------------------------------------------

    def peek(self) -> T:
        """Return this side's top record."""
        if self._size == 0:
            raise HeapEmptyError("peek from an empty heap side")
        return self._get(0)

    def push(self, item: T) -> None:
        """Insert into this side; fails when the *shared* array is full."""
        if self._owner.is_full:
            raise HeapFullError(
                f"double heap is at capacity {self._owner.capacity}"
            )
        i = self._size
        self._size += 1
        self._set(i, item)
        self._sift_up(i)

    def pop(self) -> T:
        """Remove and return this side's top record."""
        if self._size == 0:
            raise HeapEmptyError("pop from an empty heap side")
        top = self._get(0)
        self._size -= 1
        if self._size > 0:
            self._set(0, self._get(self._size))
            self._sift_down(0)
        return top

    def replace(self, item: T) -> T:
        """Pop the top and push ``item`` with a single sift-down."""
        if self._size == 0:
            raise HeapEmptyError("replace on an empty heap side")
        top = self._get(0)
        self._set(0, item)
        self._sift_down(0)
        return top

    def as_list(self) -> List[T]:
        """Return this side's records in level order (a copy)."""
        return [self._get(i) for i in range(self._size)]

    def check_invariant(self) -> bool:
        """True iff the heap property holds on this side (for tests)."""
        for i in range(1, self._size):
            if self._before(self._get(i), self._get(parent_index(i))):
                return False
        return True

    # -- internals ---------------------------------------------------------------

    def _sift_up(self, i: int) -> None:
        item = self._get(i)
        while i > 0:
            p = parent_index(i)
            parent = self._get(p)
            if self._before(item, parent):
                self._set(i, parent)
                i = p
            else:
                break
        self._set(i, item)

    def _sift_down(self, i: int) -> None:
        n = self._size
        item = self._get(i)
        while True:
            child = left_child_index(i)
            if child >= n:
                break
            right = child + 1
            if right < n and self._before(self._get(right), self._get(child)):
                child = right
            winner = self._get(child)
            if self._before(winner, item):
                self._set(i, winner)
                i = child
            else:
                break
        self._set(i, item)


class DoubleHeap(Generic[T]):
    """Two opposed heaps in one statically allocated array.

    Parameters
    ----------
    capacity:
        Total number of records both heaps may hold together.
    bottom_before / top_before:
        Ordering predicates for the bottom and top sides.

    Notes
    -----
    ``bottom`` grows from index 0 upward; ``top`` grows from index
    ``capacity - 1`` downward (reverse level order, as in Figure 4.3).
    The structure is full when ``len(bottom) + len(top) == capacity``.
    """

    def __init__(
        self,
        capacity: int,
        bottom_before: Callable[[T, T], bool],
        top_before: Callable[[T, T], bool],
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._array: List[Any] = [None] * capacity
        self.bottom: HeapSide[T] = HeapSide(self, bottom_before, lambda i: i)
        self.top: HeapSide[T] = HeapSide(
            self, top_before, lambda i: capacity - 1 - i
        )

    def __len__(self) -> int:
        return len(self.bottom) + len(self.top)

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def capacity(self) -> int:
        """Total shared capacity."""
        return self._capacity

    @property
    def is_full(self) -> bool:
        """True when no record can be pushed into either side."""
        return len(self) >= self._capacity

    @property
    def free(self) -> int:
        """Number of array slots not used by either heap."""
        return self._capacity - len(self)

    def as_array(self) -> List[Any]:
        """Return a copy of the raw shared array (Figure 4.3 layout).

        Slots not owned by either heap hold stale values or None; callers
        should interpret the array with ``len(bottom)`` and ``len(top)``.
        """
        return list(self._array)

    def check_invariant(self) -> bool:
        """True iff both sides satisfy their heap property and fit."""
        if len(self) > self._capacity:
            return False
        return self.bottom.check_invariant() and self.top.check_invariant()


class _Desc:
    """Reverses the order of a key that cannot be negated."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key


class HeapqDoubleHeap:
    """The 2WRS heaps as two C ``heapq`` lists with one shared capacity.

    Entries are ``(run, key)`` tuples, so records of the next run sink
    below every record of the current run and C tuple comparison does
    the whole ordering.  ``top`` pops ascending keys.  ``bottom`` pops
    descending keys: it stores ``(run, -key)`` while every key it has
    seen is exactly ``int`` or ``float`` (exact, sign of zero included),
    and ``(run, _Desc(key))`` from the first key of any other type on
    (a ``FloatRecord`` negates to a plain float and would lose its
    spelling).  Push and pop take and return plain ``(run, key)``.

    The structure is full when ``len(top) + len(bottom) >= capacity``.
    """

    __slots__ = ("capacity", "top", "bottom", "_negated")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.top: List[Tuple[int, Any]] = []
        self.bottom: List[Tuple[int, Any]] = []
        self._negated = True

    def __len__(self) -> int:
        return len(self.top) + len(self.bottom)

    @property
    def is_full(self) -> bool:
        return len(self.top) + len(self.bottom) >= self.capacity

    def push_top(self, run: int, key: Any) -> None:
        if len(self.top) + len(self.bottom) >= self.capacity:
            raise HeapFullError(f"double heap is at capacity {self.capacity}")
        heappush(self.top, (run, key))

    def push_bottom(self, run: int, key: Any) -> None:
        if len(self.top) + len(self.bottom) >= self.capacity:
            raise HeapFullError(f"double heap is at capacity {self.capacity}")
        if self._negated:
            kind = type(key)
            if kind is int or kind is float:
                heappush(self.bottom, (run, -key))
                return
            self._wrap_bottom()
        heappush(self.bottom, (run, _Desc(key)))

    def pop_top(self) -> Tuple[int, Any]:
        return heappop(self.top)

    def pop_bottom(self) -> Tuple[int, Any]:
        run, entry = heappop(self.bottom)
        return run, (-entry if self._negated else entry.key)

    def peek_top(self) -> Optional[Tuple[int, Any]]:
        return self.top[0] if self.top else None

    def peek_bottom(self) -> Optional[Tuple[int, Any]]:
        if not self.bottom:
            return None
        run, entry = self.bottom[0]
        return run, (-entry if self._negated else entry.key)

    def _wrap_bottom(self) -> None:
        # (run, -k) and (run, _Desc(k)) order alike, so the rewritten
        # list is still a heap and needs no re-heapify.
        self.bottom = [(run, _Desc(-entry)) for run, entry in self.bottom]
        self._negated = False

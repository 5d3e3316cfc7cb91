"""Two-way replacement selection (Chapter 4, Algorithm 2).

2WRS generalises replacement selection with a second heap so the
algorithm captures decreasing trends as well as increasing ones:

* the **TopHeap** (a min-heap) releases an increasing stream, exactly
  like classic RS;
* the **BottomHeap** (a max-heap) releases a decreasing stream, turning
  reverse-sorted input from RS's worst case into a single run;
* both heaps share one capacity (:class:`~repro.heaps.double_heap.
  HeapqDoubleHeap`, two C ``heapq`` lists of ``(run, key)`` tuples) so
  either may grow at the other's expense;
* an **input buffer** samples the input for the routing heuristics;
* a **victim buffer** captures records that fall in the value gap
  between the two released streams and would otherwise be pushed to the
  next run.

Each run leaves the algorithm as four non-overlapping streams
(:class:`~repro.core.streams.RunStreams`); their 4‖3‖2‖1 concatenation
is the ascending run.

Cross-stream correctness
------------------------
The four streams of a run must keep pairwise disjoint ranges (Section
4.1), but the routing heuristics are free — the Random heuristic may
well put large records in the BottomHeap.  We therefore maintain two
per-run frontiers:

* ``bottom_ceiling`` — the smallest value already committed to streams
  1, 2 or 3; a BottomHeap release must stay at or below it;
* ``top_floor`` — the largest value committed to streams 2, 3 or 4; a
  TopHeap release must stay at or above it.

A popped record that would violate its frontier is *migrated* to the
other heap when that side can still release it, stored in the victim
buffer when it falls inside the current gap, and otherwise demoted to
the next run — which is precisely the accounting behind the paper's
run-length theorems (e.g. Theorem 6: each monotone section of the
alternating dataset becomes its own run because the opposite stream's
frontier blocks the turn-around records).

The class implements the common :class:`~repro.runs.base.RunGenerator`
interface; :meth:`generate_run_streams` additionally exposes the four
per-run streams for pipelines that persist decreasing streams in the
Appendix A backwards file format.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator, List, Optional

from repro.core.config import TwoWayConfig
from repro.core.heuristics import (
    HeuristicContext,
    Side,
    make_input_heuristic,
    make_output_heuristic,
)
from repro.core.input_buffer import InputBuffer
from repro.core.streams import RunStreams
from repro.core.victim_buffer import VictimBuffer, VictimPhase
from repro.heaps.double_heap import HeapqDoubleHeap
from repro.runs.base import RunGenerator, log_cost


class TwoWayReplacementSelection(RunGenerator):
    """The 2WRS run generator.

    Parameters
    ----------
    memory_capacity:
        Total working memory in records, covering the two heaps *and*
        both buffers (partitioned by the configuration).
    config:
        A :class:`~repro.core.config.TwoWayConfig`; defaults to the
        paper's recommended configuration (Section 5.3).
    """

    name = "2WRS"

    def __init__(
        self, memory_capacity: int, config: Optional[TwoWayConfig] = None
    ) -> None:
        super().__init__(memory_capacity)
        self.config = config if config is not None else TwoWayConfig()
        heap, input_buf, victim_buf = self.config.partition_memory(memory_capacity)
        if heap < 1:
            raise ValueError(
                f"memory_capacity {memory_capacity} leaves no room for the heaps"
            )
        self.heap_capacity = heap
        self.input_buffer_capacity = input_buf
        self.victim_buffer_capacity = victim_buf
        self.last_input_buffer: Optional[InputBuffer] = None

    # -- public API ---------------------------------------------------------------

    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        """Yield each run as one ascending list (4‖3‖2‖1 assembly)."""
        for streams in self.generate_run_streams(records):
            yield streams.assemble()

    def generate_run_streams(self, records: Iterable[Any]) -> Iterator[RunStreams]:
        """Yield each run as its four constituent streams."""
        self.stats.reset()
        state = _RunState(self, records)
        #: The live InputBuffer of the most recent generation, exposed so
        #: callers can inspect its statistics counters (e.g. how many
        #: mean/median computations the configured heuristics triggered).
        self.last_input_buffer = state.source
        yield from state.run()


class _RunState:
    """Mutable execution state of one ``generate_run_streams`` call."""

    def __init__(
        self, algo: TwoWayReplacementSelection, records: Iterable[Any]
    ) -> None:
        self.algo = algo
        self.stats = algo.stats
        self.rng = random.Random(algo.config.seed)
        self.input_heuristic = make_input_heuristic(algo.config.input_heuristic)
        self.output_heuristic = make_output_heuristic(algo.config.output_heuristic)
        self.source = InputBuffer(records, algo.input_buffer_capacity)
        self.victim = VictimBuffer(algo.victim_buffer_capacity)
        self.heaps = HeapqDoubleHeap(algo.heap_capacity)
        self.current_run = 0
        self.streams = RunStreams(0)
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self.last_top: Optional[Any] = None
        self.last_bottom: Optional[Any] = None
        self.first_output: Optional[Any] = None
        self.outputs_top = 0
        self.outputs_bottom = 0
        self.bottom_ceiling: Optional[Any] = None  # None = +inf
        self.top_floor: Optional[Any] = None  # None = -inf
        # Range trackers for records already routed to the *next* run:
        # keeping next-run bottom records below next-run top records is
        # what lets the following run start from a clean frontier.
        self.next_bottom_max: Optional[Any] = None
        self.next_top_min: Optional[Any] = None

    # -- helpers ---------------------------------------------------------------

    def context(self) -> HeuristicContext:
        # The distribution statistics are deliberately NOT computed here:
        # the context holds a reference to the input buffer and fetches
        # mean/median/sample lazily, only if the configured heuristic
        # actually reads them (the buffer memoizes per generation).
        heaps = self.heaps
        top_head = heaps.peek_top()
        bottom_head = heaps.peek_bottom()
        return HeuristicContext(
            rng=self.rng,
            top_size=len(heaps.top),
            bottom_size=len(heaps.bottom),
            top_outputs=self.outputs_top,
            bottom_outputs=self.outputs_bottom,
            top_head=top_head[1] if top_head is not None else None,
            bottom_head=bottom_head[1] if bottom_head is not None else None,
            stats=self.source,
            first_output=self.first_output,
        )

    def push(self, side: Side, run: int, value: Any) -> None:
        heaps = self.heaps
        if side is Side.TOP:
            self.stats.cpu_ops += log_cost(len(heaps.top) + 1)
            heaps.push_top(run, value)
        else:
            self.stats.cpu_ops += log_cost(len(heaps.bottom) + 1)
            heaps.push_bottom(run, value)

    def pop(self, side: Side) -> Any:
        """Pop ``side``'s head record (its run is the current one)."""
        heaps = self.heaps
        if side is Side.TOP:
            self.stats.cpu_ops += log_cost(len(heaps.top))
            return heaps.pop_top()[1]
        self.stats.cpu_ops += log_cost(len(heaps.bottom))
        return heaps.pop_bottom()[1]

    def top_releasable(self, value: Any) -> bool:
        """Can ``value`` legally extend stream 1 right now?"""
        if self.last_top is not None and value < self.last_top:
            return False
        return self.top_floor is None or value >= self.top_floor

    def bottom_releasable(self, value: Any) -> bool:
        """Can ``value`` legally extend stream 4 right now?"""
        if self.last_bottom is not None and value > self.last_bottom:
            return False
        return self.bottom_ceiling is None or value <= self.bottom_ceiling

    def _commit_middle(self, to3: List[Any], to2: List[Any]) -> None:
        """Route a victim flush to streams 3 and 2, updating frontiers."""
        self.streams.stream3.extend(to3)
        self.streams.stream2.extend(to2)
        committed = to3 + to2
        if not committed:
            return
        low = min(committed)
        high = max(committed)
        if self.bottom_ceiling is None or low < self.bottom_ceiling:
            self.bottom_ceiling = low
        if self.top_floor is None or high > self.top_floor:
            self.top_floor = high
        self.stats.cpu_ops += self.victim.cpu_ops
        self.victim.cpu_ops = 0

    def release_top(self, value: Any) -> None:
        self.streams.stream1.append(value)
        self.last_top = value
        self.outputs_top += 1
        if self.bottom_ceiling is None or value < self.bottom_ceiling:
            self.bottom_ceiling = value

    def release_bottom(self, value: Any) -> None:
        self.streams.stream4.append(value)
        self.last_bottom = value
        self.outputs_bottom += 1
        if self.top_floor is None or value > self.top_floor:
            self.top_floor = value

    # -- main loop --------------------------------------------------------------

    def run(self) -> Iterator[RunStreams]:
        self._fill_heaps()
        # From here on the trackers describe run 1 (the next run); the
        # fill used them for run 0's contents.
        self.next_bottom_max = None
        self.next_top_min = None
        heaps = self.heaps
        while len(heaps) > 0:
            top = heaps.peek_top()
            bottom = heaps.peek_bottom()
            top_ready = top is not None and top[0] == self.current_run
            bottom_ready = bottom is not None and bottom[0] == self.current_run

            if not top_ready and not bottom_ready:
                # doubleHeap.nextRun: everything in memory belongs to the
                # next run; close out the current one.
                finished = self._finish_run()
                if finished is not None:
                    yield finished
                continue

            released = self._output_step(top_ready, bottom_ready)
            if released:
                self._read_step()

        finished = self._finish_run(final=True)
        if finished is not None:
            yield finished

    def _route_disjoint(self, value: Any) -> Side:
        """Pick a heap for a record without an output-order constraint.

        Used while filling the heaps and when demoting records to the
        next run.  A record may be placed in either heap only while that
        keeps the BottomHeap's range below the TopHeap's (Section 4.1:
        the four stream ranges "do not overlap pairwise"); the input
        heuristic decides inside the gap between the heaps, exactly the
        "can be inserted into both heaps" case of Section 4.2.
        """
        can_bottom = self.next_top_min is None or value <= self.next_top_min
        can_top = self.next_bottom_max is None or value >= self.next_bottom_max
        if can_bottom and can_top:
            side = self.input_heuristic.choose(value, self.context())
        elif can_bottom:
            side = Side.BOTTOM
        else:
            side = Side.TOP
        if side is Side.BOTTOM:
            if self.next_bottom_max is None or value > self.next_bottom_max:
                self.next_bottom_max = value
        else:
            if self.next_top_min is None or value < self.next_top_min:
                self.next_top_min = value
        return side

    def _fill_heaps(self) -> None:
        """doubleHeap.fill: route the first records through the heuristic."""
        while not self.heaps.is_full:
            value = self.source.next()
            if value is None:
                break
            self.stats.records_in += 1
            self.push(self._route_disjoint(value), 0, value)

    def _finish_run(self, final: bool = False) -> Optional[RunStreams]:
        """Flush the victim, emit the run, and reset per-run state."""
        leftovers = self.victim.flush_run_end()
        self.streams.stream3.extend(leftovers)
        self.stats.cpu_ops += self.victim.cpu_ops
        self.victim.cpu_ops = 0
        finished: Optional[RunStreams] = None
        if len(self.streams) > 0:
            self.stats.note_run(len(self.streams))
            finished = self.streams
        if final:
            return finished
        self.current_run += 1
        self.streams = RunStreams(self.current_run)
        self._reset_run_state()
        self.victim.start_run()
        self.input_heuristic.on_run_start()
        self.output_heuristic.on_run_start()
        if self.input_heuristic.wants_rebalance:
            self._rebalance()
        return finished

    def _rebalance(self) -> None:
        """Equalise heap sizes at a run boundary (Balancing heuristic).

        At a boundary every record in memory belongs to the incoming
        run, so records can migrate between the heaps freely.
        """
        heaps = self.heaps
        while abs(len(heaps.top) - len(heaps.bottom)) > 1:
            larger = Side.TOP if len(heaps.top) > len(heaps.bottom) else Side.BOTTOM
            self.push(larger.other, self.current_run, self.pop(larger))

    def _output_step(self, top_ready: bool, bottom_ready: bool) -> bool:
        """Pop one record and place it somewhere.

        Returns True when the pop freed memory (stream release, victim
        initial fill, or victim capture) so the caller reads one input
        record; False when the record merely moved between heaps
        (migration or demotion).
        """
        if top_ready and bottom_ready:
            out_side = self.output_heuristic.choose(self.context())
        elif top_ready:
            out_side = Side.TOP
        else:
            out_side = Side.BOTTOM
        value = self.pop(out_side)
        if self.first_output is None:
            self.first_output = value

        if self.victim.phase is VictimPhase.INITIAL_FILL:
            # The run's first outputs establish the victim's range; any
            # record is welcome here because the flush sorts and splits.
            if out_side is Side.TOP:
                self.last_top = value
                self.outputs_top += 1
            else:
                self.last_bottom = value
                self.outputs_bottom += 1
            self.victim.add_initial(value)
            if len(self.victim) >= self.victim.capacity:
                to3, to2 = self.victim.flush_initial()
                self._commit_middle(to3, to2)
            return True

        if out_side is Side.TOP and self.top_releasable(value):
            self.release_top(value)
            return True
        if out_side is Side.BOTTOM and self.bottom_releasable(value):
            self.release_bottom(value)
            return True

        # The record cannot extend its own stream: migrate it to the
        # other heap when that side can still release it...
        other = out_side.other
        other_ok = (
            self.top_releasable(value)
            if other is Side.TOP
            else self.bottom_releasable(value)
        )
        if other_ok:
            self.push(other, self.current_run, value)
            return False
        # ...or capture it in the victim's gap...
        if self.victim.fits(value):
            self.victim.add(value)
            if self.victim.is_full:
                to3, to2 = self.victim.flush_full()
                self._commit_middle(to3, to2)
            return True
        # ...or concede it to the next run.
        self.push(self._route_disjoint(value), self.current_run + 1, value)
        return False

    def _read_step(self) -> None:
        """Read one input record, letting the victim drink its fill."""
        value = self.source.next()
        if value is None:
            return
        self.stats.records_in += 1
        while self.victim.fits(value):
            self.victim.add(value)
            if self.victim.is_full:
                to3, to2 = self.victim.flush_full()
                self._commit_middle(to3, to2)
            value = self.source.next()
            if value is None:
                return
            self.stats.records_in += 1

        top_eligible = self.top_releasable(value)
        bottom_eligible = self.bottom_releasable(value)
        if top_eligible and bottom_eligible:
            in_side = self.input_heuristic.choose(value, self.context())
            run = self.current_run
        elif top_eligible:
            in_side = Side.TOP
            run = self.current_run
        elif bottom_eligible:
            in_side = Side.BOTTOM
            run = self.current_run
        else:
            # Fits neither heap nor victim: next run.
            in_side = self._route_disjoint(value)
            run = self.current_run + 1
        self.push(in_side, run, value)

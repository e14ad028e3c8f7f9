"""Stacked L1/L2/LLC demand fast path: resolve the hit level without
walking :meth:`MemorySystem.load`'s general prologue.

PR 3 introduced an L1-only front path; for loop-heavy workloads the
steady state is dominated by loads the L1 *misses* — pointer chases and
indirect gathers that land in the L2/LLC or coalesce with an in-flight
fill — and every one of those paid the full slow-path walk.  This
module stacks structural views of all three levels into one
:class:`MemoryFastPath` object whose ``load``/``store`` methods mirror
:meth:`MemorySystem.load` / :meth:`MemorySystem.store` arm for arm with
all per-call attribute traffic pre-resolved (set arrays, set masks,
associativities, counters, latencies, the MSHR dict and the
prefetch-usefulness side table are captured once per machine).

Design notes (why these are *views*, not shadow tables):

* Every level's per-set dicts are read **in place** (structural
  sharing, see :meth:`SetAssociativeCache.sets_view`).  Fills,
  hardware-prefetch installs, and evictions — including the inclusive
  hierarchy's back-invalidations — mutate those same dictionaries, so
  the views can never go stale.  Shadow line-presence tables were
  rejected because a hit must still refresh the level's LRU order (a
  probe that skipped the pop/re-insert would change future victim
  selection and break the bit-identical guarantee).
* Line *removal* has a single entry point — :meth:`invalidate_line` —
  which the hierarchy's eviction path routes through
  (:meth:`MemorySystem._on_llc_evict`): back-invalidations triggered by
  LLC capacity evictions, by hardware-prefetch fills displacing a
  victim, and by the store write-allocate path all funnel into it.
  ``tests/test_mem_fastpath.py`` property-checks that the view state
  always equals a fresh structural scan of the caches.
* The hierarchy mechanics a demand miss exercises — the three-level
  fill (:meth:`_fill_fp`), the fill-buffer drain (:meth:`_drain_fp`),
  and the hardware-prefetch observe/issue pair (:meth:`_hw_l2` /
  :meth:`_issue_hw`) — are open-coded here, each mirroring its
  :class:`MemorySystem` counterpart arm for arm with trace arms elided.
  The LLC eviction path inside ``_fill_fp`` performs the same inclusive
  back-invalidation and early-eviction accounting as
  :meth:`MemorySystem._on_llc_evict`.
* The fast path is **bypassed entirely while tracing is armed**
  (:meth:`MemorySystem.load_port` hands out the plain methods then), so
  the observability subsystem's traced==untraced guarantees never
  depend on this module.  Every ``self.trace is not None`` arm of the
  slow path is therefore statically dead here and elided.

The block engine's closures, the translating engine, and the fused
superblock steppers all bind their demand entry points through
:meth:`MemorySystem.load_port` / :meth:`MemorySystem.store_port`; the
reference interpreter keeps calling the plain methods so it stays the
obviously-correct baseline the differential tests compare against.

The fused steppers (one generator, :mod:`repro.machine.batchturbo`,
for sequential runs and batched sweeps alike) inline two arms of this
module instead of calling it: the L1-hit arm of ``load``/``store``, and
the redundant-in-L1 arm of ``prefetch`` (:func:`prefetch_arm`).  In a
distance sweep most software prefetches end there (in the HJ8-NPO A&J cells at small
scale, 425,964 of each cell's 480,000 are redundant), so the port is
called only for prefetches that are unmapped, find a drain due, or
miss the L1.
"""

from __future__ import annotations

from typing import Callable

#: Demand-access signature shared by the ports: (addr, now, pc) -> latency.
DemandPort = Callable[[int, float, int], int]


class MemoryFastPath:
    """Pre-resolved three-level demand front path for one MemorySystem.

    Bit-identical to the slow paths: every counter bump, LRU refresh,
    usefulness consumption, hardware-prefetch trigger, MSHR coalesce
    and stall-cycle charge happens in the same order with the same
    values; only the attribute lookups and bound-method indirection of
    the general walk are gone.
    """

    __slots__ = (
        "mem",
        "_l1_sets",
        "_l1_mask",
        "_l1_assoc",
        "_l2_sets",
        "_l2_mask",
        "_l2_assoc",
        "_llc_sets",
        "_llc_mask",
        "_llc_assoc",
        "_counters",
        "_mshr",
        "_mshr_cap",
        "_unused",
        "_is_mapped",
        "_has_next_line",
        "_stride_table",
        "_stride_entries",
        "_stride_threshold",
        "_stride_ceiling",
        "_stride_degree",
        "_l1_lat",
        "_l2_lat",
        "_llc_lat",
        "_mem_lat",
        "_ideal",
    )

    def __init__(self, mem) -> None:
        self.mem = mem
        self._l1_sets = mem.l1.sets_view()
        self._l1_mask = mem.l1.set_mask()
        self._l1_assoc = mem.l1.config.associativity
        self._l2_sets = mem.l2.sets_view()
        self._l2_mask = mem.l2.set_mask()
        self._l2_assoc = mem.l2.config.associativity
        self._llc_sets = mem.llc.sets_view()
        self._llc_mask = mem.llc.set_mask()
        self._llc_assoc = mem.llc.config.associativity
        self._counters = mem.counters
        self._mshr = mem._mshr
        self._mshr_cap = mem.config.mshr_entries
        self._unused = mem.prefetched_unused_view()
        self._is_mapped = mem.space.is_mapped
        self._has_next_line = mem._next_line is not None
        stride = mem._stride
        if stride is not None:
            self._stride_table = stride._table
            self._stride_entries = stride.entries
            self._stride_threshold = stride.threshold
            self._stride_ceiling = stride.threshold + 2
            self._stride_degree = stride.degree
        else:
            self._stride_table = None
            self._stride_entries = 1
            self._stride_threshold = 0
            self._stride_ceiling = 0
            self._stride_degree = 0
        self._l1_lat = mem._l1_lat
        self._l2_lat = mem._l2_lat
        self._llc_lat = mem._llc_lat
        self._mem_lat = mem._mem_lat
        self._ideal = mem._ideal

    # ------------------------------------------------------------------
    # The single line-removal entry point.
    # ------------------------------------------------------------------
    def invalidate_line(self, addr: int) -> None:
        """Drop ``addr``'s line from every level's view.

        This is the one place lines leave the stacked views from the
        outside: LLC capacity evictions, hardware-prefetch fills that
        displace a victim, and store write-allocates all back-invalidate
        through here (via :meth:`MemorySystem._on_llc_evict`).  Because
        the views structurally share the caches' set dicts, this *is*
        the cache invalidation — there is no second bookkeeping
        structure that could drift.
        """
        line = addr >> 6
        self._l1_sets[line & self._l1_mask].pop(line, None)
        self._l2_sets[line & self._l2_mask].pop(line, None)
        self._llc_sets[line & self._llc_mask].pop(line, None)

    # ------------------------------------------------------------------
    # Consistency scan (property-test hook).
    # ------------------------------------------------------------------
    def view_lines(self) -> dict:
        """Per-level resident lines *in LRU order* as the views see them."""
        return {
            "l1": [line for s in self._l1_sets for line in s],
            "l2": [line for s in self._l2_sets for line in s],
            "llc": [line for s in self._llc_sets for line in s],
        }

    def scan_consistent(self) -> bool:
        """True iff the views match a fresh structural scan of the
        hierarchy (same lines, same LRU order, same masks)."""
        mem = self.mem
        fresh = {
            "l1": mem.l1.resident_lines(),
            "l2": mem.l2.resident_lines(),
            "llc": mem.llc.resident_lines(),
        }
        masks_ok = (
            self._l1_mask == mem.l1.set_mask()
            and self._l2_mask == mem.l2.set_mask()
            and self._llc_mask == mem.llc.set_mask()
        )
        return masks_ok and self.view_lines() == fresh

    # ------------------------------------------------------------------
    # Open-coded hierarchy mechanics.  Each mirrors its MemorySystem
    # counterpart arm for arm with the trace arms elided (the fast path
    # never runs while tracing is armed) and the per-call indirection
    # flattened; the differential oracle and the structural-scan
    # property test keep them honest.
    # ------------------------------------------------------------------
    def _fill_fp(self, line: int) -> None:
        # == MemorySystem._fill: LLC, then L2, then L1.  Only the LLC
        # has an eviction callback; its body (_on_llc_evict with trace
        # off) is inlined on the victim path.
        llc_set = self._llc_sets[line & self._llc_mask]
        if llc_set.pop(line, None) is None and len(llc_set) >= self._llc_assoc:
            victim = next(iter(llc_set))
            del llc_set[victim]
            # Inclusive back-invalidation + early-eviction accounting.
            self._l1_sets[victim & self._l1_mask].pop(victim, None)
            self._l2_sets[victim & self._l2_mask].pop(victim, None)
            unused = self._unused
            if unused and unused.pop(victim, None):
                self._counters.sw_prefetch_early_evicted += 1
        llc_set[line] = 0
        l2_set = self._l2_sets[line & self._l2_mask]
        if l2_set.pop(line, None) is None and len(l2_set) >= self._l2_assoc:
            del l2_set[next(iter(l2_set))]
        l2_set[line] = 0
        l1_set = self._l1_sets[line & self._l1_mask]
        if l1_set.pop(line, None) is None and len(l1_set) >= self._l1_assoc:
            del l1_set[next(iter(l1_set))]
        l1_set[line] = 0

    def _fill_absent_fp(self, line: int) -> None:
        # == _fill_fp for a line known to be absent from every level: a
        # line only enters the MSHR when it is uncached, and nothing
        # fills it behind the MSHR's back (demand/store paths consume
        # the entry first), so MSHR drains, coalesced fills, and true
        # demand misses can skip the present-check pops entirely.
        llc_set = self._llc_sets[line & self._llc_mask]
        if len(llc_set) >= self._llc_assoc:
            victim = next(iter(llc_set))
            del llc_set[victim]
            self._l1_sets[victim & self._l1_mask].pop(victim, None)
            self._l2_sets[victim & self._l2_mask].pop(victim, None)
            unused = self._unused
            if unused and unused.pop(victim, None):
                self._counters.sw_prefetch_early_evicted += 1
        llc_set[line] = 0
        l2_set = self._l2_sets[line & self._l2_mask]
        if len(l2_set) >= self._l2_assoc:
            del l2_set[next(iter(l2_set))]
        l2_set[line] = 0
        l1_set = self._l1_sets[line & self._l1_mask]
        if len(l1_set) >= self._l1_assoc:
            del l1_set[next(iter(l1_set))]
        l1_set[line] = 0

    def _drain_fp(self, now) -> None:
        # == MemorySystem.drain, untraced arm.  Callers pre-check the
        # next-ready bound, so entering here means a fill is due.  Every
        # MSHR insert charges the same DRAM latency at a monotone clock,
        # so the dict's insertion order IS ready order: drain the ready
        # prefix and stop at the first still-pending entry instead of
        # scanning (and re-minimizing) the whole buffer.
        mshr = self._mshr
        unused = self._unused
        fill = self._fill_absent_fp
        while mshr:
            line = next(iter(mshr))
            entry = mshr[line]
            if entry[0] > now:
                self.mem._mshr_next_ready = entry[0]
                return
            del mshr[line]
            fill(line)
            unused[line] = entry[1]
        self.mem._mshr_next_ready = float("inf")

    def _issue_hw(self, line: int, now) -> None:
        # == MemorySystem._issue_prefetch with software=False: drops are
        # silent (only software prefetches count redundant/mshr drops).
        mshr = self._mshr
        if (
            line in self._l1_sets[line & self._l1_mask]
            or line in self._l2_sets[line & self._l2_mask]
            or line in self._llc_sets[line & self._llc_mask]
            or line in mshr
        ):
            return
        if len(mshr) >= self._mshr_cap:
            return
        ready = now + self._mem_lat
        mshr[line] = [ready, False]
        mem = self.mem
        if ready < mem._mshr_next_ready:
            mem._mshr_next_ready = ready
        counters = self._counters
        counters.offcore_all_data_rd += 1
        counters.hw_prefetch_issued += 1

    def _hw_l2(self, pc: int, line: int, now) -> None:
        # == StridePrefetcher.observe + the mapped/issue filter of
        # MemorySystem._hardware_prefetch(level="l2").
        table = self._stride_table
        slot = pc % self._stride_entries
        entry = table.get(slot)
        if entry is None or entry[0] != pc:
            table[slot] = (pc, line, 0, 0)
            return
        stride = entry[2]
        confidence = entry[3]
        new_stride = line - entry[1]
        if new_stride == 0:
            return
        if new_stride == stride:
            confidence += 1
            if confidence > self._stride_ceiling:
                confidence = self._stride_ceiling
        else:
            stride = new_stride
            confidence = 1
        table[slot] = (pc, line, stride, confidence)
        if confidence >= self._stride_threshold:
            issue = self._issue_hw
            is_mapped = self._is_mapped
            for i in range(self._stride_degree):
                candidate = line + stride * (i + 1)
                if is_mapped(candidate * 64):
                    issue(candidate, now)

    # ------------------------------------------------------------------
    # Demand load: MemorySystem.load with trace arms elided.
    # ------------------------------------------------------------------
    def load(self, addr: int, now, pc: int):
        line = addr >> 6
        counters = self._counters
        unused = self._unused
        l1_set = self._l1_sets[line & self._l1_mask]
        flags = l1_set.pop(line, None)
        if flags is not None:
            l1_set[line] = flags  # re-insert -> most recently used
            counters.l1_hits += 1
            if unused:
                software = unused.pop(line, None)
                if software is not None:
                    if software:
                        counters.sw_prefetch_useful += 1
                    else:
                        counters.hw_prefetch_useful += 1
            return self._l1_lat
        counters.l1_misses += 1
        mshr = self._mshr
        if mshr and now >= self.mem._mshr_next_ready:
            self._drain_fp(now)
            # L1 may have just been filled by the drain: reclassify.
            flags = l1_set.pop(line, None)
            if flags is not None:
                l1_set[line] = flags
                counters.l1_misses -= 1
                counters.l1_hits += 1
                if unused:
                    software = unused.pop(line, None)
                    if software is not None:
                        if software:
                            counters.sw_prefetch_useful += 1
                        else:
                            counters.hw_prefetch_useful += 1
                return self._l1_lat

        l2_set = self._l2_sets[line & self._l2_mask]
        flags = l2_set.pop(line, None)
        if flags is not None:
            l2_set[line] = flags
            counters.l2_hits += 1
            if unused:
                software = unused.pop(line, None)
                if software is not None:
                    if software:
                        counters.sw_prefetch_useful += 1
                    else:
                        counters.hw_prefetch_useful += 1
            # Inline l1.insert(line): the L1 has no eviction callback.
            if len(l1_set) >= self._l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line] = 0
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_l2 += self._l2_lat - self._l1_lat
            return self._l2_lat
        counters.l2_misses += 1
        if self._stride_table is not None:
            self._hw_l2(pc, line, now)

        llc_set = self._llc_sets[line & self._llc_mask]
        flags = llc_set.pop(line, None)
        if flags is not None:
            llc_set[line] = flags
            counters.llc_hits += 1
            if unused:
                software = unused.pop(line, None)
                if software is not None:
                    if software:
                        counters.sw_prefetch_useful += 1
                    else:
                        counters.hw_prefetch_useful += 1
            # Inline l2.insert + l1.insert: neither has a callback.
            if len(l2_set) >= self._l2_assoc:
                del l2_set[next(iter(l2_set))]
            l2_set[line] = 0
            if len(l1_set) >= self._l1_assoc:
                del l1_set[next(iter(l1_set))]
            l1_set[line] = 0
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_llc += self._llc_lat - self._l1_lat
            return self._llc_lat
        counters.llc_misses += 1

        entry = mshr.get(line)
        if entry is not None:
            # Coalesce with the in-flight fill: wait the residual.
            residual = entry[0] - now
            if residual < 0:
                residual = 0
            software = entry[1]
            del mshr[line]
            self._fill_absent_fp(line)
            if software:
                counters.load_hit_pre_sw_pf += 1
                counters.sw_prefetch_useful += 1
            else:
                counters.hw_prefetch_useful += 1
            latency = residual if residual > self._l1_lat else self._l1_lat
            if self._ideal:
                return self._l1_lat
            counters.stall_cycles_dram += latency - self._l1_lat
            return latency

        # True miss to memory.
        counters.offcore_demand_data_rd += 1
        counters.offcore_all_data_rd += 1
        if self._has_next_line:
            candidate = line + 1
            if self._is_mapped(candidate * 64):
                self._issue_hw(candidate, now)
        self._fill_absent_fp(line)
        if self._ideal:
            return self._l1_lat
        counters.stall_cycles_dram += self._mem_lat - self._l1_lat
        return self._mem_lat

    # ------------------------------------------------------------------
    # Software prefetch: MemorySystem.prefetch with trace arms elided.
    # ------------------------------------------------------------------
    def prefetch(self, addr: int, now, pc: int) -> None:
        counters = self._counters
        counters.sw_prefetch_issued += 1
        if not self._is_mapped(addr):
            counters.sw_prefetch_dropped_unmapped += 1
            return
        mshr = self._mshr
        if mshr and now >= self.mem._mshr_next_ready:
            self._drain_fp(now)
        # == _issue_prefetch(software=True): contains() probes do not
        # refresh LRU, so plain membership tests are exact.
        line = addr >> 6
        if (
            line in self._l1_sets[line & self._l1_mask]
            or line in self._l2_sets[line & self._l2_mask]
            or line in self._llc_sets[line & self._llc_mask]
            or line in mshr
        ):
            counters.sw_prefetch_redundant += 1
            return
        if len(mshr) >= self._mshr_cap:
            counters.sw_prefetch_dropped_mshr += 1
            return
        ready = now + self._mem_lat
        mshr[line] = [ready, True]
        mem = self.mem
        if ready < mem._mshr_next_ready:
            mem._mshr_next_ready = ready
        counters.offcore_all_data_rd += 1

    # ------------------------------------------------------------------
    # Demand store: MemorySystem.store with trace arms elided.
    # ------------------------------------------------------------------
    def store(self, addr: int, now, pc: int):
        line = addr >> 6
        l1_set = self._l1_sets[line & self._l1_mask]
        counters = self._counters
        unused = self._unused
        flags = l1_set.pop(line, None)
        if flags is not None:
            l1_set[line] = flags
            if unused:
                software = unused.pop(line, None)
                if software is not None:
                    if software:
                        counters.sw_prefetch_useful += 1
                    else:
                        counters.hw_prefetch_useful += 1
            return 1
        mshr = self._mshr
        if mshr and now >= self.mem._mshr_next_ready:
            self._drain_fp(now)
        if unused:
            software = unused.pop(line, None)
            if software is not None:
                if software:
                    counters.sw_prefetch_useful += 1
                else:
                    counters.hw_prefetch_useful += 1
        entry = mshr.pop(line, None) if mshr else None
        if entry is not None:
            # The store coalesces with (and consumes) the in-flight fill.
            self._fill_absent_fp(line)
            if entry[1]:
                counters.sw_prefetch_useful += 1
            else:
                counters.hw_prefetch_useful += 1
            return 1
        llc_set = self._llc_sets[line & self._llc_mask]
        flags = llc_set.pop(line, None)
        if flags is not None:
            llc_set[line] = flags  # refresh LRU if present
        self._fill_fp(line)
        return 1


def prefetch_arm(
    seg: str,
    addr: str,
    line: str,
    now: str,
    l1_set: str,
    mshr: str,
    mem: str,
    counters: str,
    port: str,
    pc: int,
) -> list:
    """Source lines of the inline software-prefetch arm the fused
    steppers emit (:mod:`repro.machine.batchturbo`); every argument but
    ``pc`` is a source expression.

    It answers :meth:`MemoryFastPath.prefetch`'s dominant outcome
    without the call: the address is mapped (``seg``, the site's
    segment cache, is already refreshed for ``addr``), the line sits in
    the L1 set ``l1_set``, and no MSHR drain is due — the MSHR dict
    ``mshr`` is empty or ``now`` is below ``mem``'s next-ready bound,
    the port's own test.  The port would count the prefetch issued and
    redundant and return.  The membership test does not refresh LRU,
    exactly like the port's probe.  Every other case calls ``port`` as
    before.  The empty-MSHR test matters: the bound is only a lower
    bound, and after a demand load consumes the last in-flight fill it
    stays in the past until the next drain.
    """
    return [
        f"if {seg} is not None and {line} in {l1_set} and "
        f"(not {mshr} or {now} < {mem}._mshr_next_ready):",
        f"    {counters}.sw_prefetch_issued += 1",
        f"    {counters}.sw_prefetch_redundant += 1",
        "else:",
        f"    {port}({addr}, {now}, {pc})",
    ]


def build_load_fastpath(mem) -> DemandPort:
    """Demand-load port for ``mem`` (kept for API compatibility; the
    stacked front path lives on :meth:`MemorySystem.front`)."""
    return mem.front().load


def build_store_fastpath(mem) -> DemandPort:
    """Demand-store port for ``mem`` (kept for API compatibility)."""
    return mem.front().store

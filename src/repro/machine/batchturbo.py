"""The one fused-nest generator: loop fusion for one run or N sweep cells.

The per-block closure chains (:mod:`repro.machine.blockengine`'s one
compiler, at one cell or at N sweep cells) pay, per loop iteration, one
closure call per op plus a dispatch round trip per block.  For the
loop-dominated workloads the paper targets that dispatch overhead *is*
the simulator's hot path.  This module compiles every *linear
single-latch* loop nest (the analysis is shared,
:mod:`repro.machine.fusion`) into one generated function that runs
whole iterations straight-line, innermost loops inlined as nested
``while`` loops: a 60k-trip outer loop around an 8-trip inner loop
costs one Python call, not 60k.  Registers live in Python locals, PHI
edge copies become fixed local assignments, and per-iteration
retired/load/store/taken counts fold into compile-time constants
applied once per back edge.

One generator serves both tiers, specialized by cell count (a fact of
the call, not a knob).  Either way the steppers take one signature,
``(R, st, cd, PT)``, and plug into the superblock slots of the one
dispatch loop (:class:`~repro.machine.blockengine.FusedDispatch`):

* **One cell** — :func:`compile_fused`, the compiled form of the
  ``turbo`` and ``fast`` engine names, in a
  :class:`~repro.machine.blockengine.BlockCompiledFunction`.  The
  cell's views and ports are bound once at entry, the cell-loop bodies
  below are emitted inline (no cell loop, no shadow code), and the
  clock lives in the local ``_y`` with constant costs folded straight
  into it.  Two variants are generated per nest: a *plain* one, and a
  *profiled* one that adds the sample guard (``_gc = st.next_sample -
  bound_cycles``), a PEBS ``record_load`` for every load at or above
  the threshold, and an ``lbr_push((pc, target_pc, _y))`` at every
  taken branch, with the clock materialized there — so sampled runs
  stay fused and exact.
  Inner loops keep standalone steppers at their own headers: that is
  where a run resumed after a mid-nest sample re-enters bulk stepping.
* **N cells** — :func:`compile_batch_turbo`, the batched sweep tier, in
  a :class:`BatchTurboCompiledFunction`, stepping **all cells per
  iteration**:

  * uniform registers live in Python locals; divergent registers stay in
    the per-cell overlays (``st.D``);
  * each straight-line segment of a block is emitted in two steps: first
    its uniform work — addresses, functional loads and stores through the
    per-site segment caches, uniform ALU — then **one** cell loop
    (``for _i, <views> in CELLS:``, unpacking each cell's views once)
    that does all per-cell work in program order: divergent ALU plus the
    timing arm of every load, store and prefetch.  The loop closes
    early before a uniform register it reads is rewritten, and before
    a uniform functional access that follows a divergent functional
    load (an A&J slice load's clamped address can alias a later store,
    and must fault first); it always closes before the terminator and
    its edge copies.  Hoisted values use
    per-site temporaries (``_a<k>``, ``_l<k>``, ``_v<k>``); a divergent
    register the loop defines and alone reads lives in a loop-local
    (``_x<N>``), not in its overlay slot;
  * when some cells share a config (shadow cells, see
    :mod:`repro.machine.batch`), the cell loop runs over the live cells
    only and records, at each divergent-address load or prefetch, the
    line key ``_g<k>[_i]`` the cell's timing depends on; a second loop
    from the same segment body, ``for _j, _i in SHADOWS:``, then runs
    each shadow's functional lines and compares its own key with its
    leader's ``_g<k>[_j]``, raising
    :class:`~repro.machine.batch.ShadowMismatch` on the first
    difference.  A segment with no memory op has no timing, so its one
    loop runs over every cell;
  * timing arms advance each cell's private L1/L2/LLC + MSHR state with
    the L1-hit arm inlined (:mod:`repro.mem.fastpath` views,
    pop/re-insert LRU refresh, prefetch-usefulness consumption), and so
    is the software-prefetch arm: a mapped prefetch whose line is in the
    cell's L1 with no MSHR drain due is counted issued and redundant in
    place (:func:`repro.mem.fastpath.prefetch_arm`).  Everything else
    calls the cell's port;
  * per-iteration retired/load/store/taken counts fold into compile-time
    constants applied once per back edge — uniform across cells by
    construction (divergent WORK amounts reject the batch up front);
  * constant cycle costs are *deferred*, not materialized per op: the
    compile-time pending constant rides in the codegen, one runtime local
    ``_pc`` carries pending cycles across back edges, and a cell loop
    keeps the cell's clock in a local ``_y`` (started from ``cy[_i]``
    plus everything deferred, stored back once).  Nothing observes a
    cell's clock between materialization points (batched runs never
    sample or trace; one profiled cell materializes at every branch),
    so deferral is invisible — the ``now`` handed to
    every port call is bit-identical to the per-block chains'.  A hoisted
    functional access may fault before the timing of earlier ops in its
    block; nothing reads timing once a run raises, and the error is the
    sequential engines' own.

**Guards.**  A stepper must never step over an observation point the
reference interpreter honours at block boundaries: the instruction
budget and, in a profiled run, the next sample (a traced run never
enters a stepper; its dispatch loop bypasses them).  The generated
function hoists ``_gm = st.max_instructions - st.retired`` (and, when
profiled, ``_gc``) once — both are run-constant while the stepper holds
the core — and guards ``_rt + bound_retired > _gm`` (``or _y >= _gc``)
at entry and per back edge.  ``bound_retired`` is the whole nest's
worst-case retire count between two guards; ``bound_cycles`` prices
every load at ``mem_lat`` (LLC + DRAM latency, a provable upper bound
on a demand load; stores retire in 1 cycle), so no block boundary
before the next guard can cross the sample or the budget.  Cost fields
are verified uniform across cells at batch construction, so one bound
serves every cell.  When a guard trips the stepper flushes and returns
at an exact block header; the entry guard declines with ``-1`` instead,
and per-block dispatch replays to the exact boundary — the sample or
the budget raise fires at the identical block the reference engine
fires it at.  Side exits write locals back, apply the interrupted
iteration's prefix constants and the exit edge's PHI copies, and
return the exit block; inner-loop exits inside a nest ``break`` to the
enclosing loop instead.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Optional, Sequence

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.batch import ShadowMismatch, _BatchFrame
from repro.machine.blockengine import (
    BlockCompiledFunction,
    CellOps,
    FusedDispatch,
    _aligned_phis,
    _aligned_rest,
    _BlockCompiler,
    _FunctionPlan,
    compile_blocks,
)
from repro.machine.config import MachineConfig
from repro.machine.fusion import (
    ALU_OPS,
    FusionUnit as _Unit,
    GuardedUnit as _Guarded,
    discover_units,
    flatten_unit as _flatten,
    functional_lines,
    site_probe,
    unit_depth as _depth,
    unit_entry as _entry,
)
from repro.mem.fastpath import prefetch_arm

_counter = itertools.count()

#: The per-cell views a fused cell loop binds once per cell, in
#: :attr:`CellBindings.cells` tuple order after the cell index: the
#: loop unpacks one tuple per cell instead of subscripting each list.
#: Ports stay subscripted (``LD[_i](...)``): they sit on miss arms.
_CELL_VIEWS = ("_ks", "_kk", "_kt", "_kc", "_ku", "_kq")
_VIEW_RE = re.compile(r"\b(?:_d|" + "|".join(_CELL_VIEWS) + r")\b")


class _Overlay(dict):
    """Resolves the ``{dN}`` divergent-register placeholders of cell-loop
    lines: to the loop-local ``_xN`` where the loop keeps register N in
    a local (the entries given), else to its overlay slot ``_d[N]``."""

    def __missing__(self, key: str) -> str:
        return f"_d[{key[1:]}]"


class CellBindings:
    """Per-batch pre-resolved cell state the generated steppers bind.

    Built by :class:`~repro.machine.batch.BatchMachine` for each way it
    runs its cells; every generated batch superblock receives it as the
    ``cd`` argument and binds only what its body references.  ``cells``
    holds one tuple per *live* cell (the cells whose timing runs): its
    index, then the views of :data:`_CELL_VIEWS` in order.  ``shadows``
    holds the ``(leader, shadow)`` index pairs of the shadow cells.
    ``rng`` and ``mems`` cover every cell.
    """

    __slots__ = ("rng", "cells", "shadows", "mems", "sp_find")

    def __init__(self, cells, space, live, shadows) -> None:
        self.rng = range(len(cells))
        self.mems = [cell.mem for cell in cells]
        fronts = [(index, self.mems[index].front()) for index in live]
        self.cells = tuple(
            (
                index, front._l1_sets, front._l1_mask, front._l1_lat,
                front._counters, front._unused, front._mshr,
            )
            for index, front in fronts
        )
        self.shadows = shadows
        self.sp_find = space._find


# ----------------------------------------------------------------------
# Codegen
# ----------------------------------------------------------------------
class _BatchSuperblockCodegen:
    """Generates the fused-nest stepper for one unit, all cells.

    Signature of the generated function, at any cell count: ``(R, st,
    cd, PT)`` — the register file and the dispatch loop's frame, then,
    for N cells, the :class:`CellBindings` and the per-cell constant
    tables (one tuple per divergent-immediate operand, indexed
    ``PT[k][_i]``); for one cell, the memory front path and an empty
    tuple.
    Returns the dispatch index to resume at, or ``-1`` without touching
    any state when the entry guard finds an observation point too close
    to run one worst-case iteration.
    """

    def __init__(
        self,
        compiled: FusedDispatch,
        config: MachineConfig,
        unit: _Unit,
        cell_configs: Sequence[MachineConfig],
    ) -> None:
        # The stepper shares the compiled function's plan, register
        # slots and dispatch indices.
        plan = compiled.plan
        self.plan = plan
        self.config = config
        self.ncells = len(cell_configs)
        # One cell (a sequential run): no cell loop, views bound once.
        self.single = self.ncells == 1
        self.pebs_threshold = config.effective_pebs_threshold()
        self.profiled = False
        # Cells sharing a config may run as shadows: emit the leaders'
        # line records and the shadow loops.
        self.shadowed = len(set(cell_configs)) < self.ncells
        self.slots = compiled.slots
        self.block_index = compiled.block_index
        self.divergent = plan.divergent
        self.function = plan.functions[0]
        self.unit = unit
        self.l1_masks = [
            cfg.memory.l1.sets - 1 for cfg in cell_configs
        ]
        self.l1_lats = [
            int(cfg.memory.l1.latency) for cfg in cell_configs
        ]
        self.uniform_geometry = (
            all(m == self.l1_masks[0] for m in self.l1_masks)
            and all(l == self.l1_lats[0] for l in self.l1_lats)
        )
        # The cycle bound must hold for every cell, so take the
        # worst-case demand latency across cells (metadata only — the
        # batch tier's guards are retired-only).
        self.mem_lat = max(
            int(cfg.memory.llc.latency + cfg.memory.dram_latency)
            for cfg in cell_configs
        )
        self._totals: dict = {}
        nest = self._nest_totals(unit)
        self.nest_totals = nest
        self.bound_cycles = max(
            1, nest[4] + nest[1] * self.mem_lat + nest[2]
        )
        self.bound_retired = max(1, nest[0])
        self.has_ld = nest[1] > 0
        self.has_sr = nest[2] > 0
        self.has_tk = nest[3] > 0 or self._any_taken_exit(unit)
        self.preload, self.writeback = self._collect_slots()
        # Operand uses per register slot, function-wide: a divergent
        # register defined in a cell loop and read only there, after the
        # definition, never needs its overlay slot.
        self.uses: Counter = Counter()
        for block in self.function.blocks if self.divergent else ():
            for inst in block.instructions:
                for value in inst.args + tuple(v for _, v in inst.incomings):
                    if type(value) is str:
                        self.uses[self.slots[value]] += 1
        self.ptables: list = []
        self._pt: dict = {}
        self._reset()

    def _reset(self) -> None:
        """Emission state.  ``_site`` numbers the memory sites; site
        ``k`` owns the segment cache ``_s<k>`` and, for a uniform
        address, the hoisted temporaries ``_a<k>``/``_l<k>``/``_v<k>``.
        ``_cell`` holds the open segment's cell-loop body, whose lines
        name divergent register N as the placeholder ``{dN}``; with
        shadows, ``_shadow`` holds the shadow loop's body and ``_records``
        the sites whose leader line ``_g<k>`` the shadows compare."""
        self.lines: list = []
        self._records: list = []
        self.indent = 1
        self._site = 0
        self._carry = False
        self._pending = 0
        self._clear_cells()

    def _clear_cells(self) -> None:
        self._cell: list = []
        self._shadow: list = []
        self._cell_reads: set = set()
        self._cell_defs: set = set()
        self._cell_uses: Counter = Counter()
        self._cell_early: set = set()
        self._cell_clock = False
        self._cell_loads = False

    # -- static analysis ----------------------------------------------
    def _unit_totals(self, unit: _Unit) -> tuple:
        cached = self._totals.get(id(unit))
        if cached is None:
            cached = self._scan_totals(unit)
            self._totals[id(unit)] = cached
        return cached

    def _scan_totals(self, unit: _Unit) -> tuple:
        """One iteration's folded constants over the unit's own blocks.

        Scanning cell 0 is exact for every cell: alignment pins the
        opcode/shape at every position, and divergent WORK amounts are
        banned, so the retire/cost tallies are uniform.
        """
        cfg = self.config
        rt = nloads = nstores = tk = const_cycles = 0
        for name in unit.own_blocks:
            cont = unit.cont[name]
            for inst in self.function.block(name).non_phi_instructions():
                op = inst.op
                if op is Opcode.LOAD:
                    rt += 1
                    nloads += 1
                elif op is Opcode.STORE:
                    rt += 1
                    nstores += 1
                elif op is Opcode.PREFETCH:
                    rt += 1
                    const_cycles += cfg.prefetch_cost
                elif op is Opcode.WORK:
                    rt += inst.args[0]
                    const_cycles += inst.args[0] * cfg.work_cpi
                elif op in (Opcode.JMP, Opcode.BR):
                    rt += 1
                    const_cycles += cfg.branch_cost
                    if op is Opcode.JMP or inst.targets[0] == cont:
                        tk += 1
                else:
                    rt += 1
                    const_cycles += cfg.alu_cost
        return rt, nloads, nstores, tk, const_cycles

    def _nest_totals(self, unit: _Unit) -> tuple:
        rt, nloads, nstores, tk, const_cycles = self._unit_totals(unit)
        for node in unit.path:
            if isinstance(node, (_Unit, _Guarded)):
                inner = node.unit if isinstance(node, _Guarded) else node
                crt, cld, csr, ctk, ccc = self._nest_totals(inner)
                rt += crt
                nloads += cld
                nstores += csr
                tk += ctk
                const_cycles += ccc
        return rt, nloads, nstores, tk, const_cycles

    def _any_taken_exit(self, unit: _Unit) -> bool:
        for name in unit.own_blocks:
            terminator = self.function.block(name).terminator
            if (
                terminator.op is Opcode.BR
                and terminator.targets[0] != unit.cont[name]
            ):
                return True
        return any(
            self._any_taken_exit(
                node.unit if isinstance(node, _Guarded) else node
            )
            for node in unit.path
            if isinstance(node, (_Unit, _Guarded))
        )

    def _tail_srcs(self, node) -> tuple:
        if isinstance(node, _Unit):
            return node.exit_blocks
        if isinstance(node, _Guarded):
            return node.unit.exit_blocks
        return (node,)

    def _internal_edges(self, unit: _Unit) -> list:
        edges: list = []
        path = unit.path
        for i, node in enumerate(path):
            tgt = _entry(path[i + 1]) if i + 1 < len(path) else unit.header
            for src in self._tail_srcs(node):
                edges.append((src, tgt))
            if isinstance(node, _Unit):
                edges.extend(self._internal_edges(node))
            elif isinstance(node, _Guarded):
                # The guard's skip arm rejoins at the same continuation
                # the inner unit exits to.
                edges.append((node.guard, tgt))
                edges.extend(self._internal_edges(node.unit))
        return edges

    def _exit_edges(self) -> list:
        unit = self.unit
        edges: list = []
        for name in unit.own_blocks:
            terminator = self.function.block(name).terminator
            if terminator.op is Opcode.BR:
                for target in terminator.targets:
                    if (
                        target != unit.cont[name]
                        and target != unit.guards.get(name)
                    ):
                        edges.append((name, target))
        return edges

    def _collect_slots(self) -> tuple:
        """(preload, writeback) for the *uniform* registers only —
        divergent registers never leave the per-cell overlays."""
        read: set = set()
        written: set = set()
        divergent = self.divergent

        def note_read(value) -> None:
            if type(value) is not int and value not in divergent:
                read.add(value)

        def visit(unit: _Unit) -> None:
            for name in unit.own_blocks:
                for inst in self.function.block(name).non_phi_instructions():
                    if inst.dst is not None and inst.dst not in divergent:
                        written.add(inst.dst)
                    for arg in inst.args:
                        note_read(arg)
            for node in unit.path:
                if isinstance(node, _Unit):
                    visit(node)
                elif isinstance(node, _Guarded):
                    visit(node.unit)

        visit(self.unit)
        for src, tgt in self._internal_edges(self.unit):
            for phi in self.function.block(tgt).phis():
                if phi.dst not in divergent:
                    written.add(phi.dst)
                note_read(dict(phi.incomings)[src])
        for src, tgt in self._exit_edges():
            for phi in self.function.block(tgt).phis():
                incoming = dict(phi.incomings)
                if src in incoming:
                    note_read(incoming[src])
        preload = sorted(self.slots[r] for r in read | written)
        writeback = sorted(self.slots[r] for r in written)
        return preload, writeback

    # -- operand specs -------------------------------------------------
    def _pt_index(self, values: tuple) -> int:
        index = self._pt.get(values)
        if index is None:
            index = len(self.ptables)
            self._pt[values] = index
            self.ptables.append(values)
        return index

    def _spec(self, values) -> tuple:
        first = values[0]
        if type(first) is str:
            slot = self.slots[first]
            if first in self.divergent:
                return ("D", slot)
            return ("R", slot)
        if all(value == first for value in values[1:]):
            return ("C", first)
        return ("P", self._pt_index(tuple(values)))

    def _arg(self, insts, j) -> tuple:
        return self._spec([inst.args[j] for inst in insts])

    @staticmethod
    def _uniform(*specs) -> bool:
        return all(spec[0] in ("R", "C") for spec in specs)

    def uexpr(self, spec) -> str:
        kind, value = spec
        if kind == "R":
            return f"r{value}"
        return repr(value)

    def cexpr(self, spec) -> str:
        kind, value = spec
        if kind == "R":
            return f"r{value}"
        if kind == "C":
            return repr(value)
        if kind == "D":
            return f"{{d{value}}}"
        return f"PT[{value}][_i]"

    # -- emission helpers ---------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _emit_fold(self) -> None:
        """Emit the fold of compile-time pending into the runtime carry
        ``_pc`` (one cell: into its clock ``_y``); state unchanged."""
        if self.single:
            if self._pending:
                self.emit(f"_y += {self._pending}")
        elif self._carry:
            if self._pending:
                self.emit(f"_pc += {self._pending}")
        else:
            self.emit(f"_pc = {self._pending}")

    def _normalize(self) -> None:
        """Fold pending so every loop-top is entered with state (carry,
        pending=0); one cell has no carry, its clock is exact."""
        self._emit_fold()
        self._carry = not self.single
        self._pending = 0

    def _mask_expr(self) -> str:
        return str(self.l1_masks[0]) if self.uniform_geometry else "_kk"

    def _lat_expr(self) -> str:
        return str(self.l1_lats[0]) if self.uniform_geometry else "_kt"

    # -- segments: hoisted uniform work, then one cell loop ------------
    # Uniform work is emitted as it comes; per-cell work collects in
    # ``_cell`` until the segment ends or a hazard closes the loop (see
    # the module docstring).  Uniform work never reads per-cell state
    # and timing arms never touch values, so the hoist is exact.
    def _cell_use(self, *specs) -> None:
        """Note the registers the open cell loop reads: uniform ones for
        :meth:`_uniform_write`, divergent ones for :meth:`_close_cells`
        (a use ahead of the loop's own definition reads the overlay)."""
        for kind, value in specs:
            if kind == "R":
                self._cell_reads.add(value)
            elif kind == "D":
                self._cell_uses[value] += 1
                if value not in self._cell_defs:
                    self._cell_early.add(value)

    def _cell_def(self, slot: int) -> str:
        """The open cell loop defines divergent register ``slot``."""
        self._cell_defs.add(slot)
        return f"{{d{slot}}}"

    def _both(self, *lines: str) -> None:
        """Functional cell-loop lines: leaders and shadows run them."""
        self._cell.extend(lines)
        if self.shadowed:
            self._shadow.extend(lines)

    def _record(self, site: int, key: str, shadow_key: str, pc: int) -> None:
        """Divergent-address site ``site``: each leader records the
        ``key`` its timing depends on, and a shadow whose own
        ``shadow_key`` differs from its leader's aborts the speculation."""
        if not self.shadowed:
            return
        self._records.append(site)
        self._cell.append(f"_g{site}[_i] = {key}")
        self._shadow += [
            f"if {shadow_key} != _g{site}[_j]:",
            f"    raise ShadowMismatch({pc})",
        ]

    def _uniform_write(self, slot: int) -> None:
        """Hoisted work writes ``r<slot>``: close the cell loop first if
        it reads the old value."""
        if slot in self._cell_reads:
            self._close_cells()

    def _functional_barrier(self) -> None:
        """Hoisted functional access next: close the cell loop first if
        it holds a divergent functional load.  A&J slice loads are
        divergent and their clamped address can alias a later store;
        a later load must not fault ahead of it either."""
        if self._cell_loads:
            self._close_cells()

    def _clock(self) -> None:
        """Advance the cell clock ``_y`` to this timing op: the first
        op of a loop starts it from ``cy[_i]`` plus everything deferred,
        later ones add the compile-time pending since the previous op."""
        k = self._pending
        if self.single:
            if k:
                self._cell.append(f"_y += {k}")
        elif not self._cell_clock:
            start = "cy[_i] + _pc" if self._carry else "cy[_i]"
            self._cell.append(f"_y = {start} + {k}" if k else f"_y = {start}")
            self._cell_clock = True
        elif k:
            self._cell.append(f"_y += {k}")
        self._pending = 0

    def _close_cells(self) -> None:
        """Emit the open cell loop: each used per-cell view bound once,
        the body, the clock stored back (one cell: the body inline)."""
        if not self._cell:
            return
        local = _Overlay(
            (f"d{slot}", f"_x{slot}")
            for slot in self._cell_defs - self._cell_early
            if self.uses[slot] == self._cell_uses[slot]
        )
        body = [line.format_map(local) for line in self._cell]
        if self.single:
            for line in body:
                self.emit(line)
        else:
            self._emit_cell_loops(body, local)
        self._clear_cells()

    def _emit_cell_loops(self, body: list, local: _Overlay) -> None:
        """The cell loop over ``body`` (and the shadow loop): the clock
        stored back, the carry absorbed."""
        if self._cell_clock:
            body.append("cy[_i] = _y")
        used = set(_VIEW_RE.findall("\n".join(body)))
        timed = bool(used - {"_d"})
        if timed:
            self.emit(f"for _i, {', '.join(_CELL_VIEWS)} in CELLS:")
        else:
            # No memory op, so no timing: one loop over every cell, the
            # shadows included.
            self.emit("for _i in RNG:")
        if "_d" in used:
            self.emit("    _d = D[_i]")
        for line in body:
            self.emit("    " + line)
        if timed and self._shadow:
            shadow = [line.format_map(local) for line in self._shadow]
            self.emit("for _j, _i in SHADOWS:")
            if "_d" in _VIEW_RE.findall("\n".join(shadow)):
                self.emit("    _d = D[_i]")
            for line in shadow:
                self.emit("    " + line)
        if self._cell_clock and self._carry:
            self.emit("_pc = 0")  # every cell clock absorbed the carry
            self._carry = False

    def _cell_probe(self, line: str, port: str, load: bool, pc: int) -> None:
        """The inline L1 arm of a load or store at ``_y`` (mirrors the
        fastpath hit arms: LRU refresh, prefetch-usefulness consumption,
        loads also count the hit); a miss adds the port call ``port``.
        A profiled load records its latency at or above the PEBS
        threshold, on either arm."""
        body = [
            f"_set = _ks[{line} & {self._mask_expr()}]",
            f"_f = _set.pop({line}, None)",
            "if _f is None:",
        ]
        pebs = load and self.profiled
        if pebs:
            body += [
                f"    _t = {port}",
                "    if _t >= pebs_threshold:",
                f"        record_load({pc}, _t)",
                "    _y += _t",
            ]
        else:
            body.append(f"    _y += {port}")
        body += ["else:", f"    _set[{line}] = _f"]
        if load:
            body.append("    _kc.l1_hits += 1")
        body += [
            "    if _ku:",
            f"        _sw = _ku.pop({line}, None)",
            "        if _sw is not None:",
            "            if _sw:",
            "                _kc.sw_prefetch_useful += 1",
            "            else:",
            "                _kc.hw_prefetch_useful += 1",
            f"    _y += {self._lat_expr() if load else 1}",
        ]
        if pebs and self.l1_lats[0] >= self.pebs_threshold:
            body.append(f"    record_load({pc}, {self.l1_lats[0]})")
        self._cell.extend(body)

    def _port(self, name: str) -> str:
        """A per-cell binding: subscripted by the cell loop's ``_i``,
        bound once when there is one cell."""
        return name if self.single else f"{name}[_i]"

    def _uniform_site(self, aspec) -> int:
        """Open a memory site with a uniform address: hoist the address
        and its line into the site's own temporaries."""
        site = self._site
        self._site += 1
        self.emit(f"_a{site} = {self.uexpr(aspec)}")
        self.emit(f"_l{site} = _a{site} >> 6")
        return site

    # -- flush / exits -------------------------------------------------
    def _emit_materialize(self) -> None:
        """Materialize the deferred cycles (snapshot; no state change —
        exit arms are emitted inside branches the main path skips)."""
        k = self._pending
        if self.single:
            if k:
                self.emit(f"_y += {k}")
            self.emit("st.cycle = _y")
        elif self._carry:
            if k:
                self.emit(f"_adv = _pc + {k}")
                self.emit("for _i in RNG:")
                self.emit("    cy[_i] += _adv")
            else:
                self.emit("if _pc:")
                self.emit("    for _i in RNG:")
                self.emit("        cy[_i] += _pc")
        elif k:
            self.emit("for _i in RNG:")
            self.emit(f"    cy[_i] += {k}")

    def _emit_flush(self, extra: tuple) -> None:
        ert, eld, esr, etk = extra
        self._emit_materialize()
        self.emit(
            f"st.retired += _rt + {ert}" if ert else "st.retired += _rt"
        )
        if self.has_ld:
            self.emit(
                f"st.loads += _ld + {eld}" if eld else "st.loads += _ld"
            )
        if self.has_sr:
            self.emit(
                f"st.stores += _sr + {esr}" if esr else "st.stores += _sr"
            )
        if self.has_tk:
            self.emit(
                f"st.taken += _tk + {etk}" if etk else "st.taken += _tk"
            )
        for slot in self.writeback:
            self.emit(f"R[{slot}] = r{slot}")

    def _phi_specs(self, src: str, tgt: str) -> list:
        targets = [f.block(tgt) for f in self.plan.functions]
        out: list = []
        for phis in _aligned_phis(targets):
            dst = phis[0].dst
            values = []
            for phi in phis:
                incoming = dict(phi.incomings)
                if src not in incoming:
                    raise IRError(
                        f"phi {dst} in {tgt} lacks incoming from {src}"
                    )
                values.append(incoming[src])
            out.append((dst, self._spec(values)))
        return out

    def _emit_divergent_copies(self, dpairs: list) -> None:
        """Per-cell parallel copies into the overlay (reads first, so
        divergent sources see pre-copy values — mirrors _batch_copies;
        uniform copies are emitted after and never read the overlay)."""
        if not dpairs:
            return
        overlay = _Overlay()
        self.emit("for _i in RNG:")
        self.emit("    _d = D[_i]")
        if len(dpairs) == 1:
            slot, spec = dpairs[0]
            self.emit(f"    _d[{slot}] = {self.cexpr(spec).format_map(overlay)}")
            return
        for index, (_, spec) in enumerate(dpairs):
            self.emit(f"    _q{index} = {self.cexpr(spec).format_map(overlay)}")
        for index, (slot, _) in enumerate(dpairs):
            self.emit(f"    _d[{slot}] = _q{index}")

    def _emit_edge_copies(self, src: str, tgt: str) -> None:
        """PHI parallel copies for an in-nest edge: divergent dsts into
        the overlays (read-before-write across cells), uniform dsts as
        local-to-local assignments: direct when no copy reads another's
        destination, through ``_p<k>`` temporaries otherwise."""
        upairs: list = []
        dpairs: list = []
        for dst, spec in self._phi_specs(src, tgt):
            if dst in self.divergent:
                dpairs.append((self.slots[dst], spec))
            else:
                upairs.append((f"r{self.slots[dst]}", self.uexpr(spec)))
        self._emit_divergent_copies(dpairs)
        if not upairs:
            return
        if len(upairs) == 1:
            dst, expr = upairs[0]
            if dst != expr:
                self.emit(f"{dst} = {expr}")
            return
        dsts = {dst for dst, _ in upairs}
        if all(expr not in dsts for dst, expr in upairs if expr != dst):
            for dst, expr in upairs:
                if dst != expr:
                    self.emit(f"{dst} = {expr}")
            return
        for index, (_, expr) in enumerate(upairs):
            self.emit(f"_p{index} = {expr}")
        for index, (dst, _) in enumerate(upairs):
            self.emit(f"{dst} = _p{index}")

    def _emit_exit_copies(self, src: str, tgt: str) -> None:
        """Exit-edge PHI copies straight into R / the overlays (the
        final writes on the way out; sources are locals/overlays, so
        ordering against the R writes is safe)."""
        upairs: list = []
        dpairs: list = []
        for dst, spec in self._phi_specs(src, tgt):
            if dst in self.divergent:
                dpairs.append((self.slots[dst], spec))
            else:
                upairs.append((self.slots[dst], self.uexpr(spec)))
        self._emit_divergent_copies(dpairs)
        for slot, expr in upairs:
            self.emit(f"R[{slot}] = {expr}")

    def _emit_unit_exit(
        self,
        src: str,
        exit_name: str,
        prefix: list,
        taken: bool,
        unit: _Unit,
        carried: tuple,
    ) -> None:
        tk_extra = prefix[3] + (1 if taken else 0)
        if unit is self.unit:
            self._emit_flush(
                (
                    carried[0] + prefix[0],
                    carried[1] + prefix[1],
                    carried[2] + prefix[2],
                    carried[3] + tk_extra,
                )
            )
            self._emit_exit_copies(src, exit_name)
            self.emit(f"return {self.block_index[exit_name]}")
        else:
            self.emit(f"_rt += {prefix[0]}")
            if prefix[1]:
                self.emit(f"_ld += {prefix[1]}")
            if prefix[2]:
                self.emit(f"_sr += {prefix[2]}")
            if tk_extra:
                self.emit(f"_tk += {tk_extra}")
            # Arm-local normalization: every break edge re-joins the
            # enclosing path with state (carry, pending=0).
            self._emit_fold()
            self._emit_edge_copies(src, exit_name)
            self.emit("break")

    # -- main ----------------------------------------------------------
    _BINDS = (
        ("cy", "st.cycles"),
        ("D", "st.D"),
        ("LD", "st.mem_loads"),
        ("SR", "st.mem_stores"),
        ("PF", "st.mem_prefetches"),
        ("sp_load", "st.sp_load"),
        ("sp_store", "st.sp_store"),
        ("RNG", "cd.rng"),
        ("CELLS", "cd.cells"),
        ("SHADOWS", "cd.shadows"),
        ("MEM", "cd.mems"),
        ("sp_find", "cd.sp_find"),
    )

    #: One cell: its views and ports, bound once at entry.
    _SINGLE_BINDS = (
        ("LD", "st.mem_load"),
        ("SR", "st.mem_store"),
        ("PF", "st.mem_prefetch"),
        ("sp_load", "st.sp_load"),
        ("sp_store", "st.sp_store"),
        ("_ks", "cd._l1_sets"),
        ("_kc", "cd._counters"),
        ("_ku", "cd._unused"),
        ("_kq", "cd._mshr"),
        ("MEM", "cd.mem"),
        ("sp_find", "cd.mem.space._find"),
        ("lbr_push", "st.lbr_push"),
        ("record_load", "st.record_load"),
        ("pebs_threshold", "st.pebs_threshold"),
    )

    def generate(self, profiled: bool = False) -> str:
        """The stepper's source.  ``profiled`` (one cell only) adds the
        sample guard, PEBS records and LBR pushes a sampled run needs."""
        self._reset()
        self.profiled = profiled

        # Entry guard: the instruction budget — and, profiled, the next
        # sample — are the only observation points (a traced run never
        # enters a stepper), hoisted once: both are run-constant while
        # the superblock holds the core (a sample can only fire in
        # per-block dispatch, after the guard bails).
        guard = f"{self.bound_retired} > _gm"
        if self.single:
            self.emit("_y = st.cycle")
            if profiled:
                self.emit(f"_gc = st.next_sample - {self.bound_cycles}")
                guard = f"_y >= _gc or {guard}"
        self.emit("_gm = st.max_instructions - st.retired")
        self.emit(f"if {guard}:")
        self.emit("    return -1")
        if not self.single:
            self.emit("_pc = 0")
            self._carry = True
        for slot in self.preload:
            self.emit(f"r{slot} = R[{slot}]")
        self.emit("_rt = 0")
        if self.has_ld:
            self.emit("_ld = 0")
        if self.has_sr:
            self.emit("_sr = 0")
        if self.has_tk:
            self.emit("_tk = 0")
        self._emit_unit(self.unit, (0, 0, 0, 0))

        binds = self._SINGLE_BINDS if self.single else self._BINDS
        names = "|".join(name for name, _ in binds)
        used = set(re.findall(rf"\b(?:{names})\b", "\n".join(self.lines)))
        entry = FUSED_ENTRY if self.single else "__batchsb"
        header = [f"def {entry}(R, st, cd, PT):"]
        for name, expr in binds:
            if name in used:
                header.append(f"    {name} = {expr}")
        for site in range(self._site):
            header.append(f"    _s{site} = None")
        for site in self._records:
            header.append(f"    _g{site} = [0] * {self.ncells}")
        return "\n".join(header + self.lines)

    def _emit_unit(self, unit: _Unit, carried: tuple) -> None:
        self._normalize()
        self.emit("while True:")
        self.indent += 1
        prefix = [0, 0, 0, 0]
        path = unit.path
        for i, node in enumerate(path):
            if isinstance(node, _Guarded):
                continue  # emitted inside its guard block's BR arm
            if isinstance(node, _Unit):
                inner_carried = (
                    carried[0] + prefix[0],
                    carried[1] + prefix[1],
                    carried[2] + prefix[2],
                    carried[3] + prefix[3],
                )
                self._emit_unit(node, inner_carried)
            else:
                nxt = path[i + 1] if i + 1 < len(path) else None
                self._emit_block(
                    node,
                    prefix,
                    unit,
                    carried,
                    nxt if isinstance(nxt, _Guarded) else None,
                )
        rt, nloads, nstores, tk, _ = self._unit_totals(unit)
        self.emit(f"_rt += {rt}")
        if nloads:
            self.emit(f"_ld += {nloads}")
        if nstores:
            self.emit(f"_sr += {nstores}")
        if tk:
            self.emit(f"_tk += {tk}")
        self._normalize()
        guard = f"_rt + {self.bound_retired + carried[0]} > _gm"
        if self.profiled:
            guard = f"_y >= _gc or {guard}"
        self.emit(f"if {guard}:")
        self.indent += 1
        self._emit_flush(carried)
        self.emit(f"return {self.block_index[unit.header]}")
        self.indent -= 1
        self.indent -= 1
        # Every way past this loop (break edges) normalized to the
        # loop-top invariant.
        self._carry = not self.single
        self._pending = 0

    # -- per-op emission ----------------------------------------------
    def _emit_push(self, pc: int, target: str) -> None:
        """A profiled run's taken branch to ``target``: its LBR record,
        stamped with the clock the branch materialized."""
        if self.profiled:
            start = self.function.block(target).start_pc
            self.emit(f"lbr_push(({pc}, {start}, _y))")

    def _alu(self, insts, dst_div: bool) -> tuple:
        """``(uniform, expr, specs)`` for one aligned ALU instruction."""
        op = insts[0].op
        specs = tuple(
            self._arg(insts, j) for j in range(len(insts[0].args))
        )
        uniform = not dst_div and self._uniform(*specs)
        x = self.uexpr if uniform else self.cexpr
        if op in (Opcode.CONST, Opcode.MOV):
            return uniform, x(specs[0]), specs
        if op is Opcode.SELECT:
            c, a, b = (x(spec) for spec in specs)
            return uniform, f"({a}) if ({c}) else ({b})", specs
        if op is Opcode.GEP:
            base, index, scale = specs
            if index[0] == "C" and scale[0] == "C":
                return uniform, f"{x(base)} + {index[1] * scale[1]}", specs
            if scale == ("C", 1):
                return uniform, f"{x(base)} + {x(index)}", specs
            return uniform, f"{x(base)} + {x(index)}*{x(scale)}", specs
        a, b = specs
        return uniform, BINOP_EXPR[op].format(a=x(a), b=x(b)), specs

    def _emit_load(self, insts, dst_divergent: bool) -> None:
        inst = insts[0]
        aspec = self._arg(insts, 0)
        dst_slot = self.slots[inst.dst]
        if aspec[0] in ("R", "C"):
            site = self._uniform_site(aspec)
            addr = f"_a{site}"
            self._functional_barrier()
            if dst_divergent:
                assign = f"_v{site} = "
            else:
                self._uniform_write(dst_slot)
                assign = f"r{dst_slot} = "
            for text in functional_lines(
                f"_s{site}", addr, assign, f"sp_load({addr})"
            ):
                self.emit(text)
            self._clock()
            self._cell_probe(
                f"_l{site}", f"{self._port('LD')}({addr}, _y, {inst.pc})",
                True, inst.pc,
            )
            if dst_divergent:
                self._both(f"{self._cell_def(dst_slot)} = _v{site}")
            return
        # Divergent address -> divergent value; everything per cell.
        site = self._site
        self._site += 1
        self._cell_use(aspec)
        self._both(f"_a = {self.cexpr(aspec)}")
        self._cell.append("_line = _a >> 6")
        self._record(site, "_line", "_a >> 6", inst.pc)
        self._clock()
        self._cell_probe(
            "_line", f"LD[_i](_a, _y, {inst.pc})", True, inst.pc
        )
        self._both(
            *functional_lines(
                f"_s{site}", "_a", f"{self._cell_def(dst_slot)} = ",
                "sp_load(_a)",
            )
        )
        self._cell_loads = True

    def _emit_store(self, insts) -> None:
        site = self._uniform_site(self._arg(insts, 0))
        addr = f"_a{site}"
        value = self.uexpr(self._arg(insts, 1))
        self._functional_barrier()
        for text in functional_lines(
            f"_s{site}", addr, "", f"sp_store({addr}, {value})", value
        ):
            self.emit(text)
        self._clock()
        pc = insts[0].pc
        self._cell_probe(
            f"_l{site}", f"{self._port('SR')}({addr}, _y, {pc})", False, pc
        )

    def _emit_prefetch(self, insts) -> None:
        aspec = self._arg(insts, 0)
        if aspec[0] in ("R", "C"):
            site = self._uniform_site(aspec)
            addr, line = f"_a{site}", f"_l{site}"
            for text in site_probe(f"_s{site}", addr):
                self.emit(text)
        else:
            site = self._site
            self._site += 1
            addr, line = "_a", "_line"
            self._cell_use(aspec)
            self._both(f"_a = {self.cexpr(aspec)}")
            self._both(*site_probe(f"_s{site}", "_a"))
            self._cell.append("_line = _a >> 6")
            unmapped = f"(_s{site} is None)"
            self._record(
                site, f"_line << 1 | {unmapped}",
                f"_a >> 6 << 1 | {unmapped}", insts[0].pc,
            )
        self._clock()
        self._cell.extend(
            prefetch_arm(
                f"_s{site}", addr, line, "_y",
                f"_ks[{line} & {self._mask_expr()}]", "_kq",
                self._port("MEM"), "_kc", self._port("PF"), insts[0].pc,
            )
        )
        self._pending = self.config.prefetch_cost

    def _emit_block(
        self,
        name: str,
        prefix: list,
        unit: _Unit,
        carried: tuple,
        guarded: Optional[_Guarded] = None,
    ) -> None:
        cfg = self.config
        blocks = [f.block(name) for f in self.plan.functions]
        cont = unit.cont[name]
        divergent = self.divergent

        for insts in _aligned_rest(blocks):
            inst = insts[0]
            op = inst.op
            dst = inst.dst
            dst_div = dst is not None and dst in divergent
            if op in ALU_OPS:
                uniform, expr, specs = self._alu(insts, dst_div)
                slot = self.slots[dst]
                if uniform:
                    self._uniform_write(slot)
                    self.emit(f"r{slot} = {expr}")
                else:
                    self._cell_use(*specs)
                    self._both(f"{self._cell_def(slot)} = {expr}")
                self._pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.LOAD:
                self._emit_load(insts, dst_div)
                prefix[0] += 1
                prefix[1] += 1
            elif op is Opcode.STORE:
                self._emit_store(insts)
                prefix[0] += 1
                prefix[2] += 1
            elif op is Opcode.PREFETCH:
                self._emit_prefetch(insts)
                prefix[0] += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                self._pending += amount * cfg.work_cpi
                prefix[0] += amount
            elif op is Opcode.JMP:
                self._close_cells()
                self._pending += cfg.branch_cost
                prefix[0] += 1
                prefix[3] += 1
                if self.profiled:
                    self._normalize()
                self._emit_push(inst.pc, inst.targets[0])
                self._emit_edge_copies(name, inst.targets[0])
            elif op is Opcode.BR:
                self._close_cells()
                self._pending += cfg.branch_cost
                prefix[0] += 1
                if self.profiled:
                    # Either arm may push the clock to the LBR.
                    self._normalize()
                cspec = self._arg(insts, 0)
                cond = self.uexpr(cspec)
                then_target, else_target = inst.targets
                if guarded is not None:
                    # Guarded inner unit: one arm runs the whole fused
                    # inner loop, the other skips it; both rejoin at
                    # ``guarded.skip``.  The static taken count follows
                    # _scan_totals (counted iff the skip arm is the
                    # taken arm), the other arm corrects _tk.  Normalize
                    # here so both arms see _pc absolute with nothing
                    # deferred and rejoin in that same state.
                    self._normalize()
                    enter = guarded.unit.header
                    skip = guarded.skip
                    if not guarded.enter_on_true:
                        prefix[3] += 1
                    arm = "if {}:" if guarded.enter_on_true else (
                        "if not ({}):"
                    )
                    self.emit(arm.format(cond))
                    self.indent += 1
                    if guarded.enter_on_true:
                        self._emit_push(inst.pc, enter)
                        self.emit("_tk += 1")
                    else:
                        self.emit("_tk -= 1")
                    self._emit_edge_copies(name, enter)
                    inner_carried = (
                        carried[0] + prefix[0],
                        carried[1] + prefix[1],
                        carried[2] + prefix[2],
                        carried[3] + prefix[3],
                    )
                    self._emit_unit(guarded.unit, inner_carried)
                    self.indent -= 1
                    self.emit("else:")
                    self.indent += 1
                    before = len(self.lines)
                    if not guarded.enter_on_true:
                        self._emit_push(inst.pc, skip)
                    self._emit_edge_copies(name, skip)
                    if len(self.lines) == before:
                        self.emit("pass")
                    self.indent -= 1
                    continue
                if then_target == cont:
                    self.emit(f"if not ({cond}):")
                    self.indent += 1
                    self._emit_unit_exit(
                        name, else_target, prefix, False, unit, carried
                    )
                    self.indent -= 1
                    self._emit_push(inst.pc, then_target)
                    prefix[3] += 1
                    continuation = then_target
                else:
                    self.emit(f"if {cond}:")
                    self.indent += 1
                    self._emit_push(inst.pc, then_target)
                    self._emit_unit_exit(
                        name, then_target, prefix, True, unit, carried
                    )
                    self.indent -= 1
                    continuation = else_target
                self._emit_edge_copies(name, continuation)
            else:  # pragma: no cover - guarded by block_is_fusable
                raise IRError(f"unhandled opcode {op!r} in batch superblock")


# ----------------------------------------------------------------------
# Containers + compile entry point
# ----------------------------------------------------------------------
class Superblock:
    """One fused loop nest: its generated stepper(s) plus the
    compile-time constants the dispatch loops need.  A one-cell nest
    carries a profiled variant next to the plain one; an N-cell nest
    carries its per-cell constant tables."""

    __slots__ = (
        "header",
        "path",
        "depth",
        "run",
        "source",
        "run_profiled",
        "source_profiled",
        "bound_cycles",
        "bound_retired",
        "ptables",
    )

    def __init__(
        self,
        header: str,
        path: tuple,
        depth: int,
        run,
        source: str,
        bound_cycles: int,
        bound_retired: int,
        run_profiled=None,
        source_profiled: Optional[str] = None,
        ptables: tuple = (),
    ) -> None:
        self.header = header
        self.path = path  # flattened block names, execution order
        self.depth = depth  # nesting depth (1 = a plain linear loop)
        self.run = run
        self.source = source
        self.run_profiled = run_profiled
        self.source_profiled = source_profiled
        self.bound_cycles = bound_cycles
        self.bound_retired = bound_retired
        self.ptables = ptables


#: The generated one-cell stepper's name in its module.
FUSED_ENTRY = "__fused"


def _exec(source: str, filename: str, entry: str):
    """Compile and run generated source; the function named ``entry``.
    Popped, not read: a function left in its own globals is a reference
    cycle only the cyclic GC frees, and the default engine builds these
    for every short run."""
    namespace: dict = {"ShadowMismatch": ShadowMismatch}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return namespace.pop(entry)


def _build_superblock(
    compiled: FusedDispatch,
    config: MachineConfig,
    unit: _Unit,
    cell_configs: Sequence[MachineConfig],
) -> Superblock:
    """Generate and compile one nest's stepper(s) for ``compiled``."""
    codegen = _BatchSuperblockCodegen(compiled, config, unit, cell_configs)
    tag = f"{compiled.plan.name}:{unit.header}"
    source = codegen.generate()
    run_profiled = source_profiled = None
    if codegen.single:
        run = _exec(source, f"<fused:{tag}:{next(_counter)}>", FUSED_ENTRY)
        source_profiled = codegen.generate(profiled=True)
        run_profiled = _exec(
            source_profiled,
            f"<fused:{tag}:profiled:{next(_counter)}>",
            FUSED_ENTRY,
        )
    else:
        run = _exec(source, f"<batchsb:{tag}:{next(_counter)}>", "__batchsb")
    return Superblock(
        header=unit.header,
        path=tuple(_flatten(unit)),
        depth=_depth(unit),
        run=run,
        source=source,
        bound_cycles=codegen.bound_cycles,
        bound_retired=codegen.bound_retired,
        run_profiled=run_profiled,
        source_profiled=source_profiled,
        ptables=tuple(codegen.ptables),
    )


def _fuse(compiled: FusedDispatch, config, cell_configs) -> FusedDispatch:
    """Install a superblock per fusable loop nest of ``compiled``, built
    innermost-first so outer loops absorb fused inner loops (verdicts
    from the shared :mod:`repro.machine.fusion` analysis on cell 0,
    exact for every cell because alignment pins opcode shape and
    divergent WORK amounts are banned).  Inner loops keep their
    standalone superblocks registered at their own headers — that is
    where a run resumed after a mid-nest sample re-enters bulk
    stepping."""
    superblocks: list = [None] * len(compiled._blocks)
    for unit in discover_units(compiled.function).values():
        superblocks[compiled.block_index[unit.header]] = _build_superblock(
            compiled, config, unit, cell_configs
        )
    compiled.fuse(tuple(superblocks))
    return compiled


def compile_fused(
    function: Function, config: Optional[MachineConfig] = None
) -> BlockCompiledFunction:
    """Compile one finalized IR function for the ``turbo`` and ``fast``
    engine names: the block engine's closure chains plus a one-cell
    superblock per fusable loop nest."""
    config = config or MachineConfig()
    return _fuse(compile_blocks(function, config), config, (config,))


class BatchTurboCompiledFunction(FusedDispatch):
    """One aligned function compiled for all cells: the per-block chains
    at N cells plus a batch superblock per fusable loop nest, run by
    the shared dispatch loop with a batch frame."""

    def __init__(self, compiler: _BlockCompiler) -> None:
        super().__init__(compiler)
        self._needs_overlay = compiler.has_divergence

    def stats(self) -> dict:
        return {
            **super().stats(),
            "divergent_registers": len(self.plan.divergent),
        }

    def __call__(self, bm, args: Sequence[int] = ()):
        st = _BatchFrame()
        st.counters = bm.cell_counters
        st.mem_loads = bm.load_ports
        st.mem_stores = bm.store_ports
        st.mem_prefetches = bm.prefetch_ports
        st.sp_load = bm.space.load
        st.sp_store = bm.space.store
        st.sp_mapped = bm.space.is_mapped
        st.live = bm.live
        st.shadows = bm.shadows
        st.lines = [0] * bm.ncells
        st.invoke = bm._invoke
        st.cycles = [int(counters.cycles) for counters in st.counters]
        st.retired = 0
        st.loads = 0
        st.stores = 0
        st.taken = 0
        st.value = 0
        if self._needs_overlay:
            st.D = [
                [0] * self._register_count for _ in range(bm.ncells)
            ]
        else:
            st.D = ()
        st.max_instructions = bm.config.max_instructions
        # Batched runs never profile and never trace.
        return self._dispatch(
            args, st, bm.bindings, False,
            list(self._superblocks) if self._fused else None,
        )


def compile_batch_turbo(
    plan: _FunctionPlan,
    plans: dict,
    config: MachineConfig,
    cell_configs: Sequence[MachineConfig],
    ops: CellOps,
) -> BatchTurboCompiledFunction:
    """Compile one aligned function plan for all cells: the per-block
    chains from the N-cell factory set ``ops``
    (:data:`repro.machine.batch.N_CELLS`) plus a batch superblock per
    fusable loop nest.  When some cells share a config, the steppers
    also carry the leaders' line records and the shadow loops, and run
    either way, plain or shadowed."""
    return _fuse(
        BatchTurboCompiledFunction(_BlockCompiler(plan, plans, config, ops)),
        config,
        cell_configs,
    )

"""Turbo engine tier: fused hot-loop superblocks + steady-state bulk
stepping on top of the block engine.

This is the compiled form both the ``turbo`` and the ``fast`` engine
names run (``fast`` is kept as a name for the v1 contract and artifact
keys).  The per-block closure chains (repro.machine.blockengine) alone
pay, per loop iteration, one closure call per op plus a dispatch-loop
round trip per basic block.  For the loop-dominated workloads the paper
targets that dispatch overhead *is* the simulator's hot path.  This
tier removes it in two steps:

**Superblock fusion.**  At compile time every *linear single-latch*
natural loop — header -> ... -> latch where each body node has exactly
one in-loop successor (the other successor, if any, is a side exit) —
is compiled to one generated-Python function that runs whole
iterations straight-line: virtual registers live in Python locals, PHI
edge-copies (internal, back-edge, and exit-edge) are hoisted into fixed
register-slot assignments, and per-iteration retired/load/store/taken
counts are folded into compile-time constants applied once per back
edge.  Fusion works innermost-first over whole loop *nests*: a loop
whose linear path runs through an already-fused inner loop with a
single exit target absorbs that loop as a nested ``while`` in the same
generated function, so a 60k-trip outer loop around an 8-trip inner
loop costs one Python call, not 60k.  Loops containing CALL or dynamic
(register-amount) WORK are left to the per-block path (their
per-iteration cost is unbounded and CALL is an observation point).

**Steady-state bulk stepping.**  A fused iteration still has to honour
every *observation point* the reference interpreter honours: the
per-block-boundary PEBS/LBR sample check (``cycle >= next_sample``),
the instruction-budget check, trace arming, and side exits.  Instead of
checking per block, the generated stepper computes the distance to the
next observation point and guards once per back edge::

    bound_cycles  = sum over every unit in the nest of
                    folded_const_cycles + n_loads * mem_lat + n_stores
    bound_retired = sum over every unit of folded retired count

``mem_lat`` (= LLC latency + DRAM latency) is a provable upper bound on
any demand-load latency (a coalesced MSHR wait is at most the residual
of a just-issued fill) and stores always retire in 1 cycle, so
``bound_cycles`` bounds the cycles between any two consecutive guard
evaluations (each guard-to-guard path runs at most one iteration of
each loop in the nest plus the straight-line segments between them).
While ``cycle + bound_cycles < next_sample`` and
``retired + bound_retired <= max_instructions`` hold at a guard, no
block boundary before the next guard can cross the sample cycle or the
instruction budget — the checks the reference engine would have run
are all provably no-ops, and skipping them is bit-identical.  When a
guard trips (a sample is imminent), the stepper flushes the folded
counters and returns at an exact block-header boundary; the entry
guard returns the ``-1`` no-progress sentinel instead, and the
dispatch loop falls back to the inherited per-block path, so the
sample fires at exactly the block boundary the reference engine fires
it at.  Inner loops keep their own standalone superblocks registered
at their headers, so a run resumed mid-nest after a sample re-enters
bulk stepping at the inner loop.  While lifecycle tracing is armed the
stepper is bypassed entirely (``ctx.mem.trace is not None``): traced
runs take exactly the per-block code paths the observability
guarantees were established on, mirroring the memory fast path's
bypass rule.

Side exits write the locals back to the register file, apply the
partial (path-prefix) counter constants for the interrupted iteration,
perform the exit edge's PHI copies, and return control to the ordinary
block dispatcher — so a probe chain that exits after 3 iterations is
still bit-exact.  Inner-loop exits inside a nest are compiled to
``break``: the partial-iteration constants fold into the running
accumulators and control falls through to the outer loop's next block
without leaving the generated function.

Two code variants are generated per superblock: a *profiled* one
(LBR pushes per taken branch, PEBS latency checks per load) used when a
sampler is armed, and a *plain* one that omits both — with the sampler
off the LBR is a NullLBR and the PEBS threshold is NEVER, so the calls
are semantic no-ops the plain variant simply does not pay for.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.blockengine import BlockCompiledFunction, compile_blocks
from repro.machine.config import MachineConfig
from repro.machine.fusion import (
    ALU_OPS as _ALU_OPS,
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

# Nest discovery and fusability live in repro.machine.fusion, shared
# with the batched superblock tier (repro.machine.batchturbo) so the
# two compilers can never disagree about what is fusable.

# ----------------------------------------------------------------------
# Codegen
# ----------------------------------------------------------------------
class _SuperblockCodegen:
    """Generates the fused-nest function for one unit.

    The generated function has the signature ``(R, st, fp)``: run fused
    iterations against register file ``R`` and frame ``st`` until an
    observation-point guard trips or a side exit is taken, and return
    the dispatch index of the block to resume at — or ``-1`` without
    touching any state when the entry guard finds an observation point
    too close to run even one worst-case iteration (the dispatch loop
    then takes the per-block path).
    """

    def __init__(
        self,
        function: Function,
        config: MachineConfig,
        base: BlockCompiledFunction,
        unit: _Unit,
    ) -> None:
        self.function = function
        self.config = config
        self.slots = base.slots
        self.block_index = base.block_index
        self.start_pc = base.block_start_pc
        self.unit = unit
        self.l1_lat = int(config.memory.l1.latency)
        self.l1_mask = config.memory.l1.sets - 1
        self.pebs_threshold = config.effective_pebs_threshold()
        self.mem_lat = int(
            config.memory.llc.latency + config.memory.dram_latency
        )
        self._totals: dict = {}  # id(unit) -> (rt, ld, sr, tk, cc)
        nest = self._nest_totals(unit)
        self.nest_totals = nest
        # Worst-case cycles / retired between two consecutive guard
        # evaluations: one iteration of every loop in the nest plus all
        # straight-line segments (see the module docstring).
        self.bound_cycles = max(1, nest[4] + nest[1] * self.mem_lat + nest[2])
        self.bound_retired = max(1, nest[0])
        self.has_ld = nest[1] > 0
        self.has_sr = nest[2] > 0
        self.has_tk = nest[3] > 0 or self._any_taken_exit(unit)
        self.preload, self.writeback = self._collect_slots()
        # Emission state (reset per generate()).  ``_site`` numbers the
        # memory sites; each gets a segment-cache local (_s0, _s1, ...).
        self.lines: list = []
        self.indent = 0
        self._site = 0

    # -- static analysis ----------------------------------------------
    def _unit_totals(self, unit: _Unit) -> tuple:
        cached = self._totals.get(id(unit))
        if cached is None:
            cached = self._scan_totals(unit)
            self._totals[id(unit)] = cached
        return cached

    def _scan_totals(self, unit: _Unit) -> tuple:
        """One unit iteration's folded constants over its *own* blocks
        (nested units accumulate themselves), mirroring the block
        compiler's cost accounting exactly (every pending run is
        materialized by the latch terminator, so the per-iteration
        constant-cycle total is just the sum of all constant costs)."""
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
                elif op in _ALU_OPS:
                    rt += 1
                    const_cycles += cfg.alu_cost
                else:  # pragma: no cover - guarded by _block_is_fusable
                    raise IRError(f"unfusable opcode {op!r} on loop path")
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
        """Whether any side exit anywhere in the nest is a BR's *taken*
        (then) arm — those contribute to st.taken even when every
        continuation edge is fall-through.  Guard blocks whose taken
        arm enters the guarded inner unit report True the same way:
        their taken count is adjusted dynamically."""
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
        """The block(s) a path node transfers control *from* when it
        hands off to its in-path successor: the block itself, or — for
        a nested (possibly guarded) unit — its side-exiting blocks (all
        of which break to the unit's single continuation)."""
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
        """(preload, writeback) slot lists: every register the fused
        nest touches is preloaded into a local at entry; every register
        it defines is written back on every way out."""
        read: set = set()
        written: set = set()

        def visit(unit: _Unit) -> None:
            for name in unit.own_blocks:
                for inst in self.function.block(name).non_phi_instructions():
                    if inst.dst is not None:
                        written.add(inst.dst)
                    for arg in inst.args:
                        if type(arg) is not int:
                            read.add(arg)
            for node in unit.path:
                if isinstance(node, _Unit):
                    visit(node)
                elif isinstance(node, _Guarded):
                    visit(node.unit)

        visit(self.unit)
        for src, tgt in self._internal_edges(self.unit):
            for phi in self.function.block(tgt).phis():
                written.add(phi.dst)
                value = dict(phi.incomings)[src]
                if type(value) is not int:
                    read.add(value)
        for src, tgt in self._exit_edges():
            for phi in self.function.block(tgt).phis():
                incoming = dict(phi.incomings)
                if src in incoming and type(incoming[src]) is not int:
                    read.add(incoming[src])
        preload = sorted(self.slots[r] for r in read | written)
        writeback = sorted(self.slots[r] for r in written)
        return preload, writeback

    # -- emission helpers ---------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _emit_l1_probe(self) -> None:
        """Inline the L1 front-path probe (pop from the structural set
        view; a hit leaves ``_f``/``_set``/``_line`` for the hit arm)."""
        self.emit("_line = _a >> 6")
        self.emit(f"_set = L1S[_line & {self.l1_mask}]")
        self.emit("_f = _set.pop(_line, None)")

    def _emit_functional(
        self, assign: str, fallback: str, store_value
    ) -> None:
        """Functional access to ``_a`` through the next site's segment
        cache (see :func:`repro.machine.fusion.functional_lines`)."""
        seg = f"_s{self._site}"
        self._site += 1
        for line in functional_lines(seg, "_a", assign, fallback, store_value):
            self.emit(line)

    def operand(self, value) -> str:
        if type(value) is int:
            return repr(value)
        return f"r{self.slots[value]}"

    def _edge_copy_lines(self, src: str, tgt: str) -> list:
        """PHI parallel copies for an in-nest edge, locals -> locals."""
        values = []
        for phi in self.function.block(tgt).phis():
            incoming = dict(phi.incomings)
            if src not in incoming:
                raise IRError(
                    f"phi {phi.dst} in {tgt} lacks incoming from {src}"
                )
            values.append(
                (f"r{self.slots[phi.dst]}", self.operand(incoming[src]))
            )
        if len(values) == 1:
            dst, expr = values[0]
            return [] if dst == expr else [f"{dst} = {expr}"]
        # The copies are parallel; sequential direct assignments are
        # only safe when no destination is read by a later copy.
        # Sources are single registers or literals, so a membership
        # check decides it — the temp scheme is the fallback.
        dsts = {dst for dst, _ in values}
        if all(expr not in dsts for dst, expr in values if expr != dst):
            return [f"{dst} = {expr}" for dst, expr in values if dst != expr]
        lines = [f"_p{i} = {expr}" for i, (_, expr) in enumerate(values)]
        lines += [f"{dst} = _p{i}" for i, (dst, _) in enumerate(values)]
        return lines

    def _emit_flush(self, extra: tuple) -> None:
        """Write the folded counters and locals back to the frame and
        register file: the running accumulators plus ``extra`` constant
        counts from interrupted (prefix) iterations."""
        ert, eld, esr, etk = extra
        self.emit("st.cycle = cycle")
        self.emit(f"st.retired += _rt + {ert}" if ert else "st.retired += _rt")
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

    def _emit_unit_exit(
        self,
        src: str,
        exit_name: str,
        prefix: list,
        taken: bool,
        unit: _Unit,
        carried: tuple,
    ) -> None:
        """A side exit from ``unit``.  For the outermost unit: flush
        everything (accumulators + carried enclosing prefixes + this
        iteration's prefix), run the exit edge's PHI copies straight
        into R, and return the exit block's dispatch index.  For a
        nested unit: fold the partial iteration into the accumulators,
        run the break edge's PHI copies (the continuation is fused
        too, so its PHIs are locals), and ``break`` to the enclosing
        loop's next block."""
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
            # Exit copies come last: they are the final writes the edge
            # performs, and their sources are locals, so ordering is
            # safe.
            for phi in self.function.block(exit_name).phis():
                incoming = dict(phi.incomings)
                if src not in incoming:
                    raise IRError(
                        f"phi {phi.dst} in {exit_name} lacks incoming "
                        f"from {src}"
                    )
                self.emit(
                    f"R[{self.slots[phi.dst]}] = "
                    f"{self.operand(incoming[src])}"
                )
            self.emit(f"return {self.block_index[exit_name]}")
        else:
            self.emit(f"_rt += {prefix[0]}")
            if prefix[1]:
                self.emit(f"_ld += {prefix[1]}")
            if prefix[2]:
                self.emit(f"_sr += {prefix[2]}")
            if tk_extra:
                self.emit(f"_tk += {tk_extra}")
            for line in self._edge_copy_lines(src, exit_name):
                self.emit(line)
            self.emit("break")

    # -- main ----------------------------------------------------------
    #: Prologue binds, in emission order; only the ones the generated
    #: body actually references are emitted (a bulk call for a
    #: short-trip loop is dominated by its prologue, so every dead bind
    #: costs real time — see the adaptive bypass in
    #: BlockCompiledFunction.__call__).
    _BINDS = (
        ("mem_load", "st.mem_load"),
        ("mem_store", "st.mem_store"),
        ("mem_prefetch", "st.mem_prefetch"),
        ("sp_load", "st.sp_load"),
        ("sp_store", "st.sp_store"),
        # Inlined L1-hit and redundant-prefetch arms (repro.mem.fastpath
        # views) and the per-callsite functional segment caches.
        ("L1S", "fp._l1_sets"),
        ("C", "fp._counters"),
        ("UN", "fp._unused"),
        ("sp_find", "fp.mem.space._find"),
        ("MQ", "fp._mshr"),
        ("MEM", "fp.mem"),
        ("lbr_push", "st.lbr_push"),
        ("record_load", "st.record_load"),
        ("pebs_threshold", "st.pebs_threshold"),
    )

    def generate(self, profiled: bool) -> str:
        # The body is generated first so the prologue can bind lazily:
        # only names the body references get a bind line.
        self.lines = []
        self.indent = 1
        self._site = 0

        # Guard limits, hoisted: ``cycle + B >= next_sample`` becomes
        # ``cycle >= _gc`` and ``ret0 + _rt + K > max_instructions``
        # becomes ``_rt + K > _gm`` — same integer arithmetic, but the
        # per-iteration guards lose two additions.  Both bounds are
        # run-constant while the superblock holds the core (a sample
        # can only fire in per-block dispatch, after the guard bails).
        self.emit("cycle = st.cycle")
        self.emit(f"_gc = st.next_sample - {self.bound_cycles}")
        self.emit("_gm = st.max_instructions - st.retired")
        self.emit(f"if cycle >= _gc or {self.bound_retired} > _gm:")
        self.emit("    return -1")
        for slot in self.preload:
            self.emit(f"r{slot} = R[{slot}]")
        self.emit("_rt = 0")
        if self.has_ld:
            self.emit("_ld = 0")
        if self.has_sr:
            self.emit("_sr = 0")
        if self.has_tk:
            self.emit("_tk = 0")
        self._emit_unit(self.unit, (0, 0, 0, 0), profiled)

        body = self.lines
        names = "|".join(name for name, _ in self._BINDS)
        used = set(re.findall(rf"\b(?:{names})\b", "\n".join(body)))
        header = ["def __superblock(R, st, fp):"]
        for name, expr in self._BINDS:
            if name in used:
                header.append(f"    {name} = {expr}")
        for site in range(self._site):
            header.append(f"    _s{site} = None")
        return "\n".join(header + body)

    def _emit_unit(
        self, unit: _Unit, carried: tuple, profiled: bool
    ) -> None:
        """One (possibly nested) fused loop.  ``carried`` is the
        constant (rt, loads, stores, taken) prefix of every enclosing,
        not-yet-completed iteration — enclosing loops only accumulate
        at their own back edges, so a flush from inside must add the
        work their current iterations have already done."""
        self.emit("while True:")
        self.indent += 1
        prefix = [0, 0, 0, 0]  # running rt / loads / stores / taken
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
                self._emit_unit(node, inner_carried, profiled)
            else:
                nxt = path[i + 1] if i + 1 < len(path) else None
                self._emit_block(
                    node,
                    prefix,
                    profiled,
                    unit,
                    carried,
                    nxt if isinstance(nxt, _Guarded) else None,
                )
        # The back edge: fold one completed iteration into the
        # accumulators, then guard the distance to the next
        # observation point (the mutant needle for repro.qa targets
        # this accumulation line — keep it on one line).
        rt, nloads, nstores, tk, _ = self._unit_totals(unit)
        self.emit(f"_rt += {rt}")
        if nloads:
            self.emit(f"_ld += {nloads}")
        if nstores:
            self.emit(f"_sr += {nstores}")
        if tk:
            self.emit(f"_tk += {tk}")
        self.emit(
            f"if cycle >= _gc "
            f"or _rt + {self.bound_retired + carried[0]} > _gm:"
        )
        self.indent += 1
        self._emit_flush(carried)
        self.emit(f"return {self.block_index[unit.header]}")
        self.indent -= 1
        self.indent -= 1

    def _emit_block(
        self,
        name: str,
        prefix: list,
        profiled: bool,
        unit: _Unit,
        carried: tuple,
        guarded: Optional[_Guarded] = None,
    ) -> None:
        cfg = self.config
        block = self.function.block(name)
        cont = unit.cont[name]
        pending = 0

        def flush() -> None:
            nonlocal pending
            if pending:
                self.emit(f"cycle += {pending}")
                pending = 0

        for inst in block.non_phi_instructions():
            op = inst.op
            if op in BINOP_EXPR:
                expr = BINOP_EXPR[op].format(
                    a=self.operand(inst.args[0]),
                    b=self.operand(inst.args[1]),
                )
                self.emit(f"r{self.slots[inst.dst]} = {expr}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.GEP:
                base, index, scale = inst.args
                if type(index) is int:
                    expr = f"{self.operand(base)} + {index * scale}"
                elif scale == 1:
                    expr = f"{self.operand(base)} + {self.operand(index)}"
                else:
                    expr = (
                        f"{self.operand(base)} + {self.operand(index)}*{scale}"
                    )
                self.emit(f"r{self.slots[inst.dst]} = {expr}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.CONST:
                self.emit(f"r{self.slots[inst.dst]} = {inst.args[0]!r}")
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.MOV:
                self.emit(
                    f"r{self.slots[inst.dst]} = {self.operand(inst.args[0])}"
                )
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.SELECT:
                cond, a, b = (self.operand(v) for v in inst.args)
                self.emit(
                    f"r{self.slots[inst.dst]} = "
                    f"({a}) if ({cond}) else ({b})"
                )
                pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.LOAD:
                flush()
                self.emit(f"_a = {self.operand(inst.args[0])}")
                self._emit_l1_probe()
                self.emit("if _f is None:")
                self.emit(f"    _l = mem_load(_a, cycle, {inst.pc})")
                if profiled:
                    self.emit("    if _l >= pebs_threshold:")
                    self.emit(f"        record_load({inst.pc}, _l)")
                self.emit("else:")
                self.emit("    _set[_line] = _f")
                self.emit("    C.l1_hits += 1")
                self.emit("    if UN:")
                self.emit("        _sw = UN.pop(_line, None)")
                self.emit("        if _sw is not None:")
                self.emit("            if _sw:")
                self.emit("                C.sw_prefetch_useful += 1")
                self.emit("            else:")
                self.emit("                C.hw_prefetch_useful += 1")
                self.emit(f"    _l = {self.l1_lat}")
                if profiled and self.l1_lat >= self.pebs_threshold:
                    self.emit(f"    record_load({inst.pc}, {self.l1_lat})")
                self.emit("cycle += _l")
                self._emit_functional(
                    f"r{self.slots[inst.dst]} = ", "sp_load(_a)", None
                )
                prefix[0] += 1
                prefix[1] += 1
            elif op is Opcode.STORE:
                flush()
                self.emit(f"_a = {self.operand(inst.args[0])}")
                self._emit_l1_probe()
                self.emit("if _f is None:")
                self.emit(f"    cycle += mem_store(_a, cycle, {inst.pc})")
                self.emit("else:")
                self.emit("    _set[_line] = _f")
                self.emit("    if UN:")
                self.emit("        _sw = UN.pop(_line, None)")
                self.emit("        if _sw is not None:")
                self.emit("            if _sw:")
                self.emit("                C.sw_prefetch_useful += 1")
                self.emit("            else:")
                self.emit("                C.hw_prefetch_useful += 1")
                self.emit("    cycle += 1")
                value = self.operand(inst.args[1])
                self._emit_functional("", f"sp_store(_a, {value})", value)
                prefix[0] += 1
                prefix[2] += 1
            elif op is Opcode.PREFETCH:
                flush()
                seg = f"_s{self._site}"
                self._site += 1
                self.emit(f"_a = {self.operand(inst.args[0])}")
                for line in site_probe(seg, "_a") + ["_line = _a >> 6"]:
                    self.emit(line)
                for line in prefetch_arm(
                    seg, "_a", "_line", "cycle",
                    f"L1S[_line & {self.l1_mask}]", "MQ", "MEM", "C",
                    "mem_prefetch", inst.pc,
                ):
                    self.emit(line)
                pending += cfg.prefetch_cost
                prefix[0] += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                pending += amount * cfg.work_cpi
                prefix[0] += amount
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                prefix[0] += 1
                flush()
                target = inst.targets[0]
                if profiled:
                    self.emit(
                        f"lbr_push(({inst.pc}, "
                        f"{self.start_pc[target]}, cycle))"
                    )
                prefix[3] += 1
                for line in self._edge_copy_lines(name, target):
                    self.emit(line)
                # Back edge (target == unit header): iteration ends at
                # the enclosing while's bottom (accumulate + guard).
                # Internal edge: fall straight into the next node.
            elif op is Opcode.BR:
                pending += cfg.branch_cost
                prefix[0] += 1
                flush()
                then_target, else_target = inst.targets
                cond = self.operand(inst.args[0])
                if guarded is not None:
                    # Guarded inner unit: one arm runs the whole fused
                    # inner loop, the other skips it; both rejoin at
                    # ``guarded.skip`` (the next path node).  The
                    # static taken count follows _scan_totals (counted
                    # iff the skip arm is the taken arm), with the
                    # other arm correcting _tk dynamically.
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
                        if profiled:
                            self.emit(
                                f"lbr_push(({inst.pc}, "
                                f"{self.start_pc[enter]}, cycle))"
                            )
                        self.emit("_tk += 1")
                    else:
                        self.emit("_tk -= 1")
                    for line in self._edge_copy_lines(name, enter):
                        self.emit(line)
                    inner_carried = (
                        carried[0] + prefix[0],
                        carried[1] + prefix[1],
                        carried[2] + prefix[2],
                        carried[3] + prefix[3],
                    )
                    self._emit_unit(guarded.unit, inner_carried, profiled)
                    self.indent -= 1
                    self.emit("else:")
                    self.indent += 1
                    if not guarded.enter_on_true and profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[skip]}, cycle))"
                        )
                    skip_copies = self._edge_copy_lines(name, skip)
                    for line in skip_copies:
                        self.emit(line)
                    if not skip_copies and not (
                        not guarded.enter_on_true and profiled
                    ):
                        self.emit("pass")
                    self.indent -= 1
                    continue
                if then_target == cont:
                    # Exit is the untaken (else) arm.
                    self.emit(f"if not ({cond}):")
                    self.indent += 1
                    self._emit_unit_exit(
                        name, else_target, prefix, False, unit, carried
                    )
                    self.indent -= 1
                    if profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[then_target]}, cycle))"
                        )
                    prefix[3] += 1
                    continuation = then_target
                else:
                    # Exit is the taken (then) arm.
                    self.emit(f"if {cond}:")
                    self.indent += 1
                    if profiled:
                        self.emit(
                            f"lbr_push(({inst.pc}, "
                            f"{self.start_pc[then_target]}, cycle))"
                        )
                    self._emit_unit_exit(
                        name, then_target, prefix, True, unit, carried
                    )
                    self.indent -= 1
                    continuation = else_target
                for line in self._edge_copy_lines(name, continuation):
                    self.emit(line)
            else:  # pragma: no cover - guarded by _block_is_fusable
                raise IRError(f"unhandled opcode {op!r} in superblock")


# ----------------------------------------------------------------------
# Superblock container + the turbo compiled function
# ----------------------------------------------------------------------
class Superblock:
    """One fused loop nest: the two generated steppers plus the
    compile-time constants the dispatch loop needs."""

    __slots__ = (
        "header",
        "header_index",
        "path",
        "depth",
        "run_plain",
        "run_profiled",
        "source_plain",
        "source_profiled",
        "bound_cycles",
        "bound_retired",
    )

    def __init__(
        self,
        header: str,
        header_index: int,
        path: tuple,
        depth: int,
        run_plain,
        run_profiled,
        source_plain: str,
        source_profiled: str,
        bound_cycles: int,
        bound_retired: int,
    ) -> None:
        self.header = header
        self.header_index = header_index
        self.path = path  # flattened block names, execution order
        self.depth = depth  # nesting depth (1 = a plain linear loop)
        self.run_plain = run_plain
        self.run_profiled = run_profiled
        self.source_plain = source_plain
        self.source_profiled = source_profiled
        self.bound_cycles = bound_cycles
        self.bound_retired = bound_retired


def _build_superblock(
    function: Function,
    config: MachineConfig,
    base: BlockCompiledFunction,
    unit: _Unit,
) -> Superblock:
    codegen = _SuperblockCodegen(function, config, base, unit)
    compiled = {}
    sources = {}
    for profiled in (False, True):
        source = codegen.generate(profiled)
        variant = "profiled" if profiled else "plain"
        filename = (
            f"<superblock:{function.name}:{unit.header}:{variant}:"
            f"{next(_counter)}>"
        )
        namespace: dict = {}
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        # Popped, not read: a function left in its own globals is a
        # reference cycle only the cyclic GC frees, and the default
        # engine builds these for every short run.
        compiled[profiled] = namespace.pop("__superblock")
        sources[profiled] = source
    return Superblock(
        header=unit.header,
        header_index=base.block_index[unit.header],
        path=tuple(_flatten(unit)),
        depth=_depth(unit),
        run_plain=compiled[False],
        run_profiled=compiled[True],
        source_plain=sources[False],
        source_profiled=sources[True],
        bound_cycles=codegen.bound_cycles,
        bound_retired=codegen.bound_retired,
    )


class TurboCompiledFunction(BlockCompiledFunction):
    """The block chains plus superblock steppers: the compiled form
    both the ``turbo`` and ``fast`` engine names run.

    Dispatch is the inherited loop (``BlockCompiledFunction.__call__``);
    this class only fills its superblock slots.  Tracing armed disables
    bulk stepping for the run.
    """

    def __init__(
        self, base: BlockCompiledFunction, superblocks: tuple
    ) -> None:
        super().__init__(
            base.function,
            base._blocks,
            base._block_names,
            base._entry,
            base._register_count,
            slots=base.slots,
            block_index=base.block_index,
            block_start_pc=base.block_start_pc,
            superblocks=superblocks,
        )

    def superblocks(self) -> list:
        """The fused loops (debug/test aid)."""
        return [sb for sb in self._superblocks if sb is not None]

    def stats(self) -> dict:
        stats = super().stats()
        fused = self.superblocks()
        stats["superblocks"] = len(fused)
        stats["fused_blocks"] = sum(len(sb.path) for sb in fused)
        stats["max_fusion_depth"] = max(
            (sb.depth for sb in fused), default=0
        )
        stats["bulk_calls"] = self.bulk_calls
        stats["bulk_iters"] = self.bulk_iters
        stats["guard_declines"] = self.guard_declines
        stats["adaptive_cleared"] = self.adaptive_cleared
        return stats


def compile_turbo(
    function: Function, config: Optional[MachineConfig] = None
) -> TurboCompiledFunction:
    """Compile one finalized IR function for the turbo tier (engine
    names ``turbo`` and ``fast``): the block engine's closure chains
    plus a fused superblock per linear loop,
    built innermost-first so outer loops absorb fused inner loops into
    one nest.  Inner loops keep their standalone superblocks registered
    at their own headers — that is where a run resumed after a
    mid-nest sample re-enters bulk stepping."""
    config = config or MachineConfig()
    base = compile_blocks(function, config)
    superblocks: list = [None] * len(base._blocks)
    for unit in discover_units(function).values():
        superblocks[base.block_index[unit.header]] = _build_superblock(
            function, config, base, unit
        )
    return TurboCompiledFunction(base, tuple(superblocks))

"""Batched superblock tier: turbo-style loop fusion across sweep cells.

The per-block batch chains (:mod:`repro.machine.batch`) share one
front-end across N sweep cells, but they still pay, per loop
iteration, one closure call per op plus a dispatch round trip per
block — and every memory op's closure re-binds its per-cell state.
This module fuses the same loop nests the sequential turbo tier fuses
(the analysis is shared, :mod:`repro.machine.fusion`) into one
generated function per nest that steps **all cells per iteration**:

* uniform registers live in Python locals; divergent registers stay in
  the per-cell overlays (``st.D``) and are touched in compact
  ``for _i in RNG`` loops;
* every memory site advances each cell's private L1/L2/LLC + MSHR
  timing state in the same loop body, with the L1-hit arm inlined
  exactly as the sequential turbo tier inlines it
  (:mod:`repro.mem.fastpath` views, pop/re-insert LRU refresh,
  prefetch-usefulness consumption) and misses delegating to the cell's
  demand port;
* per-iteration retired/load/store/taken counts fold into compile-time
  constants applied once per back edge — uniform across cells by
  construction (divergent WORK amounts reject the batch up front);
* constant cycle costs are *deferred*, not materialized per op: the
  compile-time pending constant rides in the codegen, and one runtime
  local ``_pc`` carries pending cycles across back edges, so the
  common iteration pays one integer add per memory site instead of a
  per-cell materialization loop per terminator.  Nothing observes a
  cell's clock between materialization points (batched runs never
  sample or trace), so deferral is invisible — the ``_now`` handed to
  every port call is bit-identical to the per-block chains'.

**Guards.**  Batched runs have exactly one observation point: the
instruction-budget check at block dispatch.  The generated function
hoists ``_gm = st.max_instructions - st.retired`` once (the budget is
run-constant) and guards ``_rt + bound_retired > _gm`` per back edge,
where ``bound_retired`` is the whole nest's worst-case per-iteration
retire count — the min-of-cells bound is the single shared bound, since
cost fields are verified uniform across cells at batch construction.
When the guard trips the stepper flushes and returns at an exact block
header; the entry guard declines with ``-1`` instead, and per-block
dispatch replays to the exact boundary — the budget raise fires at the
identical block the sequential engines fire it at.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence

from repro.ir.nodes import IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.batch import (
    _BatchBlockCompiler,
    _FunctionPlan,
    _aligned_phis,
    _aligned_rest,
    _BatchFrame,
)
from repro.machine.blockengine import (
    _ADAPT_MIN_ITERS,
    _ADAPT_WARMUP,
    _FELL_THROUGH,
    _RETURNED,
)
from repro.machine.config import MachineConfig
from repro.machine.fusion import (
    FusionUnit as _Unit,
    GuardedUnit as _Guarded,
    discover_units,
    flatten_unit as _flatten,
    unit_depth as _depth,
    unit_entry as _entry,
)
from repro.machine.interpreter import ExecutionLimitExceeded

_counter = itertools.count()

#: Temp identifiers in generated bodies (loop-local scratch plus the
#: shared ``_sN`` segment caches); used by the loop-merger peephole.
_TEMP_RE = re.compile(r"\b_[a-z][a-z0-9_]*\b")
_ASSIGN_RE = re.compile(r"^(_[a-z][a-z0-9_]*) = ")


def _loop_effects(body: list) -> tuple:
    """``(assigned, hazard)`` temp-name sets for one cell-loop body.

    ``assigned`` holds every simple-assignment target; ``hazard`` every
    temp read before it is (linearly) assigned, i.e. a name whose value
    at loop entry is observable.  Two adjacent loops may only be merged
    when neither body's assignments feed the other's entry-observable
    reads — otherwise a later iteration of the merged loop would see a
    temp left over from the *other* body's previous iteration instead
    of the value that was live when its own loop originally started.
    Subscripted state (``cy[_i]``, ``D[_i]``, ...) needs no tracking:
    it is cell-indexed, so per-cell mutation order is preserved by any
    interleaving of the bodies.
    """
    assigned = {"_i"}
    hazard: set = set()
    for line in body:
        text = line.lstrip(" ")
        match = _ASSIGN_RE.match(text)
        target = match.group(1) if match else None
        for token in _TEMP_RE.finditer(text):
            name = token.group(0)
            if name == target and token.start() == 0:
                continue
            if name not in assigned:
                hazard.add(name)
        if target is not None:
            assigned.add(target)
    return assigned, hazard


#: Read-only cell-indexed bindings worth aliasing to a loop-local when
#: a (merged) body touches them more than once.  ``D[_i]`` keeps its
#: codegen-conventional ``_d`` alias; the rest get ``_k*`` names no
#: emitter uses.  ``cy`` is handled separately — its entries are
#: rebound ints, so it needs a write-back, not just an alias.
_ALIAS_BASES = (
    ("D", "_d"),
    ("L1S", "_ks"),
    ("C", "_kc"),
    ("UN", "_ku"),
    ("LD", "_kl"),
    ("PF", "_kp"),
    ("SR", "_kr"),
)
_CY_RE = re.compile(r"\bcy\[_i\]")


def _localize_body(body: list, inner: int) -> list:
    """Hoist repeated cell-indexed accesses in one loop body to locals.

    Container bindings (``D[_i]``, ``L1S[_i]``, counters, port views)
    are stable objects — aliasing them is observationally identical,
    ports mutate *through* the same objects.  ``cy[_i]`` holds a plain
    int, so it is fully localized: read once at loop top, every access
    rewritten to the local, stored back once at loop bottom (nothing a
    body calls reads or writes ``st.cycles`` behind the generated
    code's back — ports take ``_now`` explicitly and return latency).
    """
    pad = " " * inner
    text = "\n".join(body)
    if len(_CY_RE.findall(text)) >= 3:
        body = [_CY_RE.sub("_yc", line) for line in body]
        body.insert(0, pad + "_yc = cy[_i]")
        body.append(pad + "cy[_i] = _yc")
        text = "\n".join(body)
    for base, alias in _ALIAS_BASES:
        pattern = re.compile(rf"\b{base}\[_i\]")
        if len(pattern.findall(text)) < 2:
            continue
        body = [pattern.sub(alias, line) for line in body]
        body = [
            line
            for line in body
            if line.lstrip(" ") != f"{alias} = {alias}"
        ]
        body.insert(0, f"{pad}{alias} = {base}[_i]")
        text = "\n".join(body)
    return body


def _merge_cell_loops(lines: list) -> list:
    """Peephole over a generated body: fuse adjacent ``for _i in RNG:``
    loops at the same indent with nothing between them into one loop,
    and drop duplicate top-level ``_d = D[_i]`` rebinds in the merged
    body.  Cuts the dominant per-uniform-instruction overhead of the
    batch superblock — loop setup and ``RNG`` iteration — without
    changing per-cell execution order (see :func:`_loop_effects` for
    the safety argument)."""
    out: list = []
    i = 0
    total = len(lines)
    while i < total:
        line = lines[i]
        text = line.lstrip(" ")
        if text != "for _i in RNG:":
            out.append(line)
            i += 1
            continue
        indent = len(line) - len(text)
        inner = indent + 4

        def body_end(start: int) -> int:
            j = start
            while j < total and len(lines[j]) - len(lines[j].lstrip(" ")) >= inner:
                j += 1
            return j

        end = body_end(i + 1)
        body = list(lines[i + 1 : end])
        assigned, hazard = _loop_effects(body)
        i = end
        while i < total and lines[i] == line:
            nxt_end = body_end(i + 1)
            nxt = lines[i + 1 : nxt_end]
            nxt_assigned, nxt_hazard = _loop_effects(nxt)
            if (assigned & nxt_hazard) or (nxt_assigned & hazard):
                break
            body.extend(nxt)
            assigned |= nxt_assigned
            hazard |= nxt_hazard
            i = nxt_end
        bind = " " * inner + "_d = D[_i]"
        if body.count(bind) > 1:
            seen = False
            deduped = []
            for entry in body:
                if entry == bind:
                    if seen:
                        continue
                    seen = True
                deduped.append(entry)
            body = deduped
        out.append(line)
        out.extend(_localize_body(body, inner))
    return out


class CellBindings:
    """Per-batch pre-resolved cell state the generated steppers bind.

    Built once per :class:`~repro.machine.batch.BatchMachine`; every
    generated batch superblock receives it as the ``cd`` argument and
    lazily binds only the views its body references.
    """

    __slots__ = (
        "n",
        "rng",
        "counters",
        "unused",
        "l1_sets",
        "l1_masks",
        "l1_lats",
        "sp_find",
    )

    def __init__(self, cells, space) -> None:
        fronts = [cell.mem.front() for cell in cells]
        self.n = len(cells)
        self.rng = range(self.n)
        self.counters = [cell.counters for cell in cells]
        self.unused = [front._unused for front in fronts]
        self.l1_sets = [front._l1_sets for front in fronts]
        self.l1_masks = [front._l1_mask for front in fronts]
        self.l1_lats = [front._l1_lat for front in fronts]
        self.sp_find = space._find


# ----------------------------------------------------------------------
# Codegen
# ----------------------------------------------------------------------
class _BatchSuperblockCodegen:
    """Generates the fused-nest stepper for one unit, all cells.

    Signature of the generated function: ``(R, st, cd, PT)`` — shared
    register file, batch frame, :class:`CellBindings`, and the
    per-cell constant tables (one tuple per divergent-immediate
    operand, indexed ``PT[k][_i]``).  Returns the dispatch index to
    resume at, or ``-1`` without touching any state when the entry
    guard finds the instruction budget too close to run one worst-case
    iteration.
    """

    def __init__(
        self,
        plan: _FunctionPlan,
        config: MachineConfig,
        compiler: _BatchBlockCompiler,
        unit: _Unit,
        cell_configs: Sequence[MachineConfig],
    ) -> None:
        self.plan = plan
        self.config = config
        self.slots = compiler.slots
        self.block_index = compiler.block_index
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
        self._memory_sites = nest[1] + nest[2]
        self.ptables: list = []
        self._pt: dict = {}
        # Emission state.
        self.lines: list = []
        self.indent = 0
        self._site = 0
        self._carry = False
        self._pending = 0

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
            return f"_d[{value}]"
        return f"PT[{value}][_i]"

    # -- emission helpers ---------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _normalize(self) -> None:
        """Fold compile-time pending into the runtime carry ``_pc`` so
        every loop-top is entered with state (carry, pending=0)."""
        if self._carry:
            if self._pending:
                self.emit(f"_pc += {self._pending}")
        else:
            self.emit(f"_pc = {self._pending}")
        self._carry = True
        self._pending = 0

    def _now_expr(self) -> str:
        k = self._pending
        if self._carry:
            return f"cy[_i] + {k} + _pc" if k else "cy[_i] + _pc"
        return f"cy[_i] + {k}" if k else "cy[_i]"

    def _consume(self) -> None:
        """Call after a site loop whose ``cy[_i] = _now ...`` writes
        absorbed the deferred cycles for every cell."""
        if self._carry:
            self.emit("_pc = 0")
            self._carry = False
        self._pending = 0

    def _mask_expr(self) -> str:
        if self.uniform_geometry:
            return str(self.l1_masks[0])
        return "L1M[_i]"

    def _lat_expr(self) -> str:
        if self.uniform_geometry:
            return str(self.l1_lats[0])
        return "L1L[_i]"

    def _emit_un(self, with_l1_hit: bool) -> None:
        """The prefetch-usefulness consumption arm (mirrors the
        fastpath hit arms; loads also count the L1 hit)."""
        if with_l1_hit:
            self.emit("C[_i].l1_hits += 1")
        self.emit("_u = UN[_i]")
        self.emit("if _u:")
        self.emit("    _sw = _u.pop(_line, None)")
        self.emit("    if _sw is not None:")
        self.emit("        if _sw:")
        self.emit("            C[_i].sw_prefetch_useful += 1")
        self.emit("        else:")
        self.emit("            C[_i].hw_prefetch_useful += 1")

    def _emit_functional(
        self, assign: str, fallback: str, store_value
    ) -> None:
        site = self._site
        self._site += 1
        s = f"_s{site}"
        self.emit(f"if {s} is None or not ({s}.base <= _a < {s}.end):")
        self.emit(f"    {s} = sp_find(_a)")
        self.emit(f"if {s} is None:")
        self.emit(f"    {assign}{fallback}")
        self.emit("else:")
        self.emit(f"    _o = _a - {s}.base")
        self.emit(f"    if _o & ({s}.elem_size - 1):")
        self.emit(f"        {assign}{fallback}")
        self.emit("    else:")
        if store_value is None:
            self.emit(f"        {assign}{s}.values[_o // {s}.elem_size]")
        else:
            self.emit(
                f"        {s}.values[_o // {s}.elem_size] = {store_value}"
            )

    # -- flush / exits -------------------------------------------------
    def _emit_materialize(self) -> None:
        """Materialize the deferred cycles (snapshot; no state change —
        exit arms are emitted inside branches the main path skips)."""
        k = self._pending
        if self._carry:
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
        self.emit("for _i in RNG:")
        self.emit("    _d = D[_i]")
        if len(dpairs) == 1:
            slot, spec = dpairs[0]
            self.emit(f"    _d[{slot}] = {self.cexpr(spec)}")
            return
        for index, (_, spec) in enumerate(dpairs):
            self.emit(f"    _q{index} = {self.cexpr(spec)}")
        for index, (slot, _) in enumerate(dpairs):
            self.emit(f"    _d[{slot}] = _q{index}")

    def _emit_edge_copies(self, src: str, tgt: str) -> None:
        """PHI parallel copies for an in-nest edge: divergent dsts into
        the overlays (read-before-write across cells), uniform dsts as
        local-to-local assignments with the sequential tier's
        parallel-safety rules."""
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
            if self._carry:
                if self._pending:
                    self.emit(f"_pc += {self._pending}")
            else:
                self.emit(f"_pc = {self._pending}")
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
        ("L1S", "cd.l1_sets"),
        ("L1M", "cd.l1_masks"),
        ("L1L", "cd.l1_lats"),
        ("C", "cd.counters"),
        ("UN", "cd.unused"),
        ("sp_find", "cd.sp_find"),
    )

    def generate(self) -> str:
        self.lines = []
        self.indent = 1
        self._site = 0
        self._carry = False
        self._pending = 0

        # Entry guard: the instruction budget is the batch tier's only
        # observation point (no sampler, no trace), hoisted once — it
        # is run-constant while the superblock holds the core.
        self.emit("_gm = st.max_instructions - st.retired")
        self.emit(f"if {self.bound_retired} > _gm:")
        self.emit("    return -1")
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

        body = _merge_cell_loops(self.lines)
        used = set(
            re.findall(
                r"\b(?:cy|D|LD|SR|PF|sp_load|sp_store|RNG|L1S|L1M|L1L"
                r"|C|UN|sp_find)\b",
                "\n".join(body),
            )
        )
        header = ["def __batchsb(R, st, cd, PT):"]
        for name, expr in self._BINDS:
            if name in used:
                header.append(f"    {name} = {expr}")
        for site in range(self._memory_sites):
            header.append(f"    _s{site} = None")
        return "\n".join(header + body)

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
        self.emit(
            f"if _rt + {self.bound_retired + carried[0]} > _gm:"
        )
        self.indent += 1
        self._emit_flush(carried)
        self.emit(f"return {self.block_index[unit.header]}")
        self.indent -= 1
        self.indent -= 1
        # Every way past this loop (break edges) normalized to the
        # loop-top invariant.
        self._carry = True
        self._pending = 0

    # -- per-op emission ----------------------------------------------
    def _emit_cell_assign(self, dst_slot: int, expr: str) -> None:
        self.emit("for _i in RNG:")
        if "_d[" in expr:
            self.emit("    _d = D[_i]")
            self.emit(f"    _d[{dst_slot}] = {expr}")
        else:
            self.emit(f"    D[_i][{dst_slot}] = {expr}")

    def _emit_load(self, insts, dst_divergent: bool) -> None:
        inst = insts[0]
        aspec = self._arg(insts, 0)
        dst_slot = self.slots[inst.dst]
        pc = inst.pc
        mask = self._mask_expr()
        lat = self._lat_expr()
        if aspec[0] in ("R", "C"):
            self.emit(f"_a = {self.uexpr(aspec)}")
            if dst_divergent:
                self._emit_functional("_v = ", "sp_load(_a)", None)
            self.emit("_line = _a >> 6")
            now = self._now_expr()
            self.emit("for _i in RNG:")
            self.indent += 1
            self.emit(f"_now = {now}")
            self.emit(f"_set = L1S[_i][_line & {mask}]")
            self.emit("_f = _set.pop(_line, None)")
            self.emit("if _f is None:")
            self.emit(f"    cy[_i] = _now + LD[_i](_a, _now, {pc})")
            self.emit("else:")
            self.indent += 1
            self.emit("_set[_line] = _f")
            self._emit_un(True)
            self.emit(f"cy[_i] = _now + {lat}")
            self.indent -= 1
            if dst_divergent:
                self.emit(f"D[_i][{dst_slot}] = _v")
            self.indent -= 1
            self._consume()
            if not dst_divergent:
                self._emit_functional(
                    f"r{dst_slot} = ", "sp_load(_a)", None
                )
        else:
            # Divergent address -> divergent value; everything per cell.
            now = self._now_expr()
            self.emit("for _i in RNG:")
            self.indent += 1
            self.emit("_d = D[_i]")
            self.emit(f"_a = {self.cexpr(aspec)}")
            self.emit("_line = _a >> 6")
            self.emit(f"_now = {now}")
            self.emit(f"_set = L1S[_i][_line & {mask}]")
            self.emit("_f = _set.pop(_line, None)")
            self.emit("if _f is None:")
            self.emit(f"    cy[_i] = _now + LD[_i](_a, _now, {pc})")
            self.emit("else:")
            self.indent += 1
            self.emit("_set[_line] = _f")
            self._emit_un(True)
            self.emit(f"cy[_i] = _now + {lat}")
            self.indent -= 1
            self._emit_functional(f"_d[{dst_slot}] = ", "sp_load(_a)", None)
            self.indent -= 1
            self._consume()

    def _emit_store(self, insts) -> None:
        inst = insts[0]
        aspec = self._arg(insts, 0)
        vspec = self._arg(insts, 1)
        pc = inst.pc
        mask = self._mask_expr()
        self.emit(f"_a = {self.uexpr(aspec)}")
        self.emit("_line = _a >> 6")
        now = self._now_expr()
        self.emit("for _i in RNG:")
        self.indent += 1
        self.emit(f"_now = {now}")
        self.emit(f"_set = L1S[_i][_line & {mask}]")
        self.emit("_f = _set.pop(_line, None)")
        self.emit("if _f is None:")
        self.emit(f"    cy[_i] = _now + SR[_i](_a, _now, {pc})")
        self.emit("else:")
        self.indent += 1
        self.emit("_set[_line] = _f")
        self._emit_un(False)
        self.emit("cy[_i] = _now + 1")
        self.indent -= 1
        self.indent -= 1
        self._consume()
        value = self.uexpr(vspec)
        self._emit_functional("", f"sp_store(_a, {value})", value)

    def _emit_prefetch(self, insts) -> None:
        inst = insts[0]
        aspec = self._arg(insts, 0)
        pc = inst.pc
        divergent_addr = aspec[0] not in ("R", "C")
        if not divergent_addr:
            self.emit(f"_a = {self.uexpr(aspec)}")
        now = self._now_expr()
        self.emit("for _i in RNG:")
        self.indent += 1
        if divergent_addr:
            self.emit("_d = D[_i]")
            self.emit(f"_a = {self.cexpr(aspec)}")
        self.emit(f"_now = {now}")
        self.emit("cy[_i] = _now")
        self.emit(f"PF[_i](_a, _now, {pc})")
        self.indent -= 1
        self._consume()
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
            if op in BINOP_EXPR:
                a = self._arg(insts, 0)
                b = self._arg(insts, 1)
                if not dst_div and self._uniform(a, b):
                    expr = BINOP_EXPR[op].format(
                        a=self.uexpr(a), b=self.uexpr(b)
                    )
                    self.emit(f"r{self.slots[dst]} = {expr}")
                else:
                    expr = BINOP_EXPR[op].format(
                        a=self.cexpr(a), b=self.cexpr(b)
                    )
                    self._emit_cell_assign(self.slots[dst], expr)
                self._pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.GEP:
                base = self._arg(insts, 0)
                index = self._arg(insts, 1)
                scale = self._spec([i.args[2] for i in insts])
                if not dst_div and self._uniform(base, index, scale):
                    if index[0] == "C":
                        expr = f"{self.uexpr(base)} + {index[1] * scale[1]}"
                    elif scale[1] == 1:
                        expr = f"{self.uexpr(base)} + {self.uexpr(index)}"
                    else:
                        expr = (
                            f"{self.uexpr(base)} + "
                            f"{self.uexpr(index)}*{scale[1]}"
                        )
                    self.emit(f"r{self.slots[dst]} = {expr}")
                else:
                    if index[0] == "C" and scale[0] == "C":
                        expr = f"{self.cexpr(base)} + {index[1] * scale[1]}"
                    else:
                        expr = (
                            f"{self.cexpr(base)} + "
                            f"{self.cexpr(index)}*{self.cexpr(scale)}"
                        )
                    self._emit_cell_assign(self.slots[dst], expr)
                self._pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.CONST:
                value = self._spec([i.args[0] for i in insts])
                if not dst_div and self._uniform(value):
                    self.emit(f"r{self.slots[dst]} = {value[1]!r}")
                else:
                    self._emit_cell_assign(
                        self.slots[dst], self.cexpr(value)
                    )
                self._pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.MOV:
                a = self._arg(insts, 0)
                if not dst_div and self._uniform(a):
                    self.emit(f"r{self.slots[dst]} = {self.uexpr(a)}")
                else:
                    self._emit_cell_assign(self.slots[dst], self.cexpr(a))
                self._pending += cfg.alu_cost
                prefix[0] += 1
            elif op is Opcode.SELECT:
                c = self._arg(insts, 0)
                a = self._arg(insts, 1)
                b = self._arg(insts, 2)
                if not dst_div and self._uniform(c, a, b):
                    self.emit(
                        f"r{self.slots[dst]} = ({self.uexpr(a)}) if "
                        f"({self.uexpr(c)}) else ({self.uexpr(b)})"
                    )
                else:
                    self._emit_cell_assign(
                        self.slots[dst],
                        f"({self.cexpr(a)}) if ({self.cexpr(c)}) "
                        f"else ({self.cexpr(b)})",
                    )
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
                self._pending += cfg.branch_cost
                prefix[0] += 1
                prefix[3] += 1
                self._emit_edge_copies(name, inst.targets[0])
            elif op is Opcode.BR:
                self._pending += cfg.branch_cost
                prefix[0] += 1
                cspec = self._arg(insts, 0)
                cond = self.uexpr(cspec)
                then_target, else_target = inst.targets
                if guarded is not None:
                    # Guarded inner unit (see the turbo tier): one arm
                    # runs the whole fused inner loop, the other skips
                    # it; both rejoin at ``guarded.skip``.  Normalize
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
                    self.emit(
                        "_tk += 1" if guarded.enter_on_true else "_tk -= 1"
                    )
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
                    prefix[3] += 1
                    continuation = then_target
                else:
                    self.emit(f"if {cond}:")
                    self.indent += 1
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
class BatchSuperblock:
    """One fused loop nest compiled for all cells."""

    __slots__ = (
        "header",
        "header_index",
        "path",
        "depth",
        "run",
        "source",
        "bound_cycles",
        "bound_retired",
        "ptables",
    )

    def __init__(
        self,
        header: str,
        header_index: int,
        path: tuple,
        depth: int,
        run,
        source: str,
        bound_cycles: int,
        bound_retired: int,
        ptables: tuple,
    ) -> None:
        self.header = header
        self.header_index = header_index
        self.path = path
        self.depth = depth
        self.run = run
        self.source = source
        self.bound_cycles = bound_cycles
        self.bound_retired = bound_retired
        self.ptables = ptables


def _build_batch_superblock(
    plan: _FunctionPlan,
    config: MachineConfig,
    compiler: _BatchBlockCompiler,
    unit: _Unit,
    cell_configs: Sequence[MachineConfig],
) -> BatchSuperblock:
    codegen = _BatchSuperblockCodegen(
        plan, config, compiler, unit, cell_configs
    )
    source = codegen.generate()
    filename = f"<batchsb:{plan.name}:{unit.header}:{next(_counter)}>"
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return BatchSuperblock(
        header=unit.header,
        header_index=compiler.block_index[unit.header],
        path=tuple(_flatten(unit)),
        depth=_depth(unit),
        run=namespace["__batchsb"],
        source=source,
        bound_cycles=codegen.bound_cycles,
        bound_retired=codegen.bound_retired,
        ptables=tuple(codegen.ptables),
    )


class BatchTurboCompiledFunction:
    """One aligned function compiled for all cells: the per-block batch
    chains plus a batch superblock per fusable loop nest.

    Unfused blocks dispatch through their per-block chains; a fused
    header hands control to the generated stepper, which runs whole
    iterations for all cells until the budget guard trips (or declines
    with ``-1``) — per-block dispatch then replays to the exact
    boundary and re-enters bulk at the next fused header.
    """

    def __init__(
        self,
        plan: _FunctionPlan,
        blocks: tuple,
        block_names: tuple,
        entry_index: int,
        register_count: int,
        needs_overlay: bool,
        superblocks: tuple,
    ) -> None:
        self.plan = plan
        self._blocks = blocks
        self._block_names = block_names
        self._entry = entry_index
        self._register_count = register_count
        self._needs_overlay = needs_overlay
        self._superblocks = superblocks
        self.bulk_calls = 0
        self.bulk_iters = 0
        self.guard_declines = 0
        self.adaptive_cleared = 0

    def superblocks(self) -> list:
        return [sb for sb in self._superblocks if sb is not None]

    def stats(self) -> dict:
        fused = self.superblocks()
        return {
            "blocks": len(self._blocks),
            "ops": sum(len(ops) for ops in self._blocks),
            "registers": self._register_count,
            "divergent_registers": len(self.plan.divergent),
            "superblocks": len(fused),
            "fused_blocks": sum(len(sb.path) for sb in fused),
            "max_fusion_depth": max((sb.depth for sb in fused), default=0),
            "bulk_calls": self.bulk_calls,
            "bulk_iters": self.bulk_iters,
            "guard_declines": self.guard_declines,
            "adaptive_cleared": self.adaptive_cleared,
        }

    def __call__(self, bm, args: Sequence[int] = ()):
        function = self.plan.functions[0]
        if len(args) != len(function.params):
            raise IRError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        st = _BatchFrame()
        st.counters = bm.cell_counters
        st.mem_loads = bm.load_ports
        st.mem_stores = bm.store_ports
        st.mem_prefetches = bm.prefetch_ports
        st.sp_load = bm.space.load
        st.sp_store = bm.space.store
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
        max_instructions = bm.config.max_instructions
        st.max_instructions = max_instructions
        cd = bm.bindings

        R = [0] * self._register_count
        for slot, value in enumerate(args):
            R[slot] = int(value)

        blocks = self._blocks
        superblocks = list(self._superblocks)
        sb_calls = [0] * len(superblocks)
        sb_iters = [0] * len(superblocks)
        declined = 0
        bi = self._entry
        try:
            while True:
                if st.retired > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"{function.name}: exceeded {max_instructions} "
                        f"instructions"
                    )
                sb = superblocks[bi]
                if sb is not None:
                    before = st.retired
                    nxt = sb.run(R, st, cd, sb.ptables)
                    if nxt >= 0:
                        calls = sb_calls[bi] + 1
                        sb_calls[bi] = calls
                        sb_iters[bi] += (
                            st.retired - before
                        ) // sb.bound_retired
                        if calls == _ADAPT_WARMUP and (
                            sb_iters[bi] < calls * _ADAPT_MIN_ITERS
                        ):
                            superblocks[bi] = None
                        bi = nxt
                        continue
                    declined += 1
                st.next = _FELL_THROUGH
                for op in blocks[bi]:
                    op(R, st)
                nxt = st.next
                if nxt < 0:
                    if nxt == _RETURNED:
                        return st.value
                    raise IRError(
                        f"block {self._block_names[bi]} fell through "
                        f"without terminator"
                    )
                bi = nxt
        finally:
            self.bulk_calls += sum(sb_calls)
            self.bulk_iters += sum(sb_iters)
            self.guard_declines += declined
            self.adaptive_cleared += sum(
                1
                for original, current in zip(self._superblocks, superblocks)
                if original is not None and current is None
            )


def compile_batch_turbo(
    plan: _FunctionPlan,
    plans: dict,
    config: MachineConfig,
    cell_configs: Sequence[MachineConfig],
) -> BatchTurboCompiledFunction:
    """Compile one aligned function plan for all cells: the per-block
    batch chains plus a batch superblock per fusable loop nest
    (verdicts from the shared :mod:`repro.machine.fusion` analysis on
    cell 0, exact for every cell because alignment pins opcode shape
    and divergent WORK amounts are banned)."""
    compiler = _BatchBlockCompiler(plan, plans, config)
    blocks = tuple(
        compiler.compile_block(aligned)
        for aligned in zip(*(list(f.blocks) for f in plan.functions))
    )
    function0 = plan.functions[0]
    superblocks: list = [None] * len(blocks)
    for unit in discover_units(function0).values():
        superblocks[compiler.block_index[unit.header]] = (
            _build_batch_superblock(
                plan, config, compiler, unit, cell_configs
            )
        )
    return BatchTurboCompiledFunction(
        plan,
        blocks,
        tuple(block.name for block in function0.blocks),
        compiler.block_index[function0.entry.name],
        len(compiler.slots),
        compiler.has_divergence,
        tuple(superblocks),
    )

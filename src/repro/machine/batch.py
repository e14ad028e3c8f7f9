"""Batched multi-config execution: N sweep cells, one instruction stream.

The production traffic shape for every headline figure is "same
workload, many configs" — distance sweeps, scheme ablations, cache-size
ablations.  Run sequentially, each cell re-decodes and re-dispatches
the same instruction stream.  This engine runs all cells in one pass:

* **shared front-end** — the module is compiled once, by the same
  compilers a sequential run uses, at N cells: every hot loop nest
  becomes one fused stepper that runs all cells per iteration
  (:mod:`repro.machine.batchturbo`), and the remaining blocks go
  through the one per-block compiler and dispatch loop
  (:mod:`repro.machine.blockengine`).  Uniform instructions (identical
  operands across cells) execute exactly once, on a single shared
  register file; this module supplies the alignment and divergence
  analysis that compiler needs and its N-cell op factories
  (:data:`N_CELLS`);
* **per-cell back-end** — every memory operation visits each live
  cell's private L1/L2/LLC+MSHR state (:class:`repro.mem.batch.CellState`)
  at that cell's own clock, so per-cell cycles and cache counters are
  bit-identical to N independent sequential runs.  Cells with equal
  configs form a class whose first cell, the *leader*, is live; the
  others run as *shadows* (:meth:`BatchMachine.run_shadowed`, what
  :func:`run_batch` uses).  A shadow runs only the functional part of
  each op — divergent ALU and divergent functional loads — and at every
  divergent-address load or prefetch compares its line (and, for a
  prefetch, whether the address is mapped) with the one its leader
  recorded for the same dynamic op; uniform addresses need no check.
  The first mismatch (:class:`ShadowMismatch`) voids the speculation
  and the batch re-runs plain from a pristine address space with the
  same compiled code.  A shadow that never mismatches gets a copy of
  its leader's counters: a hierarchy's next state depends only on each
  op's kind, line, mapped status, ``pc`` and ``now``, so by induction
  its clock equals the leader's;
* **divergence handling** — a static alignment + divergence analysis
  classifies every register as uniform or divergent (cells differing
  only in constant immediates, e.g. per-cell prefetch distances, yield
  divergent registers).  Divergent values may feed ALU ops, SELECTs,
  PHIs, load/prefetch addresses and return values; anything that could
  split *control flow or the value stream* across cells (a divergent
  branch condition, store, call argument, or WORK amount) rejects the
  batch, and :func:`run_batch` falls back to per-cell sequential
  replay — the same observation-point discipline the turbo tier's
  guards apply per block.

Bit-identity argument: control flow, retired/load/store/taken counts
and all loaded values are uniform by construction; cost folding is the
sequential engine's own — one compiler folds costs at every cell count
(all costs are integers, materialized at the same observers) — and
each cell's clock advances through its own memory system in program
order.  Profiling and tracing are not
supported in batched mode — :func:`run_batch` is for measurement
sweeps; the qa oracle compares it against unprofiled sequential runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.ir.nodes import IRError, Module
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.blockengine import (
    _RETURNED,
    _UNIFORM_KINDS,
    CellOps,
    _aligned_phis,
    _aligned_rest,
    _edge_copies,
    _FunctionPlan,
    _uniform_spec,
)
from repro.machine.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.mem.batch import CellState, shared_space


class BatchDivergence(Exception):
    """The cells cannot share one front-end; replay them sequentially.

    ``code`` is a stable machine-readable label for the fallback
    reason; the sweep service counts them as ``batch.fallback.<code>``
    metrics and the CLI surfaces them in the sweep source column.
    """

    def __init__(self, message: str, code: str = "divergent") -> None:
        super().__init__(message)
        self.code = code


class ShadowMismatch(Exception):
    """A shadow cell's memory op touched a different line (or mapped
    status) than its leader's: the speculation is void.

    Raised by the generated steppers and the per-block chains;
    :meth:`BatchMachine.run_shadowed` catches it and re-runs the batch
    plain.  ``pc`` names the op that diverged.
    """

    def __init__(self, pc: int) -> None:
        super().__init__(f"shadow line mismatch at pc {pc:#x}")
        self.pc = pc


#: The closed set of fallback reason codes a BatchDivergence may carry
#: (plus the synthetic "single-cell" run_batch assigns without raising).
FALLBACK_CODES = (
    "alignment",
    "divergent-branch",
    "divergent-store",
    "divergent-call",
    "divergent-work",
    "cost-model",
    "space-mismatch",
    "single-cell",
)


#: One sweep cell: what a sequential run would hand to Machine.
@dataclass
class BatchCell:
    module: Module
    space: AddressSpace
    config: MachineConfig


# ----------------------------------------------------------------------
# Uniform-value evaluators for the divergent/broadcast paths.  The hot
# uniform path reuses blockengine's specialized factories; these generic
# per-cell forms only run on the (rare) divergent instructions.
# ----------------------------------------------------------------------
def _build_alu_funcs() -> dict:
    funcs: dict = {
        Opcode.GEP: lambda b, i, s: b + i * s,
        Opcode.CONST: lambda a: a,
        Opcode.MOV: lambda a: a,
        Opcode.SELECT: lambda c, a, b: a if c else b,
    }
    for opcode, expr in BINOP_EXPR.items():
        body = expr.format(a="a", b="b")
        source = f"def _f(a, b):\n    return {body}\n"
        scope: dict = {}
        exec(source, scope)  # noqa: S102 - trusted templates
        funcs[opcode] = scope["_f"]
    return funcs


_ALU_FUNCS = _build_alu_funcs()


def _getter(spec) -> Callable:
    """spec -> ``g(R, Di, i)`` reading the operand for cell ``i``."""
    kind, value = spec
    if kind == "R":

        def g(R, Di, i, s=value):
            return R[s]

    elif kind == "D":

        def g(R, Di, i, s=value):
            return Di[s]

    elif kind == "C":

        def g(R, Di, i, c=value):
            return c

    else:

        def g(R, Di, i, cs=value):
            return cs[i]

    return g


# ----------------------------------------------------------------------
# Alignment + divergence analysis.
# ----------------------------------------------------------------------
def _operand_divergent(values, divergent: set) -> bool:
    first = values[0]
    if type(first) is str:
        return first in divergent
    return any(v != first for v in values)


def _check_alignment(plan: _FunctionPlan) -> None:
    """Structural alignment: same shape everywhere; operands may differ
    only by being different integer immediates at the same position."""
    first = plan.functions[0]
    for function in plan.functions[1:]:
        if function.params != first.params:
            raise BatchDivergence(
                f"{plan.name}: parameter lists differ", "alignment"
            )
        if len(function.blocks) != len(first.blocks):
            raise BatchDivergence(
                f"{plan.name}: block counts differ", "alignment"
            )
    blocks_per_cell = [list(f.blocks) for f in plan.functions]
    for position, aligned in enumerate(zip(*blocks_per_cell)):
        base = aligned[0]
        for block in aligned[1:]:
            if block.name != base.name:
                raise BatchDivergence(
                    f"{plan.name}: block order differs at {position}"
                    f" ({block.name!r} vs {base.name!r})",
                    "alignment",
                )
            if len(block.instructions) != len(base.instructions):
                raise BatchDivergence(
                    f"{plan.name}/{base.name}: instruction counts differ",
                    "alignment",
                )
        for insts in zip(*(b.instructions for b in aligned)):
            inst = insts[0]
            for other in insts[1:]:
                if (
                    other.op is not inst.op
                    or other.dst != inst.dst
                    or other.targets != inst.targets
                    or other.pc != inst.pc
                    or len(other.args) != len(inst.args)
                ):
                    raise BatchDivergence(
                        f"{plan.name}/{base.name}: instruction at pc "
                        f"{inst.pc:#x} differs structurally",
                        "alignment",
                    )
            for position_args in zip(*(i.args for i in insts)):
                head = position_args[0]
                for value in position_args[1:]:
                    if type(value) is str or type(head) is str:
                        if value != head:
                            raise BatchDivergence(
                                f"{plan.name}/{base.name}: register "
                                f"operands differ at pc {inst.pc:#x}",
                                "alignment",
                            )
            if inst.op is Opcode.PHI:
                labels = [tuple(p for p, _ in i.incomings) for i in insts]
                if any(lab != labels[0] for lab in labels[1:]):
                    raise BatchDivergence(
                        f"{plan.name}/{base.name}: phi predecessors differ",
                        "alignment",
                    )
                for values in zip(
                    *(tuple(v for _, v in i.incomings) for i in insts)
                ):
                    head = values[0]
                    for value in values[1:]:
                        if type(value) is str or type(head) is str:
                            if value != head:
                                raise BatchDivergence(
                                    f"{plan.name}/{base.name}: phi "
                                    f"register incomings differ",
                                    "alignment",
                                )


def _propagate(plan: _FunctionPlan, plans: dict) -> bool:
    """One fixpoint sweep; returns True if any fact changed."""
    divergent = plan.divergent
    changed = False
    for blocks in zip(*(list(f.blocks) for f in plan.functions)):
        for phis in _aligned_phis(blocks):
            dst = phis[0].dst
            if dst in divergent:
                continue
            for values in zip(*(tuple(v for _, v in p.incomings) for p in phis)):
                if _operand_divergent(values, divergent):
                    divergent.add(dst)
                    changed = True
                    break
        for insts in _aligned_rest(blocks):
            inst = insts[0]
            arg_divergent = any(
                _operand_divergent([i.args[j] for i in insts], divergent)
                for j in range(len(inst.args))
            )
            if inst.op is Opcode.RET:
                if arg_divergent and not plan.ret_divergent:
                    plan.ret_divergent = True
                    changed = True
                continue
            if inst.op is Opcode.CALL:
                callee = plans.get(inst.targets[0])
                if callee is not None and callee.ret_divergent:
                    arg_divergent = True  # dst inherits callee divergence
            dst = inst.dst
            if dst is not None and arg_divergent and dst not in divergent:
                divergent.add(dst)
                changed = True
    return changed


def _check_banned(plan: _FunctionPlan) -> None:
    """Reject anything that could split control flow or the value
    stream across cells; the caller falls back to sequential replay."""
    divergent = plan.divergent
    for blocks in zip(*(list(f.blocks) for f in plan.functions)):
        name = blocks[0].name
        for insts in _aligned_rest(blocks):
            inst = insts[0]
            op = inst.op

            def diverges(j):
                return _operand_divergent(
                    [i.args[j] for i in insts], divergent
                )

            if op is Opcode.BR and diverges(0):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent branch condition",
                    "divergent-branch",
                )
            if op is Opcode.STORE and (diverges(0) or diverges(1)):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent store",
                    "divergent-store",
                )
            if op is Opcode.CALL and any(
                diverges(j) for j in range(len(inst.args))
            ):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent call argument",
                    "divergent-call",
                )
            if op is Opcode.WORK and diverges(0):
                raise BatchDivergence(
                    f"{plan.name}/{name}: divergent WORK amount",
                    "divergent-work",
                )


def _aligned_plans(modules: Sequence[Module]) -> dict:
    """``{name: _FunctionPlan}`` once every function aligns across
    cells; raises :class:`BatchDivergence` (code ``alignment``)."""
    names = list(modules[0].functions)
    for module in modules[1:]:
        if list(module.functions) != names:
            raise BatchDivergence(
                "function sets differ across cells", "alignment"
            )
    plans = {
        name: _FunctionPlan(name, [m.function(name) for m in modules])
        for name in names
    }
    for plan in plans.values():
        _check_alignment(plan)
    return plans


def aligned_subsets(modules: Sequence[Module]) -> list:
    """Partition cell positions into classes of mutually aligned
    modules, in first-seen order.  Alignment is structural equality up
    to integer immediates, an equivalence, so comparing each module
    with one representative per class is exact."""
    classes: list = []
    for position, module in enumerate(modules):
        for members in classes:
            try:
                _aligned_plans([modules[members[0]], module])
            except BatchDivergence:
                continue
            members.append(position)
            break
        else:
            classes.append([position])
    return classes


def analyze_modules(modules: Sequence[Module]) -> dict:
    """Align + analyze every function across cells.

    Returns ``{name: _FunctionPlan}``; raises :class:`BatchDivergence`
    when the cells cannot share one front-end.
    """
    plans = _aligned_plans(modules)
    changed = True
    while changed:
        changed = False
        for plan in plans.values():
            if _propagate(plan, plans):
                changed = True
    for plan in plans.values():
        _check_banned(plan)
    return plans


# ----------------------------------------------------------------------
# The batched frame + the N-cell op factories.  Uniform ops come
# straight from blockengine (they only touch R); everything below
# handles the per-cell paths, with the signatures of blockengine's
# CellOps.
# ----------------------------------------------------------------------
class _BatchFrame:
    """Per-invocation state: uniform tallies + per-cell clocks/overlays."""

    __slots__ = (
        "cycles",
        "retired",
        "loads",
        "stores",
        "taken",
        "next",
        "value",
        "D",
        "mem_loads",
        "mem_stores",
        "mem_prefetches",
        "sp_load",
        "sp_store",
        "sp_mapped",
        "live",
        "shadows",
        "lines",
        "invoke",
        "counters",
        "max_instructions",
    )


def _batch_alu_op(dst: int, opcode: Opcode, specs: list):
    """Generic per-cell ALU/move evaluation into the divergent overlay."""
    fn = _ALU_FUNCS[opcode]
    getters = tuple(_getter(spec) for spec in specs)
    if len(getters) == 1:
        (g0,) = getters

        def op(R, st, dst=dst, fn=fn, g0=g0):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i))

    elif len(getters) == 2:
        g0, g1 = getters

        def op(R, st, dst=dst, fn=fn, g0=g0, g1=g1):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i), g1(R, Di, i))

    else:
        g0, g1, g2 = getters

        def op(R, st, dst=dst, fn=fn, g0=g0, g1=g1, g2=g2):
            for i, Di in enumerate(st.D):
                Di[dst] = fn(g0(R, Di, i), g1(R, Di, i), g2(R, Di, i))

    return op


def _batch_load_op(dst: int, aspec, dst_divergent: bool, pc: int, pending: int):
    kind = aspec[0]
    if kind in _UNIFORM_KINDS:
        am, av = _uniform_spec(aspec)
        if dst_divergent:

            def op(R, st, dst=dst, am=am, av=av, pc=pc, k=pending):
                addr = R[av] if am else av
                cycles = st.cycles
                mem_loads = st.mem_loads
                for i in st.live:
                    now = cycles[i] + k
                    cycles[i] = now + mem_loads[i](addr, now, pc)
                value = st.sp_load(addr)
                for Di in st.D:
                    Di[dst] = value

        else:

            def op(R, st, dst=dst, am=am, av=av, pc=pc, k=pending):
                addr = R[av] if am else av
                cycles = st.cycles
                mem_loads = st.mem_loads
                for i in st.live:
                    now = cycles[i] + k
                    cycles[i] = now + mem_loads[i](addr, now, pc)
                R[dst] = st.sp_load(addr)

    else:  # divergent address -> divergent value
        g = _getter(aspec)

        def op(R, st, dst=dst, g=g, pc=pc, k=pending):
            cycles = st.cycles
            D = st.D
            sp_load = st.sp_load
            lines = st.lines
            mem_loads = st.mem_loads
            for i in st.live:
                Di = D[i]
                addr = g(R, Di, i)
                lines[i] = addr >> 6
                now = cycles[i] + k
                cycles[i] = now + mem_loads[i](addr, now, pc)
                Di[dst] = sp_load(addr)
            for leader, i in st.shadows:
                Di = D[i]
                addr = g(R, Di, i)
                if addr >> 6 != lines[leader]:
                    raise ShadowMismatch(pc)
                Di[dst] = sp_load(addr)

    return op


def _batch_store_op(aspec, vspec, pc: int, pending: int):
    am, av = aspec
    vm, vv = vspec

    def op(R, st, am=am, av=av, vm=vm, vv=vv, pc=pc, k=pending):
        addr = R[av] if am else av
        cycles = st.cycles
        mem_stores = st.mem_stores
        for i in st.live:
            now = cycles[i] + k
            cycles[i] = now + mem_stores[i](addr, now, pc)
        st.sp_store(addr, R[vv] if vm else vv)

    return op


def _prefetch_key(addr: int, is_mapped) -> int:
    """What a prefetch's timing depends on beyond ``pc`` and ``now``:
    its line and whether ``addr`` is mapped, packed into one int."""
    return (addr >> 6 << 1) | (not is_mapped(addr))


def _batch_prefetch_op(aspec, pc: int, pending: int):
    if aspec[0] in _UNIFORM_KINDS:
        # Uniform address: never touch the divergent overlay — it may
        # be empty (``st.D == ()``) when the whole function is uniform,
        # e.g. a source program with its own prefetch instructions.
        am, av = _uniform_spec(aspec)

        def op(R, st, am=am, av=av, pc=pc, k=pending):
            addr = R[av] if am else av
            cycles = st.cycles
            mem_prefetches = st.mem_prefetches
            for i in st.live:
                now = cycles[i] + k
                cycles[i] = now
                mem_prefetches[i](addr, now, pc)

        return op
    g = _getter(aspec)

    def op(R, st, g=g, pc=pc, k=pending):
        cycles = st.cycles
        D = st.D
        shadows = st.shadows
        lines = st.lines
        is_mapped = st.sp_mapped
        mem_prefetches = st.mem_prefetches
        for i in st.live:
            now = cycles[i] + k
            cycles[i] = now
            addr = g(R, D[i], i)
            if shadows:
                lines[i] = _prefetch_key(addr, is_mapped)
            mem_prefetches[i](addr, now, pc)
        for leader, i in shadows:
            if _prefetch_key(g(R, D[i], i), is_mapped) != lines[leader]:
                raise ShadowMismatch(pc)

    return op


def _batch_work_op(slot: int, pending: int, work_cpi: int):
    def op(R, st, a=slot, k=pending, cpi=work_cpi):
        add = k + R[a] * cpi
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += add
        st.retired += R[a]

    return op


def _batch_call_op(
    dst: int, callee: str, argspec: tuple, pc: int, pending: int,
    ret_divergent: bool,
):
    def op(
        R, st, dst=dst, callee=callee, argspec=argspec, pc=pc, k=pending,
        ret_div=ret_divergent,
    ):
        cycles = st.cycles
        counters = st.counters
        for i in range(len(cycles)):
            cycles[i] += k
            counters[i].cycles = cycles[i]
        args = tuple((R[v] if m else v) for m, v in argspec)
        result = st.invoke(callee, args, pc)
        for i in range(len(cycles)):
            cycles[i] = int(counters[i].cycles)
        if ret_div:
            for i, Di in enumerate(st.D):
                Di[dst] = result[i]
        else:
            R[dst] = result

    return op


def _batch_copies(upairs, dpairs):
    """Parallel-copy closure covering uniform and divergent PHI dsts.

    Divergent reads happen before the uniform copy mutates R (parallel
    semantics); divergent writes only touch the overlay, which no
    uniform source reads.
    """
    ucopy = _edge_copies(upairs)
    if not dpairs:
        if ucopy is None:
            return None

        def copies(R, st, ucopy=ucopy):
            ucopy(R)

        return copies
    dpairs = tuple((slot, _getter(spec)) for slot, spec in dpairs)

    def copies(R, st, ucopy=ucopy, dpairs=dpairs):
        for i, Di in enumerate(st.D):
            values = [g(R, Di, i) for _, g in dpairs]
            for (d, _), value in zip(dpairs, values):
                Di[d] = value
        if ucopy is not None:
            ucopy(R)

    return copies


def _batch_jmp_op(
    pc, target_pc, target_index, copies, pending, retired, nloads, nstores
):
    def op(
        R, st, ti=target_index, copies=copies, k=pending, rt=retired,
        nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        st.taken += 1
        if copies is not None:
            copies(R, st)
        st.next = ti

    return op


def _batch_br_op(
    cspec, pc, then_pc, then_index, then_copies, else_index, else_copies,
    pending, retired, nloads, nstores,
):
    cm, cv = cspec

    def op(
        R, st, cm=cm, cv=cv, ti=then_index, tc=then_copies, ei=else_index,
        ec=else_copies, k=pending, rt=retired, nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        if R[cv] if cm else cv:
            st.taken += 1
            if tc is not None:
                tc(R, st)
            st.next = ti
        else:
            if ec is not None:
                ec(R, st)
            st.next = ei

    return op


def _batch_ret_op(spec, ret_divergent, pending, retired, nloads, nstores):
    getter = _getter(spec) if ret_divergent else None
    am, av = _uniform_spec(spec) if not ret_divergent else (False, 0)

    def op(
        R, st, g=getter, ret_div=ret_divergent, am=am, av=av, k=pending,
        rt=retired, nl=nloads, ns=nstores,
    ):
        cycles = st.cycles
        for i in range(len(cycles)):
            cycles[i] += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        retired_total = st.retired
        loads_total = st.loads
        stores_total = st.stores
        taken_total = st.taken
        for i, counters in enumerate(st.counters):
            counters.cycles = cycles[i]
            counters.instructions += retired_total
            counters.loads += loads_total
            counters.stores += stores_total
            counters.taken_branches += taken_total
        if ret_div:
            D = st.D
            st.value = [g(R, D[i], i) for i in range(len(cycles))]
        else:
            st.value = R[av] if am else av
        st.next = _RETURNED

    return op


#: The N-cell factory set the block compiler
#: (:class:`repro.machine.blockengine._BlockCompiler`) takes.
N_CELLS = CellOps(
    load=_batch_load_op,
    store=_batch_store_op,
    prefetch=_batch_prefetch_op,
    work=_batch_work_op,
    call=_batch_call_op,
    jmp=_batch_jmp_op,
    br=_batch_br_op,
    ret=_batch_ret_op,
    copies=_batch_copies,
    alu=_batch_alu_op,
)


# ----------------------------------------------------------------------
# The batch machine + the public entry point.
# ----------------------------------------------------------------------
_COST_FIELDS = (
    "alu_cost", "branch_cost", "prefetch_cost", "work_cpi",
    "max_instructions",
)


class BatchMachine:
    """N simulated processes sharing one front-end.

    Raises :class:`BatchDivergence` at construction when the cells
    cannot be batched; never at run time (the analysis is static).
    Every function compiles to the per-block batch chains plus a fused
    superblock per hot loop nest (:mod:`repro.machine.batchturbo`),
    whatever engine the cells' configs name.

    Cells with equal configs form a *class*; its first cell is the
    class leader.  :meth:`run` simulates every cell.
    :meth:`run_shadowed` simulates only the leaders' timing and runs
    the other cells as shadows (see the module docstring).
    """

    def __init__(self, cells: Sequence[BatchCell]) -> None:
        if not cells:
            raise ValueError("batch needs at least one cell")
        self.ncells = len(cells)
        self.config = cells[0].config
        for index, cell in enumerate(cells):
            for field_name in _COST_FIELDS:
                if getattr(cell.config, field_name) != getattr(
                    self.config, field_name
                ):
                    raise BatchDivergence(
                        f"cell {index}: {field_name} differs across cells",
                        "cost-model",
                    )
        modules = []
        for cell in cells:
            if not cell.module.finalized:
                cell.module.finalize()
            modules.append(cell.module)
        try:
            space = shared_space([cell.space for cell in cells])
        except ValueError as error:
            raise BatchDivergence(str(error), "space-mismatch") from error
        self.plans = analyze_modules(modules)
        self.cell_configs = [cell.config for cell in cells]
        leaders: dict = {}
        leader_of = [
            leaders.setdefault(config, index)
            for index, config in enumerate(self.cell_configs)
        ]
        #: ``(leader, shadow)`` cell pairs, one per non-leader cell.
        self.classes = tuple(
            (leader, index)
            for index, leader in enumerate(leader_of)
            if leader != index
        )
        self._spaces = [cell.space for cell in cells]
        self._compiled: dict = {}
        self._ran = False
        self.shadow_aborts = 0
        self._bind_cells(space)
        self._bind_ports(())

    def _bind_cells(self, space: AddressSpace) -> None:
        """Fresh per-cell hierarchies and counters over ``space``."""
        self.space = space
        self.cells = [CellState(config, space) for config in self.cell_configs]
        self.cell_counters = [cell.counters for cell in self.cells]
        self.load_ports = [cell.load for cell in self.cells]
        self.store_ports = [cell.store for cell in self.cells]
        self.prefetch_ports = [cell.prefetch for cell in self.cells]

    def _bind_ports(self, shadows: tuple) -> None:
        """Bind the timing ports of every cell that is not a shadow in
        ``shadows`` (``(leader, shadow)`` pairs)."""
        # Imported here: batchturbo builds on this module's analysis
        # and per-cell factories, so a module-level import would cycle.
        from repro.machine.batchturbo import CellBindings

        self.shadows = shadows
        shadowed = {shadow for _, shadow in shadows}
        self.live = tuple(i for i in range(self.ncells) if i not in shadowed)
        self.bindings = CellBindings(self.cells, self.space, self.live, shadows)

    # ------------------------------------------------------------------
    def _compile(self, name: str):
        compiled = self._compiled.get(name)
        if compiled is None:
            from repro.machine.batchturbo import compile_batch_turbo

            compiled = compile_batch_turbo(
                self.plans[name], self.plans, self.config, self.cell_configs,
                N_CELLS,
            )
            self._compiled[name] = compiled
        return compiled

    def _invoke(self, callee: str, args: Sequence[int], from_pc: int):
        """Batched CALL trampoline (mirrors ``Machine._invoke``; the LBR
        push is a no-op because batched runs never profile)."""
        if callee not in self.plans:
            raise IRError(f"call to unknown function {callee!r}")
        for counters in self.cell_counters:
            counters.taken_branches += 1
        return self._compile(callee)(self, args)

    def run(
        self, function: str = "main", args: Sequence[int] = ()
    ) -> list:
        """Execute ``function`` across all cells; one
        :class:`~repro.machine.machine.RunResult` per cell."""
        # Imported here: the sequential engine compiles through
        # batchturbo, which builds on this module.
        from repro.machine.machine import RunResult

        if function not in self.plans:
            raise IRError(f"module has no function {function!r}")
        self._ran = True
        before = [counters.copy() for counters in self.cell_counters]
        value = self._compile(function)(self, args)
        values = (
            value if isinstance(value, list) else [value] * self.ncells
        )
        results = [
            RunResult(value=v, counters=after - b)
            for v, after, b in zip(values, self.cell_counters, before)
        ]
        for leader, shadow in self.shadows:
            results[shadow] = RunResult(
                value=values[shadow], counters=results[leader].counters.copy()
            )
        return results

    def run_shadowed(
        self, function: str = "main", args: Sequence[int] = ()
    ) -> list:
        """:meth:`run`, with every non-leader cell run as a shadow.

        Exact because a hierarchy's next state depends only on each
        op's kind, line, mapped status, ``pc`` and ``now``; the ops run
        in the same order in every cell, uniform addresses are equal,
        and every divergent address is checked against the leader's, so
        by induction ``now`` is equal too and a shadow's counters are
        its leader's.  On the first mismatch (:class:`ShadowMismatch`)
        the batch runs again plain, on fresh hierarchies over a pristine
        address space: an untouched cell's own space, or a clone taken
        up front.  Only a machine's first run can shadow; later calls
        run plain.
        """
        if self._ran or not self.classes:
            return self.run(function, args)
        pristine = next(
            (space for space in self._spaces if space is not self.space),
            None,
        )
        if pristine is None:
            pristine = self.space.clone()
        self._bind_ports(self.classes)
        try:
            return self.run(function, args)
        except ShadowMismatch:
            self.shadow_aborts += 1
            self._bind_cells(pristine)
            self._bind_ports(())
            return self.run(function, args)


@dataclass
class BatchOutcome:
    """Per-cell results + whether the batched fast path was used.

    ``batched`` is True when any cell ran in the batched tier;
    ``replayed`` lists the positions of the cells that ran one by one
    (all of them when ``batched`` is False).  ``reason_code`` is the
    stable :data:`FALLBACK_CODES` label behind a human-readable
    ``reason`` for those replays.  ``shadowed`` counts the cells whose
    timing was their class leader's, and ``shadow_aborts`` the batches
    whose shadows diverged and that ran again plain.
    """

    results: list
    batched: bool
    reason: Optional[str] = None
    reason_code: Optional[str] = None
    replayed: tuple = ()
    shadowed: int = 0
    shadow_aborts: int = 0


def run_batch(
    cells: Sequence[BatchCell],
    function: str = "main",
    args: Sequence[int] = (),
    tier: Optional[str] = None,
) -> BatchOutcome:
    """Run every cell, batched when the cells align, else sequentially.

    The outcome's ``results`` are bit-identical either way; ``batched``,
    ``replayed`` and ``reason``/``reason_code`` report which path
    executed (the qa oracle asserts the identity, the sweep service
    counts the fallback codes as ``batch.fallback.<code>`` metrics).
    When the cells do not all align, each aligned subset of two or more
    cells still runs batched and only the rest replay.  Every batch
    runs its same-config cells as shadows
    (:meth:`BatchMachine.run_shadowed`).  There is one batched tier,
    so ``tier`` must be None; it stays in the signature because
    wrappers pass it positionally (``perfbench/tracer.py`` does), and a
    retired tier name gets a targeted error instead of a ``TypeError``.
    """
    if tier is not None:
        raise ValueError(
            f"the tier= argument was removed (got {tier!r}): every "
            "batched run uses the fused superblock tier; drop tier="
        )
    cells = list(cells)
    outcome = BatchOutcome([None] * len(cells), False)
    replayed: list = []
    subsets = [list(range(len(cells)))]
    while subsets:
        subset = subsets.pop(0)
        try:
            if len(subset) < 2:
                raise BatchDivergence("single cell", "single-cell")
            machine = BatchMachine([cells[i] for i in subset])
        except BatchDivergence as error:
            if outcome.reason is None:
                # The first attempt covers every cell: its divergence
                # is why cells replay, and a misalignment splits them.
                outcome.reason, outcome.reason_code = str(error), error.code
                if error.code == "alignment":
                    subsets = aligned_subsets([cell.module for cell in cells])
                    continue
            replayed += subset
            continue
        for position, result in zip(
            subset, machine.run_shadowed(function, args)
        ):
            outcome.results[position] = result
        outcome.batched = True
        outcome.shadowed += len(machine.shadows)
        outcome.shadow_aborts += machine.shadow_aborts
    outcome.replayed = tuple(sorted(replayed))
    from repro.machine.machine import Machine

    for position in outcome.replayed:
        cell = cells[position]
        outcome.results[position] = Machine(
            cell.module, cell.space, config=cell.config
        ).run(function, args)
    return outcome

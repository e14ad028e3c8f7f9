"""Block engine: the one per-block compiler and the one dispatch loop,
for a single run and for N batched sweep cells.

The reference interpreter pays, for every executed instruction, an
opcode if-chain plus one ``resolve()`` call per operand (a function
call, a ``type`` test, and a dict lookup).  This engine performs all of
that work **once per function**: each basic block is compiled to a flat
list of specialized closures with operands already bound — virtual
registers become integer slots in a flat register file, immediates
become closure constants, and the opcode dispatch disappears entirely.
It is the same profile-guided idea the paper applies to hot loads
(specialize the common case, keep the general path for the rest)
applied to our own hot loop.

Relationship to the other engines:

* One compiler serves every compiled run.  :class:`_BlockCompiler`
  walks a function's blocks aligned across the cells of a run — a
  1-tuple per instruction for a sequential run, N-tuples for a batched
  sweep (:mod:`repro.machine.batch` aligns the cells and supplies the
  per-cell op factories).  The cell count is a fact of the call: uniform
  ALU work always takes this module's specialized factories, and the
  ops whose closures differ by cell count take the :class:`CellOps` set
  that matches it.  :class:`FusedDispatch` holds the one dispatch loop
  both compiled forms run.
* ``turbo`` (the default ``fast`` name runs it too) compiles these
  chains first, then fuses hot loop nests into generated superblock
  steppers (:mod:`repro.machine.batchturbo`, the one fused-nest
  generator) that plug into the dispatch loop's superblock slots.
  Blocks outside a fused loop, and every block of a traced run, take
  the per-block path; batched sweeps do the same at N cells.
* ``reference`` (``repro.machine.interpreter``) is the obviously-correct
  baseline.  This engine must match it bit-for-bit on cycles, PMU
  counters, LBR contents and PEBS sample sets — asserted across the
  whole workload registry by the differential tests.
* ``translate`` (``repro.machine.translator``) generates Python source
  and ``exec``\\ s one function object per IR function.

Cost folding follows the translator exactly, and is written once for
both cell counts: runs of constant-cost ALU instructions accumulate a
pending cycle count that is materialized at the next *observer* (memory
op, CALL, dynamic WORK, or terminator), and per-block retired/load/store
counts are folded into the terminator.  Nothing observes ``cycle`` or
the counters between those points, so the folded schedule is
bit-identical to the interpreter's per-instruction accumulation (all
costs are integers).

Demand loads and stores are issued through
:meth:`MemorySystem.load_port` / :meth:`store_port`, which hand out the
L1 front fast path (``repro.mem.fastpath``) when no lifecycle trace is
attached and the plain slow-path methods when one is.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.config import MachineConfig
from repro.machine.context import ExecutionContext
from repro.machine.fusion import ALU_OPS
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.sampler import NEVER

#: Sentinels stored in ``_Frame.next`` by terminator closures.
_RETURNED = -1
_FELL_THROUGH = -2

#: Adaptive bulk-stepping bypass: after this many bulk calls to one
#: superblock, a run whose average completed iterations per call is
#: below _ADAPT_MIN_ITERS stops bulk-stepping that loop (the per-call
#: prologue outweighs the fusion win on 1-2-trip loops).
_ADAPT_WARMUP = 64
_ADAPT_MIN_ITERS = 2


class _Frame:
    """Mutable per-run state shared by the op closures.

    Slots keep attribute access on the hot path as cheap as Python
    allows short of code generation; everything an op can touch lives
    here so closures need only their compile-time constants plus this
    one object.
    """

    __slots__ = (
        "cycle",
        "retired",
        "loads",
        "stores",
        "taken",
        "next",
        "value",
        "next_sample",
        "max_instructions",
        "sampler",
        "take",
        "pebs_threshold",
        "record_load",
        "mem_load",
        "mem_store",
        "mem_prefetch",
        "sp_load",
        "sp_store",
        "lbr_push",
        "invoke",
        "counters",
    )


# ----------------------------------------------------------------------
# Specialized op factories.  Each returns a closure ``op(R, st)`` with
# its operands pre-bound as default arguments (LOAD_FAST, not cell
# lookups).  ``R`` is the flat register file, ``st`` the _Frame.
# ----------------------------------------------------------------------
def _build_binop_factories() -> dict:
    """Generate, once at import, the 4 operand-shape variants of every
    binary opcode from the shared ``BINOP_EXPR`` templates."""
    factories: dict = {}
    for opcode, expr in BINOP_EXPR.items():
        variants = {}
        for a_is_reg in (False, True):
            for b_is_reg in (False, True):
                body = expr.format(
                    a="R[a]" if a_is_reg else "a",
                    b="R[b]" if b_is_reg else "b",
                )
                name = f"_factory_{opcode.name}_{int(a_is_reg)}{int(b_is_reg)}"
                source = (
                    f"def {name}(dst, a, b):\n"
                    f"    def op(R, st, dst=dst, a=a, b=b):\n"
                    f"        R[dst] = {body}\n"
                    f"    return op\n"
                )
                namespace: dict = {}
                exec(source, namespace)  # noqa: S102 - trusted templates
                variants[(a_is_reg, b_is_reg)] = namespace[name]
        factories[opcode] = variants
    return factories


_BINOP_FACTORIES = _build_binop_factories()


def _const_op(dst: int, value: int):
    def op(R, st, dst=dst, value=value):
        R[dst] = value

    return op


def _mov_op(dst: int, aspec):
    a_is_reg, a = aspec
    if a_is_reg:

        def op(R, st, dst=dst, a=a):
            R[dst] = R[a]

    else:

        def op(R, st, dst=dst, a=a):
            R[dst] = a

    return op


def _select_op(dst: int, cspec, aspec, bspec):
    cm, cv = cspec
    am, av = aspec
    bm, bv = bspec

    def op(R, st, dst=dst, cm=cm, cv=cv, am=am, av=av, bm=bm, bv=bv):
        if R[cv] if cm else cv:
            R[dst] = R[av] if am else av
        else:
            R[dst] = R[bv] if bm else bv

    return op


def _gep_op(dst: int, basespec, indexspec, scale: int):
    bm, bv = basespec
    im, iv = indexspec
    if not im:  # constant index: fold index*scale at compile time
        offset = iv * scale
        if bm:

            def op(R, st, dst=dst, b=bv, off=offset):
                R[dst] = R[b] + off

        else:
            value = bv + offset

            def op(R, st, dst=dst, value=value):
                R[dst] = value

    elif scale == 1:
        if bm:

            def op(R, st, dst=dst, b=bv, i=iv):
                R[dst] = R[b] + R[i]

        else:

            def op(R, st, dst=dst, b=bv, i=iv):
                R[dst] = b + R[i]

    else:
        if bm:

            def op(R, st, dst=dst, b=bv, i=iv, s=scale):
                R[dst] = R[b] + R[i] * s

        else:

            def op(R, st, dst=dst, b=bv, i=iv, s=scale):
                R[dst] = b + R[i] * s

    return op


#: Operand spec kinds the compiler hands out: uniform register ("R"),
#: divergent register ("D"), uniform constant ("C"), per-cell constants
#: ("P").  Only "R" and "C" occur at one cell.
_UNIFORM_KINDS = ("R", "C")


def _uniform_spec(spec):
    """Uniform spec -> the factories' ``(is_register, slot_or_const)``."""
    kind, value = spec
    return (kind == "R", value)


def _uniform_alu_op(dst: int, op: Opcode, specs: list):
    """The specialized closure of one uniform ALU instruction;
    ``specs`` are ``(is_register, slot_or_const)`` pairs."""
    if op in _BINOP_FACTORIES:
        (am, a), (bm, b) = specs
        return _BINOP_FACTORIES[op][(am, bm)](dst, a, b)
    if op is Opcode.GEP:
        base, index, (_, scale) = specs
        return _gep_op(dst, base, index, scale)
    if op is Opcode.CONST:
        return _const_op(dst, specs[0][1])
    if op is Opcode.MOV:
        return _mov_op(dst, specs[0])
    return _select_op(dst, *specs)


# ----------------------------------------------------------------------
# The one-cell factories of the ops whose closures differ by cell count
# (see CellOps): they drive one memory system, record PEBS samples,
# push the LBR and refresh the sampler.
# ----------------------------------------------------------------------
def _load_op(dst: int, aspec, divergent: bool, pc: int, pending: int):
    a_is_reg, a = _uniform_spec(aspec)
    if a_is_reg:
        if pending:

            def op(R, st, dst=dst, a=a, pc=pc, k=pending):
                st.cycle += k
                addr = R[a]
                now = st.cycle
                latency = st.mem_load(addr, now, pc)
                st.cycle = now + latency
                if latency >= st.pebs_threshold:
                    st.record_load(pc, latency)
                R[dst] = st.sp_load(addr)

        else:

            def op(R, st, dst=dst, a=a, pc=pc):
                addr = R[a]
                now = st.cycle
                latency = st.mem_load(addr, now, pc)
                st.cycle = now + latency
                if latency >= st.pebs_threshold:
                    st.record_load(pc, latency)
                R[dst] = st.sp_load(addr)

    else:

        def op(R, st, dst=dst, addr=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            now = st.cycle
            latency = st.mem_load(addr, now, pc)
            st.cycle = now + latency
            if latency >= st.pebs_threshold:
                st.record_load(pc, latency)
            R[dst] = st.sp_load(addr)

    return op


def _store_op(aspec, vspec, pc: int, pending: int):
    am, av = aspec
    vm, vv = vspec

    def op(R, st, am=am, av=av, vm=vm, vv=vv, pc=pc, k=pending):
        if k:
            st.cycle += k
        addr = R[av] if am else av
        now = st.cycle
        st.cycle = now + st.mem_store(addr, now, pc)
        st.sp_store(addr, R[vv] if vm else vv)

    return op


def _prefetch_op(aspec, pc: int, pending: int):
    a_is_reg, a = _uniform_spec(aspec)
    if a_is_reg:

        def op(R, st, a=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            st.mem_prefetch(R[a], st.cycle, pc)

    else:

        def op(R, st, addr=a, pc=pc, k=pending):
            if k:
                st.cycle += k
            st.mem_prefetch(addr, st.cycle, pc)

    return op


def _work_op(slot: int, pending: int, work_cpi: int):
    """Dynamic WORK: amount read from a register at run time.

    Retires immediately (interpreter semantics); the constant-amount
    form is folded into pending/retired like any ALU instruction.
    """

    def op(R, st, a=slot, k=pending, cpi=work_cpi):
        if k:
            st.cycle += k
        amount = R[a]
        st.cycle += amount * cpi
        st.retired += amount

    return op


def _call_op(
    dst: int, callee: str, argspec: tuple, pc: int, pending: int,
    ret_divergent: bool,
):
    def op(R, st, dst=dst, callee=callee, argspec=argspec, pc=pc, k=pending):
        st.cycle += k
        invoke = st.invoke
        if invoke is None:
            raise IRError("CALL executed without an invoke trampoline")
        counters = st.counters
        counters.cycles = st.cycle
        R[dst] = invoke(
            callee, tuple((R[v] if m else v) for m, v in argspec), pc
        )
        st.cycle = int(counters.cycles)
        sampler = st.sampler
        if sampler is not None:
            st.next_sample = sampler.next_at

    return op


# ----------------------------------------------------------------------
# Terminators: materialize the block's folded costs, record the branch,
# perform the taken edge's PHI copies, and select the next block.
# ----------------------------------------------------------------------
def _edge_copies(pairs: list) -> Optional[Callable]:
    """Parallel-copy closure for one CFG edge; ``pairs`` is a list of
    ``(dst_slot, src_is_reg, src)``.  Returns None for phi-less edges."""
    if not pairs:
        return None
    if len(pairs) == 1:
        d, m, s = pairs[0]
        if m:

            def copy(R, d=d, s=s):
                R[d] = R[s]

        else:

            def copy(R, d=d, s=s):
                R[d] = s

        return copy
    if len(pairs) == 2:
        (d0, m0, s0), (d1, m1, s1) = pairs

        def copy(R, d0=d0, m0=m0, s0=s0, d1=d1, m1=m1, s1=s1):
            v0 = R[s0] if m0 else s0
            v1 = R[s1] if m1 else s1
            R[d0] = v0
            R[d1] = v1

        return copy
    dsts = tuple(p[0] for p in pairs)
    srcs = tuple((p[1], p[2]) for p in pairs)

    def copy(R, dsts=dsts, srcs=srcs):
        values = [R[s] if m else s for m, s in srcs]
        for d, v in zip(dsts, values):
            R[d] = v

    return copy


def _jmp_op(pc, target_pc, target_index, copies, pending, retired, nloads, nstores):
    def op(
        R,
        st,
        pc=pc,
        tpc=target_pc,
        ti=target_index,
        copies=copies,
        k=pending,
        rt=retired,
        nl=nloads,
        ns=nstores,
    ):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        st.taken += 1
        st.lbr_push((pc, tpc, st.cycle))
        if copies is not None:
            copies(R)
        st.next = ti

    return op


def _br_op(
    cspec,
    pc,
    then_pc,
    then_index,
    then_copies,
    else_index,
    else_copies,
    pending,
    retired,
    nloads,
    nstores,
):
    cm, cv = cspec

    def op(
        R,
        st,
        cm=cm,
        cv=cv,
        pc=pc,
        tpc=then_pc,
        ti=then_index,
        tc=then_copies,
        ei=else_index,
        ec=else_copies,
        k=pending,
        rt=retired,
        nl=nloads,
        ns=nstores,
    ):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        if R[cv] if cm else cv:
            st.taken += 1
            st.lbr_push((pc, tpc, st.cycle))
            if tc is not None:
                tc(R)
            st.next = ti
        else:
            if ec is not None:
                ec(R)
            st.next = ei

    return op


def _ret_op(aspec, divergent, pending, retired, nloads, nstores):
    am, av = _uniform_spec(aspec)

    def op(R, st, am=am, av=av, k=pending, rt=retired, nl=nloads, ns=nstores):
        st.cycle += k
        st.retired += rt
        if nl:
            st.loads += nl
        if ns:
            st.stores += ns
        counters = st.counters
        counters.cycles = st.cycle
        counters.instructions += st.retired
        counters.loads += st.loads
        counters.stores += st.stores
        counters.taken_branches += st.taken
        st.value = R[av] if am else av
        st.next = _RETURNED

    return op


class CellOps(NamedTuple):
    """The factories of the ops whose closures differ by cell count.

    :data:`ONE_CELL` (below) drives one memory system and records PEBS
    samples, LBR pushes and sampler refreshes; the N-cell set
    (:data:`repro.machine.batch.N_CELLS`) visits every live cell's
    hierarchy at its own clock.  Both take the same arguments, so one
    compiler folds costs for either.  Operands that may diverge across
    cells (load and prefetch addresses, return values, divergent ALU
    inputs) arrive as ``(kind, value)`` specs; operands the batch
    analysis keeps uniform (store address and value, branch condition,
    call arguments) as ``(is_register, slot_or_const)``.  One cell
    ignores the divergence flags, N cells the LBR pcs.
    """

    # Arguments, in order (``counts`` = pending, retired, nloads,
    # nstores, the block's folded costs at its terminator):
    load: Callable  # dst, aspec, divergent, pc, pending
    store: Callable  # aspec, vspec, pc, pending
    prefetch: Callable  # aspec, pc, pending
    work: Callable  # slot, pending, work_cpi
    call: Callable  # dst, callee, argspec, pc, pending, ret_divergent
    jmp: Callable  # pc, target_pc, target_index, copies, *counts
    br: Callable  # cspec, pc, then_pc, then_index, then_copies,
    #               else_index, else_copies, *counts
    ret: Callable  # aspec, divergent, *counts
    copies: Callable  # upairs, dpairs: one edge's PHI parallel copy
    alu: Optional[Callable] = None  # dst, opcode, specs: divergent ALU


ONE_CELL = CellOps(
    load=_load_op,
    store=_store_op,
    prefetch=_prefetch_op,
    work=_work_op,
    call=_call_op,
    jmp=_jmp_op,
    br=_br_op,
    ret=_ret_op,
    copies=lambda upairs, dpairs: _edge_copies(upairs),
)


# ----------------------------------------------------------------------
# The per-block compiler.
# ----------------------------------------------------------------------
class _FunctionPlan:
    """One function aligned across the cells of a run (one function at
    one cell) + its divergence facts (filled in by
    :func:`repro.machine.batch.analyze_modules`; empty at one cell)."""

    __slots__ = ("name", "functions", "divergent", "ret_divergent")

    def __init__(self, name: str, functions: list) -> None:
        self.name = name
        self.functions = functions
        self.divergent: set = set()
        self.ret_divergent = False


def _aligned_phis(blocks):
    return list(zip(*(b.phis() for b in blocks)))


def _aligned_rest(blocks):
    return list(zip(*(list(b.non_phi_instructions()) for b in blocks)))


class _BlockCompiler:
    """Compiles one function's blocks, aligned across the cells of a
    run, to per-block op chains: uniform ALU work through the
    specialized factories above, everything else through ``ops`` (the
    :class:`CellOps` set that matches the cell count)."""

    def __init__(
        self, plan: _FunctionPlan, plans: dict, config: MachineConfig,
        ops: CellOps,
    ) -> None:
        self.plan = plan
        self.plans = plans
        self.config = config
        self.ops = ops
        first = plan.functions[0]
        # Register file layout: parameters take slots 0..n-1 (so the
        # runner can fill them positionally), then every dst in program
        # order — identical to the translator's R-numbering.
        self.slots: dict[str, int] = {}
        for param in first.params:
            self.slots[param] = len(self.slots)
        for instruction in first.instructions():
            if instruction.dst is not None and instruction.dst not in self.slots:
                self.slots[instruction.dst] = len(self.slots)
        self.block_index = {
            block.name: index for index, block in enumerate(first.blocks)
        }
        self.start_pc = {block.name: block.start_pc for block in first.blocks}
        # Whether a run needs the per-cell register overlays; per-cell
        # immediates met while compiling set it too.  Never at one cell.
        self.has_divergence = bool(plan.divergent) or plan.ret_divergent

    # ------------------------------------------------------------------
    def ospec(self, values) -> tuple:
        """Aligned operand values across cells -> a ``(kind, value)``
        spec (see :data:`_UNIFORM_KINDS`)."""
        first = values[0]
        if type(first) is str:
            slot = self.slots[first]
            if first in self.plan.divergent:
                return ("D", slot)
            return ("R", slot)
        if all(value == first for value in values[1:]):
            return ("C", first)
        self.has_divergence = True
        return ("P", tuple(values))

    def arg(self, insts, j) -> tuple:
        return self.ospec([inst.args[j] for inst in insts])

    def uarg(self, insts, j) -> tuple:
        """An operand the batch analysis keeps uniform."""
        return _uniform_spec(self.arg(insts, j))

    def edge(self, target_name: str, source_name: str):
        """PHI parallel-copy closure for the edge source -> target."""
        targets = [f.block(target_name) for f in self.plan.functions]
        upairs: list = []
        dpairs: list = []
        for phis in _aligned_phis(targets):
            dst = phis[0].dst
            values = []
            for phi in phis:
                incoming = dict(phi.incomings)
                if source_name not in incoming:
                    raise IRError(
                        f"phi {dst} in {target_name} lacks incoming "
                        f"from {source_name}"
                    )
                values.append(incoming[source_name])
            spec = self.ospec(values)
            if dst in self.plan.divergent:
                dpairs.append((self.slots[dst], spec))
            else:
                is_reg, value = _uniform_spec(spec)
                upairs.append((self.slots[dst], is_reg, value))
        return self.ops.copies(upairs, dpairs)

    def compile(self) -> tuple:
        """Every block's op chain, in block order."""
        return tuple(
            self.compile_block(aligned)
            for aligned in zip(*(f.blocks for f in self.plan.functions))
        )

    # ------------------------------------------------------------------
    def compile_block(self, blocks) -> tuple:
        cfg = self.config
        alu = cfg.alu_cost
        make = self.ops
        divergent = self.plan.divergent
        name = blocks[0].name
        chain: list = []
        pending = 0  # folded cycle cost awaiting the next observer
        retired = 0
        nloads = 0
        nstores = 0

        for insts in _aligned_rest(blocks):
            inst = insts[0]
            op = inst.op
            dst = inst.dst
            dst_divergent = dst in divergent
            if op in ALU_OPS:
                specs = [self.arg(insts, j) for j in range(len(inst.args))]
                if dst_divergent or any(
                    kind not in _UNIFORM_KINDS for kind, _ in specs
                ):
                    chain.append(make.alu(self.slots[dst], op, specs))
                else:
                    chain.append(
                        _uniform_alu_op(
                            self.slots[dst],
                            op,
                            [_uniform_spec(spec) for spec in specs],
                        )
                    )
                pending += alu
                retired += 1
            elif op is Opcode.LOAD:
                chain.append(
                    make.load(
                        self.slots[dst],
                        self.arg(insts, 0),
                        dst_divergent,
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nloads += 1
            elif op is Opcode.STORE:
                chain.append(
                    make.store(
                        self.uarg(insts, 0), self.uarg(insts, 1), inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nstores += 1
            elif op is Opcode.PREFETCH:
                chain.append(
                    make.prefetch(self.arg(insts, 0), inst.pc, pending)
                )
                pending = cfg.prefetch_cost
                retired += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                if type(amount) is int:
                    pending += amount * cfg.work_cpi
                    retired += amount
                else:
                    chain.append(
                        make.work(self.slots[amount], pending, cfg.work_cpi)
                    )
                    pending = 0
            elif op is Opcode.CALL:
                pending += cfg.branch_cost
                retired += 1
                callee = inst.targets[0]
                callee_plan = self.plans.get(callee)
                chain.append(
                    make.call(
                        self.slots[dst],
                        callee,
                        tuple(
                            self.uarg(insts, j) for j in range(len(inst.args))
                        ),
                        inst.pc,
                        pending,
                        callee_plan is not None and callee_plan.ret_divergent,
                    )
                )
                pending = 0
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                retired += 1
                target = inst.targets[0]
                chain.append(
                    make.jmp(
                        inst.pc,
                        self.start_pc[target],
                        self.block_index[target],
                        self.edge(target, name),
                        pending,
                        retired,
                        nloads,
                        nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            elif op is Opcode.BR:
                pending += cfg.branch_cost
                retired += 1
                then_target, else_target = inst.targets
                chain.append(
                    make.br(
                        self.uarg(insts, 0),
                        inst.pc,
                        self.start_pc[then_target],
                        self.block_index[then_target],
                        self.edge(then_target, name),
                        self.block_index[else_target],
                        self.edge(else_target, name),
                        pending,
                        retired,
                        nloads,
                        nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            elif op is Opcode.RET:
                pending += cfg.branch_cost
                retired += 1
                spec = self.arg(insts, 0) if inst.args else ("C", 0)
                chain.append(
                    make.ret(
                        spec, self.plan.ret_divergent, pending, retired,
                        nloads, nstores,
                    )
                )
                pending = retired = nloads = nstores = 0
            else:  # pragma: no cover - exhaustive dispatch
                raise IRError(f"unhandled opcode {op!r}")
        return tuple(chain)


class FusedDispatch:
    """A compiled function: its per-block chains, one fused superblock
    slot per block (None when unfused), the run-profiling tallies of
    bulk stepping, and the one dispatch loop.  The sequential form
    (:class:`BlockCompiledFunction`) and the batched one
    (:class:`repro.machine.batchturbo.BatchTurboCompiledFunction`) add
    only their frame set-up.

    Telemetry's engine.run span reads the tallies; they live on the
    compiled function, never in the PMU counters, so traced==untraced
    bit-identity is untouched.
    """

    def __init__(self, compiler: _BlockCompiler) -> None:
        function = compiler.plan.functions[0]
        self.function = function
        self.plan = compiler.plan
        self._blocks = compiler.compile()
        self._block_names = tuple(block.name for block in function.blocks)
        self._entry = compiler.block_index[function.entry.name]
        self._register_count = len(compiler.slots)
        # Compile-form metadata the fused steppers share: the
        # register-file layout and the block-name -> dispatch-index map.
        self.slots = compiler.slots
        self.block_index = compiler.block_index
        self._superblocks = (None,) * len(self._blocks)
        self._fused = False
        self.bulk_calls = 0
        self.bulk_iters = 0
        self.guard_declines = 0
        self.adaptive_cleared = 0

    def fuse(self, superblocks: tuple) -> None:
        """Install the fused steppers, one slot per block."""
        self._superblocks = superblocks
        self._fused = any(sb is not None for sb in superblocks)

    def superblocks(self) -> list:
        """The fused loops (debug/test aid)."""
        return [sb for sb in self._superblocks if sb is not None]

    def stats(self) -> dict:
        """Compile-shape summary plus the bulk-stepping tallies (for
        tests and debugging)."""
        fused = self.superblocks()
        return {
            "blocks": len(self._blocks),
            "ops": sum(len(ops) for ops in self._blocks),
            "registers": self._register_count,
            "superblocks": len(fused),
            "fused_blocks": sum(len(sb.path) for sb in fused),
            "max_fusion_depth": max((sb.depth for sb in fused), default=0),
            "bulk_calls": self.bulk_calls,
            "bulk_iters": self.bulk_iters,
            "guard_declines": self.guard_declines,
            "adaptive_cleared": self.adaptive_cleared,
        }

    def _tally(
        self, superblocks: list, sb_calls: list, sb_iters: list, declined: int
    ) -> None:
        """Fold one run's bulk-stepping counts into the tallies;
        ``superblocks`` is the run's copy of the slots, where the
        adaptive bypass cleared the slots it gave up on."""
        self.bulk_calls += sum(sb_calls)
        self.bulk_iters += sum(sb_iters)
        self.guard_declines += declined
        self.adaptive_cleared += sum(
            1
            for original, current in zip(self._superblocks, superblocks)
            if original is not None and current is None
        )

    def _dispatch(
        self,
        args: Sequence[int],
        st,
        cd,
        profiled: bool,
        superblocks: Optional[list],
    ):
        """Run the function on frame ``st``: blocks that are not fused
        headers dispatch their closure chain; a fused header hands
        control to its stepper ``run(R, st, cd, PT)``, which runs
        iterations in bulk until an observation-point guard trips — or
        declines outright (``-1``: budget or sample imminent) so the
        per-block path can honour the observation at the exact
        reference boundary.

        ``superblocks`` is a per-run copy of the slots, or None to
        bypass bulk stepping.  A fused loop whose *dynamic* trip counts
        turn out tiny (a hash-probe chain averaging 1-2 iterations)
        pays more in per-bulk-call prologue than fusion saves, so after
        a warmup its slot is cleared and dispatch falls back to the
        per-block path — bit-identical either way, purely a time/space
        trade.  Only a ``profiled`` run checks for a due sample."""
        function = self.function
        if len(args) != len(function.params):
            raise IRError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
        R = [0] * self._register_count
        for slot, value in enumerate(args):  # params occupy slots 0..n-1
            R[slot] = int(value)

        blocks = self._blocks
        max_instructions = st.max_instructions
        if superblocks is not None:
            sb_calls = [0] * len(superblocks)
            sb_iters = [0] * len(superblocks)
        declined = 0
        bi = self._entry
        try:
            while True:
                if profiled and st.cycle >= st.next_sample:
                    st.next_sample = st.take(st.cycle)
                if st.retired > max_instructions:
                    raise ExecutionLimitExceeded(
                        f"{function.name}: exceeded {max_instructions} instructions"
                    )
                if superblocks is not None:
                    sb = superblocks[bi]
                    if sb is not None:
                        run = sb.run_profiled if profiled else sb.run
                        before = st.retired
                        nxt = run(R, st, cd, sb.ptables)
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
            if superblocks is not None:
                self._tally(superblocks, sb_calls, sb_iters, declined)


class BlockCompiledFunction(FusedDispatch):
    """An IR function compiled for one run: per-block closure chains,
    plus an optional fused superblock stepper per block (installed by
    :func:`repro.machine.batchturbo.compile_fused`)."""

    def __call__(self, ctx: ExecutionContext, args: Sequence[int] = ()) -> int:
        config = ctx.config
        counters = ctx.counters
        mem = ctx.mem
        space = ctx.space
        sampler = ctx.sampler

        st = _Frame()
        st.counters = counters
        st.mem_load = mem.load_port()
        st.mem_store = mem.store_port()
        st.mem_prefetch = mem.prefetch_port()
        st.sp_load = space.load
        st.sp_store = space.store
        st.lbr_push = ctx.lbr.push
        st.invoke = ctx.invoke
        st.sampler = sampler
        if sampler is not None:
            st.next_sample = sampler.next_at
            st.take = sampler.take
            st.pebs_threshold = config.effective_pebs_threshold()
            st.record_load = sampler.record_load
        else:
            st.next_sample = NEVER
            st.take = None
            st.pebs_threshold = NEVER
            st.record_load = None
        st.max_instructions = config.max_instructions
        st.cycle = int(counters.cycles)
        st.retired = 0
        st.loads = 0
        st.stores = 0
        st.taken = 0
        st.value = 0
        # Trace armed -> observation points are everywhere; bulk
        # stepping is disabled for the whole run (same bypass rule as
        # the memory fast path).
        if self._fused and mem.trace is None:
            return self._dispatch(
                args, st, mem.front(), sampler is not None,
                list(self._superblocks),
            )
        return self._dispatch(args, st, None, sampler is not None, None)


def compile_blocks(
    function: Function, config: Optional[MachineConfig] = None
) -> BlockCompiledFunction:
    """Compile one finalized IR function into closure-chain form."""
    for block in function.blocks:
        if block.instructions and block.instructions[0].pc < 0:
            raise IRError(
                f"{function.name}: module must be finalized before "
                f"block compilation"
            )
    return BlockCompiledFunction(
        _BlockCompiler(
            _FunctionPlan(function.name, [function]),
            {},
            config or MachineConfig(),
            ONE_CELL,
        )
    )

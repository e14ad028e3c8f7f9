"""Block engine: per-block chains of pre-resolved op closures and the
one dispatch loop every compiled engine name shares.

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

* ``turbo`` (the default ``fast`` name runs it too) compiles these
  chains first, then fuses hot loop nests into generated superblock
  steppers (:func:`repro.machine.batchturbo.compile_fused`, the one
  fused-nest generator at one cell) that plug into
  :class:`BlockCompiledFunction`'s dispatch loop.  Blocks outside a
  fused loop, and every block of a traced run, take the per-block
  path.
* ``reference`` (``repro.machine.interpreter``) is the obviously-correct
  baseline.  This engine must match it bit-for-bit on cycles, PMU
  counters, LBR contents and PEBS sample sets — asserted across the
  whole workload registry by the differential tests.
* ``translate`` (``repro.machine.translator``) generates Python source
  and ``exec``\\ s one function object per IR function.

Cost folding follows the translator exactly: runs of constant-cost ALU
instructions accumulate a pending cycle count that is materialized at
the next *observer* (memory op, CALL, dynamic WORK, or terminator), and
per-block retired/load/store counts are folded into the terminator.
Nothing observes ``cycle`` or the counters between those points, so the
folded schedule is bit-identical to the interpreter's per-instruction
accumulation (all costs are integers).

Demand loads and stores are issued through
:meth:`MemorySystem.load_port` / :meth:`store_port`, which hand out the
L1 front fast path (``repro.mem.fastpath``) when no lifecycle trace is
attached and the plain slow-path methods when one is.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.ir.nodes import Function, IRError
from repro.ir.opcodes import BINOP_EXPR, Opcode
from repro.machine.config import MachineConfig
from repro.machine.context import ExecutionContext
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


def _load_op(dst: int, aspec, pc: int, pending: int):
    a_is_reg, a = aspec
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
    a_is_reg, a = aspec
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


def _call_op(dst: int, callee: str, argspec: tuple, pc: int, pending: int):
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


def _ret_op(aspec, pending, retired, nloads, nstores):
    am, av = aspec

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


# ----------------------------------------------------------------------
# The per-function block compiler.
# ----------------------------------------------------------------------
class _BlockCompiler:
    def __init__(self, function: Function, config: MachineConfig) -> None:
        self.function = function
        self.config = config
        # Register file layout: parameters take slots 0..n-1 (so the
        # runner can fill them positionally), then every dst in program
        # order — identical to the translator's R-numbering.
        self.slots: dict[str, int] = {}
        for param in function.params:
            self.slots[param] = len(self.slots)
        for instruction in function.instructions():
            if instruction.dst is not None and instruction.dst not in self.slots:
                self.slots[instruction.dst] = len(self.slots)
        self.block_index = {
            block.name: index for index, block in enumerate(function.blocks)
        }
        self.start_pc = {
            block.name: block.start_pc for block in function.blocks
        }

    # ------------------------------------------------------------------
    def spec(self, operand):
        """Operand -> (is_register, slot_or_constant)."""
        if type(operand) is int:
            return (False, operand)
        return (True, self.slots[operand])

    def edge(self, target_name: str, source_name: str) -> Optional[Callable]:
        """PHI parallel-copy closure for the edge source -> target."""
        target = self.function.block(target_name)
        pairs = []
        for phi in target.phis():
            incoming = dict(phi.incomings)
            if source_name not in incoming:
                raise IRError(
                    f"phi {phi.dst} in {target_name} lacks incoming "
                    f"from {source_name}"
                )
            is_reg, src = self.spec(incoming[source_name])
            pairs.append((self.slots[phi.dst], is_reg, src))
        return _edge_copies(pairs)

    # ------------------------------------------------------------------
    def compile_block(self, block) -> tuple:
        cfg = self.config
        alu = cfg.alu_cost
        ops: list = []
        pending = 0  # folded cycle cost awaiting the next observer
        retired = 0
        nloads = 0
        nstores = 0

        for inst in block.non_phi_instructions():
            op = inst.op
            if op in _BINOP_FACTORIES:
                (am, a), (bm, b) = self.spec(inst.args[0]), self.spec(inst.args[1])
                factory = _BINOP_FACTORIES[op][(am, bm)]
                ops.append(factory(self.slots[inst.dst], a, b))
                pending += alu
                retired += 1
            elif op is Opcode.GEP:
                base, index, scale = inst.args
                ops.append(
                    _gep_op(
                        self.slots[inst.dst],
                        self.spec(base),
                        self.spec(index),
                        scale,
                    )
                )
                pending += alu
                retired += 1
            elif op is Opcode.CONST:
                ops.append(_const_op(self.slots[inst.dst], inst.args[0]))
                pending += alu
                retired += 1
            elif op is Opcode.MOV:
                ops.append(_mov_op(self.slots[inst.dst], self.spec(inst.args[0])))
                pending += alu
                retired += 1
            elif op is Opcode.SELECT:
                ops.append(
                    _select_op(
                        self.slots[inst.dst],
                        self.spec(inst.args[0]),
                        self.spec(inst.args[1]),
                        self.spec(inst.args[2]),
                    )
                )
                pending += alu
                retired += 1
            elif op is Opcode.LOAD:
                ops.append(
                    _load_op(
                        self.slots[inst.dst],
                        self.spec(inst.args[0]),
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nloads += 1
            elif op is Opcode.STORE:
                ops.append(
                    _store_op(
                        self.spec(inst.args[0]),
                        self.spec(inst.args[1]),
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
                retired += 1
                nstores += 1
            elif op is Opcode.PREFETCH:
                ops.append(
                    _prefetch_op(self.spec(inst.args[0]), inst.pc, pending)
                )
                pending = cfg.prefetch_cost
                retired += 1
            elif op is Opcode.WORK:
                amount = inst.args[0]
                if type(amount) is int:
                    pending += amount * cfg.work_cpi
                    retired += amount
                else:
                    ops.append(
                        _work_op(self.slots[amount], pending, cfg.work_cpi)
                    )
                    pending = 0
            elif op is Opcode.CALL:
                pending += cfg.branch_cost
                retired += 1
                argspec = tuple(self.spec(a) for a in inst.args)
                ops.append(
                    _call_op(
                        self.slots[inst.dst],
                        inst.targets[0],
                        argspec,
                        inst.pc,
                        pending,
                    )
                )
                pending = 0
            elif op is Opcode.JMP:
                pending += cfg.branch_cost
                retired += 1
                target = inst.targets[0]
                ops.append(
                    _jmp_op(
                        inst.pc,
                        self.start_pc[target],
                        self.block_index[target],
                        self.edge(target, block.name),
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
                ops.append(
                    _br_op(
                        self.spec(inst.args[0]),
                        inst.pc,
                        self.start_pc[then_target],
                        self.block_index[then_target],
                        self.edge(then_target, block.name),
                        self.block_index[else_target],
                        self.edge(else_target, block.name),
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
                aspec = self.spec(inst.args[0]) if inst.args else (False, 0)
                ops.append(_ret_op(aspec, pending, retired, nloads, nstores))
                pending = retired = nloads = nstores = 0
            else:  # pragma: no cover - exhaustive dispatch
                raise IRError(f"unhandled opcode {op!r}")
        return tuple(ops)


class FusedDispatch:
    """What a compiled function's dispatch loop keeps besides its
    per-block chains: one fused superblock slot per block (None when
    unfused) and the run-profiling tallies of bulk stepping.  Shared by
    the sequential form below and the batched one
    (:class:`repro.machine.batchturbo.BatchTurboCompiledFunction`).

    Telemetry's engine.run span reads the tallies; they live on the
    compiled function, never in the PMU counters, so traced==untraced
    bit-identity is untouched.
    """

    def __init__(
        self,
        blocks: tuple,
        block_names: tuple,
        entry_index: int,
        register_count: int,
        superblocks: Optional[tuple] = None,
    ) -> None:
        self._blocks = blocks
        self._block_names = block_names
        self._entry = entry_index
        self._register_count = register_count
        self._superblocks = superblocks or (None,) * len(blocks)
        self.bulk_calls = 0
        self.bulk_iters = 0
        self.guard_declines = 0
        self.adaptive_cleared = 0

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


class BlockCompiledFunction(FusedDispatch):
    """An IR function compiled to per-block closure chains, plus an
    optional fused superblock stepper per block (installed by
    :func:`repro.machine.batchturbo.compile_fused`)."""

    def __init__(
        self,
        function: Function,
        blocks: tuple,
        block_names: tuple,
        entry_index: int,
        register_count: int,
        slots: dict,
        block_index: dict,
    ) -> None:
        super().__init__(blocks, block_names, entry_index, register_count)
        self.function = function
        # Compile-form metadata the fused steppers share: the
        # register-file layout and the block-name -> dispatch-index map.
        self.slots = slots
        self.block_index = block_index
        self._fused = False

    def fuse(self, superblocks: tuple) -> None:
        """Install the fused steppers, one slot per block."""
        self._superblocks = superblocks
        self._fused = any(sb is not None for sb in superblocks)

    def __call__(self, ctx: ExecutionContext, args: Sequence[int] = ()) -> int:
        """Run the function: blocks that are not fused headers dispatch
        their closure chain; a fused header hands control to its
        stepper, which runs iterations in bulk until an
        observation-point guard trips — or declines outright (``-1``:
        sample imminent) so the per-block path can honour the
        observation at the exact reference boundary."""
        function = self.function
        if len(args) != len(function.params):
            raise IRError(
                f"{function.name} expects {len(function.params)} args, "
                f"got {len(args)}"
            )
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
        max_instructions = config.max_instructions
        st.max_instructions = max_instructions
        st.cycle = int(counters.cycles)
        st.retired = 0
        st.loads = 0
        st.stores = 0
        st.taken = 0
        st.value = 0

        R = [0] * self._register_count
        for slot, value in enumerate(args):  # params occupy slots 0..n-1
            R[slot] = int(value)

        blocks = self._blocks
        # Trace armed -> observation points are everywhere; bulk
        # stepping is disabled for the whole run (same bypass rule as
        # the memory fast path).  The list is a per-run copy: a fused
        # loop whose *dynamic* trip counts turn out tiny (a hash-probe
        # chain averaging 1-2 iterations) pays more in per-bulk-call
        # prologue than fusion saves, so after a warmup its slot is
        # cleared and dispatch falls back to the per-block path —
        # bit-identical either way, purely a time/space trade.
        superblocks = (
            list(self._superblocks)
            if self._fused and mem.trace is None
            else None
        )
        if superblocks is not None:
            front = mem.front()
            sb_calls = [0] * len(superblocks)
            sb_iters = [0] * len(superblocks)
        profiled = sampler is not None
        declined = 0
        bi = self._entry
        try:
            while True:
                if st.cycle >= st.next_sample:
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
                        nxt = run(R, st, front)
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
    compiler = _BlockCompiler(function, config or MachineConfig())
    blocks = tuple(
        compiler.compile_block(block) for block in function.blocks
    )
    return BlockCompiledFunction(
        function,
        blocks,
        tuple(block.name for block in function.blocks),
        compiler.block_index[function.entry.name],
        len(compiler.slots),
        compiler.slots,
        compiler.block_index,
    )

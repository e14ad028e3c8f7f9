"""Shared loop-nest discovery and fusability analysis for the fused
engine tiers.

The one fused-nest generator (:mod:`repro.machine.batchturbo`, for the
sequential ``turbo``/``fast`` path at one cell and for the batched
sweep tier at N) fuses one shape of loop: a *linear single-latch*
natural loop whose body walks header -> ... -> latch with exactly one
in-loop successor per node, built innermost-first so outer loops absorb
already-fused inner loops as nested units.  This module holds that
analysis, plus the source fragments the generator emits per memory
site — the segment-cache probe and the functional access built on it
(:func:`site_probe`, :func:`functional_lines`).

The eligibility rules (see :func:`build_unit`):

* single latch — multiple back edges mean the iteration has no single
  "end", so per-iteration constants cannot be folded;
* every node on the walk has exactly one in-loop successor: a block
  whose JMP target / one BR arm stays in the body (the other arm is a
  side exit), or an already-fused inner unit whose single exit target
  is the continuation;
* **guarded inner units** — a block whose BR has *two* in-loop arms is
  still linear when one arm enters an already-fused inner unit whose
  single exit target is the other arm's target: both ways control
  reaches the same continuation, so the walk treats the conditional
  inner loop as one optional :class:`GuardedUnit` node (the common
  ``if (work) { inner loop }`` shape around a nested hot loop);
* no CALL (re-enters the trampoline — an observation point) and no
  dynamic register-amount WORK (unbounded per-iteration cost) anywhere
  on the path;
* the walk must cover the whole body and end on the latch's back edge —
  irreducible or diamond-shaped bodies and nests around unfused inner
  loops all fail naturally.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loops import Loop, find_loops
from repro.ir.nodes import Function
from repro.ir.opcodes import BINOP_EXPR, Opcode

#: Opcodes treated as plain folded-cost ALU work by the scanners and
#: code generators of both fused tiers.
ALU_OPS = frozenset(BINOP_EXPR) | {
    Opcode.GEP,
    Opcode.CONST,
    Opcode.MOV,
    Opcode.SELECT,
}


class FusionUnit:
    """One fusable loop: a linear path of blocks and already-fused
    inner units from header to latch, plus the continuation/exit
    metadata codegen needs."""

    __slots__ = (
        "header",
        "path",
        "blocks",
        "own_blocks",
        "cont",
        "exit_targets",
        "exit_blocks",
        "guards",
    )

    def __init__(
        self,
        header: str,
        path: tuple,
        blocks: frozenset,
        own_blocks: tuple,
        cont: dict,
        exit_targets: frozenset,
        exit_blocks: tuple,
        guards: Optional[dict] = None,
    ) -> None:
        self.header = header
        self.path = path  # str | FusionUnit | GuardedUnit, in order
        self.blocks = blocks  # every block name covered, recursively
        self.own_blocks = own_blocks  # the plain blocks on this path
        self.cont = cont  # own block -> its in-path successor entry
        self.exit_targets = exit_targets  # out-of-unit BR arm targets
        self.exit_blocks = exit_blocks  # own blocks with a side exit
        self.guards = guards or {}  # guard block -> inner entry header


class GuardedUnit:
    """An already-fused inner unit entered conditionally from a guard
    block: one BR arm enters ``unit`` (whose single exit target is
    ``skip``), the other arm goes straight to ``skip``.  Both arms
    reach the same continuation, so the walk stays linear — codegen
    emits the whole inner loop inside the guard arm and rejoins at
    ``skip``."""

    __slots__ = ("guard", "unit", "skip", "enter_on_true")

    def __init__(
        self, guard: str, unit: FusionUnit, skip: str, enter_on_true: bool
    ) -> None:
        self.guard = guard  # the branching block's name
        self.unit = unit  # the inner FusionUnit entered conditionally
        self.skip = skip  # where both arms rejoin
        self.enter_on_true = enter_on_true  # inner is the taken arm


def unit_entry(node) -> str:
    """The dispatch label a path node is entered at."""
    if isinstance(node, FusionUnit):
        return node.header
    if isinstance(node, GuardedUnit):
        return node.unit.header
    return node


def block_is_fusable(block) -> bool:
    """Reject blocks whose cost cannot be bounded at compile time
    (CALL re-enters the trampoline — an observation point; dynamic
    WORK retires a run-time-dependent amount)."""
    for inst in block.non_phi_instructions():
        if inst.op is Opcode.CALL:
            return False
        if inst.op is Opcode.WORK and type(inst.args[0]) is not int:
            return False
    return True


def build_unit(
    function: Function, loop: Loop, units: dict
) -> Optional[FusionUnit]:
    """Build the fused unit for ``loop``, or None if it is not linear.

    Linear means: single latch, and every node on the walk from the
    header has exactly one in-loop successor — either a block whose
    JMP target / one BR arm stays in the body (the other arm is a side
    exit), or an already-fused inner unit (from ``units``, keyed by
    header) whose single exit target is the continuation.  The walk
    must cover the whole body and end on the latch's back edge, so
    irreducible or diamond-shaped bodies and nests around unfused
    inner loops all fail naturally.
    """
    if len(loop.latches) != 1:
        return None
    body = loop.body
    path: list = []
    covered: set = set()
    current = loop.header
    while True:
        inner = units.get(current) if current != loop.header else None
        if inner is not None:
            if not (inner.blocks <= body) or len(inner.exit_targets) != 1:
                return None
            nxt = next(iter(inner.exit_targets))
            if nxt == loop.header:
                return None  # back edge out of a fused unit: keep unfused
            path.append(inner)
            covered |= inner.blocks
        else:
            block = function.block(current)
            terminator = block.terminator
            if terminator is None or terminator.op not in (
                Opcode.JMP,
                Opcode.BR,
            ):
                return None
            if not block_is_fusable(block):
                return None
            in_loop = [t for t in terminator.targets if t in body]
            if len(in_loop) == 1:
                path.append(current)
                covered.add(current)
                nxt = in_loop[0]
                if nxt == loop.header:
                    if current != loop.latches[0]:
                        return None
                    break  # the back edge: ``current`` is the latch
            elif len(in_loop) == 2 and terminator.op is Opcode.BR:
                guarded = _guarded_successor(
                    current, terminator, body, units, loop.header
                )
                if guarded is None:
                    return None
                path.append(current)
                covered.add(current)
                path.append(guarded)
                covered |= guarded.unit.blocks
                nxt = guarded.skip
                if nxt == loop.header:
                    return None  # inner exits would be extra latches
            else:
                return None
        if nxt in covered:
            return None
        current = nxt
    if covered != body:
        return None
    own_blocks = tuple(n for n in path if isinstance(n, str))
    guards = {
        node.guard: node.unit.header
        for node in path
        if isinstance(node, GuardedUnit)
    }
    cont: dict = {}
    for i, node in enumerate(path):
        if not isinstance(node, str):
            continue
        if i + 1 < len(path) and isinstance(path[i + 1], GuardedUnit):
            # a guard block continues at the rejoin point; the inner
            # entry arm is recorded in ``guards``, not ``cont``
            cont[node] = path[i + 1].skip
        else:
            cont[node] = (
                unit_entry(path[i + 1]) if i + 1 < len(path) else loop.header
            )
    exit_targets: set = set()
    exit_blocks: list = []
    for name in own_blocks:
        terminator = function.block(name).terminator
        if terminator.op is Opcode.BR:
            for target in terminator.targets:
                if target != cont[name] and target != guards.get(name):
                    exit_targets.add(target)
                    exit_blocks.append(name)
    return FusionUnit(
        header=loop.header,
        path=tuple(path),
        blocks=frozenset(covered),
        own_blocks=own_blocks,
        cont=cont,
        exit_targets=frozenset(exit_targets),
        exit_blocks=tuple(exit_blocks),
        guards=guards,
    )


def _guarded_successor(
    name: str, terminator, body: frozenset, units: dict, header: str
) -> Optional[GuardedUnit]:
    """Recognize the guarded-inner-unit diamond at a two-in-loop-arm BR:
    one arm enters an already-fused inner unit whose single exit target
    is the other arm's target.  Returns the :class:`GuardedUnit`, or
    None when neither arm qualifies."""
    then_target, else_target = terminator.targets
    for enter, skip, on_true in (
        (then_target, else_target, True),
        (else_target, then_target, False),
    ):
        inner = units.get(enter)
        if (
            inner is not None
            and enter != header
            and inner.blocks <= body
            and inner.exit_targets == frozenset((skip,))
        ):
            return GuardedUnit(name, inner, skip, on_true)
    return None


def discover_units(function: Function) -> dict:
    """Every fusable loop nest of ``function``: ``{header: FusionUnit}``.

    Built innermost-first (loops sorted by body size) so an outer
    loop's walk can absorb already-fused inner units; inner units stay
    in the map under their own headers — that is where a run resumed
    mid-nest re-enters bulk stepping.
    """
    units: dict = {}
    for loop in sorted(find_loops(function), key=lambda lp: len(lp.body)):
        unit = build_unit(function, loop, units)
        if unit is not None:
            units[unit.header] = unit
    return units


def flatten_unit(unit: FusionUnit) -> list:
    """The nest's plain block names in execution order."""
    names: list = []
    for node in unit.path:
        if isinstance(node, FusionUnit):
            names.extend(flatten_unit(node))
        elif isinstance(node, GuardedUnit):
            names.extend(flatten_unit(node.unit))
        else:
            names.append(node)
    return names


def unit_depth(unit: FusionUnit) -> int:
    """Nesting depth (1 = a plain linear loop)."""
    return 1 + max(
        (
            unit_depth(n.unit if isinstance(n, GuardedUnit) else n)
            for n in unit.path
            if isinstance(n, (FusionUnit, GuardedUnit))
        ),
        default=0,
    )


# ----------------------------------------------------------------------
# Source fragments both fused code generators emit
# ----------------------------------------------------------------------
def site_probe(seg: str, addr: str) -> list:
    """Refresh the per-site segment cache ``seg`` for ``addr``.

    The cache holds the last Segment the site touched; afterwards
    ``seg`` is the segment mapping ``addr``, or None when it is
    unmapped (``sp_find`` is ``AddressSpace._find``).
    """
    return [
        f"if {seg} is None or not ({seg}.base <= {addr} < {seg}.end):",
        f"    {seg} = sp_find({addr})",
    ]


def functional_lines(
    seg: str, addr: str, assign: str, fallback: str, store_value=None
) -> list:
    """Functional access through a per-site segment cache.

    A cache hit costs a bounds check and a list index instead of two
    function calls.  Any irregular case — unmapped or misaligned —
    runs ``fallback``, the AddressSpace method, which raises the exact
    error the slow engines raise.  ``store_value`` None means a load
    into ``assign``.
    """
    if store_value is None:
        access = f"{assign}{seg}.values[_o // {seg}.elem_size]"
    else:
        access = f"{seg}.values[_o // {seg}.elem_size] = {store_value}"
    return site_probe(seg, addr) + [
        f"if {seg} is None:",
        f"    {assign}{fallback}",
        "else:",
        f"    _o = {addr} - {seg}.base",
        f"    if _o & ({seg}.elem_size - 1):",
        f"        {assign}{fallback}",
        "    else:",
        f"        {access}",
    ]

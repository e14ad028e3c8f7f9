"""Seeded random IR-program generator (the fuzzer's front end).

A generated program is fully described by a plain-JSON **spec** — a
recipe of functions, loop nests, and body statements — and
:func:`build_program` turns a spec into a verifier-clean, finalized
``(module, space)`` pair *deterministically* (the spec's ``seed`` only
drives data-array contents).  That split is what makes the rest of the
QA subsystem work:

* the corpus stores specs, so every shrunk failure replays bit-exactly
  without pickling IR objects;
* the shrinker delta-debugs the spec (drop statements, unnest loops,
  shrink trip counts) and rebuilds after every candidate edit;
* two builds of the same spec are structurally identical, so every
  engine can be handed its own fresh address space.

Generated shapes cover the constructs the engines and passes special-
case: single and nested loops, multi-latch loops (two back-edges into
one header, giving 3-incoming PHIs), direct and indirect loads (the
paper's delinquent pattern ``T[B[i]]``), stores, explicit PREFETCHes,
WORK kernels, CMP/SELECT chains, and calls to helper functions.

Spec grammar (all plain JSON)::

    {"schema": 1, "seed": int,
     "data_elems": pow2, "target_elems": pow2,
     "functions": [                  # helpers first, "main" last
        {"name": str, "params": [str...], "body": [stmt...]}]}

    stmt := {"kind": "loop", "trip": int>=1, "multi_latch": bool,
             "body": [stmt...]}
          | {"kind": "alu", "op": <ALU_OPS>, "rhs": "iv" | int}
          | {"kind": "cmpsel", "rhs": "iv" | int}
          | {"kind": "load"} | {"kind": "indirect"}
          | {"kind": "store"}
          | {"kind": "prefetch", "offset": int}   # offset optional, 0
          | {"kind": "work", "amount": int>=1}
          | {"kind": "call", "callee": str}

Loops are do-while shaped (the body always runs once), matching every
loop the workload suite builds.  A prefetch's ``offset`` (in elements)
is added to its data index unmasked, so hand-written corpus specs can
aim prefetches outside the array, e.g. below the first segment, where
nothing is mapped; the generator never sets it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.ir.verifier import verify_module
from repro.mem.address import AddressSpace

SPEC_SCHEMA = 1

#: Rolling-value ALU vocabulary (value = op(value, rhs)).
ALU_OPS = (
    "add", "sub", "mul", "div", "rem", "and", "or", "xor",
    "shl", "shr", "min", "max",
)

#: Value mask applied once per loop body so values stay 32-bit-ish and
#: arithmetic cost stays flat no matter how deep the nest runs.
VALUE_MASK = (1 << 32) - 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Size/shape knobs for :func:`generate_spec`.

    Defaults are tuned so one program costs a few thousand simulated
    instructions — small enough that a 50-program differential budget
    (3 engines x tracing on/off x 3 schemes) stays a CI smoke test.
    """

    max_helpers: int = 2          #: callable leaf functions
    max_top_loops: int = 2        #: top-level loops in main
    max_depth: int = 2            #: loop nesting depth
    max_ops: int = 7              #: statements per body
    max_trip: int = 18            #: top-level trip counts
    max_inner_trip: int = 6       #: trip counts at depth >= 1
    data_elems: int = 1024        #: direct-load array (power of two)
    target_elems: int = 2048      #: indirect-target array (power of two)
    allow_calls: bool = True
    allow_multi_latch: bool = True
    allow_stores: bool = True
    allow_prefetch: bool = True


DEFAULT_CONFIG = GeneratorConfig()


# ----------------------------------------------------------------------
# Spec generation
# ----------------------------------------------------------------------
def _gen_stmts(
    rng: random.Random,
    config: GeneratorConfig,
    depth: int,
    helpers: list[str],
) -> list[dict]:
    statements: list[dict] = []
    for _ in range(rng.randint(1, config.max_ops)):
        roll = rng.random()
        if roll < 0.10 and depth < config.max_depth:
            statements.append(_gen_loop(rng, config, depth + 1, helpers))
        elif roll < 0.18:
            statements.append({"kind": "indirect"})
        elif roll < 0.26:
            statements.append({"kind": "load"})
        elif roll < 0.32 and config.allow_stores:
            statements.append({"kind": "store"})
        elif roll < 0.37 and config.allow_prefetch:
            statements.append({"kind": "prefetch"})
        elif roll < 0.42:
            statements.append({"kind": "work", "amount": rng.randint(1, 6)})
        elif roll < 0.47 and helpers:
            statements.append(
                {"kind": "call", "callee": rng.choice(helpers)}
            )
        elif roll < 0.54:
            statements.append(
                {"kind": "cmpsel", "rhs": _gen_rhs(rng, depth)}
            )
        else:
            op = rng.choice(ALU_OPS)
            statements.append(
                {"kind": "alu", "op": op, "rhs": _gen_alu_rhs(rng, op, depth)}
            )
    return statements


def _gen_rhs(rng: random.Random, depth: int):
    if depth > 0 and rng.random() < 0.5:
        return "iv"
    return rng.randint(0, 63)


def _gen_alu_rhs(rng: random.Random, op: str, depth: int):
    if op in ("shl", "shr"):
        return rng.randint(0, 4)  # bounded shifts keep values small
    if op in ("div", "rem"):
        return rng.randint(1, 9)  # never divide by zero
    return _gen_rhs(rng, depth)


def _gen_loop(
    rng: random.Random,
    config: GeneratorConfig,
    depth: int,
    helpers: list[str],
) -> dict:
    trip_cap = config.max_trip if depth <= 1 else config.max_inner_trip
    return {
        "kind": "loop",
        "trip": rng.randint(1, max(1, trip_cap)),
        "multi_latch": config.allow_multi_latch and rng.random() < 0.25,
        "body": _gen_stmts(rng, config, depth, helpers),
    }


def generate_spec(
    seed: int, config: Optional[GeneratorConfig] = None
) -> dict:
    """Generate one program spec from ``seed`` (pure: same seed + config
    -> byte-identical spec)."""
    config = config or DEFAULT_CONFIG
    rng = random.Random(seed)
    functions: list[dict] = []
    helper_names: list[str] = []
    if config.allow_calls:
        for index in range(rng.randint(0, config.max_helpers)):
            name = f"helper{index}"
            body: list[dict] = []
            if rng.random() < 0.8:
                body.append(_gen_loop(rng, config, 1, []))
            body.extend(_gen_stmts(rng, config, 0, []))
            functions.append(
                {"name": name, "params": ["p0"], "body": body}
            )
            helper_names.append(name)

    main_body: list[dict] = []
    main_body.extend(_gen_stmts(rng, config, 0, helper_names))
    for _ in range(rng.randint(1, config.max_top_loops)):
        main_body.append(_gen_loop(rng, config, 1, helper_names))
    functions.append({"name": "main", "params": [], "body": main_body})

    return {
        "schema": SPEC_SCHEMA,
        "seed": rng.randint(0, 2**31),
        "data_elems": config.data_elems,
        "target_elems": config.target_elems,
        "functions": functions,
    }


def spec_digest(spec: dict) -> str:
    """Stable content digest of a spec (corpus file naming)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# Spec -> (module, space)
# ----------------------------------------------------------------------
class _Emitter:
    """Builds one function from its spec; tracks fresh block names and
    the loop induction variables currently in scope."""

    def __init__(self, b: IRBuilder, segments: dict) -> None:
        self.b = b
        self.segments = segments
        self._next_block = 0

    def fresh_block(self, tag: str) -> str:
        name = f"b{self._next_block}.{tag}"
        self._next_block += 1
        return name

    # -- operand helpers ------------------------------------------------
    @staticmethod
    def _iv_or(ivs: list, default: int):
        """Innermost induction variable, or a constant outside loops
        (shrinker-unnested bodies may reference 'iv' at depth 0)."""
        return ivs[-1] if ivs else default

    def _resolve_rhs(self, rhs, ivs: list):
        return self._iv_or(ivs, 3) if rhs == "iv" else rhs

    def _index(self, value, ivs: list, elems: int) -> str:
        """A data index in [0, elems): (value ^ iv) & (elems - 1)."""
        b = self.b
        mixed = b.xor(value, self._iv_or(ivs, 7))
        return b.and_(mixed, elems - 1)

    # -- statement emission --------------------------------------------
    def emit_body(self, statements: list, value, ivs: list):
        b = self.b
        for stmt in statements:
            kind = stmt["kind"]
            if kind == "loop":
                value = self.emit_loop(stmt, value, ivs)
            elif kind == "alu":
                rhs = self._resolve_rhs(stmt["rhs"], ivs)
                value = getattr(b, _ALU_METHOD[stmt["op"]])(value, rhs)
            elif kind == "cmpsel":
                rhs = self._resolve_rhs(stmt["rhs"], ivs)
                cond = b.lt(value, rhs)
                bumped = b.add(value, 1)
                value = b.select(cond, bumped, value)
            elif kind == "load":
                data = self.segments["data"]
                index = self._index(value, ivs, len(data))
                value = b.load(b.gep(data.base, index, 8))
            elif kind == "indirect":
                idx_seg = self.segments["idx"]
                tgt_seg = self.segments["tgt"]
                index = self._index(value, ivs, len(idx_seg))
                target = b.load(b.gep(idx_seg.base, index, 8))
                value = b.load(b.gep(tgt_seg.base, target, 8))
            elif kind == "store":
                data = self.segments["data"]
                index = self._index(value, ivs, len(data))
                b.store(b.gep(data.base, index, 8), value)
            elif kind == "prefetch":
                data = self.segments["data"]
                index = self._index(value, ivs, len(data))
                if stmt.get("offset"):
                    index = b.add(index, stmt["offset"])
                b.prefetch(b.gep(data.base, index, 8))
            elif kind == "work":
                b.work(stmt["amount"])
            elif kind == "call":
                value = b.call(stmt["callee"], [value])
            else:
                raise ValueError(f"unknown statement kind {kind!r}")
        return value

    def emit_loop(self, stmt: dict, value_in, ivs: list):
        b = self.b
        pred = b.current_block
        header = b.block(self.fresh_block("h"))
        exit_block = b.block(self.fresh_block("x"))
        b.jmp(header)
        b.at(header)
        iv = b.phi([(pred, 0)])
        acc = b.phi([(pred, value_in)])

        value = self.emit_body(stmt["body"], acc, ivs + [iv])
        # One mask per iteration bounds value growth (mul/shl chains).
        value = b.and_(value, VALUE_MASK)
        iv_next = b.add(iv, 1)
        cond = b.lt(iv_next, stmt["trip"])
        tail = b.current_block

        if stmt.get("multi_latch"):
            dispatch = b.block(self.fresh_block("d"))
            latch_a = b.block(self.fresh_block("la"))
            latch_b = b.block(self.fresh_block("lb"))
            b.br(cond, dispatch, exit_block)
            b.at(dispatch)
            parity = b.and_(value, 1)
            b.br(parity, latch_a, latch_b)
            b.at(latch_a)
            tweaked = b.xor(value, 2)
            b.jmp(header)
            b.at(latch_b)
            b.jmp(header)
            b.add_incoming(iv, latch_a, iv_next)
            b.add_incoming(iv, latch_b, iv_next)
            b.add_incoming(acc, latch_a, tweaked)
            b.add_incoming(acc, latch_b, value)
        else:
            b.br(cond, header, exit_block)
            b.add_incoming(iv, tail, iv_next)
            b.add_incoming(acc, tail, value)
        b.at(exit_block)
        return value


_ALU_METHOD = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "rem": "rem",
    "and": "and_", "or": "or_", "xor": "xor", "shl": "shl", "shr": "shr",
    "min": "min", "max": "max",
}


def validate_spec(spec: dict) -> None:
    """Raise ``ValueError`` on structurally invalid specs (corpus files
    are external input; fail with a message, not a KeyError)."""
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    if spec.get("schema") != SPEC_SCHEMA:
        raise ValueError(
            f"unsupported spec schema {spec.get('schema')!r} "
            f"(expected {SPEC_SCHEMA})"
        )
    functions = spec.get("functions")
    if not functions or not isinstance(functions, list):
        raise ValueError("spec has no functions")
    names = [f.get("name") for f in functions]
    if "main" not in names:
        raise ValueError("spec has no 'main' function")
    if len(set(names)) != len(names):
        raise ValueError("duplicate function names in spec")
    for elems_key in ("data_elems", "target_elems"):
        elems = spec.get(elems_key, 0)
        if not isinstance(elems, int) or elems < 64 or elems & (elems - 1):
            raise ValueError(
                f"{elems_key} must be a power of two >= 64, got {elems!r}"
            )


def build_program(spec: dict) -> tuple[Module, AddressSpace]:
    """Deterministically build a spec into a finalized, strictly
    verified module plus its (freshly seeded) address space."""
    validate_spec(spec)
    rng = random.Random(spec["seed"])
    data_elems = spec["data_elems"]
    target_elems = spec["target_elems"]

    space = AddressSpace()
    segments = {
        "data": space.allocate(
            "data",
            [rng.randrange(1 << 16) for _ in range(data_elems)],
            elem_size=8,
        ),
        "idx": space.allocate(
            "idx",
            [rng.randrange(target_elems) for _ in range(data_elems)],
            elem_size=8,
        ),
        "tgt": space.allocate(
            "tgt",
            [rng.randrange(1 << 16) for _ in range(target_elems)],
            elem_size=8,
        ),
    }

    module = Module(f"qa-{spec_digest(spec)}")
    b = IRBuilder(module)
    for fspec in spec["functions"]:
        b.function(fspec["name"], params=fspec.get("params", []))
        emitter = _Emitter(b, segments)
        entry = b.block("entry")
        b.at(entry)
        params = fspec.get("params", [])
        value = params[0] if params else 1
        value = emitter.emit_body(fspec["body"], value, [])
        b.ret(value)
    module.finalize()
    verify_module(module, strict=True)
    return module, space

"""Optimization passes over the graph-program IR.

Every pass takes a :class:`~.program.Program` plus the replay-op registry and
rewrites the program in place (returning a stats dict), under one hard
contract: **replayed values must stay bit-identical** to the untransformed
program — which is itself bit-identical to the dynamic engine.  The passes
therefore only perform rewrites whose float semantics are provably unchanged:

* :func:`fuse_spmm_linear` collapses a traced ``spmm → matmul [→ +bias]
  [→ act]`` chain (or the transform-first ``matmul → spmm`` order) into one
  ``spmm_bias_act`` visit.  The fused twin evaluates the *same* products in
  the *same* association order (``prop_first`` is chosen from which op came
  first in the trace, never from FLOP count), adds the bias with the same
  ufunc and applies the activation with the same masked expressions, so
  every float matches.  Fusion requires each intermediate to have exactly
  one consumer: that makes the chain contiguous in the mirrored backward
  DFS, so collapsing it cannot reorder gradient accumulation anywhere else.
* :func:`fuse_elementwise_chains` collapses consecutive runs of
  mask-backward elementwise ops (``relu``/``leaky_relu``/``elu``/
  ``dropout``/``drop_node``, optionally led by a broadcasting
  ``add``/``sub``) into one in-place kernel visit.  Stage masks are drawn
  from the same seeded RNG stream in the same order (members must be
  consecutive tape records), and each stage's backward multiply mirrors the
  dynamic closure exactly.

Passes never fuse epoch-invariant ops — those are better served by constant
folding, which fusion would defeat.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.autograd.ir.program import (IRVerificationError, OpRecord, Program,
                                       SlotInfo, verify_program)

#: Activation kinds (and the meta values kernels hard-code) that the fused
#: ``spmm_bias_act`` twin can apply in place.
_FUSABLE_ACTIVATIONS = {
    "relu": {},
    "leaky_relu": {"negative_slope": 0.2},
    "elu": {"alpha": 1.0},
}

#: Shape-preserving ops whose backward is ``g * stage-local mask`` — safe to
#: run back to back on one buffer.
_CHAIN_STAGES = ("relu", "leaky_relu", "elu", "dropout", "drop_node")

#: Binary ops allowed to lead an elementwise chain (bias add / residual sub).
_CHAIN_LEADERS = ("add", "sub")


def _kill_slot(info: SlotInfo) -> None:
    """Mark a fused-away intermediate: never materialised, never read."""
    info.dead = True
    info.producer = None
    info.tensor = None
    info.variant = False
    info.view_base = None


def _protected_slots(program: Program) -> set:
    return set() if program.loss_slot is None else {program.loss_slot}


def _single_use(op: OpRecord, uses: Dict[int, int], protected: set) -> bool:
    return uses.get(op.out, 0) == 1 and op.out not in protected


def _activation_matches(op: OpRecord) -> bool:
    """The fused kernel hard-codes the functional defaults; require them."""
    expected = _FUSABLE_ACTIVATIONS.get(op.kind)
    if expected is None:
        return False
    return all(op.meta.get(key) == value for key, value in expected.items())


# ---------------------------------------------------------------------------
# spmm + linear fusion
# ---------------------------------------------------------------------------
def _match_spmm_group(program: Program, start: int, uses: Dict[int, int],
                      protected: set):
    """Match ``spmm→matmul`` / ``matmul→spmm`` (+bias, +act) at ``start``.

    Returns ``(members, x_slot, w_slot, bias_slot, activation, prop_first,
    sparse)`` or ``None``.  Members must be consecutive tape records, every
    intermediate single-consumer, and every output epoch-variant (an
    invariant link would otherwise lose constant folding).
    """
    ops, slots = program.ops, program.slots
    first = ops[start]
    if start + 1 >= len(ops):
        return None
    second = ops[start + 1]
    if (first.kind == "spmm" and second.kind == "matmul"
            and second.ins[0] == first.out):
        prop_first = True
        x_slot, w_slot = first.ins[0], second.ins[1]
        sparse = first.meta["sparse"]
    elif (first.kind == "matmul" and second.kind == "spmm"
            and second.ins[0] == first.out):
        prop_first = False
        x_slot, w_slot = first.ins[0], first.ins[1]
        sparse = second.meta["sparse"]
    else:
        return None
    # Both links must be 2-D buffer-mode ops (the fused kernel's contract)
    # and the handoff single-consumer so the collapse is invisible outside.
    if first.mode != "buffer" or second.mode != "buffer":
        return None
    if not _single_use(first, uses, protected):
        return None
    members = [first, second]

    bias_slot = None
    position = start + 2
    if position < len(ops):
        candidate = ops[position]
        if (candidate.kind == "add" and candidate.ins[0] == members[-1].out
                and _single_use(members[-1], uses, protected)
                and len(slots[candidate.ins[1]].shape) == 1
                and slots[candidate.ins[0]].shape == slots[candidate.out].shape):
            bias_slot = candidate.ins[1]
            members.append(candidate)
            position += 1

    activation = None
    if position < len(ops):
        candidate = ops[position]
        if (candidate.kind in _FUSABLE_ACTIVATIONS
                and candidate.ins == (members[-1].out,)
                and _single_use(members[-1], uses, protected)
                and _activation_matches(candidate)):
            activation = candidate.kind
            members.append(candidate)

    if any(not slots[m.out].variant for m in members):
        return None
    return members, x_slot, w_slot, bias_slot, activation, prop_first, sparse


def fuse_spmm_linear(program: Program, registry: Dict[str, object]) -> dict:
    """Collapse propagate/transform(+bias)(+act) chains into ``spmm_bias_act``."""
    impl = registry.get("spmm_bias_act")
    stats = {"pass": "fuse_spmm_linear", "fused": 0, "ops_removed": 0}
    if impl is None:
        return stats
    slots = program.slots
    uses = program.use_counts()
    protected = _protected_slots(program)
    new_ops: List[OpRecord] = []
    index = 0
    ops = program.ops
    while index < len(ops):
        group = _match_spmm_group(program, index, uses, protected)
        if group is None:
            new_ops.append(ops[index])
            index += 1
            continue
        members, x_slot, w_slot, bias_slot, activation, prop_first, sparse = group
        last = members[-1]
        ins = (x_slot, w_slot) if bias_slot is None else (x_slot, w_slot, bias_slot)
        fused = OpRecord(
            kind="spmm_bias_act", impl=impl, out=last.out, ins=ins,
            prev=ins,
            in_requires=tuple(slots[s].requires_grad for s in ins),
            in_shapes=tuple(slots[s].shape for s in ins),
            needs_backward=last.needs_backward,
            meta={"operator": sparse, "activation": activation,
                  "prop_first": prop_first},
            mode="buffer")
        slots[last.out].producer = fused
        for member in members[:-1]:
            _kill_slot(slots[member.out])
        new_ops.append(fused)
        index += len(members)
        stats["fused"] += 1
        stats["ops_removed"] += len(members) - 1
    program.ops = new_ops
    return stats


# ---------------------------------------------------------------------------
# elementwise chain fusion
# ---------------------------------------------------------------------------
def _match_chain(program: Program, start: int, uses: Dict[int, int],
                 protected: set):
    """Match a maximal elementwise chain beginning at op ``start``."""
    ops, slots = program.ops, program.slots
    first = ops[start]
    leader = first.kind if first.kind in _CHAIN_LEADERS else None
    if leader is not None:
        # The chain runs in place on the leader's output buffer, so the
        # leader's broadcast must not change the first operand's shape.
        if (first.mode != "buffer"
                or slots[first.ins[0]].shape != slots[first.out].shape):
            return None
    elif first.kind not in _CHAIN_STAGES:
        return None
    members = [first]
    position = start + 1
    while position < len(ops):
        candidate = ops[position]
        if candidate.kind not in _CHAIN_STAGES:
            break
        if candidate.ins != (members[-1].out,):
            break
        if not _single_use(members[-1], uses, protected):
            break
        if slots[candidate.out].shape != slots[members[0].out].shape:
            break
        members.append(candidate)
        position += 1
    stages = members[1:] if leader is not None else members
    if not stages or len(members) < 2:
        return None
    if any(not slots[m.out].variant for m in members):
        return None
    return members, leader, stages


def fuse_elementwise_chains(program: Program,
                            registry: Dict[str, object]) -> dict:
    """Collapse consecutive elementwise runs into one in-place kernel visit."""
    stats = {"pass": "fuse_elementwise_chains", "fused": 0, "ops_removed": 0}
    plain = registry.get("ew_chain")
    with_rng = registry.get("ew_chain_rng")
    if plain is None or with_rng is None:
        return stats
    slots = program.slots
    uses = program.use_counts()
    protected = _protected_slots(program)
    new_ops: List[OpRecord] = []
    index = 0
    ops = program.ops
    while index < len(ops):
        group = _match_chain(program, index, uses, protected)
        if group is None:
            new_ops.append(ops[index])
            index += 1
            continue
        members, leader, stages = group
        first, last = members[0], members[-1]
        ins = first.ins if leader is not None else (first.ins[0],)
        stage_descs = tuple((stage.kind, stage.meta) for stage in stages)
        impl = (with_rng if any(stage.impl.rng for stage in stages) else plain)
        fused = OpRecord(
            kind="ew_chain", impl=impl, out=last.out, ins=ins,
            prev=ins,
            in_requires=tuple(slots[s].requires_grad for s in ins),
            in_shapes=tuple(slots[s].shape for s in ins),
            needs_backward=last.needs_backward,
            meta={"leader": leader, "stages": stage_descs},
            mode="buffer")
        slots[last.out].producer = fused
        for member in members[:-1]:
            _kill_slot(slots[member.out])
        new_ops.append(fused)
        index += len(members)
        stats["fused"] += 1
        stats["ops_removed"] += len(members) - 1
    program.ops = new_ops
    return stats


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------
DEFAULT_PASSES: Tuple = (fuse_spmm_linear, fuse_elementwise_chains)


def run_passes(program: Program, registry: Dict[str, object],
               passes: Optional[Sequence] = None) -> List[dict]:
    """Run ``passes`` (default pipeline if ``None``) and verify after each."""
    results = []
    for one_pass in (DEFAULT_PASSES if passes is None else passes):
        results.append(one_pass(program, registry))
        verify_program(program)
    return results

"""Graph-program IR tests (repro.autograd.ir).

The IR contract: lowering a traced tape to a Program, verifying it and
running *any* sequence of optimization passes must leave the replayed
trajectory bit-identical to the dynamic engine — fusion changes the
schedule, never the floats.  These tests pin the
verifier's structural invariants, per-pass bit-identity, a property test
over random pass orderings, the fused leaky_relu/elu activations and the
arena pool's cross-member reuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, functional as F, gradcheck, optim, sparse
from repro.autograd.capture import CaptureBailout, Tape, tracing
from repro.autograd.ir import (ArenaPool, IRVerificationError, OpImpl,
                               OpRecord, Program, SlotInfo, global_pool,
                               mark_variance, pooling_disabled, verify_program)
from repro.autograd.ir.passes import (DEFAULT_PASSES, fuse_elementwise_chains,
                                      fuse_spmm_linear)
from repro.autograd.module import Parameter
from repro.autograd.sparse import SparseTensor


def _operator(n=14, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.25).astype(float)
    dense /= np.maximum(dense.sum(axis=1, keepdims=True), 1.0)
    return SparseTensor(dense)


def _fixture(seed=0, n=14, f=6, h=5, c=3):
    rng = np.random.default_rng(seed)
    operator = _operator(n, seed)
    features = Tensor(rng.normal(size=(n, f)))
    targets = rng.integers(0, c, size=n)
    return operator, features, targets


def _make_params(f=6, h=5, c=3, seed=1):
    rng = np.random.default_rng(seed)
    w1 = Parameter(rng.normal(size=(f, h)) * 0.3)
    b1 = Parameter(np.zeros(h))
    w2 = Parameter(rng.normal(size=(h, c)) * 0.3)
    return w1, b1, w2


def _iteration(operator, features, targets, params, optimizer, scheduler, rng):
    """One step whose tape triggers *both* fusion passes.

    ``spmm → matmul → add(bias) → relu`` collapses into one fused
    ``spmm_bias_act`` visit, and ``leaky_relu → dropout`` into one
    elementwise chain.
    """
    w1, b1, w2 = params
    optimizer.zero_grad()
    h = F.dropout(features, 0.15, training=True, rng=rng)
    h = sparse.spmm(operator, h)
    h = h @ w1
    h = h + b1
    h = F.relu(h)
    h = F.leaky_relu(h @ w2)
    h = F.dropout(h, 0.25, training=True, rng=rng)
    loss = F.cross_entropy(h, targets)
    loss.backward()
    optimizer.step()
    scheduler.step()
    return float(loss.item())


def _run(passes, epochs=5, seed=0, replay=True):
    """Trace one iteration, then replay (or re-run dynamically) ``epochs``."""
    operator, features, targets = _fixture(seed)
    params = _make_params(seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    optimizer = optim.Adam(list(params), lr=0.05)
    scheduler = optim.StepLR(optimizer)
    losses = []
    tape = Tape()
    with tracing(tape):
        loss = _iteration(operator, features, targets, params,
                          optimizer, scheduler, rng)
    losses.append(loss)
    program = None
    if replay:
        rep = tape.finalize(optimizer, scheduler, passes=passes)
        assert rep is not None, tape.failure
        program = rep
        for _ in range(epochs):
            losses.append(rep.run_epoch())
    else:
        for _ in range(epochs):
            loss = _iteration(operator, features, targets, params,
                              optimizer, scheduler, rng)
            losses.append(loss)
    weights = [p.data.copy() for p in params]
    if program is not None:
        # Buffers go back to the pool; the Replay object itself stays
        # readable (plan, program, forward_ops) for the assertions.
        program.release()
    return losses, weights, program


# ----------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------
def _noop_impl():
    return OpImpl("noop", forward=lambda op, rt: None)


def _slot(index, shape=(2,), **kwargs):
    return SlotInfo(index=index, shape=shape, dtype=np.dtype(float),
                    requires_grad=False, **kwargs)


def _op(impl, out, ins):
    return OpRecord(kind=impl.kind, impl=impl, out=out, ins=tuple(ins),
                    prev=tuple(ins), in_requires=(False,) * len(ins),
                    in_shapes=((2,),) * len(ins), needs_backward=False)


def test_verifier_accepts_traced_program():
    _, _, replay = _run(passes=None, epochs=1)
    verify_program(replay.program)          # idempotent re-verification


def test_verifier_rejects_redefinition():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1)]
    op1, op2 = _op(impl, 1, [0]), _op(impl, 1, [0])
    slots[1].producer = op1
    program = Program(slots=slots, ops=[op1, op2])
    with pytest.raises(IRVerificationError, match="redefines"):
        verify_program(program)


def test_verifier_rejects_read_before_definition():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1), _slot(2)]
    op1, op2 = _op(impl, 1, [2]), _op(impl, 2, [0])
    slots[1].producer, slots[2].producer = op1, op2
    program = Program(slots=slots, ops=[op1, op2])
    with pytest.raises(IRVerificationError, match="before definition"):
        verify_program(program)


def test_verifier_rejects_dead_slot_reads():
    impl = _noop_impl()
    slots = [_slot(0, dead=True), _slot(1)]
    op = _op(impl, 1, [0])
    slots[1].producer = op
    program = Program(slots=slots, ops=[op])
    with pytest.raises(IRVerificationError, match="dead"):
        verify_program(program)


def test_mark_variance_propagates_from_parameters():
    impl = _noop_impl()
    slots = [_slot(0), _slot(1), _slot(2), _slot(3)]
    slots[0].requires_grad = True
    op1, op2 = _op(impl, 2, [0]), _op(impl, 3, [1])
    slots[2].producer, slots[3].producer = op1, op2
    program = Program(slots=slots, ops=[op1, op2])
    mark_variance(program)
    assert slots[0].variant and slots[2].variant          # downstream of a param
    assert not slots[1].variant and not slots[3].variant  # pure constant chain


# ----------------------------------------------------------------------
# Pass pipeline bit-identity
# ----------------------------------------------------------------------
PASS_CONFIGS = {
    "no-passes": (),
    "spmm-only": (fuse_spmm_linear,),
    "chains-only": (fuse_elementwise_chains,),
    "default": None,
}


@pytest.mark.parametrize("name", sorted(PASS_CONFIGS))
def test_each_pass_is_bit_identical(name):
    dynamic_losses, dynamic_weights, _ = _run(passes=None, replay=False)
    losses, weights, _ = _run(passes=PASS_CONFIGS[name])
    assert losses == dynamic_losses
    for got, want in zip(weights, dynamic_weights):
        assert np.array_equal(got, want)


def test_default_passes_fuse_this_program():
    _, _, replay = _run(passes=None, epochs=1)
    assert replay.plan["ops_fused"] >= 2
    kinds = {op.kind for op in replay.forward_ops}
    assert "spmm_bias_act" in kinds
    assert "ew_chain" in kinds
    chain = next(op for op in replay.forward_ops if op.kind == "ew_chain")
    assert chain.impl.rng                   # the dropout stage draws RNG
    assert [kind for kind, _ in chain.meta["stages"]] == ["leaky_relu", "dropout"]


@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from(["spmm", "chains"]), max_size=4))
def test_random_pass_orderings_never_change_replay_output(order):
    pool = {"spmm": fuse_spmm_linear, "chains": fuse_elementwise_chains}
    passes = tuple(pool[name] for name in order)
    baseline_losses, baseline_weights, _ = _run(passes=(), epochs=3)
    losses, weights, _ = _run(passes=passes, epochs=3)
    assert losses == baseline_losses
    for got, want in zip(weights, baseline_weights):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Fused leaky_relu / elu activations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("activation", ["leaky_relu", "elu"])
def test_fused_activation_matches_composed_ops(activation):
    from repro.autograd import kernels

    operator, features, _ = _fixture(seed=4)
    w = Parameter(np.random.default_rng(5).normal(size=(6, 4)))
    b = Parameter(np.linspace(-0.5, 0.5, 4))
    act = F.leaky_relu if activation == "leaky_relu" else F.elu

    fused = kernels.spmm_bias_act(operator, features, w, b, activation)
    composed = act(sparse.spmm(operator, features @ w) + b)
    assert np.array_equal(fused.data, composed.data)

    fused.sum().backward()
    fused_grads = [w.grad.copy(), b.grad.copy()]
    w.grad = b.grad = None
    composed.sum().backward()
    assert np.array_equal(fused_grads[0], w.grad)
    assert np.array_equal(fused_grads[1], b.grad)


@pytest.mark.parametrize("activation", ["leaky_relu", "elu"])
def test_fused_activation_gradcheck(activation):
    from repro.autograd import kernels

    operator, features, _ = _fixture(seed=6)
    x = Tensor(features.data.copy(), requires_grad=True)
    w = Parameter(np.random.default_rng(7).normal(size=(6, 4)) * 0.5)
    b = Parameter(np.linspace(-0.3, 0.3, 4))
    assert gradcheck(
        lambda x, w, b: kernels.spmm_bias_act(operator, x, w, b, activation).sum(),
        [x, w, b])


# ----------------------------------------------------------------------
# Replay preconditions
# ----------------------------------------------------------------------
def test_replay_bails_on_shape_change():
    operator, features, targets = _fixture()
    params = _make_params()
    optimizer = optim.Adam(list(params), lr=0.05)
    scheduler = optim.StepLR(optimizer)
    tape = Tape()
    with tracing(tape):
        _iteration(operator, features, targets, params, optimizer, scheduler,
                   np.random.default_rng(2))
    replay = tape.finalize(optimizer, scheduler)
    assert replay is not None, tape.failure
    slot, tensor = replay.leaves[0]
    original = tensor.data
    try:
        tensor.data = np.zeros(tuple(s + 1 for s in original.shape),
                               original.dtype)
        with pytest.warns(Warning, match="changed"):
            with pytest.raises(CaptureBailout):
                replay.run_epoch()
    finally:
        tensor.data = original
        replay.release()


# ----------------------------------------------------------------------
# Arena pool
# ----------------------------------------------------------------------
def test_arena_pool_reuses_released_buffers():
    pool = ArenaPool()
    first = pool.lease((8, 4), np.float64)
    pool.release([first])
    second = pool.lease((8, 4), np.float64)
    assert second is first
    other = pool.lease((8, 5), np.float64)
    assert other is not first
    stats = pool.stats()
    assert stats["leases"] == 3
    assert stats["reuses"] == 1
    assert stats["reused_bytes"] == first.nbytes


def test_arena_pool_disabled_never_recycles():
    pool = ArenaPool()
    first = pool.lease((8, 4), np.float64)
    pool.release([first])
    with pooling_disabled(pool):
        second = pool.lease((8, 4), np.float64)
        assert second is not first
    assert pool.enabled


def test_arena_pool_bounds_retained_bytes():
    pool = ArenaPool(max_retained_bytes=100)
    big = pool.lease((64, 64), np.float64)
    pool.release([big])
    assert pool.stats()["retained_bytes"] == 0      # dropped, over the bound
    small = pool.lease((2,), np.float64)
    pool.release([small])
    assert pool.stats()["retained_bytes"] == small.nbytes


def test_sequential_replays_share_pool_storage():
    pool = global_pool()
    pool.clear()
    pool.reset_stats()
    base_outstanding = pool.stats()["outstanding_bytes"]
    for seed in range(3):
        _run(passes=None, epochs=2, seed=seed)      # releases on return
    stats = pool.stats()
    assert stats["reuses"] > 0
    # Members 2 and 3 recycle member 1's storage: the peak of simultaneously
    # leased bytes stays at one program's footprint, far below the total
    # demand the three programs expressed.
    demand = stats["allocated_bytes"] + stats["reused_bytes"]
    assert stats["high_water_bytes"] - base_outstanding < demand
    assert stats["outstanding_bytes"] == base_outstanding

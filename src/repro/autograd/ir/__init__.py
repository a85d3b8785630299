"""Graph-program IR for the capture-and-replay engine.

The traced tape lowers to a :class:`~repro.autograd.ir.program.Program`
(typed ops with explicit slot def/use metadata), gets verified, runs
through the optimization pass pipeline
(:mod:`repro.autograd.ir.passes`: operator fusion)
and plans its buffers through the cross-member arena pool
(:mod:`repro.autograd.ir.arena`).
"""

from repro.autograd.ir.arena import (ArenaPool, global_pool, plan_arena,
                                     pooling_disabled)
from repro.autograd.ir.passes import (DEFAULT_PASSES, fuse_elementwise_chains,
                                      fuse_spmm_linear, run_passes)
from repro.autograd.ir.program import (IRVerificationError, OpImpl, OpRecord,
                                       Program, SlotInfo, mark_variance,
                                       verify_program)

__all__ = [
    "ArenaPool", "global_pool", "plan_arena", "pooling_disabled",
    "DEFAULT_PASSES", "fuse_elementwise_chains", "fuse_spmm_linear",
    "run_passes",
    "IRVerificationError", "OpImpl", "OpRecord", "Program", "SlotInfo",
    "mark_variance", "verify_program",
]

"""Gated linear attention kernels in three equivalent computation forms.

Recurrent (the ground truth), parallel (quadratic, for cross-validation)
and chunkwise-parallel (the production path), each with analytic backward
passes, plus the finite-difference oracle that arbitrates all of them and
an exact flop / state-traffic cost model for the chunkwise scheduling
policies.
"""

from .chunkwise import (ChunkPolicy, CostReport, backward_chunkwise,
                        forward_chunkwise, predict_cost)
from .checks import (CheckReport, check_causality, check_equivalence,
                     check_gradients, max_abs, rel_err)
from .fixtures import ModelKind, SplitMix64, make_instance
from .gates import ChunkPlan, GateSeq, chunk_relative_decays, cumulative_log_decay
from .parallel import backward_parallel, forward_parallel, parallel_forward_cost
from .recurrent import (ForwardTrace, GlaInstance, GradBundle,
                        backward_recurrent_exact, backward_recurrent_fd,
                        forward_recurrent, recurrent_forward_cost)
from .runconfig import RunConfig, format_config, parse_config
from .tensor import SeqTensor, mm, suffix_sum_arr
from .tensorfile import TensorFileError, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "ChunkPlan", "ChunkPolicy", "CheckReport", "CostReport",
    "ForwardTrace", "GateSeq",
    "GlaInstance", "GradBundle", "ModelKind", "RunConfig", "SeqTensor",
    "SplitMix64", "TensorFileError",
    "backward_chunkwise", "backward_parallel", "backward_recurrent_exact",
    "backward_recurrent_fd", "check_causality", "check_equivalence",
    "check_gradients", "chunk_relative_decays", "cumulative_log_decay",
    "format_config", "forward_chunkwise", "forward_parallel",
    "forward_recurrent", "make_instance", "max_abs", "mm",
    "parallel_forward_cost", "parse_config", "predict_cost", "read_tensor",
    "recurrent_forward_cost", "rel_err", "suffix_sum_arr", "write_tensor",
]

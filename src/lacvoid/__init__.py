"""L2 adaptive computation over sequential layer stacks.

Detects unactivated layers ("voids") per example or per token by
thresholding the change each layer makes to the activation L2 norm,
optionally skips or masks them, records per-token traces, and
aggregates usage and norm statistics.
"""

from .analysis import LayerUsageReport, NormProfile, alpha_sweep, export_reports, norm_profile, usage_report
from .container import load_container, save_container
from .errors import ContainerError, NonFiniteError, ShapeError, TraceError
from .executor import ExecutionOutcome, run_stack
from .halting import HaltPolicy, SkipMode, offline_void_mask
from .model import (
    EOT,
    GenerationState,
    ModelConfig,
    ToyTransformer,
    build_model,
    decode_tokens,
    encode_text,
    generate,
    load_weights,
    run_prompt,
    save_weights,
)
from .tensors import NormGranularity, l2_norm, layer_norm_pre
from .trace import PHASE_PP, PHASE_RG, TraceColumns, TraceRecord, read_trace, render_bitmap, write_trace

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NormGranularity", "l2_norm", "layer_norm_pre",
    "SkipMode", "HaltPolicy", "offline_void_mask",
    "ExecutionOutcome", "run_stack",
    "EOT", "ModelConfig", "ToyTransformer", "GenerationState",
    "build_model", "save_weights", "load_weights", "run_prompt", "generate",
    "encode_text", "decode_tokens",
    "TraceRecord", "TraceColumns", "PHASE_PP", "PHASE_RG", "write_trace", "read_trace", "render_bitmap",
    "LayerUsageReport", "NormProfile", "usage_report", "norm_profile", "alpha_sweep", "export_reports",
    "save_container", "load_container",
    "ShapeError", "NonFiniteError", "ContainerError", "TraceError",
]

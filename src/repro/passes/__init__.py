"""Optimization passes of the Concord reproduction compiler."""

from .constfold import constant_fold
from .cse import common_subexpression_elimination
from .dce import dead_code_elimination
from .devirt import expand_virtual_calls
from .inline import inline_all_calls, make_inliner
from .l3opt import reduce_cacheline_contention
from .mem2reg import promote_memory_to_registers
from .pipeline import CONFIGS, OptConfig, PassManager, kernel_pipeline, standard_pipeline
from .ptropt import optimize_pointer_translations
from .simplifycfg import simplify_cfg
from .svmlower import lower_svm_pointers
from .tailrec import eliminate_tail_recursion, has_nontail_recursion
from .unroll import unroll_loops

__all__ = [
    "CONFIGS",
    "OptConfig",
    "PassManager",
    "common_subexpression_elimination",
    "constant_fold",
    "dead_code_elimination",
    "eliminate_tail_recursion",
    "expand_virtual_calls",
    "has_nontail_recursion",
    "inline_all_calls",
    "kernel_pipeline",
    "lower_svm_pointers",
    "make_inliner",
    "optimize_pointer_translations",
    "promote_memory_to_registers",
    "reduce_cacheline_contention",
    "simplify_cfg",
    "standard_pipeline",
    "unroll_loops",
]

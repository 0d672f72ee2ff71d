"""repro — a full reproduction of "Fine-Tuning Language Models Using Formal
Methods Feedback" (DPO-AF, MLSys 2024) built from scratch in Python.

Sub-packages
------------
``repro.automata``
    Transition-system world models, FSA controllers, products, Büchi automata.
``repro.logic``
    LTL: AST, parser, NNF, LTL→Büchi translation, finite-trace semantics.
``repro.modelcheck``
    The NuSMV-substitute LTL model checker.
``repro.glm2fsa``
    Semantic parsing and alignment of step-by-step responses into controllers.
``repro.driving``
    The autonomous-driving domain: vocabulary, rule book, scenarios, tasks.
``repro.lm`` / ``repro.dpo``
    The numpy language model (with LoRA) and the DPO trainer.
``repro.feedback``
    Formal-verification and empirical (trace-based) feedback plus ranking.
``repro.sim`` / ``repro.perception``
    The Carla-substitute simulator and the simulated perception stack.
``repro.serving``
    Batched, cached, deduplicated feedback scoring (the verification service).
``repro.core``
    The end-to-end DPO-AF pipeline and its configuration.
"""

from repro.core.config import PipelineConfig, paper_scale_config, quick_pipeline_config
from repro.core.pipeline import DPOAFPipeline

__version__ = "1.0.0"

__all__ = ["DPOAFPipeline", "PipelineConfig", "paper_scale_config", "quick_pipeline_config", "__version__"]

"""The DPO-AF pipeline: configuration and orchestration."""

from repro.core.config import (
    FeedbackConfig,
    PipelineConfig,
    SamplingConfig,
    paper_scale_config,
    quick_pipeline_config,
)
from repro.core.pipeline import DPOAFPipeline, ModelEvaluation, PipelineResult, TaskEvaluation
from repro.core.system_model import conservative_driving_model

__all__ = [
    "FeedbackConfig",
    "PipelineConfig",
    "SamplingConfig",
    "paper_scale_config",
    "quick_pipeline_config",
    "DPOAFPipeline",
    "ModelEvaluation",
    "PipelineResult",
    "TaskEvaluation",
    "conservative_driving_model",
]

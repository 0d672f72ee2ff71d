"""End-to-end DPO-AF: fine-tune the language model with formal-methods feedback.

Runs the full Figure-2 pipeline at paper scale (``paper_scale_config``, under
a minute on a laptop CPU): pre-train the numpy language model on the synthetic
driving corpus, sample responses for every training task, rank them by model
checking, run DPO with LoRA, and report specification satisfaction before vs
after fine-tuning.

Run with::

    python examples/finetune_driving.py
"""

from repro.core import DPOAFPipeline
from repro.core.config import paper_scale_config


def main() -> None:
    print("Running DPO-AF (pre-train → sample → verify → rank → DPO) ...")
    with DPOAFPipeline(paper_scale_config(0)) as pipeline:
        result = pipeline.run(evaluate_checkpoints=True)

    history = result.dpo_result.history
    print(f"\nCollected {len(result.preference_pairs)} preference pairs "
          f"(LoRA trainable fraction: {result.dpo_result.lora_summary['trainable_fraction']:.1%})")
    print(f"DPO loss {history.losses[0]:.3f} -> {history.losses[-1]:.3f}; "
          f"accuracy -> {history.accuracies[-1]:.2f}; marginal preference -> {history.marginal_preferences[-1]:.2f}")

    before = result.before_evaluation
    after = result.after_evaluation
    print(f"\nSpecification satisfaction before fine-tuning: {before.satisfaction_ratio():.1%}")
    print(f"Specification satisfaction after fine-tuning:  {after.satisfaction_ratio():.1%}")

    print("\nSatisfied specifications (of 15) per checkpoint epoch:")
    for epoch, evaluation in sorted(result.checkpoint_evaluations.items()):
        print(f"  epoch {epoch:3d}: train {evaluation.mean_satisfied('train'):5.2f}   "
              f"validation {evaluation.mean_satisfied('validation'):5.2f}")


if __name__ == "__main__":
    main()

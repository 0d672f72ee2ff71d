"""The DPO fine-tuning loop with LoRA and periodic checkpoints."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import tracer as obs
from repro.dpo.dataset import DPODataset
from repro.dpo.loss import dpo_step
from repro.dpo.metrics import TrainingHistory
from repro.errors import TrainingError
from repro.lm.layers import DTYPE
from repro.lm.lora import LoRAConfig, apply_lora
from repro.lm.optim import Adam
from repro.lm.shards import TrainingShards
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import TransformerLM, target_widths
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class DPOConfig:
    """Hyper-parameters of the DPO fine-tuning stage."""

    beta: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 8
    num_epochs: int = 40
    checkpoint_every: int = 4          # in epochs, mirroring the paper's every-20-epochs checkpoints
    max_steps: int | None = None       # optional hard cap on descent steps
    lora_rank: int = 4
    seed: int = 0


@dataclass
class DPOResult:
    """Everything produced by one fine-tuning run."""

    policy: TransformerLM
    reference: TransformerLM
    history: TrainingHistory
    checkpoints: dict = field(default_factory=dict)   # epoch -> state_dict
    lora_summary: dict = field(default_factory=dict)
    # Training throughput: {"steps", "pairs", "seconds", "steps_per_second",
    # "pairs_per_second"} — the DPO benchmark lane reads these.
    throughput: dict = field(default_factory=dict)

    def checkpoint_epochs(self) -> list:
        """Epochs with a stored policy snapshot, ascending (0 is the start)."""
        return sorted(self.checkpoints)

    def model_at_epoch(self, epoch: int) -> TransformerLM:
        """Reconstruct the policy as it was at a stored checkpoint."""
        if epoch not in self.checkpoints:
            raise TrainingError(f"no checkpoint at epoch {epoch}; available: {self.checkpoint_epochs()}")
        model = self.policy.clone()
        model.load_state_dict(self.checkpoints[epoch])
        return model


class ReferenceMemo:
    """The frozen reference's log-probs, computed once per distinct sequence.

    DPO's reference policy never changes, so a log-prob computed once stays
    exact for every epoch.  The memo stands in for the reference model in
    :func:`~repro.dpo.loss.dpo_step`, which only calls
    :meth:`sequence_log_probs`.

    It stores *per-token* values from :meth:`TransformerLM.token_log_probs`,
    not per-sequence sums: numpy's pairwise row sum pairs its terms by the
    padded width, so a cached sum would drift from the in-batch value in the
    last bits.  Per-token values are row-stable, so re-summing them under each
    batch's mask, at that batch's width, gives bitwise what the live model
    returns.
    """

    def __init__(self, model: TransformerLM):
        self.model = model
        self._per_token: dict = {}  # row prefix bytes -> per-token log-probs

    def sequence_log_probs(self, tokens, response_mask) -> np.ndarray:
        """``model.sequence_log_probs(tokens, response_mask)``, from the memo.

        A row is keyed on its tokens up to its last masked target: causality
        makes its values there depend on nothing after it.  Rows not seen
        before run through the model in one forward — at most this batch's
        rows — under a ``dpo.reference_forward`` span.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        needed = target_widths(response_mask)
        keys = [tokens[row, : count + 1].tobytes() for row, count in enumerate(needed)]
        missing = {}
        for row, key in enumerate(keys):
            if needed[row] and key not in self._per_token:
                missing.setdefault(key, row)
        if missing:
            rows = list(missing.values())
            with obs.span("dpo.reference_forward", category="train", rows=len(rows)):
                values = self.model.token_log_probs(tokens[rows, : int(needed[rows].max()) + 1])
            for key, row, row_values in zip(missing, rows, values):
                self._per_token[key] = row_values[: needed[row]].copy()

        per_token = np.zeros(np.shape(response_mask), dtype=DTYPE)
        for row, key in enumerate(keys):
            if needed[row]:
                per_token[row, : needed[row]] = self._per_token[key]
        return (per_token * response_mask).sum(axis=1)


class DPOTrainer:
    """Runs DPO on a pre-trained policy against a frozen reference copy.

    The reference model is a deep copy of the pre-trained policy taken before
    any update (the ``π_ref`` of the DPO objective).  LoRA adapters of rank
    ``lora_rank`` are applied to the policy, its base weights are frozen and
    only the adapters are updated, following Appendix E.  Frozen parameters
    receive no gradient: the policy's gradients start cleared and only the
    adapters' ever accumulate.
    """

    def __init__(self, model: TransformerLM, tokenizer: Tokenizer, config: DPOConfig | None = None):
        self.config = config or DPOConfig()
        self.tokenizer = tokenizer
        self.policy = model
        self.reference = model.clone()
        self.lora_summary = apply_lora(
            self.policy, LoRAConfig(rank=self.config.lora_rank, seed=self.config.seed)
        )
        self.policy.zero_grad()
        self.optimizer = Adam(self.policy.parameters(), learning_rate=self.config.learning_rate)

    # ------------------------------------------------------------------ #
    def train(self, dataset: DPODataset) -> DPOResult:
        """Fine-tune on a tokenised preference dataset.

        Every epoch shuffles ``dataset`` with the config seed's generator and
        takes one optimiser step per mini-batch.  The policy is checkpointed
        before training, every ``checkpoint_every`` epochs and after the last
        epoch; ``max_steps`` ends training early, after checkpointing the
        epoch it stopped in.  Reference log-probs come from a
        :class:`ReferenceMemo`, so the reference model runs only on sequences
        it has not seen — in the first epoch.  Each step's length groups are
        split between this process and one worker
        (:class:`repro.lm.shards.TrainingShards`) that lives as long as this
        call.  A token id outside the policy's vocabulary raises
        :class:`TrainingError` naming its pair.
        """
        if len(dataset) == 0:
            raise TrainingError("cannot run DPO on an empty preference dataset")
        vocab_size = self.policy.config.vocab_size
        for index, pair in enumerate(dataset.pairs):
            bad = [token for token in (*pair.chosen_ids, *pair.rejected_ids) if not 0 <= token < vocab_size]
            if bad:
                raise TrainingError(
                    f"preference pair {index} (task {pair.task!r}) holds token id {bad[0]}, "
                    f"outside the policy's vocabulary of {vocab_size}"
                )

        config = self.config
        max_steps = config.max_steps if config.max_steps is not None else float("inf")
        rng = seeded_rng(config.seed)
        history = TrainingHistory()
        checkpoints: dict = {0: self.policy.state_dict()}
        reference = ReferenceMemo(self.reference)
        total_steps = total_pairs = 0
        started = time.perf_counter()

        with TrainingShards(self.policy, max_groups=2 * config.batch_size) as shards:
            for epoch in range(1, config.num_epochs + 1):
                for batch in dataset.batches(config.batch_size, rng=rng, shuffle=True):
                    with obs.span("dpo.step", category="train", epoch=epoch, step=total_steps + 1):
                        self.optimizer.zero_grad()
                        metrics = dpo_step(self.policy, reference, batch, beta=config.beta, shards=shards)
                        with obs.span("optim.step", category="train"):
                            grad_norm = self.optimizer.step()
                    history.record(metrics, grad_norm)
                    total_steps += 1
                    total_pairs += int(len(batch["indices"]))
                    if total_steps >= max_steps:
                        break
                history.mark_epoch()
                stopping = total_steps >= max_steps
                if stopping or epoch % config.checkpoint_every == 0 or epoch == config.num_epochs:
                    checkpoints[epoch] = self.policy.state_dict()
                if stopping:
                    break

        seconds = time.perf_counter() - started
        return DPOResult(
            policy=self.policy,
            reference=self.reference,
            history=history,
            checkpoints=checkpoints,
            lora_summary=self.lora_summary,
            throughput={
                "steps": total_steps,
                "pairs": total_pairs,
                "seconds": seconds,
                "steps_per_second": total_steps / seconds if seconds > 0 else 0.0,
                "pairs_per_second": total_pairs / seconds if seconds > 0 else 0.0,
            },
        )


def run_dpo(
    model: TransformerLM,
    tokenizer: Tokenizer,
    preference_pairs,
    config: DPOConfig | None = None,
    *,
    max_seq_len: int | None = None,
) -> DPOResult:
    """Convenience wrapper: encode pairs, build a trainer, and train."""
    config = config or DPOConfig()
    dataset = DPODataset.from_preference_pairs(
        preference_pairs,
        tokenizer,
        max_seq_len=max_seq_len or model.config.max_seq_len,
    )
    trainer = DPOTrainer(model, tokenizer, config)
    return trainer.train(dataset)

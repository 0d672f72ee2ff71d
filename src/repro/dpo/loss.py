"""The direct-preference-optimization objective (Rafailov et al., 2023).

For a preference pair ``(x, y_w, y_l)`` the DPO loss is::

    L = -log σ( β [ (log π(y_w|x) - log π_ref(y_w|x))
                  - (log π(y_l|x) - log π_ref(y_l|x)) ] )

The three reported metrics follow Section 5.2 of the paper:

* **loss** — the mean of ``L`` over the batch,
* **accuracy** — how often the policy assigns the preferred response a higher
  likelihood than the rejected one, ``I(P(y_w|x,θ) > P(y_l|x,θ))``,
* **marginal preference** — the mean of the bracketed margin (0 = indifferent,
  positive = prefers the chosen response more than the reference model does).

:func:`dpo_step` stacks the chosen and rejected sequences into one ``(2B, T)``
batch per model, so a step costs one policy forward+backward and one
reference call: a forward of the reference model, or, under
:class:`~repro.dpo.trainer.DPOTrainer`, a lookup in its
:class:`~repro.dpo.trainer.ReferenceMemo`.  Stacking is loss- and
gradient-exact: the response mask zeroes every padded target position, and
with zero ``dlogits`` there the pad rows contribute nothing to any parameter
gradient.  (Summation order over the doubled batch may differ in the last
float bit from running each half on its own, which is why the two-pass
oracle in the test suite compares with ``allclose`` rather than ``==``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lm.transformer import TransformerLM


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


@dataclass(frozen=True)
class DPOBatchMetrics:
    """Metrics of one DPO step."""

    loss: float
    accuracy: float
    marginal_preference: float
    chosen_log_prob: float
    rejected_log_prob: float

    def as_dict(self) -> dict:
        return {
            "loss": self.loss,
            "accuracy": self.accuracy,
            "marginal_preference": self.marginal_preference,
            "chosen_log_prob": self.chosen_log_prob,
            "rejected_log_prob": self.rejected_log_prob,
        }


def stack_pair_batch(batch: dict) -> tuple:
    """Stack a preference batch's chosen and rejected halves into one batch.

    Returns ``(tokens, mask)`` of shapes ``(2B, T)`` / ``(2B, T - 1)`` with the
    ``B`` chosen rows first.  Both halves are right-padded to the common
    length with token id 0 (the tokenizer's PAD) and mask 0 — the pad value is
    arbitrary for correctness because masked target positions carry zero loss
    *and* zero gradient, but 0 keeps the arrays identical to what the dataset
    padder would have produced at the wider length.
    """
    chosen_tokens, chosen_mask = batch["chosen_tokens"], batch["chosen_mask"]
    rejected_tokens, rejected_mask = batch["rejected_tokens"], batch["rejected_mask"]
    width = max(chosen_tokens.shape[1], rejected_tokens.shape[1])

    def widen(array: np.ndarray, columns: int) -> np.ndarray:
        short = columns - array.shape[1]
        if short == 0:
            return array
        return np.pad(array, ((0, 0), (0, short)))

    tokens = np.concatenate([widen(chosen_tokens, width), widen(rejected_tokens, width)])
    mask = np.concatenate([widen(chosen_mask, width - 1), widen(rejected_mask, width - 1)])
    return tokens, mask


def dpo_step(
    policy: TransformerLM,
    reference: TransformerLM,
    batch: dict,
    *,
    beta: float = 0.5,
    backward: bool = True,
    shards=None,
) -> DPOBatchMetrics:
    """Compute the DPO loss for one batch and (optionally) accumulate gradients.

    The gradient of the loss with respect to the policy's per-sequence
    log-probability is ``-β σ(-βh)/B`` for the chosen response and the opposite
    sign for the rejected response, where ``h`` is the preference margin.
    Both halves run as one stacked batch per model, and one backward closure
    applies both coefficient signs at once.  ``reference`` is anything with
    the model's ``sequence_log_probs(tokens, mask)``: the frozen model itself
    or a :class:`~repro.dpo.trainer.ReferenceMemo` of it.  ``shards`` is the
    training loop's :class:`~repro.lm.shards.TrainingShards`, if any.
    """
    tokens, mask = stack_pair_batch(batch)

    # Reference (frozen) log-probabilities — never receive gradients.
    ref_chosen, ref_rejected = np.split(reference.sequence_log_probs(tokens, mask), 2)

    if backward and shards is not None:
        policy_both, backward_fn = policy.sequence_log_probs_with_grad(tokens, mask, shards=shards)
    elif backward:
        policy_both, backward_fn = policy.sequence_log_probs_with_grad(tokens, mask)
    else:
        policy_both = policy.sequence_log_probs(tokens, mask)
        backward_fn = None
    policy_chosen, policy_rejected = np.split(policy_both, 2)

    margin = (policy_chosen - ref_chosen) - (policy_rejected - ref_rejected)
    h = beta * margin
    losses = -np.log(np.clip(sigmoid(h), 1e-12, None))
    coefficient = sigmoid(-h) * beta / h.shape[0]

    if backward:
        # One pass through the model: the chosen half descends (-c), the
        # rejected half ascends (+c).
        backward_fn(np.concatenate([-coefficient, coefficient]))

    return DPOBatchMetrics(
        loss=float(np.mean(losses)),
        accuracy=float(np.mean(policy_chosen > policy_rejected)),
        marginal_preference=float(np.mean(margin)),
        chosen_log_prob=float(np.mean(policy_chosen)),
        rejected_log_prob=float(np.mean(policy_rejected)),
    )

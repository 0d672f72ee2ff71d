"""Pairwise preference construction from automated feedback (Section 4.3).

For every task prompt with ``m`` sampled responses, any two responses whose
feedback differs produce one preference data point ``(x, y_w, y_l)`` — up to
``N · C(m, 2)`` points for ``N`` tasks, as the paper notes.

Order independence
------------------
:func:`rank_to_pairs` is *canonical*: its output — the pair list itself, not
just the pair set — depends only on the multiset of ``(response, score)``
items, never on the order they arrive in.  Responses are ranked by score
(descending) with ties broken by :func:`response_fingerprint`, a SHA-256
digest of the response text, and pairs are enumerated over that canonical
ranking.  Two items that compare equal under the sort key are literally the
same ``(response, score)`` pair, so their relative order cannot matter.

This property is what makes the pairs independent of how the scores were
obtained: the pipeline ranks each task's batch as its
:meth:`~repro.serving.scheduler.FeedbackService.submit_batch` handle
resolves, ``repro-serve --pairs-output`` ranks records grouped from a file in
any order, and both build exactly the pairs a blocking ``score_batch`` loop
would have.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


@dataclass(frozen=True)
class PreferencePair:
    """One DPO data point: prompt, preferred response, rejected response."""

    prompt: str
    chosen: str
    rejected: str
    chosen_score: float = 0.0
    rejected_score: float = 0.0
    task: str = ""

    @property
    def margin(self) -> float:
        """Feedback margin between the two responses."""
        return self.chosen_score - self.rejected_score


def response_fingerprint(response: str) -> str:
    """Stable content digest of one response, used as the canonical tie-break.

    Ranking by score alone leaves the order of equally scored responses up to
    the caller's input order; breaking ties on this SHA-256 hex digest of the
    raw response text instead makes the ranking — and therefore
    :func:`rank_to_pairs` output — a pure function of the response *contents*.
    """
    return hashlib.sha256(response.encode("utf-8")).hexdigest()


def canonical_ranking(responses: Sequence[str], scores: Sequence) -> list:
    """Indices of ``responses`` ranked best-first, independent of input order.

    Sorted by score descending, then :func:`response_fingerprint` ascending.
    Duplicated ``(response, score)`` items compare equal and are
    interchangeable, so any permutation of the inputs yields the same ranked
    sequence of items.
    """
    return sorted(
        range(len(responses)),
        key=lambda i: (-float(scores[i]), response_fingerprint(responses[i])),
    )


def rank_to_pairs(
    prompt: str,
    responses: Sequence[str],
    scores: Sequence[float],
    *,
    task: str = "",
) -> list:
    """Turn scored responses into preference pairs, canonically ordered.

    Every two responses whose scores differ produce one
    :class:`PreferencePair` oriented toward the higher score; ties carry no
    preference information for DPO and produce no pair.  Pairs are
    enumerated over the :func:`canonical_ranking` of the inputs, so the
    returned *list* (content and order) is invariant under any permutation
    of ``(responses, scores)`` — the property that makes completion-order
    pair construction safe (see the module docstring), and one the test
    suite property-tests over random permutations.

    Parameters
    ----------
    prompt:
        The task prompt ``x`` shared by every pair.
    responses, scores:
        Parallel sequences of sampled responses and their feedback scores
        (typically the number of satisfied specifications).
    task:
        Optional task name stamped on each pair for provenance.
    """
    if len(responses) != len(scores):
        raise ValueError(f"got {len(responses)} responses but {len(scores)} scores")
    ranking = canonical_ranking(responses, scores)
    pairs = []
    for a, b in combinations(ranking, 2):
        # ``a`` precedes ``b`` in the canonical ranking, so scores[a] >=
        # scores[b]; only a strict difference carries a preference.
        if scores[a] == scores[b]:
            continue
        pairs.append(
            PreferencePair(
                prompt=prompt,
                chosen=responses[a],
                rejected=responses[b],
                chosen_score=float(scores[a]),
                rejected_score=float(scores[b]),
                task=task,
            )
        )
    return pairs


def max_pairs(num_tasks: int, responses_per_task: int) -> int:
    """The paper's bound ``N · C2(m)`` on the number of preference points."""
    m = responses_per_task
    return num_tasks * (m * (m - 1)) // 2

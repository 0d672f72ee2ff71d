"""Synthetic pre-training corpus of driving instructions.

The paper starts from Llama2-7B, which already produces numbered driving
instructions of *mixed* quality (roughly 60% specification satisfaction before
fine-tuning).  Our numpy model acquires the same prior by being pre-trained on
a corpus sampled from the response template library with the
``PRETRAINED_MIXTURE`` category weights — so before DPO it emits compliant,
flawed and vague responses in about the same proportion the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.driving.responses import PRETRAINED_MIXTURE, sample_mixture_response
from repro.driving.tasks import DrivingTask, task_prompt, training_tasks
from repro.lm.tokenizer import Tokenizer
from repro.utils.rng import seeded_rng


def format_prompt(task: DrivingTask | str) -> str:
    """The textual prompt the language model is conditioned on.

    Mirrors the paper's prompt format (Section 4.1): ``Steps for "<task>"``
    followed by a colon; the response continues on the next lines.
    """
    prompt = task_prompt(task) if isinstance(task, DrivingTask) else f'Steps for "{task}"'
    return f"{prompt} :"


def format_document(prompt: str, response: str) -> str:
    """One training document: prompt, newline, response."""
    return f"{prompt}\n{response}"


@dataclass
class CorpusExample:
    """A single (task, category, prompt, response) corpus record."""

    task: str
    category: str
    prompt: str
    response: str

    @property
    def document(self) -> str:
        return format_document(self.prompt, self.response)


@dataclass
class Corpus:
    """A pre-training corpus plus the tokenizer fitted on it."""

    examples: list = field(default_factory=list)
    tokenizer: Tokenizer = None

    @property
    def documents(self) -> list:
        return [example.document for example in self.examples]

    def category_counts(self) -> dict:
        counts: dict = {}
        for example in self.examples:
            counts[example.category] = counts.get(example.category, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.examples)


def build_corpus(
    *,
    tasks=None,
    samples_per_task: int = 40,
    mixture: dict | None = None,
    seed: int = 0,
) -> Corpus:
    """Sample a pre-training corpus and fit a tokenizer over it.

    Parameters
    ----------
    tasks:
        Tasks to draw prompts from; defaults to the training split.
    samples_per_task:
        Number of (prompt, response) documents per task.
    mixture:
        Category mixture; defaults to :data:`PRETRAINED_MIXTURE`.
    """
    rng = seeded_rng(seed)
    tasks = list(tasks) if tasks is not None else list(training_tasks())
    mixture = dict(mixture) if mixture is not None else dict(PRETRAINED_MIXTURE)

    examples: list[CorpusExample] = []
    for task in tasks:
        prompt = format_prompt(task)
        for _ in range(samples_per_task):
            category, response = sample_mixture_response(task.name, mixture, seed=rng)
            examples.append(CorpusExample(task=task.name, category=category, prompt=prompt, response=response))

    # The tokenizer must also cover every template and every prompt (including
    # validation prompts) so that later sampling and scoring never degenerate
    # to <unk> purely because of vocabulary gaps.
    from repro.driving.responses import RESPONSE_LIBRARY, VAGUE_RESPONSES
    from repro.driving.tasks import all_tasks

    vocabulary_texts = [example.document for example in examples]
    vocabulary_texts.extend(format_prompt(t) for t in all_tasks())
    for per_task in RESPONSE_LIBRARY.values():
        for templates in per_task.values():
            vocabulary_texts.extend(templates)
    vocabulary_texts.extend(VAGUE_RESPONSES)

    tokenizer = Tokenizer.fit(vocabulary_texts)
    return Corpus(examples=examples, tokenizer=tokenizer)

"""The parse memo: each distinct step line is aligned and parsed once per process.

:func:`parse_response` looks every numbering-stripped line up in a bounded
LRU keyed by ``(line, aligned)``; a line that cannot be aligned is memoized
as ``None`` and still skipped.  Each test starts from an empty memo.
"""

import pytest

from repro.errors import AlignmentError
from repro.glm2fsa import parse_response, parse_step, semantic_parser
from repro.glm2fsa.semantic_parser import STEP_MEMO_SIZE, strip_numbering

from test_aligner_fuzz import SEED, TEXTS, random_texts

UNALIGNABLE = "Be courteous to everyone around you at all times."


@pytest.fixture(autouse=True)
def cold_memo():
    semantic_parser._parsed_step.cache_clear()
    yield
    semantic_parser._parsed_step.cache_clear()


@pytest.fixture
def aligned_lines(monkeypatch) -> list:
    """Every line the aligner is asked to align, in call order."""
    seen = []
    align = semantic_parser.align_step

    def counting(text):
        seen.append(text)
        return align(text)

    monkeypatch.setattr(semantic_parser, "align_step", counting)
    return seen


def test_responses_that_share_lines_align_each_distinct_line_once(aligned_lines):
    first = "1. Observe the traffic light.\n2. If the light is green, turn right.\n3. Stop."
    second = "1. Stop.\n2. Observe the traffic light.\n3. Turn left."
    cold = parse_response(first), parse_response(second)
    assert sorted(aligned_lines) == sorted(
        ["Observe the traffic light.", "If the light is green, turn right.", "Stop.", "Turn left."]
    )
    assert [parsed.steps for parsed in cold] == [
        [parse_step(strip_numbering(line)) for line in text.splitlines()] for text in (first, second)
    ]


def test_an_unalignable_line_is_aligned_once_and_skipped_by_every_parse(aligned_lines):
    text = f"1. {UNALIGNABLE}\n2. Stop."
    with pytest.raises(AlignmentError):
        parse_step(UNALIGNABLE)
    aligned_lines.clear()
    parses = [parse_response(text), parse_response(text)]
    assert aligned_lines == [UNALIGNABLE, "Stop."]
    assert [parsed.steps for parsed in parses] == [[parse_step("Stop.")]] * 2


def test_the_raw_and_the_aligned_read_of_a_line_are_separate_entries():
    # Read raw, "Stop." aligns to `stop`; taken as aligned it is no
    # canonical step, so that read skips it.
    raw, aligned = parse_response("1. Stop."), parse_response("1. Stop.", aligned=True)
    info = semantic_parser._parsed_step.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    assert raw.steps == [parse_step("Stop.")]
    assert aligned.steps == []
    with pytest.raises(AlignmentError):
        parse_step("Stop.", aligned=True)


def test_steps_are_shared_but_each_parse_returns_a_fresh_list():
    first, second = parse_response("1. Stop."), parse_response("1. Stop.")
    assert first.steps[0] is second.steps[0]
    assert first.steps is not second.steps


def test_more_distinct_lines_than_the_bound_leave_the_memo_at_its_bound():
    text = "\n".join(f"stop {index}" for index in range(STEP_MEMO_SIZE + 100))
    assert len(parse_response(text, aligned=True)) == STEP_MEMO_SIZE + 100
    assert semantic_parser._parsed_step.cache_info().currsize == STEP_MEMO_SIZE


def _line_by_line(text: str, aligned: bool) -> list:
    """``parse_step`` on each numbering-stripped line, failures dropped."""
    steps = []
    for line in text.splitlines():
        stripped = strip_numbering(line)
        if stripped:
            try:
                steps.append(parse_step(stripped, aligned=aligned))
            except AlignmentError:
                continue
    return steps


@pytest.mark.parametrize("aligned", [False, True], ids=["raw", "aligned"])
def test_cold_and_warm_passes_over_the_fuzz_corpus_equal_parse_step(aligned):
    texts = random_texts(SEED, TEXTS)
    cold = [parse_response(text, aligned=aligned).steps for text in texts]
    assert semantic_parser._parsed_step.cache_info().currsize > 0
    warm = [parse_response(text, aligned=aligned).steps for text in texts]
    assert cold == warm == [_line_by_line(text, aligned) for text in texts]

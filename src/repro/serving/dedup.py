"""Response canonicalization and within-batch deduplication.

A freshly pre-trained small model frequently samples the *same* step-by-step
response several times per prompt; template augmentation repeats the library
verbatim every epoch.  Verification feedback depends only on the parsed step
content, so two responses that differ in line endings, numbering whitespace or
trailing blanks induce identical controllers and identical scores.  The
canonical form below normalises exactly those differences — everything the
semantic parser (:func:`repro.glm2fsa.semantic_parser.parse_response`, which
splits on lines and strips each one) provably ignores — so the service can
verify each distinct response once per batch and once per cache lifetime.
"""

from __future__ import annotations


def canonicalize_response(text: str) -> str:
    """Normalise a response to its score-equivalent canonical form.

    Applied transformations (each invisible to the line-based step parser):

    * ``\\r\\n`` / ``\\r`` → ``\\n``;
    * leading/trailing whitespace stripped from every line;
    * empty lines dropped (the parser skips them).

    Whitespace *inside* a line is preserved: the alignment lexicon matches
    phrases with exact single spaces, so collapsing internal runs could map
    two differently-scoring responses onto one canonical form.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    canonical = [line.strip() for line in lines]
    return "\n".join(line for line in canonical if line)

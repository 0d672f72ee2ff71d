"""The one place persistent files are (over)written: tmp file + ``os.replace``.

Every durable artifact this codebase writes — persisted caches, cache-
directory shards, exported traces, scored-record output, encoded preference
pairs, model checkpoints — must appear *atomically*: a crash, a full disk or
a concurrent reader mid-write must observe either the previous complete file
or the new complete file, never a truncated hybrid.  The idiom is always the
same (write a sibling ``<name>.tmp.<pid>``, then ``os.replace`` it into
place), and it lives here so every writer inherits one audited
implementation.

This module is the **whitelist** of the ``atomic-write`` lint rule
(:class:`repro.analysis.rules.AtomicWriteRule`): direct ``open(..., "w")`` /
``Path.write_text`` / ``np.save*`` calls anywhere else in ``src/repro`` are
findings.

Two shapes cover every writer in the tree: :func:`write_text_atomic` for
whole-file text and :func:`write_bytes_atomic` for whole-file binary (NumPy
archives are serialised into an in-memory buffer first).
"""

from __future__ import annotations

import os
from pathlib import Path


def _tmp_sibling(path: Path) -> Path:
    """The in-flight tmp name: ``<name>.tmp.<pid>`` next to the target.

    Per-PID so concurrent writers never clobber each other's tmp file; the
    ``.tmp.`` infix is what shard listings and compaction sweeps key on to
    ignore (and eventually clean up) crashed writers' litter.
    """
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def write_text_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a sibling tmp file + :func:`os.replace`.

    Atomic on POSIX: a crash or full disk mid-write leaves the previous
    contents of ``path`` untouched; at worst a stray ``.tmp.<pid>`` file
    remains, which readers never look at.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_sibling(path)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_bytes_atomic(path: str | Path, data: bytes) -> Path:
    """Binary counterpart of :func:`write_text_atomic`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_sibling(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path

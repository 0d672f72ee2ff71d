"""repro.utils.atomic: the tmp + os.replace idiom."""

from __future__ import annotations

import pytest

from repro.utils.atomic import write_bytes_atomic, write_text_atomic
from repro.utils.serialization import dump_json, dump_json_atomic, load_json


def no_tmp_litter(tmp_path) -> bool:
    return list(tmp_path.rglob("*.tmp.*")) == []


def read_back(path, like):
    """The file's content, as text or bytes to match ``like``."""
    return path.read_bytes() if isinstance(like, bytes) else path.read_text()


#: ``(writer, old content, new content)`` for each whole-file helper.
WRITERS = [
    pytest.param(write_text_atomic, "old", "new", id="text"),
    pytest.param(write_bytes_atomic, b"old", b"new", id="bytes"),
]


class TestWholeFileHelpers:
    def test_write_text_atomic_creates_parents_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        assert write_text_atomic(target, "hello") == target
        assert target.read_text() == "hello"
        assert no_tmp_litter(tmp_path)

    def test_write_text_atomic_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    def test_write_bytes_atomic(self, tmp_path):
        target = tmp_path / "out.bin"
        write_bytes_atomic(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert no_tmp_litter(tmp_path)

    def test_tmp_sibling_is_per_pid_next_to_the_target(self, tmp_path, monkeypatch):
        import os

        import repro.utils.atomic as atomic

        replaced = []
        real_replace = os.replace

        def recording_replace(src, dst):
            replaced.append((src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(atomic.os, "replace", recording_replace)
        target = tmp_path / "records.jsonl"
        write_text_atomic(target, "x")
        ((src, dst),) = replaced
        assert dst == target
        assert src.parent == target.parent
        assert src.name == f"records.jsonl.tmp.{os.getpid()}"

    @pytest.mark.parametrize("writer, old, new", WRITERS)
    def test_failed_replace_cleans_tmp_and_keeps_old_content(self, tmp_path, monkeypatch, writer, old, new):
        import repro.utils.atomic as atomic

        target = tmp_path / "out"
        writer(target, old)

        def no_space(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(atomic.os, "replace", no_space)
        with pytest.raises(OSError, match="no space"):
            writer(target, new)
        assert read_back(target, old) == old
        assert no_tmp_litter(tmp_path)

    @pytest.mark.parametrize("writer, old, unwritable", [
        pytest.param(write_text_atomic, "old", "\ud800", id="text-unencodable"),
        pytest.param(write_bytes_atomic, b"old", "not bytes", id="bytes-wrong-type"),
    ])
    def test_failed_write_cleans_tmp_and_keeps_old_content(self, tmp_path, writer, old, unwritable):
        target = tmp_path / "out"
        writer(target, old)
        with pytest.raises((UnicodeEncodeError, TypeError)):
            writer(target, unwritable)
        assert read_back(target, old) == old
        assert no_tmp_litter(tmp_path)

    def test_dump_json_is_atomic_and_aliased(self, tmp_path):
        # Serialization failure must not touch an existing artifact: the
        # payload is encoded before any file is opened.
        target = tmp_path / "doc.json"
        dump_json({"ok": 1}, target)
        with pytest.raises(TypeError):
            dump_json({"bad": object()}, target)
        assert load_json(target) == {"ok": 1}
        assert no_tmp_litter(tmp_path)
        assert dump_json_atomic is dump_json

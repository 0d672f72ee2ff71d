"""Seeded fuzz tests for the two external inputs of ``repro-serve``.

* **JSONL input** — :func:`repro.serving.cli.load_jobs`, which both the
  one-shot ``repro-serve`` and ``repro-serve submit`` run before anything is
  scored.  Invariant: a file either loads, or fails with a ``ValueError``
  naming ``<path>:<line>`` of the offending line — never another exception.
* **The jobs wire protocol** — an in-process daemon over the stub scorer
  from ``conftest.py``.  Invariants: every request line gets exactly one
  reply, either ``ok`` or an ``error.type`` from :data:`ERROR_TYPES`, and a
  closing ``stats`` request on the same connection is still answered.

A seeded generator mutates valid records and requests: fields dropped or
retyped (list, number, null, object), lines truncated, non-object top-level
values, deep nesting and invalid UTF-8.  The fixed regression lines and two
small seeds run in tier-1; the larger sweep rides behind the ``slow`` marker
(``pytest -m slow``).
"""

import json
import random

import pytest

from repro.jobs.server import ERROR_TYPES
from repro.serving.cli import load_jobs

TASK = "turn_right_traffic_light"

#: A valid ``repro-serve`` input record (scenario explicit, one extra field).
RECORD = {"task": TASK, "scenario": "traffic_light_intersection", "response": "1. Stop.", "id": "r-1"}

#: One valid request per op the fuzz drives (``shutdown`` would end the run).
REQUESTS = (
    {"op": "create_job", "params": {"client_id": "fuzz", "task": TASK, "response": "1. Stop."}},
    {"op": "create_batch", "params": {"client_id": "fuzz", "jobs": [{"task": TASK, "response": "1. Go."}]}},
    {"op": "get_status", "params": {"job_id": "j-000001"}},
    {"op": "get_batch", "params": {"batch_id": "b-000001"}},
    {"op": "list_jobs", "params": {"client_id": "fuzz", "state": "succeeded"}},
    {"op": "cancel", "params": {"job_id": "j-000002"}},
    {"op": "stats", "params": {}},
    {"op": "stream_progress", "params": {"job_ids": ["j-000001"]}},
)

#: Replacement values for a retyped field.
RETYPES = ([1, [2]], 7, -2.5, 1e400, None, {"k": "v"}, True, "")

#: Lines that must fail cleanly whatever the seed: deep nesting past the
#: JSON parser's stack, an over-long integer literal, and the three request
#: envelopes that used to kill a daemon connection.
REGRESSION_LINES = (
    pytest.param("[" * 100_000, id="deep-array"),
    pytest.param('{"a": ' * 50_000, id="deep-object"),
    pytest.param("1" * 5000, id="long-integer"),
    pytest.param('{"op": "get_status", "params": [1, 2]}', id="list-params"),
    pytest.param('{"op": ["x"]}', id="list-op"),
    pytest.param('{"op": "stream_progress", "params": {"job_ids": [[1]]}}', id="list-job-id"),
)


def _nested(depth: int):
    value: object = "x"
    for _ in range(depth):
        value = [value]
    return value


def _mutate_value(rng: random.Random, value: dict) -> dict:
    """``value`` (a copy) with one field dropped, retyped or deeply nested.

    Recurses into a nested object (a request's ``params``) half the time.
    """
    value = dict(value)
    field = rng.choice(sorted(value))
    if isinstance(value[field], dict) and value[field] and rng.random() < 0.5:
        value[field] = _mutate_value(rng, value[field])
        return value
    kind = rng.randrange(3)
    if kind == 0:
        del value[field]
    elif kind == 1:
        value[field] = rng.choice(RETYPES)
    else:
        value[field] = _nested(rng.randrange(1, 400))
    return value


def mutated_line(rng: random.Random, valid: dict):
    """One fuzzed line (``str``, or ``bytes`` for invalid UTF-8) from ``valid``."""
    kind = rng.randrange(7)
    if kind == 0:
        return json.dumps(valid)
    if kind == 1:
        return json.dumps(_mutate_value(rng, valid))
    if kind == 2:
        text = json.dumps(valid)
        return text[: rng.randrange(len(text))]
    if kind == 3:
        return json.dumps(rng.choice([[valid], 3, "text", None, True, []]))
    if kind == 4:
        depth = rng.choice([10, 900, 5_000, 100_000])
        return rng.choice(["[", '{"a": ']) * depth
    if kind == 5:
        # Spliced in as text: json.dumps itself refuses nesting this deep.
        depth = rng.choice([900, 2_000])
        return json.dumps({**valid, rng.choice(sorted(valid)): "@@"}).replace(
            '"@@"', "[" * depth + "0" + "]" * depth
        )
    text = json.dumps(valid).encode("utf-8")
    cut = rng.randrange(len(text))
    return text[:cut] + bytes([rng.choice([0x80, 0xC3, 0xFF])]) + text[cut:]


# ---------------------------------------------------------------------- #
# repro-serve JSONL input
# ---------------------------------------------------------------------- #
def check_load_jobs(path, line: str) -> bool:
    """``line`` as line 2 between two valid records: it loads (False), or
    raises a ValueError located at ``<path>:2`` (True)."""
    valid = json.dumps(RECORD)
    path.write_text(f"{valid}\n{line}\n{valid}\n")
    try:
        jobs = load_jobs(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:2: "), (line[:80], str(exc)[:200])
        return True
    assert len(jobs) in (2, 3)  # a line truncated to nothing is skipped
    return False


def run_load_jobs_cases(tmp_path, seed: int, cases: int) -> None:
    rng = random.Random(seed)
    path = tmp_path / "in.jsonl"
    for _ in range(cases):
        line = mutated_line(rng, RECORD)
        if isinstance(line, bytes):
            continue  # load_jobs reads text; invalid UTF-8 is the wire fuzz's
        check_load_jobs(path, line)


@pytest.mark.parametrize("line", REGRESSION_LINES)
def test_load_jobs_rejects_regression_lines(tmp_path, line):
    assert check_load_jobs(tmp_path / "in.jsonl", line)


@pytest.mark.parametrize("seed", [0, 1])
def test_load_jobs_raises_only_located_value_errors(tmp_path, seed):
    run_load_jobs_cases(tmp_path, seed, cases=50)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 11])
def test_load_jobs_full_sweep(tmp_path, seed):
    run_load_jobs_cases(tmp_path, seed, cases=500)


# ---------------------------------------------------------------------- #
# The jobs wire protocol
# ---------------------------------------------------------------------- #
def check_reply(line, replies: list) -> None:
    """Exactly one reply: ``ok``, or an error of a known type."""
    context = line[:80]
    if replies[0].get("ok") and "event" in replies[0]:
        assert all(reply["ok"] for reply in replies), context
        assert replies[-1]["event"]["type"] == "end", context
        return
    assert len(replies) == 1, context
    (reply,) = replies
    if not reply["ok"]:
        assert reply["error"]["type"] in ERROR_TYPES, (context, reply)
    else:
        assert "result" in reply, (context, reply)


def run_wire_cases(connection, lines) -> None:
    for line in lines:
        if not line.strip():
            continue  # blank lines are not requests; the daemon skips them
        check_reply(line, connection.request(line))
    (stats,) = connection.request(json.dumps({"op": "stats"}))
    assert stats["ok"] and stats["result"]["protocol"] == 1


def fuzzed_requests(seed: int, cases: int) -> list:
    rng = random.Random(seed)
    return [mutated_line(rng, rng.choice(REQUESTS)) for _ in range(cases)]


def test_daemon_answers_regression_lines(daemon_factory, wire):
    daemon_factory()
    run_wire_cases(wire(), [param.values[0] for param in REGRESSION_LINES])


@pytest.mark.parametrize("seed", [0, 1])
def test_daemon_answers_every_fuzzed_line(daemon_factory, wire, seed):
    daemon_factory()
    run_wire_cases(wire(), fuzzed_requests(seed, cases=50))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 11])
def test_daemon_full_sweep(daemon_factory, wire, seed):
    daemon_factory()
    run_wire_cases(wire(), fuzzed_requests(seed, cases=500))

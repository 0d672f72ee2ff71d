"""Shared fixtures for the test suite, and a check that no test leaks a child process."""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.automata import FSAController, TransitionSystem, Vocabulary
from repro.driving import all_specifications, core_specifications, task_by_name
from repro.driving.responses import response_templates
from repro.glm2fsa import build_controller_from_text


def _children() -> set | None:
    """PIDs of this process's children, alive or unreaped; None where the
    kernel does not list them."""
    listings = glob.glob("/proc/self/task/*/children")
    if not listings:
        return None
    pids = set()
    for listing in listings:
        try:
            with open(listing) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the thread ended between the glob and the read
    return pids


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a test that leaves a child process alive or unreaped."""
    before = _children()
    yield
    if before is None:
        return
    leaked = sorted(_children() - before)
    if leaked:
        item.ihook.pytest_runtest_logreport(
            report=pytest.TestReport(
                item.nodeid,
                item.location,
                {},
                "failed",
                f"left child processes {leaked} alive or unreaped",
                "teardown",
            )
        )


@pytest.fixture(scope="session")
def simple_vocabulary() -> Vocabulary:
    """A two-proposition / two-action vocabulary used by many unit tests."""
    return Vocabulary(propositions=frozenset({"green", "ped"}), actions=frozenset({"go", "stop"}))


@pytest.fixture(scope="session")
def simple_model(simple_vocabulary) -> TransitionSystem:
    """A three-state fully connected world model over the simple vocabulary."""
    model = TransitionSystem(name="simple", vocabulary=simple_vocabulary)
    model.add_state("g", ["green"], initial=True)
    model.add_state("r", [], initial=True)
    model.add_state("p", ["ped"], initial=True)
    for src in ("g", "r", "p"):
        for dst in ("g", "r", "p"):
            model.add_transition(src, dst)
    return model


@pytest.fixture(scope="session")
def safe_controller(simple_vocabulary) -> FSAController:
    """Goes only on green without pedestrians; stops otherwise."""
    controller = FSAController(name="safe", vocabulary=simple_vocabulary)
    controller.add_state("q0", initial=True)
    controller.add_transition("q0", "green & !ped", "go", "q0")
    controller.add_transition("q0", "!green | ped", "stop", "q0")
    return controller


@pytest.fixture(scope="session")
def reckless_controller(simple_vocabulary) -> FSAController:
    """Always goes, regardless of the light or pedestrians."""
    controller = FSAController(name="reckless", vocabulary=simple_vocabulary)
    controller.add_state("q0", initial=True)
    controller.add_transition("q0", "true", "go", "q0")
    return controller


@pytest.fixture(scope="session")
def driving_specs() -> dict:
    """The full 15-specification rule book."""
    return all_specifications()


@pytest.fixture(scope="session")
def core_specs() -> dict:
    """Φ1 ... Φ5."""
    return core_specifications()


@pytest.fixture(scope="session")
def right_turn_task():
    return task_by_name("turn_right_traffic_light")


@pytest.fixture(scope="session")
def right_turn_good_controller(right_turn_task):
    text = response_templates(right_turn_task.name, "compliant")[0]
    return build_controller_from_text(text, task=right_turn_task.name, name="right_turn_good")


@pytest.fixture(scope="session")
def right_turn_bad_controller(right_turn_task):
    text = response_templates(right_turn_task.name, "flawed")[0]
    return build_controller_from_text(text, task=right_turn_task.name, name="right_turn_bad")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)

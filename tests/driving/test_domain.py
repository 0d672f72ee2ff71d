"""Tests for the driving domain: vocabulary, rule book, scenarios, tasks, templates."""

import pytest

from repro.driving import (
    DRIVING_ACTIONS,
    DRIVING_PROPOSITIONS,
    DRIVING_VOCABULARY,
    SCENARIO_BUILDERS,
    all_specifications,
    all_tasks,
    core_specifications,
    response_templates,
    sample_mixture_response,
    sample_response,
    scenario_model,
    task_by_name,
    task_prompt,
    training_tasks,
    validation_tasks,
    with_derived_propositions,
)
from repro.driving.propositions import PEDESTRIAN_PROPOSITIONS
from repro.driving.responses import CATEGORIES, FINETUNED_MIXTURE, PRETRAINED_MIXTURE, RESPONSE_LIBRARY


class TestVocabulary:
    def test_counts_match_paper(self):
        # 10 observable propositions (+ the derived "pedestrian") and 4 actions.
        assert len(DRIVING_ACTIONS) == 4
        assert len(DRIVING_PROPOSITIONS) == 11

    def test_derived_pedestrian(self):
        assert "pedestrian" in with_derived_propositions(["pedestrian_at_left"])
        assert "pedestrian" not in with_derived_propositions(["car_from_left"])

    def test_vocabulary_disjoint(self):
        assert not (DRIVING_VOCABULARY.propositions & DRIVING_VOCABULARY.actions)


class TestSpecifications:
    def test_fifteen_specifications(self):
        assert len(all_specifications()) == 15

    def test_core_subset(self):
        assert list(core_specifications()) == ["phi_1", "phi_2", "phi_3", "phi_4", "phi_5"]

    def test_spec_atoms_are_known(self):
        known = DRIVING_VOCABULARY.all_atoms
        for name, formula in all_specifications().items():
            unknown = formula.atoms() - known
            assert not unknown, f"{name} uses unknown atoms {unknown}"


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_models_are_wellformed(self, name):
        model = scenario_model(name)
        model.validate()
        assert model.num_states >= 4
        assert model.initial_states
        # Every state can evolve (the environment never deadlocks).
        assert all(model.successors(s) for s in model.states)

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_pedestrian_states_are_transient(self, name):
        """No cycle keeps a pedestrian proposition true forever (fairness)."""
        import networkx as nx

        model = scenario_model(name)
        graph = model.to_networkx()
        ped_states = [s for s in model.states if "pedestrian" in model.label(s)]
        sub = graph.subgraph(ped_states)
        assert all(len(c) == 1 for c in nx.strongly_connected_components(sub)) and not any(
            sub.has_edge(s, s) for s in ped_states
        )

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_every_state_is_reachable(self, name):
        """No state is dead weight: each is reachable from an initial state."""
        import networkx as nx

        model = scenario_model(name)
        graph = model.to_networkx()
        reached = set(model.initial_states)
        for state in model.initial_states:
            reached |= nx.descendants(graph, state)
        assert reached == set(model.states)

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_labels_are_observations_with_derived_pedestrian(self, name):
        """Labels hold propositions only (actions come from the controller),
        and ``pedestrian`` holds exactly where some pedestrian proposition does."""
        model = scenario_model(name)
        for state in model.states:
            label = model.label(state)
            assert label <= frozenset(DRIVING_PROPOSITIONS), state
            assert ("pedestrian" in label) == bool(label & set(PEDESTRIAN_PROPOSITIONS)), state

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_model("the_moon")


class TestTasks:
    def test_split_covers_all(self):
        assert set(training_tasks()) | set(validation_tasks()) == set(all_tasks())
        assert set(training_tasks()) & set(validation_tasks()) == set()

    def test_every_task_has_a_buildable_model(self):
        for task in all_tasks():
            assert task.model().num_states > 0

    def test_task_lookup(self):
        task = task_by_name("turn_right_traffic_light")
        assert task.scenario == "traffic_light_intersection"
        with pytest.raises(KeyError):
            task_by_name("fly_to_the_moon")

    def test_prompt_format(self):
        assert task_prompt(task_by_name("enter_roundabout")) == 'Steps for "enter the roundabout"'


class TestResponseLibrary:
    def test_every_training_task_has_templates(self):
        for task in all_tasks():
            assert len(response_templates(task.name, "compliant")) >= 3
            assert len(response_templates(task.name, "flawed")) >= 3

    def test_vague_is_shared(self):
        assert response_templates("turn_right_traffic_light", "vague") == response_templates(
            "enter_roundabout", "vague"
        )

    def test_unknown_category(self):
        with pytest.raises(KeyError):
            response_templates("turn_right_traffic_light", "excellent")

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            response_templates("parallel_parking", "compliant")

    def test_sample_response_is_deterministic_per_seed(self):
        a = sample_response("enter_roundabout", "flawed", seed=3)
        b = sample_response("enter_roundabout", "flawed", seed=3)
        assert a == b

    def test_mixture_sampling_respects_support(self):
        category, text = sample_mixture_response("enter_roundabout", {"compliant": 1.0, "flawed": 0.0, "vague": 0.0}, seed=0)
        assert category == "compliant"
        assert text in response_templates("enter_roundabout", "compliant")

    def test_mixture_requires_positive_mass(self):
        with pytest.raises(ValueError):
            sample_mixture_response("enter_roundabout", {"compliant": 0.0}, seed=0)

    def test_mixtures_are_distributions(self):
        for mixture in (PRETRAINED_MIXTURE, FINETUNED_MIXTURE):
            assert set(mixture) == set(CATEGORIES)
            assert abs(sum(mixture.values()) - 1.0) < 1e-9

    def test_templates_are_parseable_controllers(self):
        """Every compliant/flawed template compiles to a non-trivial controller."""
        from repro.glm2fsa import build_controller_from_text

        for task_name, per_task in RESPONSE_LIBRARY.items():
            for category in ("compliant", "flawed"):
                for template in per_task[category]:
                    controller = build_controller_from_text(template, task=task_name)
                    assert controller.num_states >= 2

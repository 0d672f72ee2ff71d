"""Product automaton ``P = M ⊗ C`` (Appendix A of the paper).

The product describes how the controller's actions interleave with the
model's environment dynamics.  Product states are triples ``(p, q, a)``:

* ``p`` — current model state (environment configuration, labeled ``λ_M(p)``),
* ``q`` — current controller state,
* ``a`` — the output symbol the controller emits for observation ``λ_M(p)``
  while moving to its next state.

The state's label is ``λ_M(p) ∪ a``, exactly the labeled-trajectory alphabet
``2^{P ∪ PA}`` of the Appendix, so LTL specifications over propositions *and*
actions can be checked on the resulting Kripke structure.

The construction implicitly assumes every action succeeds (Section 4.2): the
environment then evolves along any δ_M-successor of ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.alphabet import Symbol, format_symbol
from repro.automata.fsa import FSAController
from repro.automata.kripke import KripkeStructure
from repro.automata.transition_system import TransitionSystem
from repro.errors import AutomatonError


@dataclass(frozen=True)
class ProductState:
    """One state ``(p, q, a)`` of the product automaton."""

    model_state: str
    controller_state: str
    action: Symbol

    def __str__(self) -> str:
        return f"({self.model_state}, {self.controller_state}, {format_symbol(self.action)})"


def _controller_moves(controller: FSAController, state: str, observation: Symbol):
    """Enabled ``(action, next_controller_state)`` pairs for an observation."""
    return [(t.action, t.target) for t in controller.enabled_transitions(state, observation)]


def build_product(
    model: TransitionSystem,
    controller: FSAController,
    *,
    restart_on_termination: bool = False,
) -> KripkeStructure:
    """Construct the product ``M ⊗ C`` as a state-labeled Kripke structure.

    Product states from which no joint move exists get a self-loop, so all
    paths are infinite — the convention NuSMV enforces via a total
    transition relation.

    Parameters
    ----------
    model, controller:
        The world model and the FSA controller to compose.
    restart_on_termination:
        If True, a product state whose controller component has no outgoing
        move (the controller finished its step list) restarts the controller
        from ``q0`` while the environment keeps evolving, modelling a vehicle
        that repeatedly re-encounters the scenario.  This mirrors the default
        ``TRUE : next(action) = ...`` case of the paper's Appendix-D SMV
        modules, which keeps the transition relation total after the listed
        steps are exhausted.  If False, such states stutter.

    Raises
    ------
    AutomatonError
        If the controller blocks on every initial model state (empty product).
    """
    model.validate()
    controller.validate()

    kripke = KripkeStructure(name=f"{model.name}(x){controller.name}")

    # Initial product states: (p, q0, a) for every initial/known model state p
    # and every controller move enabled on λ_M(p).  The paper verifies "for all
    # the possible initial states", so if the model designates no initial
    # states we fall back to all of them.
    initial_model_states = sorted(model.initial_states) or model.states
    frontier: list[ProductState] = []
    seen: set[ProductState] = set()

    def ensure_state(product_state: ProductState, *, initial: bool = False) -> ProductState:
        label = model.label(product_state.model_state) | product_state.action
        kripke.add_state(product_state, label, initial=initial)
        if product_state not in seen:
            seen.add(product_state)
            frontier.append(product_state)
        return product_state

    for p in initial_model_states:
        observation = model.label(p)
        for action, _q_next in _controller_moves(controller, controller.initial_state, observation):
            ensure_state(ProductState(p, controller.initial_state, action), initial=True)

    if not kripke.initial_states:
        raise AutomatonError(
            f"controller {controller.name!r} has no enabled transition in any initial "
            f"state of model {model.name!r}; the product automaton is empty"
        )

    # Forward exploration of the reachable product.
    while frontier:
        current = frontier.pop()
        p, q, action = current.model_state, current.controller_state, current.action
        observation = model.label(p)

        # Controller successors consistent with the action recorded in `current`.
        controller_targets = [
            t.target
            for t in controller.enabled_transitions(q, observation)
            if t.action == action
        ]
        model_targets = model.successors(p)

        added_successor = False
        for q_next in controller_targets:
            for p_next in model_targets:
                next_observation = model.label(p_next)
                for next_action, _ in _controller_moves(controller, q_next, next_observation):
                    successor = ProductState(p_next, q_next, next_action)
                    ensure_state(successor)
                    kripke.add_transition(current, successor)
                    added_successor = True

        if not added_successor and restart_on_termination:
            # The controller has no continuation for this action/state: restart
            # it at q0 while the environment keeps evolving.
            for p_next in model_targets:
                next_observation = model.label(p_next)
                for next_action, _ in _controller_moves(controller, controller.initial_state, next_observation):
                    successor = ProductState(p_next, controller.initial_state, next_action)
                    ensure_state(successor)
                    kripke.add_transition(current, successor)
                    added_successor = True

        if not added_successor:
            kripke.add_transition(current, current)

    kripke.make_total()
    kripke.validate()
    return kripke

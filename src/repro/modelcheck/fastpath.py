"""The optimized verification hot path: memoized, pruned, integer-compiled.

Every score the pipeline produces is "how many of the 15 LTL rules hold of
``M ⊗ C``", so :meth:`~repro.modelcheck.checker.ModelChecker.verify_controller`
dominates every cold benchmark.  This module holds the machinery
:class:`~repro.modelcheck.checker.ModelChecker` is built from; the naive
path — the frozen reference — is
:class:`~repro.modelcheck.checker.NaiveModelChecker`.

Four optimizations compose (see ``docs/modelcheck.md``):

* **Büchi construction memo** (:class:`BuchiMemo`): LTL→NBA translation is
  ~a third of a cold check and the rule book is fixed, so translated (and
  pruned) automata are memoized in memory, process-wide, keyed on the
  *canonical formula text* (``str(formula)`` is unambiguous — binary
  operators parenthesize).
* **Automaton pruning** (:func:`prune_automaton`): NBA states that cannot
  reach an accepting state lying on a cycle can never contribute to an
  accepting run; dropping them — and then merging direct-bisimilar states —
  shrinks every product the automaton ever takes part in.  Pruning is
  language-preserving (the fuzz suite spot-checks this on random lassos).
* **Integer compilation** (:func:`compile_kripke` / :func:`compile_product` /
  :func:`find_accepting_lasso`): states, labels and NBA states are interned
  to small integers, the product state ``(s, b)`` becomes the single int
  ``s * m + b``, and emptiness is a BFS plus an iterative Tarjan SCC pass —
  no tuple hashing, no repeated constraint evaluation (per-symbol NBA move
  rows are cached on the :class:`CachedAutomaton`).
* **One pass for every weak rule** (:class:`RuleBook` /
  :func:`check_rule_book`): every automaton of the paper's rule book is
  weak, so one bit-parallel reachability pass and one greatest fixpoint
  decide all of them at once; the per-rule search above remains for
  non-weak automata and for counterexamples.

:func:`controller_fingerprint` and :func:`model_fingerprint` digest a
controller's structure and a world model, and :class:`ResultCache` is a
bounded LRU under a caller's key.  :class:`~repro.feedback.formal.FormalVerifier`
keys its verdict cache on the two fingerprints, so the m sampled responses
sharing an FSA structure are model-checked once; a ``ModelChecker`` built
with a ``result_cache_size`` keeps per-spec results under the two plus a
spec key.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict, deque
from typing import Sequence

from repro.automata.buchi import BuchiAutomaton
from repro.automata.fsa import FSAController
from repro.automata.kripke import KripkeStructure
from repro.automata.operations import (
    backward_reachable,
    cycle_nodes,
    strongly_connected_subgraphs,
)
from repro.automata.product import ProductState
from repro.automata.transition_system import TransitionSystem
from repro.errors import AutomatonError, VerificationError
from repro.logic.ast import Formula
from repro.logic.ltl2buchi import ltl_to_buchi
from repro.obs import tracer as obs

# ---------------------------------------------------------------------- #
# Automaton pruning
# ---------------------------------------------------------------------- #
def prune_automaton(nba: BuchiAutomaton) -> BuchiAutomaton:
    """Language-preserving shrink of an NBA, states renamed to ``0..n-1``.

    Three steps, each sound for Büchi acceptance:

    1. restrict to states forward-reachable from the initial states;
    2. keep only *useful* states — those that can reach an accepting state
       lying on a cycle (every accepting run visits such a state infinitely
       often, and every state on a path to a useful state is itself useful,
       so reachability is unaffected);
    3. quotient by direct bisimulation (same acceptance flag, same
       ``(constraint, successor-class)`` signature), which preserves the
       accepted language exactly.

    The result's states are consecutive ints assigned in BFS order from the
    initial states — a deterministic naming.  An NBA
    with an *empty language* prunes to an automaton with no states at all
    (``num_states == 0``); callers can then skip the product entirely because
    ``L(M ⊗ C) ∩ L(A) = ∅`` holds trivially.
    """
    out: dict = {s: [] for s in nba.states}
    for t in nba.transitions:
        out[t.source].append(t)

    # 1. Forward reachability, BFS in deterministic order.
    initial = sorted(nba.initial_states, key=repr)
    reachable_order: list = []
    seen = set(initial)
    queue = deque(initial)
    while queue:
        s = queue.popleft()
        reachable_order.append(s)
        for t in out[s]:
            if t.target not in seen:
                seen.add(t.target)
                queue.append(t.target)

    succ_map = {s: [t.target for t in out[s] if t.target in seen] for s in reachable_order}

    # 2. Usefulness: can reach an accepting state that lies on a cycle.
    on_cycle = cycle_nodes(reachable_order, succ_map.__getitem__)
    anchors = [s for s in reachable_order if s in nba.accepting_states and s in on_cycle]
    if not anchors:
        return BuchiAutomaton(name=f"{nba.name}_pruned")  # empty language
    useful = backward_reachable(reachable_order, succ_map.__getitem__, anchors)
    kept = [s for s in reachable_order if s in useful]

    # 3. Direct-bisimulation quotient by signature refinement.
    block = {s: (0 if s in nba.accepting_states else 1) for s in kept}
    while True:
        signatures: dict = {}
        new_block: dict = {}
        for s in kept:
            signature = (
                block[s],
                frozenset((t.constraint, block[t.target]) for t in out[s] if t.target in useful),
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_block[s] = signatures[signature]
        if new_block == block:
            break
        block = new_block

    # Quotient edges, deduplicated, in original transition order.
    quotient_edges: list = []
    edge_seen: set = set()
    quotient_succ: dict = {}
    for s in kept:
        for t in out[s]:
            if t.target not in useful:
                continue
            edge = (block[s], t.constraint, block[t.target])
            if edge not in edge_seen:
                edge_seen.add(edge)
                quotient_edges.append(edge)
                quotient_succ.setdefault(edge[0], []).append(edge[2])

    quotient_initial = []
    for s in kept:
        if s in nba.initial_states and block[s] not in quotient_initial:
            quotient_initial.append(block[s])
    quotient_accepting = {block[s] for s in kept if s in nba.accepting_states}

    # Deterministic rename: BFS over the quotient from the initial classes.
    rename: dict = {}
    queue = deque()
    for b in quotient_initial:
        if b not in rename:
            rename[b] = len(rename)
            queue.append(b)
    while queue:
        b = queue.popleft()
        for b_next in quotient_succ.get(b, ()):
            if b_next not in rename:
                rename[b_next] = len(rename)
                queue.append(b_next)

    pruned = BuchiAutomaton(name=f"{nba.name}_pruned")
    for b, i in rename.items():
        pruned.add_state(i, initial=b in quotient_initial, accepting=b in quotient_accepting)
    for src, constraint, dst in quotient_edges:
        if src in rename and dst in rename:
            pruned.add_transition(rename[src], constraint, rename[dst])
    return pruned


class CachedAutomaton:
    """A pruned NBA compiled for the emptiness check, as stored in the memo.

    States are ints ``0..num_states-1``.  ``out[b]`` is the tuple of
    ``(constraint, target)`` pairs leaving ``b``; :meth:`row_for` caches the
    per-symbol move row (which targets each state reaches on a given symbol)
    so repeated products over the same scenario labels stop re-evaluating
    constraints.

    ``weak`` is true when every strongly connected component is all
    accepting or all rejecting.  A run ends in one component, so a weak
    automaton accepts exactly the runs that eventually stay in accepting
    states, which :func:`check_rule_book` decides with one greatest fixpoint.
    """

    def __init__(self, automaton: BuchiAutomaton):
        self.automaton = automaton
        n = automaton.num_states
        rows = [[] for _ in range(n)]
        for t in automaton.transitions:
            rows[t.source].append((t.constraint, t.target))
        self.out = tuple(tuple(row) for row in rows)
        self.initial = tuple(sorted(automaton.initial_states))
        self.accepting = frozenset(automaton.accepting_states)
        self.weak = all(
            len({b in self.accepting for b in component}) == 1
            for component in strongly_connected_subgraphs(
                range(n), lambda b: [target for _, target in self.out[b]]
            )
        )
        self._symbol_rows: dict = {}
        self._rows_lock = threading.Lock()

    @property
    def num_states(self) -> int:
        """Number of NBA states after pruning."""
        return len(self.out)

    @property
    def is_empty(self) -> bool:
        """True when the pruned language is empty: the spec holds trivially."""
        return not self.initial

    def row_for(self, symbol) -> tuple:
        """Per-state successor tuples on ``symbol`` (cached per symbol)."""
        with self._rows_lock:
            row = self._symbol_rows.get(symbol)
            if row is None:
                row = tuple(
                    tuple(
                        dict.fromkeys(
                            target for constraint, target in outs if constraint.satisfied_by(symbol)
                        )
                    )
                    for outs in self.out
                )
                self._symbol_rows[symbol] = row
        return row


# ---------------------------------------------------------------------- #
# Process-wide construction memo
# ---------------------------------------------------------------------- #
class BuchiMemo:
    """Process-wide memo of pruned Büchi automata, keyed on formula text.

    The key is the canonical text of the (already negated) formula —
    ``str(formula)`` is unambiguous because every binary operator is
    parenthesized — so two syntactically identical specs share one
    translation no matter which checker instance asks.  Thread-safe: the
    memo is process-wide, so services scoring on different threads (a
    dispatcher thread, a direct ``score_batch`` caller) share it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._memory: dict = {}
        self._hits_memory = 0
        self._misses = 0

    def lookup(self, key: str):
        """The in-memory :class:`CachedAutomaton` for ``key``, or ``None``."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._hits_memory += 1
        return cached

    def translate_and_store(self, key: str, formula: Formula, *, name: str = "buchi"):
        """Translate + prune ``formula`` and memoize it under ``key``.

        ``formula`` is the (negated) formula whose language the automaton
        must accept.  The first translation for a key wins; concurrent
        translators converge on the same object.
        """
        cached = CachedAutomaton(prune_automaton(ltl_to_buchi(formula, name=name)))
        with self._lock:
            cached = self._memory.setdefault(key, cached)
            self._misses += 1
        return cached

    def stats(self) -> dict:
        """Hit/miss counters and the entry count.

        ``hits_disk`` is always 0, since the memo lives in memory only; the
        key stays because ``perfbench/probe.py`` reads it.
        """
        with self._lock:
            return {
                "hits_memory": self._hits_memory,
                "hits_disk": 0,
                "misses": self._misses,
                "entries": len(self._memory),
            }

    def clear(self) -> None:
        """Drop every memoized automaton and counter (tests / benchmarks)."""
        with self._lock:
            self._memory.clear()
            self._hits_memory = self._misses = 0


_GLOBAL_MEMO = BuchiMemo()


def automata_memo() -> BuchiMemo:
    """The process-wide :class:`BuchiMemo` every default checker shares."""
    return _GLOBAL_MEMO


# ---------------------------------------------------------------------- #
# Integer-compiled structures
# ---------------------------------------------------------------------- #
class CompiledStructure:
    """A Kripke structure interned to integers for the emptiness check.

    ``origin[i]`` is the original state object behind int state ``i``;
    ``labels``/``label_ids`` intern the (few, repeated) state labels;
    ``succ[i]`` is a sorted tuple of successor ints; ``initial`` is sorted.
    Built by :func:`compile_kripke` (from an existing structure) or
    :func:`compile_product` (directly from ``M ⊗ C``, skipping the
    intermediate object graph).
    """

    __slots__ = ("name", "origin", "labels", "label_ids", "succ", "initial", "_index")

    def __init__(self, name, origin, labels, label_ids, succ, initial):
        self.name = name
        self.origin = origin
        self.labels = labels
        self.label_ids = label_ids
        self.succ = succ
        self.initial = initial
        self._index = {state: i for i, state in enumerate(origin)}

    @property
    def num_states(self) -> int:
        """Number of states."""
        return len(self.origin)

    def label_of(self, state):
        """The label symbol of an *original* state (counterexample rendering)."""
        return self.labels[self.label_ids[self._index[state]]]


def compile_kripke(kripke: KripkeStructure) -> CompiledStructure:
    """Intern an existing :class:`~repro.automata.kripke.KripkeStructure`."""
    states = kripke.states
    index = {s: i for i, s in enumerate(states)}
    labels: list = []
    label_index: dict = {}
    label_ids: list = []
    for s in states:
        symbol = kripke.label(s)
        lid = label_index.get(symbol)
        if lid is None:
            lid = len(labels)
            label_index[symbol] = lid
            labels.append(symbol)
        label_ids.append(lid)
    succ = tuple(tuple(sorted(index[t] for t in kripke.successors(s))) for s in states)
    initial = tuple(sorted(index[s] for s in kripke.initial_states))
    return CompiledStructure(
        kripke.name, tuple(states), tuple(labels), tuple(label_ids), succ, initial
    )


def compile_product(
    model: TransitionSystem,
    controller: FSAController,
    *,
    restart_on_termination: bool = False,
) -> CompiledStructure:
    """Build ``M ⊗ C`` directly in integer space.

    Semantically identical to :func:`repro.automata.product.build_product`
    followed by :func:`compile_kripke` — same initial states, same
    restart-on-termination and stutter conventions, same reachable state set
    (the differential suite holds the two paths to identical verdicts) — but
    without materializing the intermediate ``ProductState``-keyed Kripke
    structure, which is ~a quarter of the naive path's cost.
    """
    model.validate()
    controller.validate()

    observation_of = {p: model.label(p) for p in model.states}
    model_succ = {p: sorted(model.successors(p)) for p in model.states}
    q0 = controller.initial_state

    moves_cache: dict = {}

    def moves(q, p):
        key = (q, p)
        got = moves_cache.get(key)
        if got is None:
            got = tuple(
                (t.action, t.target)
                for t in controller.enabled_transitions(q, observation_of[p])
            )
            moves_cache[key] = got
        return got

    index: dict = {}
    origin: list = []
    label_syms: list = []
    succ_lists: list = []
    frontier: list = []

    def ensure(p, q, action) -> int:
        key = (p, q, action)
        sid = index.get(key)
        if sid is None:
            sid = len(origin)
            index[key] = sid
            origin.append(ProductState(p, q, action))
            label_syms.append(observation_of[p] | action)
            succ_lists.append([])
            frontier.append(sid)
        return sid

    initial_model_states = sorted(model.initial_states) or model.states
    initial_ids: list = []
    for p in initial_model_states:
        for action, _q_next in moves(q0, p):
            sid = ensure(p, q0, action)
            if sid not in initial_ids:
                initial_ids.append(sid)

    if not initial_ids:
        raise AutomatonError(
            f"controller {controller.name!r} has no enabled transition in any initial "
            f"state of model {model.name!r}; the product automaton is empty"
        )

    while frontier:
        sid = frontier.pop()
        state = origin[sid]
        p, q, action = state.model_state, state.controller_state, state.action
        out = succ_lists[sid]
        controller_targets = [t for a, t in moves(q, p) if a == action]
        added = False
        for q_next in controller_targets:
            for p_next in model_succ[p]:
                for next_action, _ in moves(q_next, p_next):
                    out.append(ensure(p_next, q_next, next_action))
                    added = True
        if not added and restart_on_termination:
            for p_next in model_succ[p]:
                for next_action, _ in moves(q0, p_next):
                    out.append(ensure(p_next, q0, next_action))
                    added = True
        if not added:
            out.append(sid)

    labels: list = []
    label_index: dict = {}
    label_ids: list = []
    for symbol in label_syms:
        lid = label_index.get(symbol)
        if lid is None:
            lid = len(labels)
            label_index[symbol] = lid
            labels.append(symbol)
        label_ids.append(lid)

    return CompiledStructure(
        f"{model.name}(x){controller.name}",
        tuple(origin),
        tuple(labels),
        tuple(label_ids),
        tuple(tuple(sorted(set(out))) for out in succ_lists),
        tuple(initial_ids),
    )


# ---------------------------------------------------------------------- #
# Emptiness check
# ---------------------------------------------------------------------- #
def find_accepting_lasso(
    compiled: CompiledStructure,
    cached: CachedAutomaton,
    *,
    spec_label: str = "",
    max_product_states: int = 200_000,
):
    """Emptiness check of ``compiled ⊗ cached`` in integer space.

    Product state ``(s, b)`` is the int ``s * m + b``.  A BFS computes the
    reachable product (raising :class:`~repro.errors.VerificationError` past
    ``max_product_states``, like the naive path); if no accepting NBA state
    is even reachable the check exits early, otherwise an iterative Tarjan
    pass finds an accepting state inside a nontrivial SCC and a lasso through
    it is materialized.  Returns ``((prefix, cycle), stats)`` with prefix /
    cycle as lists of original states (the cycle starts at the repeated
    state, the prefix excludes it — the naive checker's shape), or
    ``(None, stats)`` when the specification holds.
    """
    m = cached.num_states
    label_ids = compiled.label_ids
    succ = compiled.succ
    accepting = cached.accepting
    move = [cached.row_for(symbol) for symbol in compiled.labels]

    with obs.span("mc.product", category="modelcheck", spec=spec_label):
        parents: dict = {}
        adjacency: dict = {}
        order: list = []
        queue = deque()
        for s0 in compiled.initial:
            row = move[label_ids[s0]]
            for b0 in cached.initial:
                for b in row[b0]:
                    pid = s0 * m + b
                    if pid not in parents:
                        parents[pid] = None
                        queue.append(pid)
        saw_accepting = False
        while queue:
            pid = queue.popleft()
            order.append(pid)
            if len(order) > max_product_states:
                raise VerificationError(
                    f"product exceeded {max_product_states} states; "
                    "increase max_product_states or simplify the specification"
                )
            b = pid % m
            if b in accepting:
                saw_accepting = True
            out: list = []
            for s_next in succ[pid // m]:
                base = s_next * m
                for b_next in move[label_ids[s_next]][b]:
                    out.append(base + b_next)
            adjacency[pid] = out
            for succ_pid in out:
                if succ_pid not in parents:
                    parents[succ_pid] = pid
                    queue.append(succ_pid)

    stats = {
        "product_states": len(order),
        "nba_states": m,
        "kripke_states": compiled.num_states,
    }

    with obs.span("mc.check", category="modelcheck", spec=spec_label):
        if not saw_accepting:
            return None, stats
        target = _accepting_scc_target(order, adjacency, accepting, m)
        if target is None:
            return None, stats
        prefix = [target]
        while parents[prefix[-1]] is not None:
            prefix.append(parents[prefix[-1]])
        prefix.reverse()
        cycle = _cycle_through(target, adjacency)
        origin = compiled.origin
        return (
            [origin[pid // m] for pid in prefix[:-1]],
            [origin[pid // m] for pid in cycle],
        ), stats


def _accepting_scc_target(order, adjacency, accepting, m):
    """First accepting product state inside a cycle-capable SCC (or ``None``).

    Iterative Tarjan over the reachable product, roots in BFS order; inside
    the first qualifying SCC the accepting member with the smallest Tarjan
    index is returned, so the choice is deterministic.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = 0
    for root in order:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, edge_i = work[-1]
            if edge_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            out = adjacency[node]
            descended = False
            while edge_i < len(out):
                child = out[edge_i]
                edge_i += 1
                if child not in index:
                    work[-1] = (node, edge_i)
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                accepting_members = [pid for pid in component if pid % m in accepting]
                if not accepting_members:
                    continue
                if len(component) > 1 or node in adjacency[node]:
                    return min(accepting_members, key=index.__getitem__)
    return None


def _cycle_through(target, adjacency):
    """Shortest cycle ``target → … → target`` (BFS), as ``[target, …]``."""
    if target in adjacency[target]:
        return [target]
    parents: dict = {}
    queue = deque()
    for succ_pid in adjacency[target]:
        if succ_pid not in parents:
            parents[succ_pid] = None
            queue.append(succ_pid)
    while queue:
        node = queue.popleft()
        for succ_pid in adjacency[node]:
            if succ_pid == target:
                path = [node]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return [target] + list(reversed(path))
            if succ_pid not in parents:
                parents[succ_pid] = node
                queue.append(succ_pid)
    raise VerificationError(
        "internal error: accepting SCC member has no cycle back to itself"
    )  # pragma: no cover - Tarjan guarantees a cycle exists


# ---------------------------------------------------------------------- #
# Every weak rule in one pass
# ---------------------------------------------------------------------- #
class RuleBook:
    """A batch of weak, non-empty pruned automata laid out as bit columns.

    With ``width`` rules, bit ``b * width + i`` of an int stands for NBA
    state ``b`` of rule ``i``, so one int per structure state holds every
    rule's product states there.  Reading a symbol moves state ``b`` to
    ``b + d``; :meth:`transfer` groups a symbol's moves by ``d`` into one
    mask per shift and memoizes them, keyed on the symbol (a scenario's
    labels recur across every controller checked against it).
    """

    def __init__(self, automata: Sequence[CachedAutomaton]):
        self.automata = tuple(automata)
        width = self.width = len(self.automata)
        self.depth = max(automaton.num_states for automaton in self.automata)
        self.initial = self.accepting = 0
        self.columns = []
        for i, automaton in enumerate(self.automata):
            self.initial |= sum(1 << (b * width + i) for b in automaton.initial)
            self.accepting |= sum(1 << (b * width + i) for b in automaton.accepting)
            self.columns.append(sum(1 << (b * width + i) for b in range(automaton.num_states)))
        self._transfers: dict = {}
        self._lock = threading.Lock()

    def transfer(self, symbol) -> tuple:
        """``(up, down)`` shift terms of reading ``symbol``, memoized per symbol.

        Each term is ``(mask, shift)``: the source bits whose move on
        ``symbol`` goes ``shift`` bits up (``up``, shift 0 included) or down
        (``down``).  :func:`_post` and :func:`_pre` apply them.
        """
        with self._lock:
            terms = self._transfers.get(symbol)
        if terms is not None:
            return terms
        width = self.width
        masks: dict = {}
        for i, automaton in enumerate(self.automata):
            for b, targets in enumerate(automaton.row_for(symbol)):
                for target in targets:
                    masks[target - b] = masks.get(target - b, 0) | 1 << (b * width + i)
        terms = (
            tuple((mask, d * width) for d, mask in sorted(masks.items()) if d >= 0),
            tuple((mask, -d * width) for d, mask in sorted(masks.items()) if d < 0),
        )
        with self._lock:
            return self._transfers.setdefault(symbol, terms)

    def product_states(self, reach: Sequence) -> list:
        """Each rule's reachable product-state count, from :func:`check_rule_book`'s sets."""
        return [sum((states & column).bit_count() for states in reach) for column in self.columns]


def _post(states: int, terms: tuple) -> int:
    """The bits ``states`` move to on the symbol ``terms`` describes."""
    up, down = terms
    moved = 0
    for mask, shift in up:
        moved |= (states & mask) << shift
    for mask, shift in down:
        moved |= (states & mask) >> shift
    return moved


def _pre(states: int, terms: tuple) -> int:
    """The bits with a move into ``states`` on the symbol ``terms`` describes."""
    up, down = terms
    sources = 0
    for mask, shift in up:
        sources |= (states >> shift) & mask
    for mask, shift in down:
        sources |= (states << shift) & mask
    return sources


def check_rule_book(
    compiled: CompiledStructure,
    book: RuleBook,
    *,
    max_product_states: int = 200_000,
) -> tuple:
    """Decide every rule of ``book`` on ``compiled`` at once: ``(holds, reach)``.

    ``holds[i]`` is true when rule ``i``'s product has no accepting run;
    ``reach[s]`` holds the bits of the product states ``(s, b)`` reachable
    in each rule (:meth:`RuleBook.product_states` counts them).  Forward
    reachability runs over every rule together.  The greatest fixpoint
    ``Z = R ∩ Acc ∩ pre(Z)`` is then peeled with a worklist; it is the set
    of reachable product states with an infinite path through accepting
    states only.  For weak automata that set is non-empty exactly when an
    accepting lasso exists, which is why the book admits weak automata only.

    Raises :class:`~repro.errors.VerificationError` when a rule's product
    exceeds ``max_product_states``, as :func:`find_accepting_lasso` does;
    products are counted only when ``states × depth`` could exceed it.
    """
    moves = [book.transfer(symbol) for symbol in compiled.labels]
    label_ids = compiled.label_ids
    succ = compiled.succ
    n = compiled.num_states
    reach = [0] * n
    pending = [0] * n
    stack: list = []
    for s in compiled.initial:
        new = _post(book.initial, moves[label_ids[s]]) & ~reach[s]
        if new:
            reach[s] |= new
            if not pending[s]:
                stack.append(s)
            pending[s] |= new
    while stack:
        s = stack.pop()
        delta = pending[s]
        pending[s] = 0
        for t in succ[s]:
            new = _post(delta, moves[label_ids[t]]) & ~reach[t]
            if new:
                reach[t] |= new
                if not pending[t]:
                    stack.append(t)
                pending[t] |= new

    if n * book.depth > max_product_states and max(book.product_states(reach)) > max_product_states:
        raise VerificationError(
            f"product exceeded {max_product_states} states; "
            "increase max_product_states or simplify the specification"
        )

    accepting = book.accepting
    alive = [states & accepting for states in reach]
    live = [s for s in range(n) if alive[s]]
    if live:
        preds: list = [[] for _ in range(n)]
        for s in live:
            for t in succ[s]:
                if alive[t]:
                    preds[t].append(s)
        sources = [_pre(alive[t], moves[label_ids[t]]) if alive[t] else 0 for t in range(n)]
        queued = [bool(z) for z in alive]
        while live:
            s = live.pop()
            queued[s] = False
            kept = 0
            for t in succ[s]:
                kept |= sources[t]
            kept &= alive[s]
            if kept != alive[s]:
                alive[s] = kept
                sources[s] = _pre(kept, moves[label_ids[s]])
                for p in preds[s]:
                    if alive[p] and not queued[p]:
                        queued[p] = True
                        live.append(p)

    violated = 0
    for states in alive:
        violated |= states
    return tuple(not (violated & column) for column in book.columns), reach


def automaton_accepts_lasso(
    nba: BuchiAutomaton, prefix: Sequence, cycle: Sequence
) -> bool:
    """Does ``nba`` accept the ultimately-periodic word ``prefix · cycle^ω``?

    ``prefix``/``cycle`` are symbol sequences (``cycle`` non-empty).  Used by
    the fuzz suite to spot-check that :func:`prune_automaton` preserves the
    language: acceptance of any lasso word must be identical before and
    after pruning.
    """
    if not cycle:
        raise ValueError("a lasso word needs a non-empty cycle")
    word = list(prefix) + list(cycle)
    lasso = KripkeStructure(name="lasso")
    for i, symbol in enumerate(word):
        lasso.add_state(i, symbol, initial=i == 0)
    for i in range(len(word) - 1):
        lasso.add_transition(i, i + 1)
    lasso.add_transition(len(word) - 1, len(prefix))
    cached = CachedAutomaton(_rename_states(nba))
    if cached.is_empty:
        return False
    found, _stats = find_accepting_lasso(compile_kripke(lasso), cached)
    return found is not None


def _rename_states(nba: BuchiAutomaton) -> BuchiAutomaton:
    """Rename reachable NBA states to ``0..n-1`` (BFS order), language-preserving."""
    out: dict = {s: [] for s in nba.states}
    for t in nba.transitions:
        out[t.source].append(t)
    rename: dict = {}
    queue = deque()
    for s in sorted(nba.initial_states, key=repr):
        if s not in rename:
            rename[s] = len(rename)
            queue.append(s)
    while queue:
        s = queue.popleft()
        for t in out[s]:
            if t.target not in rename:
                rename[t.target] = len(rename)
                queue.append(t.target)
    renamed = BuchiAutomaton(name=f"{nba.name}_renamed")
    for s, i in rename.items():
        renamed.add_state(
            i, initial=s in nba.initial_states, accepting=s in nba.accepting_states
        )
    for t in nba.transitions:
        if t.source in rename and t.target in rename:
            renamed.add_transition(rename[t.source], t.constraint, rename[t.target])
    return renamed


# ---------------------------------------------------------------------- #
# Structure fingerprints and the verification-result cache
# ---------------------------------------------------------------------- #
def controller_fingerprint(controller: FSAController) -> str:
    """Digest of a controller's *structure* (name excluded).

    Two controllers built from the same canonical response text fingerprint
    identically, so re-verifying a repeated sampled response becomes a
    :class:`ResultCache` hit instead of a product exploration.
    """
    payload = {
        "initial": controller.initial_state,
        "states": controller.states,
        "transitions": [
            [t.source, str(t.guard), sorted(t.action), t.target]
            for t in controller.transitions
        ],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def model_fingerprint(model: TransitionSystem) -> str:
    """Digest of a world model: name, states, labels, transitions, initial states.

    Keys this module's :class:`ResultCache` and every persisted feedback
    score (:func:`repro.serving.cache.cache_key`), so editing a scenario
    model, or supplying a custom ``model_builder``, cannot make a persisted
    cache serve scores computed against the old model.  The payload is part
    of those persisted keys: changing it turns every cache directory cold.
    """
    payload = {
        "name": model.name,
        "states": sorted(model.states),
        "labels": {state: sorted(model.label(state)) for state in model.states},
        "transitions": sorted(model.transitions()),
        "initial": sorted(model.initial_states),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU from a caller's key to an immutable verification outcome.

    :class:`~repro.feedback.formal.FormalVerifier` keys it on ``(model
    fingerprint, controller fingerprint)`` and stores the satisfied and
    violated rule names; :class:`~repro.modelcheck.checker.ModelChecker`
    adds a spec key and stores the frozen
    :class:`~repro.modelcheck.checker.VerificationResult`.  Values are
    shared between hits, so they must not be mutated.  Thread-safe: a
    verifier can be reached from a dispatcher thread and from direct
    ``score_batch`` callers at once.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key):
        """The cached result for ``key`` (refreshing LRU order), or ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key, result) -> None:
        """Insert a result, evicting the least recently used past the bound."""
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        """Hit/miss/size counters."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry and counter."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0

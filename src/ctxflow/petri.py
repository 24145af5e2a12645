"""Colored-token net translation of a process model and its state space.

The generated net has two layers. Layer 2 is the activity spine: a case
token travels Start -> Activity_1 -> INFO_1 -> ... -> End, with each
activity gated on the decision token produced by its context pipeline.
Layer 1 mirrors the context graph: the single contextual-situation token is
borrowed by one activity's pipeline at a time, flows through state, entity,
attribute and value places, composes into the activity's composite value,
and returns to the contextual event where the fragment decision is thrown.

Tokens carry a color label; a place's color set is the set of labels it may
hold and arcs require/produce specific labels. A net is plain data: a place
is its name and color set, a transition its name, an arc a triple.

``explore`` numbers the reachable markings once, in discovery order, and
records the arcs between those numbers; the property checks walk the
numbers and hash no marking beyond one lookup of their goal.
"""

from __future__ import annotations

import gc
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, KeysView, List, Mapping, Sequence, Tuple

from .errors import NotEnabledError, PartialSpaceError

# Token color labels.
CASE = "case"  # process case token on the spine
CS = "cs"  # contextual-situation token; staged as cs1, cs2, ... per pipeline
STATE = "s"  # context state travelling through layer 1
STATE_VALUE = "sv"  # contextual event annotated with its composite value
ENTITY = "e"
ATTR = "a"
ATOMIC = "v"
COMPOSITE = "V"
FRAG = "frag"  # throwActivity decision token


Arc = Tuple[str, str, str]  # (source, target, label) of a token consumed/produced
# Per transition, (key index, count) pairs in key order.
Vector = Tuple[Tuple[int, int], ...]
# Per transition and key it consumes or changes, in key order:
# ((place, label), place, label, tokens needed, net change).
Moves = Tuple[Tuple[Tuple[str, str], str, str, int, int], ...]


@dataclass(frozen=True)
class Net:
    """A net, compiled once on construction for firing on integer markings.

    ``places`` maps each place name to its color set, and ``transitions``
    lists the transition names. ``keys`` holds, sorted, the (place, label)
    pairs that arcs consume or produce; an integer marking (``state``)
    holds one count per key.
    For the transition at position i of ``transitions``, ``pre_vectors[i]``
    is what it consumes, ``deltas[i]`` its non-zero net effect, and
    ``affected[i]`` the transitions that consume a key its delta changes:
    the only ones whose enabling can change when it fires. ``moves[i]``
    holds the same need and change per key, named, for ``fire`` to merge
    with a marking.
    """

    places: Mapping[str, FrozenSet[str]]
    transitions: Tuple[str, ...]
    arcs: Tuple[Arc, ...]
    initial_marking: "Marking"
    keys: Tuple[Tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    key_index: Mapping[Tuple[str, str], int] = field(init=False, repr=False, compare=False)
    transition_index: Mapping[str, int] = field(init=False, repr=False, compare=False)
    pre_vectors: Tuple[Vector, ...] = field(init=False, repr=False, compare=False)
    deltas: Tuple[Vector, ...] = field(init=False, repr=False, compare=False)
    affected: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    moves: Tuple[Moves, ...] = field(init=False, repr=False, compare=False)
    _inputs: Mapping[str, Dict[Tuple[str, str], int]] = field(init=False, repr=False, compare=False)
    _outputs: Mapping[str, Dict[Tuple[str, str], int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        places, transitions = self.places, self.transitions
        inputs = {t: {} for t in transitions}
        if len(inputs) < len(transitions):
            repeated = next(t for t, n in Counter(transitions).items() if n > 1)
            raise ValueError("transition name %r is repeated" % (repeated,))
        if places.keys() & inputs.keys():
            raise ValueError("place and transition names must be disjoint")
        outputs = {t: {} for t in transitions}
        for source, target, label in self.arcs:
            if source in places and target in inputs:
                counts, key, verb = inputs[target], (source, label), "consumes"
                colorset = places[source]
            elif source in inputs and target in places:
                counts, key, verb = outputs[source], (target, label), "produces"
                colorset = places[target]
            else:
                raise ValueError(
                    "arc %s->%s does not connect a place and a transition"
                    % (source, target)
                )
            counts[key] = counts.get(key, 0) + 1
            if label not in colorset:
                raise ValueError(
                    "arc %s->%s %s label %r outside the color set"
                    % (source, target, verb, label)
                )
        for t in transitions:
            if not inputs[t] or not outputs[t]:
                raise ValueError("transition %r lacks input or output arcs" % (t,))
        object.__setattr__(self, "_inputs", inputs)
        object.__setattr__(self, "_outputs", outputs)
        self._compile()

    def pre(self, transition: str) -> Counter:
        """(place, label) -> tokens ``transition`` consumes."""
        return Counter(self._inputs.get(transition, ()))

    def post(self, transition: str) -> Counter:
        """(place, label) -> tokens ``transition`` produces."""
        return Counter(self._outputs.get(transition, ()))

    def _compile(self):
        names = self.transitions
        pres = [self.pre(name) for name in names]
        posts = [self.post(name) for name in names]
        keys = tuple(sorted(set().union(*pres, *posts)))
        index = {key: k for k, key in enumerate(keys)}
        readers: List[List[int]] = [[] for _ in keys]
        pre_vectors, deltas, moves = [], [], []
        for t, (pre, post) in enumerate(zip(pres, posts)):
            vector, delta, move = [], [], []
            # Key positions ascend as the keys do, so this is key order.
            for k in sorted([index[key] for key in pre.keys() | post.keys()]):
                key = keys[k]
                need = pre.get(key, 0)
                change = post.get(key, 0) - need
                if need:
                    vector.append((k, need))
                    readers[k].append(t)
                if change:
                    delta.append((k, change))
                move.append((key, key[0], key[1], need, change))
            pre_vectors.append(tuple(vector))
            deltas.append(tuple(delta))
            moves.append(tuple(move))
        affected = tuple(
            tuple(sorted({t for k, _ in delta for t in readers[k]}))
            for delta in deltas
        )
        for attribute, value in (
            ("keys", keys),
            ("key_index", index),
            ("transition_index", {name: t for t, name in enumerate(names)}),
            ("pre_vectors", tuple(pre_vectors)),
            ("deltas", tuple(deltas)),
            ("affected", affected),
            ("moves", tuple(moves)),
        ):
            object.__setattr__(self, attribute, value)

    def state(self, marking: "Marking") -> List[int]:
        """The integer marking of ``marking``: its count for every key.

        Tokens under keys that no arc touches are left out; no firing reads
        or changes them.
        """
        counts = [0] * len(self.keys)
        for place, label, count in marking:
            k = self.key_index.get((place, label))
            if k is not None:
                counts[k] = count
        return counts

    def enabled_at(self, state: Sequence[int]) -> List[int]:
        """Positions of the transitions enabled at the integer marking ``state``."""
        return [
            t
            for t, pre in enumerate(self.pre_vectors)
            if all(state[k] >= need for k, need in pre)
        ]


# A marking maps (place, label) -> token count; canonically a sorted tuple.
Marking = Tuple[Tuple[str, str, int], ...]


def make_marking(tokens: Mapping[Tuple[str, str], int]) -> Marking:
    return tuple([
        (place, label, count)
        for (place, label), count in sorted(tokens.items())
        if count > 0
    ])


def enabled(net: Net, marking: Marking) -> List[str]:
    """Names of the transitions enabled at ``marking``, in net order."""
    return [net.transitions[t] for t in net.enabled_at(net.state(marking))]


def fire(net: Net, marking: Marking, transition: str) -> Marking:
    """Consume the input tokens of ``transition`` and produce its outputs.

    ``marking`` is canonical, so its entries are in key order, as the
    transition's moves are: one walk over both, in step, copies the
    entries no move touches and rewrites those it does.
    """
    t = net.transition_index.get(transition)
    if t is None:
        raise NotEnabledError("unknown transition %r" % (transition,))
    result = []
    i, n = 0, len(marking)
    for key, place, label, need, change in net.moves[t]:
        # An entry sorts before a key when its (place, label) does: an
        # entry under the key itself sorts after it, being longer.
        while i < n and marking[i] < key:
            result.append(marking[i])
            i += 1
        if i < n and marking[i][0] == place and marking[i][1] == label:
            have = marking[i][2]
            i += 1
        else:
            have = 0
        if have < need:
            raise NotEnabledError(
                "transition %r is not enabled at this marking" % (transition,)
            )
        if have + change:
            result.append((place, label, have + change))
    result += marking[i:]
    return tuple(result)


@dataclass
class StateSpace:
    """The explored markings, numbered, and the arcs between their numbers.

    ``number`` maps each marking to its number, in discovery order: the
    initial marking is 0. ``out[i]`` holds the (transition, successor
    number) arcs of marking i, in firing order, and is the one record of
    the arcs; a dead marking has ``[]``. Markings are expanded in number
    order, so ``out`` covers the first ``len(out)`` numbers: all of them in
    an exact space. A partial space lacks the markings left undiscovered,
    has no ``out`` entry for those discovered but not expanded, and the
    last one expanded may lack some of its arcs.
    """

    number: Dict[Marking, int]
    out: List[List[Tuple[str, int]]]
    partial: bool

    @property
    def initial(self) -> Marking:
        return next(iter(self.number))

    @property
    def nodes(self) -> KeysView[Marking]:
        """The markings, in number order."""
        return self.number.keys()

    @property
    def node_count(self) -> int:
        return len(self.number)

    @property
    def arcs(self) -> List[Tuple[Marking, str, Marking]]:
        """(marking, transition, successor) for every arc, in ``out`` order."""
        nodes = list(self.number)
        return [(nodes[i], t, nodes[j]) for i, arcs in enumerate(self.out) for t, j in arcs]

    @property
    def successors(self) -> Dict[Marking, List[Tuple[str, Marking]]]:
        """Each expanded marking's arcs, by marking rather than number."""
        nodes = list(self.number)
        return {nodes[i]: [(t, nodes[j]) for t, j in arcs] for i, arcs in enumerate(self.out)}

    @property
    def arc_count(self) -> int:
        return sum(map(len, self.out))


def explore(net: Net, limit: int = 100000) -> StateSpace:
    """Breadth-first exhaustive exploration of the markings reachable from
    ``net.initial_marking``.

    The result is exact when fewer than ``limit`` markings exist, else it is
    flagged partial. Canonical marking encoding makes the space independent
    of internal work ordering. Successors come from ``fire``, the one firing
    rule. Each marking waiting in the frontier also carries its integer
    marking and its enabled transitions; after a firing, only the
    transitions in ``net.affected`` of the fired one are rechecked.
    Each successor is hashed once, to file it in ``number`` or find its
    number there; the arc records that number. No other step hashes a
    marking, and every check then walks numbers.

    The walk builds no reference cycles, so the cyclic collector is paused
    for the call: each pass would only walk the growing space and free
    nothing. The caller's setting is put back afterwards, whether the walk
    ends or raises. The setting is process-wide, so another thread sees
    the collector paused meanwhile.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    collecting = gc.isenabled()
    gc.disable()
    try:
        names = net.transitions
        pre_vectors, deltas, affected = net.pre_vectors, net.deltas, net.affected
        rechecked = [frozenset(ts) for ts in affected]
        m0 = net.initial_marking
        number = {m0: 0}
        out: List[List[Tuple[str, int]]] = []
        partial = False
        state = net.state(m0)
        frontier = deque([(m0, state, net.enabled_at(state))])
        while frontier and not partial:
            marking, state, live = frontier.popleft()
            arcs: List[Tuple[str, int]] = []
            out.append(arcs)
            for t in live:
                name = names[t]
                successor = fire(net, marking, name)
                count = len(number)
                j = number.setdefault(successor, count)
                if j == count:
                    if count >= limit:
                        del number[successor]
                        partial = True
                        break
                    after = list(state)
                    for k, change in deltas[t]:
                        after[k] += change
                    recheck = rechecked[t]
                    now = [u for u in live if u not in recheck]
                    for u in affected[t]:
                        for k, need in pre_vectors[u]:
                            if after[k] < need:
                                break
                        else:
                            now.append(u)
                    now.sort()
                    frontier.append((successor, after, now))
                arcs.append((name, j))
        return StateSpace(number, out, partial)
    finally:
        if collecting:
            gc.enable()


# -- property checks --------------------------------------------------------


@dataclass(frozen=True)
class BoundednessReport:
    bounds: Mapping[str, int]  # per-place maximum token count
    k: int

    @property
    def bounded(self) -> bool:
        return all(b <= self.k for b in self.bounds.values())

    def violations(self):
        return {p: b for p, b in self.bounds.items() if b > self.k}


def check_bounded(space: StateSpace, k: int, net: Net) -> BoundednessReport:
    """The most tokens each place holds in any marking of ``space``."""
    bounds: Dict[str, int] = dict.fromkeys(net.places, 0)
    get = bounds.get
    for marking in space.number:
        # A canonical marking lists each place's entries together.
        place, total = None, 0
        for p, _, count in marking:
            if p == place:
                total += count
                continue
            if place is not None and total > get(place, -1):
                bounds[place] = total
            place, total = p, count
        if place is not None and total > get(place, -1):
            bounds[place] = total
    return BoundednessReport(bounds, k)


@dataclass(frozen=True)
class LivenessReport:
    dead_transitions: Tuple[str, ...]
    dead_markings: Tuple[Marking, ...]


def check_liveness(space: StateSpace, net: Net) -> LivenessReport:
    if space.partial:
        raise PartialSpaceError("liveness needs an exact state space")
    fired = {t for arcs in space.out for t, _ in arcs}
    dead_transitions = tuple(sorted(t for t in net.transitions if t not in fired))
    dead_markings = tuple(sorted(m for m, arcs in zip(space.number, space.out) if not arcs))
    return LivenessReport(dead_transitions, dead_markings)


def check_reachable(space: StateSpace, goal: Marking) -> Tuple[bool, List[str]]:
    """Shortest transition path from the initial marking to ``goal``.

    ``goal`` is looked up once; the breadth-first search then walks
    numbers, taking each marking's arcs sorted by transition name. A
    marking's arcs have distinct names, so this is the order of its
    (transition, successor) pairs. ``via[j]`` holds the number and the
    transition that first reached j, and the search stops there when j is
    the goal. A marking of a partial space that was never expanded has no
    arcs to follow.
    """
    target = space.number.get(goal)
    if target is None:
        return False, []
    out = space.out
    expanded = len(out)
    via = [None] * len(space.number)
    via[0] = (0, "")
    frontier = deque([0])
    while frontier and via[target] is None:
        i = frontier.popleft()
        if i < expanded:
            for name, j in sorted(out[i]):
                if via[j] is None:
                    via[j] = (i, name)
                    frontier.append(j)
    if via[target] is None:
        return False, []
    path = []
    while target:
        target, name = via[target]
        path.append(name)
    path.reverse()
    return True, path


def check_home(space: StateSpace, marking: Marking) -> bool:
    """True when ``marking`` is reachable from every reachable marking.

    ``marking`` is looked up once. The backward search from its number then
    walks the reverse of ``out``, as lists of numbers, and marks what it
    reaches in a bytearray.
    """
    if space.partial:
        raise PartialSpaceError("home property needs an exact state space")
    target = space.number.get(marking)
    if target is None:
        return False  # not reachable, so not even from the initial marking
    reverse: List[List[int]] = [[] for _ in space.out]
    for i, arcs in enumerate(space.out):
        for _, j in arcs:
            reverse[j].append(i)
    reached = bytearray(len(reverse))
    reached[target] = 1
    stack = [target]
    while stack:
        for prev in reverse[stack.pop()]:
            if not reached[prev]:
                reached[prev] = 1
                stack.append(prev)
    return reached.count(1) == len(reverse)


def goal_marking(net: Net) -> Marking:
    """The marking with a single case token on End and nothing else."""
    return make_marking({("End", CASE): 1})


# -- translation ------------------------------------------------------------


def translate(model) -> Net:
    """Generate the two-layer net for a (possibly adapted) process model.

    Layer-2 naming follows the Activity_i / INFO_i / ContextualEvent_i /
    Returned_i scheme with INFO_1..INFO_(n-1) between consecutive
    activities; layer 1 mirrors the context graph restricted to the state
    nodes of activities present in the chain, with each pipeline's entity,
    attribute and value nodes suffixed by its position. Each activity's
    substitution transition is a begin/busy/end task sequence.

    As in ``explore``, the cyclic collector is paused for the call: the
    translation builds no reference cycles, so each pass would only walk
    the growing net and free nothing. The caller's setting is put back
    afterwards, whether the translation ends or raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        order = model.chain.order()
        n = len(order)
        graph = model.graph

        places: Dict[str, FrozenSet[str]] = {}
        transitions: List[str] = []
        arcs: List[Arc] = []

        def place(name, *labels):
            places[name] = frozenset(labels)
            return name

        def transition(name):
            transitions.append(name)
            return name

        def arc(source, target, label):
            arcs.append((source, target, label))

        # Which activities carry a context pipeline (state node present). The
        # situation token is colored by pipeline stage (cs1, cs2, ...) so the
        # pipelines consume it strictly in activity order.
        piped = [i for i, aid in enumerate(order, start=1) if aid in graph.state_nodes]
        last_piped = piped[-1] if piped else None
        stage_of = {i: k for k, i in enumerate(piped, start=1)}

        place("Start", CASE)
        place("End", CASE)
        cs_labels = tuple("%s%d" % (CS, k) for k in range(1, len(piped) + 1)) or (CS,)
        place("ContextualSituation", *cs_labels)
        for i in range(1, n):
            place("INFO_%d" % i, CASE)

        attributes_of: Dict[str, List[str]] = {}
        for name in sorted(graph.attributes):
            attributes_of.setdefault(graph.attributes[name].entity, []).append(name)

        for i, aid in enumerate(order, start=1):
            upstream = "Start" if i == 1 else "INFO_%d" % (i - 1)
            downstream = "End" if i == n else "INFO_%d" % i

            node = graph.state_nodes.get(aid)
            has_pipeline = node is not None
            if has_pipeline:
                ce = place("ContextualEvent_%d" % i, STATE, STATE_VALUE)
                returned = place("Returned_%d" % i, FRAG)
                state_place = place("State_%d" % i, STATE)
                value_place = place("VALUE_%d" % i, COMPOSITE)

                stage = stage_of[i]
                catch = transition("catchContext_%d" % i)
                arc("ContextualSituation", catch, "%s%d" % (CS, stage))
                arc(catch, ce, STATE)

                propagate_state = transition("PropagateState_%d" % i)
                arc(ce, propagate_state, STATE)
                arc(propagate_state, state_place, STATE)

                # The pipeline's own entity -> attribute -> value chains, so
                # that no other pipeline's composition can take their values.
                mapping = transition("Mapping_%d" % i)
                arc(state_place, mapping, STATE)
                composition = transition("Composition_%d" % i)
                for entity in node.parameters:
                    entity_place = place("Entity_%s_%d" % (entity, i), ENTITY)
                    spread = transition("Attributes_%s_%d" % (entity, i))
                    arc(mapping, entity_place, ENTITY)
                    arc(entity_place, spread, ENTITY)
                    for attr_name in attributes_of[entity]:
                        held = place("A_%s_%d" % (attr_name, i), ATTR)
                        grab = transition("Grab_value_%s_%d" % (attr_name, i))
                        value = place("value_%s_%d" % (attr_name, i), ATOMIC)
                        arc(spread, held, ATTR)
                        arc(held, grab, ATTR)
                        arc(grab, value, ATOMIC)
                        arc(value, composition, ATOMIC)
                arc(composition, value_place, COMPOSITE)

                propagate_v = transition("PropagateV_%d" % i)
                arc(value_place, propagate_v, COMPOSITE)
                arc(propagate_v, ce, STATE_VALUE)

                throw = transition("throwActivity_%d" % i)
                arc(ce, throw, STATE_VALUE)
                arc(throw, returned, FRAG)
                if i != last_piped:
                    # Hand the situation token on, recolored for the next stage.
                    arc(throw, "ContextualSituation", "%s%d" % (CS, stage + 1))

            # Substitution-transition internals for Activity_i: begin, then end.
            busy = place("Activity_%d_p1" % i, CASE)
            begin = transition("Activity_%d_begin" % i)
            arc(upstream, begin, CASE)
            arc(begin, busy, CASE)
            if has_pipeline:
                arc("Returned_%d" % i, begin, FRAG)
            end = transition("Activity_%d_end" % i)
            arc(busy, end, CASE)
            arc(end, downstream, CASE)

        initial = make_marking(
            {
                ("Start", CASE): 1,
                ("ContextualSituation", "%s1" % CS): 1 if piped else 0,
            }
        )
        return Net(places, tuple(transitions), tuple(arcs), initial)
    finally:
        if collecting:
            gc.enable()

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

A marking is canonically a sorted tuple of (place, label, count) entries.
``explore`` walks packed markings: one int with a ``w``-bit field per key
that an arc touches, ``w`` being 8 unless an initial count or arc weight
needs more. The top bit of each field is a guard: a count that reaches it
makes ``explore`` start over with fields twice as wide. Tokens on keys no
arc touches never change; the net keeps them once, as a canonical tail.
``fire``, the one firing rule, works on packed markings, once per arc. The
space decodes markings on demand; each check encodes its goal once.
"""

from __future__ import annotations

import copy
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ._gc import collector_paused
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


@dataclass(frozen=True)
class Net:
    """A net, compiled once on construction for firing on packed markings.

    ``places`` maps each place name to its color set, and ``transitions``
    lists the transition names. ``keys`` holds, sorted, the (place, label)
    pairs that arcs consume or produce; a packed marking holds key k's count
    in the ``width`` bits from bit ``k * width``. ``mask`` covers one field
    and ``guard`` the top bit of each. ``tail`` holds the initial marking's
    entries on other keys, and ``initial_state`` the packed rest of it.
    For the transition at position t, ``pre_vectors[t]`` holds a (shift,
    need) pair per key it consumes, ``deltas[t]`` the sum of each key's
    change shifted to its field, and ``affected[t]`` the transitions that
    consume a key it changes: the only ones it can enable or disable.
    """

    places: Mapping[str, FrozenSet[str]]
    transitions: Tuple[str, ...]
    arcs: Tuple[Arc, ...]
    initial_marking: "Marking"
    keys: Tuple[Tuple[str, str], ...] = field(init=False, repr=False, compare=False)
    key_index: Mapping[Tuple[str, str], int] = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)
    guard: int = field(init=False, repr=False, compare=False)
    tail: "Marking" = field(init=False, repr=False, compare=False)
    initial_state: int = field(init=False, repr=False, compare=False)
    pre_vectors: Tuple[Tuple[Tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False)
    deltas: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    affected: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
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
                raise ValueError("arc %s->%s does not connect a place and a transition"
                                 % (source, target))
            counts[key] = counts.get(key, 0) + 1
            if label not in colorset:
                raise ValueError("arc %s->%s %s label %r outside the color set"
                                 % (source, target, verb, label))
        for t in transitions:
            if not inputs[t] or not outputs[t]:
                raise ValueError("transition %r lacks input or output arcs" % (t,))
        self.__dict__.update(_inputs=inputs, _outputs=outputs)  # frozen: no setattr
        self._compile(8)

    def pre(self, transition: str) -> Counter:
        """(place, label) -> tokens ``transition`` consumes."""
        return Counter(self._inputs.get(transition, ()))

    def post(self, transition: str) -> Counter:
        """(place, label) -> tokens ``transition`` produces."""
        return Counter(self._outputs.get(transition, ()))

    def _compile(self, width: int):
        """Pack the net in fields of ``width`` bits, doubled until each initial
        count and arc weight is below the guard bit: then no field carries."""
        pres = [self.pre(name) for name in self.transitions]
        posts = [self.post(name) for name in self.transitions]
        keys = tuple(sorted(set().union(*pres, *posts)))
        index = {key: k for k, key in enumerate(keys)}
        initial = [(index.get(entry[:2]), entry) for entry in self.initial_marking]
        counts = [entry[2] for k, entry in initial if k is not None]
        largest = max(counts + [n for c in pres + posts for n in c.values()], default=0)
        while largest >> (width - 1):
            width *= 2
        readers: List[List[int]] = [[] for _ in keys]
        pre_vectors, deltas, changes = [], [], []
        for t, (pre, post) in enumerate(zip(pres, posts)):
            vector, delta, changed = [], 0, []
            # Key positions ascend as the keys do, so this is key order.
            for k in sorted([index[key] for key in pre.keys() | post.keys()]):
                need = pre.get(keys[k], 0)
                change = post.get(keys[k], 0) - need
                if need:
                    vector.append((k * width, need))
                    readers[k].append(t)
                if change:
                    delta += change << k * width
                    changed.append(k)
            pre_vectors.append(tuple(vector))
            deltas.append(delta)
            changes.append(changed)
        mask = (1 << width) - 1
        self.__dict__.update(
            keys=keys, key_index=index, width=width, mask=mask,
            # The top bit of each field: the sum of 1 << k * width, shifted.
            guard=((1 << len(keys) * width) - 1) // mask << (width - 1),
            tail=tuple(entry for k, entry in initial if k is None),
            initial_state=sum(entry[2] << k * width for k, entry in initial if k is not None),
            pre_vectors=tuple(pre_vectors),
            deltas=tuple(deltas),
            affected=tuple(
                tuple(sorted({t for k in changed for t in readers[k]})) for changed in changes
            ),
        )


# A marking maps (place, label) -> token count; canonically a sorted tuple.
Marking = Tuple[Tuple[str, str, int], ...]


def make_marking(tokens: Mapping[Tuple[str, str], int]) -> Marking:
    return tuple(sorted([key + (count,) for key, count in tokens.items() if count > 0]))


def encode(net: Net, marking: Marking) -> Optional[int]:
    """The packed form of the canonical ``marking`` in ``net``, or None when
    no marking that ``net`` reaches has one: its entries on keys that no
    arc touches differ from the tail, or a count reaches the guard bit."""
    state, tail = 0, []
    for entry in marking:
        k = net.key_index.get(entry[:2])
        if k is None:
            tail.append(entry)
        elif entry[2] >> (net.width - 1):
            return None
        else:
            state += entry[2] << k * net.width
    return state if tuple(tail) == net.tail else None


def _counts(state: int, size: int, width: int):
    """The counts in the first ``size`` fields of ``width`` bits of ``state``."""
    step = width // 8
    raw = state.to_bytes(size * step, "little")
    return raw if step == 1 else [
        int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def decode(net: Net, state: int) -> Marking:
    """The canonical marking of the packed ``state``: the keys whose fields
    hold tokens, with the tail merged in."""
    counts = _counts(state, len(net.keys), net.width)
    entries = [key + (count,) for key, count in zip(net.keys, counts) if count]
    return tuple(sorted(entries + list(net.tail)) if net.tail else entries)


def _enabled_at(net: Net, state: int) -> List[int]:
    """Positions of the transitions enabled at the packed ``state``."""
    return [t for t, pre in enumerate(net.pre_vectors)
            if all(state >> shift & net.mask >= need for shift, need in pre)]


def enabled(net: Net, marking: Marking) -> List[str]:
    """Names of the transitions enabled at ``marking``, which ``encode`` must
    pack for ``net``, in net order."""
    state = encode(net, marking)
    if state is None:
        raise ValueError("the marking has no packed form in this net")
    return [net.transitions[t] for t in _enabled_at(net, state)]


def fire(net: Net, state: int, t: int) -> int:
    """The packed marking after the transition at position ``t`` fires at
    the packed ``state``, whose fields, read by shift and mask, must hold
    what it consumes: one addition applies its delta. Raises
    ``NotEnabledError`` when ``t`` is no position or not enabled."""
    if not 0 <= t < len(net.deltas):
        raise NotEnabledError("no transition at position %r" % (t,))
    mask = net.mask
    for shift, need in net.pre_vectors[t]:
        if state >> shift & mask < need:
            raise NotEnabledError("transition %r is not enabled" % (net.transitions[t],))
    return state + net.deltas[t]


@dataclass
class StateSpace:
    """The explored markings, numbered, and the arcs between their numbers.

    ``number`` maps each packed marking to its number, in discovery order:
    the initial marking is 0. ``out[i]`` holds the (transition, successor
    number) arcs of marking i, in firing order, and is the one record of
    the arcs; a dead marking has ``[]``. Markings are expanded in number
    order, so ``out`` covers the first ``len(out)`` numbers: all of them in
    an exact space. A partial space lacks the markings left undiscovered,
    has no ``out`` entry for those discovered but not expanded, and the
    last one expanded may lack some of its arcs. ``net``, packed as wide as
    the walk needed, decodes ``nodes`` and ``arcs`` on demand.
    """

    number: Dict[int, int]
    out: List[List[Tuple[str, int]]]
    partial: bool
    net: Net

    @property
    def initial(self) -> Marking:
        return self.net.initial_marking

    @property
    def nodes(self) -> List[Marking]:
        """The markings, in number order."""
        return [decode(self.net, state) for state in self.number]

    @property
    def node_count(self) -> int:
        return len(self.number)

    @property
    def arcs(self) -> List[Tuple[Marking, str, Marking]]:
        """(marking, transition, successor) for every arc, in ``out`` order."""
        nodes = self.nodes
        return [(nodes[i], t, nodes[j]) for i, arcs in enumerate(self.out) for t, j in arcs]

    @property
    def arc_count(self) -> int:
        return sum(map(len, self.out))


@collector_paused
def explore(net: Net, limit: int = 100000) -> StateSpace:
    """Breadth-first exhaustive exploration of the markings reachable from
    ``net.initial_marking``.

    The result is exact when fewer than ``limit`` markings exist, else it is
    flagged partial. The walk runs on packed markings (see the module
    notes): each arc's successor comes from one call of ``fire`` and is
    hashed once, an int, to file it in ``number`` or find its number. Each
    marking in the frontier carries its enabled transitions; a firing
    rechecks, by shift and mask, only those in ``net.affected``. A new
    successor with a guard bit set starts the walk over on a copy of the
    net packed twice as wide, which numbers the markings alike. The cyclic
    collector is paused for the call (see ``_gc.collector_paused``).
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    while True:
        names, mask, guard = net.transitions, net.mask, net.guard
        pre_vectors, affected = net.pre_vectors, net.affected
        rechecked = [frozenset(ts) for ts in affected]
        start = net.initial_state
        number, out, partial = {start: 0}, [], False
        frontier = deque([(start, _enabled_at(net, start))])
        while frontier and not partial:
            state, live = frontier.popleft()
            arcs: List[Tuple[str, int]] = []
            out.append(arcs)
            for t in live:
                successor = fire(net, state, t)
                count = len(number)
                j = number.setdefault(successor, count)
                if j == count:
                    if count >= limit or successor & guard:
                        del number[successor]
                        partial = True
                        break
                    recheck = rechecked[t]
                    now = [u for u in live if u not in recheck]
                    for u in affected[t]:
                        for shift, need in pre_vectors[u]:
                            if successor >> shift & mask < need:
                                break
                        else:
                            now.append(u)
                    now.sort()
                    frontier.append((successor, now))
                arcs.append((names[t], j))
        # A walk stopped short of the limit stopped at a guard bit.
        if not partial or len(number) >= limit:
            return StateSpace(number, out, partial, net)
        net = copy.copy(net)
        net._compile(2 * net.width)


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
    """The most tokens each place holds in any marking of ``space``.

    A marking's discovery arc (the first in ``out`` to reach it) leaves a
    marking numbered before it, so a place holds its most at the initial
    marking or at one whose discovery arc produced into it. The markings a
    transition discovered are ORed together: the fields of a place it
    produces into, read from that union, bound the place's total there and
    give it when they add up to at most one token. Past that, each is read.
    """
    packed, width = space.net, space.net.width
    bounds: Dict[str, int] = dict.fromkeys(net.places, 0)
    for place, _, count in space.initial:
        bounds[place] = bounds.get(place, 0) + count
    tail: Dict[str, int] = {}  # the same in every marking
    for place, _, count in packed.tail:
        tail[place] = tail.get(place, 0) + count
    # A place's keys sort together, so its fields are one run of bits.
    fields: Dict[str, Tuple[int, int]] = {}  # place -> (first key, last key + 1)
    for key, (place, _) in enumerate(packed.keys):
        fields[place] = (fields.get(place, (key,))[0], key + 1)
    discovered: Dict[str, List[int]] = {name: [] for name in net.transitions}
    states = list(space.number)
    found = 1
    for arcs in space.out:
        for name, j in arcs:
            if j == found:
                found += 1
                discovered[name].append(states[j])
    unions = {name: reduce(or_, group) for name, group in discovered.items() if group}
    # Only a transition that produces into a place can raise its total.
    for name, place in {(source, target) for source, target, _ in net.arcs if source in unions}:
        first, end = fields[place]
        size = end - first
        shift, span = first * width, (1 << size * width) - 1
        most = unions[name] >> shift & span
        if size > 1:
            most = sum(_counts(most, size, width))
        if most > 1:
            most = max(sum(_counts(s >> shift & span, size, width)) for s in discovered[name])
        bounds[place] = max(bounds[place], most + tail.get(place, 0))
    return BoundednessReport(bounds, k)


@dataclass(frozen=True)
class LivenessReport:
    dead_transitions: Tuple[str, ...]
    dead_markings: Tuple[Marking, ...]


def check_liveness(space: StateSpace, net: Net) -> LivenessReport:
    """Transitions no arc fires, and the markings without arcs, decoded."""
    if space.partial:
        raise PartialSpaceError("liveness needs an exact state space")
    fired = {t for arcs in space.out for t, _ in arcs}
    dead_transitions = tuple(sorted(t for t in net.transitions if t not in fired))
    dead_markings = tuple(sorted(decode(space.net, state) for state, arcs
                                 in zip(space.number, space.out) if not arcs))
    return LivenessReport(dead_transitions, dead_markings)


def check_reachable(space: StateSpace, goal: Marking) -> Tuple[bool, List[str]]:
    """Shortest transition path from the initial marking to ``goal``.

    ``goal`` is encoded and looked up once: one with no packed form is
    unreachable. The breadth-first search then walks numbers, taking each
    marking's arcs sorted by transition name, as its (transition,
    successor) pairs sort. ``via[j]`` holds the number and the transition
    that first reached j. A marking never expanded has no arcs to follow.
    """
    target = space.number.get(encode(space.net, goal))
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

    ``marking`` is encoded and looked up once. The backward search from its
    number walks the reverse of ``out`` and marks what it reaches.
    """
    if space.partial:
        raise PartialSpaceError("home property needs an exact state space")
    target = space.number.get(encode(space.net, marking))
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


@collector_paused
def translate(model) -> Net:
    """Generate the two-layer net for a (possibly adapted) process model.

    Layer-2 naming follows the Activity_i / INFO_i / ContextualEvent_i /
    Returned_i scheme with INFO_1..INFO_(n-1) between consecutive
    activities; layer 1 mirrors the context graph restricted to the state
    nodes of activities present in the chain, with each pipeline's entity,
    attribute and value nodes suffixed by its position. Each activity's
    substitution transition is a begin/busy/end task sequence. The cyclic
    collector is paused for the call (see ``_gc.collector_paused``).
    """
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

    initial = {("Start", CASE): 1, ("ContextualSituation", "%s1" % CS): 1 if piped else 0}
    return Net(places, tuple(transitions), tuple(arcs), make_marking(initial))

"""Tests for the colored-token net translation and state-space analysis."""

import dataclasses
import gc
import io
import json
import tempfile
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxflow import cli, petri
from ctxflow.chain import ActivityChain, ActivityNode, ProcessModel
from ctxflow.errors import NotEnabledError, PartialSpaceError
from ctxflow.files import load_bundle
from ctxflow.fragments import FragmentRepository
from ctxflow.graph import AttributeNode, ContextGraph, EntityNode, StateNodeDef
from ctxflow.petri import (
    Net,
    check_bounded,
    check_home,
    check_liveness,
    check_reachable,
    decode,
    enabled,
    encode,
    explore,
    fire,
    goal_marking,
    make_marking,
    translate,
)

from bundlegen import Shape, chain_state_space, generate
from oracles import (
    check_bounded_oracle,
    check_home_oracle,
    check_liveness_oracle,
    check_reachable_oracle,
    compile_oracle,
    enabled_oracle,
    explore_oracle,
    fire_by_sort_oracle,
    fire_oracle,
    net_post,
    net_pre,
)
from run import WORKLOADS


def two_step_net():
    """p0 --t1--> p1 --t2--> p2 with a single black token."""
    places = {
        "p0": frozenset({"tok"}),
        "p1": frozenset({"tok"}),
        "p2": frozenset({"tok"}),
    }
    transitions = ("t1", "t2")
    arcs = (
        ("p0", "t1", "tok"),
        ("t1", "p1", "tok"),
        ("p1", "t2", "tok"),
        ("t2", "p2", "tok"),
    )
    return Net(places, transitions, arcs, make_marking({("p0", "tok"): 1}))


def net_error(places, transitions, arcs):
    """The message of the ``ValueError`` that building the net raises."""
    with pytest.raises(ValueError) as raised:
        Net(places, transitions, tuple(arcs), ())
    return str(raised.value)


class TestNetConstruction:
    RED = {
        "p": frozenset({"red"}),
        "q": frozenset({"red"}),
    }

    def test_place_transition_names_must_be_disjoint(self):
        assert net_error(
            {"x": frozenset({"t"})},
            ("x",),
            [("x", "x", "t")],
        ) == "place and transition names must be disjoint"

    @pytest.mark.parametrize("arcs, message", [
        ([("p", "t", "blue"), ("t", "q", "red")],
         "arc p->t consumes label 'blue' outside the color set"),
        ([("p", "t", "red"), ("t", "q", "blue")],
         "arc t->q produces label 'blue' outside the color set"),
    ], ids=["consumed", "produced"])
    def test_arc_label_must_be_in_color_set(self, arcs, message):
        assert net_error(self.RED, ("t",), arcs) == message

    @pytest.mark.parametrize("source, target", [
        ("p", "q"), ("t", "u"), ("p", "nowhere"), ("nowhere", "t"),
    ])
    def test_arc_must_connect_a_place_and_a_transition(self, source, target):
        transitions = ("t", "u")
        assert net_error(self.RED, transitions, [(source, target, "red")]) == (
            "arc %s->%s does not connect a place and a transition" % (source, target)
        )

    @pytest.mark.parametrize("arc", [("p", "t1", "t"), ("t1", "p", "t")],
                             ids=["no-output", "no-input"])
    def test_transition_needs_input_and_output(self, arc):
        places = {"p": frozenset({"t"})}
        assert net_error(places, ("t1",), [arc]) == (
            "transition 't1' lacks input or output arcs"
        )

    @pytest.mark.parametrize("transitions, repeated", [
        (("t", "u", "t"), "t"), (("u", "t", "t", "u"), "u"), (("p", "p"), "p"),
    ])
    def test_a_repeated_transition_name_is_refused(self, transitions, repeated):
        # Named before any other fault: here every arc is also faulty, and
        # ``p`` is a place too.
        assert net_error(self.RED, transitions, [("p", "nowhere", "blue")]) == (
            "transition name %r is repeated" % (repeated,)
        )

    def test_first_fault_is_reported(self):
        # Arcs are checked in order, and every arc before any transition;
        # transitions lacking arcs are named in net order.
        transitions = ("t", "idle", "u")
        arcs = [("p", "t", "red"), ("t", "q", "blue"), ("p", "q", "red")]
        assert net_error(self.RED, transitions, arcs) == (
            "arc t->q produces label 'blue' outside the color set"
        )
        assert net_error(self.RED, transitions, arcs[:1] + arcs[2:]) == (
            "arc p->q does not connect a place and a transition"
        )
        assert net_error(self.RED, transitions, arcs[:1]) == (
            "transition 't' lacks input or output arcs"
        )
        assert net_error(self.RED, transitions, [arcs[0], ("t", "q", "red")]) == (
            "transition 'idle' lacks input or output arcs"
        )


def fire_canonical(net, marking, name):
    """``fire`` on canonical markings: ``marking`` packed in a copy of ``net``
    that starts there, and a name the net lacks given the position past its
    last transition."""
    net = dataclasses.replace(net, initial_marking=marking)
    names = net.transitions
    t = names.index(name) if name in names else len(names)
    return decode(net, fire(net, encode(net, marking), t))


class TestFiringSemantics:
    def test_enabled_lists_fireable_transitions(self):
        net = two_step_net()
        assert enabled(net, net.initial_marking) == ["t1"]

    def test_enabled_refuses_a_marking_the_net_cannot_pack(self):
        net = two_step_net()
        with pytest.raises(ValueError, match="no packed form"):
            enabled(net, make_marking({("p0", "tok"): 1, ("elsewhere", "x"): 1}))

    def test_fire_moves_the_token(self):
        net = two_step_net()
        m1 = fire(net, encode(net, net.initial_marking), 0)
        assert decode(net, m1) == make_marking({("p1", "tok"): 1})
        assert fire_canonical(net, net.initial_marking, "t1") == decode(net, m1)

    def test_fire_disabled_raises(self):
        net = two_step_net()
        with pytest.raises(NotEnabledError, match="'t2' is not enabled"):
            fire(net, encode(net, net.initial_marking), 1)

    @pytest.mark.parametrize("t", [2, -1])
    def test_fire_at_no_position_raises(self, t):
        net = two_step_net()
        with pytest.raises(NotEnabledError, match="no transition at position"):
            fire(net, encode(net, net.initial_marking), t)


class TestExploration:
    def test_exhaustive_space_of_line_net(self):
        net = two_step_net()
        space = explore(net)
        assert space.node_count == 3
        assert space.arc_count == 2
        assert not space.partial

    def test_limit_marks_space_partial(self):
        net = two_step_net()
        space = explore(net, limit=1)
        assert space.partial

    def test_partial_space_blocks_exact_checks(self):
        net = two_step_net()
        space = explore(net, limit=1)
        with pytest.raises(PartialSpaceError):
            check_liveness(space, net)
        with pytest.raises(PartialSpaceError):
            check_home(space, net.initial_marking)


class TestPropertyChecks:
    def test_bounds_and_liveness_on_line_net(self):
        net = two_step_net()
        space = explore(net)
        bounds = check_bounded(space, k=1, net=net)
        assert bounds.bounded
        assert bounds.violations() == {}
        liveness = check_liveness(space, net)
        assert liveness.dead_transitions == ()
        assert liveness.dead_markings == (make_marking({("p2", "tok"): 1}),)

    def test_dead_transition_detected(self):
        places = {
            "p0": frozenset({"tok"}),
            "p1": frozenset({"tok"}),
            "p9": frozenset({"tok"}),
        }
        transitions = ("t1", "never")
        arcs = (
            ("p0", "t1", "tok"),
            ("t1", "p1", "tok"),
            ("p9", "never", "tok"),
            ("never", "p0", "tok"),
        )
        net = Net(places, transitions, arcs, make_marking({("p0", "tok"): 1}))
        space = explore(net)
        assert check_liveness(space, net).dead_transitions == ("never",)

    def test_reachability_returns_shortest_witness(self):
        net = two_step_net()
        space = explore(net)
        ok, path = check_reachable(space, make_marking({("p2", "tok"): 1}))
        assert ok
        assert path == ["t1", "t2"]

    def test_unreachable_goal(self):
        net = two_step_net()
        space = explore(net)
        ok, path = check_reachable(space, make_marking({("p0", "tok"): 2}))
        assert not ok and path == []

    def test_home_marking(self):
        net = two_step_net()
        space = explore(net)
        assert check_home(space, make_marking({("p2", "tok"): 1}))
        assert not check_home(space, net.initial_marking)

    def test_unbounded_place_reported(self):
        places = {
            "src": frozenset({"tok"}),
            "sink": frozenset({"tok"}),
        }
        transitions = ("t",)
        arcs = (
            ("src", "t", "tok"),
            ("t", "src", "tok"),
            ("t", "sink", "tok"),
        )
        net = Net(places, transitions, arcs, make_marking({("src", "tok"): 1}))
        space = explore(net, limit=10)
        bounds = check_bounded(space, k=1, net=net)
        assert not bounds.bounded
        assert "sink" in bounds.violations()


class TestTranslation:
    @pytest.fixture()
    def kiosk_net(self, kiosk_bundle):
        return translate(load_bundle(kiosk_bundle).model)

    def test_layer2_naming_scheme(self, kiosk_net):
        places = set(kiosk_net.places)
        assert {"Start", "End", "ContextualSituation"} <= places
        assert {"INFO_%d" % i for i in range(1, 5)} <= places
        assert {"ContextualEvent_%d" % i for i in range(1, 6)} <= places
        assert {"Returned_%d" % i for i in range(1, 6)} <= places

    def test_layer1_naming_scheme(self, kiosk_net):
        places = set(kiosk_net.places)
        assert {"State_%d" % i for i in range(1, 6)} <= places
        assert {"VALUE_%d" % i for i in range(1, 6)} <= places
        # Each pipeline has its own entity chain, suffixed with its position.
        assert "Entity_Weather_4" in places
        assert "A_Weather.Status_4" in places
        assert "value_Weather.Status_4" in places
        assert {"Entity_Network_4", "Entity_Network_5"} <= places
        assert {"value_Network.Status_4", "value_Network.Status_5"} <= places
        transitions = set(kiosk_net.transitions)
        for i in range(1, 6):
            assert "catchContext_%d" % i in transitions
            assert "PropagateState_%d" % i in transitions
            assert "Mapping_%d" % i in transitions
            assert "Composition_%d" % i in transitions
            assert "PropagateV_%d" % i in transitions
            assert "throwActivity_%d" % i in transitions
        assert "Attributes_Network_4" in transitions
        assert "Attributes_Network_5" in transitions
        assert "Grab_value_Network.Status_4" in transitions
        assert "Grab_value_Network.Status_5" in transitions

    def test_each_value_feeds_its_own_composition(self, kiosk_net):
        # Storage in Cloud (4) and Bill Payment (5) both read Network.Status.
        readers = {}
        for source, target, _ in kiosk_net.arcs:
            if source.startswith("value_"):
                readers.setdefault(source, []).append(target)
        assert readers
        for value, targets in readers.items():
            assert targets == ["Composition_" + value.rsplit("_", 1)[1]]

    def test_the_net_is_plain_data(self, kiosk_net):
        assert kiosk_net.places
        assert all(type(colors) is frozenset for colors in kiosk_net.places.values())
        assert type(kiosk_net.transitions) is tuple
        assert len(set(kiosk_net.transitions)) == len(kiosk_net.transitions)
        assert all(
            type(arc) is tuple and len(arc) == 3 for arc in kiosk_net.arcs
        )

    @pytest.mark.parametrize("limit", [5, 100, None])
    def test_each_arc_is_recorded_once(self, kiosk_net, limit):
        space = explore(kiosk_net) if limit is None else explore(kiosk_net, limit=limit)
        assert space.partial == (limit is not None)
        assert space.arc_count == len(space.arcs) == sum(
            map(len, successors(space).values())
        )
        if limit is None:
            assert (space.node_count, space.arc_count) == (343, 698)

    def test_initial_marking_start_and_situation(self, kiosk_net):
        tokens = dict(
            ((p, l), c) for p, l, c in kiosk_net.initial_marking
        )
        assert tokens[("Start", "case")] == 1
        assert tokens[("ContextualSituation", "cs1")] == 1

    def test_kiosk_properties(self, kiosk_net):
        space = explore(kiosk_net)
        assert not space.partial
        assert space.node_count < 10 ** 5
        assert check_bounded(space, k=1, net=kiosk_net).bounded
        liveness = check_liveness(space, kiosk_net)
        assert liveness.dead_transitions == ()
        goal = goal_marking(kiosk_net)
        assert liveness.dead_markings == (goal,)
        ok, witness = check_reachable(space, goal)
        assert ok and len(witness) > 0
        assert check_home(space, goal)

    def test_goal_witness_exercises_every_transition(self, kiosk_net):
        # The generated net is choice-free: the witness to the goal fires
        # every transition exactly once.
        space = explore(kiosk_net)
        ok, witness = check_reachable(space, goal_marking(kiosk_net))
        assert ok
        assert sorted(witness) == sorted(kiosk_net.transitions)


# -- the compiled explorer against the arc-scanning oracle ------------------


def chain_model(n):
    """n activities, each observing one attribute of its own entity."""
    entities = [EntityNode("E%d" % i) for i in range(n)]
    attributes = [AttributeNode("E%d.x" % i) for i in range(n)]
    nodes = [StateNodeDef("a%d" % i, ("E%d" % i,), ("E%d.x" % i,)) for i in range(n)]
    chain = ActivityChain.from_nodes(
        [ActivityNode(id="a%d" % i, sub_goal="s%d" % i) for i in range(n)]
    )
    graph = ContextGraph.build(entities, attributes, state_nodes=nodes)
    return ProcessModel(graph, chain, FragmentRepository((), {}), (), {})


def successors(space):
    """Each expanded marking's (transition, successor) arcs, keyed by the
    marking: ``out`` decoded."""
    nodes = space.nodes
    return {nodes[i]: [(t, nodes[j]) for t, j in arcs] for i, arcs in enumerate(space.out)}


def assert_same_space(net, limit=100000):
    space = explore(net, limit=limit)
    expected = explore_oracle(net, limit=limit)
    assert space.initial is expected.initial
    assert space.nodes == expected.order
    assert space.arcs == expected.arcs
    assert space.partial == expected.partial
    assert successors(space) == expected.successors
    assert_successor_index(space)
    return space


def assert_successor_index(space):
    """``successors`` holds ``arcs`` grouped by source, in order, and maps
    every marking of an exact space, a dead one to ``[]``."""
    grouped = {}
    for src, t, dst in space.arcs:
        grouped.setdefault(src, []).append((t, dst))
    index = successors(space)
    assert {m: out for m, out in index.items() if out} == grouped
    assert set(index) <= set(space.nodes)
    if not space.partial:
        assert set(index) == set(space.nodes)


def assert_checks_match_oracles(space, net):
    """Every property check reports what its arc-scanning oracle does, down
    to the order of the places in ``bounds``."""
    bounds = check_bounded(space, k=1, net=net)
    expected = check_bounded_oracle(space, k=1, net=net)
    assert list(bounds.bounds.items()) == list(expected.bounds.items())
    assert bounds.violations() == expected.violations()
    goal = goal_marking(net)
    targets = [goal, net.initial_marking, make_marking({("nowhere", "x"): 1})]
    targets += sorted(space.nodes)[:3]
    for target in targets:
        assert check_reachable(space, target) == check_reachable_oracle(space, target)
    if space.partial:
        for check, oracle, arg in (
            (check_liveness, check_liveness_oracle, net),
            (check_home, check_home_oracle, goal),
        ):
            with pytest.raises(PartialSpaceError):
                check(space, arg)
            with pytest.raises(PartialSpaceError):
                oracle(space, arg)
        return
    assert check_liveness(space, net) == check_liveness_oracle(space, net)
    for target in targets:
        assert check_home(space, target) == check_home_oracle(space, target)


class TestExplorerMatchesOracle:
    @pytest.fixture()
    def kiosk_net(self, kiosk_bundle):
        return translate(load_bundle(kiosk_bundle).model)

    @pytest.mark.parametrize("limit", [1, 5, 100, 343, None])
    def test_kiosk(self, kiosk_net, limit):
        if limit is None:
            space = assert_same_space(kiosk_net)
        else:
            space = assert_same_space(kiosk_net, limit=limit)
        assert space.partial == (limit is not None and limit < 343)
        assert_checks_match_oracles(space, kiosk_net)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_translated_chains(self, n):
        net = translate(chain_model(n))
        space = assert_same_space(net)
        assert (space.node_count, space.arc_count) == (8 * n * n + 2 * n + 1, 16 * n * n - 6 * n)
        assert_checks_match_oracles(space, net)

    @pytest.mark.parametrize(
        "shape",
        [Shape(activities=n) for n in range(1, 7)]
        + [Shape(activities=a, entities=e, situations=1) for a, e in ((2, 1), (4, 2), (9, 8))],
        ids=lambda shape: "%d/%d" % (shape.activities, shape.entities),
    )
    def test_generated_bundles(self, shape, tmp_path):
        bundle, _ = generate(shape, 1, tmp_path)
        net = translate(load_bundle(bundle).model)
        markings, arcs = chain_state_space(shape.activities)
        if markings <= 400:
            space = assert_same_space(net)
        else:
            space = explore(net)
            assert_successor_index(space)
        assert (space.node_count, space.arc_count) == (markings, arcs)
        assert_checks_match_oracles(space, net)
        for limit in (1, markings // 2):
            partial = explore(net, limit=limit)
            assert partial.partial
            assert_successor_index(partial)
            assert_checks_match_oracles(partial, net)

    def test_tokens_off_the_net_are_carried_through(self):
        line = two_step_net()
        initial = make_marking({("p0", "tok"): 1, ("elsewhere", "x"): 2})
        net = Net(line.places, line.transitions, line.arcs, initial)
        space = assert_same_space(net)
        assert make_marking({("p2", "tok"): 1, ("elsewhere", "x"): 2}) in space.nodes


LABELS = ("a", "b")


@st.composite
def small_nets(draw):
    """Random nets over a few places and labels, with an initial marking.

    Repeated arcs give weights above one, a key drawn for both sides of a
    transition gives a self-loop, and the place ``idle`` has no arcs but may
    hold tokens. The initial marking may also name a place the net lacks.
    """
    place_count = draw(st.integers(1, 4))
    keys = st.tuples(st.sampled_from(["p%d" % i for i in range(place_count)]),
                     st.sampled_from(LABELS))
    arcs = []
    transitions = []
    for t in range(draw(st.integers(1, 5))):
        name = "t%d" % t
        transitions.append(name)
        inputs = draw(st.lists(keys, min_size=1, max_size=3))
        outputs = draw(st.lists(keys, min_size=1, max_size=3))
        if draw(st.booleans()):
            outputs.append(inputs[0])  # self-loop
        arcs += [(place, name, label) for place, label in inputs]
        arcs += [(name, place, label) for place, label in outputs]
    colors = {"p%d" % i: set() for i in range(place_count)}
    for source, target, label in arcs:
        colors[source if source in colors else target].add(label)
    colors["idle"] = set(LABELS)
    places = {p: frozenset(c or LABELS) for p, c in colors.items()}
    marked = st.sampled_from(sorted(colors) + ["ghost"])
    tokens = draw(st.dictionaries(st.tuples(marked, st.sampled_from(LABELS)),
                                  st.integers(0, 3), max_size=6))
    return Net(places, tuple(transitions), tuple(arcs), make_marking(tokens))


def assert_numbered(space, net, limit=100000):
    """The markings are numbered in the oracle's discovery order, from the
    initial marking as 0, and every arc leads to a number of the space.
    ``out`` has an entry for every marking of an exact space; a partial one
    may lack entries for markings discovered but never expanded."""
    expected = explore_oracle(net, limit=limit)
    assert space.initial is net.initial_marking
    assert space.number[encode(space.net, net.initial_marking)] == 0
    assert all(type(state) is int for state in space.number)  # no marking tuple kept
    assert list(space.nodes) == expected.order
    assert list(space.number.values()) == list(range(space.node_count))
    assert all(j < space.node_count for arcs in space.out for _, j in arcs)
    if space.partial:
        assert len(space.out) <= space.node_count
    else:
        assert len(space.out) == space.node_count


class TestNumberedSpace:
    @pytest.fixture()
    def kiosk_net(self, kiosk_bundle):
        return translate(load_bundle(kiosk_bundle).model)

    @pytest.mark.parametrize("limit", [1, 5, 100, 343, None])
    def test_kiosk(self, kiosk_net, limit):
        limit = limit or 100000
        assert_numbered(explore(kiosk_net, limit=limit), kiosk_net, limit)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_generated_chains(self, n, tmp_path):
        bundle, _ = generate(Shape(activities=n), 1, tmp_path)
        net = translate(load_bundle(bundle).model)
        markings, _ = chain_state_space(n)
        for limit in (1, markings // 2, markings, 100000):
            assert_numbered(explore(net, limit=limit), net, limit)

    @given(net=small_nets(), limit=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_random_nets(self, net, limit):
        assert_numbered(explore(net, limit=limit), net, limit)

    @pytest.mark.parametrize("limit", [7, 100, 131])
    def test_markings_discovered_but_not_expanded_are_reached(self, kiosk_net, limit):
        # The limit stops the walk with a frontier left: those markings
        # have numbers but no arcs, and the search still finds each one.
        # At 7 and 131, the search pops a marking that was never expanded
        # before it finds its target.
        space = explore(kiosk_net, limit=limit)
        assert space.partial and len(space.out) < space.node_count
        unexpanded = list(space.nodes)[len(space.out):]
        for target in unexpanded:
            found = check_reachable(space, target)
            assert found[0] and found == check_reachable_oracle(space, target)

    def test_a_partial_space_may_have_expanded_every_marking(self, kiosk_net):
        # One marking, expanded, and a first successor past the limit.
        space = explore(kiosk_net, limit=1)
        assert space.partial
        assert (space.node_count, len(space.out), space.arc_count) == (1, 1, 0)


# -- the packed encoding: wide counts, self-loops and the tail ---------------


def net_of(transitions, tokens):
    """A net whose ``transitions`` map each name to its (inputs, outputs)
    lists of (place, label) keys, a key listed n times being an arc of
    weight n, with the ``tokens`` mapping as its initial marking. Each place
    holds the labels its arcs name."""
    arcs, colors = [], {}
    for name, (inputs, outputs) in transitions.items():
        arcs += [(place, name, label) for place, label in inputs]
        arcs += [(name, place, label) for place, label in outputs]
        for place, label in inputs + outputs:
            colors.setdefault(place, set()).add(label)
    places = {place: frozenset(labels) for place, labels in colors.items()}
    return Net(places, tuple(transitions), tuple(arcs), make_marking(tokens))


P, Q, R = ("p", "x"), ("q", "x"), ("r", "x")
# t doubles each token on p; the self-loop u reads q, which sits above p's
# field, so a carry out of p's field would change it.
PUMP = net_of({"t": ([P], [P, P]), "u": ([Q], [Q])}, {P: 1, Q: 1})
DRAIN = net_of({"t": ([P], [Q])}, {P: 200})
HEAVY = net_of({"t": ([P] * 130, [Q] * 129 + [R])}, {P: 300})
LOOP = net_of({"t": ([P, R], [P, Q]), "u": ([Q], [R])}, {P: 1, R: 3})
OFF_ARCS = net_of({"t": ([P], [Q]), "u": ([Q], [P])},
                  {P: 2, ("p", "y"): 3, ("a_ghost", "z"): 1, ("zz_ghost", "z"): 4})


class TestPackedEncoding:
    @pytest.mark.parametrize("limit", [1, 2, 127, 128, 129, 300])
    def test_a_pump_widens_its_fields_past_127_tokens(self, limit):
        space = assert_same_space(PUMP, limit=limit)
        assert_checks_match_oracles(space, PUMP)
        assert space.partial and space.node_count == limit
        assert space.nodes[-1] == make_marking({P: limit, Q: 1})
        assert PUMP.width == 8
        assert space.net.width == (8 if limit < 128 else 16)
        bounds = check_bounded(space, k=1, net=PUMP).bounds
        assert bounds == {"p": limit, "q": 1}

    def test_a_pump_widens_twice(self):
        space = explore(PUMP, limit=33000)
        assert space.net.width == 32
        assert space.nodes[-1] == make_marking({P: 33000, Q: 1})
        assert check_bounded(space, k=1, net=PUMP).bounds == {"p": 33000, "q": 1}

    @pytest.mark.parametrize("limit", [1, 100, 200, 201, None])
    def test_an_initial_count_past_127_starts_wide(self, limit):
        space = assert_same_space(DRAIN, limit=limit or 100000)
        assert_checks_match_oracles(space, DRAIN)
        assert DRAIN.width == space.net.width == 16
        assert (space.node_count, space.partial) == (limit or 201, limit not in (201, None))

    @pytest.mark.parametrize("limit", [1, 2, None])
    def test_an_arc_weight_past_127_starts_wide(self, limit):
        space = assert_same_space(HEAVY, limit=limit or 100000)
        assert_checks_match_oracles(space, HEAVY)
        assert HEAVY.width == 16
        if limit is None:
            assert space.nodes == [
                make_marking({P: 300}),
                make_marking({P: 170, Q: 129, R: 1}),
                make_marking({P: 40, Q: 258, R: 2}),
            ]

    @pytest.mark.parametrize("limit", [1, 3, None])
    def test_a_self_loop_keeps_its_token(self, limit):
        space = assert_same_space(LOOP, limit=limit or 100000)
        assert_checks_match_oracles(space, LOOP)
        assert all(dict(((p, l), c) for p, l, c in m)[P] == 1 for m in space.nodes)
        if limit is None:
            assert space.node_count == 4

    @pytest.mark.parametrize("limit", [1, 2, None])
    def test_tokens_off_the_arcs_are_kept_once(self, limit):
        space = assert_same_space(OFF_ARCS, limit=limit or 100000)
        assert_checks_match_oracles(space, OFF_ARCS)
        tail = (("a_ghost", "z", 1), ("p", "y", 3), ("zz_ghost", "z", 4))
        assert OFF_ARCS.tail == tail
        assert all(set(tail) <= set(m) for m in space.nodes)
        if limit is None:
            bounds = check_bounded(space, k=1, net=OFF_ARCS).bounds
            assert bounds == {"p": 5, "q": 2, "a_ghost": 1, "zz_ghost": 4}

    @pytest.mark.parametrize("net", [PUMP, DRAIN, HEAVY, LOOP, OFF_ARCS],
                             ids=["pump", "drain", "heavy", "loop", "off-arcs"])
    def test_encode_and_decode_are_inverse(self, net):
        space = explore(net, limit=300)
        for state, marking in zip(space.number, space.nodes):
            assert encode(space.net, marking) == state
            assert decode(space.net, state) == marking

    def test_a_marking_the_net_cannot_reach_has_no_packed_form(self):
        line = two_step_net()
        assert encode(line, make_marking({("p0", "tok"): 127})) == 127
        for tokens in ({("p0", "tok"): 128}, {("p0", "tok"): 1, ("elsewhere", "x"): 1}):
            marking = make_marking(tokens)
            assert encode(line, marking) is None
            space = explore(line)
            assert check_reachable(space, marking) == (False, [])
            assert not check_home(space, marking)


def assert_fire_matches_oracles(net, marking):
    for name in net.transitions + ("nope",):
        outcomes = []
        for step in (fire_canonical, fire_oracle, fire_by_sort_oracle):
            try:
                outcomes.append(step(net, marking, name))
            except NotEnabledError:
                outcomes.append(NotEnabledError)
        assert outcomes[0] == outcomes[1] == outcomes[2]


@given(net=small_nets(), limit=st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_random_nets_match_oracle(net, limit):
    space = assert_same_space(net, limit=limit)
    assert_checks_match_oracles(space, net)
    for marking in space.nodes[:10]:
        assert enabled(space.net, marking) == enabled_oracle(net, marking)
        assert_fire_matches_oracles(net, marking)


@given(net=small_nets(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_fire_matches_oracles_on_any_marking(net, data):
    # Any canonical marking, reachable or not: several labels on one place,
    # tokens on ``idle``, which no arc touches, and on ``ghost``, which the
    # net lacks, whose entries sort before, between and after the net's.
    places = sorted(net.places) + ["ghost", "a_first", "zz_last"]
    tokens = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(places), st.sampled_from(LABELS)),
        st.integers(0, 3),
        max_size=8,
    ))
    assert_fire_matches_oracles(net, make_marking(tokens))


# -- the one-walk compiler against the Counter-based one ---------------------


def assert_compiled_like_oracle(net):
    for attribute, value in compile_oracle(net).items():
        assert getattr(net, attribute) == value, attribute
    for name in net.transitions:
        pre, post = net.pre(name), net.post(name)
        assert type(pre) is type(post) is Counter
        assert (pre, post) == (net_pre(net, name), net_post(net, name))
        pre[("scratch", "x")] += 1  # a copy: the net is not changed
        assert net.pre(name) == net_pre(net, name)


@given(net=small_nets())
@settings(max_examples=300, deadline=None)
def test_random_nets_compile_like_oracle(net):
    assert_compiled_like_oracle(net)


def test_kiosk_compiles_like_oracle(kiosk_bundle):
    assert_compiled_like_oracle(translate(load_bundle(kiosk_bundle).model))


@pytest.mark.parametrize("n", range(1, 7))
def test_translated_chains_compile_like_oracle(n):
    assert_compiled_like_oracle(translate(chain_model(n)))


# -- the collector is paused while exploring --------------------------------


def watch_fire(monkeypatch, fail_after=None):
    """Record ``gc.isenabled()`` at each call of ``fire``; with
    ``fail_after``, the call after that many raises ``NotEnabledError``."""
    seen = []

    def watched(net, state, t):
        if len(seen) == fail_after:
            raise NotEnabledError("stopped after %d firings" % fail_after)
        seen.append(gc.isenabled())
        return fire(net, state, t)

    monkeypatch.setattr(petri, "fire", watched)
    return seen


class TestCollectorPause:
    @pytest.fixture()
    def kiosk_net(self, kiosk_bundle):
        return translate(load_bundle(kiosk_bundle).model)

    @pytest.mark.parametrize("limit", [1, 5, 100000])
    def test_paused_while_walking_and_on_again_after(self, kiosk_net, monkeypatch, limit):
        seen = watch_fire(monkeypatch)
        assert gc.isenabled()
        space = explore(kiosk_net, limit=limit)
        assert space.partial == (limit < 343)
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("limit", [1, 5, 100000])
    def test_a_caller_that_turned_it_off_keeps_it_off(self, kiosk_net, limit):
        gc.disable()
        try:
            explore(kiosk_net, limit=limit)
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("fail_after", [0, 1, 50])
    @pytest.mark.parametrize("collecting", [True, False])
    def test_restored_when_the_walk_raises(self, kiosk_net, monkeypatch, fail_after, collecting):
        seen = watch_fire(monkeypatch, fail_after)
        if not collecting:
            gc.disable()
        try:
            with pytest.raises(NotEnabledError, match="stopped after %d firings" % fail_after):
                explore(kiosk_net)
            assert len(seen) == fail_after and not any(seen)
            assert gc.isenabled() == collecting
        finally:
            gc.enable()

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_restored_when_the_limit_is_refused(self, kiosk_net, collecting):
        """The limit is checked inside the pause, so its refusal puts the
        caller's setting back too."""
        if not collecting:
            gc.disable()
        try:
            with pytest.raises(ValueError, match="^limit must be positive$"):
                explore(kiosk_net, limit=0)
            assert gc.isenabled() is collecting
        finally:
            gc.enable()

    def test_the_guarded_builds_keep_their_names_and_docs(self):
        builds = (load_bundle, translate, explore)
        assert [b.__name__ for b in builds] == ["load_bundle", "translate", "explore"]
        for build in builds:
            assert build.__doc__ == build.__wrapped__.__doc__
            assert "collector_paused" in build.__doc__

    def test_a_large_chain_starts_no_collection(self, tmp_path, collections_during):
        generate(Shape(activities=24), 1, tmp_path)
        net = translate(load_bundle(tmp_path / "bundle.yaml").model)
        assert gc.isenabled()
        space, starts = collections_during(explore, net)
        assert (space.node_count, space.arc_count) == chain_state_space(24)
        assert starts == []
        assert gc.isenabled()


class TestOneFiringPerArc:
    """``explore`` calls ``petri.fire`` once per arc it records, and once
    more, for the successor past the limit, when the space is partial: the
    bench counts state-space work by those calls."""

    def test_kiosk(self, kiosk_bundle, monkeypatch):
        net = translate(load_bundle(kiosk_bundle).model)
        seen = watch_fire(monkeypatch)
        space = explore(net)
        assert len(seen) == space.arc_count == 698

    def test_generated_chain(self, tmp_path, monkeypatch):
        bundle, _ = generate(Shape(activities=3), 1, tmp_path)
        net = translate(load_bundle(bundle).model)
        seen = watch_fire(monkeypatch)
        space = explore(net)
        assert len(seen) == space.arc_count == chain_state_space(3)[1]

    @given(net=small_nets(), limit=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_random_nets(self, net, limit):
        # Counts start below 4 and grow by at most 4 a firing, so within 30
        # markings none reaches 128 and the walk never starts over.
        with pytest.MonkeyPatch.context() as patch:
            seen = watch_fire(patch)
            space = explore(net, limit=limit)
        assert space.net is net
        assert len(seen) == space.arc_count + space.partial


def watch_net(monkeypatch, fail):
    """Record ``gc.isenabled()`` when ``translate`` builds its ``Net``; with
    ``fail``, that build raises ``ValueError`` instead."""
    seen = []

    def watched(*args):
        seen.append(gc.isenabled())
        if fail:
            raise ValueError("net refused")
        return Net(*args)

    monkeypatch.setattr(petri, "Net", watched)
    return seen


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("collecting", [True, False])
def test_translate_pauses_the_collector_and_restores_it(
    kiosk_bundle, monkeypatch, collecting, fail
):
    model = load_bundle(kiosk_bundle).model
    seen = watch_net(monkeypatch, fail)
    if not collecting:
        gc.disable()
    try:
        if fail:
            with pytest.raises(ValueError, match="^net refused$"):
                translate(model)
        else:
            assert isinstance(translate(model), Net)
        assert seen == [False]
        assert gc.isenabled() == collecting
    finally:
        gc.enable()


def test_translating_a_large_model_starts_no_collection(tmp_path, collections_during):
    generate(WORKLOADS["run-adapt"].shape, 1, tmp_path)
    model = load_bundle(tmp_path / "bundle.yaml").model
    assert gc.isenabled()
    net, starts = collections_during(translate, model)
    assert (len(net.transitions), len(net.arcs)) == (8000, 17599)
    assert starts == []
    assert gc.isenabled()


def test_translate_restores_the_collector_when_the_model_is_refused():
    assert gc.isenabled()
    with pytest.raises(AttributeError):
        translate(None)
    assert gc.isenabled()


# -- pipelines that share entities ------------------------------------------


@st.composite
def shared_shapes(draw):
    activities = draw(st.integers(1, 6))
    entities = draw(st.integers(1, activities))
    return Shape(activities=activities, entities=entities, situations=1)


@given(shape=shared_shapes(), seed=st.integers(0, 9))
@example(shape=Shape(activities=2, entities=1, situations=1), seed=1)
@settings(max_examples=40, deadline=None)
def test_shared_entities_verify_like_a_chain(shape, seed):
    # Each pipeline has its own entity chain, so activities that share an
    # entity give the net of activities on entities of their own.
    n = shape.activities
    markings, arcs = chain_state_space(n)
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stdout(stdout):
        bundle, _ = generate(shape, seed, out)
        code = cli.main(["verify", str(bundle), "--limit", str(markings + 1)])
    report = json.loads(stdout.getvalue())
    assert code == 0
    assert (
        report["verdict"], report["markings"], report["arcs"], report["witness_length"]
    ) == ("pass", markings, arcs, 10 * n)


def test_kiosk_pipelines_sharing_every_attribute(kiosk_bundle):
    # Storage in Cloud and Bill Payment both read Network.Status and nothing
    # else, so neither composition has a value that only it can take.
    model = load_bundle(kiosk_bundle).model
    nodes = dict(model.graph.state_nodes)
    for aid in ("Storage in Cloud", "Bill Payment"):
        nodes[aid] = StateNodeDef(aid, ("Network",), ("Network.Status",))
    graph = dataclasses.replace(model.graph, state_nodes=nodes)
    net = translate(dataclasses.replace(model, graph=graph))
    space = explore(net, limit=10000)
    assert not space.partial
    assert check_bounded(space, k=1, net=net).bounded
    goal = goal_marking(net)
    liveness = check_liveness(space, net)
    assert liveness.dead_transitions == ()
    assert liveness.dead_markings == (goal,)
    ok, witness = check_reachable(space, goal)
    assert ok and sorted(witness) == sorted(net.transitions)
    assert check_home(space, goal)

"""Tests for the context algebra: atomic contexts, situations, states and
the fold of a situation into a state."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.context import (
    AtomicContext,
    ContextState,
    ContextualSituation,
    ScopeFilter,
    catch_context,
    normalize_value,
    values_equal,
)

from oracles import catch_context_oracle, diff_oracle, diff_rebuilding, restrict


def ctx(parameter, attribute, value, **kw):
    return AtomicContext(parameter=parameter, attribute=attribute, value=value, **kw)


def in_scope(cs, scope):
    """The contexts ``cs`` binds within ``scope``, in situation order: what
    the runner routes to the scope's state."""
    return [c for c in cs.bindings.values() if scope.covers(c)]


def fold(cs, state):
    """Fold the whole situation ``cs`` into ``state``."""
    return catch_context(list(cs.bindings.values()), state, cs.timestamp)


class TestAtomicContext:
    def test_qualified_name(self):
        assert ctx("Weather", "Status", "Sunny").qualified == "Weather.Status"

    def test_rejects_unknown_connector(self):
        with pytest.raises(ValueError):
            ctx("Weather", "Status", "Sunny", connector="~")

    def test_rejects_empty_parameter(self):
        with pytest.raises(ValueError):
            ctx("", "Status", "Sunny")

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            ctx("Weather", "Status", "Sunny", category="weird")


class TestValueNormalization:
    def test_strings_casefold_and_strip(self):
        assert values_equal("  Rainy ", "rainy")

    def test_numbers_compare_numerically(self):
        assert values_equal(16, 16.0)

    def test_whole_numbers_past_2_53_stay_exact(self):
        assert not values_equal(2**53 + 1, 2**53)
        assert values_equal(2**53 + 1, 2**53 + 1)

    def test_bool_is_not_number(self):
        assert normalize_value(True) != normalize_value(1)

    def test_key_is_the_normalized_value_computed_once(self):
        c = ctx("Weather", "Status", "  Rainy ")
        assert c.key == normalize_value("  Rainy ") == "rainy"
        assert c.key is c.key
        assert "key" in vars(c)


class TestContextualSituation:
    def test_a_situation_is_its_time_and_bindings(self):
        fields = [f.name for f in dataclasses.fields(ContextualSituation)]
        assert fields == ["timestamp", "bindings"]
        assert not issubclass(ContextState, ContextualSituation)
        assert "removed_parameters" not in {
            f.name for f in dataclasses.fields(ContextState)
        }

    def test_from_contexts_binds_each_attribute(self):
        status = ctx("Weather", "Status", "Rainy")
        wind = ctx("Weather", "Wind", "High")
        cs = ContextualSituation.from_contexts([status, wind], timestamp=5)
        assert cs.timestamp == 5
        assert cs.bindings == {"Weather.Status": status, "Weather.Wind": wind}

    def test_state_from_contexts_names_parameters_once(self):
        state = ContextState.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Weather", "Wind", "High")],
            timestamp=5,
        )
        assert state.parameters == ("Weather",)
        assert state.attributes == ("Weather.Status", "Weather.Wind")

    def test_repeated_attribute_is_named_once_and_bound_to_its_last_context(self):
        first = ctx("Network", "Status", "Available", instance="OperatorA")
        last = ctx("Network", "Status", "Unavailable", instance="OperatorB")
        contexts = [first, ctx("Weather", "Status", "Rainy"), last]
        cs = ContextualSituation.from_contexts(contexts, timestamp=5)
        assert list(cs.bindings) == ["Network.Status", "Weather.Status"]
        assert cs.bindings["Network.Status"] is last
        state = ContextState.from_contexts(contexts, timestamp=5)
        assert state.parameters == ("Network", "Weather")
        assert state.attributes == ("Network.Status", "Weather.Status")
        assert state.bindings == cs.bindings

    def test_static_contexts_may_be_bound(self):
        # A state binds the ideal, which may hold a static context; the
        # loader refuses one only in a scenario's situation.
        static = ctx("Kiosk", "Location", "Village", temporality="static")
        state = ContextState.from_contexts([static], timestamp=-1)
        assert state.bindings == {"Kiosk.Location": static}


class TestScopeFilter:
    def test_restrict_drops_outside_contexts(self):
        scope = ScopeFilter(frozenset({"Weather"}), frozenset())
        cs = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Patient", "Condition", "Serious")],
            timestamp=1,
        )
        restricted = restrict(scope, cs)
        assert list(restricted.bindings) == ["Weather.Status"]

    def test_covers_by_qualified_attribute(self):
        scope = ScopeFilter(frozenset(), frozenset({"Watch.Time"}))
        assert scope.covers(ctx("Watch", "Time", "11:00"))
        assert not scope.covers(ctx("Watch", "Brand", "X"))


class TestFold:
    def old_state(self):
        return ContextState.from_contexts(
            [
                ctx("Weather", "Status", "Sunny"),
                ctx("Watch", "Time", "10.30 am"),
                ctx("Healthcare_Employee", "Status", "Present"),
            ],
            630,
        )

    def test_not_newer_returns_old_identically(self):
        old = self.old_state()
        new = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy")], timestamp=630
        )
        assert fold(new, old) is old

    def test_no_change_returns_old_identically(self):
        old = self.old_state()
        new = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "sunny")], timestamp=700
        )
        assert fold(new, old) is old

    def test_weather_change_set(self):
        # The 10:30 -> 11:00 rain onset: both known parameters report
        # changed attribute values; the absent employee parameter is neither
        # listed nor bound.
        old = self.old_state()
        new = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Watch", "Time", "11.00 am")],
            timestamp=660,
        )
        out = fold(new, old)
        assert out.parameters == ("Weather", "Watch")
        assert out.attributes == ("Weather.Status", "Watch.Time")
        assert out.bindings["Weather.Status"].value == "Rainy"
        assert out.bindings["Watch.Time"].value == "11.00 am"
        assert out.timestamp == 660
        assert "Healthcare_Employee.Status" not in out.bindings

    def test_new_parameter_is_added_without_value_comparison(self):
        old = self.old_state()
        new = ContextualSituation.from_contexts(
            [ctx("Ambulance", "Availability", "Ready")], timestamp=700
        )
        out = fold(new, old)
        assert out.parameters == ("Ambulance",)
        # Attributes list only changed values of known parameters.
        assert out.attributes == ()
        assert "Ambulance.Availability" in out.bindings

    def test_matches_classification_oracle_on_examples(self):
        old = self.old_state()
        new = ContextualSituation.from_contexts(
            [
                ctx("Weather", "Status", "Rainy"),
                ctx("Watch", "Time", "10.30 am"),
                ctx("Ambulance", "Availability", "Ready"),
            ],
            timestamp=700,
        )
        out = fold(new, old)
        expected = diff_oracle(new, old)
        assert expected is not None
        assert out.parameters == expected["parameters"]
        assert out.attributes == expected["attributes"]


PARAMS = ("Weather", "Watch", "Patient", "Network", "Net.Op")
ATTRS = ("Status", "Time", "Level")
# Case, blanks, int against float, a truth value and NaN, which equals
# nothing, not even itself.
VALUES = ("A", "B", "C", 1, 2, "a", " A ", 1.0, True, float("nan"))


@st.composite
def situations(draw, timestamp):
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(PARAMS),
                st.sampled_from(ATTRS),
                st.sampled_from(VALUES),
            ),
            max_size=6,
            unique_by=lambda t: (t[0], t[1]),
        )
    )
    contexts = [ctx(p, a, v) for p, a, v in pairs]
    return ContextualSituation.from_contexts(contexts, draw(timestamp))


@given(
    old=situations(st.integers(0, 5)),
    new=situations(st.integers(0, 10)),
)
@settings(max_examples=200)
def test_fold_matches_oracle(old, new):
    state = ContextState.from_contexts(list(old.bindings.values()), old.timestamp)
    out = fold(new, state)
    expected = diff_oracle(new, state)
    if expected is None:
        assert out is state
    else:
        assert out.parameters == expected["parameters"]
        assert out.attributes == expected["attributes"]
        assert out.timestamp == expected["timestamp"]


@st.composite
def unlisting_states(draw):
    """A state that binds a drawn situation but lists only some of the
    parameters its bindings hold, in their order."""
    old = draw(situations(st.integers(0, 5)))
    full = ContextState.from_contexts(list(old.bindings.values()), old.timestamp)
    kept = draw(st.sets(st.sampled_from(full.parameters))) if full.parameters else ()
    listed = tuple(p for p in full.parameters if p in kept)
    return dataclasses.replace(full, parameters=listed)


QUALIFIED_NAMES = tuple("%s.%s" % (p, a) for p in PARAMS for a in ATTRS)


@given(
    state=unlisting_states(),
    new=situations(st.integers(0, 10)),
    parameters=st.frozensets(st.sampled_from(PARAMS)),
    attributes=st.frozensets(st.sampled_from(QUALIFIED_NAMES)),
)
@settings(max_examples=300)
def test_a_bound_parameter_unlisted_is_known(state, new, parameters, attributes):
    """Folds into a state that leaves out some of its bound parameters agree
    with the oracles, which gather every bound parameter up front."""
    out = fold(new, state)
    rebuilt = diff_rebuilding(new, state)
    assert out == rebuilt
    assert (out is state) == (rebuilt is state)
    scope = ScopeFilter(parameters, attributes)
    caught = catch_context(in_scope(new, scope), state, new.timestamp)
    oracle = catch_context_oracle(new, state, scope)
    assert caught == oracle
    assert (caught is state) == (oracle is state)


def test_fold_reads_dotted_parameter_from_context():
    state = ContextState.from_contexts([ctx("Net.Op", "Status", "up")], 0)
    new = ContextualSituation.from_contexts([ctx("Net.Op", "Status", "down")], 1)
    out = fold(new, state)
    assert out.parameters == ("Net.Op",)
    assert out.attributes == ("Net.Op.Status",)
    assert out.bindings == {"Net.Op.Status": ctx("Net.Op", "Status", "down")}


class TestCatchContext:
    def test_out_of_scope_situation_leaves_state_untouched(self):
        state = ContextState.from_contexts(
            [ctx("Healthcare_Employee", "Status", "Present")], 630
        )
        scope = ScopeFilter(frozenset({"Healthcare_Employee"}), frozenset())
        rain = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Watch", "Time", "11.00 am")],
            timestamp=660,
        )
        assert catch_context(in_scope(rain, scope), state, rain.timestamp) is state

    def test_in_scope_change_replaces_state(self):
        state = ContextState.from_contexts([ctx("Weather", "Status", "Sunny")], 630)
        scope = ScopeFilter(frozenset({"Weather"}), frozenset())
        rain = ContextualSituation.from_contexts(
            [ctx("Weather", "Status", "Rainy"), ctx("Patient", "Condition", "OK")],
            timestamp=660,
        )
        out = catch_context(in_scope(rain, scope), state, rain.timestamp)
        assert out is not state
        assert out.attributes == ("Weather.Status",)

    def test_attribute_listed_for_two_instances_changes_once(self):
        state = ContextState.from_contexts([ctx("Network", "Status", "Available")], 630)
        scope = ScopeFilter(frozenset({"Network"}), frozenset())
        both = ContextualSituation.from_contexts(
            [
                ctx("Network", "Status", "Unavailable", instance="OperatorA"),
                ctx("Network", "Status", "Down", instance="OperatorB"),
            ],
            timestamp=660,
        )
        out = catch_context(in_scope(both, scope), state, both.timestamp)
        assert out.parameters == ("Network",)
        assert out.attributes == ("Network.Status",)
        assert out.bindings["Network.Status"].instance == "OperatorB"

    def test_no_contexts_leave_state_untouched(self):
        state = ContextState.from_contexts([ctx("Weather", "Status", "Sunny")], 630)
        assert catch_context([], state, 660) is state

    def test_fold_of_the_scope_is_the_fold_of_the_restriction(self):
        state = ContextState.from_contexts(
            [ctx("Weather", "Status", "Sunny"), ctx("Watch", "Time", "10.30 am")], 630
        )
        scope = ScopeFilter(frozenset({"Weather"}), frozenset({"Ambulance.Availability"}))
        cs = ContextualSituation.from_contexts(
            [
                ctx("Ambulance", "Availability", "Ready"),
                ctx("Watch", "Time", "11.00 am"),
                ctx("Weather", "Status", "Rainy"),
            ],
            timestamp=660,
        )
        out = catch_context(in_scope(cs, scope), state, cs.timestamp)
        assert out == fold(restrict(scope, cs), state)
        assert out.parameters == ("Ambulance", "Weather")
        assert out.attributes == ("Weather.Status",)
        assert list(out.bindings) == ["Ambulance.Availability", "Weather.Status"]

    def test_a_bound_parameter_is_known_though_not_listed(self):
        # A state lists only the parameters its last change involved; one it
        # merely binds is known all the same, so its attribute is changed,
        # not added.
        state = ContextState(
            parameters=("Watch",),
            attributes=(),
            timestamp=630,
            bindings={
                "Weather.Status": ctx("Weather", "Status", "Sunny"),
                "Watch.Time": ctx("Watch", "Time", "10.30 am"),
            },
        )
        rain = [ctx("Weather", "Status", "Rainy"), ctx("Watch", "Time", "10.30 am")]
        out = catch_context(rain, state, 660)
        assert out.parameters == ("Weather",)
        assert out.attributes == ("Weather.Status",)
        new = ContextualSituation.from_contexts(rain, 660)
        assert out == fold(new, state) == diff_rebuilding(new, state)

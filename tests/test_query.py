"""Tests for the context predicate algebra and its query language."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxflow.errors import IncompatibleOperandsError, QueryParseError
from ctxflow.query import (
    Condition,
    ContextPredicate,
    Query,
    QueryResult,
    apply_arith,
    compare,
    evaluate,
    parse_query,
)

from oracles import format_query, query_oracle


def pred(category, subject, attribute, value, connector="=", instance_of=None):
    return ContextPredicate(
        category=category,
        subject=subject,
        attribute=attribute,
        connector=connector,
        value=value,
        instance_of=instance_of,
    )


# The situation used throughout: two network operators, one weather report,
# one assistant with two attributes, two caregivers.
SITUATION = (
    pred("Resource", "BSNL_Network", "Connectivity", "Very Poor"),
    pred("Season", "Weather", "Status", "Rainy"),
    pred("Resource", "Reliance_Network", "Connectivity", "Average"),
    pred("Healthcare_Assistant", "Y", "Status", "Present"),
    pred("Healthcare_Assistant", "Y", "Working_Experience", "Good"),
    pred("Caregiver", "Z1", "Expertise", "Childcare", connector="In"),
    pred("Caregiver", "Z1", "Status", "Present"),
    pred("Caregiver", "Z2", "Expertise", "Arthritis", connector="In"),
    pred("Caregiver", "Z2", "Status", "Absent"),
)


class TestParsing:
    def test_and_by_parameter(self):
        q = parse_query("AND Resource WHERE parameter INSTANCE_OF Network")
        assert q.kind == "and_by_parameter"
        assert (q.category, q.target) == ("Resource", "Network")

    def test_and_chain(self):
        q = parse_query("AND CHAIN Patient -> Caregiver")
        assert q.kind == "and_cross_category"
        assert q.chain == ("Patient", "Caregiver")

    def test_and_conditional_with_nesting(self):
        q = parse_query(
            'AND Caregiver WHERE (attr Status = Present) AND (attr Expertise = Arthritis)'
        )
        assert q.kind == "and_conditional"
        assert q.condition.op == "AND"
        assert len(q.condition.children) == 2

    def test_or_same_instance(self):
        q = parse_query(
            "OR Resource WHERE instance = BSNL_Network AND attribute = Connectivity"
        )
        assert q.kind == "or_same_instance"
        assert (q.instance, q.attribute) == ("BSNL_Network", "Connectivity")

    def test_or_same_value(self):
        q = parse_query(
            'OR Resource WHERE attribute = Connectivity AND value = "Very Poor"'
        )
        assert q.kind == "or_same_value"
        assert q.value == "Very Poor"

    def test_not(self):
        q = parse_query("NOT Patient(X, Suffering, from, Malaria)")
        assert q.kind == "not"
        assert q.predicate.negated
        assert q.predicate.connector == "from"

    def test_arith(self):
        q = parse_query(
            "ADD Manpower(Healthcare_Assistant, Count, =, 10), "
            "Manpower(Healthcare_Assistant, Recruitment, =, 6)"
        )
        assert q.kind == "arith"
        assert q.arith_op == "+"
        assert q.operands[0].value == 10

    def test_arith_comma_is_optional(self):
        assert parse_query("ADD M(HA, Count, =, 10) M(HA, R, =, 6)") == parse_query(
            "ADD M(HA, Count, =, 10), M(HA, R, =, 6)"
        )

    @pytest.mark.parametrize("text", [
        "AND Network WHERE parameter INSTANCE_OF Network",
        "AND CHAIN Patient -> Caregiver",
        'OR Resource WHERE attribute = Connectivity AND value = "Very Poor"',
        "NOT Patient(X, Suffering, from, Malaria)",
    ])
    @pytest.mark.parametrize("blank", [" ", "\n", " \t\n"])
    def test_trailing_blanks_are_ignored(self, text, blank):
        assert parse_query(text + blank) == parse_query(text)

    def test_error_reports_position_and_expectation(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("AND Resource WHERE")
        assert err.value.position == len("AND Resource WHERE")

    def test_unknown_head(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("MAYBE x")
        assert err.value.position == 0
        assert str(err.value) == "unknown query head 'MAYBE'"

    def test_mixed_and_or_needs_parentheses(self):
        with pytest.raises(QueryParseError):
            parse_query("AND C WHERE attr a = 1 AND attr b = 2 OR attr c = 3")

    @pytest.mark.parametrize("joiner", ["and", "or", "Or", "aNd"])
    def test_joiner_between_terms_is_case_insensitive(self, joiner):
        text = "AND Weather WHERE attr Status = Rainy %s attr Status = Sunny"
        assert parse_query(text % joiner) == parse_query(text % joiner.upper())

    @pytest.mark.parametrize("text", [
        "AND C WHERE attr a = 1 and attr b = 2 OR attr c = 3",
        "AND C WHERE attr a = 1 or attr b = 2 AND attr c = 3",
        "AND C WHERE attr a = 1 and attr b = 2 or attr c = 3",
    ])
    def test_mixed_lower_case_joiners_need_parentheses(self, text):
        with pytest.raises(QueryParseError) as err:
            parse_query(text)
        assert str(err.value) == "mixed AND/OR without parentheses"
        assert err.value.position == text.index("attr c")

    def test_trailing_garbage(self):
        with pytest.raises(QueryParseError):
            parse_query("NOT Patient(X, Suffering, from, Malaria) extra")

    # A bare word is what the same word is in a scenario document.
    @pytest.mark.parametrize("word, typed", [
        ("inf", "inf"), ("nan", "nan"), ("1e5", "1e5"), ("1.5e3", "1.5e3"),
        ("true", True), ("No", False), ("on", True), ("0x1F", 31), ("1:30", 90),
        ("017", 15), (".inf", float("inf")), ("2.5", 2.5), ("-3", -3),
        ("null", "null"), ("2026-01-01", "2026-01-01"), ("Rainy", "Rainy"),
    ])
    def test_bare_value_is_typed_as_yaml_types_it(self, word, typed):
        values = (
            parse_query("OR Sensor WHERE attribute = Reading AND value = %s" % word).value,
            parse_query("AND Sensor WHERE value = %s" % word).condition.value,
            parse_query("NOT Sensor(S, Reading, =, %s)" % word).predicate.value,
        )
        assert [(type(v), v) for v in values] == [(type(typed), typed)] * 3

    @pytest.mark.parametrize("word", ["true", "3", "inf", "0x1F", "null"])
    def test_quoted_value_is_text(self, word):
        q = parse_query('OR Sensor WHERE attribute = Reading AND value = "%s"' % word)
        assert q.value == word

    def test_bare_value_yaml_cannot_build_is_a_parse_error(self):
        text = "AND Sensor WHERE value = 0b_"
        with pytest.raises(QueryParseError) as err:
            parse_query(text)
        assert str(err.value) == "'0b_' is not a valid int"
        assert err.value.position == text.index("0b_")

    @pytest.mark.parametrize("word", [
        str(int(sys.float_info.max) + 1), "1" + "0" * 400, "-1" + "0" * 400,
    ])
    def test_bare_int_too_large_for_a_float_is_exact(self, word):
        value = parse_query("AND Sensor WHERE value = %s" % word).condition.value
        assert (type(value), value) == (int, int(word))
        assert compare(int(word), "=", value) and compare(int(word) + 1, ">", value)
        assert not compare(int(word) + 1, "=", value)

    @pytest.mark.parametrize("text", ["", "   ", "\n"])
    def test_empty_query(self, text):
        with pytest.raises(QueryParseError) as err:
            parse_query(text)
        assert (str(err.value), err.value.position) == ("empty query", 0)


class TestFormatting:
    ROUND_TRIPS = [
        "AND Resource WHERE parameter INSTANCE_OF Network",
        "AND CHAIN Patient -> Caregiver -> Hospital",
        "OR Resource WHERE instance = BSNL_Network AND attribute = Connectivity",
        'OR Resource WHERE attribute = Connectivity AND value = "Very Poor"',
        "NOT Patient(X, Suffering, from, Malaria)",
        "ADD Manpower(HA, Count, =, 10), Manpower(HA, Recruitment, =, 6)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        q = parse_query(text)
        assert parse_query(format_query(q)) == q


class TestEvaluation:
    def test_instances_of_network_parameter(self):
        q = parse_query("AND Resource WHERE parameter INSTANCE_OF Network")
        out = evaluate(q, SITUATION)
        assert out.op == "AND"
        assert [p.subject for p in out.predicates] == [
            "BSNL_Network",
            "Reliance_Network",
        ]
        assert out.render() == (
            "Resource(BSNL_Network, Connectivity, =, Very Poor)"
            " AND Resource(Reliance_Network, Connectivity, =, Average)"
        )

    def test_present_arthritis_caregiver_is_null(self):
        q = parse_query(
            "AND Caregiver WHERE (attr Status = Present)"
            " AND (attr Expertise = Arthritis)"
        )
        out = evaluate(q, SITUATION)
        assert out.is_null
        assert out.render() == "NULL"

    def test_conditional_single_leaf(self):
        q = parse_query("AND Caregiver WHERE attr Status = Present")
        out = evaluate(q, SITUATION)
        assert [p.subject for p in out.predicates] == ["Z1"]

    def test_or_same_instance_selects_values(self):
        extra = SITUATION + (
            pred("Resource", "BSNL_Network", "Connectivity", "No"),
        )
        q = parse_query(
            "OR Resource WHERE instance = BSNL_Network AND attribute = Connectivity"
        )
        out = evaluate(q, extra)
        assert out.op == "OR"
        assert [p.value for p in out.predicates] == ["Very Poor", "No"]

    def test_or_same_value_selects_instances(self):
        extra = SITUATION + (
            pred("Resource", "Reliance_Network", "Connectivity", "Very Poor"),
        )
        q = parse_query(
            'OR Resource WHERE attribute = Connectivity AND value = "Very Poor"'
        )
        out = evaluate(q, extra)
        assert [p.subject for p in out.predicates] == [
            "BSNL_Network",
            "Reliance_Network",
        ]

    def test_chain_links_value_to_subject(self):
        cs = (
            pred("Patient", "X", "Assigned_To", "Z1"),
            pred("Caregiver", "Z1", "Status", "Present"),
            pred("Caregiver", "Z2", "Status", "Absent"),
        )
        q = parse_query("AND CHAIN Patient -> Caregiver")
        out = evaluate(q, cs)
        assert [p.subject for p in out.predicates] == ["X", "Z1"]

    def test_chain_without_complete_path_is_null(self):
        cs = (
            pred("Patient", "X", "Assigned_To", "Z9"),
            pred("Caregiver", "Z1", "Status", "Present"),
        )
        q = parse_query("AND CHAIN Patient -> Caregiver")
        assert evaluate(q, cs).is_null

    def test_manpower_addition(self):
        q = parse_query(
            "ADD Manpower(Healthcare_Assistant, Count, =, 10), "
            "Manpower(Healthcare_Assistant, Recruitment, =, 6)"
        )
        out = evaluate(q, ())
        assert out.predicates[0].value == 16
        assert out.predicates[0].attribute == "Count"
        assert out.render() == "Manpower(Healthcare_Assistant, Count, =, 16)"

    def test_subtraction(self):
        q = parse_query("SUB Manpower(HA, Count, =, 10), Manpower(HA, Leavers, =, 4)")
        assert evaluate(q, ()).predicates[0].value == 6

    def test_negation_round_trips(self):
        text = "NOT Patient(X, Suffering, from, Malaria)"
        q = parse_query(text)
        out = evaluate(q, SITUATION)
        assert out.render() == text
        assert parse_query(format_query(q)) == q


class TestOrdering:
    @pytest.mark.parametrize("value", ["inf", "1e5", "5", " 7 ", True, False])
    @pytest.mark.parametrize("op", [">", "<", ">=", "<="])
    def test_only_two_numbers_are_ordered(self, value, op):
        assert not compare(value, op, 3)
        assert not compare(3, op, value)

    def test_numbers_are_ordered_exactly(self):
        big = 2 ** 53 + 1  # a float rounds it down to 2 ** 53
        assert compare(big, ">", 2 ** 53)
        assert compare(big, ">", float(2 ** 53))
        assert compare(float(2 ** 53), "<", big)
        assert not compare(big, "<=", float(2 ** 53))


class TestArithCompatibility:
    def test_non_numeric_operand_rejected(self):
        with pytest.raises(IncompatibleOperandsError):
            apply_arith(
                "+",
                pred("M", "HA", "Count", "ten"),
                pred("M", "HA", "Count", 5),
            )

    def test_bool_operand_rejected(self):
        with pytest.raises(IncompatibleOperandsError):
            apply_arith("+", pred("M", "HA", "Count", True), pred("M", "HA", "Count", 1))

    def test_different_subjects_rejected(self):
        with pytest.raises(IncompatibleOperandsError):
            apply_arith(
                "+", pred("M", "HA", "Count", 1), pred("M", "Nurse", "Count", 1)
            )

    def test_different_categories_rejected(self):
        with pytest.raises(IncompatibleOperandsError):
            apply_arith(
                "+", pred("M", "HA", "Count", 1), pred("Other", "HA", "Count", 1)
            )

    @pytest.mark.parametrize("op, exact", [("+", 10 ** 400 + 2), ("-", 10 ** 400 - 2)])
    def test_whole_number_past_every_float_adds_only_to_whole_numbers(self, op, exact):
        big = pred("M", "HA", "Count", 10 ** 400)
        assert apply_arith(op, big, pred("M", "HA", "Count", 2)).value == exact
        with pytest.raises(IncompatibleOperandsError, match="do not add up to a float"):
            apply_arith(op, big, pred("M", "HA", "Count", 2.5))

    def test_different_attributes_same_subject_allowed(self):
        out = apply_arith(
            "+", pred("M", "HA", "Count", 10), pred("M", "HA", "Recruitment", 6)
        )
        assert out.value == 16


CATEGORIES = ("Resource", "Caregiver", "Season")
SUBJECTS = ("BSNL_Network", "Reliance_Network", "Z1", "Z2", "Weather")
ATTRS = ("Connectivity", "Status", "Expertise")
# Values that link to a subject ("Z1", " weather"), that YAML types ("true"
# is text here), and that YAML leaves as text ("inf").
VALUES = ("Very Poor", "Average", "Present", "Absent", 3, True, "true", "inf",
          "Z1", " weather")

predicates = st.builds(
    pred,
    category=st.sampled_from(CATEGORIES),
    subject=st.sampled_from(SUBJECTS),
    attribute=st.sampled_from(ATTRS),
    value=st.sampled_from(VALUES),
)

# A situation may list one predicate object more than once.
situations = st.lists(predicates, max_size=6).flatmap(
    lambda ps: st.lists(st.sampled_from(ps), max_size=8) if ps else st.just([])
)

queries = st.one_of(
    st.builds(
        lambda c, t: Query("and_by_parameter", category=c, target=t),
        st.sampled_from(CATEGORIES),
        st.sampled_from(("Network", "Z1", "Weather")),
    ),
    st.builds(
        lambda chain: Query("and_cross_category", chain=chain),
        st.lists(st.sampled_from(CATEGORIES), min_size=2, max_size=4).map(tuple),
    ),
    st.builds(
        lambda c, a, v: Query(
            "and_conditional",
            category=c,
            condition=Condition("leaf", field="attr", name=a, cmp="=", value=v),
        ),
        st.sampled_from(CATEGORIES),
        st.sampled_from(ATTRS),
        st.sampled_from(VALUES),
    ),
    st.builds(
        lambda c, i, a: Query("or_same_instance", category=c, instance=i, attribute=a),
        st.sampled_from(CATEGORIES),
        st.sampled_from(SUBJECTS),
        st.sampled_from(ATTRS),
    ),
    st.builds(
        lambda c, a, v: Query("or_same_value", category=c, attribute=a, value=v),
        st.sampled_from(CATEGORIES),
        st.sampled_from(ATTRS),
        st.sampled_from(VALUES),
    ),
)


# A repeated category, over a situation that lists one predicate twice.
PATIENTS = (
    pred("Patient", "X", "Next", "Y"),
    pred("Patient", "Y", "Next", "Z"),
    pred("Patient", "W", "Next", "V"),
)
PATIENT_CHAIN = Query("and_cross_category", chain=("Patient", "Patient"))


@given(q=queries, cs=situations)
@example(q=PATIENT_CHAIN, cs=[*PATIENTS, PATIENTS[0]])
@settings(max_examples=300)
def test_evaluator_matches_subset_oracle(q, cs):
    got = evaluate(q, cs)
    expected = query_oracle(q, cs)
    assert list(got.predicates) == expected
    # Each kind joins by the word it starts with; nothing selected is NULL.
    if expected:
        assert got.op == q.kind.split("_")[0].upper()
    else:
        assert got is QueryResult.NULL


@given(q=queries)
def test_every_generated_query_round_trips(q):
    assert parse_query(format_query(q)) == q


def test_random_chains_match_the_oracle():
    # Chains of 2-4 categories, some repeated and re-cased, over situations
    # whose values mostly name a subject and that list predicates again;
    # about a quarter of the chains are complete.
    rng = random.Random(1)
    for _ in range(5000):
        chain = tuple(
            rng.choice(("Patient", "Caregiver", "patient"))
            for _ in range(rng.randint(2, 4))
        )
        listed = [
            pred(
                rng.choice(("Patient", "Caregiver")),
                rng.choice(("Z1", "Z2", "Z3")),
                "Next",
                rng.choice(("Z1", " z2", "z3 ", 3)),
            )
            for _ in range(rng.randint(2, 6))
        ]
        cs = [rng.choice(listed) for _ in range(rng.randint(2, 9))]
        q = Query("and_cross_category", chain=chain)
        assert list(evaluate(q, cs).predicates) == query_oracle(q, cs)


def test_chain_may_repeat_a_category_and_a_listed_predicate():
    x, y, _ = PATIENTS
    assert evaluate(PATIENT_CHAIN, [*PATIENTS, x]).predicates == (x, y, x)


def test_null_result_is_shared_sentinel():
    q = parse_query("AND Resource WHERE parameter INSTANCE_OF Network")
    assert evaluate(q, ()) is QueryResult.NULL

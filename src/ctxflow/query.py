"""Context predicate algebra: a small query language over a situation.

A contextual situation is viewed here as an ordered list of context
predicates ``Category(subject, attribute, connector, value)``. Seven query
kinds are supported:

* ``AND <Cat> WHERE parameter INSTANCE_OF <Param>`` -- conjunction of all
  predicates whose subject is an instance of the parameter.
* ``AND CHAIN <Cat1> -> <Cat2> [-> ...]`` -- cross-category conjunction
  chaining predicates where the previous value names the next subject.
* ``AND <Cat> WHERE <condition>`` -- conditional conjunction.
* ``OR <Cat> WHERE instance = <I> AND attribute = <A>`` -- disjunction of
  predicates sharing instance and attribute (differing values).
* ``OR <Cat> WHERE attribute = <A> AND value = <V>`` -- disjunction of
  predicates sharing attribute and value (differing instances).
* ``NOT <predicate>`` -- negation of a literal predicate.
* ``ADD <predicate>[,] <predicate>`` / ``SUB ...`` -- arithmetic over two
  compatible numeric predicates.

The four selection kinds share one evaluation: each keeps the predicates
of its category that pass its membership test, in situation order, joined
by its ``AND`` or ``OR``. A chain keeps exactly the predicates that lie on
some complete chain.

Conditions are AND/OR trees over leaves ``attr <name> <op> <value>``,
``param <op> <value>``, ``instance <op> <value>`` and ``value <op> <value>``,
with parentheses for grouping, nested at most ``_Parser.MAX_DEPTH`` deep.
Keywords are case-insensitive. A bare value
is typed as the loaders type a plain YAML scalar: a bool, an int or a float
becomes that value, one YAML cannot build (``0b_``) does not parse, and
any other word (``inf``, a date, ``null``) stays text. A quoted value is
always text. Only two numbers are ordered, and exactly: text and truth
values never are. Text that does not parse raises ``QueryParseError``,
which holds the offending position; its message says what is wrong there,
and names the token expected where one was.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import yaml

from .context import Value, normalize_value, values_equal
from .errors import IncompatibleOperandsError, QueryParseError


@dataclass(frozen=True)
class ContextPredicate:
    """Encapsulates one context 4-tuple under a category name."""

    category: str
    subject: str  # parameter or instance name
    attribute: str
    connector: str
    value: Value
    instance_of: Optional[str] = None  # declared parameter this subject instantiates
    negated: bool = False

    def render(self) -> str:
        text = "%s(%s, %s, %s, %s)" % (
            self.category,
            self.subject,
            self.attribute,
            self.connector,
            self.value,
        )
        return "NOT %s" % text if self.negated else text

    def is_instance_of(self, parameter: str) -> bool:
        target = parameter.casefold()
        subject = self.subject.casefold()
        if self.instance_of is not None and self.instance_of.casefold() == target:
            return True
        return subject == target or subject.endswith("_" + target)


@dataclass(frozen=True)
class QueryResult:
    """Predicates joined by AND/OR; empty means NULL."""

    op: Optional[str]
    predicates: Tuple[ContextPredicate, ...]

    NULL = None  # set after class definition

    @property
    def is_null(self) -> bool:
        return not self.predicates

    def render(self) -> str:
        if self.is_null:
            return "NULL"
        if len(self.predicates) == 1:
            return self.predicates[0].render()
        joint = " %s " % (self.op or "AND")
        return joint.join(p.render() for p in self.predicates)


QueryResult.NULL = QueryResult(None, ())


@dataclass(frozen=True)
class Condition:
    """Leaf or AND/OR node of a kind-3 condition tree."""

    op: str  # AND | OR | leaf
    children: Tuple["Condition", ...] = ()
    field: str = ""  # attr | param | instance | value (leaves only)
    name: str = ""  # attribute name for attr leaves
    cmp: str = "="
    value: Value = ""

    def holds(self, pred: ContextPredicate) -> bool:
        if self.op == "AND":
            return all(c.holds(pred) for c in self.children)
        if self.op == "OR":
            return any(c.holds(pred) for c in self.children)
        if self.field == "attr":
            if normalize_value(pred.attribute) != normalize_value(self.name):
                return False
            return compare(pred.value, self.cmp, self.value)
        if self.field in ("param", "instance"):
            return compare(pred.subject, self.cmp, self.value)
        return compare(pred.value, self.cmp, self.value)


_ORDERINGS = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(left: Value, op: str, right: Value) -> bool:
    """Whether ``left op right``. Only two numbers are ordered, exactly."""
    if op == "=":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    return _is_number(left) and _is_number(right) and _ORDERINGS[op](left, right)


@dataclass(frozen=True)
class Query:
    kind: str
    category: str = ""
    target: str = ""  # kind 1: parameter whose instances are selected
    chain: Tuple[str, ...] = ()  # kind 2: category chain
    condition: Optional[Condition] = None  # kind 3
    instance: str = ""  # kind 4
    attribute: str = ""  # kinds 4 and 5
    value: Value = ""  # kind 5
    predicate: Optional[ContextPredicate] = None  # not
    arith_op: str = ""  # + | -
    operands: Tuple[ContextPredicate, ...] = ()  # arith


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"[^"]*"|'[^']*')
      | (?P<op>->|>=|<=|!=|[=<>(),])
      | (?P<word>[^\s=<>!(),]+)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos, end = 0, len(text.rstrip())  # trailing blanks end the text
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise QueryParseError("unreadable input", position=pos)
        kind, quoted = m.lastgroup, m.lastgroup == "string"
        token = m.group(kind)
        tokens.append((token[1:-1] if quoted else token, m.start(kind), quoted))
        pos = m.end()
    return tokens


# Bare values are typed by PyYAML's safe resolver and constructors, which
# the loaders use too; both read nothing of the loader's state.
_YAML = yaml.SafeLoader("")
_TYPED = {"tag:yaml.org,2002:" + name for name in ("bool", "int", "float")}


class _Parser:
    # Parentheses nest at most as deep as the loader's documents do.
    MAX_DEPTH = 100

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # the parentheses open around the next token

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def at(self, *keywords) -> bool:
        """Whether the next tokens are ``keywords``, in any case."""
        ahead = self.tokens[self.index:self.index + len(keywords)]
        return len(ahead) == len(keywords) and all(
            token.upper() == keyword.upper()
            for (token, _, _), keyword in zip(ahead, keywords)
        )

    def position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def take(self, expected=None):
        if self.index >= len(self.tokens):
            raise QueryParseError("unexpected end of query", position=len(self.text))
        token, pos, quoted = self.tokens[self.index]
        if expected is not None and token.upper() != expected.upper():
            raise QueryParseError(
                "expected %r, found %r" % (expected, token), position=pos
            )
        self.index += 1
        return token

    def done(self):
        if self.index != len(self.tokens):
            raise QueryParseError("trailing input", position=self.position())

    def value(self) -> Value:
        if self.index >= len(self.tokens):
            raise QueryParseError("expected a value", position=len(self.text))
        token, pos, quoted = self.tokens[self.index]
        self.index += 1
        if quoted:
            return token
        tag = _YAML.resolve(yaml.ScalarNode, token, (True, False))
        if tag not in _TYPED:
            return token
        try:
            return _YAML.yaml_constructors[tag](_YAML, yaml.ScalarNode(tag, token))
        except ValueError:
            raise QueryParseError(
                "%r is not a valid %s" % (token, tag.rsplit(":", 1)[-1]), position=pos
            ) from None

    def predicate(self) -> ContextPredicate:
        category = self.take()
        self.take("(")
        subject = self.take()
        self.take(",")
        attribute = self.take()
        self.take(",")
        connector = self.take()
        self.take(",")
        value = self.value()
        self.take(")")
        return ContextPredicate(category, subject, attribute, connector, value)

    def condition(self) -> Condition:
        node = self.condition_term()
        children = [node]
        op = None
        while self.at("AND") or self.at("OR"):
            next_op = self.take().upper()
            if op is not None and next_op != op:
                raise QueryParseError(
                    "mixed AND/OR without parentheses", position=self.position()
                )
            op = next_op
            children.append(self.condition_term())
        if op is None:
            return node
        return Condition(op, tuple(children))

    def condition_term(self) -> Condition:
        if self.peek() == "(":
            if self.depth == self.MAX_DEPTH:
                raise QueryParseError("nested too deeply", position=self.position())
            self.take("(")
            self.depth += 1
            inner = self.condition()
            self.take(")")
            self.depth -= 1
            return inner
        fieldname = self.take().lower()
        if fieldname not in ("attr", "param", "instance", "value"):
            raise QueryParseError(
                "unknown condition field %r" % (fieldname,),
                position=self.tokens[self.index - 1][1],
            )
        name = ""
        if fieldname == "attr":
            name = self.take()
        cmp = self.take()
        if cmp not in ("=", "!=", ">", "<", ">=", "<="):
            raise QueryParseError(
                "unknown comparison %r" % (cmp,),
                position=self.tokens[self.index - 1][1],
            )
        value = self.value()
        return Condition("leaf", field=fieldname, name=name, cmp=cmp, value=value)


def parse_query(text: str) -> Query:
    """Parse concrete query syntax into a :class:`Query` AST."""
    parser = _Parser(text)
    head = parser.peek()
    if head is None:
        raise QueryParseError("empty query", position=0)
    head = head.upper()

    if head == "AND":
        parser.take("AND")
        if parser.at("CHAIN"):
            parser.take("CHAIN")
            chain = [parser.take()]
            parser.take("->")
            chain.append(parser.take())
            while parser.peek() == "->":
                parser.take("->")
                chain.append(parser.take())
            parser.done()
            return Query("and_cross_category", chain=tuple(chain))
        category = parser.take()
        parser.take("WHERE")
        if parser.at("parameter", "INSTANCE_OF"):
            parser.take()
            parser.take()
            target = parser.take()
            parser.done()
            return Query("and_by_parameter", category=category, target=target)
        condition = parser.condition()
        parser.done()
        return Query("and_conditional", category=category, condition=condition)

    if head == "OR":
        parser.take("OR")
        category = parser.take()
        parser.take("WHERE")
        first = parser.take().lower()
        if first == "instance":
            parser.take("=")
            instance = parser.take()
            parser.take("AND")
            parser.take("attribute")
            parser.take("=")
            attribute = parser.take()
            parser.done()
            return Query(
                "or_same_instance",
                category=category,
                instance=instance,
                attribute=attribute,
            )
        if first == "attribute":
            parser.take("=")
            attribute = parser.take()
            parser.take("AND")
            parser.take("value")
            parser.take("=")
            value = parser.value()
            parser.done()
            return Query(
                "or_same_value", category=category, attribute=attribute, value=value
            )
        raise QueryParseError(
            "expected 'instance' or 'attribute'",
            position=parser.tokens[parser.index - 1][1],
        )

    if head == "NOT":
        parser.take("NOT")
        pred = parser.predicate()
        parser.done()
        return Query("not", predicate=replace(pred, negated=not pred.negated))

    if head in ("ADD", "SUB"):
        parser.take(head)
        left = parser.predicate()
        if parser.peek() == ",":
            parser.take(",")
        right = parser.predicate()
        parser.done()
        op = "+" if head == "ADD" else "-"
        return Query("arith", arith_op=op, operands=(left, right))

    raise QueryParseError("unknown query head %r" % (head,), position=0)


def _category_matches(pred: ContextPredicate, category: str) -> bool:
    return pred.category.casefold() == category.casefold()


# Each selection kind's join and its membership test, met by a predicate of
# the query's category.
_SELECTIONS = {
    "and_by_parameter": ("AND", lambda q, p: p.is_instance_of(q.target)),
    "and_conditional": ("AND", lambda q, p: q.condition.holds(p)),
    "or_same_instance": (
        "OR",
        lambda q, p: values_equal(p.subject, q.instance)
        and values_equal(p.attribute, q.attribute),
    ),
    "or_same_value": (
        "OR",
        lambda q, p: values_equal(p.attribute, q.attribute)
        and values_equal(p.value, q.value),
    ),
}


def evaluate(q: Query, cs: Sequence[ContextPredicate]) -> QueryResult:
    """Evaluate a query over the situation's predicate list.

    Result predicates keep the situation's declaration order; an empty
    selection yields NULL (except arithmetic, which errors on bad operands).
    """
    if q.kind == "not":
        return QueryResult(None, (q.predicate,))
    if q.kind == "arith":
        return QueryResult(None, (apply_arith(q.arith_op, *q.operands),))
    if q.kind == "and_cross_category":
        op, chosen = "AND", _chain_participants(q.chain, cs)
    elif q.kind in _SELECTIONS:
        op, member = _SELECTIONS[q.kind]
        chosen = [p for p in cs if _category_matches(p, q.category) and member(q, p)]
    else:
        raise ValueError("unknown query kind %r" % (q.kind,))
    return QueryResult(op, tuple(chosen)) if chosen else QueryResult.NULL


def _chain_participants(chain, cs):
    """Predicates taking part in at least one complete category chain.

    A chain takes one predicate of each category in turn, where each
    predicate's value equals the next one's subject.
    """
    # Forward: the predicates of each stage that some chain from stage 0 reaches.
    reached = [[p for p in cs if _category_matches(p, chain[0])]]
    for category in chain[1:]:
        reached.append([
            p for p in cs
            if _category_matches(p, category)
            and any(values_equal(prev.value, p.subject) for prev in reached[-1])
        ])
    # Backward: of those, the ones that also reach the last stage.
    kept = reached[-1]
    on_chain = set(map(id, kept))
    for stage in reversed(reached[:-1]):
        kept = [
            p for p in stage
            if any(values_equal(p.value, nxt.subject) for nxt in kept)
        ]
        on_chain.update(map(id, kept))
    return [p for p in cs if id(p) in on_chain]


def apply_arith(
    op: str, left: ContextPredicate, right: ContextPredicate
) -> ContextPredicate:
    """Add or subtract two compatible numeric predicates.

    Operands must share category and subject and carry numeric values; the
    result keeps the first operand's attribute name.
    """
    for pred in (left, right):
        if not _is_number(pred.value):
            raise IncompatibleOperandsError("non-numeric operand %s" % pred.render())
    if not values_equal(left.subject, right.subject) or not _category_matches(
        left, right.category
    ):
        raise IncompatibleOperandsError(
            "operands describe different parameters: %s vs %s"
            % (left.render(), right.render())
        )
    try:
        value = left.value + right.value if op == "+" else left.value - right.value
    except OverflowError:  # a whole number past the largest float, with a float
        raise IncompatibleOperandsError(
            "%s and %s do not add up to a float" % (left.render(), right.render())
        ) from None
    return replace(left, value=value)

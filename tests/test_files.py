"""Tests for the versioned document formats and their loaders.

Every test runs under each YAML loader (see the ``loader`` fixture).
"""

import dataclasses
import gc
import re
import sys
import tracemalloc

import pytest
import yaml

from bundlegen import generate
from ctxflow import files
from ctxflow.chain import run_instance
from ctxflow.cli import main
from ctxflow.errors import LoadError
from ctxflow.graph import CompositeValue
from ctxflow.files import (
    load_bundle,
    load_document,
    load_scenario,
    parse_time,
)
from run import WORKLOADS

pytestmark = pytest.mark.usefixtures("loader")


@pytest.fixture(scope="module")
def run_adapt_bundle(tmp_path_factory):
    """The ``run-adapt`` benchmark's bundle: 800 activities."""
    path = tmp_path_factory.mktemp("run-adapt")
    generate(WORKLOADS["run-adapt"].shape, 3, path)
    return path / "bundle.yaml"


@pytest.fixture(scope="module")
def small_run_adapt_bundle(tmp_path_factory):
    """A bundle shaped like ``run-adapt``'s, with 100 activities."""
    path = tmp_path_factory.mktemp("small-run-adapt")
    generate(dataclasses.replace(WORKLOADS["run-adapt"].shape, activities=100), 1, path)
    return path / "bundle.yaml"


class TestParseTime:
    @pytest.mark.parametrize(
        "text,minutes",
        [
            ("2:00 pm", 840),
            ("11.00 am", 660),
            ("12:00 am", 0),
            ("12:30 pm", 750),
            ("10:30", 630),
            ("0:00", 0),
            ("23:59", 1439),
            (75, 75),
        ],
    )
    def test_accepted_forms(self, text, minutes):
        assert parse_time(text) == minutes

    @pytest.mark.parametrize("bad", ["25:00", "13:00 pm", "2:61 pm", "noon", -5, True])
    def test_rejected_forms(self, bad):
        with pytest.raises(LoadError):
            parse_time(bad)

    def test_clock_text_gives_minutes(self):
        assert parse_time("11:00") == 660


class TestDocumentEnvelope:
    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(LoadError) as err:
            load_document(tmp_path / "ghost.yaml", "scenario")
        assert "ghost.yaml" in str(err.value)

    def test_unsupported_version_rejected(self, tmp_path):
        p = tmp_path / "doc.yaml"
        p.write_text(yaml.safe_dump({"version": 2, "kind": "scenario"}))
        with pytest.raises(LoadError) as err:
            load_document(p, "scenario")
        assert "version" in str(err.value)

    def test_wrong_kind_rejected(self, tmp_path):
        p = tmp_path / "doc.yaml"
        p.write_text(yaml.safe_dump({"version": 1, "kind": "scenario"}))
        with pytest.raises(LoadError):
            load_document(p, "process-model")

    def test_non_utf8_document_rejected(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_bytes("version: 1\nkind: scenario\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(LoadError) as err:
            load_document(p, "scenario")
        assert "cannot read" in str(err.value)
        assert "scenario.yaml" in str(err.value)

    def test_non_mapping_rejected(self, tmp_path):
        p = tmp_path / "doc.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(LoadError):
            load_document(p, "scenario")


def deeply_nested_kiosk(tmp_path, kiosk_dir, depth=3000):
    """The kiosk bundle, copied to ``tmp_path`` with its model's activities
    nested ``depth`` lists deep."""
    for name in ("bundle.yaml", "graph.yaml", "repo.yaml", "scenario.yaml"):
        (tmp_path / name).write_text((kiosk_dir / name).read_text())
    model = (kiosk_dir / "model.yaml").read_text()
    deep = "activities: " + "[" * depth + "]" * depth + "\nkiosk_activities:"
    (tmp_path / "model.yaml").write_text(model.replace("activities:", deep, 1))
    return tmp_path / "bundle.yaml"


class TestParseErrors:
    """A document that is not YAML, or holds a scalar that cannot be built,
    names its file and where parsing stopped, counted the same under either
    loader; the problem text of a syntax error is the loader's."""

    HEADER = "version: 1\nkind: process-model\n"

    @pytest.mark.parametrize(
        "body,where",
        [
            ("activities: [a, b\n", "line 4, column 1"),  # unclosed flow sequence
            ("activities:\n\t- a\n", "line 4, column 1"),  # tab indent
            ("a: b: c\n", "line 3, column 5"),
            ("activities: *ghost\n", "line 3, column 13"),  # undefined alias
            ("---\nversion: 1\n", "line 3, column 1"),  # a second document
            # Bytes and characters differ before the NUL: "é" is two bytes.
            ("name: caf\u00e9 \x00\n", "position 42"),
            # Scalars the resolver types but the constructor cannot build.
            ("time: 2026-13-45\n", "line 3, column 7"),
            ("a: !!int x\n", "line 3, column 4"),
            ("a: !!bool x\n", "line 3, column 4"),
            ("a: !!int ''\n", "line 3, column 4"),
            ("a: !!timestamp x\n", "line 3, column 4"),
        ],
        ids=["unclosed-flow", "tab-indent", "nested-mapping", "undefined-alias",
             "second-document", "nul", "bad-timestamp", "bad-int", "bad-bool",
             "empty-int", "unmatched-timestamp"],
    )
    def test_malformed_document_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, body, where
    ):
        for name in ("bundle.yaml", "graph.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        (tmp_path / "model.yaml").write_text(self.HEADER + body)
        assert main(["validate", str(tmp_path / "bundle.yaml")]) == 1
        out, err = capsys.readouterr()
        prefix = "invalid: cannot parse %s: %s: " % (tmp_path / "model.yaml", where)
        assert out.startswith(prefix)
        assert out.count("\n") == 1 and len(out) > len(prefix) + 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "command,name,edit,where",
        [
            ("validate", "model.yaml", lambda text: text + "a: b: c\n", "line 57, column 5"),
            (
                "run",
                "scenario.yaml",
                lambda text: re.sub("time: .*", "time: 2026-13-45", text, count=1),
                "line 5, column 11",
            ),
        ],
        ids=["not-yaml", "bad-scalar"],
    )
    def test_kiosk_document_is_refused_where_parsing_stopped(
        self, tmp_path, kiosk_dir, capsys, command, name, edit, where
    ):
        for other in ("bundle.yaml", "graph.yaml", "repo.yaml", "model.yaml",
                      "scenario.yaml"):
            (tmp_path / other).write_text((kiosk_dir / other).read_text())
        (tmp_path / name).write_text(edit((kiosk_dir / name).read_text()))
        assert main([command, str(tmp_path / "bundle.yaml")]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("invalid: cannot parse %s: %s: " % (tmp_path / name, where))
        assert "Traceback" not in out + err

    def test_deeply_nested_document_is_a_load_error(self, tmp_path, kiosk_dir, capsys):
        # The event builder stops at its ``MAX_DEPTH``, long before the
        # pure-Python scanner, quadratic in flow depth, reaches the bottom.
        bundle = deeply_nested_kiosk(tmp_path, kiosk_dir)
        assert main(["validate", str(bundle)]) == 1
        out, err = capsys.readouterr()
        assert out == "invalid: cannot parse %s: nested too deeply\n" % (
            tmp_path / "model.yaml",
        )
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-cap", "past-the-cap"])
    def test_the_builder_refuses_a_document_past_its_depth(self, tmp_path, past):
        # The document's mapping holds its situations, lists nested in lists.
        lists = files._FromEvents.MAX_DEPTH - 1 + past
        path = tmp_path / "scenario.yaml"
        path.write_text("version: 1\nkind: scenario\nsituations: %s%s\n"
                        % ("[" * lists, "]" * lists))
        with pytest.raises(LoadError) as err:
            load_scenario(path)
        assert str(err.value).startswith(
            "cannot parse %s: nested too deeply" % (path,) if past
            else "%s: situation 0: not a mapping" % (path,)
        )


class TestScenarioLoading:
    def test_kiosk_scenario(self, kiosk_dir):
        situations = load_scenario(kiosk_dir / "scenario.yaml")
        assert len(situations) == 1
        cs, contexts = situations[0]
        assert [ctx.qualified for ctx in contexts] == list(cs.bindings)
        assert cs.timestamp == 840
        assert len(cs.bindings) == 8
        assert cs.bindings["Weather.Status"].value == "Rainy"

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(
            yaml.safe_dump(
                {
                    "version": 1,
                    "kind": "scenario",
                    "situations": [
                        {"time": 10, "contexts": []},
                        {"time": 5, "contexts": []},
                    ],
                }
            )
        )
        with pytest.raises(LoadError):
            load_scenario(p)

    def test_static_context_in_a_situation_is_refused(self, tmp_path):
        static = {"parameter": "Kiosk", "attribute": "Location", "value": "Village",
                  "temporality": "static"}
        p = tmp_path / "scenario.yaml"
        p.write_text(yaml.safe_dump({
            "version": 1,
            "kind": "scenario",
            "situations": [
                # A situation binds an attribute's last listing only.
                {"time": 10, "contexts": [static, dict(static, temporality="steady")]},
                {"time": 20, "contexts": [static]},
            ],
        }))
        with pytest.raises(LoadError) as caught:
            load_scenario(p)
        assert str(caught.value) == (
            "%s: situation 1: static context 'Kiosk.Location' cannot appear in a "
            "change set" % (p,)
        )


class TestBundleLoading:
    def test_kiosk_bundle_loads_fully(self, kiosk_bundle):
        bundle = load_bundle(kiosk_bundle)
        assert len(bundle.model.chain) == 5
        assert len(bundle.model.rules) == 5
        assert len(bundle.graph.state_nodes) == 5
        assert "transfer_fragment" in bundle.model.repo.fragments

    def test_default_scope_mirrors_state_node(self, kiosk_bundle):
        bundle = load_bundle(kiosk_bundle)
        scope = bundle.model.chain.nodes["Treatment"].scope
        assert scope.relevant_parameters == frozenset({"Caregiver", "Patient_Bed"})

    @pytest.mark.parametrize("swap", [False, True])
    def test_first_listed_of_two_matching_rules_applies(self, tmp_path, kiosk_dir, swap):
        for name in ("graph.yaml", "repo.yaml", "scenario.yaml", "bundle.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        model = yaml.safe_load((kiosk_dir / "model.yaml").read_text())
        rule = model["rules"][0]
        assert rule["activity"] == "Patient Registration"
        twin = dict(rule, action={"kind": "replace_role", "role": "Y"})
        model["rules"][:1] = [rule, twin][::-1] if swap else [rule, twin]
        (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
        bundle = load_bundle(tmp_path / "bundle.yaml")
        trace = run_instance(bundle.model, bundle.scenario)
        actions = [
            e.action for e in trace.entries if e.activity_id == "Patient Registration"
        ]
        assert actions == ["replace_role(Y)" if swap else "replace_role(Z)"]

    def test_missing_entry_rejected(self, tmp_path, kiosk_dir):
        p = tmp_path / "bundle.yaml"
        p.write_text(
            yaml.safe_dump({"version": 1, "kind": "bundle", "graph": "g.yaml"})
        )
        with pytest.raises(LoadError):
            load_bundle(p)

    @pytest.mark.parametrize(
        "composition",
        [
            "&c {op: AND, items: [Receptionist.Status, *c]}",
            "{op: AND, items: &l [Receptionist.Status, {op: OR, items: *l}]}",
        ],
        ids=["mapping-alias", "items-alias"],
    )
    def test_self_referring_composition_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, composition
    ):
        for name in ("bundle.yaml", "model.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        links = "    attributes: [Receptionist.Status, Healthcare_Assistant.Status]\n"
        graph = (kiosk_dir / "graph.yaml").read_text()
        assert graph.count(links) == 1
        (tmp_path / "graph.yaml").write_text(
            graph.replace(links, links + "    composition: %s\n" % composition)
        )
        assert main(["validate", str(tmp_path / "bundle.yaml")]) == 1
        out, err = capsys.readouterr()
        assert out == "invalid: %s: state node 0: composition refers to itself\n" % (
            tmp_path / "graph.yaml",
        )
        assert "Traceback" not in out + err

    def test_shared_sub_composition_is_not_a_cycle(self, tmp_path, kiosk_dir):
        for name in ("bundle.yaml", "model.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        links = "    attributes: [Receptionist.Status, Healthcare_Assistant.Status]\n"
        shared = (
            "    composition: {op: AND, items: [&s {op: OR, items: "
            "[Receptionist.Status, Healthcare_Assistant.Status]}, *s]}\n"
        )
        graph = (kiosk_dir / "graph.yaml").read_text()
        (tmp_path / "graph.yaml").write_text(graph.replace(links, links + shared))
        node = load_bundle(tmp_path / "bundle.yaml").graph.state_nodes[
            "Patient Registration"
        ]
        inner = node.composition.items[0]
        assert node.composition.items == (inner, inner)
        assert inner.op == "OR"

    @pytest.mark.parametrize("command", ["validate", "run", "verify"])
    @pytest.mark.parametrize(
        "entity, links, problem",
        [
            (
                "  - {name: Ghost}\n",
                ("[Network, Online_Payment]", "[Network, Online_Payment, Ghost]"),
                "parameter 'Ghost' names an entity with no attributes",
            ),
            (
                "",
                ("[Network, Online_Payment]", "[Network, Online_Payment, Network]"),
                "duplicate parameter 'Network'",
            ),
            (
                "",
                (
                    "[Network.Status, Online_Payment.Status]",
                    "[Network.Status, Online_Payment.Status, Network.Status]",
                ),
                "duplicate attribute 'Network.Status'",
            ),
        ],
        ids=["attribute-less-entity", "repeated-parameter", "repeated-attribute"],
    )
    def test_state_node_the_net_cannot_mirror_is_a_load_error(
        self, tmp_path, kiosk_dir, capsys, command, entity, links, problem
    ):
        # Bill Payment, the last state node, is the only one to read these.
        old, new = links
        graph = (kiosk_dir / "graph.yaml").read_text()
        assert graph.count(old) == 1
        graph = graph.replace(old, new)
        graph = graph.replace("\nattributes:\n", "\n" + entity + "\nattributes:\n", 1)
        self._kiosk_with_graph(tmp_path, kiosk_dir, graph)
        assert main([command, str(tmp_path / "bundle.yaml")]) == 1
        out, err = capsys.readouterr()
        assert out == "invalid: %s: state node 4: %s\n" % (tmp_path / "graph.yaml", problem)
        assert "Traceback" not in out + err

    def test_attribute_less_entity_no_state_node_names_loads(
        self, tmp_path, kiosk_dir, capsys
    ):
        graph = (kiosk_dir / "graph.yaml").read_text()
        graph = graph.replace("\nattributes:\n", "\n  - {name: Ghost}\n\nattributes:\n", 1)
        self._kiosk_with_graph(tmp_path, kiosk_dir, graph)
        assert "Ghost" in load_bundle(tmp_path / "bundle.yaml").graph.entities
        assert main(["verify", str(tmp_path / "bundle.yaml")]) == 0
        assert '"verdict": "pass"' in capsys.readouterr().out

    @staticmethod
    def _kiosk_with_graph(tmp_path, kiosk_dir, graph):
        for name in ("bundle.yaml", "model.yaml", "repo.yaml", "scenario.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        (tmp_path / "graph.yaml").write_text(graph)

    @staticmethod
    def _kiosk_with_unknown_fragment(tmp_path, kiosk_dir):
        for name in ("graph.yaml", "repo.yaml", "scenario.yaml", "bundle.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        model = yaml.safe_load((kiosk_dir / "model.yaml").read_text())
        model["rules"][2]["fragment"] = "ghost_fragment"
        (tmp_path / "model.yaml").write_text(yaml.safe_dump(model))
        return tmp_path / "bundle.yaml"

    def test_rule_with_unknown_fragment_rejected(self, tmp_path, kiosk_dir):
        with pytest.raises(LoadError) as err:
            load_bundle(self._kiosk_with_unknown_fragment(tmp_path, kiosk_dir))
        assert "unknown fragment" in str(err.value)

    def test_loading_leaves_nothing_for_the_cyclic_collector(
        self, tmp_path, kiosk_bundle, run_adapt_bundle
    ):
        """Each document's nodes are freed as soon as it is built, not kept
        alive by a reference cycle until the collector runs."""
        generate(WORKLOADS["run-observe"].shape, 1, tmp_path)
        gc.collect()
        gc.disable()
        try:
            for path in (kiosk_bundle, tmp_path / "bundle.yaml", run_adapt_bundle):
                load_bundle(path)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_loading_starts_no_cyclic_collection(
        self, run_adapt_bundle, collections_during
    ):
        assert gc.isenabled()
        bundle, starts = collections_during(load_bundle, run_adapt_bundle)
        assert len(bundle.model.chain) == 800
        assert starts == []
        assert gc.isenabled()

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_loading_puts_back_the_callers_collector_setting(
        self, tmp_path, kiosk_dir, kiosk_bundle, collecting
    ):
        broken = self._kiosk_with_unknown_fragment(tmp_path, kiosk_dir)
        if not collecting:
            gc.disable()
        try:
            load_bundle(kiosk_bundle)
            assert gc.isenabled() is collecting
            with pytest.raises(LoadError):
                load_bundle(broken)
            assert gc.isenabled() is collecting
        finally:
            gc.enable()

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_a_document_nested_too_deeply_puts_back_the_collector_setting(
        self, tmp_path, kiosk_dir, collecting
    ):
        """The ``RecursionError`` a deep document raises inside the pause
        ends as a ``LoadError``, with the caller's setting put back. Just past
        the recursion limit: the pure-Python scanner takes time quadratic in
        the depth."""
        bundle = deeply_nested_kiosk(tmp_path, kiosk_dir, sys.getrecursionlimit() + 100)
        if not collecting:
            gc.disable()
        try:
            with pytest.raises(LoadError, match="nested too deeply"):
                load_bundle(bundle)
            assert gc.isenabled() is collecting
        finally:
            gc.enable()

    def test_loading_composes_no_node(
        self, kiosk_bundle, small_run_adapt_bundle, loader, monkeypatch
    ):
        """Each document is built from its events: neither the builder nor
        its fallback to PyYAML composes a node tree."""
        def compose(self):
            raise AssertionError("a document was composed into nodes")

        monkeypatch.setattr(files._located(loader), "get_single_node", compose)
        assert len(load_bundle(kiosk_bundle).model.chain) == 5
        assert len(load_bundle(small_run_adapt_bundle).model.chain) == 100

    def test_a_merge_key_falls_back_to_pyyaml_once(self, tmp_path, loader, monkeypatch):
        composed = []
        monkeypatch.setattr(
            files._located(loader), "get_single_node",
            lambda self: composed.append(self) or loader.get_single_node(self),
        )
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "version: 1\nkind: scenario\nat: &at {time: 10}\n"
            "situations: [{<<: *at, contexts: []}, {<<: *at, time: 12}]\n"
        )
        (first, _), (second, _) = load_scenario(path)
        assert (first.timestamp, second.timestamp) == (10, 12)
        assert len(composed) == 1

    def test_loading_holds_no_node_tree(self, small_run_adapt_bundle):
        """A load's traced peak stays below twice what it keeps. PyYAML's
        node tree of a document took about twice as much as the tree built
        from it, and composing one raised the ratio to 2.5 or more."""
        load_bundle(small_run_adapt_bundle)  # builds the located loader once
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bundle = load_bundle(small_run_adapt_bundle)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bundle.model.chain) == 100
        assert peak - start < 2 * (kept - start)

    def test_a_shared_context_is_refused_at_its_first_place(self, tmp_path, kiosk_dir):
        """Later situations list one unmapped context twice, which the load
        builds once; the error names the first situation that binds it."""
        for name in ("bundle.yaml", "graph.yaml", "repo.yaml", "model.yaml"):
            (tmp_path / name).write_text((kiosk_dir / name).read_text())
        humid = "      - {parameter: Weather, attribute: Humidity, value: High}\n"
        later = '  - time: "%s"\n    contexts:\n' + humid
        (tmp_path / "scenario.yaml").write_text(
            (kiosk_dir / "scenario.yaml").read_text() + later % "3:00 pm" + later % "4:00 pm"
        )
        with pytest.raises(LoadError) as err:
            load_bundle(tmp_path / "bundle.yaml")
        assert str(err.value) == (
            "%s: situation 1: activity 'Storage in Cloud' takes in attribute "
            "'Weather.Humidity' through parameter 'Weather', but its state node does "
            "not map it" % (tmp_path / "scenario.yaml",)
        )

    def test_loading_normalizes_each_pattern_once(self, run_adapt_bundle, monkeypatch):
        """Once per distinct typed pattern of the rows and rules together:
        1,750 patterns of 24 distinct values (seed 3)."""
        calls = []
        normalized = CompositeValue.normalized
        monkeypatch.setattr(
            CompositeValue, "normalized",
            lambda value: calls.append(value) or normalized(value),
        )
        bundle = load_bundle(run_adapt_bundle)
        rows = [p for entry in bundle.model.repo.subgoals for p, _ in entry.rows]
        patterns = rows + [rule.value_pattern for rule in bundle.model.rules]
        assert len(patterns) == 1750
        assert len({id(p) for p in patterns}) == len(calls) == 24
        assert len({(p.op, p.pairs) for p in patterns}) == 24

import hashlib
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from resfault import fileio, solver, strategies
from resfault.cli import main
from resfault.families import KPartiteShape
from resfault.fileio import (
    MAX_VERTICES,
    FileFormatError,
    load_network,
    parse_shorthand,
    plan_from_dict,
    plan_to_dict,
)
from resfault.network import FaultMode, Measurement, Network
from resfault.signatures import merged_pairs, reading_classes
from resfault.strategies import complete_strategy

VERTEX_OPTIONS = ["--pair", "--fault", "--measurement"]  # integer options that name vertices


class TestFileFormats:
    def test_shorthand_parsing(self):
        assert parse_shorthand("K8").label == "complete(8)"
        assert parse_shorthand("K2,3,4").label == "k_partite(2, 3, 4)"
        assert parse_shorthand("nope") is None

    def test_network_file_round_trip(self, tmp_path):
        doc = {"family": "explicit", "n": 3,
               "edges": [[0, 1, "1"], [1, 2, "3/2"], [0, 2, "2"]]}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        spec = load_network(str(path))
        assert spec.label == "explicit(n=3)"
        assert spec.network.n == 3
        assert str(spec.network.edge_between(1, 2).conductance) == "3/2"

    def test_plan_round_trip_exact(self):
        plan = complete_strategy(7)
        doc = plan_to_dict(plan)
        again = plan_from_dict(doc)
        assert plan_to_dict(again) == doc
        assert again.measurements == plan.measurements
        assert again.provenance == plan.provenance
        assert again.mode == plan.mode

    def test_bad_documents_raise_with_context(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"family": "explicit", "n": 2, "edges": [[0, 1, "0"]]}')
        with pytest.raises(FileFormatError, match="edges\\[0\\]"):
            load_network(str(bad))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(FileFormatError, match="broken.json:1"):
            load_network(str(broken))
        with pytest.raises(FileFormatError, match="mode"):
            plan_from_dict({"mode": "melted", "measurements": []})

    # Each of these once became vertex 1 (or 0) by int() and was answered for.
    @pytest.mark.parametrize("vertex", [1.9, True, "1"], ids=["float", "bool", "str"])
    def test_edge_vertices_must_be_json_integers(self, tmp_path, capsys, vertex):
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(
            {"family": "explicit", "n": 3, "edges": [[0, 2, "1"], [0, vertex, "1"]]}))
        assert main(["resistance", "--network", str(net_file), "--pair", "0", "1"]) == 2
        assert capsys.readouterr() == ("", "parse error: edges[1]: vertex must be an integer\n")

    @pytest.mark.parametrize("probe", [[0.7, 1.2], [0, True], ["0", 1]], ids=["float", "bool", "str"])
    def test_probe_vertices_must_be_json_integers(self, tmp_path, capsys, probe):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"measurements": [[2, 3], probe]}))
        assert main(["verify", "--network", "K4", "--plan", str(plan_file)]) == 2
        assert capsys.readouterr() == (
            "", "parse error: measurements[1]: vertex must be an integer\n"
        )


class TestBoundsCommand:
    def test_complete(self, capsys):
        assert main(["bounds", "--complete", "6"]) == 0
        out = capsys.readouterr().out
        assert "exact:   4" in out

    def test_bipartite_json(self, capsys):
        assert main(["bounds", "--k-partite", "5,5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"] == 6

    def test_kpartite_sandwich(self, capsys):
        assert main(["bounds", "--k-partite", "2,2,2,3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["lower"], doc["upper"]) == (3, 4)

    def test_two_vertex_partition_count(self, capsys):
        assert main(["bounds", "--k-partite", "2,5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == 5

    def test_dominated_tripartite_sandwich(self, capsys):
        assert main(["bounds", "--k-partite", "2,3,6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["lower"], doc["upper"], doc["exact"]) == (4, 5, None)

    def test_counts_are_exact_beyond_float_precision(self, capsys):
        assert main(["bounds", "--complete", "300000000000000002"]) == 0
        out = capsys.readouterr().out
        for line in ("lower:   200000000000000002", "upper:   200000000000000002",
                     "exact:   200000000000000002"):
            assert line in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_counts_print_in_full_for_the_largest_parts(self, capsys, fmt):
        # Three 4300-digit parts, the most `int` parses; the counts have 4300 digits.
        parts = ",".join(str(10**4299 + i) for i in (1, 2, 3))
        assert main(["bounds", "--k-partite", parts, *fmt]) == 0
        assert "15" + "0" * 4297 + "2" in capsys.readouterr().out

    def test_out_of_scope_family(self, capsys):
        assert main(["bounds", "--complete", "4"]) == 2
        assert "out of scope" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bounds", "--k-partite", "2,x"],
                                      ["strategy", "--k-partite", "2,,3"]])
    def test_malformed_partition_list_names_the_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --k-partite: must be comma-separated integers, got {argv[2]!r}" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize(
        "option", ["--complete", "--k-partite", "--network", "--pair", "--fault", "--measurement"])
    def test_size_past_the_digit_limit_names_the_limit(self, option, capsys):
        # A shorthand network's size gets the same short message, as a parse error,
        # and so does a vertex option's integer.
        limit = sys.get_int_max_str_digits()
        size = "1" + "0" * limit
        argv = {
            "--complete": ["bounds", option, size],
            "--k-partite": ["bounds", option, f"2,{size}"],
            "--network": ["solve", option, f"K{size}"],
            "--pair": ["resistance", "--network", "K5", option, "0", size],
            "--fault": ["resistance", "--network", "K5", "--pair", "0", "1", option, size, "1"],
            "--measurement": ["classes", "--network", "K5", option, size, "1"],
        }[option]
        if option == "--network":
            assert main(argv) == 2
        else:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        err = capsys.readouterr().err
        prefix = "parse error" if option == "--network" else f"argument {option}"
        what = "an integer" if option in VERTEX_OPTIONS else "a size"
        assert f"{prefix}: {what} of {limit + 1} digits is over Python's {limit}-digit " \
               "limit for integers in text" in err
        assert len(err) < 300

    @pytest.mark.parametrize("option", VERTEX_OPTIONS)
    def test_other_bad_vertex_is_an_invalid_int_value(self, option, capsys):
        argv = {
            "--pair": ["resistance", "--network", "K5", option, "0", "x"],
            "--fault": ["resistance", "--network", "K5", "--pair", "0", "1", option, "x", "1"],
            "--measurement": ["classes", "--network", "K5", option, "x", "1"],
        }[option]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {option}: invalid int value: 'x'" in capsys.readouterr().err


class TestStrategyCommand:
    def test_complete_7(self, capsys):
        assert main(["strategy", "--complete", "7"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["measurements"]) == 5
        assert "verified" in captured.err

    def test_tripartite_444(self, capsys):
        assert main(["strategy", "--k-partite", "4,4,4"]) == 0
        assert len(json.loads(capsys.readouterr().out)["measurements"]) == 6

    def test_bipartite_23_emits_plan_but_fails_verification(self, tmp_path, capsys):
        # The two-vertex-partition defect: a plan of the nominal size 2
        # cannot distinguish, and verify says so via its exit code.  The
        # emitted plan has the proven 3 probes and passes.
        assert main(["strategy", "--k-partite", "2,3"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["measurements"]) == 3
        assert "verified" in captured.err
        plan_file = tmp_path / "nominal.json"
        plan_file.write_text(
            json.dumps({"mode": doc["mode"], "measurements": doc["measurements"][:2]})
        )
        assert main(["verify", "--network", "K2,3", "--plan", str(plan_file)]) == 1
        assert "distinguishing: no" in capsys.readouterr().out

    @pytest.mark.parametrize("g", range(2, 11))
    def test_two_vertex_partition_plans_verify(self, g, capsys):
        assert main(["strategy", "--k-partite", f"2,{g}"]) == 0
        assert len(json.loads(capsys.readouterr().out)["measurements"]) == max(g, 3)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert main(["strategy", "--complete", "6", "--out", str(target)]) == 0
        assert len(json.loads(target.read_text())["measurements"]) == 4

    def test_unwritable_out_file_is_bad_input(self, tmp_path, capsys):
        target = tmp_path / "missing" / "plan.json"
        assert main(["strategy", "--complete", "6", "--out", str(target)]) == 2
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_failing_plan_is_printed_and_exits_1(self, monkeypatch, capsys):
        one_probe = strategies.MeasurementPlan((Measurement(0, 1),), ("butterfly",))
        monkeypatch.setattr(strategies, "complete_strategy", lambda n: one_probe)
        assert main(["strategy", "--complete", "6", "--mode", "shorted"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "mode": "shorted", "measurements": [[0, 1]], "provenance": ["butterfly"]}
        assert captured.err == (
            "verification FAILED: plan of size 1 does not distinguish all faults "
            "under mode=shorted\n"
        )

    @pytest.mark.parametrize("parts", ["1,3", "1,2,3"])
    def test_partition_of_one_is_out_of_scope(self, parts, capsys):
        assert main(["strategy", "--k-partite", parts]) == 2
        err = capsys.readouterr().err
        assert "out of scope: k-partite strategy needs every partition size >= 2" in err


class TestVerifyCommand:
    def test_distinguishing_plan(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_to_dict(complete_strategy(6))))
        assert main(["verify", "--network", "K6", "--plan", str(plan_file)]) == 0
        assert "distinguishing: yes" in capsys.readouterr().out

    def test_insufficient_plan_lists_pairs(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps({"mode": "removed", "measurements": [[0, 1], [1, 2], [2, 3]]})
        )
        assert main(["verify", "--network", "K6", "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        assert "distinguishing: no" in out
        assert "undistinguished edge pairs" in out
        assert "measurement graph" in out

    def test_complete_graph_rules_flag_violations(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": [[0, 1]]}))
        assert main(["verify", "--network", "K6", "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        everyone = "twin class (0, 1, 2, 3, 4, 5)"
        assert f"violated: {everyone} has 4 isolated vertices (at most one is allowed)" in out
        assert f"violated: component of size two (0, 1) inside {everyone}" in out

    def test_explicit_network_with_twins_is_checked(self, tmp_path, capsys):
        # Vertices 3 and 4 hang off vertex 2 with equal conductance: twins, so a
        # plan may leave at most one of them untouched.
        net_file, plan_file = tmp_path / "net.json", tmp_path / "plan.json"
        net_file.write_text(json.dumps({
            "family": "explicit", "n": 5,
            "edges": [[0, 1, "1"], [1, 2, "3/2"], [2, 3, "2"], [2, 4, "2"]],
        }))
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": [[0, 1], [1, 2]]}))
        assert main(["verify", "--network", str(net_file), "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        violations = [line for line in out.splitlines() if "violated" in line]
        assert violations == [
            "  violated: twin class (3, 4) has 2 isolated vertices (at most one is allowed)"
        ]

    def test_explicit_network_gets_no_family_rules(self, tmp_path, capsys):
        # A weighted 6-cycle has no twins, so neither twin-class condition
        # applies and only the component summary is printed.
        net_file, plan_file = tmp_path / "net.json", tmp_path / "plan.json"
        weights = ["1", "2", "3/2", "1", "5", "1/3"]
        net_file.write_text(json.dumps({
            "family": "explicit", "n": 6,
            "edges": [[v, (v + 1) % 6, w] for v, w in enumerate(weights)],
        }))
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": [[0, 1]]}))
        assert main(["verify", "--network", str(net_file), "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        assert "measurement graph: 5 components, 4 isolated, 1 size-two components" in out
        assert "violated" not in out

    def test_out_of_range_vertex_is_a_parse_error(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": [[0, 9]]}))
        assert main(["verify", "--network", "K6", "--plan", str(plan_file)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_negative_vertex_is_a_parse_error(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": [[-1, 2]]}))
        assert main(["verify", "--network", "K6", "--plan", str(plan_file)]) == 2
        assert capsys.readouterr().err == (
            "parse error: measurement (-1, 2) references vertex -1, but the network has n=6\n"
        )

    def test_empty_plan_tells_the_one_edge_of_k2_apart(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": []}))
        assert main(["verify", "--network", "K2", "--plan", str(plan_file)]) == 0
        assert "distinguishing: yes" in capsys.readouterr().out

    def test_empty_plan_on_k3_merges_every_pair(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"mode": "removed", "measurements": []}))
        assert main(["verify", "--network", "K3", "--plan", str(plan_file)]) == 1
        out = capsys.readouterr().out
        assert "distinguishing: no" in out
        assert "undistinguished edge pairs (3):" in out
        assert "violated: twin class (0, 1, 2) has 3 isolated vertices" in out

    def test_missing_file(self, capsys):
        assert main(["verify", "--network", "K6", "--plan", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "network,plan,reason",
        [
            ([{"family": "complete", "n": 6}], {"measurements": [[0, 1]]},
             "net.json: top level must be a JSON object"),
            ({"family": "k_partite", "parts": [[1], 3]}, {"measurements": [[0, 1]]},
             '"parts" must hold integers'),
            ({"family": "k_partite", "parts": [2.9, 3]}, {"measurements": [[0, 1]]},
             '"parts" must hold integers'),
            ({"family": "complete", "n": 6}, [[0, 1]],
             "plan.json: top level must be a JSON object"),
            ({"family": "complete", "n": 6}, {"measurements": [[0, 1]], "provenance": 5},
             '"provenance" must be a list'),
            ({"family": "complete", "n": 6}, "directory", "plan.json: "),
            ("directory", {"measurements": [[0, 1]]}, "net.json: "),
            ({"family": "explicit", "n": 6}, {"measurements": [[0, 1]]},
             'explicit network needs an "edges" list'),
            ({"family": "complete", "n": 6}, {"mode": "removed"},
             'plan needs a "measurements" list'),
            ({"family": "complete", "n": 6}, {"measurements": [[0, 1]], "provenance": []},
             "provenance must tag every measurement"),
            ({"family": "complete", "n": 6}, {"measurements": [[0, 1], [1, 0]]},
             "duplicate measurement in plan"),
            ({"family": "k_partite", "parts": []}, {"measurements": [[0, 1]]},
             'k_partite network needs a nonempty "parts" list'),
            ({"family": "explicit", "n": 3, "edges": [[0, 5, "1"]]}, {"measurements": [[0, 1]]},
             "edge (0, 5) out of range for n=3"),
        ],
        ids=["network-list", "parts-nested", "parts-float", "plan-list", "provenance-int",
             "plan-dir", "network-dir", "edges-missing", "measurements-missing",
             "provenance-short", "plan-duplicate", "parts-empty", "edge-out-of-range"],
    )
    def test_malformed_files_are_parse_errors(self, tmp_path, capsys, network, plan, reason):
        paths = []
        for name, doc in (("net.json", network), ("plan.json", plan)):
            path = tmp_path / name
            if doc == "directory":
                path.mkdir()
            else:
                path.write_text(json.dumps(doc))
            paths.append(str(path))
        assert main(["verify", "--network", paths[0], "--plan", paths[1]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and reason in err

    @pytest.mark.parametrize(
        "raw,reason",
        [
            (b"\xff\xfe{}", "can't decode"),
            (b'{"family": "complete", "n": 1' + b"0" * 5000 + b"}",
             "an integer of 5001 digits is over Python's 4300-digit limit for integers in text"),
        ],
        ids=["undecodable", "long-integer"],
    )
    def test_unreadable_network_bytes_are_parse_errors(self, tmp_path, capsys, raw, reason):
        path = tmp_path / "net.json"
        path.write_bytes(raw)
        assert main(["verify", "--network", str(path), "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: ") and reason in err

    @pytest.mark.parametrize("network,plan", [
        ({"family": "complete", "n": "BIG"}, {"measurements": [[0, 1]]}),
        ({"family": "k_partite", "parts": [2, "BIG"]}, {"measurements": [[0, 1]]}),
        ({"family": "explicit", "n": 3, "edges": [[0, "BIG", "1"]]}, {"measurements": [[0, 1]]}),
        ({"family": "complete", "n": 6}, {"measurements": [[0, 1], ["BIG", 2]]}),
    ], ids=["n", "parts", "edge-vertex", "plan-vertex"])
    def test_integer_past_the_digit_limit_names_the_limit(self, tmp_path, capsys, network, plan):
        # Python's own message would tell the user to call sys.set_int_max_str_digits().
        limit = sys.get_int_max_str_digits()
        paths = []
        for name, doc in (("net.json", network), ("plan.json", plan)):
            path = tmp_path / name
            path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * limit))
            paths.append(path)
        assert main(["verify", "--network", str(paths[0]), "--plan", str(paths[1])]) == 2
        bad = paths[0] if "BIG" in json.dumps(network) else paths[1]
        assert capsys.readouterr().err == (
            f"parse error: {bad}: an integer of {limit + 1} digits is over Python's "
            f"{limit}-digit limit for integers in text\n")


class TestInputSizeGuard:
    """A network above MAX_VERTICES exits 2 before any edge list or plan is built."""

    OVER = MAX_VERTICES + 1
    PARTS = [MAX_VERTICES // 2, MAX_VERTICES // 2 + 1]

    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a network or plan above the vertex limit")

        for name in ("complete_network", "kpartite_network"):
            monkeypatch.setattr(fileio, name, refuse)
        monkeypatch.setattr(Network, "from_edge_list", refuse)
        monkeypatch.setattr(strategies, "complete_strategy", refuse)
        monkeypatch.setattr(strategies, "kpartite_strategy", refuse)

    @pytest.mark.parametrize(
        "network",
        [
            f"K{OVER}",
            "K" + ",".join(map(str, PARTS)),
            {"family": "complete", "n": OVER},
            {"family": "k_partite", "parts": PARTS},
            {"family": "explicit", "n": OVER, "edges": [[0, 1, "1"]]},
        ],
        ids=["K-n", "K-parts", "complete", "k-partite", "explicit"],
    )
    @pytest.mark.parametrize("command", ["solve", "resistance", "verify"])
    def test_network_inputs(self, tmp_path, capsys, network, command):
        if isinstance(network, dict):
            (tmp_path / "net.json").write_text(json.dumps(network))
            network = str(tmp_path / "net.json")
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"measurements": [[0, 1]]}))
        extra = {"solve": [], "resistance": ["--pair", "0", "1"],
                 "verify": ["--plan", str(plan_file)]}
        assert main([command, "--network", network, *extra[command]]) == 2
        assert f"the limit is MAX_VERTICES = {MAX_VERTICES}" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["complete", "k-partite"])
    def test_strategy(self, capsys, family):
        size = str(self.OVER) if family == "complete" else ",".join(map(str, self.PARTS))
        assert main(["strategy", f"--{family}", size]) == 2
        err = capsys.readouterr().err
        assert f"out of scope: network has {self.OVER} vertices; the limit is" in err

    @pytest.mark.parametrize("command", ["bounds", "delta"])
    def test_formula_commands_stay_unlimited(self, capsys, command):
        assert main([command, "--complete", str(self.OVER), "--json"]) == 0

    @pytest.mark.parametrize("command", ["bounds", "delta"])
    def test_formula_commands_bound_the_partition_count(self, capsys, command):
        # Their cost grows with the partition count, and a shape of more
        # partitions than MAX_VERTICES is larger than any network accepted.
        started = time.monotonic()
        assert main([command, "--k-partite", ",".join(["2"] * self.OVER)]) == 2
        assert time.monotonic() - started < 1.0
        assert capsys.readouterr() == (
            "", f"out of scope: {self.OVER} partitions; the limit is MAX_VERTICES = {MAX_VERTICES}\n"
        )
        assert main([command, "--k-partite", ",".join(["2"] * MAX_VERTICES), "--json"]) == 0


class TestSolveCommand:
    def test_exact_k6(self, capsys):
        assert main(["solve", "--network", "K6", "--exact"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["measurements"]) == 4
        assert "optimal" in captured.err

    def test_exact_with_no_fault_extension(self, capsys):
        assert main(["solve", "--network", "K6", "--exact", "--allow-no-fault"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["measurements"]) <= 5

    @pytest.mark.parametrize("how", ["--exact", "--greedy"])
    def test_no_fault_outcome_is_one_more_column(self, how, tmp_path, capsys):
        # The faults-only plans, exact and greedy, are (0, 1) and (0, 2): they
        # leave fault (1, 3) reading like the healthy network, and extending
        # them took 3 probes.
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(
            {"family": "explicit", "n": 4,
             "edges": [[0, 1, "1"], [0, 2, "1"], [1, 2, "1"], [1, 3, "1"]]}
        ))
        assert main(["solve", "--network", str(net_file), how, "--allow-no-fault"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["measurements"]) == 2
        net = load_network(str(net_file)).network
        probes = [Measurement(r, s) for r, s in doc["measurements"]]
        table = reading_classes(net, probes, FaultMode.REMOVED, True)
        assert merged_pairs(net.edges + (None,), table) == []
        assert set(doc["provenance"]) == {how.lstrip("-")}
        assert "to tell every fault and the no-fault outcome apart" in captured.err

    @pytest.mark.parametrize("how", ["--exact", "--greedy"])
    @pytest.mark.parametrize("no_fault", [[], ["--allow-no-fault"]], ids=["faults", "no-fault"])
    def test_one_vertex_network_gets_the_empty_plan(self, how, no_fault, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"family": "explicit", "n": 1, "edges": []}))
        assert main(["solve", "--network", str(net_file), how, *no_fault]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["measurements"] == []
        assert captured.err.startswith("0 measurements: ")

    @pytest.mark.parametrize("how", ["--exact", "--greedy"])
    def test_infeasible_pool_names_the_merged_pairs(self, how, monkeypatch, capsys):
        edges = load_network("K4").network.edges
        infeasible = solver.Infeasible(((edges[0], edges[1]), (edges[2], edges[5])))
        for name in ("solve_exact", "solve_greedy"):
            monkeypatch.setattr(solver, name, lambda *args, **kwargs: infeasible)
        assert main(["solve", "--network", "K4", how]) == 4
        assert capsys.readouterr() == ("", (
            "infeasible: no candidate measurement separates:\n"
            "  (0, 1) ~ (0, 2)\n"
            "  (0, 3) ~ (2, 3)\n"
        ))

    def test_greedy_k8(self, capsys):
        assert main(["solve", "--network", "K8", "--greedy"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["measurements"]) >= 6
        assert "greedy" in captured.err

    @pytest.mark.parametrize("budget", ["nan", "-1", "soon"])
    def test_budget_must_be_seconds_at_least_zero(self, budget, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--network", "K6", "--budget", budget])
        assert exit_info.value.code == 2
        assert f"argument --budget: must be a number of seconds >= 0, got {budget!r}" in (
            capsys.readouterr().err
        )

    def test_timeout_exit_code(self, capsys):
        assert main(["solve", "--network", "K8", "--exact", "--budget", "0"]) == 3
        captured = capsys.readouterr()
        assert "timed out" in captured.err

    def test_budget_bounds_wall_time(self, capsys):
        # The deadline is checked per row of the cover-mask build (406
        # candidate probes, 82,215 fault pairs on K29) and inside the search;
        # only the key table and the greedy order run before it unchecked.
        # K29's search takes about 19 s on a 2-core VM.
        start = time.monotonic()
        assert main(["solve", "--network", "K29", "--budget", "1"]) == 3
        assert time.monotonic() - start < 10
        captured = capsys.readouterr()
        assert "timed out: best known plan has" in captured.err
        assert json.loads(captured.out)["measurements"]

    def test_timeout_reports_the_handshake_bound(self, capsys):
        # K25 is one twin class: all but one vertex must be touched, and no
        # probe may stand alone, so the component seed is ceil((24 + 24) / 3)
        # = 16 probes; the handshake term gives 12 and the counting bound 6.
        # A zero budget stops before the search, so the bound is the seed on
        # any machine; a longer budget may refute more targets.
        assert main(["solve", "--network", "K25", "--budget", "0"]) == 3
        assert "at least 16 are necessary" in capsys.readouterr().err

    @pytest.mark.parametrize("network,size", [("K13", 9), ("K3,4,8", 7)])
    def test_exact_solves_that_need_orbit_bans(self, network, size, capsys):
        assert main(["solve", "--network", network, "--budget", "60"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["measurements"]) == size
        assert "optimal" in captured.err

    @pytest.mark.parametrize("parts", [(2, 3, 6), (2, 2, 3, 5)])
    @pytest.mark.parametrize("mode", ["removed", "shorted"])
    def test_plan_depends_only_on_the_network(self, parts, mode, tmp_path, capsys):
        # The same graph as a shorthand and as an explicit edge list.
        shape = KPartiteShape(parts)
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps({"family": "explicit", "n": shape.n, "edges": [
            [e.u, e.v, str(e.conductance)] for e in shape.network().edges]}))
        outputs = []
        for network in ("K" + ",".join(map(str, parts)), str(net_file)):
            assert main(["solve", "--network", network, "--mode", mode]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_explicit_network_file(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net_file.write_text(
            json.dumps(
                {"family": "explicit", "n": 4,
                 "edges": [[0, 1, "1"], [1, 2, "1"], [2, 3, "1"], [0, 3, "1"], [0, 2, "2"]]}
            )
        )
        assert main(["solve", "--network", str(net_file), "--exact"]) == 0


class TestValueCommands:
    def test_resistance_plain(self, capsys):
        assert main(["resistance", "--network", "K8", "--pair", "0", "1"]) == 0
        assert "1/4" in capsys.readouterr().out

    def test_resistance_under_fault(self, capsys):
        assert main(
            ["resistance", "--network", "K8", "--pair", "0", "1",
             "--fault", "0", "1", "--mode", "shorted"]
        ) == 0
        out = capsys.readouterr().out
        assert "= 0" in out

    def test_resistance_json(self, capsys):
        assert main(["resistance", "--network", "K8", "--pair", "0", "1", "--json"]) == 0
        assert capsys.readouterr().out == '{"value": "1/4"}\n'

    @pytest.fixture
    def path3(self, tmp_path):
        """The path 0 - 1 - 2 with unit conductances."""
        net_file = tmp_path / "path3.json"
        net_file.write_text(json.dumps(
            {"family": "explicit", "n": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}))
        return str(net_file)

    def test_open_circuit_reads_inf(self, path3, capsys):
        argv = ["resistance", "--network", path3, "--pair", "0", "2", "--fault", "0", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "R'(0, 2) with removed fault (0, 1) = inf\n"
        assert main([*argv, "--json"]) == 0
        assert capsys.readouterr().out == '{"value": "inf"}\n'

    def test_missing_fault_edge_is_named_without_quotes(self, path3, capsys):
        argv = ["resistance", "--network", path3, "--pair", "0", "2", "--fault", "0", "2"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no edge between 0 and 2\n")

    def test_number_conductances_are_read_as_written(self, tmp_path, capsys):
        # As floats both conductances were 1/10, and the reading was 20.
        path = tmp_path / "net.json"
        path.write_text('{"family": "explicit", "n": 3, "edges": '
                        '[[0, 1, 0.1], [1, 2, 0.10000000000000000001], [0, 2, "1"]]}')
        assert main(["classes", "--network", str(path), "--measurement", "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "reading 200000000000000000010/10000000000000000001 (~20): (0, 2)" in out

    def test_classes_k6(self, capsys):
        assert main(["classes", "--network", "K6", "--measurement", "0", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["classes"]) == 3
        sizes = sorted(len(c["edges"]) for c in doc["classes"])
        assert sizes == [1, 6, 8]

    def test_delta_complete_table(self, capsys):
        assert main(["delta", "--complete", "6", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        coincident = next(r for r in rows if r["case"] == "a=r, b=s")
        assert coincident["shorted"] == "1/3"
        assert coincident["removed"] == "-1/6"

    def test_delta_kpartite_table(self, capsys):
        assert main(["delta", "--k-partite", "2,2,2", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        col1 = next(r for r in rows if r["column"] == "I")
        assert col1["shorted"] == "5/12"
        zero = next(r for r in rows if r["column"] == "IX")
        assert zero["shorted"] == "0" and zero["removed"] == "0"

    def test_delta_complete_text(self, capsys):
        assert main(["delta", "--complete", "6"]) == 0
        assert capsys.readouterr().out == (
            "resistance-change table for complete(6)\n"
            "  a=r, b=s: shorted 1/3 (~0.333333), removed -1/6 (~-0.166667)\n"
            "  a=r, b!=s: shorted 1/12 (~0.0833333), removed -1/24 (~-0.0416667)\n"
            "  a!=r, b=s: shorted 1/12 (~0.0833333), removed -1/24 (~-0.0416667)\n"
            "  a,b not in {r,s}: shorted 0 (~0), removed 0 (~0)\n"
        )

    def test_delta_kpartite_text(self, capsys):
        assert main(["delta", "--k-partite", "2,3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "resistance-change table for k_partite(2, 3)"
        assert lines[1] == (
            "     I [|p_a|=2, |p_ground|=3]: shorted 2/3 (~0.666667), removed -4/3 (~-1.33333)"
        )
        assert lines[17] == "    IX [-]: shorted 0 (~0), removed 0 (~0)"
        assert len(lines) == 22

    def test_delta_prints_every_cell_in_full(self, capsys):
        parts = ",".join(str(10**1499 + i) for i in (1, 2, 3))
        assert main(["delta", "--k-partite", parts, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert max(len(row["removed"]) for row in rows) > 4300  # past the int-to-str limit
        assert main(["delta", "--k-partite", parts]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(rows) + 1

    def test_delta_complete_needs_three_vertices(self, capsys):
        assert main(["delta", "--complete", "2"]) == 2
        assert capsys.readouterr() == ("", "out of scope: complete-graph table needs n >= 3\n")

    def test_unsupported_family_for_closed_forms_falls_back(self, tmp_path, capsys):
        net_file = tmp_path / "net.json"
        net_file.write_text(
            json.dumps({"family": "explicit", "n": 3,
                        "edges": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"]]})
        )
        assert main(["classes", "--network", str(net_file),
                     "--measurement", "0", "1"]) == 0
        assert "classes" in capsys.readouterr().out


class TestHostileInput:
    """Inputs that once hung the tool, crashed it or hid its answer."""

    def write(self, tmp_path, doc, name="net.json"):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "token,limit",
        [
            ("1e-10000000", "MAX_CONDUCTANCE_EXPONENT = 1000"),
            ("1" * 1001, "MAX_CONDUCTANCE_CHARS = 1000"),
            (f"1/{2 ** 1024}", "MAX_CONDUCTANCE_BITS = 1024"),
            ("1e-309", "MAX_CONDUCTANCE_BITS = 1024"),
        ],
        ids=["exponent", "length", "bits", "exponent-bits"],
    )
    def test_unbounded_conductance_is_refused_quickly(self, tmp_path, capsys, token, limit):
        net = self.write(tmp_path, {"family": "explicit", "n": 3,
                                    "edges": [[0, 1, token], [1, 2, "1"], [0, 2, "1"]]})
        started = time.monotonic()
        assert main(["solve", "--network", net, "--budget", "1"]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("parse error: edges[0]: ") and limit in err

    def test_deeply_nested_plan_is_a_parse_error(self, tmp_path, capsys):
        plan = self.write(tmp_path, "[" * 200_000 + "]" * 200_000, "plan.json")
        started = time.monotonic()
        assert main(["verify", "--network", "K4", "--plan", plan]) == 2
        assert time.monotonic() - started < 1.0
        assert "parse error:" in capsys.readouterr().err

    def test_reading_above_the_int_text_limit_prints_in_full(self, tmp_path, capsys):
        # Conductances 2^p - 1 for distinct primes p are pairwise coprime,
        # so the series resistance sum(1/c) has their product as denominator.
        exponents = [929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997, 1009, 1013, 1019, 1021]
        conductances = [2**p - 1 for p in exponents]
        n = len(conductances) + 1
        net = self.write(tmp_path, {"family": "explicit", "n": n, "edges": [
            [v, v + 1, str(Decimal(c))] for v, c in enumerate(conductances)]})
        want = sum(Fraction(1, c) for c in conductances)
        denominator = str(Decimal(want.denominator))
        limit = sys.get_int_max_str_digits()
        assert len(denominator) > limit
        assert main(["resistance", "--network", net, "--pair", "0", str(n - 1)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"R(0, {n - 1}) = {Decimal(want.numerator)}/{denominator} (~")
        assert sys.get_int_max_str_digits() == limit

    def test_reading_beyond_the_float_range_gets_its_annotation(self, tmp_path, capsys):
        net = self.write(tmp_path, {"family": "explicit", "n": 4,
                                    "edges": [[v, v + 1, "1e-308"] for v in range(3)]})
        assert main(["resistance", "--network", net, "--pair", "0", "3"]) == 0
        assert capsys.readouterr().out == f"R(0, 3) = {3 * 10**308} (~3e+308)\n"


class TestTranscriptIdentity:
    """Every command's bytes over a fixed set of runs, pinned by one digest.

    Each run records its argv, exit code, stdout, stderr and `--out` file;
    the digest is the sha256 of their JSON list, with the temporary
    directory written as "<tmp>".  Help text, argparse usage errors,
    messages that Python words itself and `--budget` runs are left out:
    they depend on the terminal width, the Python version or the clock.
    """

    DIGEST = "6d922ddf26d79b8a992e4e2d3cd1a172fef20e0a88be409f2b46bda0d5d16289"

    EXPLICIT = {
        "path": {"family": "explicit", "n": 4,
                 "edges": [[0, 1, "1"], [1, 2, "2"], [2, 3, "1/3"]]},
        "weighted": {"family": "explicit", "n": 4,
                     "edges": [[0, 1, "1"], [0, 2, "2"], [0, 3, "3"], [1, 2, "1/2"],
                               [1, 3, "5"], [2, 3, "1"]]},
        "pendant": {"family": "explicit", "n": 5,
                    "edges": [[0, 1, "1"], [1, 2, "1"], [0, 2, "1"], [2, 3, "3/2"], [3, 4, "2"]]},
    }
    SHORTHANDS = ["K3", "K4", "K5", "K6", "K7", "K2,2", "K2,3", "K1,3", "K2,2,2", "K1,1,2"]
    OUT_OF_SCOPE = ["K1", f"K{MAX_VERTICES + 1}", "K0,2"]
    PLANS = {
        "empty": {"measurements": []},
        "one": {"measurements": [[0, 1]]},
        "two-shorted": {"mode": "shorted", "measurements": [[0, 1], [1, 2]]},
        "off-network": {"measurements": [[0, 9]]},
    }
    FAMILIES = [["--complete", str(n)] for n in (2, 3, 5, 6, 7, 8, 9, 12)] + [
        ["--k-partite", parts]
        for parts in ("1,2", "2,2", "2,3", "3,2", "3,3", "2,5", "2,2,2", "2,3,4", "2,3,6",
                      "3,3,5", "2,2,2,2", "2,3,4,5", "2,2,3,3,4", "2,2,2,2,2,2,2")
    ]

    def runs(self, tmp):
        networks = list(self.SHORTHANDS)
        for name, doc in self.EXPLICIT.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc))
            networks.append(str(tmp / f"{name}.json"))
        for name, doc in self.PLANS.items():
            (tmp / f"{name}.plan.json").write_text(json.dumps(doc))
        modes = ("removed", "shorted")
        for net in self.OUT_OF_SCOPE:
            yield ["solve", "--network", net]
        for net in networks:
            for mode in modes:
                for how in ([], ["--greedy"], ["--allow-no-fault"], ["--greedy", "--allow-no-fault"]):
                    yield ["solve", "--network", net, "--mode", mode, *how]
            for plan in self.PLANS:
                yield ["verify", "--network", net, "--plan", str(tmp / f"{plan}.plan.json")]
            yield ["verify", "--network", net, "--plan", str(tmp / "one.plan.json"),
                   "--mode", "shorted"]
            for fmt in ([], ["--json"]):
                yield ["resistance", "--network", net, "--pair", "0", "2", *fmt]
                for mode, pair in zip(modes, ("0 1", "1 2")):
                    yield ["classes", "--network", net, "--measurement", *pair.split(),
                           "--mode", mode, *fmt]
                    yield ["resistance", "--network", net, "--pair", "0", "2",
                           "--fault", "0", "1", "--mode", mode, *fmt]
        yield ["classes", "--network", "K4", "--measurement", "1", "1"]
        yield ["resistance", "--network", "K4", "--pair", "0", "7"]
        for family in self.FAMILIES:
            for mode in modes:
                out = str(tmp / "strategy.json")
                yield ["strategy", *family, "--mode", mode, "--out", out]
                yield ["verify", "--network", "K" + family[1], "--plan", out]
            for command in ("bounds", "delta"):
                for fmt in ([], ["--json"]):
                    yield [command, *family, *fmt]

    def test_transcript_is_unchanged(self, tmp_path, capsys):
        transcript = []
        out_file = tmp_path / "strategy.json"
        for argv in self.runs(tmp_path):
            writes = "--out" in argv
            if writes:
                out_file.unlink(missing_ok=True)
            code = main(argv)
            captured = capsys.readouterr()
            written = out_file.read_text() if writes and out_file.exists() else None
            transcript.append([argv, code, captured.out, captured.err, written])
        text = json.dumps(transcript).replace(str(tmp_path), "<tmp>")
        assert len(transcript) == 480
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST

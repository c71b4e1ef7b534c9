"""Simulation harness determinism and the command-line surface."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import qbp
from qbp import css, decoder, gf2, harness, jsonio, product
from qbp.cli import cli_dispatch
from qbp.errors import BudgetExceededError, ShapeError, ValidationError
from qbp.gf2 import F2Vector
from qbp.groups import cyclic_group
from qbp.harness import ExperimentConfig, derive_trial_seed, run_simulation
from qbp.instances import (bipartite_cycle, incidence_star_product, left_right_cayley,
                           star_graph, star_product)
from qbp.jsonio import parse_rational
from qbp.product import complex_from_json, complex_to_json

from fixtures import graph_to_json, group_to_json, strip_timing
from oracles import (
    from_alist,
    mat_mul,
    minimal_coset_representative,
    transpose,
    verify_chain_condition,
)


class TestHarness:
    def test_zero_trials(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), trials=0, seed=1, weight=1)
        result = run_simulation(star12_code, config)
        assert result.records == ()
        assert result.success_rate is None

    def test_weight_zero_always_succeeds(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), trials=5, seed=1, weight=0)
        result = run_simulation(star12_code, config)
        assert result.success_rate == 1
        assert all(r.iterations == 0 for r in result.records)

    def test_sweep_weight1_star(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), weight=1, sweep=True)
        result = run_simulation(star12_code, config)
        assert len(result.records) == star12_code.n
        assert result.success_rate == 1

    def test_sweep_over_the_budget_is_refused_before_decoding(self, star12_code, monkeypatch):
        # C(60, 5) = 5,461,512 supports exceed 2^20; a decode would raise here.
        monkeypatch.setattr(harness, "decode", no_decode)
        config = ExperimentConfig(epsilon=Fraction(0), weight=5, sweep=True)
        with pytest.raises(BudgetExceededError, match=re.escape(
                "a weight-5 sweep decodes C(60, 5) = 5461512 supports, "
                "over the budget of 1048576")):
            run_simulation(star12_code, config)

    @pytest.mark.parametrize("budget, refused", [(60, False), (59, True)], ids=["at", "over"])
    def test_sweep_budget_boundary(self, star12_code, monkeypatch, budget, refused):
        # A weight-1 sweep of star12 decodes C(60, 1) = 60 supports.
        monkeypatch.setattr(harness, "_SWEEP_BUDGET", budget)
        config = ExperimentConfig(epsilon=Fraction(0), weight=1, sweep=True)
        if refused:
            with pytest.raises(BudgetExceededError, match="over the budget of 59"):
                run_simulation(star12_code, config)
        else:
            assert len(run_simulation(star12_code, config).records) == 60

    def test_sampled_weight_is_not_budgeted(self, star12_code):
        # Only the sweep enumerates supports; trials of weight 5 draw three.
        config = ExperimentConfig(epsilon=Fraction(0), trials=3, seed=2, weight=5)
        result = run_simulation(star12_code, config)
        assert [r.error_weight for r in result.records] == [5, 5, 5]

    def test_exactly_one_error_model(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(epsilon=Fraction(0), trials=1)
        with pytest.raises(ValidationError):
            ExperimentConfig(epsilon=Fraction(0), trials=1, weight=1,
                             flip_probability=Fraction(1, 10))

    @pytest.mark.parametrize("sweep", [False, True])
    def test_negative_weight_rejected(self, sweep):
        with pytest.raises(ValidationError, match="error weight must be nonnegative, got -1"):
            ExperimentConfig(epsilon=Fraction(0), trials=1, weight=-1, sweep=sweep)

    def test_epsilon_from_one_twelfth_rejected(self):
        with pytest.raises(ValidationError, match="below 1/12"):
            ExperimentConfig(epsilon=Fraction(1, 12), trials=1, weight=1)

    def test_seed_determinism(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), trials=20, seed=7, weight=2)
        a = run_simulation(star12_code, config)
        b = run_simulation(star12_code, config)
        assert a == b
        c = run_simulation(star12_code,
                           ExperimentConfig(epsilon=Fraction(0), trials=20, seed=8, weight=2))
        assert a != c

    def test_trial_substreams_are_stable(self):
        assert derive_trial_seed(7, 0) != derive_trial_seed(7, 1)
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    def test_iid_model(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), trials=30, seed=3,
                                  flip_probability=Fraction(1, 60))
        result = run_simulation(star12_code, config)
        assert len(result.records) == 30

    def test_minimal_representative_of_each_trial(self, match8_code):
        # The harness runs no minimal-representative search and says so; the
        # oracle, run on each trial's error, stays within the error's weight.
        config = ExperimentConfig(epsilon=Fraction(0), trials=10, seed=5, weight=2)
        result = run_simulation(match8_code, config)
        assert config.echo()["check_minimal_representative"] is False
        for record in result.records:
            assert record.to_json()["minimal_representative_weights"] is None
            rng = random.Random(derive_trial_seed(5, record.index))
            error = F2Vector.from_support(match8_code.n, rng.sample(range(match8_code.n), 2))
            rep = minimal_coset_representative(match8_code, gf2.mat_vec(match8_code.hx, error))
            assert rep.v10_weight + rep.v01_weight <= record.error_weight

    def test_syndromes_come_from_the_decoder_index(self, monkeypatch):
        # A fresh code, so no other test has built its Hx column masks.
        code = css.extract_code(star_product(12, 3, 2))
        config = ExperimentConfig(epsilon=Fraction(1, 30), trials=30, seed=3,
                                  flip_probability=Fraction(1, 20))
        result = run_simulation(code, config)
        assert "col_masks" not in code.hx.__dict__
        with pytest.raises(ShapeError, match="error length 59 != n = 60"):
            decoder.z_syndrome(code, F2Vector(code.n - 1, frozenset()))
        monkeypatch.setattr(harness, "z_syndrome",
                            lambda code, error: gf2.mat_vec(code.hx, error))
        assert run_simulation(code, config) == result

    def test_iterations_bounded_by_syndrome(self, star12_code):
        config = ExperimentConfig(epsilon=Fraction(0), trials=50, seed=11, weight=2)
        result = run_simulation(star12_code, config)
        for r in result.records:
            assert r.iterations <= r.syndrome_weight

    def test_slope_on_mixed_weights(self, star12_code):
        records = []
        for w in (1, 2):
            config = ExperimentConfig(epsilon=Fraction(0), trials=40, seed=13, weight=w)
            records.extend(run_simulation(star12_code, config).records)
        slope = qbp.harness.iterations_slope(records)
        assert slope is not None
        assert slope <= 1.05


@pytest.fixture()
def workdir(tmp_path):
    cyc = bipartite_cycle(3)
    (tmp_path / "cyc.json").write_text(json.dumps(graph_to_json(cyc)))
    cpx = left_right_cayley(cyclic_group(8), [1], [1])
    (tmp_path / "match.json").write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
    return tmp_path


def no_decode(*args):
    raise AssertionError("decoded a trial of a sweep over the budget")


def run_cli(*argv):
    return cli_dispatch([str(a) for a in argv])


def decode_complex_file(workdir, family):
    """A complex file for the decode tests.  "z8" is built by `qbp construct`
    from the Z_8 factor, group and action files of the console-script CI
    step; star12 and incstar13 are the conftest families, written out."""
    path = workdir / f"{family}.json"
    if family == "z8":
        m = 8
        table = [[(g + x) % m for x in range(m)] for g in range(m)]
        files = {
            "left.json": {"v0": m, "v1": m,
                          "edges": sorted([g, (g - a) % m] for g in range(m) for a in (1, 2))},
            "right.json": {"v0": m, "v1": m,
                           "edges": sorted([g, (g + b) % m] for g in range(m) for b in (1, 4))},
            "group.json": {"order": m, "mul": table, "label": "Z8"},
            "actions.json": {"left_v0": table, "left_v1": table,
                             "right_v0": table, "right_v1": table},
        }
        for name, obj in files.items():
            (workdir / name).write_text(json.dumps(obj))
        assert run_cli("construct", "--left", workdir / "left.json", "--right",
                       workdir / "right.json", "--group", workdir / "group.json",
                       "--actions", workdir / "actions.json", "--out", path) == 0
    else:
        cpx = star_product(12, 3, 2) if family == "star12" else incidence_star_product(13, 2)
        path.write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
    return path


class TestCli:
    def test_construct_happy_path(self, workdir, capsys):
        rc = run_cli("construct", "--left", workdir / "cyc.json",
                     "--right", workdir / "cyc.json",
                     "--out", workdir / "cpx.json")
        assert rc == 0
        out = capsys.readouterr().out
        assert "chain condition: pass" in out
        payload = json.loads((workdir / "cpx.json").read_text())
        assert payload["v00"] == 9

    def test_construct_reports_the_builders_chain_verdict(self, workdir, capsys, monkeypatch):
        checked = []
        original = qbp.product._check_complex
        monkeypatch.setattr(qbp.product, "_check_complex",
                            lambda cpx, faces: checked.append(cpx) or original(cpx, faces))
        rc = run_cli("construct", "--left", workdir / "cyc.json",
                     "--right", workdir / "cyc.json",
                     "--out", workdir / "cpx.json")
        assert rc == 0
        out = capsys.readouterr().out
        first, rest = out.split("\n", 1)
        assert first == "chain condition: pass"
        assert json.loads(rest)["result"]["chain_condition"] == "pass"
        # The builder's verdict holds by proof, so construct runs no check;
        # the loader checks the written file once, and the multiplied
        # verdict (the oracle) on it agrees.
        assert checked == []
        written = complex_from_json(json.loads((workdir / "cpx.json").read_text()))
        assert checked == [written]
        assert verify_chain_condition(written).ok

    def test_construct_balanced_with_actions(self, workdir):
        group = cyclic_group(4)
        (workdir / "g.json").write_text(json.dumps(group_to_json(group)))
        graph, action = star_graph(4, 2)
        (workdir / "star.json").write_text(json.dumps(graph_to_json(graph)))
        acts = {
            "left_v0": [list(r) for r in action.v0.table],
            "left_v1": [list(r) for r in action.v1.table],
            "right_v0": [list(r) for r in action.v0.table],
            "right_v1": [list(r) for r in action.v1.table],
        }
        (workdir / "acts.json").write_text(json.dumps(acts))
        rc = run_cli("construct", "--left", workdir / "star.json",
                     "--right", workdir / "star.json",
                     "--group", workdir / "g.json", "--actions", workdir / "acts.json",
                     "--out", workdir / "bp.json")
        assert rc == 0
        payload = json.loads((workdir / "bp.json").read_text())
        assert payload["v00"] == 4

    def test_construct_refuses_actions_given_as_a_list(self, workdir, capsys):
        (workdir / "g.json").write_text(json.dumps(group_to_json(cyclic_group(4))))
        graph, action = star_graph(4, 2)
        (workdir / "star.json").write_text(json.dumps(graph_to_json(graph)))
        (workdir / "acts.json").write_text(json.dumps([[list(r) for r in action.v0.table]]))
        rc = run_cli("construct", "--left", workdir / "star.json",
                     "--right", workdir / "star.json",
                     "--group", workdir / "g.json", "--actions", workdir / "acts.json",
                     "--out", workdir / "bp.json")
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: actions JSON must be an object") and "list" in err
        assert not (workdir / "bp.json").exists()

    def test_certify_writes_certificate(self, workdir):
        rc = run_cli("certify", "--graph", workdir / "cyc.json", "--side", "0to1",
                     "--c", "2/3", "--epsilon", "0", "--mode", "exhaustive",
                     "--out", workdir / "cert.json")
        assert rc == 0
        payload = json.loads((workdir / "cert.json").read_text())
        assert payload["result"]["verdict"] == "pass"
        assert payload["result"]["provenance"]["tool_version"] == jsonio.TOOL_VERSION

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_certify_refuses_sampled_without_trials(self, workdir, capsys, trials):
        # Every size of the 3-cycle at epsilon = 1/2 is proven by counting, so
        # only the refusal keeps this from reporting a pass with no draws.
        rc = run_cli("certify", "--graph", workdir / "cyc.json", "--c", "1",
                     "--epsilon", "1/2", "--mode", "sampled", "--trials", trials,
                     "--out", workdir / "cert.json")
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: sampled mode needs trials >= 1, got {trials}\n"
        assert not (workdir / "cert.json").exists()

    def test_code_exports_alist_pair(self, workdir):
        run_cli("construct", "--left", workdir / "cyc.json",
                "--right", workdir / "cyc.json", "--out", workdir / "cpx.json")
        rc = run_cli("code", "--complex", workdir / "cpx.json",
                     "--out-prefix", workdir / "toric")
        assert rc == 0
        hx = from_alist((workdir / "toric.hx.alist").read_text())
        hz = from_alist((workdir / "toric.hz.alist").read_text())
        assert not any(mat_mul(hx, transpose(hz)).row_masks)
        manifest = json.loads((workdir / "toric.json").read_text())
        assert manifest["n"] == 18 and manifest["k"] == 2

    def test_code_alist_to_stdout(self, workdir, capsys):
        run_cli("construct", "--left", workdir / "cyc.json",
                "--right", workdir / "cyc.json", "--out", workdir / "cpx.json")
        capsys.readouterr()
        rc = run_cli("code", "--complex", workdir / "cpx.json", "--format", "alist")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("18 9\n")

    def test_distance_oracle(self, workdir, capsys):
        run_cli("construct", "--left", workdir / "cyc.json",
                "--right", workdir / "cyc.json", "--out", workdir / "cpx.json")
        capsys.readouterr()
        rc = run_cli("distance", "--complex", workdir / "cpx.json", "--which", "both")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["d"] == 3

    def test_decode_rejects_epsilon_one_twelfth(self, workdir, capsys):
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [1]}))
        rc = run_cli("decode", "--complex", workdir / "match.json",
                     "--syndrome", workdir / "syn.json", "--epsilon", "1/12",
                     "--trace", workdir / "trace.jsonl", "--out", workdir / "dec.json")
        captured = capsys.readouterr()
        assert rc == 1
        assert "below 1/12" in captured.err
        assert captured.out == ""
        assert not (workdir / "trace.jsonl").exists()
        assert not (workdir / "dec.json").exists()

    def test_decode_single_syndrome(self, workdir, capsys):
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [1]}))
        rc = run_cli("decode", "--complex", workdir / "match.json",
                     "--syndrome", workdir / "syn.json", "--epsilon", "0",
                     "--trace", workdir / "trace.jsonl")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["outcome"] == "success"
        lines = (workdir / "trace.jsonl").read_text().splitlines()
        assert len(lines) == payload["result"]["iterations"]
        assert all("x00" in json.loads(ln) for ln in lines)

    def test_decode_trace_lines_are_pinned(self, workdir):
        # The `--trace` format: one sorted JSON object per applied flip.
        path = decode_complex_file(workdir, "z8")
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [0, 1, 2, 5]}))
        assert run_cli("decode", "--complex", path, "--syndrome", workdir / "syn.json",
                       "--epsilon", "1/30", "--trace", workdir / "trace.jsonl",
                       "--out", workdir / "dec.json") == 0
        assert json.loads((workdir / "dec.json").read_text())["result"]["iterations"] == 2
        assert (workdir / "trace.jsonl").read_text().splitlines() == [
            '{"cleared": 2, "created": 0, "iteration": 1, "n01": 0, "n10": 1, '
            '"syndrome_after": 2, "x00": 0}',
            '{"cleared": 2, "created": 0, "iteration": 2, "n01": 1, "n10": 0, '
            '"syndrome_after": 0, "x00": 3}',
        ]

    def test_simulate_sweep_success(self, workdir):
        rc = run_cli("simulate", "--complex", workdir / "match.json",
                     "--error-weight", "1", "--sweep", "--epsilon", "0",
                     "--seed", "7", "--out", workdir / "sim.json")
        assert rc == 0
        payload = json.loads((workdir / "sim.json").read_text())
        agg = payload["result"]["aggregates"]
        assert agg["success_rate"]["num"] == 1 and agg["success_rate"]["den"] == 1

    def test_simulate_refuses_a_sweep_over_the_budget(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(harness, "decode", no_decode)
        rc = run_cli("simulate", "--complex", decode_complex_file(workdir, "star12"),
                     "--error-weight", "5", "--sweep", "--epsilon", "0",
                     "--out", workdir / "sim.json")
        assert rc == 1
        assert capsys.readouterr().err == ("error: a weight-5 sweep decodes C(60, 5) = 5461512 "
                                           "supports, over the budget of 1048576\n")
        assert not (workdir / "sim.json").exists()

    def test_simulate_determinism_bytes(self, workdir):
        outputs = set()
        for rep in range(3):
            out = workdir / f"sim{rep}.json"
            rc = run_cli("simulate", "--complex", workdir / "match.json",
                         "--error-weight", "2", "--trials", "25", "--epsilon", "0",
                         "--seed", "99", "--out", out)
            assert rc == 0
            outputs.add(strip_timing(out.read_text()))
        assert len(outputs) == 1

    def test_diagnose(self, workdir, capsys):
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": [0]}))
        rc = run_cli("diagnose", "--complex", workdir / "match.json",
                     "--error", workdir / "err.json", "--epsilon", "0")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["counting_bound_ok"] is True

    def test_diagnose_refuses_an_epsilon_that_cannot_partition(self, workdir, capsys):
        # At epsilon = 0 the V00-V10 partition of qubit 1 needs a flow of 2
        # and gets 1: the user's epsilon is refused, not a broken invariant.
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        (workdir / "z8.json").write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": [1]}))
        rc = run_cli("diagnose", "--complex", workdir / "z8.json", "--error",
                     workdir / "err.json", "--epsilon", "0", "--out", workdir / "out.json")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            "error: the given epsilon cannot partition the error: ownership flow is 1 < 2; "
            "the expansion hypothesis asserted by the caller fails on this subset\n")
        assert not (workdir / "out.json").exists()

    def test_diagnose_builds_no_code(self, workdir, capsys, monkeypatch):
        # The report reads the complex alone: with extraction refused, the
        # bytes are the same, and so is the length refusal.
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        (workdir / "z8.json").write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": [1, 9, 12]}))
        (workdir / "short.json").write_text(json.dumps({"length": 15, "support": [1]}))
        argv = ("diagnose", "--complex", workdir / "z8.json", "--error", workdir / "err.json",
                "--epsilon", "1/2")
        assert run_cli(*argv) == 0
        want = capsys.readouterr().out

        def refused(cpx):
            raise AssertionError("diagnose extracted a code")

        monkeypatch.setattr(css, "extract_code", refused)
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == want
        assert json.loads(want)["result"]["counting_bound_ok"] is True
        assert run_cli("diagnose", "--complex", workdir / "z8.json", "--error",
                       workdir / "short.json", "--epsilon", "1/2") == 1
        assert capsys.readouterr().err == "error: error length 15 != n = 16\n"

    @pytest.mark.parametrize("side", ["z", "x"])
    @pytest.mark.parametrize("family", ["z8", "star12", "incstar13"])
    def test_decode_writes_what_the_code_decodes(self, workdir, capsys, family, side):
        # `qbp decode` hands the loaded complex to the decoder; its result
        # and trace bytes are those of decoding the complex's code.
        path = decode_complex_file(workdir, family)
        code = css.extract_code(complex_from_json(json.loads(path.read_text())))
        matrix, length = (code.hx, code.m_x) if side == "z" else (code.hz, code.m_z)
        call = decoder.decode if side == "z" else decoder.decode_x
        rng = random.Random(20)
        for support in ([rng.randrange(code.n)], rng.sample(range(code.n), 2)):
            syn = gf2.mat_vec(matrix, F2Vector.from_support(code.n, support))
            assert syn.length == length
            (workdir / "syn.json").write_text(json.dumps(
                {"length": syn.length, "support": sorted(syn.support)}))
            for epsilon in ("0", "1/30", "1/13"):
                rc = run_cli("decode", "--complex", path, "--syndrome", workdir / "syn.json",
                             "--epsilon", epsilon, "--side", side, "--cap", 64,
                             "--trace", workdir / "trace.jsonl", "--out", workdir / "dec.json")
                assert rc == 0, capsys.readouterr().err
                want = call(code, syn, decoder.DecoderConfig(parse_rational(epsilon),
                                                             iteration_cap=64))
                got = json.loads((workdir / "dec.json").read_text())["result"]
                del got["provenance"]
                assert got == want.to_json(), (support, epsilon)
                assert (workdir / "trace.jsonl").read_text() == "".join(
                    json.dumps(step.to_json(), sort_keys=True) + "\n" for step in want.trace)

    @pytest.mark.parametrize("side, length, checks", [("z", 8, "V11"), ("x", 8, "V00")])
    def test_decode_builds_no_code(self, workdir, capsys, monkeypatch, side, length, checks):
        # The decoder reads the complex alone: with extraction refused, the
        # decode still succeeds, and the loaded complex holds no boundary map.
        path = decode_complex_file(workdir, "z8")
        capsys.readouterr()
        (workdir / "syn.json").write_text(json.dumps({"length": length, "support": [2, 3]}))
        (workdir / "short.json").write_text(json.dumps({"length": length - 1, "support": [2]}))
        loaded = []

        def load(obj):
            loaded.append(complex_from_json(obj))
            return loaded[-1]

        def refused(cpx):
            raise AssertionError("decode extracted a code")

        monkeypatch.setattr(product, "complex_from_json", load)
        monkeypatch.setattr(css, "extract_code", refused)
        assert run_cli("decode", "--complex", path, "--syndrome", workdir / "syn.json",
                       "--epsilon", "1/30", "--side", side) == 0
        assert json.loads(capsys.readouterr().out)["result"]["outcome"] == "success"
        (cpx,) = loaded
        assert "boundary_1" not in vars(cpx)
        assert set(cpx.decoder_indexes) == {side}
        assert run_cli("decode", "--complex", path, "--syndrome", workdir / "short.json",
                       "--epsilon", "1/30", "--side", side) == 1
        assert capsys.readouterr().err == (
            f"error: syndrome length {length - 1} != |{checks}| = {length}\n")

    def test_decode_refuses_a_repeated_support_index(self, workdir, capsys):
        # Read over GF(2), [2, 2, 3] would be {3}; merging it to {2, 3}
        # would decode a different syndrome, so the file is refused.
        cpx = left_right_cayley(cyclic_group(8), [1, 2], [1, 4])
        (workdir / "z8.json").write_text(jsonio.canonical_dumps(complex_to_json(cpx)))
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [2, 2, 3]}))
        rc = run_cli("decode", "--complex", workdir / "z8.json", "--syndrome",
                     workdir / "syn.json", "--epsilon", "1/30", "--side", "x",
                     "--out", workdir / "dec.json")
        assert rc == 1
        assert capsys.readouterr().err == "error: vector support repeats index 2\n"
        assert not (workdir / "dec.json").exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--graph", "cyc.json", "--c", "1/0", "--epsilon", "1/2"],
        ["certify", "--graph", "cyc.json", "--c", "1/2", "--epsilon", "1/0"],
        ["decode", "--complex", "match.json", "--syndrome", "syn.json", "--epsilon", "1/0"],
        ["simulate", "--complex", "match.json", "--error-weight", "1", "--trials", "1",
         "--epsilon", "1/0"],
        ["simulate", "--complex", "match.json", "--iid-p", "1/0", "--trials", "1",
         "--epsilon", "0"],
        ["diagnose", "--complex", "match.json", "--error", "err.json", "--epsilon", "1/0"],
    ], ids=["certify-c", "certify-epsilon", "decode-epsilon", "simulate-epsilon",
            "simulate-iid-p", "diagnose-epsilon"])
    def test_zero_denominator_is_one_error_line(self, workdir, capsys, argv):
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [1]}))
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": [0]}))
        rc = run_cli(*(workdir / a if a.endswith(".json") else a for a in argv),
                     "--out", workdir / "out.json")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: rational '1/0' has a zero denominator\n"
        assert captured.out == ""
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep"]], ids=["sampled", "sweep"])
    def test_simulate_refuses_a_negative_weight(self, workdir, capsys, sweep):
        rc = run_cli("simulate", "--complex", workdir / "match.json", "--error-weight", "-1",
                     "--trials", "1", "--epsilon", "0", *sweep, "--out", workdir / "sim.json")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: error weight must be nonnegative, got -1\n"
        assert not (workdir / "sim.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--graph", "cyc.json", "--c", "V", "--epsilon", "1/2"],
         "need 0 < c <= 1, got V"),
        (["certify", "--graph", "cyc.json", "--c", "1/2", "--epsilon", "V"],
         "need epsilon >= 0, got V"),
        (["decode", "--complex", "match.json", "--syndrome", "syn.json", "--epsilon", "V"],
         "epsilon must be nonnegative, got V"),
        (["simulate", "--complex", "match.json", "--error-weight", "1", "--trials", "1",
          "--epsilon", "V"], "epsilon must be nonnegative, got V"),
        (["simulate", "--complex", "match.json", "--iid-p", "V", "--trials", "1",
          "--epsilon", "0"], "flip probability V outside [0, 1]"),
        (["diagnose", "--complex", "match.json", "--error", "err.json", "--epsilon", "V"],
         "need epsilon >= 0, got V"),
        (["diagnose", "--complex", "match.json", "--error", "err.json", "--epsilon", "0",
          "--epsilon-x", "V"], "need epsilon >= 0, got V"),
        (["diagnose", "--complex", "match.json", "--error", "err.json", "--epsilon", "0",
          "--epsilon-y", "V"], "need epsilon >= 0, got V"),
    ], ids=["certify-c", "certify-epsilon", "decode-epsilon", "simulate-epsilon",
            "simulate-iid-p", "diagnose-epsilon", "diagnose-epsilon-x", "diagnose-epsilon-y"])
    def test_a_negative_fraction_reaches_the_range_check(self, workdir, capsys, argv, message):
        # argparse would read -1/30 as an option; every rational flag takes it
        # as a value, refused by the same check, in the same words, as -1.
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [1]}))
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": []}))
        for value in ("-1", "-1/30", "-3/2"):
            rc = run_cli(*(workdir / a if a.endswith(".json") else a.replace("V", value)
                           for a in argv), "--out", workdir / "out.json")
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.err == f"error: {message.replace('V', value)}\n"
            assert captured.out == ""
            assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ["certify", "--graph", "cyc.json", "--c", "1", "--epsilon", "1/2"],
        ["certify", "--graph", "cyc.json", "--c", "1", "--epsilon", "1/2", "--mode", "sampled"],
        ["distance", "--complex", "match.json"],
        ["distance", "--complex", "match.json", "--which", "x"],
    ], ids=["certify-exhaustive", "certify-sampled", "distance-both", "distance-x"])
    def test_a_negative_budget_is_refused_up_front(self, workdir, capsys, argv):
        rc = run_cli(*(workdir / a if a.endswith(".json") else a for a in argv),
                     "--budget", "-1", "--out", workdir / "out.json")
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: need budget >= 0, got -1\n"
        assert not (workdir / "out.json").exists()

    def test_unknown_command_exit1(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag_exit1(self, workdir, capsys):
        assert run_cli("certify", "--graph", workdir / "cyc.json", "--bogus") == 1

    @pytest.mark.parametrize("argv", [
        ["code"],
        ["distance"],
        ["decode", "--syndrome", "syn.json", "--epsilon", "1/30"],
        ["simulate", "--error-weight", "1", "--trials", "1", "--epsilon", "1/30"],
        ["diagnose", "--error", "err.json", "--epsilon", "1/30"],
    ])
    def test_complex_has_no_code_alias(self, workdir, capsys, argv):
        # The complex is read only through --complex: --code is refused as
        # a usage error that names the missing option.
        (workdir / "syn.json").write_text(json.dumps({"length": 8, "support": [0]}))
        (workdir / "err.json").write_text(json.dumps({"length": 16, "support": [0]}))
        rc = run_cli(*(workdir / a if a.endswith(".json") else a for a in argv),
                     "--code", workdir / "match.json")
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: the following arguments are required: --complex\nusage: qbp ")

    def test_missing_file_exit2(self, tmp_path):
        rc = run_cli("distance", "--complex", tmp_path / "nope.json")
        assert rc == 2

    def test_validation_error_exit1(self, workdir):
        (workdir / "bad.json").write_text(json.dumps({"v0": 1, "v1": 1, "edges": [[0, 5]]}))
        rc = run_cli("certify", "--graph", workdir / "bad.json",
                     "--c", "1/2", "--epsilon", "0")
        assert rc == 1

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "qbp.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspex.cli import main
from qspex.family import build_s
from qspex.graphs import Graph, canonical_graph, components, from_graph6, to_graph6

from helpers import graphs, ref_q_matrix

C5 = "Dhc"
P4 = "Ch"
K2 = "A_"
S201 = to_graph6(canonical_graph(build_s(2, 0, 1)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQ:
    def test_single_graph(self, capsys):
        code, out, err = run(capsys, "q", K2)
        assert code == 0 and err == ""
        q, x, residual = out.strip().split("\t")
        assert float(q) == pytest.approx(2.0, abs=1e-9)
        assert [float(v) for v in x.split(",")] == pytest.approx([2 ** -0.5] * 2)
        assert float(residual) <= 1e-10

    def test_batch_prefixes_graph6(self, capsys):
        code, out, _ = run(capsys, "q", K2, "Bw")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 2
        assert lines[0].split("\t")[0] == K2
        assert lines[1].split("\t")[0] == "Bw"
        assert float(lines[1].split("\t")[1]) == pytest.approx(4.0, abs=1e-9)

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{K2}\n{P4}\n"))
        code, out, _ = run(capsys, "q", "-")
        lines = out.strip().split("\n")
        assert code == 0 and len(lines) == 2
        assert lines[1].startswith(P4 + "\t")

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "q", S201)
        assert out.split("\t")[0] == "5.32340427609"

    def test_tolerance_flag_bounds(self, capsys):
        code, _, err = run(capsys, "q", K2, "--tolerance", "1e-3")
        assert code == 2 and "tolerance" in err
        code, _, _ = run(capsys, "q", K2, "--tolerance", "1e-8")
        assert code == 0

    def test_tolerance_below_float_noise_is_usage_error(self, capsys):
        # float64 residuals of dense 50-vertex graphs reach 1e-14..2e-14
        code, out, err = run(capsys, "q", K2, "--tolerance", "1e-14")
        assert code == 2 and out == "" and "[1e-13, 1e-6]" in err
        assert run(capsys, "q", K2, "--tolerance", "1e-13")[0] == 0

    def test_small_spectral_gap(self, capsys):
        # two K6 joined by an 8-vertex path with a pendant on its second
        # vertex: the top gap is 6.9e-5, where power iteration gave up
        g6 = "T~~w?CB?wF_^@???_?G?@??C??G??GC?C?@?"
        code, out, err = run(capsys, "q", g6)
        assert code == 0 and err == ""
        q, x, residual = out.strip().split("\t")
        q = float(q)
        x = np.array([float(v) for v in x.split(",")])
        assert float(residual) <= 1e-10
        g = from_graph6(g6)
        q_mat = ref_q_matrix(g)
        # a positive eigenvector of a connected graph belongs to the top
        # eigenvalue; the Rayleigh quotient of the printed vector pins q
        assert len(components(g)) == 1 and x.min() > 0.0
        assert float(x @ q_mat @ x / (x @ x)) == pytest.approx(q, abs=1e-9)
        assert np.abs(q_mat @ x - q * x).max() <= 1e-9
        # K6 (q = 10) is a proper subgraph, and q <= 2 * max degree
        assert 10.0 < q <= 2 * max(g.degree(v) for v in range(g.n))

    def test_noise_floor_tolerance_answers_fast(self, capsys):
        rng = random.Random(50)
        for _ in range(4):
            g = Graph.from_edges(
                50, [(u, v) for u in range(50) for v in range(u + 1, 50) if rng.random() < 0.8]
            )
            t0 = time.perf_counter()
            code, out, err = run(capsys, "q", to_graph6(g), "--tolerance", "1e-13")
            # spinning power iteration took about 11 s on such graphs
            assert time.perf_counter() - t0 < 5.0
            # the lowest tolerance accepted certifies on every dense graph
            assert code == 0 and err == ""
            assert float(out.strip().split("\t")[-1]) <= 1e-13

    def test_malformed_graph6(self, capsys):
        code, _, err = run(capsys, "q", "A_XYZ")
        assert code == 1 and "trailing garbage" in err


class TestBeta:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "beta", C5)
        assert code == 0 and out.strip() == "2"

    def test_batch(self, capsys):
        code, out, _ = run(capsys, "beta", C5, P4, K2)
        rows = [line.split("\t") for line in out.strip().split("\n")]
        assert code == 0
        assert rows == [[C5, "2"], [P4, "2"], [K2, "1"]]


class TestExtremal:
    def test_beta2(self, capsys):
        code, out, _ = run(capsys, "extremal", "--m", "5", "--beta", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "params a=2 b=0 c=1 d=0"
        assert lines[1] == f"graph6 {S201}"
        assert lines[2].startswith("q 5.32340427609")

    def test_beta1_m3_lists_both(self, capsys):
        code, out, _ = run(capsys, "extremal", "--m", "3", "--beta", "1")
        lines = out.strip().split("\n")
        assert code == 0
        assert sum(line.startswith("graph6 ") for line in lines) == 2
        assert lines[-1] == "q 4"

    def test_infeasible_is_domain_error(self, capsys):
        code, _, err = run(capsys, "extremal", "--m", "2", "--beta", "3")
        assert code == 1 and "no graph" in err

    @pytest.mark.parametrize("m, beta, order", [(62, 1, 63), (65, 2, 65)])
    def test_past_62_vertices_is_refused_up_front(self, capsys, m, beta, order):
        # the order of the prediction, not a vertex count raised by Graph
        code, out, err = run(capsys, "extremal", "--m", str(m), "--beta", str(beta))
        assert code == 1 and out == ""
        assert err == (f"error: the predicted maximizers for m = {m}, beta = {beta} have"
                       f" {order} vertices, more than the 62 supported\n")

    def test_62_vertices_still_answer(self, capsys):
        code, out, _ = run(capsys, "extremal", "--m", "61", "--beta", "1")
        assert code == 0 and out.endswith("\nq 62\n")

    def test_twin_heavy_class_is_fast(self, capsys):
        # S(10,0,6): ten pendant twins and six twin triangle pairs; the
        # labeling took about 54 s without twin pruning
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "extremal", "--m", "28", "--beta", "7")
        assert time.perf_counter() - t0 < 5.0
        lines = out.strip().split("\n")
        assert code == 0 and lines[0] == "params a=10 b=0 c=6 d=0"
        assert lines[1] == "graph6 " + to_graph6(canonical_graph(build_s(10, 0, 6)))

    def test_pendant_triangles_are_fast(self, capsys):
        # S(7,0,11): eleven pendant triangles at one vertex; the labeling
        # search never finished before it pruned by orbits
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "extremal", "--m", "40", "--beta", "12")
        assert time.perf_counter() - t0 < 5.0
        assert code == 0 and out.startswith("params a=7 b=0 c=11 d=0\n")


class TestEnumerate:
    def test_exact_class(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "3", "--beta", "1")
        assert code == 0
        forms = out.strip().split("\n")
        assert forms == sorted(forms)
        assert set(forms) == {"Bw", "CF"}  # triangle, 3-star

    def test_at_least_mode_is_superset(self, capsys):
        _, exact, _ = run(capsys, "enumerate", "--m", "4", "--beta", "2")
        _, atleast, _ = run(capsys, "enumerate", "--m", "4", "--beta", "2", "--at-least")
        assert set(exact.split()) <= set(atleast.split())

    def test_guard_flag_and_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "11", "--beta", "2")
        assert code == 1 and "guard" in err
        code, _, err = run(capsys, "enumerate", "--m", "11", "--beta", "2", "--guard", "11")
        assert code == 0
        code, _, err = run(capsys, "enumerate", "--m", "11", "--beta", "2", "--guard", "13")
        assert code == 2 and "guard" in err

    def test_guard_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QSPEX_GUARD", "4")
        code, _, err = run(capsys, "enumerate", "--m", "5", "--beta", "2")
        assert code == 1 and "guard" in err
        monkeypatch.setenv("QSPEX_GUARD", "not-a-number")
        code, _, err = run(capsys, "enumerate", "--m", "5", "--beta", "2")
        assert code == 2 and "QSPEX_GUARD" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QSPEX_GUARD", "4")
        code, out, _ = run(capsys, "enumerate", "--m", "5", "--beta", "2", "--guard", "5")
        assert code == 0 and out

    @pytest.mark.parametrize("env", ["abc", "99"])
    def test_only_guarded_commands_read_the_env(self, capsys, monkeypatch, env):
        monkeypatch.setenv("QSPEX_GUARD", env)
        code, out, err = run(capsys, "q", C5)
        assert code == 0 and out.startswith("4\t") and err == ""
        code, out, err = run(capsys, "beta", C5)
        assert (code, out, err) == (0, "2\n", "")
        code, _, err = run(capsys, "enumerate", "--m", "3", "--beta", "1")
        assert code == 2 and "guard" in err.lower()


class TestVerify:
    def test_pass_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "5", "--beta", "2")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["argmax"] == [S201]

    def test_beta1_route(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3", "--beta", "1")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass" and len(data["argmax"]) == 2
        assert data["lemma3_ok"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "4", "--beta", "2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("query,m,beta,classes,qmax,verdict")

    def test_infeasible_exits_nonzero(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--beta", "3")
        assert code == 1
        assert json.loads(out)["verdict"] == "infeasible"

    def test_timings_flag(self, capsys):
        _, out, _ = run(capsys, "verify", "--m", "4", "--beta", "2", "--timings")
        assert "timings" in json.loads(out)

    def test_csv_timings_flag(self, capsys):
        _, out, _ = run(capsys, "verify", "--m", "4", "--beta", "2", "--format", "csv",
                        "--timings")
        header, row = out.strip().split("\n")
        assert header.endswith(",lemma3_ok,total_s") and float(row.split(",")[-1]) > 0

    def test_all_k2_class_past_the_matching_guard(self, capsys):
        # the only maximizer of (11, 11) is 11*K2, 22 vertices; choosing its
        # extremal matching used to exceed the enumeration guard of 20
        code, out, err = run(capsys, "verify", "--m", "11", "--beta", "11", "--guard", "11")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["verdict"] == "pass" and data["classes"] == 1
        assert data["lemma2_ok"] is True and data["lemma3_ok"] is True

    def test_workers_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "verify", "--m", "5", "--beta", "2", "--workers", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --workers 2" in err


class TestClimb:
    def test_c5_trace(self, capsys):
        code, out, _ = run(
            capsys, "climb", "--start", C5, "--m", "5", "--beta", "2", "--at-least"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "converged true"
        assert lines[-2] == "steps 2"
        end = [line for line in lines if line.startswith("end ")][0]
        assert from_graph6(end.split()[1]).m == 5
        steps = [line for line in lines if line.startswith("step=")]
        assert len(steps) == 2
        assert all("q_before=" in s and "q_after=" in s for s in steps)

    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "climb", "--start", S201, "--m", "5", "--beta", "2")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[-2] == "steps 0" and lines[-1] == "converged true"

    @pytest.mark.parametrize("n, klass", [
        (13, ["--beta", "6"]), (13, ["--beta", "2", "--at-least"]),
        (12, ["--beta", "1", "--at-least"]),
    ], ids=["K13-beta6", "K13-beta2-at-least", "K12-beta1-at-least"])
    def test_prediction_larger_than_any_graph(self, capsys, n, klass):
        # K13 and K12: the predictions for their 78 and 66 edges have 74, 78
        # and 67 vertices, more than graph6 allows and than the end graph has
        kn = to_graph6(Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)]))
        code, out, err = run(capsys, "climb", "--start", kn, "--m", str(n * (n - 1) // 2), *klass)
        assert code == 0 and err == ""
        assert out.strip().split("\n")[-1] == "converged false"

    def test_start_outside_class(self, capsys):
        code, _, err = run(capsys, "climb", "--start", C5, "--m", "5", "--beta", "3")
        assert code == 1 and "class" in err

    def test_negative_max_steps_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "climb", "--start", K2, "--m", "1", "--beta", "1", "--max-steps", "-3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--max-steps" in err and "Traceback" not in err


class TestRewireCommands:
    def test_rotate(self, capsys):
        code, out, _ = run(capsys, "rotate", P4, "--remove", "2,3", "--add", "1,3")
        assert code == 0
        kv = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert float(kv["delta"]) > 0
        assert from_graph6(kv["graph6"]).m == 3

    def test_rotate_rejection(self, capsys):
        # dropping the heavy middle edge for a lighter one fails the sum test
        code, _, err = run(capsys, "rotate", P4, "--remove", "1,2", "--add", "0,2")
        assert code == 1 and "sum condition" in err

    def test_rotate_tie_is_legal(self, capsys):
        # P4's eigenvector is symmetric: 0,1 -> 0,2 moves between equal sums,
        # which the precondition admits (and here it builds the 3-star)
        code, out, _ = run(capsys, "rotate", P4, "--remove", "0,1", "--add", "0,2")
        assert code == 0
        kv = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert float(kv["delta"]) >= -1e-10
        assert float(kv["q_after"]) == pytest.approx(4.0, abs=1e-9)

    def test_swap(self, capsys):
        g6 = to_graph6(build_s(1, 2, 0))
        code, out, _ = run(capsys, "swap", g6, "--first", "3,2", "--second", "5,4")
        assert code == 0
        kv = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert kv["condition_held"] == "true"
        assert float(kv["delta"]) >= float(kv["predicted"]) - 1e-8

    def test_collapse(self, capsys):
        code, out, _ = run(capsys, "collapse", "Eb@W", "--center", "1", "--edges", "3,5")
        assert code == 0
        kv = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert from_graph6(kv["graph6"]).m == 6

    def test_collapse_past_62_vertices_is_refused_up_front(self, capsys):
        p62 = to_graph6(Graph.from_edges(62, [(i, i + 1) for i in range(61)]))
        code, out, err = run(capsys, "collapse", p62, "--center", "0", "--edges", "5,6")
        assert code == 1 and out == ""
        assert err == ("error: collapsing 1 edge(s) of a graph on 62 vertices needs 63"
                       " vertices, more than the 62 supported\n")

    def test_malformed_pair(self, capsys):
        code, _, err = run(capsys, "rotate", P4, "--remove", "2;3", "--add", "1,3")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("swap", P4, "--first", "99,0", "--second", "1,2"),
            ("rotate", P4, "--remove=-4,-3", "--add", "1,2"),
        ],
    )
    def test_out_of_range_edge_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "edge not in graph" in err and "Traceback" not in err


@st.composite
def cli_argvs(draw, command):
    """An argv for one subcommand: small graph6 input (valid or not) and
    arbitrary integers, negative ones included, where the command takes
    vertices or sizes.  Vertex pairs are often edges of the graph, so the
    rewiring commands also get past their edge checks.  --output is added by
    the caller."""
    g = draw(graphs(min_n=1, max_n=7))
    g6 = draw(
        st.one_of(
            st.just(to_graph6(g)),
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=6)
            .filter(lambda t: t != "-"),  # "-" means read stdin
        )
    )
    vertex = st.one_of(st.integers(0, 6), st.integers(-70, 70))
    pair = st.one_of(
        st.sampled_from(g.edges()) if g.m else st.nothing(), st.tuples(vertex, vertex)
    ).map("{0[0]},{0[1]}".format)
    m = str(draw(st.one_of(st.just(g.m), st.integers(-2, 7))))
    beta = str(draw(st.integers(-1, 4)))
    guard = str(draw(st.integers(-1, 7)))
    if command in ("q", "beta"):
        return [command, g6]
    if command == "extremal":
        return [command, f"--m={m}", f"--beta={beta}"]
    if command in ("enumerate", "verify"):
        return [command, f"--m={m}", f"--beta={beta}", f"--guard={guard}"]
    if command == "climb":
        mode = ["--at-least"] if draw(st.booleans()) else []
        return [command, "--start", g6, f"--m={m}", f"--beta={beta}"] + mode
    if command == "rotate":
        return [command, g6, f"--remove={draw(pair)}", f"--add={draw(pair)}"]
    if command == "swap":
        return [command, g6, f"--first={draw(pair)}", f"--second={draw(pair)}"]
    return [command, g6, f"--center={draw(vertex)}", f"--edges={draw(pair)};{draw(pair)}"]


class TestRobustness:
    @pytest.mark.parametrize(
        "command",
        ["q", "beta", "extremal", "enumerate", "verify", "climb", "rotate", "swap", "collapse"],
    )
    @settings(max_examples=100)
    @given(data=st.data())
    def test_exit_code_never_a_traceback(self, command, data, tmp_path_factory):
        argv = data.draw(cli_argvs(command))
        # no --output, a writable file, a file in a missing directory, a directory
        where = data.draw(st.sampled_from(["stdout", "file", "missing", "directory"]))
        root = tmp_path_factory.getbasetemp() / "robustness"
        root.mkdir(exist_ok=True)
        output = {"file": root / "out.txt", "missing": root / "absent" / "out.txt",
                  "directory": root}.get(where)
        if output is not None:
            argv += ["--output", str(output)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if where in ("missing", "directory"):
            assert code != 0 and out.getvalue() == ""


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run(capsys, "beta", C5, "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == "2\n"

    @pytest.mark.parametrize("where", ["absent/out.txt", "."])
    def test_unwritable_output_is_domain_error(self, capsys, tmp_path, where):
        code, out, err = run(capsys, "beta", C5, "--output", str(tmp_path / where))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "extremal", "--m", "5")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_repeated_calls_match_fresh_processes(self, tmp_path, monkeypatch):
        # main reuses one parser; no call may leave state for the next
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        sequence = [
            ["beta", C5],
            ["extremal", "--m", "5"],
            ["q", K2],
            ["--help"],
            ["climb", "--start", C5, "--m", "5", "--beta", "2", "--at-least"],
            ["beta", C5, P4, "--output", "OUT"],
            ["climb", "--start", C5, "--m", "5", "--beta", "2", "--max-steps", "-1"],
            ["verify", "--m", "4", "--beta", "2", "--format", "csv"],
            ["beta", C5],
        ]
        for i, argv in enumerate(sequence):
            mine, fresh = tmp_path / f"in{i}.txt", tmp_path / f"fresh{i}.txt"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(mine) if a == "OUT" else a for a in argv])
            proc = subprocess.run(
                [sys.executable, "-m", "qspex.cli"]
                + [str(fresh) if a == "OUT" else a for a in argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, out.getvalue(), err.getvalue()) == (
                proc.returncode, proc.stdout, proc.stderr
            ), argv
            if "OUT" in argv:
                assert mine.read_text() == fresh.read_text() == "Dhc\t2\nCh\t2\n"


# (QSPEX_GUARD or None, argv, stdin); OUT is a writable --output path and
# MISSING one in an absent directory.  q succeeds only on edgeless graphs,
# whose residuals are exact zeros rather than float noise.
TRANSCRIPT = [
    (None, ["--help"], ""),
    (None, ["verify", "--help"], ""),
    (None, [], ""),
    (None, ["frobnicate"], ""),
    (None, ["extremal", "--m", "5"], ""),
    (None, ["extremal", "--m", "x", "--beta", "2"], ""),
    (None, ["verify", "--m", "5", "--beta", "2", "--format", "yaml"], ""),
    (None, ["verify", "--m", "5", "--beta", "2", "--workers", "2"], ""),
    (None, ["q", "A?", "@"], ""),
    (None, ["q", "@", "--tolerance", "1e-8"], ""),
    (None, ["q", "A?", "--tolerance", "1e-3"], ""),
    (None, ["q", "A?", "--tolerance", "1e-14"], ""),
    (None, ["q", "A_XYZ"], ""),
    (None, ["q", "-"], ""),
    (None, ["q", "-", "--tolerance", "1e-3"], ""),
    (None, ["q", "A?", "--tolerance", "1e-3", "--output", "MISSING"], ""),
    (None, ["beta", C5], ""),
    (None, ["beta", "-"], f"{C5}\n{P4}\n{K2}\n"),
    (None, ["beta", "~??"], ""),
    (None, ["extremal", "--m", "5", "--beta", "2"], ""),
    (None, ["extremal", "--m", "3", "--beta", "1"], ""),
    (None, ["extremal", "--m", "2", "--beta", "3"], ""),
    (None, ["enumerate", "--m", "4", "--beta", "2"], ""),
    (None, ["enumerate", "--m", "4", "--beta", "2", "--at-least", "--guard", "5"], ""),
    (None, ["enumerate", "--m", "11", "--beta", "2"], ""),
    (None, ["enumerate", "--m", "3", "--beta", "1", "--guard", "13"], ""),
    (None, ["enumerate", "--m", "0", "--beta", "1"], ""),
    (None, ["enumerate", "--m", "0", "--beta", "1", "--guard", "99"], ""),
    (None, ["verify", "--m", "5", "--beta", "2"], ""),
    (None, ["verify", "--m", "4", "--beta", "2", "--format", "csv"], ""),
    (None, ["verify", "--m", "2", "--beta", "3"], ""),
    (None, ["verify", "--m", "3", "--beta", "1", "--guard", "0"], ""),
    (None, ["verify", "--m", "0", "--beta", "1", "--guard", "99"], ""),
    (None, ["climb", "--start", C5, "--m", "5", "--beta", "2", "--at-least"], ""),
    (None, ["climb", "--start", C5, "--m", "5", "--beta", "3"], ""),
    (None, ["climb", "--start", C5, "--m", "5", "--beta", "2", "--max-steps", "-3"], ""),
    (None, ["rotate", P4, "--remove", "2,3", "--add", "1,3"], ""),
    (None, ["rotate", P4, "--remove", "0,2", "--add", "1,3"], ""),
    (None, ["rotate", P4, "--remove", "2;3", "--add", "1,3"], ""),
    (None, ["rotate", P4, "--remove", "a,b", "--add", "1,3"], ""),
    (None, ["swap", "Ep_G", "--first", "3,2", "--second", "5,4"], ""),
    (None, ["swap", P4, "--first", "99,0", "--second", "1,2"], ""),
    (None, ["collapse", "Eb@W", "--center", "1", "--edges", "3,5"], ""),
    (None, ["collapse", "Eb@W", "--center", "9", "--edges", "3,5"], ""),
    ("4", ["enumerate", "--m", "5", "--beta", "2"], ""),
    ("4", ["verify", "--m", "3", "--beta", "1"], ""),
    ("4", ["beta", C5], ""),
    ("abc", ["enumerate", "--m", "3", "--beta", "1"], ""),
    ("abc", ["verify", "--m", "3", "--beta", "1", "--guard", "5"], ""),
    ("abc", ["q", "@"], ""),
    ("abc", ["extremal", "--m", "5", "--beta", "2"], ""),
    ("99", ["verify", "--m", "3", "--beta", "1"], ""),
    (None, ["beta", C5, P4, "--output", "OUT"], ""),
    (None, ["verify", "--m", "2", "--beta", "3", "--output", "OUT"], ""),
    (None, ["beta", C5, "--output", "MISSING"], ""),
]


def test_transcript_is_pinned(monkeypatch, tmp_path):
    # argv, exit code, stdout, stderr and any --output file of each call,
    # temporary paths replaced by their placeholders: any change to a
    # message, an exit code or the order of the checks moves the hash
    monkeypatch.setenv("COLUMNS", "80")
    paths = {"OUT": str(tmp_path / "out.txt"), "MISSING": str(tmp_path / "absent" / "out.txt")}
    digest = hashlib.sha256()
    for guard, argv, stdin in TRANSCRIPT:
        if guard is None:
            monkeypatch.delenv("QSPEX_GUARD", raising=False)
        else:
            monkeypatch.setenv("QSPEX_GUARD", guard)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
        written = Path(paths["OUT"]).read_text() if "OUT" in argv else ""
        text = err.getvalue()
        for name, path in paths.items():
            text = text.replace(path, name)
        record = [guard, argv, code, out.getvalue(), text, written]
        digest.update(json.dumps(record).encode("ascii") + b"\n")
    assert digest.hexdigest() == (
        "ccc212992f8ec4835264a15bf5d905f4bc98ff3499f3851e0c1f3dcae32018cb"
    )

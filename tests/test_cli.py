import inspect
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from boolrel import cli
from boolrel.cli import (
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_USAGE,
    EXIT_YES,
    run,
)
from boolrel.formula import ReluNetwork
from oracles import random_formula


def invoke(*argv):
    code, text, _ = run(list(argv))
    return code, json.loads(text)


class TestDecide:
    def test_spec_example(self):
        code, report = invoke(
            "decide", "--formula", "(x1&x2)|!x3", "--x", "110", "--k", "1",
            "--delta", "1",
        )
        assert code == EXIT_YES
        assert report["result"]["verdict"] == "yes"
        assert report["result"]["witness"] == [3]

    def test_no_instance(self):
        code, report = invoke(
            "decide", "--formula", "x1 ^ x2 ^ x3", "--x", "111", "--k", "2",
            "--delta", "0.9",
        )
        assert code == EXIT_NO
        assert report["result"]["verdict"] == "no"

    def test_parameters_echoed(self):
        _, report = invoke(
            "decide", "--formula", "(x1&x2)|!x3", "--x", "110", "--k", "1",
            "--delta", "3/4",
        )
        params = report["parameters"]
        assert params["k"] == 1
        assert params["delta"] == "3/4"
        assert params["x"] == "110"
        assert "enum_cap" in params and "search_cap" in params


class TestEvalProbCheck:
    def test_eval(self):
        code, report = invoke("eval", "--formula", "(x1&x2)|!x3", "--x", "110")
        assert code == EXIT_YES
        assert report["result"]["value"] == 1

    def test_prob(self):
        code, report = invoke("prob", "--formula", "(x1&x2)|!x3")
        assert report["result"]["probability"]["dyadic"] == "5/2^3"
        assert report["result"]["probability"]["fraction"] == "5/8"

    def test_check(self):
        code, report = invoke(
            "check", "--formula", "(x1&x2)|!x3", "--x", "110", "--set", "1",
            "--delta", "3/4",
        )
        assert code == EXIT_YES
        assert report["result"]["probability"]["fraction"] == "3/4"
        code, _ = invoke(
            "check", "--formula", "(x1&x2)|!x3", "--x", "110", "--set", "1",
            "--delta", "4/5",
        )
        assert code == EXIT_NO


class TestUsageErrors:
    def test_length_mismatch_is_usage_error(self):
        code, report = invoke(
            "decide", "--formula", "(x1&x2)|!x3", "--x", "11", "--k", "1",
            "--delta", "1",
        )
        assert code == EXIT_USAGE
        assert report["error"]["kind"] == "usage"

    def test_missing_seed(self):
        code, report = invoke(
            "sample", "--formula", "x1", "--x", "1", "--set", "",
            "--delta", "0.9", "--gamma", "0.1",
        )
        assert code == EXIT_USAGE

    def test_bad_formula(self):
        code, report = invoke("prob", "--formula", "x1 &")
        assert code == EXIT_USAGE

    def test_two_input_sources(self):
        code, _ = invoke(
            "decide", "--formula", "x1", "--instance", "also.json", "--x", "1",
            "--k", "1", "--delta", "1",
        )
        assert code == EXIT_USAGE

    def test_non_ascii_digit_is_usage_error(self):
        # str.isdigit accepts '\u00b2', int() does not: this once exited 70.
        code, report = invoke("prob", "--formula", "x\u00b2")
        assert code == EXIT_USAGE
        assert report["exit_code"] == EXIT_USAGE

    def test_threads_flag_is_gone(self):
        code, _ = invoke("prob", "--formula", "x1", "--threads", "2")
        assert code == EXIT_USAGE
        code, report = invoke("prob", "--formula", "x1")
        assert code == EXIT_YES
        assert "threads" not in report["parameters"]

    def test_unknown_subcommand(self):
        code, _ = invoke("frobnicate")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "content,reason",
        [(b"[1, 2]", "JSON object"), (None, "Is a directory"), (b"\xff\xfe{", "UTF-8"),
         ("nul", "embedded null byte")],
        ids=["list", "directory", "not-utf8", "nul-byte"],
    )
    def test_non_object_instance_file(self, tmp_path, content, reason):
        # A directory, undecodable bytes and a NUL byte in the path once
        # exited 70.
        path = tmp_path / "instance.json"
        if content is None:
            path.mkdir()
        elif content == "nul":
            path = f"{path}\x00b"
            reason = f"{path}: {reason}"
        else:
            path.write_bytes(content)
        for argv in (
            ("check", "--instance", str(path)),
            ("reduce", "ip2-ri", "--instance", str(path)),
            ("verify", "--source", str(path), "--reduced", str(path)),
        ):
            code, report = invoke(*argv)
            assert code == EXIT_USAGE
            assert report["error"]["kind"] == "usage"
            assert reason in report["error"]["reason"]

    def test_shared_parser_after_usage_error(self):
        # A refused argv leaves nothing behind that changes the next report.
        argv = [
            "decide", "--formula", "(x1&x2)|!x3", "--x", "110", "--k", "1",
            "--delta", "1",
        ]
        fresh = run(argv)
        for refused in (["decide", "--formula", "x1", "--k", "one"],
                        [*argv, "--k"], [*argv, "--seed", "1"]):
            assert run(refused)[0] == EXIT_USAGE
            assert run(argv) == fresh


class TestCapRefusal:
    def test_enum_cap_exit_code(self):
        big = " & ".join(
            f"(x{i} | x{i + 1} | x{(i * 7) % 30 + 1})" for i in range(1, 29)
        )
        code, report = invoke("prob", "--formula", big, "--enum-cap", "12")
        assert code == EXIT_CAP
        assert report["error"]["kind"] == "cap"

    def test_search_cap_21_runs_subset_search(self):
        # d = 21 is above the coalition-table cap: the subset DFS answers.
        code, report = invoke(
            "decide", "--formula", "(x1 & x2) | x21", "--x", "0" * 20 + "1",
            "--k", "1", "--delta", "1", "--search-cap", "21",
        )
        assert code == EXIT_YES
        assert report["result"]["witness"] == [21]
        assert report["result"]["probability"]["fraction"] == "1"

    def test_search_cap_exit_code(self):
        formula = " | ".join(f"x{i}" for i in range(1, 25))
        code, report = invoke(
            "decide", "--formula", formula, "--x", "1" * 24, "--k", "2",
            "--delta", "1/2",
        )
        assert code == EXIT_CAP

    def test_sample_cap_exit_code(self):
        # gamma = 1e-9 would need about 2.2e18 draws.
        start = time.perf_counter()
        code, report = invoke(
            "sample", "--formula", "(x1&x2)|!x3", "--x", "110", "--set", "",
            "--delta", "3/4", "--gamma", "1e-9", "--seed", "1",
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CAP
        assert report["exit_code"] == EXIT_CAP
        assert report["error"]["kind"] == "cap"


DEEP_PARENTHESES = "(" * 500 + "x1" + ")" * 500
LONG_XOR_CHAIN = " ^ ".join(f"x{i}" for i in range(1, 1201))


def alternating_chain(n: int) -> tuple[str, Fraction]:
    """((x1 & x2) | x3) & x4 ... over x1..xn, and its probability."""
    text, p = "x1", Fraction(1, 2)
    for i in range(2, n + 1):
        op = "&|"[i % 2]
        text = f"({text} {op} x{i})"
        p = p / 2 if op == "&" else (p + 1) / 2
    return text, p


def run_script(script: str, *args: str) -> str:
    """stdout of `script` run in a fresh interpreter, which must not fail."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True
    )
    assert proc.stderr == ""
    return proc.stdout


class TestInternalErrors:
    def test_unexpected_exception_is_a_report(self, monkeypatch):
        def broken(config):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "prob", broken)
        code, report = invoke("prob", "--formula", "x1")
        assert code == EXIT_INTERNAL == 70
        assert report["exit_code"] == EXIT_INTERNAL
        assert report["error"]["kind"] == "internal"
        assert report["error"]["reason"] == "RuntimeError: boom"
        assert report["error"]["where"].startswith("test_cli.py:")

    @pytest.mark.parametrize("formula", [DEEP_PARENTHESES, LONG_XOR_CHAIN])
    def test_deep_formulas_get_a_report(self, formula):
        # Both once escaped as RecursionError tracebacks.
        code, report = invoke("prob", "--formula", formula)
        assert code == EXIT_YES
        assert report["exit_code"] == code
        assert report["result"]["probability"]["fraction"] == "1/2"

    def test_deep_formulas_need_no_recursion(self):
        script = (
            "import json, sys\n"
            "from boolrel.cli import run\n"
            "sys.setrecursionlimit(150)\n"
            "for formula in sys.argv[1:]:\n"
            "    code, text, _ = run(['prob', '--formula', formula])\n"
            "    print(code, json.loads(text)['result']['probability']['fraction'])\n"
        )
        # The alternating chain's decomposition nests once per operator.
        chain, p = alternating_chain(300)
        formulas = [DEEP_PARENTHESES, "(" * 10**4 + "x1" + ")" * 10**4, LONG_XOR_CHAIN]
        out = run_script(script, *formulas, chain)
        assert out.split("\n") == ["0 1/2"] * 3 + [f"0 {p}", ""]

    def test_long_conjunction_minimize_needs_no_recursion(self):
        # The subset search runs one prefix per size up to k = 200.
        script = (
            "import json, sys\n"
            "from boolrel.cli import run\n"
            "sys.setrecursionlimit(150)\n"
            "formula = ' & '.join(f'x{i}' for i in range(1, 201))\n"
            "code, text, _ = run(['minimize', '--formula', formula, '--x', '1' * 200,\n"
            "                     '--search-cap', '200', '--enum-cap', '200'])\n"
            "print(code, json.loads(text)['result']['k'])\n"
        )
        assert run_script(script) == "0 200\n"

    def test_long_xor_chain_memory_held(self):
        # What stays held is node facts.  Supports are int masks, a few
        # hundred KiB over 2400 variables (as sets they held about n^2/2
        # entries, some 130 MiB); occurrence counts cached on every node
        # would add about 27 MiB at 1200.
        script = (
            "import gc, sys, tracemalloc\n"
            "from boolrel.cli import run\n"
            "tracemalloc.start()\n"
            "code, _, _ = run(['prob', '--formula', sys.argv[1]])\n"
            "gc.collect()\n"
            "print(code, tracemalloc.get_traced_memory()[0])\n"
        )
        longer = " ^ ".join(f"x{i}" for i in range(1, 2401))
        for chain, bound in ((LONG_XOR_CHAIN, 45 << 20), (longer, 8 << 20)):
            code, held = run_script(script, chain).split()
            assert code == "0"
            assert int(held) < bound, int(held) / (1 << 20)

    def test_deep_formula_console_has_no_traceback(self):
        cmd = [sys.executable, "-m", "boolrel.cli", "prob", "--formula",
               DEEP_PARENTHESES]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.stderr == ""
        assert proc.returncode == json.loads(proc.stdout)["exit_code"]


class TestSampling:
    def test_sample_yes(self):
        code, report = invoke(
            "sample", "--formula", "1", "--x", "", "--set", "",
            "--delta", "0.9", "--gamma", "0.1", "--seed", "7",
        )
        assert code == EXIT_YES
        assert report["result"]["samples"] == 220
        assert report["result"]["estimate"] == 1.0

    def test_gapped_spec_example(self):
        code, report = invoke(
            "decide-gapped", "--formula", "(x1&x2)|!x3", "--x", "110",
            "--k", "1", "--delta", "0.95", "--gamma", "0.2", "--seed", "11",
        )
        assert code == EXIT_YES
        assert report["result"]["witness"] == [3]
        assert report["result"]["promise_dependent"] is True

    def test_greedy(self):
        code, report = invoke(
            "greedy", "--formula", "(x1&x2)|!x3", "--x", "110",
            "--delta", "0.95", "--gamma", "0.1", "--seed", "5",
        )
        assert code == EXIT_YES
        assert report["result"] == {"k": 1, "set": [3]}

    def test_determinism_byte_identical(self):
        argv = [
            "sample", "--formula", "(x1&x2)|!x3", "--x", "110", "--set", "1",
            "--delta", "3/4", "--gamma", "0.1", "--seed", "123",
        ]
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second


class TestGadgetCommands:
    def test_pi_spec_example(self):
        code, report = invoke("gadget", "pi", "--eta", "7/10", "--ell", "4")
        assert code == EXIT_YES
        g = report["result"]["gadget"]
        assert g["n"] == 6
        assert g["probability"]["fraction"] == "43/64"
        assert g["formula"] == "(x1 | (x2 & x3) | (x4 & x5 & x6))"
        assert [step["added_vars"] for step in g["trace"]] == [1, 2, 3]

    def test_raise(self):
        code, report = invoke(
            "gadget", "raise", "--d", "2", "--delta1", "1/2", "--delta2", "9/10"
        )
        assert report["result"]["attach"] == "or"
        assert report["result"]["interval"] == ["3/5", "4/5"]

    def test_lower_trivial(self):
        code, report = invoke(
            "gadget", "lower", "--d", "2", "--delta1", "1/2", "--delta2", "3/4"
        )
        assert report["result"]["gadget"]["kind"] == "trivial_one"

    def test_eta_domain_usage_error(self):
        code, _ = invoke("gadget", "pi", "--eta", "3/2", "--ell", "4")
        assert code == EXIT_USAGE


class TestReduceAndVerify:
    def test_chain_via_files(self, tmp_path):
        src = tmp_path / "emajsat.json"
        src.write_text(
            json.dumps({"kind": "emajsat", "formula": "x1 & (x2 | x3)", "k": 1})
        )
        ip1_path = tmp_path / "ip1.json"
        code, report = invoke(
            "reduce", "emajsat-ip1", "--instance", str(src)
        )
        assert code == EXIT_YES
        ip1_path.write_text(json.dumps(report["result"]["instance"]))

        code, report = invoke(
            "reduce", "ip1-ip2", "--instance", str(ip1_path), "--delta", "1/2"
        )
        assert code == EXIT_YES
        ip2_path = tmp_path / "ip2.json"
        ip2_path.write_text(json.dumps(report["result"]["instance"]))

        code, report = invoke(
            "verify", "--source", str(ip1_path), "--reduced", str(ip2_path)
        )
        assert code == EXIT_YES
        assert report["result"]["consistent"] is True

    def test_sat_ip3_inline_formula(self):
        code, report = invoke(
            "reduce", "sat-ip3", "--formula", "x1 | x2",
            "--delta", "1/2", "--gamma", "1/4",
        )
        assert code == EXIT_YES
        inst = report["result"]["instance"]
        assert inst["kind"] == "ip3"
        assert inst["k"] == 4  # d=2: q=2, k'=4
        assert "layout" in inst

    def test_verify_on_report_files_is_usage(self, tmp_path):
        # A whole reduce report, not its result.instance, is not an instance.
        _, report = invoke(
            "reduce", "emajsat-ip1", "--formula", "x1 & (x2 | x3)", "--k", "1"
        )
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, report = invoke("verify", "--source", str(path), "--reduced", str(path))
        assert code == EXIT_USAGE
        assert report["error"]["kind"] == "usage"

    def test_verify_mismatch_is_usage(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"kind": "emajsat", "formula": "x1", "k": 1}))
        b.write_text(
            json.dumps(
                {
                    "kind": "ip3",
                    "formula": "x1",
                    "x": "1",
                    "k": 1,
                    "m": 1,
                    "delta": "1/2",
                    "gamma": "1/4",
                }
            )
        )
        code, _ = invoke("verify", "--source", str(a), "--reduced", str(b))
        assert code == EXIT_USAGE

    def test_verify_refusal_names_candidate_subsets(self, tmp_path):
        # The d = 2 inapproximability instance (m' = 65): the ip3 oracle's
        # budget counts candidate subsets, and no verify flag raises it.
        sat = tmp_path / "sat.json"
        sat.write_text(json.dumps({"kind": "sat", "formula": "x1 | x2"}))
        code, report = invoke("reduce", "sat-ip3", "--instance", str(sat),
                              "--delta", "1/2", "--gamma", "1/4", "--m", "65")
        assert code == EXIT_YES
        ip3 = tmp_path / "ip3.json"
        ip3.write_text(json.dumps(report["result"]["instance"]))
        code, report = invoke("verify", "--source", str(sat), "--reduced", str(ip3))
        assert code == EXIT_CAP == 65
        reason = report["error"]["reason"]
        assert "over 4722366482869473892185 candidate subsets" in reason
        assert "raise the cap" not in reason


def _reduce_refuses(argv, flags):
    """Each of `flags` added to `argv` is refused as an unread flag."""
    values = {"--k": "1", "--delta": "1/2", "--gamma": "1/4", "--m": "7",
              "--formula": "x1"}
    for flag in flags:
        code, report = invoke(*argv, flag, values[flag])
        assert code == EXIT_USAGE, flag
        assert "unrecognized arguments" in report["error"]["reason"], flag


class TestReduceSteps:
    """Each reduce step takes only the flags it reads."""

    EMAJSAT = {"kind": "emajsat", "formula": "x1 & (x2 | x3)", "k": 1}

    def _reduced(self, tmp_path, name, *argv):
        code, report = invoke("reduce", *argv)
        assert code == EXIT_YES, report
        path = tmp_path / name
        path.write_text(json.dumps(report["result"]["instance"]))
        return str(path)

    def test_emajsat_ip1(self, tmp_path):
        src = tmp_path / "em.json"
        src.write_text(json.dumps(self.EMAJSAT))
        from_file = invoke("reduce", "emajsat-ip1", "--instance", str(src))
        assert from_file[0] == EXIT_YES
        assert set(from_file[1]["parameters"]) == {"step", "source"}
        argv = ["reduce", "emajsat-ip1", "--formula", "x1 & (x2 | x3)"]
        assert invoke(*argv, "--k", "1") == from_file
        # --k goes with --formula only: an instance file carries its k.
        code, report = invoke("reduce", "emajsat-ip1", "--instance", str(src),
                              "--k", "3")
        assert code == EXIT_USAGE
        assert "--k" in report["error"]["reason"]
        _reduce_refuses(argv + ["--k", "1"], ["--delta", "--gamma", "--m"])

    def test_ip1_ip2(self, tmp_path):
        src = tmp_path / "em.json"
        src.write_text(json.dumps(self.EMAJSAT))
        ip1 = self._reduced(tmp_path, "ip1.json", "emajsat-ip1", "--instance", str(src))
        argv = ["reduce", "ip1-ip2", "--instance", ip1]
        assert invoke(*argv)[0] == EXIT_USAGE  # --delta is required
        code, report = invoke(*argv, "--delta", "1/2")
        assert code == EXIT_YES
        assert report["parameters"]["delta"] == "1/2"
        assert set(report["parameters"]) == {"step", "source", "delta"}
        argv += ["--delta", "1/2"]
        _reduce_refuses(argv, ["--k", "--gamma", "--m", "--formula"])

    def test_ip2_ri(self, tmp_path):
        src = tmp_path / "em.json"
        src.write_text(json.dumps(self.EMAJSAT))
        ip1 = self._reduced(tmp_path, "ip1.json", "emajsat-ip1", "--instance", str(src))
        ip2 = self._reduced(tmp_path, "ip2.json", "ip1-ip2", "--instance", ip1,
                            "--delta", "1/2")
        argv = ["reduce", "ip2-ri", "--instance", ip2]
        code, report = invoke(*argv)
        assert code == EXIT_YES
        assert set(report["parameters"]) == {"step", "source"}
        code, report = invoke(*argv, "--delta", "1/2")
        assert code == EXIT_YES
        assert report["parameters"]["delta"] == "1/2"
        _reduce_refuses(argv, ["--k", "--gamma", "--m", "--formula"])

    def test_sat_ip3(self, tmp_path):
        argv = ["reduce", "sat-ip3", "--formula", "x1 | x2", "--delta", "1/2"]
        assert invoke(*argv)[0] == EXIT_USAGE  # --gamma is required
        argv += ["--gamma", "1/4"]
        code, report = invoke(*argv, "--m", "7")
        assert code == EXIT_YES
        assert report["parameters"]["m"] == 7
        assert set(report["parameters"]) == {"step", "source", "delta", "gamma", "m"}
        _reduce_refuses(argv, ["--k"])


class TestMiscCommands:
    def test_minimize(self):
        code, report = invoke(
            "minimize", "--formula", "(x1&x2)|!x3", "--x", "110", "--delta", "5/8"
        )
        assert report["result"] == {"k": 0, "witness": []}

    def test_inapprox_params(self):
        code, report = invoke(
            "inapprox-params", "--d", "3", "--delta", "1/2", "--gamma", "1/4",
            "--alpha", "1/2",
        )
        assert code == EXIT_YES
        r = report["result"]
        assert (r["k_prime"], r["p"], r["m_prime"], r["d_prime"]) == (9, 3, 325, 337)
        assert r["check"] is True

    def test_shapley(self):
        code, report = invoke("shapley", "--formula", "x1", "--x", "1")
        assert report["result"]["phi"] == ["1/2"]
        assert report["result"]["efficiency_check"] is True

    def test_shapley_d13(self):
        code, report = invoke(
            "shapley", "--formula", "(x1 & x2) | (x7 ^ x13)", "--x", "1" * 13
        )
        assert code == EXIT_YES
        phi = report["result"]["phi"]
        assert len(phi) == 13 and phi[2] == "0"
        assert report["result"]["efficiency_check"] is True

    def test_compile_relu(self):
        code, report = invoke("compile-relu", "--formula", "(x1&x2)|!x3")
        assert code == EXIT_YES
        assert report["result"]["agreement_checked"] is True
        assert report["result"]["layer_sizes"][0] == 3

    def test_compile_relu_disagreement(self, monkeypatch):
        forward = ReluNetwork.forward_batch

        def flipped(self, inputs):
            out = forward(self, inputs)
            out[-1] ^= 1
            return out

        monkeypatch.setattr(ReluNetwork, "forward_batch", flipped)
        code, report = invoke("compile-relu", "--formula", "(x1&x2)|!x3")
        assert code == EXIT_NO
        assert report["result"]["agreement_checked"] is False

    def test_output_file(self, tmp_path):
        from boolrel.cli import main

        out = tmp_path / "report.json"
        code = main(["prob", "--formula", "x1", "--output", str(out)])
        assert code == EXIT_YES
        written = json.loads(out.read_text())
        assert written["result"]["probability"]["fraction"] == "1/2"

    def test_output_path_with_nul_byte(self, capsys):
        # open() raises ValueError, not OSError, on a NUL byte; main once
        # let it escape.
        from boolrel.cli import main

        out = "report\x00.json"
        assert main(["prob", "--formula", "x1", "--output", out]) == EXIT_USAGE
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["kind"] == "usage"
        assert report["error"]["reason"] == (
            f"cannot write the report to {out}: embedded null byte"
        )

    def test_instance_file_with_set(self, tmp_path):
        inst = tmp_path / "query.json"
        inst.write_text(
            json.dumps(
                {
                    "formula": "(x1 & x2) | !x3",
                    "x": "110",
                    "k": 1,
                    "delta": "3/4",
                    "set": [1],
                }
            )
        )
        code, report = invoke("check", "--instance", str(inst))
        assert code == EXIT_YES
        assert report["result"]["set"] == [1]
        assert report["result"]["probability"]["fraction"] == "3/4"

    def test_instance_file_input(self, tmp_path):
        inst = tmp_path / "query.json"
        inst.write_text(
            json.dumps(
                {
                    "formula": "(x1 & x2) | !x3",
                    "x": "110",
                    "k": 1,
                    "delta": "1",
                }
            )
        )
        code, report = invoke("decide", "--instance", str(inst))
        assert code == EXIT_YES
        assert report["result"]["witness"] == [3]


class TestConsoleEntry:
    def test_subprocess_roundtrip(self):
        cmd = [
            sys.executable,
            "-m",
            "boolrel.cli",
            "decide",
            "--formula",
            "(x1&x2)|!x3",
            "--x",
            "110",
            "--k",
            "1",
            "--delta",
            "1",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == EXIT_YES
        report = json.loads(proc.stdout)
        assert report["result"]["witness"] == [3]

    def test_env_cap(self):
        cmd = [
            sys.executable,
            "-m",
            "boolrel.cli",
            "decide",
            "--formula",
            " | ".join(f"x{i}" for i in range(1, 23)),
            "--x",
            "1" * 22,
            "--k",
            "1",
            "--delta",
            "1/2",
        ]
        import os

        env = dict(os.environ, BOOLREL_SEARCH_CAP="10")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_CAP

    def test_unwritable_output_is_usage_error(self, tmp_path):
        # This once ended in a traceback and exit 1, which reads as No.
        out = tmp_path / "missing" / "report.json"
        cmd = [sys.executable, "-m", "boolrel.cli", "prob", "--formula", "x1",
               "--output", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.stderr == ""
        assert proc.returncode == EXIT_USAGE
        report = json.loads(proc.stdout)
        assert report["exit_code"] == EXIT_USAGE
        assert report["error"]["kind"] == "usage"
        assert str(out) in report["error"]["reason"]


# Flags each relevance subcommand takes besides --formula/--instance.
ROUND_TRIP_FLAGS = {
    "eval": ("x",),
    "prob": (),
    "check": ("x", "set", "delta"),
    "decide": ("x", "k", "delta"),
    "minimize": ("x", "delta"),
    "sample": ("x", "set", "delta", "gamma", "seed"),
    "decide-gapped": ("x", "k", "delta", "gamma", "seed", "rounds"),
    "greedy": ("x", "delta", "gamma", "seed", "rounds"),
    "shapley": ("x",),
    "compile-relu": (),
}


class TestInstanceRoundTrip:
    """An --instance file gives the report that the same flags give."""

    @pytest.mark.parametrize("command", sorted(ROUND_TRIP_FLAGS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_instance_file_equals_flags(self, command, data):
        d = data.draw(st.integers(1, 6), label="d")
        rng = random.Random(data.draw(st.integers(0, 1 << 32), label="formula"))
        text = str(random_formula(rng, d, 10))
        bits = st.text("01", min_size=d, max_size=d)
        chosen = data.draw(bits, label="set")
        values = {
            "x": data.draw(bits, label="x"),
            "k": data.draw(st.integers(min(1, d), d), label="k"),
            "delta": data.draw(st.sampled_from(["1", "3/4", "2/3", "1/2"]), label="delta"),
            "gamma": data.draw(st.sampled_from(["1/3", "1/4"]), label="gamma"),
            "seed": data.draw(st.integers(0, (1 << 64) - 1), label="seed"),
            "set": [i + 1 for i, b in enumerate(chosen) if b == "1"],
            "rounds": data.draw(st.sampled_from([1, 3]), label="rounds"),
        }
        names = ROUND_TRIP_FLAGS[command]
        flags = [command, "--formula", text]
        instance = {"formula": text}
        if "x" not in names and data.draw(st.booleans(), label="file x"):
            # Read by neither prob nor compile-relu, and wider than the
            # formula when folding dropped a variable.
            instance["x"] = "0" * (d + 2)
        for name in names:
            value = values[name]
            text_value = ",".join(map(str, value)) if name == "set" else str(value)
            flags += [f"--{name}", text_value]
            if name != "rounds":  # not an instance field
                instance[name] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(instance, handle)
            from_file = [command, "--instance", path]
            if "rounds" in names:
                from_file += ["--rounds", str(values["rounds"])]
            report = run(flags)
            assert report[0] != EXIT_USAGE, report[1]
            assert run(from_file) == report

    def test_constant_formula_without_k(self, tmp_path):
        # Arity 0: the default k is 0 on both paths, not 1.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"formula": "1", "x": ""}))
        report = run(["prob", "--formula", "1"])
        assert report[0] == EXIT_YES
        assert run(["prob", "--instance", str(path)]) == report


# Every flag each query subcommand reads besides --formula, --instance and
# --output.
ROWS = {
    "eval": ("x",),
    "prob": ("enum-cap",),
    "check": ("x", "set", "delta", "enum-cap"),
    "decide": ("x", "k", "delta", "search-cap", "enum-cap"),
    "minimize": ("x", "delta", "search-cap", "enum-cap"),
    "sample": ("x", "set", "delta", "gamma", "seed"),
    "decide-gapped": ("x", "k", "delta", "gamma", "seed", "rounds", "search-cap"),
    "greedy": ("x", "delta", "gamma", "seed", "rounds", "enum-cap"),
    "shapley": ("x",),
    "compile-relu": (),
}
FLAG_VALUES = {
    "x": "110", "set": "1", "k": "1", "delta": "1/2", "gamma": "1/10",
    "seed": "1", "rounds": "3", "enum-cap": "23", "search-cap": "17",
}
# The library call a subcommand passes its caps to.
CAP_ENTRY = {
    "prob": "satisfaction_probability",
    "check": "conditional_agreement_probability",
    "decide": "decide_relevant_input",
    "minimize": "solve_min_relevant_input",
    "decide-gapped": "decide_gapped",
    "greedy": "greedy_min_relevant",
}
CAPS = [(command, flag) for command, row in sorted(ROWS.items())
        for flag in row if flag.endswith("-cap")]


def row_flags(command, skip=()):
    return [arg for flag in ROWS[command] if flag not in skip
            for arg in (f"--{flag}", FLAG_VALUES[flag])]


def row_argv(command, *extra):
    return [command, "--formula", "(x1&x2)|!x3", *row_flags(command), *extra]


class TestFlagTable:
    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_flags_outside_the_row_are_refused(self, command):
        for flag in sorted(set(FLAG_VALUES) - set(ROWS[command])):
            code, report = invoke(*row_argv(command, f"--{flag}", FLAG_VALUES[flag]))
            assert code == EXIT_USAGE, flag
            assert "unrecognized arguments" in report["error"]["reason"]

    @pytest.mark.parametrize("command", sorted(ROWS))
    def test_parameters_are_the_row(self, command):
        code, report = invoke(*row_argv(command))
        assert code in (EXIT_YES, EXIT_NO), report
        want = {"formula", "arity"} | {f.replace("-", "_") for f in ROWS[command]}
        assert set(report["parameters"]) == want

    @pytest.mark.parametrize("command,flag", CAPS)
    def test_cap_reaches_the_library(self, command, flag, monkeypatch):
        # Flag first, then BOOLREL_<CAP>, then the library default.
        name = CAP_ENTRY[command]
        real = getattr(cli, name)
        signature = inspect.signature(real)
        cap = flag.replace("-", "_")
        seen = []

        def spy(*args, **kwargs):
            seen.append(signature.bind(*args, **kwargs).arguments[cap])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        env = "BOOLREL_" + cap.upper()
        unset = [command, "--formula", "(x1&x2)|!x3", *row_flags(command, (flag,))]
        monkeypatch.delenv(env, raising=False)
        invoke(*unset)
        monkeypatch.setenv(env, "19")
        invoke(*unset)
        _, report = invoke(*row_argv(command))
        assert seen == [signature.parameters[cap].default, 19, int(FLAG_VALUES[flag])]
        assert report["parameters"][cap] == seen[-1]

    @pytest.mark.parametrize("command,flag", CAPS)
    def test_negative_cap_is_usage_error(self, command, flag, monkeypatch):
        # A negative cap once ran (or refused with "exceeds the cap of -1").
        env = "BOOLREL_" + flag.replace("-", "_").upper()
        unset = [command, "--formula", "(x1&x2)|!x3", *row_flags(command, (flag,))]
        code, report = invoke(*unset, f"--{flag}", "-1")
        assert code == EXIT_USAGE
        assert "non-negative integer" in report["error"]["reason"]
        monkeypatch.setenv(env, "-3")
        code, report = invoke(*unset)
        assert code == EXIT_USAGE
        assert report["error"]["reason"].startswith(env)
        monkeypatch.setenv(env, "0")
        assert invoke(*unset)[0] != EXIT_USAGE


class TestRefusedInputs:
    """Inputs that once escaped as internal errors (exit 70)."""

    @pytest.mark.parametrize("command", ["decide", "decide-gapped"])
    def test_k_zero(self, command, tmp_path):
        code, report = invoke(*row_argv(command, "--k", "0"))
        assert code == EXIT_USAGE
        assert "k must lie in" in report["error"]["reason"]
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"formula": "x1 | x2", "x": "11", "k": 0}))
        flags = row_flags(command, ("x", "k"))
        code, report = invoke(command, "--instance", str(path), *flags)
        assert code == EXIT_USAGE
        assert "k must lie in" in report["error"]["reason"]

    @pytest.mark.parametrize(
        "flags,code,reason",
        [
            (("--k", "0"), EXIT_USAGE, "k must lie in 1..3"),
            (("--search-cap", "1"), EXIT_CAP,
             "subset search over 3 variables exceeds the cap of 1"),
        ],
        ids=["k", "search-cap"],
    )
    def test_gapped_refusal_order(self, flags, code, reason):
        # A gamma too fine for the sample cap is refused only after k and
        # the search cap are checked.
        got, report = invoke(*row_argv("decide-gapped", *flags, "--gamma", "1e-9"))
        assert got == code
        assert report["error"]["reason"].startswith(reason)
        got, report = invoke(*row_argv("decide-gapped", "--gamma", "1e-9"))
        assert got == EXIT_CAP
        assert "draws per sampling run" in report["error"]["reason"]

    @pytest.mark.parametrize(
        "command,flags",
        [("decide-gapped", ("--k", "10")), ("greedy", ())],
        ids=["decide-gapped", "greedy"],
    )
    def test_parity_past_the_draw_budget(self, command, flags):
        # A 20-variable parity at gamma = 1/600 (791,016 draws per run):
        # each 15-round check draws 11.9M samples, so both searches refuse
        # after the empty set's check, not after 10^13 draws.
        parity = " ^ ".join(f"x{i}" for i in range(1, 21))
        start = time.perf_counter()
        code, report = invoke(
            command, "--formula", parity, "--x", "0" * 20, *flags,
            "--delta", "1", "--gamma", "1/600", "--rounds", "15", "--seed", "1",
        )
        assert code == EXIT_CAP
        assert report["error"]["reason"] == (
            f"{command} would draw more than the draw budget of "
            f"{16 * (1 << 20)} samples"
        )
        assert time.perf_counter() - start < 60

    @pytest.mark.parametrize("command", ["decide-gapped", "greedy"])
    @pytest.mark.parametrize("rounds", ["2", "0", "-1"])
    def test_bad_rounds(self, command, rounds, tmp_path):
        code, report = invoke(*row_argv(command, "--rounds", rounds))
        assert code == EXIT_USAGE
        assert "rounds" in report["error"]["reason"]
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"formula": "x1 | x2", "x": "11", "k": 1,
                                    "delta": "1/2", "gamma": "1/10", "seed": 3}))
        code, _ = invoke(command, "--instance", str(path), "--rounds", rounds)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "fields",
        [{"delta": "1/0"}, {"gamma": "1/0"}, {"x": 1}, {"set": 5}, {"k": [1]}],
        ids=["delta", "gamma", "x", "set", "k"],
    )
    def test_bad_instance_fields(self, fields, tmp_path):
        path = tmp_path / "q.json"
        data = {"formula": "(x1&x2)|!x3", "x": "110", "delta": "1/2"}
        path.write_text(json.dumps(dict(data, **fields)))
        code, report = invoke("check", "--instance", str(path))
        assert code == EXIT_USAGE
        assert report["error"]["kind"] == "usage"

    def test_zero_denominator_flag_over_instance(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"formula": "(x1&x2)|!x3", "x": "110"}))
        code, _ = invoke("check", "--instance", str(path), "--delta", "1/0")
        assert code == EXIT_USAGE

    def test_verify_zero_denominator(self, tmp_path):
        path = tmp_path / "ip2.json"
        path.write_text(json.dumps({"kind": "ip2", "formula": "x1 & x2", "x": "11",
                                    "k": 1, "delta": "1/0"}))
        code, report = invoke("verify", "--source", str(path), "--reduced", str(path))
        assert code == EXIT_USAGE
        assert report["error"]["kind"] == "usage"

    def test_emajsat_formula_with_bad_k(self):
        code, _ = invoke("reduce", "emajsat-ip1", "--formula", "x1", "--k", "5")
        assert code == EXIT_USAGE


class TestFlagsOverInstance:
    def test_flags_replace_instance_fields(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(
            {"formula": "(x1&x2)|!x3", "x": "111", "delta": "1", "set": [3]}
        ))
        flags = ["--x", "110", "--delta", "3/4", "--set", "1"]
        from_file = run(["check", "--instance", str(path), *flags])
        assert from_file == run(["check", "--formula", "(x1&x2)|!x3", *flags])
        assert json.loads(from_file[1])["parameters"]["x"] == "110"

    def test_instance_without_x_is_refused(self, tmp_path):
        # A subcommand that reads x needs it, from --x or from the file.
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"formula": "x1 | x2"}))
        assert invoke("decide", "--instance", str(path))[0] == EXIT_USAGE
        assert invoke("decide", "--formula", "x1 | x2")[0] == EXIT_USAGE

    @pytest.mark.parametrize("command", ["prob", "compile-relu"])
    def test_unread_x_is_ignored(self, command, tmp_path):
        # prob and compile-relu read no x: a file without one answers, and a
        # longer one does not widen the arity.
        report = run([command, "--formula", "x1 & x2"])
        assert report[0] == EXIT_YES
        assert json.loads(report[1])["parameters"]["arity"] == 2
        for fields in ({}, {"x": "10110"}):
            path = tmp_path / "q.json"
            path.write_text(json.dumps({"formula": "x1 & x2", **fields}))
            assert run([command, "--instance", str(path)]) == report


class TestRepeatedQueries:
    """The parse and render memos never show in a report."""

    ARGV = [
        ["sample", "--formula", "(x1 & x2) | !x3 ^ x4", "--x", "1101", "--set", "1",
         "--delta", "3/4", "--gamma", "1/10", "--seed", "7"],
        ["decide", "--formula", "x1 & (x2 | x3)", "--x", "111", "--k", "1",
         "--delta", "1/2"],
        ["shapley", "--formula", "x1 ^ (x2 & !x3)", "--x", "101"],
        ["gadget", "pi", "--eta", "3/8", "--ell", "2"],
        ["reduce", "sat-ip3", "--formula", "x1 | x2", "--delta", "1/2",
         "--gamma", "1/4"],
    ]

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_repeat_is_byte_identical(self, argv):
        first = run(argv)
        assert "error" not in json.loads(first[1])
        assert run(argv) == first

    def test_widened_formula_echoes_the_same_text(self):
        # --x longer than the largest index widens the formula to a new
        # Formula over the same root.
        argv = ["shapley", "--formula", "!x2 | (x1 & x1)", "--x", "10110"]
        reports = [invoke(*argv)[1] for _ in range(2)]
        assert reports[0] == reports[1]
        assert reports[0]["parameters"]["formula"] == "(!x2 | x1)"
        assert reports[0]["parameters"]["arity"] == 5
        assert len(reports[0]["result"]["phi"]) == 5

    def test_report_survives_eviction(self):
        from boolrel.formula import MEMO_SIZE

        argv = self.ARGV[0]
        first = run(argv)
        for i in range(1, MEMO_SIZE + 10):
            code, _ = invoke("eval", "--formula", f"x{i} & !x{i + 1}",
                             "--x", "1" * (i + 1))
            assert code == EXIT_YES
        assert run(argv) == first


# Every command path besides the query subcommands: an answered argv after
# the command words ({ip1} and {ip2} are reduce results), and the flags it
# reads besides those and --output.
OTHER_PATHS = {
    "gadget pi": (["--eta", "7/10", "--ell", "4"], ()),
    "gadget raise": (["--d", "2", "--delta1", "1/2", "--delta2", "9/10"], ()),
    "gadget lower": (["--d", "2", "--delta1", "1/2", "--delta2", "3/4"], ()),
    "reduce emajsat-ip1": (["--formula", "x1 & (x2 | x3)", "--k", "1"], ("--instance",)),
    "reduce ip1-ip2": (["--instance", "{ip1}", "--delta", "1/2"], ()),
    "reduce ip2-ri": (["--instance", "{ip2}"], ("--delta",)),
    "reduce sat-ip3": (["--formula", "x1 | x2", "--delta", "1/2", "--gamma", "1/4"],
                       ("--instance", "--m")),
    "verify": (["--source", "{ip1}", "--reduced", "{ip2}"], ()),
    "inapprox-params": (["--d", "3", "--delta", "1/2", "--gamma", "1/4",
                         "--alpha", "1/2"], ()),
}
EVERY_FLAG = {
    "--formula", "--instance", "--output", "--x", "--set", "--k", "--delta",
    "--gamma", "--seed", "--rounds", "--enum-cap", "--search-cap", "--m", "--eta",
    "--ell", "--d", "--delta1", "--delta2", "--alpha", "--source", "--reduced",
}
# A value each flag converts, given before the one that counts.
SPARE = {"--k": "7", "--seed": "7", "--rounds": "7", "--m": "7", "--ell": "7",
         "--d": "7", "--set": "2", "--enum-cap": "3", "--search-cap": "3"}


def answered_argv(path, tmp_path):
    """(command words, flag/value pairs, flags read) of an answered argv."""
    if path in ROWS:
        flags = ["--formula", "(x1&x2)|!x3", *row_flags(path)]
        also = ("--instance",)
    else:
        ip1, ip2 = tmp_path / "ip1.json", tmp_path / "ip2.json"
        _, report = invoke("reduce", "emajsat-ip1", "--formula", "x1 & (x2 | x3)",
                           "--k", "1")
        ip1.write_text(json.dumps(report["result"]["instance"]))
        _, report = invoke("reduce", "ip1-ip2", "--instance", str(ip1), "--delta", "1/2")
        ip2.write_text(json.dumps(report["result"]["instance"]))
        flags, also = OTHER_PATHS[path]
        flags = [arg.format(ip1=ip1, ip2=ip2) for arg in flags]
    pairs = list(zip(flags[::2], flags[1::2]))
    pairs.append(("--output", str(tmp_path / "report.json")))
    return path.split(), pairs, {flag for flag, _ in pairs} | set(also)


class TestParser:
    """The contract of the one flag parser, on every command path."""

    def test_every_path_is_covered(self):
        assert set(ROWS) | set(OTHER_PATHS) == set(cli._PATHS)

    @pytest.mark.parametrize("path", sorted(cli._PATHS))
    def test_contract(self, path, tmp_path):
        words, pairs, reads = answered_argv(path, tmp_path)
        argv = words + [arg for pair in pairs for arg in pair]
        report = run(argv)
        assert report[0] != EXIT_USAGE, report[1]
        assert report[2] == str(tmp_path / "report.json")
        assert run(words + [f"{flag}={value}" for flag, value in pairs]) == report
        repeated = [arg for flag, value in pairs
                    for arg in (flag, SPARE.get(flag, "junk"), flag, value)]
        assert run(words + repeated) == report
        refused = [[flag, "1"] for flag in sorted(EVERY_FLAG - reads)]
        # An abbreviation, help, a missing value and a flag-like value.
        refused += [["--form", "x1"], ["-h"], ["--help"], [pairs[0][0]],
                    ["--output", "-o"]]
        for extra in refused:
            code, text, _ = run(argv + extra)
            assert code == EXIT_USAGE, extra
            # The reason lists the flags the command reads.
            reason = json.loads(text)["error"]["reason"]
            assert set(reason.split(f"; {path} reads ")[1].split(", ")) == reads

    def test_empty_argv_and_help(self):
        for argv in ([], ["-h"], ["--help"], ["gadget"], ["reduce", "--help"]):
            code, report = invoke(*argv)
            assert code == EXIT_USAGE
            assert report["error"]["kind"] == "usage"

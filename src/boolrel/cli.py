"""Command-line front door.

One subcommand per library operation; every run emits a single JSON report
whose ``parameters`` echo everything that influences the result, so
identical invocations (including the seed) produce byte-identical reports.

The query subcommands (eval through compile-relu) are declared once, in
_ROWS: a row names the flags its subcommand reads besides --formula,
--instance and --output.  The row builds the subparser, its flags are laid
over the --instance object (or over {"formula": ...}) that
RelevanceQuery.from_json_dict reads, and it lists the ``parameters`` keys
besides formula and arity.  --enum-cap and --search-cap exist only where the
cap is passed on; an unset one falls back to BOOLREL_ENUM_CAP /
BOOLREL_SEARCH_CAP, then to the library default.

Exit codes: 0 Yes/success, 1 No, 2 Indeterminate or outside-promise,
64 usage error, 65 cap refusal, 70 internal error (a JSON report, not a
traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from fractions import Fraction
from typing import Optional

import numpy as np

from .counting import (
    DyadicProb,
    conditional_agreement_probability,
    satisfaction_probability,
)
from .formula import (
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    FormulaSyntaxError,
    compile_to_relu,
    evaluate,
    parse,
    render,
    table_bits,
)
from .gadgets import build_pi, lower_probability_gadget, raise_probability_gadget
from .reductions import (
    ProblemInstance,
    inapprox_parameters,
    reduce_emajsat_to_ip1,
    reduce_ip1_to_ip2,
    reduce_ip2_to_relevant_input,
    reduce_sat_to_ip3,
    verify_reduction,
)
from .relevance import (
    DEFAULT_SEARCH_CAP,
    RelevanceQuery,
    Verdict,
    _rational as _exact_rational,
    decide_gapped,
    decide_relevant_input,
    greedy_min_relevant,
    sample_relevance,
    solve_min_relevant_input,
)
from .shapley import shapley_values

__all__ = ["run", "main"]

EXIT_YES = 0
EXIT_NO = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_CAP = 65
EXIT_INTERNAL = 70  # EX_SOFTWARE: an error the program does not expect


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cap(text: str) -> int:
    """--enum-cap, --search-cap and their BOOLREL_* variables: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # refused below, with the negative numbers
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _indices(text: str) -> list[int]:
    """--set: comma-separated variable indices, empty for the empty set."""
    return [int(part) for part in text.split(",")] if text.strip() else []


# argparse keywords of every flag a query subcommand or a reduce step reads.
_FLAGS = {
    "x": dict(help="assignment bitstring, leftmost bit is x1"),
    "set": dict(type=_indices, help="comma-separated indices, empty for {}"),
    "k": dict(type=int),
    "delta": dict(help="rational threshold, 'p/q' or decimal"),
    "gamma": dict(help="rational gap, 'p/q' or decimal"),
    "seed": dict(type=int, help="64-bit run seed"),
    "rounds": dict(type=int, default=15, help="amplification rounds (odd)"),
    "enum_cap": dict(type=_cap),
    "search_cap": dict(type=_cap),
    # reduce only
    "formula": dict(help="the source formula, instead of --instance"),
    "m": dict(type=int),
}

# The flags each query subcommand reads, besides --formula, --instance and
# --output.  A subcommand refuses every other flag, and its report's
# parameters are formula, arity and exactly these.
_ROWS = {
    "eval": ("x",),
    "prob": ("enum_cap",),
    "check": ("x", "set", "delta", "enum_cap"),
    "decide": ("x", "k", "delta", "search_cap", "enum_cap"),
    "minimize": ("x", "delta", "search_cap", "enum_cap"),
    "sample": ("x", "set", "delta", "gamma", "seed"),
    "decide-gapped": ("x", "k", "delta", "gamma", "seed", "rounds", "search_cap"),
    "greedy": ("x", "delta", "gamma", "seed", "rounds", "enum_cap"),
    "shapley": ("x",),
    "compile-relu": (),
}

# Cap flag -> (environment variable, default) an unset flag falls back to.
_CAPS = {
    "enum_cap": ("BOOLREL_ENUM_CAP", DEFAULT_ENUM_CAP),
    "search_cap": ("BOOLREL_SEARCH_CAP", DEFAULT_SEARCH_CAP),
}


def _rational(text: str) -> Fraction:
    try:
        return _exact_rational(text)
    except ValueError as err:
        raise UsageError(f"not a rational number: {text!r}") from err


def _refusing(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the ValueError it raises on an argument it
    refuses reported as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from err


def _prob_json(p: DyadicProb) -> dict:
    return {
        "dyadic": p.exact_str(),
        "fraction": str(p.as_fraction()),
        "float": float(p),
    }


def _load_instance_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as err:
        raise UsageError(f"instance file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"instance file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise UsageError(
            f"instance file must hold a JSON object, got {type(data).__name__}"
        )
    return data


def _load_problem(path: str) -> ProblemInstance:
    """A tagged problem instance (a reduce report's result.instance)."""
    data = _load_instance_file(path)
    try:
        return ProblemInstance.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad instance file: {err}") from err


def _query(ns: argparse.Namespace) -> RelevanceQuery:
    """The query of exactly one of --instance and --formula, with the
    subcommand's flags laid over it."""
    if (ns.instance is None) == (ns.formula is None):
        raise UsageError("provide exactly one of --instance or --formula")
    row = _ROWS[ns.command]
    if ns.instance is not None:
        data = _load_instance_file(ns.instance)
    else:
        data = {"formula": ns.formula}
    # from_json_dict reads only the query's fields (not rounds or the caps).
    data.update((name, getattr(ns, name)) for name in row
                if getattr(ns, name) is not None)
    data.setdefault("delta", "1")
    if "set" in row and data.get("set") is None:
        data["set"] = []
    # Subcommands that do not read x take all zeros, whatever a file holds.
    if "x" not in row:
        data.pop("x", None)
    elif data.get("x") is None:
        raise UsageError("the query needs an assignment: --x or the instance's x")
    try:
        query = RelevanceQuery.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad query: {err}") from err
    if "seed" in row and query.seed is None:
        raise UsageError("sampling subcommands require --seed")
    if "gamma" in row and query.gamma == 0:
        raise UsageError("sampling subcommands require a positive --gamma")
    return query


def _echo(ns: argparse.Namespace, query: RelevanceQuery) -> dict:
    """formula, arity and the subcommand's row, as resolved."""
    resolved = query.to_json_dict()
    out = {"formula": resolved["formula"], "arity": query.f.arity}
    for name in _ROWS[ns.command]:
        out[name] = resolved[name] if name in resolved else getattr(ns, name)
    return out


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.YES:
        return EXIT_YES
    if verdict is Verdict.NO:
        return EXIT_NO
    return EXIT_INDETERMINATE


# --------------------------------------------------------------------------
# Handlers.  Each takes the parsed namespace and returns
# (exit_code, result_dict, parameter_echo).


def _cmd_eval(ns):
    query = _query(ns)
    return EXIT_YES, {"value": evaluate(query.f, query.x)}, _echo(ns, query)


def _cmd_prob(ns):
    query = _query(ns)
    p = satisfaction_probability(query.f, ns.enum_cap)
    return EXIT_YES, {"probability": _prob_json(p)}, _echo(ns, query)


def _cmd_check(ns):
    query = _query(ns)
    p = conditional_agreement_probability(query.f, query.x, query.s, ns.enum_cap)
    relevant = p >= query.delta
    result = {
        "verdict": "yes" if relevant else "no",
        "probability": _prob_json(p),
        "set": list(query.s.indices()),
    }
    return (EXIT_YES if relevant else EXIT_NO), result, _echo(ns, query)


def _cmd_decide(ns):
    query = _query(ns)
    report = _refusing(
        decide_relevant_input,
        query.f, query.x, query.k, query.delta, ns.search_cap, ns.enum_cap,
    )
    result = {"verdict": report.verdict.value, "method": report.method}
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    if report.probability is not None:
        result["probability"] = _prob_json(report.probability)
    return _verdict_exit(report.verdict), result, _echo(ns, query)


def _cmd_minimize(ns):
    query = _query(ns)
    k_star, witness = solve_min_relevant_input(
        query.f, query.x, query.delta, ns.search_cap, ns.enum_cap
    )
    result = {"k": k_star, "witness": list(witness.indices())}
    return EXIT_YES, result, _echo(ns, query)


def _cmd_sample(ns):
    query = _query(ns)
    outcome = sample_relevance(
        query.f, query.x, query.s, query.delta, query.gamma, query.seed
    )
    result = {
        "verdict": outcome.verdict.value,
        "estimate": outcome.estimate,
        "successes": outcome.successes,
        "samples": outcome.samples,
        "threshold": str(query.delta - query.gamma / 2),
    }
    return _verdict_exit(outcome.verdict), result, _echo(ns, query)


def _cmd_decide_gapped(ns):
    query = _query(ns)
    report = _refusing(
        decide_gapped, query.f, query.x, query.k, query.delta, query.gamma,
        query.seed, rounds=ns.rounds, search_cap=ns.search_cap,
    )
    result = {
        "verdict": report.verdict.value,
        "method": report.method,
        "samples_per_run": report.samples,
        "promise_dependent": report.promise_dependent,
    }
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    return _verdict_exit(report.verdict), result, _echo(ns, query)


def _cmd_greedy(ns):
    query = _query(ns)
    k, witness = _refusing(
        greedy_min_relevant, query.f, query.x, query.delta, query.gamma,
        query.seed, rounds=ns.rounds, enum_cap=ns.enum_cap,
    )
    return EXIT_YES, {"k": k, "set": list(witness.indices())}, _echo(ns, query)


def _gadget_json(gadget) -> dict:
    return {
        "formula": render(gadget.pi.root),
        "n": gadget.n,
        "kind": gadget.kind,
        "probability": _prob_json(gadget.prob),
        "trace": [
            {"added_vars": step.added_vars, "prob": str(step.prob)}
            for step in gadget.trace
        ],
    }


def _cmd_gadget(ns):
    if ns.mode == "pi":
        eta = _rational(ns.eta)
        gadget = _refusing(build_pi, eta, ns.ell)
        echo = {"eta": str(eta), "ell": ns.ell}
        return EXIT_YES, {"gadget": _gadget_json(gadget)}, echo
    delta1 = _rational(ns.delta1)
    delta2 = _rational(ns.delta2)
    builder = raise_probability_gadget if ns.mode == "raise" else lower_probability_gadget
    shift = _refusing(builder, ns.d, delta1, delta2)
    result = {
        "gadget": _gadget_json(shift.gadget),
        "attach": shift.attach,
        "host_arity": shift.host_arity,
    }
    if shift.interval is not None:
        result["interval"] = [str(shift.interval[0]), str(shift.interval[1])]
    echo = {"d": ns.d, "delta1": str(delta1), "delta2": str(delta2)}
    return EXIT_YES, result, echo


# Each reduce step: the kind of source it reads, and the flags it reads
# besides --instance and --output.  A step refuses every other flag.
_REDUCE_STEPS = {
    "emajsat-ip1": ("emajsat", ("formula", "k")),
    "ip1-ip2": ("ip1", ("delta",)),
    "ip2-ri": ("ip2", ("delta",)),
    "sat-ip3": ("sat", ("formula", "delta", "gamma", "m")),
}


def _cmd_reduce(ns):
    step = ns.step
    want_kind = _REDUCE_STEPS[step][0]
    formula = getattr(ns, "formula", None)
    if (ns.instance is None) == (formula is None):
        raise UsageError("provide exactly one of --instance or --formula")
    if ns.instance is not None:
        if getattr(ns, "k", None) is not None:
            raise UsageError("--k goes with --formula; an instance carries its k")
        source = _load_problem(ns.instance)
    else:
        try:
            f = parse(formula)
        except FormulaSyntaxError as err:
            raise UsageError(str(err)) from err
        if want_kind == "sat":
            source = ProblemInstance(kind="sat", f=f)
        elif ns.k is None:
            raise UsageError("emajsat sources need --k")
        else:
            source = _refusing(ProblemInstance, kind="emajsat", f=f, k=ns.k)
    if source.kind != want_kind:
        raise UsageError(
            f"step {step} needs a {want_kind} source, got {source.kind}"
        )
    try:
        if step == "emajsat-ip1":
            reduced = reduce_emajsat_to_ip1(source)
        elif step == "ip1-ip2":
            if ns.delta is None:
                raise UsageError("ip1-ip2 needs --delta")
            reduced = reduce_ip1_to_ip2(source, _rational(ns.delta))
        elif step == "ip2-ri":
            delta = _rational(ns.delta) if ns.delta else None
            reduced = reduce_ip2_to_relevant_input(source, delta)
        else:
            if ns.delta is None or ns.gamma is None:
                raise UsageError("sat-ip3 needs --delta and --gamma")
            reduced = reduce_sat_to_ip3(
                source.f, _rational(ns.delta), _rational(ns.gamma), ns.m
            )
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = {"instance": reduced.to_json_dict()}
    echo = {"step": step, "source": source.to_json_dict()}
    for name in ("delta", "gamma", "m"):
        if getattr(ns, name, None) is not None:
            echo[name] = getattr(ns, name)
    return EXIT_YES, result, echo


def _cmd_verify(ns):
    source = _load_problem(ns.source)
    reduced = _load_problem(ns.reduced)
    check = _refusing(verify_reduction, source, reduced)
    echo = {"source": ns.source, "reduced": ns.reduced}
    if check.skipped:
        return EXIT_INDETERMINATE, check.to_json_dict(), echo
    return (EXIT_YES if check.passed else EXIT_NO), check.to_json_dict(), echo


def _cmd_inapprox(ns):
    record = _refusing(
        inapprox_parameters,
        ns.d, _rational(ns.delta), _rational(ns.gamma), _rational(ns.alpha),
    )
    echo = {"d": ns.d, "delta": ns.delta, "gamma": ns.gamma, "alpha": ns.alpha}
    return (EXIT_YES if record.check else EXIT_NO), record.to_json_dict(), echo


def _cmd_shapley(ns):
    query = _query(ns)
    vector = shapley_values(query.f, query.x)
    result = {
        "phi": [str(v) for v in vector.values],
        "nu_full": str(vector.grand_value),
        "efficiency_check": vector.is_efficient(),
    }
    return EXIT_YES, result, _echo(ns, query)


def _cmd_compile_relu(ns):
    query = _query(ns)
    net = compile_to_relu(query.f)
    d = query.f.arity
    agreement = True
    if d <= 16:
        # Row j of the inputs is assignment j of the truth-table order.
        inputs = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1
        outputs = np.packbits(net.forward_batch(inputs).astype(np.uint8),
                              bitorder="little")
        agreement = (int.from_bytes(outputs.tobytes(), "little")
                     == table_bits(query.f.root, d))
    result = {
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "agreement_checked": agreement,
    }
    return (EXIT_YES if agreement else EXIT_NO), result, _echo(ns, query)


_HANDLERS = {
    "eval": _cmd_eval,
    "prob": _cmd_prob,
    "check": _cmd_check,
    "decide": _cmd_decide,
    "minimize": _cmd_minimize,
    "sample": _cmd_sample,
    "decide-gapped": _cmd_decide_gapped,
    "greedy": _cmd_greedy,
    "gadget": _cmd_gadget,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "inapprox-params": _cmd_inapprox,
    "shapley": _cmd_shapley,
    "compile-relu": _cmd_compile_relu,
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no state
    between calls, and building it costs milliseconds."""
    parser = _Parser(prog="boolrel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, row in _ROWS.items():
        p = sub.add_parser(command)
        p.add_argument("--instance", help="JSON instance file")
        p.add_argument("--formula", help="formula text, e.g. '(x1 & x2) | !x3'")
        for name in row:
            p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
        p.add_argument("--output", help="write the report to this path")

    gadget = sub.add_parser("gadget")
    gadget_sub = gadget.add_subparsers(dest="mode", required=True)
    pi = gadget_sub.add_parser("pi")
    pi.add_argument("--eta", required=True)
    pi.add_argument("--ell", type=int, required=True)
    for mode in ("raise", "lower"):
        gp = gadget_sub.add_parser(mode)
        gp.add_argument("--d", type=int, required=True)
        gp.add_argument("--delta1", required=True)
        gp.add_argument("--delta2", required=True)
    for gp in gadget_sub.choices.values():
        gp.add_argument("--output")

    reduce_sub = sub.add_parser("reduce").add_subparsers(dest="step", required=True)
    for step, (_, flags) in _REDUCE_STEPS.items():
        rp = reduce_sub.add_parser(step)
        rp.add_argument("--instance", help="JSON problem-instance file")
        for name in flags:
            rp.add_argument("--" + name, **_FLAGS[name])
        rp.add_argument("--output")

    verify_p = sub.add_parser("verify")
    verify_p.add_argument("--source", required=True)
    verify_p.add_argument("--reduced", required=True)
    verify_p.add_argument("--output")

    inapprox = sub.add_parser("inapprox-params")
    inapprox.add_argument("--d", type=int, required=True)
    inapprox.add_argument("--delta", required=True)
    inapprox.add_argument("--gamma", required=True)
    inapprox.add_argument("--alpha", required=True)
    inapprox.add_argument("--output")
    return parser


def _env_cap(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return _cap(raw)
    except argparse.ArgumentTypeError as err:
        raise UsageError(f"{name} {err}") from err


def run(argv: list[str]) -> tuple[int, str, Optional[str]]:
    """Execute one invocation; returns (exit_code, report_text, output_path)."""
    parser = _build_parser()
    output = None
    try:
        ns = parser.parse_args(argv)
        for name, (env, default) in _CAPS.items():
            if getattr(ns, name, default) is None:  # absent where not read
                setattr(ns, name, _env_cap(env, default))
        output = ns.output
        code, result, echo = _HANDLERS[ns.command](ns)
        report = {
            "command": ns.command,
            "parameters": echo,
            "result": result,
            "exit_code": code,
        }
    except UsageError as err:
        report = {
            "command": argv[0] if argv else None,
            "error": {"kind": "usage", "reason": str(err)},
            "exit_code": EXIT_USAGE,
        }
        code = EXIT_USAGE
    except EnumerationCapExceeded as err:
        report = {
            "command": argv[0] if argv else None,
            "error": {"kind": "cap", "reason": str(err)},
            "exit_code": EXIT_CAP,
        }
        code = EXIT_CAP
    except Exception as err:
        # The one boundary every invocation crosses: whatever escapes the
        # handlers (say, RecursionError on very deep formulas) still ends in
        # a JSON report, never a traceback; the innermost frame says where.
        frame = traceback.extract_tb(err.__traceback__)[-1]
        report = {
            "command": argv[0] if argv else None,
            "error": {
                "kind": "internal",
                "reason": f"{type(err).__name__}: {err}",
                "where": f"{os.path.basename(frame.filename)}:{frame.lineno}"
                f" in {frame.name}",
            },
            "exit_code": EXIT_INTERNAL,
        }
        code = EXIT_INTERNAL
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return code, text, output


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, text, output = run(argv)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

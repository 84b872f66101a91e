"""Command-line front door.

One subcommand per library operation; every run emits a single JSON report
whose ``parameters`` echo everything that influences the result, so
identical invocations (including the seed) produce byte-identical reports.

_PATHS names every command path, the flags it reads and those it requires.
_parse reads ``--flag value`` and ``--flag=value`` (the next token is the
value, verbatim, unless it looks like a flag; a repeated flag keeps its
last value) and converts each value through _FLAGS.  Anything else, -h and
--help included, is a usage error whose reason lists the flags the command
reads.  The query subcommands' flags are laid over the --instance object
(or over {"formula": ...}) that RelevanceQuery.from_json_dict reads.
--enum-cap and --search-cap exist only where the cap is passed on; an unset
one falls back to BOOLREL_ENUM_CAP / BOOLREL_SEARCH_CAP, then to the library
default.

Exit codes: 0 Yes/success, 1 No, 2 Indeterminate or outside-promise,
64 usage error (also an unreadable input or unwritable --output file),
65 cap refusal, 70 internal error (a JSON report, not a traceback).
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback
from fractions import Fraction

import numpy as np

from .counting import conditional_agreement_probability, satisfaction_probability
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


def _cap(text: str) -> int:
    """--enum-cap, --search-cap and their BOOLREL_* variables: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # refused below, with the negative numbers
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {text!r}")
    return value


def _indices(text: str) -> list[int]:
    """--set: comma-separated variable indices, empty for the empty set."""
    return [int(part) for part in text.split(",")] if text.strip() else []


# The converter of every flag's value; a ValueError it raises is a usage
# error.  Rationals stay text here: each command reads them itself.
_FLAGS = {
    "formula": str, "instance": str, "output": str,
    "x": str, "set": _indices, "k": int, "delta": str, "gamma": str,
    "seed": int, "rounds": int, "enum_cap": _cap, "search_cap": _cap, "m": int,
    "eta": str, "ell": int, "d": int, "delta1": str, "delta2": str,
    "alpha": str, "source": str, "reduced": str,
}
_SPELLED = {"--" + name.replace("_", "-"): name for name in _FLAGS}

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

_SHIFT = ("d", "delta1", "delta2")
_INAPPROX = ("d", "delta", "gamma", "alpha")

# Every command path: the flags it reads, and those of them it requires.
_PATHS = {
    **{command: (("formula", "instance", *row, "output"), ())
       for command, row in _ROWS.items()},
    "gadget pi": (("eta", "ell", "output"), ("eta", "ell")),
    "gadget raise": ((*_SHIFT, "output"), _SHIFT),
    "gadget lower": ((*_SHIFT, "output"), _SHIFT),
    # A reduce step is named <source kind>-<reduced kind>.
    "reduce emajsat-ip1": (("instance", "formula", "k", "output"), ()),
    "reduce ip1-ip2": (("instance", "delta", "output"), ("instance", "delta")),
    "reduce ip2-ri": (("instance", "delta", "output"), ("instance",)),
    "reduce sat-ip3": (("instance", "formula", "delta", "gamma", "m", "output"),
                       ("delta", "gamma")),
    "verify": (("source", "reduced", "output"), ("source", "reduced")),
    "inapprox-params": ((*_INAPPROX, "output"), _INAPPROX),
}

# A token that looks like a flag is never taken as a flag's value: it starts
# with "-" and is not "-", a negative number or text with a space.
_FLAG_LIKE = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+")

# Commands with a second word, and the key the word is stored under.
_SUBCOMMANDS = {"gadget": "mode", "reduce": "step"}

# Cap flag -> (environment variable, default) an unset flag falls back to.
_CAPS = {
    "enum_cap": ("BOOLREL_ENUM_CAP", DEFAULT_ENUM_CAP),
    "search_cap": ("BOOLREL_SEARCH_CAP", DEFAULT_SEARCH_CAP),
}


def _parse(argv: list[str]) -> dict:
    """{flag name: value} of one invocation, with the second word of a
    gadget or reduce command under "mode" or "step", --rounds defaulting
    to 15 and an unset cap resolved, where the command reads them."""
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    words = 2 if sub else 1
    path = " ".join(argv[:words])
    if path not in _PATHS:
        raise UsageError(f"unknown command {path!r}; the commands are "
                         + ", ".join(_PATHS))
    reads, required = _PATHS[path]
    spelled = {name: "--" + name.replace("_", "-") for name in reads}
    usage = f"{path} reads {', '.join(spelled.values())}"
    values = {sub: argv[1]} if sub else {}
    tokens = iter(argv[words:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        name = _SPELLED.get(flag)
        if name not in reads:
            raise UsageError(f"unrecognized arguments: {token}; {usage}")
        if not eq:
            value = next(tokens, None)
            if value is None or _FLAG_LIKE.fullmatch(value):
                raise UsageError(f"argument {flag}: expected one argument; {usage}")
        try:
            values[name] = _FLAGS[name](value)
        except ValueError as err:
            raise UsageError(f"argument {flag}: {err}; {usage}") from err
    missing = [spelled[name] for name in required if name not in values]
    if missing:
        raise UsageError("the following arguments are required: "
                         f"{', '.join(missing)}; {usage}")
    if "formula" in reads and ("formula" in values) == ("instance" in values):
        raise UsageError("provide exactly one of --instance or --formula")
    if "rounds" in reads:
        values.setdefault("rounds", 15)
    for name, (env, default) in _CAPS.items():
        if name in reads and name not in values:
            raw = os.environ.get(env)
            try:
                values[name] = default if raw is None else _cap(raw)
            except ValueError as err:
                raise UsageError(f"{env} {err}") from err
    return values


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


def _prob_json(p: Fraction) -> dict:
    """A probability as its dyadic text, its reduced fraction and a float;
    refuses a denominator that is not a power of two."""
    exponent = p.denominator.bit_length() - 1
    if p.denominator != 1 << exponent:
        raise ValueError(f"{p} is not dyadic")
    return {
        "dyadic": f"{p.numerator}/2^{exponent}",
        "fraction": str(p),
        "float": float(p),
    }


def _load_instance_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise UsageError(f"cannot read instance file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"instance file is not UTF-8: {path}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"instance file is not valid JSON: {err}") from err
    except ValueError as err:  # open() refuses a path with a NUL byte
        raise UsageError(f"cannot read instance file {path}: {err}") from err
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


def _query(command: str, args: dict) -> RelevanceQuery:
    """The query of exactly one of --instance and --formula, with the
    subcommand's flags laid over it."""
    row = _ROWS[command]
    if "instance" in args:
        data = _load_instance_file(args["instance"])
    else:
        data = {"formula": args["formula"]}
    # from_json_dict reads only the query's fields (not rounds or the caps).
    data.update((name, args[name]) for name in row if name in args)
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


def _echo(command: str, args: dict, query: RelevanceQuery) -> dict:
    """formula, arity and the subcommand's row, as resolved."""
    resolved = query.to_json_dict()
    out = {"formula": resolved["formula"], "arity": query.f.arity}
    for name in _ROWS[command]:
        out[name] = resolved[name] if name in resolved else args[name]
    return out


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.YES:
        return EXIT_YES
    if verdict is Verdict.NO:
        return EXIT_NO
    return EXIT_INDETERMINATE


# --------------------------------------------------------------------------
# Handlers.  Each takes the parsed flags.  A query subcommand's handler finds
# its query under "query" and returns (exit_code, result_dict), and run adds
# the echo; the others return (exit_code, result_dict, parameter_echo).


def _cmd_eval(args):
    query = args["query"]
    return EXIT_YES, {"value": evaluate(query.f, query.x)}


def _cmd_prob(args):
    p = satisfaction_probability(args["query"].f, args["enum_cap"])
    return EXIT_YES, {"probability": _prob_json(p)}


def _cmd_check(args):
    query = args["query"]
    p = conditional_agreement_probability(query.f, query.x, query.s, args["enum_cap"])
    relevant = p >= query.delta
    result = {
        "verdict": "yes" if relevant else "no",
        "probability": _prob_json(p),
        "set": list(query.s.indices()),
    }
    return (EXIT_YES if relevant else EXIT_NO), result


def _cmd_decide(args):
    query = args["query"]
    report = _refusing(
        decide_relevant_input, query.f, query.x, query.k, query.delta,
        args["search_cap"], args["enum_cap"],
    )
    result = {"verdict": report.verdict.value, "method": report.method}
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    if report.probability is not None:
        result["probability"] = _prob_json(report.probability)
    return _verdict_exit(report.verdict), result


def _cmd_minimize(args):
    query = args["query"]
    k_star, witness = solve_min_relevant_input(
        query.f, query.x, query.delta, args["search_cap"], args["enum_cap"]
    )
    return EXIT_YES, {"k": k_star, "witness": list(witness.indices())}


def _cmd_sample(args):
    query = args["query"]
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
    return _verdict_exit(outcome.verdict), result


def _cmd_decide_gapped(args):
    query = args["query"]
    report = _refusing(
        decide_gapped, query.f, query.x, query.k, query.delta, query.gamma,
        query.seed, rounds=args["rounds"], search_cap=args["search_cap"],
    )
    result = {
        "verdict": report.verdict.value,
        "method": report.method,
        "samples_per_run": report.samples,
        "promise_dependent": report.promise_dependent,
    }
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    return _verdict_exit(report.verdict), result


def _cmd_greedy(args):
    query = args["query"]
    k, witness = _refusing(
        greedy_min_relevant, query.f, query.x, query.delta, query.gamma,
        query.seed, rounds=args["rounds"], enum_cap=args["enum_cap"],
    )
    return EXIT_YES, {"k": k, "set": list(witness.indices())}


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


def _cmd_gadget(args):
    if args["mode"] == "pi":
        eta = _rational(args["eta"])
        gadget = _refusing(build_pi, eta, args["ell"])
        echo = {"eta": str(eta), "ell": args["ell"]}
        return EXIT_YES, {"gadget": _gadget_json(gadget)}, echo
    delta1 = _rational(args["delta1"])
    delta2 = _rational(args["delta2"])
    builder = (raise_probability_gadget if args["mode"] == "raise"
               else lower_probability_gadget)
    shift = _refusing(builder, args["d"], delta1, delta2)
    result = {
        "gadget": _gadget_json(shift.gadget),
        "attach": shift.attach,
        "host_arity": shift.host_arity,
    }
    if shift.interval is not None:
        result["interval"] = [str(shift.interval[0]), str(shift.interval[1])]
    echo = {"d": args["d"], "delta1": str(delta1), "delta2": str(delta2)}
    return EXIT_YES, result, echo


def _cmd_reduce(args):
    step = args["step"]
    want_kind = step.split("-")[0]
    if "instance" in args:
        if "k" in args:
            raise UsageError("--k goes with --formula; an instance carries its k")
        source = _load_problem(args["instance"])
    else:
        try:
            f = parse(args["formula"])
        except FormulaSyntaxError as err:
            raise UsageError(str(err)) from err
        if want_kind == "sat":
            source = ProblemInstance(kind="sat", f=f)
        elif "k" not in args:
            raise UsageError("emajsat sources need --k")
        else:
            source = _refusing(ProblemInstance, kind="emajsat", f=f, k=args["k"])
    if source.kind != want_kind:
        raise UsageError(
            f"step {step} needs a {want_kind} source, got {source.kind}"
        )
    delta, gamma = args.get("delta"), args.get("gamma")
    try:
        if step == "emajsat-ip1":
            reduced = reduce_emajsat_to_ip1(source)
        elif step == "ip1-ip2":
            reduced = reduce_ip1_to_ip2(source, _rational(delta))
        elif step == "ip2-ri":
            reduced = reduce_ip2_to_relevant_input(
                source, _rational(delta) if delta else None)
        else:
            reduced = reduce_sat_to_ip3(
                source.f, _rational(delta), _rational(gamma), args.get("m")
            )
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = {"instance": reduced.to_json_dict()}
    echo = {"step": step, "source": source.to_json_dict()}
    echo.update((name, args[name]) for name in ("delta", "gamma", "m") if name in args)
    return EXIT_YES, result, echo


def _cmd_verify(args):
    source = _load_problem(args["source"])
    reduced = _load_problem(args["reduced"])
    check = _refusing(verify_reduction, source, reduced)
    echo = {"source": args["source"], "reduced": args["reduced"]}
    if check.skipped:
        return EXIT_INDETERMINATE, check.to_json_dict(), echo
    return (EXIT_YES if check.passed else EXIT_NO), check.to_json_dict(), echo


def _cmd_inapprox(args):
    record = _refusing(
        inapprox_parameters, args["d"], _rational(args["delta"]),
        _rational(args["gamma"]), _rational(args["alpha"]),
    )
    echo = {name: args[name] for name in _INAPPROX}
    return (EXIT_YES if record.check else EXIT_NO), record.to_json_dict(), echo


def _cmd_shapley(args):
    query = args["query"]
    vector = shapley_values(query.f, query.x)
    result = {
        "phi": [str(v) for v in vector.values],
        "nu_full": str(vector.grand_value),
        "efficiency_check": vector.is_efficient(),
    }
    return EXIT_YES, result


def _cmd_compile_relu(args):
    query = args["query"]
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
    return (EXIT_YES if agreement else EXIT_NO), result


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


def _failure(argv: list[str], code: int, kind: str, reason: str, **detail) -> dict:
    """The report of an invocation that ends in an error."""
    return {
        "command": argv[0] if argv else None,
        "error": {"kind": kind, "reason": reason, **detail},
        "exit_code": code,
    }


def _text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run(argv: list[str]) -> tuple[int, str, str | None]:
    """Execute one invocation; returns (exit_code, report_text, output_path)."""
    output = None
    try:
        args = _parse(argv)
        output = args.get("output")
        command = argv[0]
        if command in _ROWS:
            args["query"] = query = _query(command, args)
            code, result = _HANDLERS[command](args)
            echo = _echo(command, args, query)
        else:
            code, result, echo = _HANDLERS[command](args)
        report = {
            "command": command,
            "parameters": echo,
            "result": result,
            "exit_code": code,
        }
    except UsageError as err:
        code = EXIT_USAGE
        report = _failure(argv, code, "usage", str(err))
    except EnumerationCapExceeded as err:
        code = EXIT_CAP
        report = _failure(argv, code, "cap", str(err))
    except Exception as err:
        # The one boundary every invocation crosses: whatever escapes the
        # handlers (say, RecursionError on very deep formulas) still ends in
        # a JSON report, never a traceback; the innermost frame says where.
        frame = traceback.extract_tb(err.__traceback__)[-1]
        code = EXIT_INTERNAL
        report = _failure(
            argv, code, "internal", f"{type(err).__name__}: {err}",
            where=f"{os.path.basename(frame.filename)}:{frame.lineno}"
            f" in {frame.name}",
        )
    return code, _text(report), output


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code, text, output = run(argv)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
            return code
        except (OSError, ValueError) as err:  # ValueError: a NUL byte
            reason = err.strerror if isinstance(err, OSError) else err
            code = EXIT_USAGE
            text = _text(_failure(
                argv, code, "usage", f"cannot write the report to {output}: {reason}"))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

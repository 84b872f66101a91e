"""Command-line front door.

One subcommand per library operation; every run emits a single JSON report
with all result-influencing parameters echoed, so identical invocations
(including the seed) produce byte-identical reports.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .counting import (
    DyadicProb,
    conditional_agreement_probability,
    satisfaction_probability,
)
from .formula import (
    Assignment,
    DEFAULT_ENUM_CAP,
    EnumerationCapExceeded,
    Formula,
    FormulaSyntaxError,
    SubsetMask,
    compile_to_relu,
    evaluate,
    parse,
    render,
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
    decide_gapped,
    decide_relevant_input,
    greedy_min_relevant,
    sample_relevance,
    solve_min_relevant_input,
)
from .shapley import shapley_values

__all__ = ["RunConfig", "run", "main"]

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


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand plus every result-relevant setting."""

    command: str
    formula: Optional[str] = None
    instance_path: Optional[str] = None
    x: Optional[str] = None
    subset: Optional[str] = None
    k: Optional[int] = None
    m: Optional[int] = None
    delta: Optional[str] = None
    gamma: Optional[str] = None
    seed: Optional[int] = None
    rounds: Optional[int] = None
    enum_cap: int = DEFAULT_ENUM_CAP
    search_cap: int = DEFAULT_SEARCH_CAP
    output: Optional[str] = None
    extras: dict = field(default_factory=dict)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"not a rational number: {text!r}") from err


def _parse_subset(text: str, arity: int) -> SubsetMask:
    text = text.strip()
    if not text:
        return SubsetMask.empty(arity)
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError as err:
        raise UsageError(f"bad subset syntax: {text!r}") from err
    try:
        return SubsetMask.from_indices(indices, arity)
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


def _resolve_query(config: RunConfig, need_x: bool = True) -> RelevanceQuery:
    """Build the relevance query from exactly one input source."""
    if (config.instance_path is None) == (config.formula is None):
        raise UsageError("provide exactly one of --instance or --formula")
    if config.instance_path is not None:
        data = _load_instance_file(config.instance_path)
        if config.delta is not None:
            data["delta"] = config.delta
        if config.gamma is not None:
            data["gamma"] = config.gamma
        if config.k is not None:
            data["k"] = config.k
        if config.m is not None:
            data["m"] = config.m
        if config.seed is not None:
            data["seed"] = config.seed
        data.setdefault("delta", "1")
        try:
            return RelevanceQuery.from_json_dict(data)
        except (KeyError, ValueError) as err:
            raise UsageError(f"bad instance file: {err}") from err
    try:
        f = parse(config.formula)
    except FormulaSyntaxError as err:
        raise UsageError(str(err)) from err
    if need_x:
        if config.x is None:
            raise UsageError("--x is required")
        try:
            x = Assignment.from_string(config.x)
        except ValueError as err:
            raise UsageError(str(err)) from err
        if x.length > f.arity:
            f = Formula(f.root, x.length)
        if x.length != f.arity:
            raise UsageError(
                f"--x has length {x.length} but the formula needs {f.arity}"
            )
    else:
        x = Assignment.zeros(f.arity)
    try:
        return RelevanceQuery(
            f=f,
            x=x,
            k=config.k if config.k is not None else min(1, f.arity),
            delta=_rational(config.delta) if config.delta else Fraction(1),
            gamma=_rational(config.gamma) if config.gamma else Fraction(0),
            m=config.m,
            seed=config.seed,
        )
    except ValueError as err:
        raise UsageError(str(err)) from err


def _echo(
    config: RunConfig,
    query: Optional[RelevanceQuery] = None,
    with_x: bool = True,
    **extra,
) -> dict:
    """Everything that influences the result, normalised."""
    out = {
        "enum_cap": config.enum_cap,
        "search_cap": config.search_cap,
    }
    if query is not None:
        out["formula"] = str(query.f)
        out["arity"] = query.f.arity
        if with_x:
            out["x"] = str(query.x)
    for key, value in extra.items():
        if value is not None:
            out[key] = value
    return out


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.YES:
        return EXIT_YES
    if verdict is Verdict.NO:
        return EXIT_NO
    return EXIT_INDETERMINATE


# --------------------------------------------------------------------------
# Handlers.  Each returns (exit_code, result_dict, parameter_echo).


def _cmd_eval(config: RunConfig):
    query = _resolve_query(config)
    value = evaluate(query.f, query.x)
    return EXIT_YES, {"value": value}, _echo(config, query)


def _cmd_prob(config: RunConfig):
    query = _resolve_query(config, need_x=False)
    p = satisfaction_probability(query.f, config.enum_cap)
    return EXIT_YES, {"probability": _prob_json(p)}, _echo(config, query, with_x=False)


def _resolve_subset(config: RunConfig, query: RelevanceQuery) -> SubsetMask:
    if config.subset is not None:
        return _parse_subset(config.subset, query.f.arity)
    if query.s is not None:
        return query.s
    return SubsetMask.empty(query.f.arity)


def _cmd_check(config: RunConfig):
    query = _resolve_query(config)
    subset = _resolve_subset(config, query)
    p = conditional_agreement_probability(query.f, query.x, subset, config.enum_cap)
    relevant = p >= query.delta
    result = {
        "verdict": "yes" if relevant else "no",
        "probability": _prob_json(p),
        "set": list(subset.indices()),
    }
    echo = _echo(config, query, delta=str(query.delta), set=list(subset.indices()))
    return (EXIT_YES if relevant else EXIT_NO), result, echo


def _cmd_decide(config: RunConfig):
    query = _resolve_query(config)
    report = decide_relevant_input(
        query.f, query.x, query.k, query.delta, config.search_cap, config.enum_cap
    )
    result = {"verdict": report.verdict.value, "method": report.method}
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    if report.probability is not None:
        result["probability"] = _prob_json(report.probability)
    echo = _echo(config, query, k=query.k, delta=str(query.delta))
    return _verdict_exit(report.verdict), result, echo


def _cmd_minimize(config: RunConfig):
    query = _resolve_query(config)
    k_star, witness = solve_min_relevant_input(
        query.f, query.x, query.delta, config.search_cap, config.enum_cap
    )
    result = {"k": k_star, "witness": list(witness.indices())}
    echo = _echo(config, query, delta=str(query.delta))
    return EXIT_YES, result, echo


def _require_seed(query: RelevanceQuery):
    if query.seed is None:
        raise UsageError("sampling subcommands require --seed")


def _cmd_sample(config: RunConfig):
    query = _resolve_query(config)
    _require_seed(query)
    if query.gamma == 0:
        raise UsageError("sampling requires a positive --gamma")
    subset = _resolve_subset(config, query)
    outcome = sample_relevance(
        query.f, query.x, subset, query.delta, query.gamma, query.seed
    )
    result = {
        "verdict": outcome.verdict.value,
        "estimate": outcome.estimate,
        "successes": outcome.successes,
        "samples": outcome.samples,
        "threshold": str(query.delta - query.gamma / 2),
    }
    echo = _echo(
        config,
        query,
        delta=str(query.delta),
        gamma=str(query.gamma),
        seed=query.seed,
        set=list(subset.indices()),
    )
    return _verdict_exit(outcome.verdict), result, echo


def _cmd_decide_gapped(config: RunConfig):
    query = _resolve_query(config)
    _require_seed(query)
    if query.gamma == 0:
        raise UsageError("the gapped decision requires a positive --gamma")
    rounds = config.rounds if config.rounds is not None else 15
    report = decide_gapped(
        query.f,
        query.x,
        query.k,
        query.delta,
        query.gamma,
        query.seed,
        rounds=rounds,
        search_cap=config.search_cap,
    )
    result = {
        "verdict": report.verdict.value,
        "method": report.method,
        "samples_per_run": report.samples,
        "promise_dependent": report.promise_dependent,
    }
    if report.witness is not None:
        result["witness"] = list(report.witness.indices())
    echo = _echo(
        config,
        query,
        k=query.k,
        delta=str(query.delta),
        gamma=str(query.gamma),
        seed=query.seed,
        rounds=rounds,
    )
    return _verdict_exit(report.verdict), result, echo


def _cmd_greedy(config: RunConfig):
    query = _resolve_query(config)
    _require_seed(query)
    if query.gamma == 0:
        raise UsageError("the greedy solver requires a positive --gamma")
    rounds = config.rounds if config.rounds is not None else 15
    k, witness = greedy_min_relevant(
        query.f,
        query.x,
        query.delta,
        query.gamma,
        query.seed,
        rounds=rounds,
        enum_cap=config.enum_cap,
    )
    result = {"k": k, "set": list(witness.indices())}
    echo = _echo(
        config,
        query,
        delta=str(query.delta),
        gamma=str(query.gamma),
        seed=query.seed,
        rounds=rounds,
    )
    return EXIT_YES, result, echo


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


def _cmd_gadget(config: RunConfig):
    mode = config.extras["mode"]
    if mode == "pi":
        eta = _rational(config.extras["eta"])
        ell = config.extras["ell"]
        try:
            gadget = build_pi(eta, ell)
        except ValueError as err:
            raise UsageError(str(err)) from err
        echo = dict(_echo(config), eta=str(eta), ell=ell)
        return EXIT_YES, {"gadget": _gadget_json(gadget)}, echo
    d = config.extras["d"]
    delta1 = _rational(config.extras["delta1"])
    delta2 = _rational(config.extras["delta2"])
    builder = raise_probability_gadget if mode == "raise" else lower_probability_gadget
    try:
        shift = builder(d, delta1, delta2)
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = {
        "gadget": _gadget_json(shift.gadget),
        "attach": shift.attach,
        "host_arity": shift.host_arity,
    }
    if shift.interval is not None:
        result["interval"] = [str(shift.interval[0]), str(shift.interval[1])]
    echo = dict(_echo(config), d=d, delta1=str(delta1), delta2=str(delta2))
    return EXIT_YES, result, echo


_REDUCE_SOURCE_KIND = {
    "emajsat-ip1": "emajsat",
    "ip1-ip2": "ip1",
    "ip2-ri": "ip2",
    "sat-ip3": "sat",
}


def _cmd_reduce(config: RunConfig):
    step = config.extras["step"]
    want_kind = _REDUCE_SOURCE_KIND[step]
    if config.instance_path is not None:
        source = _load_problem(config.instance_path)
    elif config.formula is not None and want_kind in ("sat", "emajsat"):
        try:
            f = parse(config.formula)
        except FormulaSyntaxError as err:
            raise UsageError(str(err)) from err
        if want_kind == "sat":
            source = ProblemInstance(kind="sat", f=f)
        else:
            if config.k is None:
                raise UsageError("emajsat sources need --k")
            source = ProblemInstance(kind="emajsat", f=f, k=config.k)
    else:
        raise UsageError("provide --instance (or --formula for sat/emajsat sources)")
    if source.kind != want_kind:
        raise UsageError(
            f"step {step} needs a {want_kind} source, got {source.kind}"
        )
    try:
        if step == "emajsat-ip1":
            reduced = reduce_emajsat_to_ip1(source)
        elif step == "ip1-ip2":
            if config.delta is None:
                raise UsageError("ip1-ip2 needs --delta")
            reduced = reduce_ip1_to_ip2(source, _rational(config.delta))
        elif step == "ip2-ri":
            delta = _rational(config.delta) if config.delta else None
            reduced = reduce_ip2_to_relevant_input(source, delta)
        else:
            if config.delta is None or config.gamma is None:
                raise UsageError("sat-ip3 needs --delta and --gamma")
            reduced = reduce_sat_to_ip3(
                source.f, _rational(config.delta), _rational(config.gamma), config.m
            )
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = {"instance": reduced.to_json_dict()}
    echo = dict(
        _echo(config),
        step=step,
        source=source.to_json_dict(),
        delta=config.delta,
        gamma=config.gamma,
        m=config.m,
    )
    echo = {k: v for k, v in echo.items() if v is not None}
    return EXIT_YES, result, echo


def _cmd_verify(config: RunConfig):
    source = _load_problem(config.extras["source"])
    reduced = _load_problem(config.extras["reduced"])
    try:
        check = verify_reduction(source, reduced)
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = check.to_json_dict()
    echo = dict(
        _echo(config),
        source=config.extras["source"],
        reduced=config.extras["reduced"],
    )
    if check.skipped:
        return EXIT_INDETERMINATE, result, echo
    return (EXIT_YES if check.passed else EXIT_NO), result, echo


def _cmd_inapprox(config: RunConfig):
    try:
        record = inapprox_parameters(
            config.extras["d"],
            _rational(config.delta),
            _rational(config.gamma),
            _rational(config.extras["alpha"]),
        )
    except ValueError as err:
        raise UsageError(str(err)) from err
    echo = dict(
        _echo(config),
        d=config.extras["d"],
        delta=config.delta,
        gamma=config.gamma,
        alpha=config.extras["alpha"],
    )
    return (EXIT_YES if record.check else EXIT_NO), record.to_json_dict(), echo


def _cmd_shapley(config: RunConfig):
    query = _resolve_query(config)
    vector = shapley_values(query.f, query.x)
    result = {
        "phi": [str(v) for v in vector.values],
        "nu_full": str(vector.grand_value),
        "efficiency_check": vector.is_efficient(),
    }
    return EXIT_YES, result, _echo(config, query)


def _cmd_compile_relu(config: RunConfig):
    query = _resolve_query(config, need_x=False)
    net = compile_to_relu(query.f)
    agreement = True
    if query.f.arity <= 16:
        size = 1 << query.f.arity
        inputs = np.array(
            [[(j >> i) & 1 for i in range(query.f.arity)] for j in range(size)],
            dtype=np.int64,
        )
        outputs = net.forward_batch(inputs)
        agreement = all(
            int(outputs[j]) == evaluate(query.f, Assignment.from_index(j, query.f.arity))
            for j in range(size)
        )
    result = {
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "agreement_checked": agreement,
    }
    echo = _echo(config, query, with_x=False)
    return (EXIT_YES if agreement else EXIT_NO), result, echo


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

    def common(p, formula=True, x=False, needs_set=False, sampling=False, k=False):
        p.add_argument("--instance", help="JSON instance file")
        if formula:
            p.add_argument("--formula", help="formula text, e.g. '(x1 & x2) | !x3'")
        if x:
            p.add_argument("--x", help="assignment bitstring, leftmost bit is x1")
        if needs_set:
            p.add_argument("--set", help="comma-separated indices, empty for {}")
        if k:
            p.add_argument("--k", type=int)
        p.add_argument("--delta", help="rational threshold, 'p/q' or decimal")
        p.add_argument("--gamma", help="rational gap, 'p/q' or decimal")
        if sampling:
            p.add_argument("--seed", type=int, help="64-bit run seed")
            p.add_argument("--rounds", type=int, help="amplification rounds (odd)")
        p.add_argument("--enum-cap", type=int, dest="enum_cap")
        p.add_argument("--search-cap", type=int, dest="search_cap")
        p.add_argument("--output", help="write the report to this path")

    common(sub.add_parser("eval"), x=True)
    common(sub.add_parser("prob"))
    common(sub.add_parser("check"), x=True, needs_set=True)
    common(sub.add_parser("decide"), x=True, k=True)
    common(sub.add_parser("minimize"), x=True)
    common(sub.add_parser("sample"), x=True, needs_set=True, sampling=True)
    common(sub.add_parser("decide-gapped"), x=True, k=True, sampling=True)
    common(sub.add_parser("greedy"), x=True, sampling=True)

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
        gp.add_argument("--enum-cap", type=int, dest="enum_cap")
        gp.add_argument("--output")

    reduce_p = sub.add_parser("reduce")
    reduce_p.add_argument(
        "step", choices=("emajsat-ip1", "ip1-ip2", "ip2-ri", "sat-ip3")
    )
    reduce_p.add_argument("--instance")
    reduce_p.add_argument("--formula")
    reduce_p.add_argument("--k", type=int)
    reduce_p.add_argument("--m", type=int)
    reduce_p.add_argument("--delta")
    reduce_p.add_argument("--gamma")
    reduce_p.add_argument("--enum-cap", type=int, dest="enum_cap")
    reduce_p.add_argument("--search-cap", type=int, dest="search_cap")
    reduce_p.add_argument("--output")

    verify_p = sub.add_parser("verify")
    verify_p.add_argument("--source", required=True)
    verify_p.add_argument("--reduced", required=True)
    verify_p.add_argument("--enum-cap", type=int, dest="enum_cap")
    verify_p.add_argument("--search-cap", type=int, dest="search_cap")
    verify_p.add_argument("--output")

    inapprox = sub.add_parser("inapprox-params")
    inapprox.add_argument("--d", type=int, required=True)
    inapprox.add_argument("--delta", required=True)
    inapprox.add_argument("--gamma", required=True)
    inapprox.add_argument("--alpha", required=True)
    inapprox.add_argument("--output")

    common(sub.add_parser("shapley"), x=True)
    common(sub.add_parser("compile-relu"))
    return parser


def _env_cap(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as err:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from err


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    extras = {}
    if ns.command == "gadget":
        extras["mode"] = ns.mode
        if ns.mode == "pi":
            extras["eta"] = ns.eta
            extras["ell"] = ns.ell
        else:
            extras["d"] = ns.d
            extras["delta1"] = ns.delta1
            extras["delta2"] = ns.delta2
    elif ns.command == "reduce":
        extras["step"] = ns.step
    elif ns.command == "verify":
        extras["source"] = ns.source
        extras["reduced"] = ns.reduced
    elif ns.command == "inapprox-params":
        extras["d"] = ns.d
        extras["alpha"] = ns.alpha

    def get(name, default=None):
        return getattr(ns, name, default)

    enum_cap = get("enum_cap")
    if enum_cap is None:
        enum_cap = _env_cap("BOOLREL_ENUM_CAP", DEFAULT_ENUM_CAP)
    search_cap = get("search_cap")
    if search_cap is None:
        search_cap = _env_cap("BOOLREL_SEARCH_CAP", DEFAULT_SEARCH_CAP)
    return RunConfig(
        command=ns.command,
        formula=get("formula"),
        instance_path=get("instance"),
        x=get("x"),
        subset=get("set"),
        k=get("k"),
        m=get("m"),
        delta=get("delta"),
        gamma=get("gamma"),
        seed=get("seed"),
        rounds=get("rounds"),
        enum_cap=enum_cap,
        search_cap=search_cap,
        output=get("output"),
        extras=extras,
    )


def run(argv: list[str]) -> tuple[int, str, Optional[str]]:
    """Execute one invocation; returns (exit_code, report_text, output_path)."""
    parser = _build_parser()
    output = None
    try:
        ns = parser.parse_args(argv)
        config = _config_from_namespace(ns)
        output = config.output
        code, result, echo = _HANDLERS[config.command](config)
        report = {
            "command": config.command,
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

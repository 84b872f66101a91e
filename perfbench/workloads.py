"""Seeded query pools for the three workloads.

Each generator takes a random.Random seeded from --seed and returns the
queries of one pass: CLI argv lists plus a check that compares the report
with an answer computed in oracle.py without boolrel (returned witnesses are
also re-checked with boolrel's is_delta_relevant).  The run cycles the pass.
Instance files live under the work directory given to the generator.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

import oracle
from oracle import block, lit

YES, NO = 0, 1


@dataclass
class Query:
    kind: str
    argv: list
    # (exit code, parsed report) -> None when correct, else the reason.
    check: Callable[[int, dict], Optional[str]]
    # Write result.instance here after the call, for a later query to read.
    save: Optional[str] = None
    # Groups timings in the printed breakdown, e.g. "minimize d=20".
    label: str = ""

    def __post_init__(self):
        self.label = self.label or self.kind


def _bits(x: int, d: int) -> str:
    return "".join(str((x >> i) & 1) for i in range(d))


def _arg(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def _diff(what, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first_error(*errors) -> Optional[str]:
    return next((e for e in errors if e), None)


def _prob_error(report: dict, p: Fraction) -> Optional[str]:
    got = report["result"]["probability"]
    return _first_error(
        _diff("probability", got["fraction"], str(p)),
        _diff("dyadic", got["dyadic"], oracle.dyadic_text(p)),
    )


def _boolrel_relevance_error(formula, d, x, subset, delta) -> Optional[str]:
    """Re-check a returned set with boolrel's exact test, a code path apart
    from the search that found it."""
    from boolrel import Assignment, is_delta_relevant, parse

    ok, _ = is_delta_relevant(parse(formula, d), Assignment(x, d), list(subset),
                              delta, enum_cap=64)
    return None if ok else f"is_delta_relevant rejects {list(subset)}"


def _shuffled(rng, units: list, first: list) -> list:
    """Flatten units in seeded order; `first` opens the pass, so the set-up
    measurement always runs the same kind of query."""
    rng.shuffle(units)
    return [q for unit in [first] + units for q in unit]


def _majority_error(n: int, gap: float, rounds: int) -> float:
    """Hoeffding bound on a wrong majority over `rounds` sampled runs."""
    if gap <= 0:
        return 1.0
    eps = math.exp(-2 * n * gap * gap)
    return sum(
        math.comb(rounds, j) * eps**j
        for j in range(rounds // 2 + 1, rounds + 1)
    )


# --------------------------------------------------------------------------
# exact-explain: minimize, decide, check and shapley against a small pool of
# DNF classifiers, with the minimal witness size planted and stratified.

# One classifier per entry; only d = 12 gets shapley queries.  Search cost
# varies most between classifiers at d = 18 and 20, so those get two each,
# and shapley, whose cost hardly depends on the formula, gets four
# classifiers so that it outweighs that variation in a pass.
EXACT_DIMS = (12, 12, 12, 12, 14, 16, 18, 18, 20, 20)
EXACT_INPUTS = 4
EXACT_PLANT = (1, 2, 3, 4)
EXACT_DELTAS = (Fraction(1), Fraction(15, 16), Fraction(7, 8))
EXACT_FILLER_WIDTHS = (3, 4, 5)


def _classifier(rng, d: int):
    """DNF over overlapping variables: one rule per planted witness size
    plus filler rules, none contained in another."""
    widths = list(EXACT_PLANT) + [
        rng.choice(EXACT_FILLER_WIDTHS) for _ in range(d // 4)
    ]
    while True:
        rules = [
            [(v, rng.randint(0, 1)) for v in rng.sample(range(1, d + 1), w)]
            for w in widths
        ]
        sets = [set(r) for r in rules]
        if not any(a < b for a in sets for b in sets):
            return rules


def _satisfies(term, x: int) -> bool:
    return all(((x >> (v - 1)) & 1) == b for v, b in term)


def _planted_input(rng, terms, target: int, d: int) -> Optional[int]:
    """x satisfying rule `target` and no other rule."""
    x = rng.getrandbits(d)
    for v, b in terms[target]:
        x = (x | (1 << (v - 1))) if b else (x & ~(1 << (v - 1)))
    own = {v for v, _ in terms[target]}
    for j, term in enumerate(terms):
        if j != target and _satisfies(term, x):
            free = [(v, b) for v, b in term if v not in own]
            if not free:
                return None
            v, b = rng.choice(free)
            x ^= 1 << (v - 1)
    if any(_satisfies(t, x) for j, t in enumerate(terms) if j != target):
        return None
    return x


def exact_explain(rng, work: str) -> list:
    units = []
    first = None
    slot = 0
    for d in EXACT_DIMS:
        for _attempt in range(100):
            terms = _classifier(rng, d)
            tree = ("or", [("and", [lit(v, b) for v, b in t]) for t in terms])
            tt = oracle.table(tree, d)
            inputs = [_reference_input(rng, terms, tt, d, slot + j)
                      for j in range(EXACT_INPUTS)]
            if None not in inputs:
                break
        else:
            raise RuntimeError(f"no d={d} classifier realises the planted sizes")
        slot += EXACT_INPUTS
        for x, delta, k, witness in inputs:
            queries = _explain_queries(oracle.text(tree), tt, d, x, delta, k, witness)
            if first is None:
                first = [queries.pop(0)]
            units.extend([q] for q in queries)
    return _shuffled(rng, units, first)


def _reference_input(rng, terms, tt, d: int, slot: int):
    """(x, delta, k*, witness) whose minimal witness has the slot's planted
    size, so every seed gets the same mix of k; None if none is found."""
    plant = EXACT_PLANT[slot % len(EXACT_PLANT)]
    deltas = EXACT_DELTAS[slot % 3:] + EXACT_DELTAS[:slot % 3]
    for _attempt in range(10):
        x = _planted_input(rng, terms, EXACT_PLANT.index(plant), d)
        if x is None:
            continue
        for delta in deltas:
            k, witness = oracle.min_relevant(tt, d, x, delta)
            if k == plant:
                return x, delta, k, witness
    return None


def _explain_queries(formula, tt, d, x, delta, k, witness) -> list:
    base = ["--formula", formula, "--x", _bits(x, d)]
    darg = ["--delta", _arg(delta)]
    out = []

    def check_set(subset):
        p = oracle.agreement(tt, d, x, subset)
        want = YES if p >= delta else NO

        def check(code, report):
            return _first_error(
                _diff("exit", code, want),
                _diff("set", report["result"]["set"], list(subset)),
                _prob_error(report, p),
            )

        return Query("check", ["check"] + base + darg
                     + ["--set", ",".join(map(str, subset))], check,
                     label=f"check d={d}")

    if k >= 1:
        out.append(check_set(witness[:-1]))
    out.append(check_set(witness))

    def check_min(code, report):
        r = report["result"]
        return _first_error(
            _diff("exit", code, YES), _diff("k", r["k"], k),
            _diff("witness", r["witness"], list(witness)),
            _boolrel_relevance_error(formula, d, x, r["witness"], delta),
        )

    out.append(Query("minimize", ["minimize"] + base + darg, check_min,
                     label=f"minimize d={d} k={k}"))

    if k >= 1:
        p = oracle.agreement(tt, d, x, witness)

        def check_yes(code, report):
            r = report["result"]
            return _first_error(
                _diff("exit", code, YES),
                _diff("witness", r.get("witness"), list(witness)),
                _prob_error(report, p),
                _boolrel_relevance_error(formula, d, x, r["witness"], delta),
            )

        out.append(Query("decide", ["decide"] + base + darg
                         + ["--k", str(k)], check_yes, label=f"decide-yes d={d}"))
    if k >= 2:
        def check_no(code, report):
            return _first_error(
                _diff("exit", code, NO),
                _diff("verdict", report["result"]["verdict"], "no"),
            )

        out.append(Query("decide", ["decide"] + base + darg
                         + ["--k", str(k - 1)], check_no, label=f"decide-no d={d}"))
    if d <= 12:
        phi, nu_full = oracle.shapley(tt, d, x)

        def check_shapley(code, report):
            r = report["result"]
            return _first_error(
                _diff("exit", code, YES),
                _diff("phi", r["phi"], [str(v) for v in phi]),
                _diff("nu_full", r["nu_full"], str(nu_full)),
                _diff("efficiency", r["efficiency_check"], True),
            )

        out.append(Query("shapley", ["shapley"] + base, check_shapley,
                         label=f"shapley d={d}"))
    return out


# --------------------------------------------------------------------------
# sampled-explain: sample, decide-gapped and greedy.  Formulas are a planted
# rule OR-ed with noise blocks on disjoint variables, so every agreement
# probability is exact in oracle.cond_prob and every sampled verdict has a
# margin whose Hoeffding error bound is below 1e-9.

SAMPLE_DIMS = (40, 50, 60)
# (gamma, sets per formula).  The gamma = 1/10 queries are the largest
# group, so the median query is one of them on every seed.
SAMPLE_GAMMAS = ((Fraction(1, 5), 3), (Fraction(1, 10), 6), (Fraction(1, 20), 3))
SAMPLE_DELTAS = (Fraction(19, 20), Fraction(9, 10), Fraction(3, 4))
# (d, verdict, k).  The witness sits at a fixed search position, so each
# case does the same number of candidate checks on every seed.
GAPPED_CASES = ((16, "yes", 1), (20, "yes", 1), (16, "no", 1), (20, "no", 1),
                (16, "yes", 2))
# Greedy is the heaviest query here; three per pass keep at least ten of
# them beyond the tail percentile.
GREEDY_DIMS = (40, 40, 40)
GAPPED_DELTA, GAPPED_GAMMA, ROUNDS = Fraction(9, 10), Fraction(1, 10), 3
NOISE_BLOCK, NOISE_TERMS, NOISE_WIDTH = 8, 2, 5
MAX_ERROR = 1e-9


def _planted_or(rng, d: int, rule: list):
    """OR of the rule (satisfied by x) and noise blocks whose literals x
    all falsifies; returns (tree, x)."""
    rest = [v for v in range(1, d + 1) if v not in rule]
    rng.shuffle(rest)
    x = rng.getrandbits(d)
    kids = [("and", [lit(v, (x >> (v - 1)) & 1) for v in rule])]
    for start in range(0, len(rest), NOISE_BLOCK):
        chunk = rest[start:start + NOISE_BLOCK]
        width = min(NOISE_WIDTH, len(chunk))
        terms = [
            ("and", [lit(v, 1 - ((x >> (v - 1)) & 1))
                     for v in rng.sample(chunk, width)])
            for _ in range(NOISE_TERMS)
        ]
        kids.append(block(("or", terms)))
    return ("or", kids), x


def _fixed(x: int, subset) -> dict:
    return {v: (x >> (v - 1)) & 1 for v in subset}


def sampled_explain(rng, work: str) -> list:
    units = []
    first = None
    for d in SAMPLE_DIMS:
        rule = rng.sample(range(1, d + 1), 3)
        tree, x = _planted_or(rng, d, rule)
        base = ["--formula", oracle.text(tree), "--x", _bits(x, d)]
        for gamma, sets in SAMPLE_GAMMAS:
            for _ in range(sets):
                q = _sample_query(rng, tree, x, d, rule, gamma, base)
                if first is None:
                    first = [q]
                else:
                    units.append([q])
    for d, verdict, k in GAPPED_CASES:
        units.append([_gapped_query(rng, d, verdict, k)])
    for d in GREEDY_DIMS:
        units.append([_greedy_query(rng, d)])
    return _shuffled(rng, units, first)


def _sample_query(rng, tree, x, d, rule, gamma, base) -> Query:
    n = oracle.sample_count(gamma)
    others = [v for v in range(1, d + 1) if v not in rule]
    while True:
        keep = rng.randint(0, len(rule))
        subset = sorted(rng.sample(rule, keep) + rng.sample(others, rng.randint(0, 6)))
        p = oracle.cond_prob(tree, _fixed(x, subset))
        options = [
            delta for delta in SAMPLE_DELTAS
            if p == 1
            or _majority_error(n, float(abs(p - delta + gamma / 2)), 1) < MAX_ERROR
        ]
        if options:
            break
    delta = rng.choice(options)
    threshold = delta - gamma / 2
    want = YES if p >= threshold else NO

    def check(code, report):
        r = report["result"]
        return _first_error(
            _diff("exit", code, want),
            _diff("samples", r["samples"], n),
            _diff("threshold", r["threshold"], str(threshold)),
            _diff("estimate", r["estimate"], r["successes"] / n),
        )

    argv = ["sample"] + base + [
        "--set", ",".join(map(str, subset)), "--delta", _arg(delta),
        "--gamma", _arg(gamma), "--seed", str(rng.getrandbits(32)),
    ]
    return Query("sample", argv, check, label=f"sample d={d} n={n}")


def _candidates(d: int, k: int):
    """Subsets in the size-then-lexicographic order of the sampled search."""
    for size in range(k + 1):
        yield from combinations(range(1, d + 1), size)


def _gapped_query(rng, d: int, verdict: str, k: int) -> Query:
    n = oracle.sample_count(GAPPED_GAMMA)
    threshold = GAPPED_DELTA - GAPPED_GAMMA / 2
    rule = {("yes", 1): [d // 2], ("no", 1): [1, d // 2],
            ("yes", 2): [2, d // 2]}[verdict, k]
    witness = tuple(rule) if verdict == "yes" else None
    while True:
        tree, x = _planted_or(rng, d, rule)
        worst = 0.0
        for subset in _candidates(d, k):
            p = oracle.cond_prob(tree, _fixed(x, subset))
            if subset == witness:
                assert p == 1
                break
            worst += _majority_error(n, float(threshold - p), ROUNDS)
        if worst < MAX_ERROR:
            break

    def check(code, report):
        r = report["result"]
        return _first_error(
            _diff("exit", code, YES if witness else NO),
            _diff("witness", r.get("witness"), list(witness) if witness else None),
            _diff("samples", r["samples_per_run"], n),
        )

    argv = [
        "decide-gapped", "--formula", oracle.text(tree), "--x", _bits(x, d),
        "--k", str(k), "--delta", _arg(GAPPED_DELTA),
        "--gamma", _arg(GAPPED_GAMMA), "--rounds", str(ROUNDS),
        "--seed", str(rng.getrandbits(32)),
    ]
    return Query("decide-gapped", argv, check,
                 label=f"decide-gapped {verdict} d={d} k={k}")


def _greedy_query(rng, d: int) -> Query:
    rule = rng.sample(range(1, d + 1), 2)
    tree, x = _planted_or(rng, d, rule)
    formula = oracle.text(tree)
    floor = GAPPED_DELTA - GAPPED_GAMMA

    def check(code, report):
        r = report["result"]
        p = oracle.cond_prob(tree, _fixed(x, r["set"]))
        return _first_error(
            _diff("exit", code, YES),
            _diff("k", r["k"], len(r["set"])),
            None if len(r["set"]) >= len(rule) else "set smaller than the minimum",
            None if p >= floor else f"set {r['set']} is not {floor}-relevant",
            _boolrel_relevance_error(formula, d, x, r["set"], floor),
        )

    argv = [
        "greedy", "--formula", formula, "--x", _bits(x, d),
        "--delta", _arg(GAPPED_DELTA), "--gamma", _arg(GAPPED_GAMMA),
        "--rounds", str(ROUNDS), "--seed", str(rng.getrandbits(32)),
        "--enum-cap", "64",
    ]
    return Query("greedy", argv, check, label=f"greedy d={d}")


# --------------------------------------------------------------------------
# structured-count: a new formula per query.  prob and check on random
# 3-CNF (leaf enumeration) and on wide decomposable formulas, the gadget
# subcommands, and reduce -> verify chains through instance files.

# The pass is about as long as a run, so most queries parse a formula the
# process has not seen.  Mix: about 60% wide formulas, 30% gadgets and
# chains, 10% 3-CNF; only one d=24 prob per pass, so the tail percentile
# falls inside the d=22 prob queries.
CNF_PROB_ONLY = (24,)
CNF_DIMS = (22,) * 18 + (20,) * 36
CNF_RATIO = 4
WIDE_KINDS = ("blocks", "xor", "gadget") * 150
GADGETS = 50  # of each mode
EMAJSAT_CHAINS = 35
SAT_CHAINS = 35


def _cnf(rng, variables: list, clauses: int):
    return ("and", [
        ("or", [lit(v, rng.randint(0, 1)) for v in rng.sample(variables, 3)])
        for _ in range(clauses)
    ])


def _wide(rng, kind: str):
    """Variable-disjoint parts: 3-CNF blocks, long XOR chains, and hosts
    carrying a monotone DNF of disjoint conjunctions."""
    parts, top = [], 0

    def fresh(n):
        nonlocal top
        top += n
        return list(range(top - n + 1, top + 1))

    if kind == "blocks":
        for _ in range(rng.randint(14, 20)):
            vs = fresh(rng.randint(5, 8))
            parts.append(block(_cnf(rng, vs, len(vs))))
        return (rng.choice(["and", "or"]), parts), top
    if kind == "xor":
        for _ in range(rng.randint(2, 3)):
            vs = fresh(rng.randint(6, 8))
            parts.append(block(_cnf(rng, vs, len(vs))))
            chain = fresh(rng.randint(40, 100))
            parts.append(("xor", [lit(v, rng.randint(0, 1)) for v in chain]))
        rng.shuffle(parts)
        return (rng.choice(["and", "or"]), parts), top
    for _ in range(rng.randint(4, 6)):
        vs = fresh(rng.randint(8, 10))
        host = block(_cnf(rng, vs, 2 * len(vs)))
        pi = ("or", [("and", [lit(v) for v in fresh(w)])
                     for w in range(1, rng.randint(4, 7))])
        parts.append((rng.choice(["or", "and"]), [host, pi]))
    return ("and", parts), top


def _prob_query(formula: str, p: Fraction, label: str) -> Query:
    def check(code, report):
        return _first_error(_diff("exit", code, YES), _prob_error(report, p))

    return Query("prob", ["prob", "--formula", formula], check, label=label)


def _check_query(formula, d, x, subset, p, label, delta=Fraction(1, 2)) -> Query:
    want = YES if p >= delta else NO

    def check(code, report):
        return _first_error(_diff("exit", code, want), _prob_error(report, p))

    argv = ["check", "--formula", formula, "--x", _bits(x, d), "--set",
            ",".join(map(str, subset)), "--delta", _arg(delta)]
    return Query("check", argv, check, label=label)


def structured_count(rng, work: str) -> list:
    units = []
    first = None
    for d in CNF_PROB_ONLY + CNF_DIMS:
        tree = _cnf(rng, list(range(1, d + 1)), CNF_RATIO * d)
        formula = oracle.text(tree)
        tt = oracle.table(tree, d)
        units.append([_prob_query(formula, Fraction(tt.bit_count(), 1 << d),
                                  f"prob 3-cnf d={d}")])
        if d in CNF_PROB_ONLY:
            continue
        x = rng.getrandbits(d)
        subset = sorted(rng.sample(range(1, d + 1), rng.randint(1, 4)))
        units.append([_check_query(formula, d, x, subset,
                                   oracle.agreement(tt, d, x, subset),
                                   f"check 3-cnf d={d}")])
    for kind in WIDE_KINDS:
        tree, d = _wide(rng, kind)
        formula = oracle.text(tree)
        q = _prob_query(formula, oracle.cond_prob(tree, {}), f"prob {kind}")
        if first is None:
            first = [q]
        else:
            units.append([q])
        x = rng.getrandbits(d)
        subset = sorted(rng.sample(range(1, d + 1), d // 4))
        fixed = _fixed(x, subset)
        p1 = oracle.cond_prob(tree, fixed)
        p = p1 if oracle.evaluate(tree, x) else 1 - p1
        units.append([_check_query(formula, d, x, subset, p, f"check {kind}")])
    for _ in range(GADGETS):
        units.append([_pi_query(rng)])
        units.append([_shift_query(rng, "raise")])
        units.append([_shift_query(rng, "lower")])
    for i in range(EMAJSAT_CHAINS):
        units.append(_emajsat_chain(rng, os.path.join(work, f"emajsat{i}")))
    for i in range(SAT_CHAINS):
        units.append(_sat_chain(rng, os.path.join(work, f"sat{i}")))
    return _shuffled(rng, units, first)


def _gadget_prob_error(gadget: dict) -> Optional[str]:
    p = oracle.cond_prob(oracle.parse(gadget["formula"]), {})
    return _first_error(
        _diff("gadget probability", gadget["probability"]["fraction"], str(p)),
        _diff("gadget size", gadget["n"],
              len(oracle.variables(oracle.parse(gadget["formula"])))),
    )


def _pi_query(rng) -> Query:
    q = rng.randint(2, 64)
    eta = Fraction(rng.randint(1, q - 1), q)
    ell = rng.randint(4, 10)

    def check(code, report):
        g = report["result"]["gadget"]
        p = Fraction(g["probability"]["fraction"])
        return _first_error(
            _diff("exit", code, YES), _gadget_prob_error(g),
            None if abs(p - eta) <= Fraction(1, 1 << ell) else "accuracy",
            None if g["n"] <= ell * (ell + 3) // 2 else "size bound",
        )

    return Query("gadget", ["gadget", "pi", "--eta", _arg(eta),
                            "--ell", str(ell)], check, label="gadget pi")


def _shift_query(rng, mode: str) -> Query:
    d = rng.randint(2, 6)
    lo, hi = sorted(rng.sample(range(1, 32), 2))
    delta1, delta2 = Fraction(lo, 32), Fraction(hi, 32)

    def check(code, report):
        g = report["result"]["gadget"]
        p = Fraction(g["probability"]["fraction"])
        # The contract, for every host probability on the 2^-d grid.
        for j in range((1 << d) + 1):
            q = Fraction(j, 1 << d)
            if mode == "raise" and (q > delta1) != (q + p - q * p >= delta2):
                return f"raise biconditional fails at P(f) = {q}"
            if mode == "lower" and (q >= delta2) != (q * p > delta1):
                return f"lower biconditional fails at P(f) = {q}"
        return _first_error(_diff("exit", code, YES), _gadget_prob_error(g))

    argv = ["gadget", mode, "--d", str(d), "--delta1", _arg(delta1),
            "--delta2", _arg(delta2)]
    return Query("gadget", argv, check, label=f"gadget {mode}")


def _write(path: str, data: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _reduce_check(kind: str):
    def check(code, report):
        return _first_error(
            _diff("exit", code, YES),
            _diff("kind", report["result"]["instance"]["kind"], kind),
        )

    return check


def _verify_check(verdict: str):
    def check(code, report):
        r = report["result"]
        return _first_error(
            _diff("exit", code, YES),
            _diff("consistent", r["consistent"], True),
            _diff("source verdict", r["source_verdict"], verdict),
            _diff("reduced verdict", r["reduced_verdict"], verdict),
        )

    return check


def _emajsat_chain(rng, stem: str) -> list:
    d, k = rng.randint(3, 4), rng.randint(1, 2)
    tree = _cnf(rng, list(range(1, d + 1)), rng.randint(2, 4))
    tt = oracle.table(tree, d)
    rest = 1 << (d - k)
    yes = any(
        2 * sum((tt >> (u | (r << k))) & 1 for r in range(rest)) > rest
        for u in range(1 << k)
    )
    verdict = "yes" if yes else "no"
    src, ip1, ip2 = stem + ".json", stem + "_ip1.json", stem + "_ip2.json"
    _write(src, {"kind": "emajsat", "formula": oracle.text(tree), "k": k, "d": d})
    delta = rng.choice(["1/2", "3/4", "7/8"])
    return [
        Query("reduce", ["reduce", "emajsat-ip1", "--instance", src],
              _reduce_check("ip1"), save=ip1),
        Query("verify", ["verify", "--source", src, "--reduced", ip1],
              _verify_check(verdict)),
        Query("reduce", ["reduce", "ip1-ip2", "--instance", ip1, "--delta", delta],
              _reduce_check("ip2"), save=ip2),
        Query("verify", ["verify", "--source", ip1, "--reduced", ip2],
              _verify_check(verdict)),
    ]


def _sat_chain(rng, stem: str) -> list:
    d = rng.randint(2, 3)
    tree = _cnf(rng, list(range(1, d + 1)) * 2, rng.randint(2, 6))
    verdict = "yes" if oracle.table(tree, d) else "no"
    src, ip3 = stem + ".json", stem + "_ip3.json"
    _write(src, {"kind": "sat", "formula": oracle.text(tree), "d": d})
    return [
        Query("reduce", ["reduce", "sat-ip3", "--instance", src,
                         "--delta", "1/2", "--gamma", "1/4"],
              _reduce_check("ip3"), save=ip3),
        Query("verify", ["verify", "--source", src, "--reduced", ip3],
              _verify_check(verdict)),
    ]


WORKLOADS = {
    "exact-explain": exact_explain,
    "sampled-explain": sampled_explain,
    "structured-count": structured_count,
}

"""Command-line interface.

Every command is deterministic given its flags and seeds. Exit codes:
0 success, 1 a proposition check reported a violation, 2 input error
(unparseable document, unknown letter, bad parameter, ...).

Words on the command line are whitespace-separated letter names, so probe
letters render as they are spelled internally: check(b,q) apply(b,q) $
next_transition next_word, and the padding letter is #.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import random
import re
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    NumberlessAutomaton,
    ProbAutomaton,
    _exact,
    accept_prob,
    monte_carlo_accept,
    parse_rational,
    reach_prob,
)
from .constructions import (
    BuchiAutomaton,
    NEXT_WORD,
    _probe_support,
    buchi_reduction,
    build_simulation,
    encode_word,
    fair_coin,
    fairness_dfa,
    hat,
    instantiate_simulation,
)
from .analysis import LassoWord, SearchBudget, lasso_prob, noisy_sweep, value_lower_bound
from .documents import (
    AutomatonDocument,
    bound_transitions,
    document_to_automaton,
    parse_document,
    serialize_automaton,
)
from .dot import export_dot
from .errors import AutomatonError, DomainError, ParseError, ValidationError
from .verification import (
    PropReport,
    check_cheat_once,
    check_fair_coin,
    check_fair_coin_erasure,
    check_lower,
    check_theta,
    extract_witness,
    first_exceeding,
    random_simple_pa,
    scrambled_block,
    seesaw_case_study,
)

LAMS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
THETAS = (Fraction(1, 4), Fraction(1, 2))


def _word(text: str) -> list[str]:
    return text.split()


def _word_out(word: Sequence[str]) -> str:
    return " ".join(word) if word else "(empty)"


def _fmt(value: Fraction) -> str:
    return f"{_exact(value)} = {float(value)}"


def _parse_sets(pairs: Sequence[str]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise DomainError(f"--set expects name=value, got {pair!r}")
        out[name] = parse_rational(value)
    return out


def _load_document(path: str) -> AutomatonDocument:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path!r}: {e}") from None
    return parse_document(text)


def _load_automaton(args) -> ProbAutomaton | NumberlessAutomaton | BuchiAutomaton:
    doc = _load_document(args.automaton)
    bindings = _parse_sets(args.set)
    return document_to_automaton(doc, bindings or None)


def _load_pa(args, allow_buchi: bool = False) -> ProbAutomaton | BuchiAutomaton:
    obj = _load_automaton(args)
    if isinstance(obj, NumberlessAutomaton):
        raise ValidationError(
            "this command needs probabilities; bind the document's parameters "
            "with --set name=value"
        )
    if isinstance(obj, BuchiAutomaton) and not allow_buchi:
        return obj.automaton
    return obj


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise AutomatonError(f"cannot write {args.out!r}: {e}") from None
    else:
        sys.stdout.write(text)


def _csv_out(args, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


# --- command handlers ---------------------------------------------------------


def _cmd_eval(args) -> int:
    pa = _load_pa(args)
    print(_fmt(accept_prob(pa, _word(args.word))))
    return 0


def _cmd_reach(args) -> int:
    pa = _load_pa(args)
    targets = set(_word(args.targets))
    print(_fmt(reach_prob(pa, args.source, _word(args.word), targets)))
    return 0


def _cmd_search(args) -> int:
    pa = _load_pa(args)
    budget = SearchBudget(
        max_word_length=args.max_len,
        beam_width=args.beam,
        max_distribution_states=args.max_beliefs,
    )
    word, value = value_lower_bound(pa, budget)
    print(f"word: {_word_out(word)}")
    print(f"value: {_fmt(value)}")
    return 0


def _cmd_fair_coin(args) -> int:
    pa = _load_pa(args)
    out = fair_coin(pa, args.lam)
    _emit(args, serialize_automaton(out.automaton, name="fair-coin"))
    return 0


def _cmd_simulate_build(args) -> int:
    pa = _load_pa(args)
    sim = build_simulation(pa)
    _emit(args, serialize_automaton(sim.npa, name="simulation"))
    return 0


def _cmd_simulate_instantiate(args) -> int:
    pa = _load_pa(args)
    sim = build_simulation(pa)
    c = instantiate_simulation(sim, args.lam, args.theta)
    _emit(args, serialize_automaton(c, name="simulation-instance"))
    return 0


def _cmd_hat(args) -> int:
    support = _probe_support(_load_pa(args))[0]  # build_simulation's state order and checks
    print(_word_out(hat(_word(args.word), support.states)))
    return 0


def _cmd_encode(args) -> int:
    print(_word_out(encode_word(_word(args.word), args.k)))
    return 0


def _cmd_fairness_dfa(args) -> int:
    support = _probe_support(_load_pa(args))[0]
    checker = fairness_dfa(support.alphabet, support.states)
    _emit(args, serialize_automaton(checker, name="fairness-checker"))
    return 0


def _cmd_buchi(args) -> int:
    pa = _load_pa(args)
    _emit(args, serialize_automaton(buchi_reduction(pa), name="restart"))
    return 0


def _cmd_lasso(args) -> int:
    obj = _load_pa(args, allow_buchi=True)
    ba = obj if isinstance(obj, BuchiAutomaton) else buchi_reduction(obj)
    value = lasso_prob(ba, LassoWord(tuple(_word(args.stem)), tuple(_word(args.cycle))))
    print(_fmt(value))
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_document(args.automaton)
    bindings = _parse_sets(args.set)
    if not bindings and doc.params:
        raise ValidationError("sweep needs a center; bind parameters with --set")
    npa = document_to_automaton(doc)
    if not isinstance(npa, NumberlessAutomaton):
        raise ValidationError("sweep expects a numberless (npa) document")
    if not bindings:
        raise ValidationError("the bound document must give a probabilistic center")
    # noisy_sweep instantiates the center on npa: that is its one validation.
    center = bound_transitions(doc, bindings)
    budget = SearchBudget(max_word_length=args.max_len, beam_width=args.beam)
    points = noisy_sweep(npa, center, args.eps, args.grid, budget)
    rows = []
    for pt in points:
        offsets = (
            ";".join(f"{s}|{c}|{t}|{off}" for (s, c, t, off) in pt.offsets) or "center"
        )
        rows.append(
            [offsets, _word_out(pt.word), _exact(pt.value), repr(float(pt.value))]
        )
    _csv_out(args, ["offsets", "word", "value", "value_float"], rows)
    return 0


def _cmd_case_study(args) -> int:
    rows = seesaw_case_study(args.x, args.y, args.n_max, args.m_max, args.eps)
    hit = first_exceeding(rows)
    table = [
        [str(r.n), str(r.m), _exact(r.exact), repr(r.approx), str(int(r.exceeds))]
        for r in rows
    ]
    _csv_out(args, ["n", "m", "exact", "float", "exceeds"], table)
    if hit is not None:
        print(
            f"first exceeding 1-eps: n={hit.n} m={hit.m} value={_fmt(hit.exact)}",
            file=sys.stderr,
        )
    return 0


def _cmd_export_dot(args) -> int:
    _emit(args, export_dot(_load_automaton(args)))
    return 0


def _cmd_monte_carlo(args) -> int:
    pa = _load_pa(args)
    word = _word(args.word)
    estimate = monte_carlo_accept(pa, word, args.samples, args.seed)
    exact = accept_prob(pa, word)
    print(f"estimate: {estimate}")
    print(f"exact: {_fmt(exact)}")
    print(f"abs_error: {abs(estimate - float(exact))}")
    return 0


# --- the proposition battery ---------------------------------------------------

_PROP_KINDS = (
    "fair_coin",
    "fair_coin_erasure",
    "lower",
    "theta",
    "cheat_once",
    "upper_witness",
)

# Most trials one battery runs: about half a millisecond each, so a few seconds.
MAX_PROP_TRIALS = 10_000


def prop_battery(seed: int, trials: int) -> list[tuple[int, PropReport]]:
    """Deterministic battery cycling through the proposition oracles.

    Negative trials, or more than ``MAX_PROP_TRIALS``, raise DomainError
    before any work.
    """
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    if trials > MAX_PROP_TRIALS:
        raise DomainError(f"trials = {trials} is more than {MAX_PROP_TRIALS}")
    rng = random.Random(seed)
    pool_a = [
        random_simple_pa(rng.randrange(2**31), rng.randrange(2, 5), rng.randrange(1, 4))
        for _ in range(4)
    ]
    pool_sim = []
    for _ in range(2):
        a = random_simple_pa(rng.randrange(2**31), rng.randrange(1, 3), 1, 0.8)
        pool_sim.append((a, build_simulation(a)))
    rows: list[tuple[int, PropReport]] = []
    for trial in range(trials):
        kind = _PROP_KINDS[trial % len(_PROP_KINDS)]
        if kind == "fair_coin":
            a = rng.choice(pool_a)
            u = [rng.choice(a.alphabet) for _ in range(rng.randrange(0, 4))]
            rep = check_fair_coin(
                a,
                rng.choice(LAMS),
                rng.randrange(0, 4),
                u,
                rng.choice(a.states),
                rng.choice(a.states),
            )
        elif kind == "fair_coin_erasure":
            a = rng.choice(pool_a)
            letters = a.alphabet + ("#",)
            w = [rng.choice(letters) for _ in range(rng.randrange(0, 7))]
            rep = check_fair_coin_erasure(
                a, rng.choice(LAMS), w, rng.choice(a.states), rng.choice(a.states)
            )
        elif kind == "lower":
            a, sim = rng.choice(pool_sim)
            u = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 3))]
            rep = check_lower(
                a, rng.choice(LAMS), rng.choice(THETAS), u, rng.randrange(1, 4), sim=sim
            )
        elif kind == "theta":
            a, sim = rng.choice(pool_sim)
            letters = [c for c in sim.npa.alphabet if c != NEXT_WORD]
            u = [rng.choice(letters) for _ in range(rng.randrange(1, 8))]
            rep = check_theta(a, rng.choice(LAMS), rng.choice(THETAS), u, sim=sim)
        elif kind == "cheat_once":
            a, sim = rng.choice(pool_sim)
            u1 = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(0, 2))]
            u2 = [rng.choice(sim.b_alphabet) for _ in range(rng.randrange(1, 3))]
            blocks = [hat(u1, sim.state_order), scrambled_block(u2, sim, rng)]
            if rng.random() < 0.5:
                blocks.reverse()
            rep = check_cheat_once(
                a, rng.choice(LAMS), rng.choice(THETAS), blocks, sim=sim
            )
        else:  # upper_witness
            a, sim = rng.choice(pool_sim)
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)
            c = instantiate_simulation(sim, lam, theta)
            ell = rng.randrange(2, 4)
            rep = None
            for u in (["#"], [rng.choice(sim.b_alphabet)], []):
                w = (hat(u, sim.state_order) + [NEXT_WORD]) * ell
                if accept_prob(c, w) > theta:
                    _v, rep = extract_witness(a, lam, theta, w, sim=sim)
                    break
            if rep is None:
                rep = PropReport(
                    "upper_witness",
                    (("note", "no tested word above theta"),),
                    None,
                    None,
                    "<=",
                    "not-applicable",
                )
        rows.append((trial, rep))
    return rows


def _cmd_check_props(args) -> int:
    rows = prop_battery(args.seed, args.trials)
    table = []
    violations = 0
    for trial, rep in rows:
        if rep.verdict == "violated":
            violations += 1
        table.append(
            [
                str(trial),
                rep.proposition,
                "; ".join(f"{k}={v}" for k, v in rep.inputs),
                "" if rep.lhs is None else _exact(rep.lhs),
                "" if rep.rhs is None else _exact(rep.rhs),
                "" if rep.lhs is None else repr(float(rep.lhs)),
                "" if rep.rhs is None else repr(float(rep.rhs)),
                rep.relation,
                rep.verdict,
            ]
        )
    _csv_out(
        args,
        [
            "trial",
            "proposition",
            "inputs",
            "lhs",
            "rhs",
            "lhs_float",
            "rhs_float",
            "relation",
            "verdict",
        ],
        table,
    )
    if violations:
        print(f"{violations} violated check(s)", file=sys.stderr)
        return 1
    return 0


# --- parser --------------------------------------------------------------------


def _command(sub, name: str, help: str, func, automaton: bool = True) -> argparse.ArgumentParser:
    """Add subcommand ``name`` running ``func``, with the document flags if ``automaton``."""
    p = sub.add_parser(name, help=help)
    # Python 3.13's rule: a token starting "-" and a digit, or "-." and a digit,
    # is a value (-1/3, -1e4300, -.5), not an option; no option here is spelt so.
    p._negative_number_matcher = re.compile(r"-\.?\d")
    if automaton:
        p.add_argument("--automaton", required=True, help="automaton document (JSON)")
        p.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                       help="bind a document parameter (repeatable), e.g. --set x=3/4")
    p.set_defaults(func=func)
    return p


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write to this file instead of stdout")


@functools.cache  # one parser per process: building it costs more than a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfakit",
        description="Exact-rational probabilistic automata: constructions, analysis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "eval", "acceptance probability of a word", _cmd_eval)
    p.add_argument("--word", required=True, help="whitespace-separated letters")

    p = _command(sub, "reach", "reach probability from a source state", _cmd_reach)
    p.add_argument("--source", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--targets", required=True, help="whitespace-separated target states")

    p = _command(sub, "search", "bounded search for a high-acceptance word", _cmd_search)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--beam", type=int, default=0, help="0 = exhaustive")
    p.add_argument("--max-beliefs", type=int, default=0,
                   help="0 = the library's cap, analysis.MAX_SEARCH_BELIEFS")

    p = _command(sub, "fair-coin", "compile to the biased-coin automaton", _cmd_fair_coin)
    p.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    _add_out_flag(p)

    _add_out_flag(_command(
        sub, "simulate-build", "compile to the one-coin support automaton", _cmd_simulate_build
    ))

    p = _command(
        sub, "simulate-instantiate", "give the one coin its numbers", _cmd_simulate_instantiate
    )
    p.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    p.add_argument("--theta", type=parse_rational, required=True)
    _add_out_flag(p)

    p = _command(sub, "hat", "encode a padded word as a probe word", _cmd_hat)
    p.add_argument("--word", required=True)

    p = _command(sub, "encode", "pad each letter with 2k sharps", _cmd_encode, automaton=False)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, required=True)

    _add_out_flag(_command(
        sub, "fairness-dfa", "the deterministic probe-format checker", _cmd_fairness_dfa
    ))
    _add_out_flag(_command(
        sub, "buchi", "add the restart letter for repeated acceptance", _cmd_buchi
    ))

    p = _command(sub, "lasso", "probability of repeated acceptance on stem cycle^w", _cmd_lasso)
    p.add_argument("--stem", default="", help="whitespace-separated letters")
    p.add_argument("--cycle", required=True)

    p = _command(sub, "sweep", "word search across perturbed instantiations", _cmd_sweep)
    p.add_argument("--eps", type=parse_rational, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--beam", type=int, default=0)
    _add_out_flag(p)

    p = _command(
        sub, "check-props", "randomized proposition battery", _cmd_check_props, automaton=False
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=60)
    _add_out_flag(p)

    p = _command(
        sub, "case-study", "acceptance of (i a^n f)^m on the seesaw", _cmd_case_study,
        automaton=False,
    )
    p.add_argument("--x", type=parse_rational, required=True)
    p.add_argument("--y", type=parse_rational, required=True)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--m-max", type=int, default=4096)
    p.add_argument("--eps", type=parse_rational, default=Fraction(1, 100))
    _add_out_flag(p)

    _add_out_flag(_command(sub, "export-dot", "Graphviz rendering", _cmd_export_dot))

    p = _command(sub, "monte-carlo", "sampled acceptance vs the exact value", _cmd_monte_carlo)
    p.add_argument("--word", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # argparse reads "--flag=--" as an empty list of values; refuse it as a missing value.
    tokens = sys.argv[1:] if argv is None else argv
    if any(t.startswith("--") and t.partition("=")[2] == "--" for t in tokens):
        parser.error("an option's value may not be '--'")
    try:
        # Rational flags are parsed here, so their errors exit 2 as well.
        args = parser.parse_args(tokens)
        return args.func(args)
    except AutomatonError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

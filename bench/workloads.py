"""The benchmark workloads, built from a seed.

Each workload function does its set-up (random automata, words and, for
``cli``, document files on disk) and returns the fixed job list of one round.
Sizes are constants here and the seed draws only contents, so that every seed
costs about the same; biases have one fixed denominator. Every check compares
against a reference that shares no code with the path it checks: the oracles in
``tests/oracles.py``, a closed form, or the construction's documented shape.

Why each workload:

* ``identities`` -- the compiler-identity battery on a pool of simulation
  automata compiled once per round and then reused by every check: long probe
  words over large automata, and ``instantiate`` with its validation.
* ``cli`` -- in-process command runs on documents written at set-up; the only
  workload where ``documents`` and ``dot`` do real work, and it reuses nothing
  between jobs. Its ``search``, ``sweep``, ``lasso`` and ``case-study`` runs
  are where ``analysis`` and ``matrices`` work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pfakit
from oracles import (
    lasso_oracle,
    probe_word_valid,
    raw_accept,
    raw_reach,
    seesaw_closed_form,
)

from harness import Job

HALF = F(1, 2)
LAMS = (F(1, 3), F(1, 2), F(2, 3))
THETAS = (F(1, 4), F(1, 2))
# Biases with one fixed denominator, so that the sizes of the exact numbers,
# and with them the cost, do not depend on the seed.
EIGHTHS = tuple(F(k, 8) for k in (1, 3, 5, 7))
NEXT_WORD = "next_word"

# A Monte Carlo estimate fails its check only when it leaves the Hoeffding
# band of this confidence, so that a correct sampler fails about once in 10^9.
MC_DELTA = 1e-9


# --- references shared by the checks -------------------------------------------


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _simple_source(rng: random.Random, n_states: int, n_letters: int) -> pfakit.ProbAutomaton:
    """A random simple automaton whose initial state accepts, so that a probe
    word above theta always exists for extract_witness."""
    while True:
        a = pfakit.random_simple_pa(_seed(rng), n_states, n_letters, 0.8)
        if a.initial in a.final:
            return a


def _sim_shape(n_states: int, n_letters: int) -> tuple[int, int]:
    """(states, letters) of build_simulation's output, from the construction:
    a coin skeleton with three gadget states per move and a sink, left and
    right copies of it, five centre states, and the probe-format checker."""
    order = n_states + 3 * n_states * n_letters + 1
    base = n_letters + 1  # the source letters and '#'
    return 2 * order + 5 + 3 + 3 * order * base, 2 * base * order + 3


def _hat(word, order) -> list[str]:
    out: list[str] = []
    for b in word:
        for q in order:
            out += [f"check({b},{q})", "$", f"apply({b},{q})"]
        out.append("next_transition")
    return out


def _encode(word, k) -> list[str]:
    out: list[str] = []
    for c in word:
        out += [c] + ["#"] * (2 * k)
    return out


def _commit(lam: F, k: int) -> F:
    return 1 - (1 - 2 * lam * (1 - lam)) ** k


def _hoeffding(samples: int) -> float:
    return math.sqrt(math.log(2 / MC_DELTA) / (2 * samples))


def _report(rep) -> tuple:
    return (rep.verdict, rep.lhs, rep.rhs)


def _gamblers_ruin(start: int, top: int, up: F) -> F:
    """P(a walk from ``start`` that steps up with probability ``up`` hits
    ``top`` before 0)."""
    r = (1 - up) / up
    return (1 - r**start) / (1 - r**top)


class _Cache:
    """The last few automata a check needed, so that neighbouring jobs on
    the same input do not rebuild them; bounded so the checks add little to
    the process's peak memory."""

    def __init__(self, size: int = 2):
        self.size = size
        self.items: dict = {}

    def get(self, key, make):
        if key not in self.items:
            if len(self.items) >= self.size:
                del self.items[next(iter(self.items))]
            self.items[key] = make()
        return self.items[key]


# --- identities ----------------------------------------------------------------

# (states, letters) of the pool's sources and how many jobs of each kind run on
# each; a 3x3 source compiles to 442 states and 251 letters. The mix puts the
# median job among the (2, 1) jobs and the 90th percentile among the (2, 2)
# ones, away from the edge of either group.
ID_POOL = (
    ((2, 1), dict(lower=8, theta=7, cheat=4, witness=3, instantiate=2, mc=5, probe=3, reach=2)),
    ((2, 1), dict(lower=8, theta=7, cheat=4, witness=3, instantiate=2, mc=5, probe=3, reach=2)),
    ((2, 2), dict(lower=4, theta=3, cheat=2, witness=2, instantiate=1, mc=1, probe=2, reach=1)),
    ((3, 3), dict(lower=1, theta=0, cheat=0, witness=0, instantiate=0, mc=0, probe=0, reach=0)),
)
ID_THETA_LETTERS = 60
ID_MC_SAMPLES = 1500
ID_PROBE_LETTERS = 3  # base letters per probe block of the accept_prob and reach_prob jobs
ID_FAIR_COIN = 20  # check_fair_coin jobs on (3 states, 2 letters) sources


def identities(seed: int, workdir: Path | None = None) -> list[Job]:
    rng = random.Random(seed)
    instances = _Cache()
    coins = _Cache(8)

    def instance(sim, lam, theta):
        return instances.get((id(sim), lam, theta),
                             lambda: pfakit.instantiate_simulation(sim, lam, theta))

    def coin(a, lam):
        return coins.get((id(a), lam), lambda: pfakit.fair_coin(a, lam).automaton)

    jobs: list[Job] = []
    for i, ((n, k), mix) in enumerate(ID_POOL):
        a = _simple_source(rng, n, k)
        letters = a.alphabet + ("#",)
        shape = _sim_shape(n, k)

        def build(api, ctx, a=a, i=i):
            sim = api.build_simulation(a)
            ctx[i] = sim
            return (len(sim.npa.states), len(sim.npa.alphabet), len(sim.npa.support))

        def check_build(out, ctx, shape=shape):
            return None if out[:2] == shape else f"shape {out[:2]}, construction gives {shape}"

        jobs.append(Job("build_simulation", build, check_build))

        for _ in range(mix["lower"]):
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)
            u = [rng.choice(letters) for _ in range(rng.randrange(1, 3))]
            ell = rng.randrange(1, 4)

            def lower(api, ctx, a=a, i=i, lam=lam, theta=theta, u=u, ell=ell):
                return _report(api.check_lower(a, lam, theta, u, ell, sim=ctx[i]))

            def check_lower(out, ctx, a=a, i=i, lam=lam, theta=theta, u=u, ell=ell):
                sim = ctx[i]
                probe = (_hat(u, sim.state_order) + [NEXT_WORD]) * ell
                got = raw_accept(instance(sim, lam, theta), probe)
                want = (1 - (1 - theta ** len(u)) ** ell) * raw_accept(coin(a, lam), u)
                if out != ("equal", want, want) or got != want:
                    return f"report {out}, oracle {got}, identity {want}"
                return None

            jobs.append(Job("check_lower", lower, check_lower))

        for _ in range(mix["theta"]):
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)
            picks = [rng.random() for _ in range(ID_THETA_LETTERS)]

            def theta_cap(api, ctx, a=a, i=i, lam=lam, theta=theta, picks=picks):
                sim = ctx[i]
                pool = [c for c in sim.npa.alphabet if c != NEXT_WORD]
                u = [pool[int(p * len(pool))] for p in picks]
                return _report(api.check_theta(a, lam, theta, u, sim=sim)) + (tuple(u),)

            def check_theta(out, ctx, i=i, lam=lam, theta=theta):
                # Only next_word moves mass into the accepting track.
                got = raw_accept(instance(ctx[i], lam, theta), out[3])
                if out[:3] != ("bounded", 0, theta) or got != 0:
                    return f"report {out[:3]}, oracle {got}"
                return None

            jobs.append(Job("check_theta", theta_cap, check_theta))

        for _ in range(mix["cheat"]):
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)
            u1 = [rng.choice(letters) for _ in range(rng.randrange(0, 2))]
            u2 = [rng.choice(letters) for _ in range(rng.randrange(1, 3))]
            flip, block_seed = rng.random() < 0.5, _seed(rng)

            def cheat(api, ctx, a=a, i=i, lam=lam, theta=theta, u1=u1, u2=u2,
                      flip=flip, block_seed=block_seed):
                sim = ctx[i]
                blocks = [api.hat(u1, sim.state_order),
                          api.scrambled_block(u2, sim, random.Random(block_seed))]
                if flip:
                    blocks.reverse()
                rep = api.check_cheat_once(a, lam, theta, blocks, sim=sim)
                return _report(rep) + (dict(rep.inputs)["dishonest"], tuple(map(tuple, blocks)))

            def check_cheat(out, ctx, i=i, lam=lam, theta=theta):
                sim = ctx[i]
                verdict, lhs, rhs, dishonest, blocks = out
                words = [list(b) + [NEXT_WORD] for b in blocks]
                bad = [j for j, w in enumerate(words)
                       if not probe_word_valid(w, sim.state_order, set(sim.b_alphabet))]
                if dishonest != (",".join(map(str, bad)) or "none"):
                    return f"dishonest blocks {dishonest}, pattern oracle {bad}"
                c = instance(sim, lam, theta)
                got = raw_accept(c, sum(words, []))
                if not bad:
                    return None if (verdict, lhs) == ("not-applicable", got) else f"report {out[:3]}"
                bound = min(raw_accept(c, sum(words[j:], [])) for j in bad)
                if (verdict, lhs, rhs) != ("bounded", got, bound) or got > bound:
                    return f"report {out[:3]}, oracle {got} <= {bound}"
                return None

            jobs.append(Job("check_cheat_once", cheat, check_cheat))

        for _ in range(mix["witness"]):
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)
            sharps, ell = rng.randrange(0, 2), rng.randrange(2, 4)

            def witness(api, ctx, a=a, i=i, lam=lam, theta=theta, sharps=sharps, ell=ell):
                sim = ctx[i]
                w = (api.hat(["#"] * sharps, sim.state_order) + [NEXT_WORD]) * ell
                found, rep = api.extract_witness(a, lam, theta, w, sim=sim)
                return (found,) + _report(rep) + (tuple(w),)

            def check_witness(out, ctx, a=a, i=i, lam=lam, theta=theta):
                found, verdict, lhs, rhs, w = out
                bound = (raw_accept(instance(ctx[i], lam, theta), w) - theta) / (1 - theta)
                got = raw_accept(coin(a, lam), found)
                if (verdict, lhs, rhs) != ("bounded", bound, got) or got < bound:
                    return f"report {out[1:4]}, oracle {bound} <= {got}"
                return None

            jobs.append(Job("extract_witness", witness, check_witness))

        for _ in range(mix["instantiate"]):
            lam, theta = rng.choice(LAMS), rng.choice(THETAS)

            def inst(api, ctx, i=i, lam=lam, theta=theta):
                c = api.instantiate_simulation(ctx[i], lam, theta)
                ctx[("instance", i)] = (c, lam, theta)
                return (len(c.states), len(c.alphabet), c.delta[("coin", "$")].items())

            def check_inst(out, ctx, shape=shape, lam=lam, theta=theta):
                want = {"heads": lam * theta, "tails": (1 - lam) * theta, "skip": 1 - theta}
                if out[:2] != shape or dict(out[2]) != want:
                    return f"shape {out[:2]} coin {out[2]}, want {shape} {want}"
                return None

            jobs.append(Job("instantiate_simulation", inst, check_inst))

        # Direct evaluation of long probe words on the instance above: accept_prob
        # from the start, reach_prob from a random left-copy state.
        for _ in range(mix["probe"]):
            u = [rng.choice(letters) for _ in range(ID_PROBE_LETTERS)]
            ell = rng.randrange(3, 5)

            def probe(api, ctx, i=i, u=u, ell=ell):
                c, _lam, _theta = ctx[("instance", i)]
                w = (api.hat(u, ctx[i].state_order) + [NEXT_WORD]) * ell
                return api.accept_prob(c, w), tuple(w)

            def check_probe(out, ctx, a=a, i=i, u=u, ell=ell):
                c, lam, theta = ctx[("instance", i)]
                got = raw_accept(c, list(out[1]))
                want = (1 - (1 - theta ** len(u)) ** ell) * raw_accept(coin(a, lam), u)
                return None if out[0] == got == want else f"{out[0]}, oracle {got}, identity {want}"

            jobs.append(Job("accept_prob", probe, check_probe))

        for _ in range(mix["reach"]):
            u = [rng.choice(letters) for _ in range(ID_PROBE_LETTERS)]
            pick, ell = rng.random(), rng.randrange(2, 4)

            def reach(api, ctx, i=i, u=u, pick=pick, ell=ell):
                c, _lam, _theta = ctx[("instance", i)]
                sim = ctx[i]
                source = sim.left[sim.state_order[int(pick * len(sim.state_order))]]
                w = (api.hat(u, sim.state_order) + [NEXT_WORD]) * ell
                return api.reach_prob(c, source, w, {"D:start"}), source, tuple(w)

            def check_reach(out, ctx, i=i):
                c, _lam, _theta = ctx[("instance", i)]
                got = raw_reach(c, out[1], list(out[2]), {"D:start"})
                return None if out[0] == got else f"{out[0]}, oracle {got}"

            jobs.append(Job("reach_prob", reach, check_reach))

        for _ in range(mix["mc"]):
            u = [rng.choice(letters)]
            ell, mc_seed = rng.randrange(1, 3), _seed(rng)

            def mc(api, ctx, i=i, u=u, ell=ell, mc_seed=mc_seed):
                c, _lam, _theta = ctx[("instance", i)]
                w = (api.hat(u, ctx[i].state_order) + [NEXT_WORD]) * ell
                return api.monte_carlo_accept(c, w, ID_MC_SAMPLES, mc_seed), tuple(w)

            def check_mc(out, ctx, a=a, i=i, u=u, ell=ell):
                c, lam, theta = ctx[("instance", i)]
                exact = raw_accept(c, list(out[1]))
                want = (1 - (1 - theta ** len(u)) ** ell) * raw_accept(coin(a, lam), u)
                if exact != want or abs(out[0] - exact) > _hoeffding(ID_MC_SAMPLES):
                    return f"estimate {out[0]}, oracle {exact}, identity {want}"
                return None

            jobs.append(Job("monte_carlo_accept", mc, check_mc))

    for _ in range(ID_FAIR_COIN):
        a = pfakit.random_simple_pa(_seed(rng), 3, 2)
        lam, k = rng.choice(LAMS), rng.randrange(0, 4)
        u = [rng.choice(a.alphabet) for _ in range(rng.randrange(0, 4))]
        q, r = rng.choice(a.states), rng.choice(a.states)

        def fair(api, ctx, a=a, lam=lam, k=k, u=u, q=q, r=r):
            return _report(api.check_fair_coin(a, lam, k, u, q, r))

        def check_fair(out, ctx, a=a, lam=lam, k=k, u=u, q=q, r=r):
            got = raw_reach(coin(a, lam), q, _encode(u, k), {r})
            want = _commit(lam, k) ** len(u) * raw_reach(a, q, u, {r})
            if out != ("equal", want, want) or got != want:
                return f"report {out}, oracle {got}, identity {want}"
            return None

        jobs.append(Job("check_fair_coin", fair, check_fair))
    return jobs


# --- cli -----------------------------------------------------------------------

# Most commands take a few ms and hold the median; the seesaw searches take a
# few times longer. The compilers on (2, 1) sources take tens of ms; the
# instantiations among them hold the 90th percentile, with the sweeps and the
# case study. The compilers, the DOT export and the document round trips on
# one (2, 2) source, and the lasso on the long chain, are the tail.
CLI_TINY = 6  # sources of CLI_TINY_SIZE (states, letters)
CLI_TINY_SIZE = (2, 1)
CLI_BIG_SIZE = (2, 2)  # one source; its compiled documents are about 1.9 MB each
CLI_COMPILES = 2  # simulate-build and simulate-instantiate runs per tiny source
CLI_PBA = 2  # restart automata of (10 states, 2 letters) sources
CLI_EVALS = 26
CLI_REACHES = 12
CLI_ENCODES = 10
CLI_LASSOS = 12
CLI_DOTS = 8
CLI_SEARCHES = 6  # exhaustive seesaw searches up to CLI_SEARCH_LENGTH letters
CLI_SEARCH_LENGTH = 10
CLI_SWEEPS = 2  # noisy sweeps around seesaw centres
CLI_CASE_STUDY = (10, 256)  # (n_max, m_max); larger m prints numbers past the int-to-str limit
CLI_CHAIN = 30  # states of the gambler's-ruin chain of the one lasso on a long chain
CHAIN_UP = F(1, 3)


def _chain(n: int, start: int) -> pfakit.BuchiAutomaton:
    """Gambler's ruin on states s0..s{n-1}: letter 's' steps up with
    probability CHAIN_UP, both ends absorb, the top end accepts."""
    states = tuple(f"s{i}" for i in range(n))
    delta = {}
    for i, s in enumerate(states):
        if i in (0, n - 1):
            delta[(s, "s")] = pfakit.dirac(s)
        else:
            delta[(s, "s")] = pfakit.Distribution({states[i + 1]: CHAIN_UP, states[i - 1]: 1 - CHAIN_UP})
    top = frozenset({states[-1]})
    return pfakit.BuchiAutomaton(pfakit.ProbAutomaton(states, ("s",), states[start], delta, top), top)


def _run_cli(api, argv, out_file: Path | None = None) -> tuple[int, str, str]:
    """Run one command in this process; returns (exit code, stdout, --out file)."""
    buf = io.StringIO()
    # Notes on stderr, such as the case study's first row past 1 - eps, are dropped.
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = api.cli(argv + (["--out", str(out_file)] if out_file else []))
    written = out_file.read_text(encoding="utf-8") if out_file else ""
    return code, buf.getvalue(), written


def _value(stdout: str) -> F:
    return F(stdout.split(" = ")[0])


def _canonical(text: str) -> str | None:
    again = pfakit.serialize_document(pfakit.parse_document(text))
    return None if again == text else "document is not canonical"


def _coin_order(a) -> list[str]:
    """The coin skeleton's state order, by its naming scheme."""
    gadgets = [f"{q}@{b}{side}" for q in a.states for b in a.alphabet for side in ("", ":L", ":R")]
    return list(a.states) + gadgets + ["sink"]


def _exit_ok(out) -> str | None:
    return None if out[0] == 0 else f"exit code {out[0]}"


def _cli_job(kind: str, argv: list[str], check, out_file: Path | None = None) -> Job:
    def run(api, ctx):
        return _run_cli(api, argv, out_file)

    return Job(kind, run, lambda out, ctx: _exit_ok(out) or check(out))


def _compile_jobs(a, path: str, rng: random.Random, workdir: Path, tag: str) -> list[Job]:
    shape = _sim_shape(len(a.states), len(a.alphabet))
    build_out = workdir / f"out-sim-{tag}.json"

    def check_build(out):
        doc = json.loads(out[2])
        got = (len(doc["states"]), len(doc["alphabet"]))
        if doc["kind"] != "npa" or got != shape:
            return f"kind {doc['kind']}, shape {got}, construction gives {shape}"
        return _canonical(out[2])

    lam, theta = rng.choice(LAMS), rng.choice(THETAS)
    inst_out = workdir / f"out-inst-{tag}.json"

    def check_inst(out):
        doc = json.loads(out[2])
        coin = next(t["to"] for t in doc["transitions"] if (t["from"], t["letter"]) == ("coin", "$"))
        want = {"heads": lam * theta, "tails": (1 - lam) * theta, "skip": 1 - theta}
        got = (len(doc["states"]), len(doc["alphabet"]))
        if got != shape or {t: F(p) for t, p in coin.items()} != want:
            return f"shape {got}, coin {coin}, want {shape} {want}"
        return _canonical(out[2])

    return [
        _cli_job("simulate-build", ["simulate-build", "--automaton", path], check_build, build_out),
        _cli_job("simulate-instantiate", ["simulate-instantiate", "--automaton", path,
                                          "--lambda", str(lam), "--theta", str(theta)],
                 check_inst, inst_out),
    ]


def _source_jobs(a, path: str, rng: random.Random, workdir: Path, tag: str) -> list[Job]:
    """hat, fair-coin and buchi on one source document."""
    u = [rng.choice(a.alphabet + ("#",)) for _ in range(rng.randrange(1, 4))]
    order = _coin_order(a)
    want_hat = " ".join(_hat(u, order)) + "\n"

    def check_hat(out):
        valid = probe_word_valid(out[1].split() + [NEXT_WORD], order, set(a.alphabet + ("#",)))
        return None if out[1] == want_hat and valid else f"{out[1][:60]!r}..."

    lam = rng.choice(LAMS)
    n, k = len(a.states), len(a.alphabet)

    def check_coin(out):
        doc = json.loads(out[1])
        probs = {F(p) for t in doc["transitions"] for p in t["to"].values()}
        if len(doc["states"]) != n + 3 * n * k + 1 or not probs <= {lam, 1 - lam, F(1)}:
            return f"{len(doc['states'])} states, probabilities {sorted(probs)}"
        return _canonical(out[1])

    def check_buchi(out):
        doc = json.loads(out[2])
        restart = {t["from"]: t["to"] for t in doc["transitions"] if t["letter"] == "#"}
        want = {q: {a.initial if q in a.final else "sink": "1"} for q in a.states}
        want["sink"] = {"sink": "1"}
        if doc["kind"] != "pba" or restart != want:
            return f"kind {doc['kind']}, restart moves {restart}"
        return _canonical(out[2])

    return [
        _cli_job("hat", ["hat", "--automaton", path, "--word", " ".join(u)], check_hat),
        _cli_job("fair-coin", ["fair-coin", "--automaton", path, "--lambda", str(lam)], check_coin),
        _cli_job("buchi", ["buchi", "--automaton", path], check_buchi, workdir / f"out-buchi-{tag}.json"),
    ]


def cli(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    seesaw_text = (Path(pfakit.__file__).parent / "data" / "seesaw.json").read_text(encoding="utf-8")
    seesaw = write("seesaw.json", seesaw_text)
    sources = []
    for i in range(CLI_TINY + 1):
        a = _simple_source(rng, *(CLI_TINY_SIZE if i < CLI_TINY else CLI_BIG_SIZE))
        sources.append((a, write(f"source{i}.json", pfakit.serialize_automaton(a))))
    pbas = []
    for i in range(CLI_PBA):
        ba = pfakit.buchi_reduction(pfakit.random_simple_pa(_seed(rng), 10, 2, 0.3))
        pbas.append((ba, write(f"pba{i}.json", pfakit.serialize_automaton(ba))))
    big, _big_path = sources[-1]
    sim = pfakit.build_simulation(big)
    compiled = [write("sim.json", pfakit.serialize_automaton(sim.npa))]
    c = pfakit.instantiate_simulation(sim, rng.choice(LAMS), rng.choice(THETAS))
    compiled.append(write("instance.json", pfakit.serialize_automaton(c)))
    del sim, c

    jobs: list[Job] = []
    for i, (a, path) in enumerate(sources):
        jobs += _source_jobs(a, path, rng, workdir, str(i))
        for j in range(CLI_COMPILES if i < CLI_TINY else 1):
            jobs += _compile_jobs(a, path, rng, workdir, f"{i}-{j}")

    def bind(x, y):
        return ["--automaton", seesaw, "--set", f"x={x}", "--set", f"y={y}"]

    for _ in range(CLI_EVALS):
        x, y = rng.choice(EIGHTHS), rng.choice(EIGHTHS)
        n, m = rng.randrange(0, 6), rng.randrange(1, 5)
        word = " ".join((["i"] + ["a"] * n + ["f"]) * m)
        want = seesaw_closed_form(x, y, n, m)
        jobs.append(_cli_job(
            "eval", ["eval"] + bind(x, y) + ["--word", word],
            lambda out, want=want: None if _value(out[1]) == want else f"{out[1]!r}, closed form {want}",
        ))

    for _ in range(CLI_REACHES):
        a, path = rng.choice(sources)
        word = [rng.choice(a.alphabet) for _ in range(rng.randrange(1, 8))]
        q, targets = rng.choice(a.states), rng.sample(a.states, rng.randrange(1, len(a.states) + 1))
        want = raw_reach(a, q, word, set(targets))
        jobs.append(_cli_job(
            "reach", ["reach", "--automaton", path, "--source", q, "--word", " ".join(word),
                      "--targets", " ".join(targets)],
            lambda out, want=want: None if _value(out[1]) == want else f"{out[1]!r}, oracle {want}",
        ))

    for _ in range(CLI_ENCODES):
        word, k = [rng.choice("ifa") for _ in range(rng.randrange(1, 6))], rng.randrange(0, 4)
        want = " ".join(_encode(word, k)) + "\n"
        jobs.append(_cli_job(
            "encode", ["encode", "--word", " ".join(word), "--k", str(k)],
            lambda out, want=want: None if out[1] == want else f"{out[1]!r}, want {want!r}",
        ))

    for _ in range(CLI_LASSOS):
        if rng.random() < 0.5:
            ba, path = rng.choice(pbas)
            argv = ["lasso", "--automaton", path]
        else:
            x, y = rng.choice(EIGHTHS), rng.choice(EIGHTHS)
            ba = pfakit.buchi_reduction(pfakit.seesaw_pa(x, y))
            argv = ["lasso"] + bind(x, y)
        letters = ba.automaton.alphabet
        stem = [rng.choice(letters) for _ in range(rng.randrange(0, 3))]
        cycle = [rng.choice(letters) for _ in range(rng.randrange(1, 5))]
        want = lasso_oracle(ba.automaton, ba.accepting, stem, cycle)
        jobs.append(_cli_job(
            "lasso", argv + ["--stem", " ".join(stem), "--cycle", " ".join(cycle)],
            lambda out, want=want: None if _value(out[1]) == want else f"{out[1]!r}, oracle {want}",
        ))

    def check_search(x, y):
        pa = pfakit.seesaw_pa(x, y)
        family = max(seesaw_closed_form(x, y, n, m) for n in range(CLI_SEARCH_LENGTH)
                     for m in range(1, CLI_SEARCH_LENGTH // (n + 2) + 1))

        def check(out):
            word_line, value_line = out[1].splitlines()
            word = word_line.removeprefix("word: ").split()
            value = _value(value_line.removeprefix("value: "))
            if raw_accept(pa, word) != value:
                return f"witness accepts {raw_accept(pa, word)}, not {value}"
            if x <= y and value != HALF:
                return f"value {value}; x <= y caps every word at exactly 1/2"
            if x > y and not family <= value <= 1:
                return f"value {value} below the best (i a^n f)^m word, {family}"
            return None

        return check

    for _ in range(CLI_SEARCHES):
        x, y = rng.choice(EIGHTHS), rng.choice(EIGHTHS)
        jobs.append(_cli_job("search", ["search"] + bind(x, y) + ["--max-len", str(CLI_SEARCH_LENGTH)],
                             check_search(x, y)))

    def check_sweep(x, y):
        pa = pfakit.seesaw_pa(x, y)

        def check(out):
            rows = [line.split(",") for line in out[1].splitlines()[1:]]
            # Three free coordinates, every probability at least 1/8 > eps:
            # no grid point is dropped.
            if len(rows) != 27:
                return f"{len(rows)} points, want 27"
            for offsets, word, value, approx in rows:
                if not 0 <= F(value) <= 1 or float(F(value)) != float(approx):
                    return f"point {offsets}: value {value}, float {approx}"
            centre = [r for r in rows if r[0] == "center"]
            if len(centre) != 1 or raw_accept(pa, centre[0][1].split()) != F(centre[0][2]):
                return f"centre rows {centre}"
            return None

        return check

    for _ in range(CLI_SWEEPS):
        x, y = rng.choice(EIGHTHS), rng.choice(EIGHTHS)
        jobs.append(_cli_job("sweep", ["sweep"] + bind(x, y) + ["--eps", "1/16", "--grid", "3",
                                                               "--max-len", "7"],
                             check_sweep(x, y)))

    x, y = rng.sample(EIGHTHS, 2)
    n_max, m_max = CLI_CASE_STUDY
    want_rows = ["n,m,exact,float,exceeds"] + [
        f"{n},{m},{v},{float(v)!r},{int(v > F(99, 100))}"
        for n in range(n_max + 1) for m in (2**j for j in range(m_max.bit_length()))
        for v in [seesaw_closed_form(x, y, n, m)]
    ]
    jobs.append(_cli_job(
        "case-study", ["case-study", "--x", str(x), "--y", str(y), "--n-max", str(n_max),
                       "--m-max", str(m_max)],
        lambda out: None if out[1].splitlines() == want_rows else "rows differ from the closed form",
    ))

    start = rng.randrange(1, CLI_CHAIN - 1)
    chain = write("chain.json", pfakit.serialize_automaton(_chain(CLI_CHAIN, start)))
    want_ruin = _gamblers_ruin(start, CLI_CHAIN - 1, CHAIN_UP)
    jobs.append(_cli_job(
        "lasso", ["lasso", "--automaton", chain, "--cycle", "s"],
        lambda out: None if _value(out[1]) == want_ruin else f"{out[1]!r}, gambler's ruin gives {want_ruin}",
    ))

    def check_dot(states):
        def check(out):
            if not (out[1].startswith("digraph") and out[1].endswith("}\n")):
                return "not a digraph"
            missing = [s for s in states if f'"{s}"' not in out[1]]
            return f"states {missing} missing" if missing else None

        return check

    small_docs = [(seesaw, pfakit.seesaw_npa().states)] + [(p, a.states) for a, p in sources]
    small_docs += [(p, ba.automaton.states) for ba, p in pbas]
    for _ in range(CLI_DOTS):
        path, states = rng.choice(small_docs)
        jobs.append(_cli_job("export-dot", ["export-dot", "--automaton", path], check_dot(states)))
    sim_states = json.loads(Path(compiled[0]).read_text(encoding="utf-8"))["states"]
    jobs.append(_cli_job("export-dot", ["export-dot", "--automaton", compiled[0]], check_dot(sim_states)))

    for path in compiled:

        def round_trip(api, ctx, path=path):
            text = Path(path).read_text(encoding="utf-8")
            doc = api.parse_document(text)
            automaton = api.document_to_automaton(doc)
            again = api.serialize_document(doc)
            return again == text, len(automaton.states), again

        jobs.append(Job("round_trip", round_trip,
                        lambda out, ctx: None if out[0] else "serialize(parse(text)) != text"))

    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"identities": identities, "cli": cli}

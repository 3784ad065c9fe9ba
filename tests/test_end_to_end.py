"""End to end: a CNF or JSON file goes into ``wvg``, and the printed lines,
exit codes and the paper's closed-form indices come back.

Each command runs in process through ``cli.main``.  One test starts real
processes, for what only a process shows: that ``wvg`` writes nothing to
stderr when no test's warning filter is in force.  The last test keeps the
CI workflow from growing a second harness beside this one.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wvgcontrol import Goal, count_sat, dump_instance, exactify, expected_index, parse_dimacs
from wvgcontrol.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main

from conftest import wide_interval_instance

ROOT = Path(__file__).resolve().parents[1]

STRICT = "p cnf 5 2\n1 2 3 4 5 0\n-1 -2 3 0\n"
OR5 = "p cnf 5 1\n1 2 3 4 5 0\n"
# the second of verify.NO_INSTANCES, an (n=4, k=2) minority no-instance
NO4 = "p cnf 4 4\n1 3 4 0\n-1 3 4 0\n2 3 4 0\n-2 3 4 0\n"
DECREASE_K4 = ("--kind", "decrease", "-k", "4")
NO4_GADGET = ("--kind", "decrease", "-k", "2", "--relaxed")

# heavies 25 + 15 reach the quota exactly; the superincreasing block {4, 8}
# (granularity 2, smallest gap 4) sits above three players of weight 1,
# which outweigh its granularity but not its gap
EXACT = """\
{"weights": ["1", "25", "15", "4", "8", "1", "1", "1"], "quota": "40",
 "distinguished": 0, "budget": 1, "goal": "DECREASE",
 "bands": {"heavy": [1, 2], "blocks": [
   {"name": "Z", "kind": "SUPERINCREASING", "members": [3, 4], "granularity": "2"},
   {"name": "ones", "kind": "UNIFORM_CHAIN_LEVEL", "members": [5, 6, 7], "granularity": "1"}]}}
"""


def planted_cnf() -> str:
    """300 seeded 3-clauses over 6 variables, each true under x = 1, 0, 1, 1, 0, 0."""
    rng, planted, clauses = random.Random(1), {1, -2, 3, 4, -5, -6}, []
    while len(clauses) < 300:
        clause = {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), 3)}
        if clause & planted:
            clauses.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(["p cnf 6 300", *clauses]) + "\n"


def random_block_document(size: int) -> str:
    """One ENUMERABLE block of the first ``size`` of 31 seeded 60-bit
    weights, which the pruned pass cannot finish, and one heavy player whose
    residual is the sum of a seeded subset of the first 25 of them."""
    rng = random.Random(5)
    light = [rng.randrange(1 << 59, 1 << 60) for _ in range(31)]
    residual = sum(w for w in light[:25] if rng.random() < 0.5)
    quota = 2 * sum(light) + 2
    weights = [1, quota - 1 - residual] + light[:size]
    return json.dumps({
        "weights": [str(w) for w in weights], "quota": str(quota),
        "distinguished": 0, "budget": 1, "goal": "DECREASE",
        "bands": {"heavy": [1], "blocks": [{"name": "R", "kind": "ENUMERABLE",
                                            "members": list(range(2, size + 2)),
                                            "granularity": "1"}]}}) + "\n"


def wvg(capsys, *argv, code: int = EXIT_OK):
    """The (out, err) of ``wvg argv`` run in process, which must exit ``code``."""
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == code
    return capsys.readouterr()


def index_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("index of player 0:")]


def written(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def reduced(tmp_path_factory):
    """The gadget file ``wvg reduce`` writes for a DIMACS text and flags,
    made once per module: the strict gadget serves the index and sampled
    tests alike."""
    made = {}

    def reduce(cnf: str, *flags: str) -> Path:
        if (cnf, flags) not in made:
            folder = tmp_path_factory.mktemp("reduced")
            source, gadget = written(folder / "in.cnf", cnf), folder / "gadget.instance"
            assert main(["reduce", *flags, "-o", str(gadget), str(source)]) == EXIT_OK
            made[cnf, flags] = gadget
        return made[cnf, flags]

    return reduce


@pytest.mark.parametrize(
    "cnf, flags, goal, n, ell, pinned",
    [
        (STRICT, DECREASE_K4, Goal.DECREASE, 5, None, "11392/2^323"),
        # exactify adds two variables and triples ell
        (STRICT, ("--kind", "maintain", "-k", "4", "--ell", "1", "--exactify"), Goal.MAINTAIN,
         7, 3, "114816/2^1064"),
        # the 912-member E block is counted by the pruned pass
        (planted_cnf(), DECREASE_K4, Goal.DECREASE, 6, None, None),
        (STRICT, ("--kind", "nonincrease", "-k", "4"), Goal.NONINCREASE, 5, None, "7424/2^188"),
        # 1,701 players, 1,605 of them heavy, in one layered walk
        (OR5, ("--kind", "maintain", "-k", "4", "--ell", "3", "--exactify"), Goal.MAINTAIN,
         7, 9, "325248/2^1700"),
    ],
    ids=["strict-decrease", "strict-maintain", "planted-300", "strict-nonincrease",
         "or5-maintain"],
)
def test_the_gadget_index_meets_its_closed_form(reduced, capsys, cnf, flags, goal, n, ell,
                                                pinned):
    gadget = reduced(cnf, *flags)
    out = wvg(capsys, "index", gadget).out
    assert "engine:  layered" in out
    formula = parse_dimacs(cnf)
    if ell is not None:
        formula, _, _ = exactify(formula, 4, ell // 3)
    players = len(json.loads(gadget.read_text())["weights"])
    expected = str(expected_index(goal, 4, n, count_sat(formula), players, ell=ell))
    if pinned is not None:
        assert expected == pinned
    assert [line.split()[4] for line in index_lines(out)] == [expected]


def test_sampled_search_on_the_strict_gadget(reduced, capsys):
    gadget = reduced(STRICT, *DECREASE_K4)
    out = wvg(capsys, "control", gadget, "--mode", "sampled", "--seed", "1").out
    assert "verdict: NO-sampled" in out and "candidates evaluated: 10000" in out
    assert {
        "lowest index seen: 11108/2^321 (~ 2.60020E-93, decimal is cosmetic)",
        "highest index seen: 11384/2^319 (~ 1.06592E-92, decimal is cosmetic)",
        "sampling: 10000 trials, seed 1",
    } <= {*out.splitlines()}
    # with neither --seed nor --trials, the defaults kept on control.Sampled
    out = wvg(capsys, "control", gadget, "--mode", "sampled").out
    assert {
        "verdict: NO-sampled", "candidates evaluated: 10000",
        "sampling: 10000 trials, seed 20240817",
    } <= {*out.splitlines()}


@pytest.mark.parametrize(
    "flags, lines, witness",
    [
        # restricted mode walks the deletions of the named groups' players only
        (["--mode", "restricted", "--groups", "A,E,S,Z*"], {
            "verdict: NO-exhaustive", "candidates evaluated: 742",
            "lowest index seen: 528/2^117 (~ 3.17778E-33, decimal is cosmetic)",
            "highest index seen: 522/2^115 (~ 1.25667E-32, decimal is cosmetic)",
        }, None),
        # seeded draws keep the first representation of each extreme they meet
        (["--mode", "sampled", "--seed", "13"], {
            "verdict: NO-sampled", "candidates evaluated: 10000",
            "lowest index seen: 132/2^115 (~ 3.17778E-33, decimal is cosmetic)",
            "highest index seen: 526/2^115 (~ 1.26630E-32, decimal is cosmetic)",
        }, None),
        # a sampled YES reports the first witness in draw order
        (["--goal", "nonincrease", "--mode", "sampled", "--seed", "13"],
         {"verdict: YES", "candidates evaluated: 28"}, r"\(players \[3, 4\]\)$"),
    ],
    ids=["restricted", "sampled", "sampled-yes"],
)
def test_searches_on_the_no_instance_gadget(reduced, capsys, flags, lines, witness):
    out = wvg(capsys, "control", *flags, reduced(NO4, *NO4_GADGET)).out
    assert lines <= {*out.splitlines()}
    if witness is not None:
        assert re.search(witness, out, re.MULTILINE)


def test_an_unstructured_block_is_refused_past_30_members_else_counted_by_mitm(tmp_path,
                                                                              capsys):
    wide = written(tmp_path / "random31.instance", random_block_document(31))
    assert "limit 30" in wvg(capsys, "index", "--engine", "layered", wide, code=EXIT_BUDGET).err
    narrow = written(tmp_path / "random25.instance", random_block_document(25))
    layered, mitm = (index_lines(wvg(capsys, "index", "--engine", engine, narrow).out)
                     for engine in ("layered", "mitm"))
    assert layered == mitm != []


def test_exact_band_rules_give_the_enum_index(tmp_path, capsys):
    exact = written(tmp_path / "exact.instance", EXACT)
    layered, enum = (index_lines(wvg(capsys, "index", "--engine", engine, exact).out)
                     for engine in ("layered", "enum"))
    assert layered[0].startswith("index of player 0: 3/2^7 ")
    assert layered == enum


# A maintain search deletes one player, members of Z among them, and the
# layered scorer recounts the shrunk superincreasing block.  With heavy 25,
# Z's only target is 12, above either survivor's weight, so the recount is 0
# uncounted; with heavy 29 it is 8, which deleting player 3 leaves for
# count_block on the block {8}.
@pytest.mark.parametrize("heavy", ["25", "29"])
def test_a_maintain_search_recounts_a_shrunk_superincreasing_block(tmp_path, capsys, heavy):
    exact = written(tmp_path / "exact.instance", EXACT.replace('"25"', f'"{heavy}"'))
    summary = re.compile("(verdict|lowest index seen|highest index seen|candidates evaluated):")
    layered, enum = (
        [line for line in wvg(capsys, "control", "--goal", "maintain", "--engine", engine,
                              exact).out.splitlines() if summary.match(line)]
        for engine in ("layered", "enum")
    )
    assert len(layered) == 4 and "verdict: NO-exhaustive" in layered
    assert layered == enum


# A decrease search deletes heavy 25; its witness is recounted on the
# restricted band system and confirmed by a second engine.
@pytest.mark.parametrize("engine, second", [("auto", "enum"), ("enum", "mitm")])
def test_a_decrease_witness_is_confirmed_by_a_second_engine(tmp_path, capsys, engine, second):
    exact = written(tmp_path / "exact.instance", EXACT)
    out = wvg(capsys, "control", "--goal", "decrease", "--engine", engine, exact).out
    assert {
        "verdict: YES", "witness: delete 1 x weight 25 (players [1])",
        f"witness re-verified with the {second} engine",
    } <= {*out.splitlines()}


def test_exhaustive_control_refuses_an_unread_seed_before_the_echo(tmp_path, capsys):
    path = written(tmp_path / "wide-interval.instance", dump_instance(wide_interval_instance()))
    assert wvg(capsys, "control", path, "--mode", "exhaustive", "--seed", "1",
               code=EXIT_INPUT).out == ""


def test_auto_picks_the_weight_table_on_a_small_weight_bare_game(tmp_path, capsys):
    document = {"weights": [str(w) for w in range(1, 35)], "quota": "400"}
    path = written(tmp_path / "bare34.game", json.dumps(document) + "\n")
    assert "engine:  dp" in wvg(capsys, "index", "--player", "0", path).out
    # enumeration refuses 33 co-players under its default budget
    err = wvg(capsys, "index", "--player", "0", "--engine", "enum", path, code=EXIT_BUDGET).err
    assert "max_enum_players" in err


def test_the_sampled_suite_searches_with_the_flags_it_is_given(capsys):
    out = wvg(capsys, "verify", "no-direction-sampled", "--seed", "13", "--trials", "2000").out
    assert "[evaluated 2000]" in out
    assert "all checks passed" in out.splitlines()


def test_wvg_writes_nothing_to_stderr(tmp_path):
    """Every suite, and the maintain gadget whose construction note is for
    library callers, in a real process under the default warning filters."""
    cnf = written(tmp_path / "strict.cnf", STRICT)
    maintain = ["reduce", "--kind", "maintain", "-k", "4", "--ell", "1", "--exactify",
                "-o", str(tmp_path / "maintain.instance"), str(cnf)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (["verify", "all"], maintain):
        done = subprocess.run([sys.executable, "-m", "wvgcontrol.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (EXIT_OK, ""), argv


CI_RUNS = [
    "python -m pip install pytest hypothesis",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --durations=10"
    " --continue-on-collection-errors",
    "python perfbench/run.py --workload all --seed 1 --seconds 2 --trace 1",
]


def test_ci_runs_tier1_and_the_benchmark_smoke_run_only():
    """Output checks live in this module, which tier-1 runs, and nowhere else."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert 'python-version: ["3.10", "3.11", "3.12", "3.13"]' in text
    runs = re.findall(r"^ *(?:- )?run: (.*)$", text, re.MULTILINE)
    steps = re.findall(r"^ *- name: (.*)\n *run: (.*)$", text, re.MULTILINE)
    extra = [name for name, run in steps if run not in CI_RUNS]
    assert runs == CI_RUNS, f"steps past tier-1 and the benchmark smoke run: {extra}"

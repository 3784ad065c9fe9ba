"""Command-line surface: outputs, file round-trips, exit codes."""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import warnings
from pathlib import Path

import pytest

from wvgcontrol import (
    CnfFormula,
    ControlInstance,
    ExactIndex,
    Game,
    Goal,
    build_decrease,
    build_nonincrease,
    count_sat,
    dump_game,
    dump_instance,
    expected_index,
    load_instance,
    parse_dimacs,
)
from wvgcontrol import verify
from wvgcontrol.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    _fraction_line,
    build_parser,
    main,
)
from wvgcontrol.errors import InputError
from wvgcontrol.gadgets import GadgetConstructionNote
from wvgcontrol.verify import SuiteOptions

from conftest import run_suite, wide_interval_instance

pytestmark = pytest.mark.filterwarnings("ignore::wvgcontrol.gadgets.GadgetConstructionNote")


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.game"
    path.write_text(dump_game(Game((1, 2, 2, 2, 3, 3), 8)))
    return path


@pytest.fixture
def or2_cnf(tmp_path):
    path = tmp_path / "or2.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    return path


class TestIndexCommand:
    def test_worked_example(self, example1_file, capsys):
        assert main(["index", str(example1_file), "--player", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "8/2^5" in out
        assert "0.25" in out

    def test_echoes_the_command_it_ran(self, example1_file, capsys):
        argv = ["index", str(example1_file), "--player", "1"]
        assert main(argv) == EXIT_OK
        assert f"command: {' '.join(argv)}\n" in capsys.readouterr().out

    def test_zero_weight_player(self, tmp_path, capsys):
        path = tmp_path / "dummy.game"
        path.write_text(dump_game(Game((0, 1, 1), 2)))
        assert main(["index", str(path), "--player", "0"]) == EXIT_OK
        assert "0/2^2" in capsys.readouterr().out

    def test_player_required_for_bare_game(self, example1_file, capsys):
        assert main(["index", str(example1_file)]) == EXIT_INPUT

    def test_missing_file(self, capsys):
        assert main(["index", "/nonexistent.game", "--player", "0"]) == EXIT_INPUT

    def test_budget_refusal_exit_code(self, tmp_path, capsys):
        path = tmp_path / "wide.game"
        path.write_text(dump_game(Game(tuple(range(1, 31)), 100)))
        code = main(
            ["index", str(path), "--player", "0", "--engine", "enum", "--budget-enum", "4"]
        )
        assert code == EXIT_BUDGET

    def test_unallocatable_dp_table_exit_code(self, tmp_path, capsys):
        # 10**14 one-byte cells: the allocation fails at once, never runs
        path = tmp_path / "huge.game"
        path.write_text(dump_game(Game((10**14,) * 3 + (1,), 10**14)))
        code = main(
            ["index", str(path), "--player", "3", "--engine", "dp",
             "--budget-dp-quota", str(10**15)]
        )
        assert code == EXIT_BUDGET
        assert "quota 100000000000000 (max_dp_quota=" in capsys.readouterr().err

    def test_auto_answers_past_the_layered_interval_width(self, tmp_path, capsys):
        path = tmp_path / "wide-interval.instance"
        path.write_text(dump_instance(wide_interval_instance()))
        assert main(["index", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "engine:  enum\n" in out and "index of player 0: 8/2^4 " in out
        assert main(["index", str(path), "--engine", "layered"]) == EXIT_BUDGET
        assert "limit 4096" in capsys.readouterr().err

    def test_layered_engine_on_a_bare_game_exits_3(self, example1_file, capsys):
        code = main(["index", str(example1_file), "--player", "1", "--engine", "layered"])
        assert code == EXIT_BUDGET
        assert "band metadata" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["auto", "dp"])
    def test_refusal_names_a_quota_past_the_int_str_digit_limit(self, tmp_path, capsys, engine):
        path = tmp_path / "wide.game"
        path.write_text(dump_game(Game(tuple(range(1, 51)), 10**5000)))
        code = main(["index", str(path), "--player", "0", "--engine", engine])
        assert code == EXIT_BUDGET
        assert "quota 1" + "0" * 5000 in capsys.readouterr().err


class TestReduceAndIndex:
    def test_reduce_roundtrip_and_layered_index(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "dec.instance"
        assert (
            main(
                [
                    "reduce",
                    str(or2_cnf),
                    "--kind",
                    "decrease",
                    "-k",
                    "1",
                    "--relaxed",
                    "-o",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        instance = load_instance(out.read_text())
        assert instance.game.num_players == 41
        # the CLI auto-selects the layered engine for banded instances
        assert main(["index", str(out)]) == EXIT_OK
        output = capsys.readouterr().out
        assert "layered" in output
        assert "36/2^40" in output

    def test_reduce_strict_rejects_small_k(self, or2_cnf, tmp_path):
        out = tmp_path / "dec.instance"
        code = main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "-o", str(out)])
        assert code == EXIT_INPUT

    def test_reduce_maintain_with_exactify(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "mnt.instance"
        code = main(
            [
                "reduce",
                str(or2_cnf),
                "--kind",
                "maintain",
                "-k",
                "1",
                "--ell",
                "1",
                "--exactify",
                "--relaxed",
                "-o",
                str(out),
            ]
        )
        assert code == EXIT_OK
        instance = load_instance(out.read_text())
        assert instance.meta["ell"] == 3

    def test_reduce_nonincrease(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "non.instance"
        command = ["reduce", str(or2_cnf), "--kind", "nonincrease", "-k", "1", "--relaxed",
                   "-o", str(out)]
        assert main(command) == EXIT_OK
        assert "kind:    nonincrease (relaxed mode)" in capsys.readouterr().out
        expected = build_nonincrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
        assert out.read_text() == dump_instance(expected)

    def test_reduce_emits_bit_exact_game(self, or2_cnf, tmp_path):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        document = json.loads(out.read_text())
        reloaded = load_instance(out.read_text())
        assert [str(w) for w in reloaded.game.weights] == document["weights"]

    def test_reduce_writes_weights_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # 300 clauses over 6 variables: 2,138 players, weights of ~4,800 digits
        rng = random.Random(1)
        lines = ["p cnf 6 300"]
        for _ in range(300):
            literals = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 7), 3)]
            lines.append(" ".join(map(str, literals)) + " 0")
        cnf, out = tmp_path / "wide.cnf", tmp_path / "wide.instance"
        cnf.write_text("\n".join(lines) + "\n")
        code = main(["reduce", str(cnf), "--kind", "decrease", "-k", "4", "-o", str(out)])
        assert code == EXIT_OK
        assert "players: 2138" in capsys.readouterr().out
        # the 912-member E block is counted by the pruned pass
        assert main(["index", str(out)]) == EXIT_OK
        xi = count_sat(parse_dimacs(cnf.read_text()))
        expected = expected_index(Goal.DECREASE, 4, 6, xi, 2138)
        assert _fraction_line("index of player 0", expected) in capsys.readouterr().out.splitlines()


class TestControlCommand:
    def test_bare_game_with_flags(self, example1_file, capsys):
        code = main(
            [
                "control",
                str(example1_file),
                "--player",
                "1",
                "--deletions",
                "1",
                "--goal",
                "decrease",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: YES" in out
        assert "weight 3" in out

    def test_no_verdict_still_exit_zero(self, example1_file, capsys):
        code = main(
            [
                "control",
                str(example1_file),
                "--player",
                "1",
                "--deletions",
                "0",
                "--goal",
                "decrease",
            ]
        )
        assert code == EXIT_OK
        assert "verdict: NO-exhaustive" in capsys.readouterr().out

    def test_instance_file_restricted(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        code = main(["control", str(out), "--mode", "restricted", "--groups", "A"])
        assert code == EXIT_OK
        assert "verdict: YES" in capsys.readouterr().out

    def test_restricted_group_the_instance_lacks_exits_2(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        code = main(["control", str(out), "--mode", "restricted", "--groups", "A,Q"])
        assert code == EXIT_INPUT
        assert "'Q'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, code, named",
        [
            (["--deletions", "3"], EXIT_INPUT, "--deletions"),
            (["--player", "5"], EXIT_INPUT, "--player"),
            (["--player", "0", "--deletions", "1"], EXIT_OK, None),
        ],
    )
    def test_instance_document_flags_must_match_the_document(
        self, or2_cnf, tmp_path, capsys, flags, code, named
    ):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        capsys.readouterr()
        assert main(["control", str(out), *flags]) == code
        captured = capsys.readouterr()
        if named is None:
            assert "verdict: YES" in captured.out
        else:
            assert named in captured.err and not captured.out

    def test_sampled_mode(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        code = main(
            ["control", str(out), "--mode", "sampled", "--trials", "25", "--seed", "5"]
        )
        assert code == EXIT_OK
        assert "sampling: 25 trials, seed 5" in capsys.readouterr().out

    def test_goal_flag_overrides_the_instance_documents_goal(self, or2_cnf, tmp_path, capsys):
        out = tmp_path / "dec.instance"
        main(["reduce", str(or2_cnf), "--kind", "decrease", "-k", "1", "--relaxed", "-o", str(out)])
        capsys.readouterr()
        assert main(["control", str(out), "--goal", "nonincrease"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert {"goal:    NONINCREASE", "verdict: YES", "candidates evaluated: 21"} <= {*lines}


class TestOracleCommand:
    def test_count_sat(self, or2_cnf, capsys):
        assert main(["oracle", "count-sat", str(or2_cnf)]) == EXIT_OK
        assert "#SAT = 3" in capsys.readouterr().out

    def test_e_minority(self, or2_cnf, capsys):
        assert main(["oracle", "e-minority-sat", str(or2_cnf), "--k", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: YES" in out
        assert "witness prefix: 0" in out

    def test_e_exact_needs_parameters(self, or2_cnf):
        assert main(["oracle", "e-exact-sat", str(or2_cnf)]) == EXIT_INPUT

    @pytest.mark.parametrize("ell", ["0", "-1"])
    def test_e_exact_refuses_an_ell_below_one_by_its_flag(self, or2_cnf, capsys, ell):
        command = ["oracle", "e-exact-sat", str(or2_cnf), "--k", "1", "--ell", ell]
        assert main(command) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"--ell must be at least 1, got {ell}" in err
        assert "allow_zero" not in err

    def test_e_exact(self, or2_cnf, capsys):
        # x1 = 0 leaves exactly one suffix (x2 = 1) satisfying x1 v x2
        assert main(["oracle", "e-exact-sat", str(or2_cnf), "--k", "1", "--ell", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: YES" in out
        assert "witness prefix: 0" in out

    def test_problem_line_count_past_the_int_str_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.cnf"
        path.write_text("p cnf 1 " + "9" * 5000 + "\n1 0\n")
        assert main(["oracle", "count-sat", str(path)]) == EXIT_INPUT
        assert "line 1: problem line count has too many digits" in capsys.readouterr().err

    def test_tautology_errors_without_flag(self, tmp_path):
        path = tmp_path / "taut.cnf"
        path.write_text("p cnf 2 2\n1 -1 2 0\n1 2 0\n")
        assert main(["oracle", "count-sat", str(path)]) == EXIT_INPUT
        assert main(["oracle", "count-sat", str(path), "--strip-tautologies"]) == EXIT_OK


# Each subcommand accepts only the flags it reads; argparse rejects the rest.
@pytest.mark.parametrize(
    "command, flag",
    [
        (["verify", "example1"], ["--engine", "dp"]),
        (["verify", "example1"], ["--strip-tautologies"]),
        (["oracle", "count-sat", "CNF"], ["--budget-enum", "3"]),
        (["oracle", "count-sat", "CNF"], ["--seed", "3"]),
        (["index", "GAME", "--player", "1"], ["--seed", "3"]),
        (["index", "GAME", "--player", "1"], ["--relaxed"]),
        (["reduce", "CNF", "--kind", "decrease", "-k", "1", "--relaxed", "-o", "OUT"],
         ["--engine", "enum"]),
        (["control", "GAME", "--player", "1", "--deletions", "1", "--goal", "decrease"],
         ["--strip-tautologies"]),
    ],
    ids=[
        "verify-engine",
        "verify-strip",
        "oracle-budget",
        "oracle-seed",
        "index-seed",
        "index-relaxed",
        "reduce-engine",
        "control-strip",
    ],
)
def test_unread_flag_is_rejected(example1_file, or2_cnf, tmp_path, capsys, command, flag):
    files = {"GAME": str(example1_file), "CNF": str(or2_cnf), "OUT": str(tmp_path / "x")}
    with pytest.raises(SystemExit) as exit_info:
        main([files.get(arg, arg) for arg in command + flag])
    assert exit_info.value.code == EXIT_INPUT
    assert flag[0] in capsys.readouterr().err


# A sampled NO drawn from no candidates is no evidence, so it is refused.
@pytest.mark.parametrize(
    "command",
    [
        ["control", "GAME", "--player", "1", "--deletions", "1", "--goal", "decrease",
         "--mode", "sampled", "--trials", "-3"],
        ["verify", "no-direction-sampled", "--trials", "0"],
    ],
    ids=["control-negative", "verify-zero"],
)
def test_sampled_search_without_trials_exits_2(example1_file, capsys, command):
    assert main([str(example1_file) if arg == "GAME" else arg for arg in command]) == EXIT_INPUT
    assert "at least one trial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["verify", "all"]],
    ids=["verify"],
)
def test_seed_and_trials_default_to_the_suite_options(command):
    args = build_parser().parse_args(command)
    defaults = SuiteOptions()
    assert (args.seed, args.trials) == (defaults.seed, defaults.trials)


def test_control_samples_with_the_suite_options_unless_given(command_files, capsys):
    """``control`` leaves --seed and --trials unset, so that it can refuse
    them outside sampled mode; sampled mode fills in the suite's defaults."""
    args = build_parser().parse_args(["control", "GAME"])
    assert (args.seed, args.trials) == (None, None)
    files, _ = command_files
    defaults = SuiteOptions()
    for flags, seed, trials in (
        ([], defaults.seed, defaults.trials),
        (["--seed", "5"], 5, defaults.trials),
        (["--trials", "25"], defaults.seed, 25),
    ):
        assert main(["control", files["INSTANCE"], "--mode", "sampled", *flags]) == EXIT_OK
        assert f"sampling: {trials} trials, seed {seed}\n" in capsys.readouterr().out


def test_verify_all_refuses_zero_trials_before_any_suite(capsys):
    assert main(["verify", "all", "--trials", "0"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err
    assert "== suite" not in captured.out


class TestDocumentLoading:
    def test_document_is_parsed_once(self, example1_file, monkeypatch, capsys):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
        assert main(["index", str(example1_file), "--player", "1"]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"weights": ["1"]}'])
    def test_error_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "broken.game"
        path.write_text(text)
        assert main(["index", str(path), "--player", "0"]) == EXIT_INPUT
        assert str(path) in capsys.readouterr().err


INPUT_COMMANDS = {
    "index": ["index", "FILE", "--player", "0"],
    "control": ["control", "FILE", "--player", "0", "--deletions", "1", "--goal", "decrease"],
    "reduce": ["reduce", "FILE", "--kind", "decrease", "-k", "1", "--relaxed", "-o", "OUT"],
    "oracle": ["oracle", "count-sat", "FILE"],
}


def _run_on(command, path, tmp_path):
    files = {"FILE": str(path), "OUT": str(tmp_path / "out.instance")}
    return main([files.get(arg, arg) for arg in INPUT_COMMANDS[command]])


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, command):
    path = tmp_path / "latin1.input"
    path.write_bytes(b"\xff" + b"p cnf 2 1\n1 2 0\n")
    assert _run_on(command, path, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err
    assert "UTF-8" in err


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_echoed_digest_is_of_the_one_read(example1_file, or2_cnf, tmp_path, monkeypatch,
                                          capsys, command):
    path = or2_cnf if command in ("reduce", "oracle") else example1_file
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
    monkeypatch.setattr(Path, "read_text", lambda self, *args, **kwargs: pytest.fail("read_text"))
    assert _run_on(command, path, tmp_path) == EXIT_OK
    monkeypatch.undo()
    assert reads == [path]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert f"(sha256/16 {digest})" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["index", "control"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.game"
    path.write_text("[" * 100_000)
    assert _run_on(command, path, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "nested too deeply" in err
    assert str(path) in err


@pytest.mark.parametrize("command", ["oracle", "reduce"])
def test_dimacs_error_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "long.cnf"
    path.write_text("p cnf 1 " + "9" * 5000 + "\n1 0\n")
    assert _run_on(command, path, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: {path}: line 1: problem line count has too many digits" in err


def test_fraction_line_prints_a_count_past_the_int_str_digit_limit():
    line = _fraction_line("index", ExactIndex(10**5000, 3))
    assert line.startswith("index: 1" + "0" * 5000 + "/2^3 (~ 1.25")


# (name, passed, detail) of every check ``wvg verify all`` makes under the
# default options, suite by suite
MATCHES = "layered count matches closed form and per-case split"
VERIFY_ALL_REPORT = {
    "closed-forms": [
        (f"decrease gadget (k=1, n=2): {MATCHES}", True, "10/10"),
        (f"decrease gadget (k=1, n=3): {MATCHES}", True, "10/10"),
        (f"decrease gadget (k=2, n=3): {MATCHES}", True, "10/10"),
        (f"nonincrease gadget (k=1, n=2): {MATCHES}", True, "10/10"),
        (f"nonincrease gadget (k=1, n=3): {MATCHES}", True, "10/10"),
        (f"nonincrease gadget (k=2, n=3): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=2, ell=3): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=2, ell=5): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=2, ell=6): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=3, ell=3): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=3, ell=5): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=1, n=3, ell=6): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=2, n=3, ell=3): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=2, n=3, ell=5): {MATCHES}", True, "10/10"),
        (f"maintain gadget (k=2, n=3, ell=6): {MATCHES}", True, "10/10"),
        ("strict decrease gadget (k=4, n=5, xi=31): layered numerator is 11904 over 2^317", True,
         "count=11904, players=318"),
        ("relaxed (k=1, n=2) gadget: every heavy player's layered block product equals the raw "
         "subset-sum count of the light players", True, ""),
    ],
    "exactify": [
        ("exact-count equivalence phi ~ phi' over 298 (formula, k, ell) triples", True, "298/298"),
        ("3*ell is never a power of two (ell up to 512)", True, ""),
    ],
    "example1": [
        ("six-player game: index of a weight-2 player is 8/2^5 = 1/4", True, ""),
        ("after deleting a weight-3 player the index drops to 3/2^4", True, ""),
        ("after deleting a weight-2 player the index stays 1/4", True, ""),
    ],
    "no-direction-sampled": [
        ("(n=3, k=1) source instance is a minority no-instance", True, ""),
        ("(n=3, k=1) exhaustive A-only search finds no decreasing deletion", True, "3 candidates"),
        ("(n=4, k=2) source instance is a minority no-instance", True, ""),
        ("(n=4, k=2) exhaustive A-only search finds no decreasing deletion", True, "11 candidates"),
        ("10000 seeded random deletion multisets (size <= 2) find no decreasing deletion "
         "[sampled evidence, not a proof]", True, "evaluated 10000"),
    ],
    "prereduction": [
        ("#SubsetSum(A+B+C, q') == #SAT on 50 random formulas", True, "50/50"),
        ("#SubsetSum(E, q'') == #SAT on 50 random formulas", True, "50/50"),
    ],
    "yes-direction": [
        ("minority witnesses strictly decrease the index on 8 decrease gadgets", True, "8/8"),
        ("minority witnesses never increase the index on 8 nonincrease gadgets", True, "8/8"),
        ("exact-count witnesses maintain the index exactly on 8 maintain gadgets", True, "8/8"),
    ],
}


def test_every_suite_reports_its_checks_unchanged():
    assert sorted(VERIFY_ALL_REPORT) == sorted(verify.SUITES)
    for name, expected in VERIFY_ALL_REPORT.items():
        checks = run_suite(name)
        assert [(check.name, check.passed, check.detail) for check in checks] == expected, name


# the same under SuiteOptions(seed=13, trials=2000): the seed moves the draws of
# exactify and yes-direction, and the trial count the sampled search
VERIFY_SEED13_REPORT = {
    "closed-forms": VERIFY_ALL_REPORT["closed-forms"],
    "exactify": [
        ("exact-count equivalence phi ~ phi' over 340 (formula, k, ell) triples", True, "340/340"),
        ("3*ell is never a power of two (ell up to 512)", True, ""),
    ],
    "example1": VERIFY_ALL_REPORT["example1"],
    "no-direction-sampled": [
        ("(n=3, k=1) source instance is a minority no-instance", True, ""),
        ("(n=3, k=1) exhaustive A-only search finds no decreasing deletion", True, "3 candidates"),
        ("(n=4, k=2) source instance is a minority no-instance", True, ""),
        ("(n=4, k=2) exhaustive A-only search finds no decreasing deletion", True, "11 candidates"),
        ("2000 seeded random deletion multisets (size <= 2) find no decreasing deletion "
         "[sampled evidence, not a proof]", True, "evaluated 2000"),
    ],
    "prereduction": VERIFY_ALL_REPORT["prereduction"],
    "yes-direction": [
        ("minority witnesses strictly decrease the index on 8 decrease gadgets", True, "8/8"),
        ("minority witnesses never increase the index on 8 nonincrease gadgets", True, "8/8"),
        ("exact-count witnesses maintain the index exactly on 6 maintain gadgets", True, "6/6"),
    ],
}


def test_every_suite_reports_its_checks_at_a_second_seed():
    assert sorted(VERIFY_SEED13_REPORT) == sorted(verify.SUITES)
    options = SuiteOptions(seed=13, trials=2000)
    for name, expected in VERIFY_SEED13_REPORT.items():
        checks = run_suite(name, options)
        assert [(check.name, check.passed, check.detail) for check in checks] == expected, name


def test_every_suite_is_a_generator_of_its_checks():
    assert all(inspect.isgeneratorfunction(suite) for suite in verify.SUITES.values())


def test_the_sampled_suite_searches_with_its_options():
    checks = run_suite("no-direction-sampled", SuiteOptions(seed=13, trials=2000))
    assert all(check.passed for check in checks)
    assert checks[-1].name.startswith("2000 seeded random deletion multisets (size <= 2)")
    assert checks[-1].detail == "evaluated 2000"


class TestVerifyCommand:
    def test_example1_suite(self, capsys):
        assert main(["verify", "example1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_every_suite_passes(self, suite, capsys):
        assert main(["verify", suite]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        failing = lambda options: [verify.CheckResult("always fails", False, "made to fail")]
        monkeypatch.setitem(verify.SUITES, "example1", failing)
        assert main(["verify", "example1"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "FAIL  always fails  [made to fail]" in out
        assert "1 check(s) FAILED" in out

    def test_each_check_prints_as_its_suite_computes_it(self, monkeypatch, capsys):
        banzhaf = verify.banzhaf

        def first_game_only(game, player, engine):
            if game != verify.EXAMPLE1_GAME:
                raise InputError("only the first game is counted")
            return banzhaf(game, player, engine)

        monkeypatch.setattr(verify, "banzhaf", first_game_only)
        assert main(["verify", "example1"]) == EXIT_INPUT
        assert "  PASS  six-player game: index of a weight-2 player is 8/2^5 = 1/4\n" in (
            capsys.readouterr().out
        )


def test_wvg_prints_no_construction_note(or2_cnf, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["reduce", str(or2_cnf), "--kind", "maintain", "-k", "1", "--ell", "1",
                     "--exactify", "--relaxed", "-o", str(tmp_path / "maintain.instance")]) == EXIT_OK
        assert main(["verify", "yes-direction"]) == EXIT_OK
    assert not any(issubclass(w.category, GadgetConstructionNote) for w in caught)


def _set_weight(value):
    return lambda document: document["weights"].__setitem__(1, value)


def _set_band(key, value):
    return lambda document: document["bands"].__setitem__(key, value)


# Each malformed document must end in exit 2 with a message naming the
# field, never in a traceback (exit 1 means a failed verification check).
@pytest.mark.parametrize(
    "banded, mutate, field",
    [
        (True, _set_weight("--5"), "weight"),
        (True, _set_weight("5-"), "weight"),
        (True, _set_weight("\u00b2"), "weight"),
        (True, _set_band("heavy", ["x"]), "bands.heavy"),
        (True, _set_band("heavy", [True]), "bands.heavy"),
        (True, _set_band("blocks", {"E": {}}), "bands.blocks"),
        (True, _set_band("blocks", [5]), "bands.blocks"),
        (True, lambda document: document.__setitem__("distinguished", True), "distinguished"),
        (False, lambda document: document.__setitem__("distinguished", True), "distinguished"),
        (False, lambda document: document.__setitem__("budget", False), "budget"),
        (False, lambda document: document.update(a_players=[999], b_players=[998]),
         "player 999 out of range"),
    ],
    ids=[
        "double-minus",
        "trailing-minus",
        "superscript-digit",
        "heavy-string",
        "heavy-bool",
        "blocks-object",
        "blocks-int-entry",
        "banded-distinguished-bool",
        "distinguished-bool",
        "budget-bool",
        "carrier-naming-no-player",
    ],
)
def test_malformed_instance_document_exits_2(tmp_path, capsys, banded, mutate, field):
    if banded:
        instance = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
    else:
        instance = ControlInstance(Game((1, 2, 2, 2, 3, 3), 8), 1, 1, Goal.DECREASE)
    document = json.loads(dump_instance(instance))
    mutate(document)
    path = tmp_path / "bad.instance"
    path.write_text(json.dumps(document))
    assert main(["index", str(path), "--player", "0"]) == EXIT_INPUT
    assert field in capsys.readouterr().err


def _set(key, value):
    return lambda document: document.__setitem__(key, value)


def _set_block(key, value):
    return lambda document: document["bands"]["blocks"][0].__setitem__(key, value)


def _drop_block(key):
    return lambda document: document["bands"]["blocks"][0].pop(key)


def _heavy(player):
    return lambda document: document["bands"]["heavy"].append(player)


# Malformed banded documents no other test feeds to a command.  Through
# either command, each must end in exit 2 with a message naming the file
# and the fault, never in a traceback.
MALFORMED_BANDED = {
    "distinguished-past-the-end": (_set("distinguished", 41), "player 41 out of range"),
    "distinguished-negative": (_set("distinguished", -1), "player -1 out of range"),
    "budget-negative": (_set("budget", -1), "budget must satisfy 0 <= budget < 41"),
    "goal-array": (_set("goal", ["DECREASE"]), "unknown goal ['DECREASE']"),
    "goal-object": (_set("goal", {"DECREASE": 1}), "unknown goal {'DECREASE': 1}"),
    "heavy-past-the-end": (_heavy(41), "player 41 out of range"),
    "heavy-negative": (_heavy(-1), "player -1 out of range"),
    "granularity-zero": (_set_block("granularity", "0"), "granularity must be positive"),
    "granularity-negative": (_set_block("granularity", "-1"), "granularity must be positive"),
    "members-missing": (_drop_block("members"), "block 'members' must be an array"),
    "kind-missing": (_drop_block("kind"), "bad block kind"),
    "bands-array": (lambda d: d.__setitem__("bands", [d["bands"]]), "'bands' needs"),
    "carriers-mismatched": (lambda d: d["b_players"].pop(), "a/b player tables"),
    "weights-object": (
        _set("weights", {"0": "1"}), "'weights' must be an array of decimal strings"
    ),
    "budget-missing": (lambda d: d.pop("budget"), "instance document needs 'budget'"),
    "a-players-string": (_set("a_players", "12"), "'a_players' must be an array of ints or nulls"),
    "meta-array": (_set("meta", []), "'meta' must be an object"),
    "groups-short": (
        lambda d: d["groups"].pop(), "group labels must cover every player exactly once"
    ),
    # X, the last block, has granularity 1 like the distinguished player's weight
    "distinguished-in-a-block": (
        lambda d: d["bands"]["blocks"][-1]["members"].append(d["distinguished"]),
        "player 0 appears twice",
    ),
    "heavy-twice": (
        lambda d: d["bands"]["heavy"].append(d["bands"]["heavy"][0]),
        "appears twice in the band system",
    ),
}


@pytest.mark.parametrize("command", ["index", "control"])
@pytest.mark.parametrize("case", sorted(MALFORMED_BANDED))
def test_malformed_banded_document_exits_2_naming_the_file(tmp_path, capsys, case, command):
    instance = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
    document = json.loads(dump_instance(instance))
    assert len(document["weights"]) == 41 and document["distinguished"] == 0
    mutate, message = MALFORMED_BANDED[case]
    mutate(document)
    path = tmp_path / "bad.instance"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert "Traceback" not in err


@pytest.fixture
def command_files(example1_file, or2_cnf, tmp_path):
    """Placeholder names for the input files of a command line, and the
    output file a refused command must not write."""
    instance = tmp_path / "or2.instance"
    instance.write_text(dump_instance(build_decrease(parse_dimacs(or2_cnf.read_text()), 1,
                                                     strict=False)))
    out = tmp_path / "out.instance"
    files = {"GAME": str(example1_file), "INSTANCE": str(instance), "CNF": str(or2_cnf),
             "OUT": str(out)}
    return files, out


# A flag a command needs for its input, missing: exit 2 with the message
# alone on stderr, and nothing written.
@pytest.mark.parametrize(
    "command, message",
    [
        (["control", "GAME"],
         "a bare game document needs --player, --deletions, --goal on the command line"),
        (["control", "INSTANCE", "--mode", "restricted"], "restricted mode needs --groups"),
        (["reduce", "CNF", "--kind", "maintain", "-k", "1", "--relaxed", "-o", "OUT"],
         "maintain reductions need --ell"),
        (["oracle", "e-minority-sat", "CNF"], "e-minority-sat needs --k"),
    ],
    ids=["control-bare-game", "control-restricted", "reduce-maintain", "oracle-e-minority"],
)
def test_missing_flag_exits_2(command_files, capsys, command, message):
    files, out = command_files
    assert main([files.get(arg, arg) for arg in command]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


# A flag the chosen kind or mode never reads, named in the message, and an
# engine budget below 1: exit 2 before anything is printed or written.
@pytest.mark.parametrize(
    "command, message",
    [
        (["reduce", "CNF", "--kind", "decrease", "-k", "1", "--relaxed", "-o", "OUT",
          "--ell", "3"], "reduce --kind decrease does not read --ell"),
        (["reduce", "CNF", "--kind", "decrease", "-k", "1", "--relaxed", "-o", "OUT",
          "--ell", "0"], "reduce --kind decrease does not read --ell"),
        (["reduce", "CNF", "--kind", "nonincrease", "-k", "1", "--relaxed", "-o", "OUT",
          "--exactify"], "reduce --kind nonincrease does not read --exactify"),
        (["control", "INSTANCE", "--groups", "A"],
         "control --mode exhaustive does not read --groups"),
        (["control", "INSTANCE", "--mode", "sampled", "--groups", "A"],
         "control --mode sampled does not read --groups"),
        (["control", "INSTANCE", "--seed", "5", "--trials", "0"],
         "control --mode exhaustive does not read --seed, --trials"),
        (["control", "INSTANCE", "--mode", "restricted", "--groups", "A", "--trials", "3"],
         "control --mode restricted does not read --trials"),
        (["oracle", "count-sat", "CNF", "--k", "1"], "oracle count-sat does not read --k"),
        (["oracle", "count-sat", "CNF", "--k", "1", "--ell", "1"],
         "oracle count-sat does not read --k, --ell"),
        (["oracle", "e-minority-sat", "CNF", "--k", "1", "--ell", "1"],
         "oracle e-minority-sat does not read --ell"),
        (["index", "GAME", "--player", "1", "--budget-enum", "0"],
         "engine budgets must be positive"),
        (["index", "INSTANCE", "--budget-dp-quota", "-5"], "engine budgets must be positive"),
        (["control", "GAME", "--player", "1", "--deletions", "1", "--goal", "decrease",
          "--budget-mitm-half", "0"], "engine budgets must be positive"),
        (["control", "INSTANCE", "--mode", "sampled", "--budget-enum", "-1"],
         "engine budgets must be positive"),
        (["control", "INSTANCE", "--mode", "restricted", "--groups", "Q"],
         "the instance has no provenance group 'Q'"),
        (["control", "INSTANCE", "--mode", "restricted", "--groups", "A,Q,R"],
         "the instance has no provenance group 'Q', 'R'"),
        (["control", "GAME", "--player", "1", "--deletions", "1", "--goal", "decrease",
          "--mode", "restricted", "--groups", "A"],
         "restricted search needs group labels on the instance"),
    ],
    ids=["reduce-decrease-ell", "reduce-decrease-ell-0", "reduce-nonincrease-exactify",
         "control-exhaustive-groups", "control-sampled-groups", "control-exhaustive-seed-trials",
         "control-restricted-trials", "count-sat-k",
         "count-sat-k-ell", "e-minority-ell", "index-game-enum", "index-instance-dp",
         "control-game-mitm", "control-sampled-enum", "control-restricted-unknown-group",
         "control-restricted-unknown-groups", "control-restricted-bare-game"],
)
def test_refused_before_anything_is_printed(command_files, capsys, command, message):
    files, out = command_files
    assert main([files.get(arg, arg) for arg in command]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")
    assert not out.exists()


# An oracle flag missing or out of range is refused before anything is
# printed, as control and reduce refuse theirs.
@pytest.mark.parametrize(
    "flags, message",
    [
        (["e-minority-sat"], "e-minority-sat needs --k"),
        (["e-exact-sat", "--k", "1"], "e-exact-sat needs --k and --ell"),
        (["e-exact-sat", "--k", "1", "--ell", "0"], "--ell must be at least 1, got 0"),
        (["e-minority-sat", "--k", "9"], "k=9 out of range, need 1 <= k <= 2"),
        (["e-exact-sat", "--k", "0", "--ell", "1"], "k=0 out of range, need 1 <= k <= 2"),
    ],
    ids=["minority-without-k", "exact-without-ell", "exact-ell-0", "minority-k-9",
         "exact-k-0"],
)
def test_oracle_refuses_before_echoing(or2_cnf, capsys, flags, message):
    assert main(["oracle", *flags, str(or2_cnf)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize("name", [5, [5]], ids=["int", "array"])
def test_non_string_block_name_exits_2(tmp_path, capsys, name):
    instance = build_decrease(CnfFormula(2, (frozenset({1, 2}),)), 1, strict=False)
    document = json.loads(dump_instance(instance))
    document["bands"]["blocks"][0]["name"] = name
    path = tmp_path / "bad.instance"
    path.write_text(json.dumps(document))
    assert main(["index", str(path), "--player", "0"]) == EXIT_INPUT
    assert "block 'name'" in capsys.readouterr().err

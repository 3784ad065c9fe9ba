"""CNF parsing, model counting and the prefix oracles."""

from __future__ import annotations

import random
import time

import pytest

from wvgcontrol import (
    BudgetExceededError,
    CnfFormula,
    FormulaError,
    count_sat,
    count_subset_sum,
    e_exact_sat,
    e_minority_sat,
    parse_dimacs,
)
from wvgcontrol.cli import EXIT_INPUT, main
from wvgcontrol.formulas import suffix_satisfying_counts
from wvgcontrol.verify import random_formula


class TestParseDimacs:
    def test_single_clause(self):
        formula = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert formula.num_variables == 2
        assert formula.clauses == (frozenset({1, 2}),)

    def test_tautological_clause_rejected(self):
        with pytest.raises(FormulaError, match="tautological"):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_tautology_error_names_explicit_stripping(self):
        with pytest.raises(FormulaError, match="--strip-tautologies"):
            parse_dimacs("p cnf 2 2\n1 2 0\n2 -2 0\n")

    def test_tautology_stripping_is_explicit(self):
        formula = parse_dimacs("p cnf 2 2\n1 -1 2 0\n1 2 0\n", strip_tautologies=True)
        assert formula.clauses == (frozenset({1, 2}),)

    def test_two_clauses(self):
        formula = parse_dimacs("p cnf 3 2\n1 2 0\n-3 0\n")
        assert formula.num_clauses == 2
        assert formula.num_variables == 3

    def test_comments_and_multiline_clauses(self):
        formula = parse_dimacs("c hello\np cnf 2 1\n1\n2 0\n")
        assert formula.clauses == (frozenset({1, 2}),)

    def test_unused_variable_rejected(self):
        with pytest.raises(FormulaError, match="never occur"):
            parse_dimacs("p cnf 3 1\n1 2 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(FormulaError, match="declares"):
            parse_dimacs("p cnf 2 2\n1 2 0\n")

    def test_missing_header(self):
        with pytest.raises(FormulaError, match="problem line"):
            parse_dimacs("1 2 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(FormulaError, match="out of range"):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_roundtrip(self):
        formula = CnfFormula(3, (frozenset({1, -2}), frozenset({2, 3})))
        lines = [f"p cnf {formula.num_variables} {formula.num_clauses}"]
        lines += [" ".join(map(str, sorted(clause, key=abs))) + " 0" for clause in formula.clauses]
        assert parse_dimacs("\n".join(lines) + "\n") == formula

    @pytest.mark.parametrize("header", ["p cnf 1 {digits}", "p cnf {digits} 1"])
    def test_problem_line_count_past_the_int_str_digit_limit(self, header):
        # 5,000 digits exceed CPython's default 4,300-digit int/str limit
        text = "c a comment\n" + header.format(digits="9" * 5000) + "\n1 0\n"
        with pytest.raises(FormulaError, match="line 2: problem line count"):
            parse_dimacs(text)

    def test_unused_variables_are_judged_in_time_with_the_input(self):
        start = time.perf_counter()
        with pytest.raises(FormulaError, match="never occur") as error:
            parse_dimacs("p cnf 1000000000 1\n1 0\n")
        assert time.perf_counter() - start < 1.0
        message = str(error.value)
        assert len(message) < 1024
        assert "[2, 3, 4, 5, 6] (999999999 in all)" in message

    def test_unused_variables_are_all_named_when_few(self):
        with pytest.raises(FormulaError, match=r"variables \[1, 3, 4, 5, 7\] never occur"):
            parse_dimacs("p cnf 7 2\n2 0\n6 0\n")


# DIMACS framing faults, each with the whole message ``parse_dimacs`` gives
FRAMING_FAULTS = {
    "duplicate-problem-line": ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate problem line"),
    "malformed-problem-line": (
        "c two\np cnf two 1\n1 0\n",
        "line 2: malformed problem line 'p cnf two 1'",
    ),
    "non-integer-token": ("p cnf 2 1\n1 x2 0\n", "line 2: non-integer token in '1 x2 0'"),
    "unterminated-last-clause": ("p cnf 2 2\n1 0\n2\n", "last clause is not terminated by 0"),
    "comments-only": ("c no problem line\nc here\n", "missing problem line 'p cnf n m'"),
}


@pytest.mark.parametrize("case", sorted(FRAMING_FAULTS))
def test_framing_fault_message(case):
    text, message = FRAMING_FAULTS[case]
    with pytest.raises(FormulaError) as error:
        parse_dimacs(text)
    assert str(error.value) == message


@pytest.mark.parametrize("case", sorted(FRAMING_FAULTS))
def test_framing_fault_exits_2_naming_the_file(tmp_path, capsys, case):
    text, message = FRAMING_FAULTS[case]
    path = tmp_path / f"{case}.cnf"
    path.write_text(text)
    assert main(["oracle", "count-sat", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"input error: {path}: {message}\n"
    assert captured.out == ""


class TestFormulaValidation:
    def test_empty_clause_rejected(self):
        with pytest.raises(FormulaError, match="empty"):
            CnfFormula(1, (frozenset(),))

    def test_tautology_rejected(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, (frozenset({1, -1}),))

    def test_unused_variable_rejected(self):
        with pytest.raises(FormulaError):
            CnfFormula(2, (frozenset({1}),))


class TestCountSat:
    def test_or_of_two(self):
        assert count_sat(CnfFormula(2, (frozenset({1, 2}),))) == 3

    def test_unsatisfiable(self):
        formula = CnfFormula(1, (frozenset({1}), frozenset({-1})))
        assert count_sat(formula) == 0

    def test_single_wide_clause(self):
        assert count_sat(CnfFormula(5, (frozenset({1, 2, 3, 4, 5}),))) == 31

    def test_matches_per_assignment_evaluation(self):
        rng = random.Random(42)
        for _ in range(50):
            formula = random_formula(rng, rng.randint(1, 6), rng.randint(1, 4))
            slow = sum(
                all(
                    any((literal > 0) == bool(mask >> (abs(literal) - 1) & 1) for literal in clause)
                    for clause in formula.clauses
                )
                for mask in range(1 << formula.num_variables)
            )
            assert count_sat(formula) == slow

    def test_budget_refusal(self):
        big = CnfFormula(27, tuple(frozenset({v}) for v in range(1, 28)))
        with pytest.raises(BudgetExceededError):
            count_sat(big)


class TestSuffixCounts:
    def test_prefix_sum_identity(self):
        rng = random.Random(43)
        for _ in range(30):
            formula = random_formula(rng, rng.randint(2, 6), rng.randint(1, 4))
            k = rng.randint(1, formula.num_variables)
            counts = suffix_satisfying_counts(formula, k)
            assert sum(counts) == count_sat(formula)
            assert len(counts) == 1 << k


class TestEMinority:
    def test_or_clause_k1(self):
        # x1 = 0 leaves one of two suffixes satisfying, 1 <= 2^0
        assert e_minority_sat(CnfFormula(2, (frozenset({1, 2}),)), 1) == (True, (0,))

    def test_unsatisfiable_is_always_yes(self):
        formula = CnfFormula(1, (frozenset({1}), frozenset({-1})))
        assert e_minority_sat(formula, 1)[0] is True

    def test_spec_two_clause_example(self):
        formula = CnfFormula(2, (frozenset({1, -2}), frozenset({1, 2})))
        verdict, witness = e_minority_sat(formula, 1)
        assert verdict is True
        assert witness == (0,)  # x1 = 0 leaves zero satisfying suffixes

    def test_no_instance(self):
        formula = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))
        assert e_minority_sat(formula, 1) == (False, None)

    def test_doubled_threshold_is_trivially_yes(self):
        # the bound 2^(n-k) instead of 2^(n-k-1) can never fail
        rng = random.Random(44)
        for _ in range(30):
            formula = random_formula(rng, rng.randint(2, 5), rng.randint(1, 3))
            k = rng.randint(1, formula.num_variables)
            counts = suffix_satisfying_counts(formula, k)
            n = formula.num_variables
            assert any(c <= 1 << (n - k) for c in counts)

    def test_k_equals_n(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        # some full assignment falsifies the clause, so count 0 <= half
        assert e_minority_sat(formula, 2)[0] is True


class TestEExact:
    def test_or_clause(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        assert e_exact_sat(formula, 1, 1) == (True, (0,))
        assert e_exact_sat(formula, 1, 2) == (True, (1,))
        assert e_exact_sat(formula, 1, 3) == (False, None)  # 3 > 2^(n-k)

    def test_zero_requires_relaxation(self):
        formula = CnfFormula(2, (frozenset({1, 2}),))
        with pytest.raises(Exception, match="positive"):
            e_exact_sat(formula, 1, 0)
        verdict, witness = e_exact_sat(
            CnfFormula(1, (frozenset({1}), frozenset({-1}))), 1, 0, allow_zero=True
        )
        assert verdict is True and witness == (0,)

    def test_witness_is_lexicographically_least(self):
        # every prefix of the unsatisfiable formula has zero suffixes
        formula = CnfFormula(2, (frozenset({1}), frozenset({-1}), frozenset({2})))
        verdict, witness = e_exact_sat(formula, 2, 0, allow_zero=True)
        assert verdict is True and witness == (0, 0)


class TestCountSubsetSum:
    def test_simple(self):
        assert count_subset_sum([1, 2, 3], 3) == 2

    def test_empty_subset(self):
        assert count_subset_sum([5, 9, 14], 0) == 1
        assert count_subset_sum([], 0) == 1

    def test_negative_target(self):
        assert count_subset_sum([1, 2], -3) == 0

    def test_permutation_invariance(self):
        rng = random.Random(45)
        for _ in range(30):
            sizes = [rng.randint(0, 30) for _ in range(rng.randint(1, 10))]
            target = rng.randint(0, sum(sizes))
            shuffled = sizes[:]
            rng.shuffle(shuffled)
            assert count_subset_sum(sizes, target) == count_subset_sum(shuffled, target)

    def test_appending_oversized_item_is_invariant(self):
        sizes = [3, 5, 8]
        target = 8
        base = count_subset_sum(sizes, target)
        assert count_subset_sum(sizes + [sum(sizes) + target + 1], target) == base

    def test_matches_enumeration(self):
        rng = random.Random(46)
        for _ in range(30):
            sizes = [rng.randint(0, 12) for _ in range(rng.randint(0, 10))]
            target = rng.randint(0, max(sum(sizes), 1))
            slow = sum(
                1
                for mask in range(1 << len(sizes))
                if sum(s for b, s in enumerate(sizes) if (mask >> b) & 1) == target
            )
            assert count_subset_sum(sizes, target) == slow

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            count_subset_sum([1] * 45, 3)

    def test_negative_size_rejected(self):
        with pytest.raises(Exception, match="nonnegative"):
            count_subset_sum([1, -2], 0)

import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import wreathperm
import wreathperm.cli as cli
from wreathperm import (
    BudgetError,
    CheckResult,
    DomainError,
    ParseError,
    build_table,
    enumeration,
)

from conftest import _KERNELS, row_bytes, traced_peak


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _python(*args, **kwargs):
    """Start a fresh interpreter that imports this checkout's package."""
    src = str(Path(wreathperm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


class TestTable:
    def test_csv(self, capsys):
        code, out = run_cli(
            capsys, "table", "--flavor", "d", "--colors", "2", "--max-n", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,value"
        last_row = [line for line in lines if line.startswith("5,")]
        assert last_row == ["5,0,2329", "5,1,1281", "5,2,353", "5,3,65", "5,4,9", "5,5,1"]

    def test_trivial(self, capsys):
        code, out = run_cli(
            capsys, "table", "--flavor", "g", "--colors", "1", "--max-n", "0"
        )
        assert code == 0
        assert out.strip() == "n=0: 1"

    def test_csv_and_text_render_the_rows(self, capsys):
        rows = build_table(2, 6, "d").rows
        csv = "n,m,value\n" + "".join(
            f"{n},{m},{v}\n" for n, row in enumerate(rows) for m, v in enumerate(row)
        )
        text = "".join(
            f"n={n}: " + " ".join(str(v) for v in row) + "\n" for n, row in enumerate(rows)
        )
        args = ("table", "--flavor", "d", "--colors", "2", "--max-n", "6", "--format")
        assert run_cli(capsys, *args, "csv") == (0, csv)
        assert run_cli(capsys, *args, "text") == (0, text)

    def test_json_matches_closed_form(self, capsys):
        from wreathperm import g_closed_form

        code, out = run_cli(
            capsys, "table", "--flavor", "g", "--colors", "3", "--max-n", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == 3 and payload["flavor"] == "g"
        for n, row in enumerate(payload["rows"]):
            for m, value in enumerate(row):
                assert value == g_closed_form(3, n, m)

    def test_json_bytes(self, capsys):
        code, out = run_cli(
            capsys, "table", "--flavor", "g", "--colors", "2", "--max-n", "3",
            "--format", "json",
        )
        assert code == 0
        assert out == (
            '{"ell": 2, "flavor": "g", "rows": [[1], [1, 2], [5, 6, 8], [29, 34, 40, 48]]}\n'
        )

    @pytest.mark.parametrize("flavor", ["g", "d"])
    @pytest.mark.parametrize("ell", [1, 3])
    @pytest.mark.parametrize("max_n", [0, 1, 2, 30])
    def test_json_is_the_table_record(self, capsys, flavor, ell, max_n):
        """The streamed JSON has the bytes of the whole record dumped at once."""
        code, out = run_cli(
            capsys, "table", "--flavor", flavor, "--colors", str(ell), "--max-n", str(max_n),
            "--format", "json",
        )
        assert (code, out) == (0, json.dumps(build_table(ell, max_n, flavor)._asdict()) + "\n")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_refusal_writes_nothing(self, capsys, fmt):
        """Every argument is checked before the first byte is written."""
        code = cli.main(["table", "--flavor", "g", "--colors", "2", "--max-n", "-1",
                         "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: max_n must be >= 0, got -1\n"

    @pytest.mark.parametrize("flavor", ["g", "d"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_streams_in_bounded_memory(self, flavor, fmt):
        """At 300 letters the triangle holds about a hundred times its last
        row; a streamed render holds a few rows at a time."""
        one_row = row_bytes(build_table(1, 300, "g").rows[-1])
        argv = ["table", "--flavor", flavor, "--colors", "1", "--max-n", "300", "--format", fmt]
        with redirect_stdout(_Discard()):
            peak = traced_peak(lambda: cli.main(argv))
        assert peak < 10 * one_row


class _Discard:
    """A text stream that drops what is written to it."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class TestCount:
    def test_fixed_points(self, capsys):
        code, out = run_cli(
            capsys, "count", "--colors", "2", "--n", "2", "--stat", "circ", "--k", "0"
        )
        assert code == 0
        assert out.strip() == "5 2 1"

    def test_single_color_derangements(self, capsys):
        code, out = run_cli(
            capsys, "count", "--colors", "1", "--n", "5", "--stat", "circ", "--k", "0"
        )
        assert code == 0
        assert out.split()[0] == "44"

    def test_vacuous_k(self, capsys):
        code, out = run_cli(
            capsys, "count", "--colors", "2", "--n", "3", "--stat", "circ", "--k", "3"
        )
        assert code == 0
        assert out.strip() == "48 0 0 0"

    def test_json_counts_are_integers(self, capsys):
        code, out = run_cli(
            capsys, "count", "--colors", "2", "--n", "2", "--stat", "circ", "--k", "0",
            "--format", "json",
        )
        assert code == 0
        assert out == '{"ell": 2, "n": 2, "k": 0, "stat": "circ", "counts": [5, 2, 1]}\n'

    def test_linear_k_zero_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "count", "--colors", "2", "--n", "3", "--stat", "lin", "--k", "0"
        )
        assert code == 2

    def test_budget_exit(self, capsys):
        code, _ = run_cli(
            capsys, "count", "--colors", "2", "--n", "4", "--stat", "circ",
            "--k", "0", "--budget", "10",
        )
        assert code == 3

    @pytest.mark.parametrize("budget", ["abc", "-5"])
    def test_bad_budget_flag_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--colors", "2", "--n", "2", "--stat", "circ",
                      "--k", "0", "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --budget: expected an integer >= 0, got '{budget}'" in err

    def test_zero_budget_fits_nothing(self, capsys):
        code = cli.main(["count", "--colors", "2", "--n", "2", "--stat", "circ",
                         "--k", "0", "--budget", "0"])
        assert code == 3
        assert capsys.readouterr().err.endswith("no n fits\n")

    @pytest.mark.parametrize("jobs", ["0", "-1", "x"])
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--colors", "2", "--n", "2", "--stat", "circ", "--k", "0"],
            ["verify", "--suite", "t2", "--colors-max", "1", "--n-max", "2"],
        ],
    )
    def test_jobs_below_one_usage_error(self, capsys, args, jobs):
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_count_and_verify_share_jobs_and_budget_defaults(self):
        parse = cli.build_parser().parse_args
        count = parse(["count", "--colors", "2", "--n", "2", "--stat", "circ", "--k", "0"])
        verify = parse(["verify", "--colors-max", "1", "--n-max", "2"])
        for args in (count, verify):
            defaults = (enumeration._usable_cpus(), enumeration.DEFAULT_BUDGET)
            assert (args.jobs, args.budget) == defaults

    @pytest.mark.parametrize("affinity,cpus,usable", [
        ({0}, 64, 1),  # taskset -c 0 on a 64-CPU host
        ({0, 5, 9}, 64, 3),
        (None, 64, 64),  # no affinity call: every CPU of the host
        (None, None, 1),  # nor a CPU count
    ])
    def test_jobs_default_counts_usable_cpus(self, monkeypatch, affinity, cpus, usable):
        """``--jobs`` defaults to the CPUs this process may run on, and a pooled tally starts no
        more workers than that, at any ``jobs``."""
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = cli.build_parser().parse_args(["verify", "--colors-max", "1", "--n-max", "2"])
        assert args.jobs == usable
        monkeypatch.setattr(enumeration, "_PARALLEL_THRESHOLD", 0)
        pools, in_turn = [], SimpleNamespace(map=map)  # a pool that tallies its parts here
        pool = lambda size: pools.append(size) or in_turn
        enumeration._map_reduce(_KERNELS["linear"], 2, 4, 100, pool=pool)
        assert pools == [usable][: usable > 1]


# One in-domain input for every map and direction, with the exact stdout.
FROZEN_BIJECTIONS = [
    (["delta", "--colors", "2", "--input", "2^1 3 1"], "1 2^1 3"),
    (["delta", "--colors", "2", "--inverse", "--input", "(1^1 3 2)"], "(3)(2)(1^1)"),
    (["foata", "--input", "(1 3)(2 4)"], "(3 1 2 4)"),
    (["foata", "--inverse", "--input", "2 4 1 3"], "3 4 1 2"),
    (
        ["phi", "--colors", "4", "--n", "9", "--input", "3^1 4 9^1 8^1 7 5^1 6 2^2 1^2"],
        "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1",
    ),
    (
        ["phi", "--colors", "4", "--inverse", "--input", "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1"],
        "3^1 4 9^1 8^1 7 5^1 6 2^2 1^2",
    ),
    (["rho", "--colors", "2", "--m", "2", "--k", "1", "--input", "1^1 3 2 4^1"], "1^1 2 3^1"),
    (
        ["rho", "--colors", "2", "--m", "2", "--k", "1", "--inverse", "--input", "1^1 2 3^1"],
        "1^1 3 2 4^1",
    ),
    (
        ["isolated-to-increasing", "--colors", "2", "--m", "2", "--input", "3 4^1 1 2"],
        "3 4 1 2^1",
    ),
    (
        ["isolated-to-increasing", "--colors", "2", "--m", "2", "--inverse",
         "--input", "3 4 1 2^1"],
        "3 4^1 1 2",
    ),
    (["representative", "--colors", "2", "--m", "2", "--input", "(1 3^1)(2 4)"], "(2 4)(1 3^1)"),
    (
        ["vartheta", "--colors", "3", "--m", "6", "--n", "9",
         "--input", "(1)(2 9^1 6^1 8^2)(3)(4)(5)(7^1)"],
        '{"eps": 1, "alpha": 2, "perm": "(2 9^1)(6 8^2)(7^1)(5)(4)(3)(1)"}',
    ),
    (
        ["vartheta", "--colors", "3", "--m", "6", "--eps", "1", "--alpha", "2", "--inverse",
         "--input", "(2 9^1)(6 8^2)(7^1)(5)(4)(3)(1)"],
        "(6^1 8^2 2 9^1)(7^1)(5)(4)(3)(1)",
    ),
    (["tau", "--colors", "2", "--eps", "1", "--k", "3", "--input", "(1 2)"], "(3^1)(1 2)"),
    (
        ["tau", "--colors", "2", "--inverse", "--input", "2 3 1^1"],
        '{"eps": 0, "k": 2, "perm": "2 1^1"}',
    ),
    (
        ["drec3", "--colors", "2", "--eps", "1", "--alpha", "2", "--m", "1",
         "--input", "1 2^1 3^1"],
        "1 4^1 3^1 2^1",
    ),
    (
        ["drec3", "--colors", "2", "--m", "1", "--n", "4", "--inverse",
         "--input", "1 4^1 3^1 2^1"],
        '{"eps": 1, "alpha": 2, "perm": "1 2^1 3^1"}',
    ),
]


class TestBijection:
    @pytest.mark.parametrize(
        "args,expected",
        FROZEN_BIJECTIONS,
        ids=[a[0] + ("-inverse" if "--inverse" in a else "") for a, _ in FROZEN_BIJECTIONS],
    )
    def test_frozen_output(self, capsys, args, expected):
        code, out = run_cli(capsys, "bijection", "--name", *args)
        assert code == 0
        assert out == expected + "\n"

    def test_phi_fixture(self, capsys):
        code, out = run_cli(
            capsys, "bijection", "--name", "phi", "--colors", "4", "--n", "9",
            "--input", "3^1 4 9^1 8^1 7 5^1 6 2^2 1^2",
        )
        assert code == 0
        assert out.strip() == "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1"

    def test_delta(self, capsys):
        code, out = run_cli(capsys, "bijection", "--name", "delta", "--input", "1 2 3")
        assert code == 0
        assert out.strip() == "3 1 2"

    def test_phi_roundtrip(self, capsys):
        text = "2^1 1 4 3^2"
        _, mid = run_cli(
            capsys, "bijection", "--name", "phi", "--colors", "3", "--input", text
        )
        code, back = run_cli(
            capsys, "bijection", "--name", "phi", "--colors", "3", "--inverse",
            "--input", mid.strip(),
        )
        assert code == 0
        assert back.strip() == text

    def test_cycles_in_cycles_out(self, capsys):
        code, out = run_cli(
            capsys, "bijection", "--name", "tau", "--colors", "2", "--eps", "1",
            "--k", "3", "--input", "(1 2)",
        )
        assert code == 0
        assert out.strip() == "(3^1)(1 2)"

    def test_triple_output(self, capsys):
        code, out = run_cli(
            capsys, "bijection", "--name", "vartheta", "--colors", "3", "--m", "6",
            "--n", "9", "--input", "(1)(2 9^1 6^1 8^2)(3)(4)(5)(7^1)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eps"] == 1 and payload["alpha"] == 2

    def test_domain_error_exit(self, capsys):
        code, _ = run_cli(
            capsys, "bijection", "--name", "rho", "--colors", "2", "--m", "0",
            "--k", "0", "--input", "1 2 3",
        )
        assert code == 4

    def test_out_of_range_m_exit(self, capsys):
        code, _ = run_cli(
            capsys, "bijection", "--name", "isolated-to-increasing", "--m", "3",
            "--input", "2 1",
        )
        assert code == 4

    def test_parse_error_exit(self, capsys):
        code, _ = run_cli(
            capsys, "bijection", "--name", "delta", "--input", "2 2"
        )
        assert code == 2

    def test_usage_error_exit(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bijection", "--input", "1 2"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["rho", "--input", "1"], "--name rho requires --m, --k"),
            (["rho", "--k", "0", "--input", "1"], "--name rho requires --m"),
            (
                ["vartheta", "--inverse", "--input", "1"],
                "--name vartheta --inverse requires --eps, --alpha, --m",
            ),
            (
                ["drec3", "--m", "1", "--inverse", "--input", "1"],
                "--name drec3 --inverse requires --n",
            ),
        ],
    )
    def test_missing_flag_usage_error(self, capsys, args, message):
        code = cli.main(["bijection", "--name", *args])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["representative", "--m", "1", "--inverse", "--input", "1"],
                "the class representative map has no inverse",
            ),
            (
                ["foata", "--colors", "2", "--input", "2^1 1"],
                "the plain cycles-to-word map needs an uncolored input",
            ),
            (
                ["rho", "--m", "5", "--k", "0", "--input", "1 3 2"],
                "m must lie in [0, 2], got 5",
            ),
        ],
    )
    def test_domain_error_message(self, capsys, args, message):
        code = cli.main(["bijection", "--name", *args])
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("way", [[], ["--inverse"]])
    def test_delta_on_empty_element_is_domain_error(self, capsys, way):
        code = cli.main(["bijection", "--name", "delta", "--input", "", *way])
        assert code == 4
        assert capsys.readouterr().err == "error: cannot rotate the empty permutation\n"


class TestVerify:
    def test_small_all_suite(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "all", "--colors-max", "2", "--n-max", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload and all(entry["status"] == "pass" for entry in payload)

    def test_recurrence_suite_wide(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "rec", "--colors-max", "5", "--n-max", "30"
        )
        assert code == 0
        assert all(entry["status"] == "pass" for entry in json.loads(out))

    def test_jobs_do_not_change_report(self, capsys):
        args = ["verify", "--suite", "t3", "--colors-max", "3", "--n-max", "4"]
        code1, out1 = run_cli(capsys, *args, "--jobs", "1")
        code4, out4 = run_cli(capsys, *args, "--jobs", "4")
        assert code1 == code4 == 0
        assert out1 == out4

    def test_failure_exit_code(self, capsys, monkeypatch):
        fake = [CheckResult("t2", 1, 1, {}, {"k": 0, "m": 0})]
        monkeypatch.setattr(cli, "verify_suite", lambda *a, **k: fake)
        code, out = run_cli(
            capsys, "verify", "--suite", "t2", "--colors-max", "1", "--n-max", "1"
        )
        assert code == 1
        assert json.loads(out)[0]["counterexample"] == {"k": 0, "m": 0}

    @pytest.mark.parametrize(
        "suite,colors,n_max",
        [("t2", "0", "2"), ("t3", "2", "1"), ("rec", "1", "1"), ("rec", "1", "0"),
         ("rec", "1", "-1"), ("all", "2", "-1"), ("t3", "9" * 20, "1"),
         ("all", "9" * 20, "-1")],
    )
    def test_empty_range_usage_error(self, capsys, suite, colors, n_max):
        code = cli.main(
            ["verify", "--suite", suite, "--colors-max", colors, "--n-max", n_max]
        )
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (
            f"error: suite {suite} checks nothing for --colors-max {colors}"
            f" --n-max {n_max}\n"
        )

    def test_budget_exit(self, capsys):
        code, _ = run_cli(
            capsys, "verify", "--suite", "t2", "--colors-max", "2", "--n-max", "8",
            "--budget", "1000",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "suite,n_max,budget,expected",
        [("t2", "12", "1000000", 3), ("rec", "2", "0", 0), ("t3", "1", "0", 2),
         ("all", "1", "0", 3)],
    )
    def test_range_sized_before_enumerating(
        self, capsys, monkeypatch, suite, n_max, budget, expected
    ):
        """The largest group of the range is sized first: a range that ends
        over the budget enumerates nothing, and the others keep their codes."""

        def enumerate_nothing(*args):
            raise AssertionError("enumerated a group")

        monkeypatch.setattr(enumeration, "_map_reduce", enumerate_nothing)
        argv = ["verify", "--suite", suite, "--colors-max", "1", "--n-max", n_max]
        assert cli.main([*argv, "--budget", budget]) == expected
        if suite == "t2":
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "error: the group with ell=1, n=12 exceeds the budget of 1000000"
                " elements; the largest n that fits with ell=1 is 9\n"
            )

    @pytest.mark.parametrize(
        "argv,err",
        [
            # the row count is sized first, so a huge range never reaches a sum
            (["--suite", "t2", "--colors-max", "9" * 20, "--n-max", "0"],
             f"the {'9' * 20} (check, ell, n) rows of suite t2 with ell <= {'9' * 20},"
             " n <= 0 exceed the limit of 10000"),
            (["--suite", "rec", "--colors-max", "9" * 20, "--n-max", "2"],
             f"the 8{'9' * 19}1 (check, ell, n) rows of suite rec with ell <= {'9' * 20},"
             " n <= 2 exceed the limit of 10000"),
            # 2 + 3 + 4 elements at n <= 1; the largest group, 3, fits
            (["--suite", "all", "--colors-max", "3", "--n-max", "1", "--budget", "8"],
             "the groups with ell <= 3, 0 <= n <= 1 sum to more than the budget of 8 elements"),
            # within the budget (10^8 groups of one element), over the row limit
            (["--suite", "t2", "--colors-max", "100000000", "--n-max", "0"],
             "the 100000000 (check, ell, n) rows of suite t2 with ell <= 100000000, n <= 0"
             " exceed the limit of 10000"),
            (["--suite", "t2", "--colors-max", "2000000", "--n-max", "0"],
             "the 2000000 (check, ell, n) rows of suite t2 with ell <= 2000000, n <= 0"
             " exceed the limit of 10000"),
            # each table fits, their sum does not
            (["--suite", "rec", "--colors-max", "2", "--n-max", "1000"],
             "the rec tables with ell <= 2, max_n=1000 sum to more than the limit"
             " of 8589934592 bits (entries x bit length of ell^max_n * max_n!)"),
            # the most ells rec admits within the row limit
            (["--suite", "rec", "--colors-max", "1111", "--n-max", "400"],
             "the rec tables with ell <= 1111, max_n=400 sum to more than the limit"
             " of 8589934592 bits (entries x bit length of ell^max_n * max_n!)"),
            # 9,997 rows whose largest group is over the budget and whose table is over
            # the bit limit (which stops at max_n = 1246): the group is named first
            (["--suite", "all", "--colors-max", "1", "--n-max", "1248"],
             "the group with ell=1, n=1248 exceeds the budget of 100000000 elements;"
             " the largest n that fits with ell=1 is 11"),
        ],
    )
    def test_range_refused_as_a_whole(self, capsys, monkeypatch, argv, err):
        """A range over the row limit, or whose groups or rec tables sum past
        their limit, is refused at once, before any group is enumerated or any
        table built, however many colors it spans."""

        def run_nothing(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(enumeration, "_map_reduce", run_nothing)
        monkeypatch.setattr(enumeration, "check_recurrences", run_nothing)
        start = time.perf_counter()
        code = cli.main(["verify", *argv])
        assert time.perf_counter() - start < 1
        assert (code, *capsys.readouterr()) == (3, "", f"error: {err}\n")

    @pytest.mark.parametrize("suite", ["e22", "e43"])
    def test_sides_refused_at_one_color(self, capsys, suite):
        """e22 and e43 are charged their ell = 1 groups only, so the refusal
        names the one-color group, not the ten-color one."""
        argv = ["verify", "--suite", suite, "--colors-max", "10", "--n-max", "12"]
        assert (cli.main(argv), *capsys.readouterr()) == (
            3, "", "error: the group with ell=1, n=12 exceeds the budget of 100000000"
            " elements; the largest n that fits with ell=1 is 11\n",
        )

    def test_range_at_the_row_limit_runs(self, capsys):
        """A range of exactly ``ROW_LIMIT`` rows runs; one more row is refused."""
        argv = ["verify", "--suite", "t2", "--n-max", "0", "--colors-max"]
        code, out = run_cli(capsys, *argv, "10000")
        assert code == 0 and len(json.loads(out)) == enumeration.ROW_LIMIT == 10_000
        assert run_cli(capsys, *argv, "10001") == (3, "")

    def test_range_summing_to_the_budget_runs(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "all", "--colors-max", "3", "--n-max", "1",
            "--budget", "9",
        )
        # six suites check n = 0 and 1; t3 and c7 need n + 1 <= 1 and rec n >= 2
        assert code == 0 and len(json.loads(out)) == 3 * 6 * 2


@pytest.mark.parametrize(
    "args,ell,largest",
    [
        (["table", "--flavor", "g", "--colors", "2", "--max-n", "5000"], 2, 1204),
        (["table", "--flavor", "d", "--colors", "3", "--max-n", "1500"], 3, 1182),
        (["table", "--flavor", "g", "--colors", "1", "--max-n", "9" * 20], 1, 1246),
        (["verify", "--suite", "rec", "--colors-max", "1", "--n-max", "9" * 20], 1, 1246),
        (["verify", "--suite", "rec", "--colors-max", "3", "--n-max", "1500"], 3, 1182),
        # within the bit limit, but entries past Python's int-to-str digit limit
        (["table", "--flavor", "g", "--colors", "1" + "0" * 100, "--max-n", "43"], 10**100, 42),
    ],
)
def test_table_over_size_limit_exit(capsys, monkeypatch, args, ell, largest):
    """A table over the size limit is refused with exit 3 before any row is
    built, and the message names the largest max_n that fits."""

    def build_nothing(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "table_rows", build_nothing)
    monkeypatch.setattr(enumeration, "check_recurrences", build_nothing)
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: the table with ell={ell}, max_n={args[-1]} exceeds ")
    assert err.endswith(f"; the largest max_n that fits with ell={ell} is {largest}\n")
    with pytest.raises(AssertionError, match="a table was built"):  # the patches are reached
        cli.main(args[:-1] + ["2"])


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--flavor", "g", "--colors", "3", "--max-n", "200", "--format", "csv"],
        # a report far larger than a pipe's buffer
        ["verify", "--suite", "rec", "--colors-max", "200", "--n-max", "20"],
    ],
    ids=("table", "verify"),
)
def test_closed_stdout_exits_quietly(args):
    """A reader that stops after one line (like ``| head -n 1``) leaves no
    traceback, and the exit code is 141 (128 + SIGPIPE)."""
    proc = _python("-m", "wreathperm.cli", *args, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize(
    "error,code",
    [(BudgetError("x"), 3), (DomainError("x"), 4), (ParseError("x", 0), 2), (ValueError("x"), 2)],
    ids=("budget", "domain", "parse", "value"),
)
def test_refusal_exit_codes(capsys, monkeypatch, error, code):
    """Each refusal a command raises exits with its documented code, one
    ``error:`` line on stderr and nothing on stdout."""

    def refuse(*args):
        refuse.calls += 1
        raise error

    refuse.calls = 0
    monkeypatch.setattr(cli, "table_rows", refuse)
    assert cli.main(["table", "--flavor", "g", "--colors", "2", "--max-n", "3"]) == code
    assert refuse.calls == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_no_pool_module_without_a_pool():
    """Importing the CLI, printing a table, and a count and a verify run at two jobs below 8
    letters (8! blocks), where no tally pools, load no process-pool module."""
    code = (
        "import sys, wreathperm.cli as cli\n"
        "cli.main(['table', '--flavor', 'g', '--colors', '2', '--max-n', '5'])\n"
        "cli.main(['count', '--colors', '2', '--n', '7', '--stat', 'lin', '--k', '1',"
        " '--jobs', '2'])\n"
        "cli.main(['verify', '--colors-max', '1', '--n-max', '6', '--jobs', '2'])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    out, _ = _python("-c", code, stdout=subprocess.PIPE).communicate(timeout=60)
    assert out.decode().splitlines()[-1] == "[]"


def test_no_dataclasses_or_inspect_on_the_cli_path():
    """A table, a count and a verify run load neither ``dataclasses`` nor
    ``inspect``, whose imports would dominate the start-up of one CLI call."""
    code = (
        "import sys, wreathperm.cli as cli\n"
        "cli.main(['table', '--flavor', 'g', '--colors', '2', '--max-n', '5'])\n"
        "cli.main(['count', '--colors', '2', '--n', '3', '--stat', 'lin', '--k', '1'])\n"
        "cli.main(['verify', '--suite', 'rec', '--colors-max', '1', '--n-max', '3'])\n"
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))\n"
    )
    out, _ = _python("-c", code, stdout=subprocess.PIPE).communicate(timeout=60)
    assert out.decode().splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "args,flag",
    [
        (["table", "--flavor", "g", "--colors", "0", "--max-n", "3"], "--colors"),
        (["count", "--colors", "0", "--n", "3", "--stat", "circ", "--k", "0"], "--colors"),
        (["count", "--colors", "2", "--n", "-1", "--stat", "circ", "--k", "0"], "--n"),
        (["bijection", "--name", "delta", "--colors", "0", "--input", "1"], "--colors"),
        (["bijection", "--name", "delta", "--n", "-1", "--input", "1"], "--n"),
    ],
)
def test_size_below_range_usage_error(capsys, args, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= " in capsys.readouterr().err


# Each subcommand's flags with the values drawn for them.  Every size under
# ``count`` and ``verify`` is guarded by its --budget, and every ``table`` and
# ``rec`` size by the table size limit, so each also gets a huge integer; the
# ``verify`` colors stay small, as the suites loop over every ell up to them.
_SMALL = ("-1", "0", "1", "2", "3")
_HUGE = "99999999999999999999"
_WORDS = ("1 2 3", "2 1", "3^1 1 2", "2 1^2", "1 1", "", "(1 2)(3)", "(1^1)", "(2 1")
_FLAGS = {
    "table": {"--flavor": ("g", "d"), "--colors": _SMALL, "--max-n": _SMALL + (_HUGE,),
              "--format": ("csv", "json", "text")},
    "count": {"--colors": _SMALL + (_HUGE,), "--n": _SMALL + (_HUGE,),
              "--stat": ("circ", "lin", "skew"), "--k": _SMALL + (_HUGE,),
              "--format": ("text", "json"), "--jobs": _SMALL},
    "bijection": {"--name": tuple(cli._BIJECTIONS), "--input": _WORDS, "--inverse": (),
                  **dict.fromkeys(("--colors", "--n", "--m", "--k", "--eps", "--alpha"),
                                  _SMALL + (_HUGE,))},
    "verify": {"--suite": ("all", *cli.SUITES), "--colors-max": _SMALL,
               "--n-max": _SMALL + (_HUGE,), "--jobs": _SMALL},
}
_BAD = ("x", "", "1.5", "circ", "-")  # wrong for every flag that takes a value


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in draw(st.permutations(list(_FLAGS[command].items()))):
        if not draw(st.integers(0, 9)):  # now and then a flag, required or not, is left out
            continue
        argv.append(flag)
        if values:
            argv.append(draw(st.sampled_from(values if draw(st.integers(0, 9)) else _BAD)))
    if command in ("count", "verify"):  # keep every enumeration small
        argv += ["--budget", str(draw(st.integers(0, 20_000)))]
    return argv


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(_argvs())
def test_arbitrary_argv_exits_with_documented_code(argv):
    """main returns 0-4 or leaves through argparse with code 2, never raising."""
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in range(5), argv

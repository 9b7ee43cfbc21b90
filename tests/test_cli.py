import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from io import StringIO
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import wreathperm
import wreathperm.cli as cli
from wreathperm import CheckResult, build_table, enumeration


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
        assert json.loads(out) == {
            "ell": 2, "n": 2, "k": 0, "stat": "circ", "counts": [5, 2, 1]
        }

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

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("WREATH_EULER_BUDGET", "10")
        code, _ = run_cli(
            capsys, "count", "--colors", "2", "--n", "4", "--stat", "circ", "--k", "0"
        )
        assert code == 3
        # explicit flag wins over the environment
        code, out = run_cli(
            capsys, "count", "--colors", "2", "--n", "4", "--stat", "circ",
            "--k", "0", "--budget", "1000",
        )
        assert code == 0

    @pytest.mark.parametrize("budget", ["abc", "-5"])
    def test_bad_budget_flag_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--colors", "2", "--n", "2", "--stat", "circ",
                      "--k", "0", "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --budget: expected an integer >= 0, got '{budget}'" in err

    @pytest.mark.parametrize("budget", ["abc", "-5"])
    def test_bad_env_budget_usage_error(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("WREATH_EULER_BUDGET", budget)
        code = cli.main(["count", "--colors", "2", "--n", "2", "--stat", "circ", "--k", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: WREATH_EULER_BUDGET: expected an integer >= 0, got '{budget}'\n"
        )

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
        fake = [CheckResult("t2", 1, 1, {}, "fail", {"k": 0, "m": 0})]
        monkeypatch.setattr(cli, "verify_suite", lambda *a, **k: fake)
        code, out = run_cli(
            capsys, "verify", "--suite", "t2", "--colors-max", "1", "--n-max", "1"
        )
        assert code == 1
        assert json.loads(out)[0]["counterexample"] == {"k": 0, "m": 0}

    @pytest.mark.parametrize(
        "suite,colors,n_max",
        [("t2", "0", "2"), ("t3", "2", "1"), ("rec", "1", "1"), ("rec", "1", "0"),
         ("rec", "1", "-1"), ("all", "2", "-1")],
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
    "args,ell,largest",
    [
        (["table", "--flavor", "g", "--colors", "2", "--max-n", "5000"], 2, 1204),
        (["table", "--flavor", "d", "--colors", "3", "--max-n", "1500"], 3, 1182),
        (["table", "--flavor", "g", "--colors", "1", "--max-n", "9" * 20], 1, 1246),
        (["verify", "--suite", "rec", "--colors-max", "1", "--n-max", "9" * 20], 1, 1246),
        (["verify", "--suite", "rec", "--colors-max", "3", "--n-max", "1500"], 3, 1182),
    ],
)
def test_table_over_size_limit_exit(capsys, monkeypatch, args, ell, largest):
    """A table over the size limit is refused with exit 3 before any row is
    built, and the message names the largest max_n that fits."""

    def build_nothing(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "build_table", build_nothing)
    monkeypatch.setattr(enumeration, "check_recurrences", build_nothing)
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: the table with ell={ell}, max_n={args[-1]} exceeds ")
    assert err.endswith(f"; the largest max_n that fits with ell={ell} is {largest}\n")


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


def test_no_pool_module_without_a_pool():
    """Importing the CLI and printing a table loads no process-pool module."""
    code = (
        "import sys, wreathperm.cli as cli\n"
        "cli.main(['table', '--flavor', 'g', '--colors', '2', '--max-n', '5'])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
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

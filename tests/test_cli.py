import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symp import ffield
from symp.cli import COLUMNS, EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_OUT_OF_RANGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def test_moment_usp_example(capsys):
    code, out, _ = run_cli(capsys, "moment", "--group", "usp", "--n", "1", "--partition", "1^4")
    assert code == EXIT_OK
    (row,) = parse_csv(out)
    assert row["value"] == "2"
    assert row["formula"] == "exact"


def test_moment_zero(capsys):
    code, out, _ = run_cli(capsys, "moment", "--group", "usp", "--n", "1", "--partition", "1^1")
    assert code == EXIT_OK
    assert parse_csv(out)[0]["value"] == "0"


def test_moment_out_of_range_exit(capsys):
    code, _, err = run_cli(capsys, "moment", "--group", "usp", "--n", "1", "--partition", "3^2")
    assert code == EXIT_OUT_OF_RANGE
    assert "out of range" in err
    # an odd size past 4n+1 is refused before the parity answer 0
    code, out, err = run_cli(capsys, "moment", "--n", "1", "--partition", "1^7")
    assert code == EXIT_OUT_OF_RANGE
    assert out == ""
    assert err == "error: out of range: partition size 7 exceeds 4n+1 = 5\n"


def test_moment_bad_partition_exit(capsys):
    code, _, err = run_cli(capsys, "moment", "--group", "usp", "--n", "1", "--partition", "2^0")
    assert code == EXIT_CONFIG
    assert "--partition" in err


def test_moment_so_and_u(capsys):
    code, out, _ = run_cli(capsys, "moment", "--group", "so", "--n", "5", "--partition", "2^1")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["value"] == "1" and row["valid"] == "true"

    code, out, _ = run_cli(capsys, "moment", "--group", "u", "--n", "4", "--partition", "2^2")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["value"] == "8" and row["valid"] == "true"

    code, out, _ = run_cli(
        capsys, "moment", "--group", "u", "--n", "4", "--partition", "1^1", "--partition-b", "2^1"
    )
    assert parse_csv(out)[0]["value"] == "0"


def test_oracle_quadrature(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--partition", "2^2")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert abs(float(row["value"]) - 2.0) <= 1e-9
    assert row["reference_value"] == "2"
    assert float(row["abs_error"]) <= 1e-9


def test_oracle_beyond_range_reports_without_reference(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "1", "--partition", "3^2")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["reference_value"] == "" and row["valid"] == "false"
    assert row["value"] != ""


def test_oracle_mc_deterministic(capsys):
    args = ["oracle", "--n", "2", "--partition", "1^2", "--method", "mc", "--samples", "20000", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args, "--threads", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical, thread count irrelevant


def test_oracle_cost_guard_exit(capsys):
    # 1^3990 at n = 2 needs 1999 nodes per angle: a 64 MB grid and its
    # column and power, over the quadrature's 64 MiB table store
    code, out, err = run_cli(capsys, "oracle", "--n", "2", "--partition", "1^3990")
    assert code == EXIT_BUDGET
    assert out == "" and "budget" in err and "N = 1999 exceed 67108864 bytes" in err


def test_ffcheck_rows_and_bound(capsys):
    code, out, _ = run_cli(capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", "3,5,7,11,13")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [row["q"] for row in rows] == ["3", "5", "7", "11", "13"]
    for row in rows:
        assert float(row["abs_error"]) <= float(row["bound"]) + 1e-15
        assert row["reference_value"] == "1"
    # fitted envelope decays like q^(-1/2)
    assert float(rows[-1]["bound"]) < float(rows[0]["bound"])


def test_ffcheck_bad_q(capsys):
    code, _, err = run_cli(capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", "4")
    assert code == EXIT_CONFIG
    assert "--q" in err


def test_ffcheck_checks_every_q_before_summing(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(ffield, "empirical_moment", lambda *args, **kwargs: calls.append(args) or 0)
    code, out, err = run_cli(capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", "3,4")
    assert (code, out, len(calls)) == (EXIT_CONFIG, "", 0)
    assert err == "error: --q: q must be an odd prime, got 4\n"


@pytest.mark.parametrize(
    "q, err",
    [
        ("3,x", "error: --q: invalid literal for int() with base 10: 'x'\n"),
        (",", "error: --q: at least one prime required\n"),
    ],
)
def test_ffcheck_q_list_refusals(capsys, q, err):
    assert run_cli(capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", q) == (EXIT_CONFIG, "", err)


def test_ffcheck_budget_exit(capsys):
    code, _, err = run_cli(
        capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", "5", "--budget", "3"
    )
    assert code == EXIT_BUDGET


def test_ffcheck_budget_covers_prime_tables(capsys):
    # 125 curves fit in the budget, but the degree-5 primes need 5^5 codes
    code, _, err = run_cli(
        capsys, "ffcheck", "--n", "1", "--partition", "5^1", "--q", "5", "--budget", "1000"
    )
    assert code == EXIT_BUDGET
    assert "q^5 = 3125 exceeds budget 1000" in err


@pytest.mark.parametrize(
    "n, partition, budget, err",
    [
        ("2", "1^2", "200", "error: budget: q^5 = 243 exceeds budget 200\n"),  # the family, q^(2n+1)
        ("1", "1^1 4^1", "50", "error: budget: q^4 = 81 exceeds budget 50\n"),  # a part size, q^j
    ],
)
def test_ffcheck_budget_message(capsys, n, partition, budget, err):
    code, out, stderr = run_cli(
        capsys, "ffcheck", "--n", n, "--partition", partition, "--q", "3", "--budget", budget
    )
    assert (code, out, stderr) == (EXIT_BUDGET, "", err)


def test_ffcheck_non_positive_budget_exit(capsys):
    for budget in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "ffcheck", "--n", "1", "--partition", "1^2", "--q", "5", "--budget", budget
        )
        assert code == EXIT_CONFIG
        assert out == "" and "--budget" in err and "exceeds" not in err


def test_linstat_example(capsys):
    code, out, _ = run_cli(capsys, "linstat", "--n", "30", "--nu", "30", "--m", "2", "--f", "0:1")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["value"] == "31"
    assert float(row["reference_value"]) == 30.0


def test_linstat_mc_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "linstat", "--n", "2", "--nu", "2", "--m", "2", "--f", "0:1 1:0.5",
        "--samples", "5000", "--seed", "3",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[1]["check"] == "linear-statistic-mc-vs-exact"
    assert float(rows[1]["stderr"]) > 0


def test_json_format_mirrors_csv(capsys):
    code, out, _ = run_cli(
        capsys, "moment", "--n", "1", "--partition", "1^4", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data[0]["value"] == "2"
    assert set(data[0]) == set(COLUMNS)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "moment", "--n", "1", "--partition", "1^4", "--out", str(path)
    )
    assert code == EXIT_OK and out == ""
    assert parse_csv(path.read_text())[0]["value"] == "2"


def test_out_unwritable_exit(tmp_path, capsys):
    # a missing directory and a directory: a config error naming --out, no traceback, no rows
    for path in (tmp_path / "missing" / "rows.csv", tmp_path):
        code, out, err = run_cli(capsys, "moment", "--n", "1", "--partition", "1^2", "--out", str(path))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("error: --out: cannot write") and str(path) in err


def test_moment_negative_n_exit(capsys):
    code, _, err = run_cli(capsys, "moment", "--n", "-1", "--partition", "1^2")
    assert code == EXIT_CONFIG
    assert "--n" in err


def test_linstat_negative_m_exit(capsys):
    code, _, err = run_cli(capsys, "linstat", "--n", "3", "--nu", "3", "--m", "-1", "--f", "0:1")
    assert code == EXIT_CONFIG
    assert "--m" in err


def test_linstat_out_of_range_exits_fast():
    # m = 60 over 11 indices: the refusal names the widest multi-index, 60
    # copies of index 10, without walking the C(70, 60) multisets
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["linstat", "--n", "100", "--nu", "5", "--m", "60", "--f", "0:1 1:1 2:1 3:1 4:1 5:1"]
    done = subprocess.run(
        [sys.executable, "-m", "symp.cli", *argv], capture_output=True, text=True, env=env, timeout=30
    )
    assert done.returncode == EXIT_OUT_OF_RANGE, done.stderr
    assert done.stdout == ""
    assert "m = 60 copies of index 10 need partition 10^60 of size 600 > 4n+1 = 401; m <= 40 is in range" in done.stderr


def test_linstat_negative_nu_main_term(capsys):
    code, out, _ = run_cli(capsys, "linstat", "--n", "20", "--nu", "-3", "--m", "2", "--f", "0:1")
    assert code == EXIT_OK
    (row,) = parse_csv(out)
    assert row["value"] == "3"
    assert row["reference_value"] == "3.0"


def test_partition_zero_part_size_exit(capsys):
    code, _, err = run_cli(capsys, "moment", "--n", "1", "--partition", "0^1")
    assert code == EXIT_CONFIG
    assert "--partition" in err and "zero part size" in err


def test_oracle_zero_samples_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "1", "--partition", "1^2", "--method", "mc", "--samples", "0")
    assert code == EXIT_CONFIG
    assert "--samples" in err


def test_oracle_negative_samples_exit(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "1", "--partition", "1^2", "--method", "mc", "--samples", "-5")
    assert code == EXIT_CONFIG
    assert "--samples" in err


def test_oracle_one_sample_exit(capsys):
    # one sample has no standard error, so no honest error bar
    code, out, err = run_cli(capsys, "oracle", "--n", "3", "--partition", "1^2", "--method", "mc", "--samples", "1")
    assert code == EXIT_CONFIG
    assert out == "" and "--samples: must be at least 2, got 1" in err


def test_oracle_negative_seed_exit(capsys):
    argv = ["oracle", "--n", "2", "--partition", "1^2", "--method", "mc", "--samples", "100", "--seed", "-1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and "--seed" in err


def test_linstat_negative_seed_exit(capsys):
    argv = ["linstat", "--n", "2", "--nu", "2", "--m", "2", "--f", "0:1", "--samples", "50", "--seed", "-3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == "" and "--seed" in err


def test_linstat_zero_samples_exit(capsys):
    code, out, err = run_cli(capsys, "linstat", "--n", "2", "--nu", "2", "--m", "2", "--f", "0:1", "--samples", "0")
    assert code == EXIT_CONFIG
    assert out == "" and "--samples" in err


def test_linstat_one_sample_exit(capsys):
    code, out, err = run_cli(capsys, "linstat", "--n", "2", "--nu", "2", "--m", "2", "--f", "0:1", "--samples", "1")
    assert code == EXIT_CONFIG
    assert out == "" and "--samples: must be at least 2, got 1" in err


def test_threads_zero_exit(capsys):
    args = ["oracle", "--n", "1", "--partition", "1^2", "--method", "mc", "--samples", "100", "--threads", "0"]
    code, _, err = run_cli(capsys, *args)
    assert code == EXIT_CONFIG
    assert "--threads" in err


def test_threads_negative_exit(capsys):
    code, _, err = run_cli(capsys, "linstat", "--n", "2", "--nu", "2", "--m", "2", "--f", "0:1", "--threads", "-2")
    assert code == EXIT_CONFIG
    assert "--threads" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--n", "1", "--partition", "1^2"],
        ["ffcheck", "--n", "1", "--partition", "1^2", "--q", "3"],
    ],
)
def test_threads_only_on_the_sampling_subcommands(capsys, argv):
    # moment and ffcheck sample nothing, so a worker count is a usage error
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--threads", "2"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threads 2" in captured.err


def test_oracle_has_no_node_count_flag(capsys):
    # the quadrature works out its own node count from n and the partition
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--n", "1", "--partition", "1^4", "--nodes", "5"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --nodes 5" in captured.err


def test_linstat_negative_fourier_index_exit(capsys):
    code, out, err = run_cli(capsys, "linstat", "--n", "2", "--nu", "1", "--m", "2", "--f=-1:1")
    assert code == EXIT_CONFIG
    assert "--f" in err and "-1:1" in err
    assert out == ""


def test_linstat_float_overflow_exit(capsys):
    # the exact moment is fine; its float and the Gaussian term overflow
    args = ("linstat", "--n", "10", "--nu", "5", "--m", "2", "--f=0:1e200")
    for extra in ((), ("--samples", "10")):
        code, out, err = run_cli(capsys, *args, *extra)
        assert code == EXIT_CONFIG
        assert "--f" in err
        assert out == ""

"""Command-line interface: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twistsense.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSweepCsv:
    def test_header_and_shape(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--scheme", "Bprime", "--n", "4",
            "--twist", "2.0", "1.0", "--t-points", "5",
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 5
        assert all(len(line.split(",")) == 7 for line in lines)
        first = lines[1].split(",")
        assert first[0] == "Bprime"
        assert first[1] == "4"
        assert first[5] == "echo"
        assert first[6] == "spin"

    def test_infinite_n_uses_closed_form_engine(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", "B", "--n", "inf",
            "--twist", "1.0", "--t-points", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(row[1] == "inf" for row in rows)
        assert all(row[6] == "closed_form" for row in rows)
        # Middle row is t/tau = 1/2: sensitivity e/2 to 12 significant digits.
        assert float(rows[1][3]) == 0.5
        assert float(rows[1][4]) == pytest.approx(np.e / 2.0, rel=1e-11)

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        argv = (
            "sweep", "--scheme", "Bprime", "--n", "6",
            "--twist", "4.0", "--t-points", "5",
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code2, silent, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code2 == 0 and silent == ""
        assert target.read_text() == out

    @pytest.mark.parametrize(
        "scheme, twist", [("B", "1e300"), ("C", "1e300"), ("C", "1e16")]
    )
    def test_lost_phase_precision_is_computation_error(self, capsys, scheme, twist):
        # Phases of |duration| * max|eigenvalue| ~ 1e16 and beyond are pure
        # roundoff; the run must fail, not print rows or blame the usage.
        code, out, err = run_cli(
            capsys,
            "sweep", "--scheme", scheme, "--n", "10",
            "--twist", twist, "--t-points", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "roundoff" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --scheme B --n inf --twist 1000 --t-points 3",
            "oracle --scheme C --twist 400 --optimum",
            "optimize --scheme B --n inf --twist 400",
            "oracle --scheme B --twist 360 --optimum",
            "oracle --scheme B --twist 1e308 --optimum",
            "oracle --scheme C --twist 1e308 --optimum",
            "oracle --scheme B --twist 1e308 --t 0.5",
            "oracle --scheme C --twist 1e308 --t 0.5",
            "sweep --scheme B --n inf --twist 1e308 --t-points 3",
            "sweep --scheme C --n inf --twist 1e308 --t-points 3",
            "optimize --scheme B --n inf --twist 1e308",
        ],
    )
    def test_closed_form_overflow_is_computation_error(self, capsys, argv):
        # exp(2 x (1 - s)) leaves the double range near x = 355; the closed
        # forms must fail with a typed error, not an OverflowError traceback.
        # Past x = 8.99e307, 2 x itself is inf, and exp(inf) does not raise.
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "double-precision range" in err

    @pytest.mark.parametrize("scheme", ["B", "C"])
    def test_closed_form_just_past_the_exp_range(self, capsys, scheme):
        # exp(712) overflows at t = 0, but B is exactly 0 there and C is
        # (e^712 - 1) / 712, about 2.3e306: both are finite doubles.
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", scheme, "--n", "inf",
            "--twist", "356", "--t-points", "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        values = [float(row[4]) for row in rows]
        assert len(values) == 3 and all(np.isfinite(values))

    def test_concurrent_closed_form_at_a_subnormal_twist(self, capsys):
        # At twist 1e-320 the C closed form's two 1/2x terms are about
        # 5e319 each; left to cancel, they give nan.
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", "C", "--n", "inf",
            "--twist", "1e-320", "--t-points", "3",
        )
        assert code == 0
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["1"] * 3

    @pytest.mark.parametrize("engine", ["closed_form", "fock"])
    def test_concurrent_zero_twist_is_the_benchmark(self, capsys, engine):
        # With no twisting, scheme C senses for the whole budget like A.
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", "C", "--n", "inf", "--engine", engine,
            "--twist", "0", "--t-points", "3",
        )
        assert code == 0
        assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["1"] * 3

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", "A", "--n", "3",
            "--twist", "0.0", "--t-points", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["scheme", "n_spins", "engine", "records"]
        assert payload["scheme"] == "A"
        assert payload["n_spins"] == 3
        assert payload["engine"] == "spin"
        assert len(payload["records"]) == 3
        rec = payload["records"][0]
        assert set(rec) == {
            "scheme", "n_spins", "twist_strength", "sensing_fraction",
            "sensitivity", "method",
        }
        assert rec["sensitivity"] == 1.0


class TestOptimize:
    def test_json_default_with_echo_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--scheme", "Bprime", "--n", "inf", "--twist", "8.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "closed_form"
        assert payload["n_spins"] is None
        (result,) = payload["results"]
        assert result["boundary"] == "interior"
        assert result["t_opt"] == pytest.approx(0.5, abs=2e-6)
        assert result["best_sensitivity"] == pytest.approx(1.0, rel=1e-12)

    def test_csv_format_one_row_per_twist(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--scheme", "B", "--n", "inf",
            "--twist", "0.3", "2.0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "twist_value,best_sensitivity,t_opt,boundary"
        assert len(lines) == 3
        weak = lines[1].split(",")
        assert float(weak[1]) == 1.0
        assert weak[3] == "right_edge"
        strong = lines[2].split(",")
        assert float(strong[1]) == pytest.approx(
            5.021384230796917, rel=1e-9
        )
        assert strong[3] == "interior"


class TestThreshold:
    def test_closed_form_break_even(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "threshold", "--scheme", "B", "--n", "inf",
            "--interval", "0.01", "2.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["search_interval"] == [0.01, 2.0]
        assert abs(payload["threshold"] - 0.5) <= 1.5e-3

    def test_non_bracketing_interval_is_computation_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "threshold", "--scheme", "Bprime", "--n", "inf",
            "--interval", "0.5", "2.0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestOracle:
    def test_pointwise_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", "C", "--twist", "1.0", "--t", "0.0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "scheme": "C",
            "twist_times_tau": 1.0,
            "sensing_fraction": 0.0,
            "value": payload["value"],
        }
        # (e^2 - 1) / 2 to the 12 significant digits every float prints with.
        assert payload["value"] == 3.19452804947

    def test_optimum_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", "Cprime", "--twist", "8.0", "--optimum"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2.0
        assert payload["t_opt"] == 0.0

    @pytest.mark.parametrize(
        "scheme, twist, expected",
        [
            # e^711 / 712 and (e^710 - 1) / 710, to the 12 printed digits.
            ("B", "356", 8.52897103614e305),
            ("C", "355", 3.14647150164e305),
        ],
    )
    def test_optimum_just_past_the_exp_range(self, capsys, scheme, twist, expected):
        # exp(2x - 1) or expm1(2x) overflows, but the optimum divided by 2x
        # is still a finite double.
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", scheme, "--twist", twist, "--optimum"
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value == expected

    def test_concurrent_zero_twist_is_the_benchmark(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", "C", "--twist", "0.0", "--t", "0.5"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", "C", "--twist", "0.0", "--optimum"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["t_opt"]) == (1.0, 0.0)

    def test_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--scheme", "B", "--twist", "1.0"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "oracle", "--scheme", "B", "--twist", "1.0",
                    "--t", "0.5", "--optimum",
                ]
            )
        assert exc.value.code == 2
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_scheme_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scheme", "Z", "--twist", "1.0"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_spin_count_is_usage_error(self, capsys):
        for bad in ("0", "-3", "many"):
            with pytest.raises(SystemExit) as exc:
                main(
                    ["sweep", "--scheme", "B", "--n", bad, "--twist", "1.0"]
                )
            assert exc.value.code == 2
            capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_engine_spin_count_mismatch(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--scheme", "B", "--n", "8",
            "--engine", "fock", "--twist", "1.0",
        )
        assert code == 2
        assert out == ""
        assert "n_spins" in err


    @pytest.mark.parametrize(
        "argv",
        [("sweep", "1000002"), ("optimize", "100000000")],
        ids=["sweep", "optimize"],
    )
    def test_a_grid_past_the_limit_is_usage_error(self, capsys, argv):
        # Refused before any evaluation: at 100000000 points the records
        # alone would take about 21 GB.
        command, points = argv
        code, out, err = run_cli(
            capsys, command, "--scheme", "B", "--n", "4", "--twist", "1.0",
            "--t-points", points,
        )
        assert code == 2 and out == ""
        assert "1000001" in err


def test_a_nan_sensitivity_is_computation_error(capsys, monkeypatch):
    # A readout that computes NaN is a numerical fault: exit 1, not the
    # usage exit 2, and no output. The Fisher information of every column
    # comes out NaN, so the figure of merit of each curve call refuses it.
    from twistsense import metrology

    def nan_qfi(state):
        return np.full(state.psi.amplitudes.shape[1:], np.nan)

    monkeypatch.setattr(metrology, "qfi", nan_qfi)
    for command in ("sweep", "optimize"):
        code, out, err = run_cli(
            capsys, command, "--scheme", "B", "--n", "4", "--twist", "1.0"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nan" in err


@pytest.mark.parametrize(
    "message", ["Unable to allocate 7.45 GiB", ""], ids=["message", "no-message"]
)
def test_a_refused_allocation_is_computation_error(capsys, monkeypatch, message):
    # A MemoryError is reported as one error line and exit 1, not a
    # traceback; one without a message of its own is named.
    from twistsense import cli

    def refused(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_sweep", refused)
    code, out, err = run_cli(
        capsys, "sweep", "--scheme", "B", "--n", "4", "--twist", "1.0"
    )
    assert code == 1 and out == ""
    assert err == f"error: {message or 'MemoryError'}\n"


class TestValidateSubcommand:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "branch_continuity")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS bosonic.branch_continuity"
        assert lines[-1] == "1/1 checks passed"

    def test_unmatched_filter_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--only", "no_such_check")
        assert code == 2
        assert out == ""
        assert err == "error: no checks match 'no_such_check'\n"


def test_module_entry_point_matches_main(capsys):
    # ``python -m twistsense`` from a checkout, with only src on the path.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    argv = ["oracle", "--scheme", "B", "--twist", "2", "--optimum"]
    done = subprocess.run(
        [sys.executable, "-m", "twistsense", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, out, _ = run_cli(capsys, *argv)
    assert done.returncode == code == 0
    assert done.stdout == out


# The seven command lines shown in the README, in order. Their stdout is
# recorded in tests/data/readme_cli.txt; rerecord it with
# ``PYTHONPATH=src python tests/test_cli.py`` only when a change of the
# printed numbers is intended and explained.
README_COMMANDS = (
    "sweep --scheme Bprime --n 100 --twist 8 11.5 --t-points 201",
    "optimize --scheme C --n inf --twist 0.5 1 2 5",
    "optimize --scheme B --n 500 --twist 1 --format csv",
    "threshold --scheme Bprime --n 10 --interval 9 14",
    "threshold --scheme Cprime --n inf --interval 1 9",
    "oracle --scheme C --twist 1 --t 0.2",
    "oracle --scheme B --twist 2 --optimum",
)
README_TRANSCRIPT = Path(__file__).resolve().parent / "data" / "readme_cli.txt"


def readme_transcript() -> str:
    """Each README command line, then its stdout."""
    parts = []
    for command in README_COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(command.split())
        assert code == 0, command
        parts.append(f"$ twistsense {command}\n{stdout.getvalue()}")
    return "".join(parts)


def test_readme_commands_print_the_recorded_output():
    assert readme_transcript() == README_TRANSCRIPT.read_text()


if __name__ == "__main__":
    README_TRANSCRIPT.parent.mkdir(exist_ok=True)
    README_TRANSCRIPT.write_text(readme_transcript())

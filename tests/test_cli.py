"""Command-line interface: formats, determinism, exit codes."""

import json

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

    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = (
            "sweep", "--scheme", "C", "--n", "12",
            "--twist", "2.0", "--t-points", "7",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

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
        ],
    )
    def test_closed_form_overflow_is_computation_error(self, capsys, argv):
        # exp(2 x (1 - s)) leaves the double range near x = 355; the closed
        # forms must fail with a typed error, not an OverflowError traceback.
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "double-precision range" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--scheme", "A", "--n", "3",
            "--twist", "0.0", "--t-points", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
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
        assert payload["value"] == pytest.approx(3.1945280494653248, rel=1e-14)

    def test_optimum_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--scheme", "Cprime", "--twist", "8.0", "--optimum"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2.0
        assert payload["t_opt"] == 0.0

    def test_singular_point_is_computation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--scheme", "C", "--twist", "0.0", "--t", "0.5"
        )
        assert code == 1
        assert "singular" in err

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


class TestValidateSubcommand:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--only", "branch_continuity")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS bosonic.branch_continuity"
        assert lines[-1] == "1/1 checks passed"

    def test_unmatched_filter_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--only", "no_such_check")
        assert code == 2
